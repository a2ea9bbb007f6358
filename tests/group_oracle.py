"""Group helpers the library does not use, kept as oracles for the tests.

Elements of Z_p x Z_p are (left, right) int tuples, as in bpring.groups.
"""

from bpring.cyclotomic import CyclotomicScalar, root_of_unity
from bpring.groups import CocycleClass


def pair_add(p: int, x, y) -> tuple[int, int]:
    return (x[0] + y[0]) % p, (x[1] + y[1]) % p


def cocycle_phase(c: CocycleClass, x, y) -> CyclotomicScalar:
    """The bilinear 2-cocycle w(x, y) = zeta^(q x_right y_left) of class c."""
    return root_of_unity(c.p, c.q * x[1] * y[0])
