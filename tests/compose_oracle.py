"""Ladder composition one scalar at a time, kept as an oracle for the tests.

`bpring.cyclotomic.group_algebra_product` composes on integer numerators and
puts each output rung in canonical form once.  This is the plain loop over
rung pairs: one `CyclotomicScalar` product and sum per pair, with the rungs
that sum to zero dropped at the end.
"""


def scalar_product(p: int, f: dict, g: dict) -> dict:
    """f * g in Q(zeta_p)[Z_p]: rung b1 times rung b2 lands on b1 + b2 mod p."""
    coeffs = {}
    for b1, c1 in f.items():
        for b2, c2 in g.items():
            b = (b1 + b2) % p
            c = c1 * c2
            coeffs[b] = coeffs[b] + c if b in coeffs else c
    return {b: c for b, c in coeffs.items() if not c.is_zero()}
