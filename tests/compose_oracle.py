"""Ladder composition one scalar at a time, kept as an oracle for the tests.

`bpring.ladders.group_algebra_product` sums each output rung's integer
numerators by power and reads the rung back as one monomial.  This is the
plain loop over rung pairs: one scalar product and sum per pair, with the
rungs that sum to zero dropped at the end.  It needs a scalar with + and *,
so the tests run it on the field oracle (scalar_oracle.FieldScalar).
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
