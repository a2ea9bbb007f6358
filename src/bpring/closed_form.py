"""The hand-written multiplication law of the Brauer-Picard ring of Vec(Z_p).

The law is written once, by kind of label, on basis indices: the basis is
all_labels(p), T, L, R, F0, X1..X_{p-1}, F1..F_{p-1}, so X_k sits at index
3 + k and F_q (q != 0) at p + 2 + q.  _row(p, i) gives a_i x a_j for every
column j as one (basis index, multiplicity), with index arithmetic mod p and
inverses mod p.  closed_form_table hands these rows to RingTable.from_cells,
which stores each pair as a one-pair sparse cell, with no label in the loop
and one prime check per call; closed_form_product is a label wrapper over
the same rows.  It is the golden reference for the engine's table
(bpring.fusion.build_table) and the wall oracle (bpring.walls.oracle_table),
and it imports neither: tests/test_import_graph.py checks that it reaches
only the shared modules.
"""

from __future__ import annotations

from .bimodules import BimoduleLabel, Decomposition, all_labels, basis_index
from .cyclotomic import require_prime
from .ring import RingTable

T, L, R, F0 = range(4)  # basis indices of the boundary labels


def _boundary_rows(p: int) -> tuple:
    """The rows of T, L, R and F0 by kind of the right factor."""
    return (
        # b = T     L        R        F0       X_k      F_q, q != 0
        ((T, p),  (T, 1),  (R, p),  (R, 1),  (T, 1),  (R, 1)),  # a = T
        ((L, p),  (L, 1),  (F0, p), (F0, 1), (L, 1),  (F0, 1)),  # a = L
        ((T, 1),  (T, p),  (R, 1),  (R, p),  (R, 1),  (T, 1)),  # a = R
        ((L, 1),  (L, p),  (F0, 1), (F0, p), (F0, 1), (L, 1)),  # a = F0
    )


def _row(p: int, i: int) -> list[tuple[int, int]]:
    """a_i x a_j for every basis index j, as (basis index, multiplicity)."""
    ks = range(1, p)
    if i < 4:
        on_t, on_l, on_r, on_f0, on_x, on_f = _boundary_rows(p)[i]
        return [on_t, on_l, on_r, on_f0] + [on_x] * (p - 1) + [on_f] * (p - 1)
    if i < p + 3:
        # X_u fixes the boundary labels; X_u X_k = X_(uk), X_u F_q = F_(q/u)
        u = i - 3
        w = pow(u, p - 2, p)
        return (
            [(T, 1), (L, 1), (R, 1), (F0, 1)]
            + [(3 + u * k % p, 1) for k in ks]
            + [(p + 2 + w * q % p, 1) for q in ks]
        )
    # F_u swaps T <-> L and R <-> F0; F_u X_k = F_(uk), F_u F_q = X_(q/u)
    u = i - p - 2
    w = pow(u, p - 2, p)
    return (
        [(L, 1), (T, 1), (F0, 1), (R, 1)]
        + [(p + 2 + u * k % p, 1) for k in ks]
        + [(3 + w * q % p, 1) for q in ks]
    )


def closed_form_product(p: int, a: BimoduleLabel, b: BimoduleLabel) -> Decomposition:
    """The multiplication law written out by hand, independent of the engine.

    A label outside the basis at p raises ValueError.
    """
    require_prime(p)
    k, mult = _row(p, basis_index(p, a))[basis_index(p, b)]
    return Decomposition.single(all_labels(p)[k], mult)


def closed_form_table(p: int) -> RingTable:
    require_prime(p)
    return RingTable.from_cells(p, [_row(p, i) for i in range(2 * p + 2)])
