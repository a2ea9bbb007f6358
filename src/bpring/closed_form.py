"""The hand-written multiplication law of the Brauer-Picard ring of Vec(Z_p).

closed_form_product writes each structure constant out by kind of label, with
index arithmetic mod p; closed_form_table fills a RingTable with it.  It is
the golden reference for the engine's table (bpring.fusion.build_table) and
the wall oracle (bpring.walls.oracle_table), and it imports neither:
tests/test_import_graph.py checks that it reaches only the shared modules.
"""

from __future__ import annotations

from .bimodules import BimoduleLabel, Decomposition
from .cyclotomic import require_prime
from .ring import RingTable


def closed_form_product(p: int, a: BimoduleLabel, b: BimoduleLabel) -> Decomposition:
    """The multiplication law written out by hand, independent of the engine.

    Index arithmetic is mod p with multiplicative inverses mod p.
    """
    require_prime(p)
    inv = lambda x: pow(x, p - 2, p)
    T, L, R, F0 = BimoduleLabel("T"), BimoduleLabel("L"), BimoduleLabel("R"), BimoduleLabel("F", 0)

    def F(q):
        q = q % p
        return BimoduleLabel("F", q)

    def X(k):
        k = k % p
        if k == 0:
            raise ValueError("X index must be nonzero")
        return BimoduleLabel("X", k)

    one = Decomposition.single
    ka, kb = a.kind, b.kind
    if ka == "T":
        return _row_T(p, b)
    if ka == "L":
        return _row_L(p, b)
    if ka == "R":
        return _row_R(p, b)
    if ka == "F" and a.index == 0:
        return _row_F0(p, b)
    if ka == "X":
        k = a.index
        if kb == "T":
            return one(T)
        if kb == "L":
            return one(L)
        if kb == "R":
            return one(R)
        if kb == "F" and b.index == 0:
            return one(F0)
        if kb == "X":
            return one(X(k * b.index))
        return one(F(inv(k) * b.index))
    # a = F_q with q != 0
    q = a.index
    if kb == "T":
        return one(L)
    if kb == "L":
        return one(T)
    if kb == "R":
        return one(F0)
    if kb == "F" and b.index == 0:
        return one(R)
    if kb == "X":
        return one(F(q * b.index))
    return one(X(inv(q) * b.index))


def _row_T(p, b):
    T, R = BimoduleLabel("T"), BimoduleLabel("R")
    one = Decomposition.single
    if b.kind == "T":
        return one(T, p)
    if b.kind == "L":
        return one(T)
    if b.kind == "R":
        return one(R, p)
    if b.kind == "F" and b.index == 0:
        return one(R)
    if b.kind == "X":
        return one(T)
    return one(R)


def _row_L(p, b):
    L, F0 = BimoduleLabel("L"), BimoduleLabel("F", 0)
    one = Decomposition.single
    if b.kind == "T":
        return one(L, p)
    if b.kind == "L":
        return one(L)
    if b.kind == "R":
        return one(F0, p)
    if b.kind == "F" and b.index == 0:
        return one(F0)
    if b.kind == "X":
        return one(L)
    return one(F0)


def _row_R(p, b):
    T, R = BimoduleLabel("T"), BimoduleLabel("R")
    one = Decomposition.single
    if b.kind == "T":
        return one(T)
    if b.kind == "L":
        return one(T, p)
    if b.kind == "R":
        return one(R)
    if b.kind == "F" and b.index == 0:
        return one(R, p)
    if b.kind == "X":
        return one(R)
    return one(T)


def _row_F0(p, b):
    L, F0 = BimoduleLabel("L"), BimoduleLabel("F", 0)
    one = Decomposition.single
    if b.kind == "T":
        return one(L)
    if b.kind == "L":
        return one(L, p)
    if b.kind == "R":
        return one(F0)
    if b.kind == "F" and b.index == 0:
        return one(F0, p)
    if b.kind == "X":
        return one(F0)
    return one(L)


def closed_form_table(p: int) -> RingTable:
    table = RingTable.empty(p)
    for a in table.basis:
        for b in table.basis:
            table.set_product(a, b, closed_form_product(p, a, b))
    return table
