"""Checks beyond the tier-1 tests, at primes or on inputs too large for them.

    python tests/beyond_tier1.py NAME

runs one check and exits with 0 when it passes; a failing check exits with
a message naming what failed.  python tests/beyond_tier1.py lists the names.
Each check uses fixed primes and seeds.
"""

import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

CHECKS = {}


def check(name):
    def register(fn):
        CHECKS[name] = fn
        return fn

    return register


@check("closed-form-vs-oracle")
def closed_form_vs_oracle():
    """The closed form and the wall oracle fill their tables by basis index, so
    the two cheap routes are compared at primes the engine cannot reach in CI time."""
    from bpring.closed_form import closed_form_table
    from bpring.walls import oracle_table

    bad = [p for p in (29, 31, 37, 41, 53, 97, 101) if closed_form_table(p).constants != oracle_table(p).constants]
    return f"closed form and wall oracle differ at p in {bad}" if bad else None


@check("lagrangian-completeness")
def lagrangian_completeness():
    """The catalogue is complete: wall_of maps the 2p+2 labels one to one onto
    the Lagrangian subgroups of the folded double, which tests/wall_oracle.py
    enumerates, at the primes beyond the tier-1 test's p <= 5."""
    from bpring.bimodules import all_labels
    from bpring.walls import wall_of
    from wall_oracle import lagrangian_subgroups, wall_points

    bad = []
    for p in (7, 11, 13, 17, 19, 23):
        subgroups = lagrangian_subgroups(p)
        images = [wall_points(p, wall_of(p, label)) for label in all_labels(p)]
        if len(subgroups) != 2 * p + 2 or len(set(images)) != len(images) or set(images) != set(subgroups):
            bad.append(p)
    return f"labels and Lagrangian subgroups are not in bijection at p in {bad}" if bad else None


@check("ring-readers")
def ring_readers():
    """The ring readers on the sparse cells of tables larger than any the tier-1
    tests read: axioms, the dihedral units group and the JSON round trip.

    check_axioms accepts after comparing a few middles and proving the rest
    by closure, so at p=41 one replaced cell (X2 x X2 = X1 instead of X4)
    must still be found.  serialize writes each cell's JSON text itself, so
    its text must equal the json encoder's (plain_serialize_json).
    """
    from bpring.bimodules import label_parse
    from bpring.closed_form import closed_form_table
    from bpring.ring import check_axioms, parse_json, serialize, units_group
    from ring_oracle import plain_serialize_json

    bad = []
    for p in (29, 31, 37, 41, 53, 59):
        t = closed_form_table(p)
        units = units_group(t)
        text = serialize(t, "json")
        if not check_axioms(t).ok() or (units.order, units.is_dihedral()) != (2 * (p - 1), True):
            bad.append(p)
        elif serialize(parse_json(text), "json") != text or text != plain_serialize_json(t):
            bad.append(p)
    t = closed_form_table(41)
    x1, x2 = t.index(label_parse("X1")), t.index(label_parse("X2"))
    t.constants[x2][x2] = ((x1, 1),)
    if check_axioms(t).associativity_ok:
        bad.append("41 with X2 x X2 = X1")
    return f"ring readers fail on the closed form at p in {bad}" if bad else None


@check("json-round-trip")
def json_round_trip():
    """serialize writes the JSON products block itself: the engine's p=17 table,
    written by the CLI, parsed and re-serialized, must give the same text."""
    from bpring.cli import main
    from bpring.ring import parse_json, serialize

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table-p17.json"
        if main(["table", "--p", "17", "--format", "json", "--out", str(path)]) != 0:
            return "table --p 17 --format json failed"
        text = path.read_text(encoding="utf-8")
    return "the p=17 table does not survive a JSON round trip" if serialize(parse_json(text), "json") != text else None


@check("witness-vs-composing-oracle")
def witness_vs_composing_oracle():
    """Beyond the tier-1 primes, the witness associator must agree with the
    oracle that composes every path and rotates every rung by its table
    exponent (acted_witness_exponent), on every orbit at p=13.

    The witness route reads a path that lands on a base as the base's
    idempotent and acts by a trivial mixed associator without rotating.  R x
    L is also run with both factors gauge-twisted (R on the right and L on
    the left by a character per simple, which no coboundary twist changes),
    so the rotating path is compared there too.  X_k x T and X_a x X_b have
    paths that compose, and every product is also run on relabelled entries,
    whose leg simples are out of the catalogue's order.  Each path is sorted
    into one of three kinds: a first landing off its base (the acted
    connector composed), a second landing off its base after a base (the
    acted idempotent composed), and a base landing (the base's idempotent);
    each kind must occur.
    """
    from collections import Counter

    from action_oracle import acted_witness_exponent
    from bimodule_transforms import character_twist, relabel
    from bpring.bimodules import catalogue_entry, label_parse
    from bpring.fusion import RelativeTensorProduct

    p, rng, bad, checked, kinds = 13, random.Random(1313), [], 0, Counter()
    entry = lambda a: catalogue_entry(p, label_parse(a))
    twist = lambda e, side: character_twist(e, {m: rng.randrange(p) for m in e.simples}, side)
    names = (("R", "L"), ("R", "F0"), ("F3", "F5"), ("F2", "X3"), ("X4", "T"), ("X2", "X7"))
    pairs = [(f"{a} x {b}", entry(a), entry(b)) for a, b in names]
    pairs.append(("R x L, gauge-twisted", twist(entry("R"), "right"), twist(entry("L"), "left")))
    if pairs[-1][1].trivial_mixed or pairs[-1][2].trivial_mixed:
        return "the gauge twists left a mixed table all zero"
    pairs += [(f"{name}, relabelled", relabel(M, rng), relabel(N, rng)) for name, M, N in pairs]
    for name, M, N in pairs:
        product = RelativeTensorProduct(M, N)
        env = product.env
        for first, _ in product.orbits():
            s = product.env.simple(first)
            base = env._bases[first], s.representative.coeffs
            for g, h in ((1, 1), (2, 5)):
                checked += 1
                if product.mixed_associator(g, h, s) != acted_witness_exponent(product, g, h, s):
                    bad.append(f"{name} at {s}, (g, h) = ({g}, {h})")
                for route in (("right", h, "left", g), ("left", g, "right", h)):
                    c2, source, _ = product._witness_path(*route, *base)
                    j = product._shift(route[0], route[1], base[0])
                    if env._bases[env.class_at(j)] != j:
                        kinds["first off base"] += 1
                    else:
                        kinds["base" if source == env._bases[c2] else "second off base"] += 1
    print(f"{checked} exponents compared at p={p}; paths by kind: {dict(kinds)}")
    if len(kinds) != 3:
        return f"not every kind of witness path occurred: {dict(kinds)}"
    return f"witness associator differs from the composing oracle: {bad}" if bad else None


@check("engine-products-p5")
def engine_products_p5():
    """The engine's products read back as bimodules beyond the tier-1 prime.

    On seeded triples at p=5, plain and with A and C twisted (R and L by a
    character, so that their tables change too), each product passes
    validate, decompose(A x B, C) equals decompose(A, B x C), and it equals
    the sum of decompose(s, C) over the summands s of A x B.
    """
    from bimodule_transforms import ProductMemo, random_twist
    from bpring.bimodules import Decomposition, catalogue, validate
    from bpring.fusion import RelativeTensorProduct

    p, rng, bad, checked = 5, random.Random(55), [], 0
    cat = catalogue(p)
    entry = {e.label: e for e in cat}
    twist = lambda e: random_twist(e, rng)
    for lefts, rights in ((cat, cat), ([twist(e) for e in cat], [twist(e) for e in cat])):
        ab, bc = ProductMemo(lefts, cat), ProductMemo(cat, rights)
        for _ in range(40):
            i, j, k = (rng.randrange(len(cat)) for _ in range(3))
            where = f"{cat[i].label} x {cat[j].label} x {cat[k].label}, twisted: {lefts is not cat}"
            if validate(ab[i, j]) or validate(bc[j, k]):
                bad.append(f"{where}: a product fails validate")
            left = RelativeTensorProduct(ab[i, j], rights[k]).decompose()
            if left != RelativeTensorProduct(lefts[i], bc[j, k]).decompose():
                bad.append(f"{where}: not associative")
            parts = [(l, m * n) for s, m in RelativeTensorProduct(lefts[i], cat[j]).decompose().summands
                     for l, n in RelativeTensorProduct(entry[s], rights[k]).decompose().summands]
            if left != Decomposition.from_pairs(parts):
                bad.append(f"{where}: not distributive")
            checked += 1
    print(f"{checked} triples checked at p={p}")
    return f"engine products fail as bimodules: {bad}" if bad else None


@check("kernel-vs-field-oracle-p17")
def kernel_vs_field_oracle_p17():
    """Every composition of serial build_table(17), beyond the tier-1 primes,
    against the scalar loop on the general field scalars (scalar_oracle): the
    kernel's monomial read-back must give the oracle's values, rung for rung
    and in the same order.  The stored projectors are rebuilt, so their
    idempotent checks are compared too."""
    from bpring import karoubi, ladders
    from bpring.fusion import build_table
    from compose_oracle import scalar_product
    from scalar_oracle import to_oracle

    p, kernel, bad, checked = 17, ladders.group_algebra_product, [], 0
    oracle = lambda xs: {b: to_oracle(c) for b, c in xs.items()}

    def compared(q, f, g):
        nonlocal checked
        got = kernel(q, f, g)
        want = scalar_product(q, oracle(f), oracle(g))
        checked += 1
        if oracle(got) != want or list(got) != list(want):
            bad.append((f, g))
        return got

    ladders.group_algebra_product = karoubi.group_algebra_product = compared
    karoubi._projector_coeffs.cache_clear()
    try:
        build_table(p, workers=1)
    finally:
        ladders.group_algebra_product = karoubi.group_algebra_product = kernel
        karoubi._projector_coeffs.cache_clear()
    print(f"{checked} compositions compared at p={p}")
    if not checked:
        return "build_table(17) made no composition"
    return f"kernel differs from the field oracle on {len(bad)} compositions, first {bad[0]}" if bad else None


@check("fuse-detail")
def fuse_detail():
    """Six single products through fuse --detail beyond the tier-1 primes, in
    one process.  Each runs through bpring.cli.main with its output captured
    and printed, and must exit with 0 and print the expected whole line, or
    the expected part of a line where one is named:

    - T x T at p=17, exit code only: decompose runs the witness associator on
      full-stabilizer orbits only; fuse --detail runs it on every orbit, here
      17 trivial-stabilizer ones.
    - R x L at p=11, line 11*T: products-p11's slowest item.  Every simple is
      a character projector on a fixed object, sharing the stored projectors,
      and every orbit goes through the witness associator, located by class
      index.
    - R x F0 at p=11, line 11*R: products-p11's other fixed-object item, 11
      simples on one fixed object per simple of R, every witness composite a
      product of full projectors.
    - F5 x X7 at p=23, part "associator exponent 12  -> F12": the rotated
      witness route.  The exponent is q*l = 35 = 12 mod 23 under the
      calibration in the fusion docstring.
    - R x F0 at p=23, line 23*R: the stored projector table and the kernel's
      one-numerator output rungs.  Every simple is a character projector on
      a fixed object, and the witness composites have denominator 23^2
      before they reduce.
    - R x L at p=23, line 23*T: all 23 rows are N-fixed, with 529 classes
      each (23 fixed M simples times 23 characters), so the step tables read
      each row's left and right block of 529 classes by one gather from the
      row's own classes, and the witness associator runs on each of the 23
      orbits, of size 529.
    """
    import contextlib
    import io

    from bpring.cli import main

    runs = [  # (p, left, right, expected, whether it is a whole line)
        ("17", "T", "T", "", False),
        ("11", "R", "L", "11*T", True),
        ("11", "R", "F0", "11*R", True),
        ("23", "F5", "X7", "associator exponent 12  -> F12", False),
        ("23", "R", "F0", "23*R", True),
        ("23", "R", "L", "23*T", True),
    ]
    bad = []
    for p, left, right, want, whole in runs:
        argv = ["fuse", "--p", p, "--left", left, "--right", right, "--detail"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        text = out.getvalue()
        print(f"$ bpring {' '.join(argv)}\n{text}", end="")
        if code != 0 or not (want in text.splitlines() if whole else want in text):
            bad.append(f"{left} x {right} at p={p} (exit {code})")
    return f"fuse --detail misses its expected output on {bad}" if bad else None


@check("envelope-memory")
def envelope_memory():
    """The envelope's memory grows with its classes, not its objects: T x T at
    p=53 (7.9 million ladder objects, 148 877 classes) decomposes to 53*T with
    a tracemalloc peak of at most 34 MiB, a quarter of the 136.5 MiB that one
    class and one rung entry per object took.  The catalogue entries are built
    before tracing starts."""
    import tracemalloc

    from bpring.bimodules import catalogue_entry, label_parse
    from bpring.fusion import RelativeTensorProduct

    p, limit_mib = 53, 34
    T = catalogue_entry(p, label_parse("T"))
    tracemalloc.start()
    try:
        result = RelativeTensorProduct(T, T).decompose()
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    if str(result) != f"{p}*T":
        return f"T x T at p={p} decomposes to {result}, not {p}*T"
    if peak_mib > limit_mib:
        return f"T x T at p={p} peaked at {peak_mib:.1f} MiB under tracemalloc, above {limit_mib} MiB"
    return None


@check("pool-under-spawn")
def pool_under_spawn():
    """The worker pool of build_table when workers start by spawn, the default on
    macOS (and forkserver, from Python 3.14 on Linux): each worker imports the
    package afresh, and its names load on first use there too."""
    import multiprocessing

    from bpring.closed_form import closed_form_table
    from bpring.fusion import build_table

    multiprocessing.set_start_method("spawn")
    if build_table(7, workers=2).constants != closed_form_table(7).constants:
        return "build_table(7, workers=2) under spawn differs from the closed form"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in CHECKS:
        print("usage: python tests/beyond_tier1.py NAME, one of: " + ", ".join(CHECKS), file=sys.stderr)
        return 2
    failure = CHECKS[argv[0]]()
    if failure:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
