"""Command-line interface: catalog, fuse, table, verify.

Exit codes: 0 success, 1 verification failure or unwritable output,
2 invalid input, 3 internal fault of the engine, the wall oracle or a table
reader.  All output is deterministic.  BPRING_THREADS, a positive integer
(unset or empty means 1), sets how many worker processes build a table,
capped at the CPU count; any other value is invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bimodules import catalogue, catalogue_entry, format_simple, label_parse
from .closed_form import closed_form_table
from .cyclotomic import is_prime
from .fusion import RelativeTensorProduct, build_table
from .ladders import EngineError
from .ring import TableError, check_axioms, diff_tables, serialize
from .walls import OracleError, oracle_table


def _fmt_simple(m) -> str:
    return f"({format_simple(m)})" if isinstance(m, tuple) else format_simple(m)


def _entry_payload(entry) -> dict:
    p = entry.p
    return {
        "label": str(entry.label),
        "subgroup": str(entry.subgroup),
        "object_count": len(entry.simples),
        "objects": [_fmt_simple(m) for m in entry.simples],
        "left_action": {
            str(g): {_fmt_simple(m): _fmt_simple(entry.left(g, m)) for m in entry.simples}
            for g in range(p)
        },
        "right_action": {
            str(h): {_fmt_simple(m): _fmt_simple(entry.right(m, h)) for m in entry.simples}
            for h in range(p)
        },
        "associator_exponent": entry.cocycle.q,
    }


def _entry_markdown(entry) -> list[str]:
    lines = [f"### {entry.label}", ""]
    lines.append(f"- subgroup: {entry.subgroup}")
    lines.append(f"- objects ({len(entry.simples)}): " + ", ".join(_fmt_simple(m) for m in entry.simples))
    lines.append(f"- associator exponent: {entry.cocycle.q}")
    for g in range(entry.p):
        moves = ", ".join(f"{_fmt_simple(m)}->{_fmt_simple(entry.left(g, m))}" for m in entry.simples)
        lines.append(f"- left {g}: {moves}")
    for h in range(entry.p):
        moves = ", ".join(f"{_fmt_simple(m)}->{_fmt_simple(entry.right(m, h))}" for m in entry.simples)
        lines.append(f"- right {h}: {moves}")
    lines.append("")
    return lines


def _cmd_catalog(args) -> int:
    entries = catalogue(args.p)
    if args.format == "json":
        payload = {"p": args.p, "entries": [_entry_payload(e) for e in entries]}
        print(json.dumps(payload, indent=2))
    else:
        lines = [f"## Vec(Z_{args.p}) bimodule catalogue ({len(entries)} entries)", ""]
        for e in entries:
            lines.extend(_entry_markdown(e))
        print("\n".join(lines).rstrip())
    return 0


def _cmd_fuse(args) -> int:
    left = catalogue_entry(args.p, label_parse(args.left))
    right = catalogue_entry(args.p, label_parse(args.right))
    product = RelativeTensorProduct(left, right)
    analysis = product.analyze()
    if args.format == "json":
        payload = {
            "p": args.p,
            "left": args.left,
            "right": args.right,
            "result": str(analysis.decomposition),
            "summands": [
                {"label": str(label), "mult": mult}
                for label, mult in analysis.decomposition.summands
            ],
        }
        if args.detail:
            payload["detail"] = {
                "ladder_objects": analysis.object_count,
                "end_dimensions": {str(k): v for k, v in sorted(analysis.end_dimensions.items())},
                "kar_simples": analysis.simple_count,
                "orbits": [
                    {
                        "representative": str(o.representative),
                        "size": o.size,
                        "stabilizer": str(o.stabilizer),
                        "associator_exponent": o.assoc_exponent,
                        "label": str(o.label),
                    }
                    for o in analysis.orbits
                ],
            }
        print(json.dumps(payload, indent=2))
        return 0
    if args.detail:
        print(f"{args.left} (x) {args.right} at p={args.p}")
        print(f"ladder objects: {analysis.object_count}")
        dims = ", ".join(f"dim {k}: {v} objects" for k, v in sorted(analysis.end_dimensions.items()))
        print(f"end algebras: {dims}")
        print(f"karoubi simples: {analysis.simple_count}")
        print("orbits:")
        for o in analysis.orbits:
            print(
                f"  rep {o.representative}  size {o.size}  stabilizer {o.stabilizer}  "
                f"associator exponent {o.assoc_exponent}  -> {o.label}"
            )
    print(str(analysis.decomposition))
    return 0


def _cmd_table(args) -> int:
    table = build_table(args.p)
    text = serialize(table, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    failures = []
    table = build_table(args.p)
    golden = diff_tables(table, closed_form_table(args.p))
    if golden:
        failures.append(("closed-form table", golden))
    report = check_axioms(table, check_associativity=args.triples)
    if not report.unit_ok:
        failures.append(("unit", [v for v in report.violations if not v.startswith("associativity")]))
    if args.triples and not report.associativity_ok:
        failures.append(("associativity", [v for v in report.violations if v.startswith("associativity")]))
    if args.oracle:
        oracle_diff = diff_tables(table, oracle_table(args.p))
        if oracle_diff:
            failures.append(("wall oracle", oracle_diff))

    checks = ["closed-form table", "unit"]
    if args.triples:
        checks.append("associativity")
    if args.oracle:
        checks.append("wall oracle")
    failed_names = {name for name, _ in failures}
    for name in checks:
        status = "FAIL" if name in failed_names else "ok"
        print(f"{name}: {status}")
    for name, diffs in failures:
        for line in diffs[:20]:
            print(f"  {name}: {line}")
        if len(diffs) > 20:
            print(f"  ... {len(diffs) - 20} more")
    return 1 if failures else 0


def _prime(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"p must be prime, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bpring", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="list the 2p+2 indecomposable bimodules")
    cat.add_argument("--p", type=_prime, required=True)
    cat.add_argument("--format", choices=["json", "md"], default="md")
    cat.set_defaults(func=_cmd_catalog)

    fuse = sub.add_parser("fuse", help="compute one relative tensor product")
    fuse.add_argument("--p", type=_prime, required=True)
    fuse.add_argument("--left", required=True)
    fuse.add_argument("--right", required=True)
    fuse.add_argument("--detail", action="store_true", help="print the intermediate computation")
    fuse.add_argument("--format", choices=["json", "md"], default="md")
    fuse.set_defaults(func=_cmd_fuse)

    tab = sub.add_parser("table", help="emit the full multiplication table")
    tab.add_argument("--p", type=_prime, required=True)
    tab.add_argument("--format", choices=["json", "md", "csv"], default="md")
    tab.add_argument("--out", default=None)
    tab.set_defaults(func=_cmd_table)

    ver = sub.add_parser("verify", help="check the engine against the closed form")
    ver.add_argument("--p", type=_prime, required=True)
    ver.add_argument("--oracle", action="store_true", help="also compare with the wall oracle")
    ver.add_argument("--triples", action="store_true", help="exhaustive associativity check")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the invalid-input code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, OracleError, TableError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
