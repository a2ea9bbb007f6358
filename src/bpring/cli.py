"""Command-line interface: catalog, fuse, table, verify.

Exit codes: 0 success, 1 verification failure or unwritable output,
2 invalid input, 3 internal fault of the engine, the wall oracle or a table
reader.  verify runs the same four checks on every run, in this order: the
engine's table against the closed form, the unit, associativity on every
triple, and the table against the wall oracle.  It prints one status line
per check, then each failing check's findings, at most 20 lines each.
All output is deterministic.  --p and each label have one spelling, with
no surrounding whitespace and any number in ASCII digits with no leading
zero; any other spelling is invalid input, and fuse prints each label as
parsed.  BPRING_THREADS, a positive integer (unset or empty means 1), sets
how many worker processes build a table, capped at the CPU count; any other
value is invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .bimodules import NUMBER, catalogue, catalogue_entry, format_simple, label_invariants, label_parse
from .closed_form import closed_form_table
from .cyclotomic import is_prime
from .fusion import RelativeTensorProduct, build_table
from .ladders import EngineError
from .ring import TableError, check_axioms, diff_tables, serialize
from .walls import OracleError, oracle_table


def _fmt_simple(m) -> str:
    return f"({format_simple(m)})" if isinstance(m, tuple) else format_simple(m)


def _moves(entry, table) -> list[list[tuple[str, str]]]:
    """Each row of an action table as (simple, image) pairs of printed labels."""
    names = [_fmt_simple(m) for m in entry.simples]
    return [[(names[i], names[t]) for i, t in enumerate(row)] for row in table]


def _entry_payload(entry) -> dict:
    subgroup, q = label_invariants(entry.p, entry.label)
    payload = {
        "label": str(entry.label),
        "subgroup": str(subgroup),
        "object_count": len(entry.simples),
        "objects": [_fmt_simple(m) for m in entry.simples],
    }
    for side, table in (("left", entry.left), ("right", entry.right)):
        payload[f"{side}_action"] = {str(g): dict(row) for g, row in enumerate(_moves(entry, table))}
    payload["associator_exponent"] = q
    return payload


def _entry_markdown(entry) -> list[str]:
    subgroup, q = label_invariants(entry.p, entry.label)
    lines = [f"### {entry.label}", ""]
    lines.append(f"- subgroup: {subgroup}")
    lines.append(f"- objects ({len(entry.simples)}): " + ", ".join(_fmt_simple(m) for m in entry.simples))
    lines.append(f"- associator exponent: {q}")
    for side, table in (("left", entry.left), ("right", entry.right)):
        for g, row in enumerate(_moves(entry, table)):
            lines.append(f"- {side} {g}: " + ", ".join(f"{m}->{t}" for m, t in row))
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
            "left": str(left.label),
            "right": str(right.label),
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
        print(f"{left.label} (x) {right.label} at p={args.p}")
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
    table = build_table(args.p)
    golden = diff_tables(table, closed_form_table(args.p))
    report = check_axioms(table)
    checks = [
        ("closed-form table", golden),
        ("unit", report.unit),
        ("associativity", report.associativity),
        ("wall oracle", diff_tables(table, oracle_table(args.p))),
    ]
    for name, findings in checks:
        print(f"{name}: {'FAIL' if findings else 'ok'}")
    for name, findings in checks:
        for line in findings[:20]:
            print(f"  {name}: {line}")
        if len(findings) > 20:
            print(f"  ... {len(findings) - 20} more")
    return 1 if any(findings for _, findings in checks) else 0


def _prime(text: str) -> int:
    """p from its one spelling: ASCII digits with no leading zero, so "1_1", "+7" or "07" are bad input."""
    if not NUMBER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"p must be ASCII digits with no leading zero, got {text!r}")
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"p must be prime, got {value}")
    return value


def _usage_error(message: str):
    """Raise a usage error as argparse.ArgumentError, where argparse would print its usage line and exit."""
    raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; every usage error raises argparse.ArgumentError, which main reports in one line.

    That covers a bad option value, a missing or unknown option and a
    missing or unknown command.
    """
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

    ver = sub.add_parser("verify", help="check the engine: closed form, unit, associativity, wall oracle")
    ver.add_argument("--p", type=_prime, required=True)
    ver.set_defaults(func=_cmd_verify)
    for each in (parser, *sub.choices.values()):
        each.error = _usage_error
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # --help exits with 0
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
