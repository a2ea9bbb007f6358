"""Command-line interface: catalog, fuse, table, verify.

Each command returns its text and exit code, and main writes the text once,
to stdout or to the file given by table's --out.  catalog and fuse build one
record each and print it as JSON or read their Markdown lines from it.
Exit codes: 0 success, 1 verification failure or unwritable output (a full,
closed or broken stdout, or an unwritable --out file, reported in one
"cannot write ..." line), 2 invalid input, 3 internal fault of the engine,
the wall oracle or a table reader, a dead worker process, or running out of
memory, 130 an interrupt.  verify runs the same four checks on every run,
in this order: the engine's table against the closed form, the unit,
associativity on every triple, and the table against the wall oracle.
It prints one status line per check, then each failing check's findings, at
most 20 lines each.  All output is deterministic.  --p and each label have
one spelling, with no surrounding whitespace and any number in ASCII digits
with no leading zero; any other spelling is invalid input, and fuse prints
each label as parsed.  BPRING_THREADS, a positive integer (unset or empty
means 1), sets how many worker processes build a table, capped at the CPU
count; any other value is invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys

from .bimodules import NUMBER, catalogue, catalogue_entry, format_simple, label_invariants, label_parse
from .closed_form import closed_form_table
from .cyclotomic import is_prime
from .fusion import RelativeTensorProduct, build_table
from .ladders import EngineError
from .ring import TableError, check_axioms, diff_tables, serialize
from .walls import OracleError, oracle_table


def _entry_record(entry) -> dict:
    """One catalogue entry as catalog prints it: the JSON object, from which the Markdown is read."""
    subgroup, q = label_invariants(entry.p, entry.label)
    names = [f"({format_simple(m)})" if isinstance(m, tuple) else format_simple(m) for m in entry.simples]
    record = {"label": str(entry.label), "subgroup": str(subgroup), "object_count": len(names), "objects": names}
    for side, table in (("left", entry.left), ("right", entry.right)):
        record[f"{side}_action"] = {str(g): {m: names[t] for m, t in zip(names, row)} for g, row in enumerate(table)}
    record["associator_exponent"] = q
    return record


def _cmd_catalog(args) -> tuple[str, int]:
    entries = [_entry_record(e) for e in catalogue(args.p)]
    if args.format == "json":
        return json.dumps({"p": args.p, "entries": entries}, indent=2) + "\n", 0
    lines = [f"## Vec(Z_{args.p}) bimodule catalogue ({len(entries)} entries)", ""]
    for e in entries:
        lines += [f"### {e['label']}", "", f"- subgroup: {e['subgroup']}",
                  f"- objects ({e['object_count']}): " + ", ".join(e["objects"]),
                  f"- associator exponent: {e['associator_exponent']}"]
        for side in ("left", "right"):
            for g, row in e[f"{side}_action"].items():
                lines.append(f"- {side} {g}: " + ", ".join(f"{m}->{t}" for m, t in row.items()))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n", 0


def _cmd_fuse(args) -> tuple[str, int]:
    """One product as fuse prints it: the JSON record, from which the Markdown is read."""
    left = catalogue_entry(args.p, label_parse(args.left))
    right = catalogue_entry(args.p, label_parse(args.right))
    analysis = RelativeTensorProduct(left, right).analyze()
    record = {
        "p": args.p,
        "left": str(left.label),
        "right": str(right.label),
        "result": str(analysis.decomposition),
        "summands": [{"label": str(label), "mult": mult} for label, mult in analysis.decomposition.summands],
    }
    if args.detail:
        record["detail"] = {
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
    if args.format == "json":
        return json.dumps(record, indent=2) + "\n", 0
    lines = []
    if args.detail:
        detail = record["detail"]
        dims = ", ".join(f"dim {k}: {v} objects" for k, v in detail["end_dimensions"].items())
        lines = [f"{record['left']} (x) {record['right']} at p={args.p}", f"ladder objects: {detail['ladder_objects']}",
                 f"end algebras: {dims}", f"karoubi simples: {detail['kar_simples']}", "orbits:"]
        lines += [f"  rep {o['representative']}  size {o['size']}  stabilizer {o['stabilizer']}  "
                  f"associator exponent {o['associator_exponent']}  -> {o['label']}" for o in detail["orbits"]]
    return "\n".join([*lines, record["result"]]) + "\n", 0


def _cmd_table(args) -> tuple[str, int]:
    return serialize(build_table(args.p), args.format), 0


def _cmd_verify(args) -> tuple[str, int]:
    table = build_table(args.p)
    golden = diff_tables(table, closed_form_table(args.p))
    report = check_axioms(table)
    checks = [
        ("closed-form table", golden),
        ("unit", report.unit),
        ("associativity", report.associativity),
        ("wall oracle", diff_tables(table, oracle_table(args.p))),
    ]
    lines = [f"{name}: {'FAIL' if findings else 'ok'}" for name, findings in checks]
    for name, findings in checks:
        lines += [f"  {name}: {line}" for line in findings[:20]]
        if len(findings) > 20:
            lines.append(f"  ... {len(findings) - 20} more")
    return "\n".join(lines) + "\n", 1 if any(findings for _, findings in checks) else 0


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it; a failed write, or a stdout closed at start, raises OSError.

    After a failed write, stdout's descriptor is pointed at os.devnull, so
    that the interpreter's own flush at exit does not fail again.
    """
    stream = sys.stdout
    if stream is None:  # the descriptor was closed when the interpreter started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        with contextlib.suppress(OSError):  # a stream with no descriptor, as under a test's capture, is left alone
            fd = stream.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


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


class _HelpText(Exception):
    """A parser's help text, raised where argparse would print it and exit 0, so that main writes it."""


def _help_of(parser: argparse.ArgumentParser):
    """parser's print_help: raise its help text as _HelpText instead of printing it."""
    def print_help(file=None):
        raise _HelpText(parser.format_help())
    return print_help


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; every usage error raises argparse.ArgumentError, which main reports in one line.

    That covers a bad option value, a missing or unknown option and a
    missing or unknown command.  --help raises _HelpText, whose text main
    writes as it writes a command's output.
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
        each.print_help = _help_of(each)
    return parser


def main(argv=None) -> int:
    """Run one command; an interrupt and running out of memory end it with one line too, no traceback."""
    try:
        return _run(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except MemoryError as exc:
        print(f"internal error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 3


def _run(argv) -> int:
    out = None  # only table has --out
    try:
        args = build_parser().parse_args(argv)
        out = getattr(args, "out", None)
        text, code = args.func(args)
    except _HelpText as exc:
        text, code = str(exc), 0
    except (argparse.ArgumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, OracleError, TableError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            _write_stdout(text)
    except OSError as exc:
        print(f"cannot write {out or 'stdout'}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
