"""The outputs pinned by tests/golden/digests.json, and the script that writes it.

Each output is a name, the text bpring writes for it, and, for a command,
the exit code it returns to bpring.cli.main, which writes the text.
tests/test_digests.py recomputes every output and compares its sha256 and
byte length with the file; this script writes the file.  Rewrite the digests only from a commit whose output
is known to be right, from the repository root:

    PYTHONPATH=src python tests/digest_outputs.py

The `table` outputs are `serialize(build_table(p), format)`, the text that
`bpring table --p P --format F` writes to stdout, with one engine table per p
for the three formats.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from bpring.bimodules import all_labels
from bpring.cli import build_parser
from bpring.closed_form import closed_form_table
from bpring.fusion import build_table
from bpring.ring import serialize
from bpring.walls import oracle_table

DIGESTS = Path(__file__).parent / "golden" / "digests.json"


def _cli(parser, *argv: str) -> tuple[str, int]:
    """The text and exit code that one command returns, for bpring.cli.main to write.

    The parser is built once for all commands, since building it costs more
    than a p=7 product.  A raised error is an error here, and so is anything
    the command writes to stdout or stderr itself: only main writes.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        args = parser.parse_args(list(argv))
        text, code = args.func(args)
    if out.getvalue() or err.getvalue():
        raise AssertionError(f"bpring {' '.join(argv)} wrote itself: {out.getvalue()!r} to stdout, "
                             f"{err.getvalue()!r} to stderr")
    return text, code


def outputs():
    """Yield (name, text, exit code or None) for every pinned output."""
    parser = build_parser()
    for p in (5, 7, 11, 13):
        table = build_table(p)
        for fmt in ("json", "md", "csv"):
            yield f"table --p {p} --format {fmt}", serialize(table, fmt), None
    for p in (5, 7):
        for fmt in ("json", "md"):
            yield (f"catalog --p {p} --format {fmt}", *_cli(parser, "catalog", "--p", str(p), "--format", fmt))
    labels = [str(label) for label in all_labels(7)]
    for fmt in ("json", "md"):
        texts = []
        for a in labels:
            for b in labels:
                text, code = _cli(parser, "fuse", "--p", "7", "--left", a, "--right", b, "--detail", "--format", fmt)
                if code:
                    raise AssertionError(f"bpring fuse --p 7 --left {a} --right {b} exited {code}")
                texts.append(text)
        yield f"fuse --p 7 --detail --format {fmt}, every ordered pair", "".join(texts), None
    # exponents on non-full orbits at p=11, which no table reads
    for a, b in (("R", "L"), ("R", "F0"), ("F10", "F2"), ("X3", "T")):
        for fmt in ("json", "md"):
            argv = ("fuse", "--p", "11", "--left", a, "--right", b, "--detail", "--format", fmt)
            yield (" ".join(argv), *_cli(parser, *argv))
    yield ("verify --p 17", *_cli(parser, "verify", "--p", "17"))
    for p in (7, 11, 13, 17):
        yield f'serialize(closed_form_table({p}), "json")', serialize(closed_form_table(p), "json"), None
        yield f'serialize(oracle_table({p}), "json")', serialize(oracle_table(p), "json"), None


def digest(text: str, code: int | None) -> dict:
    data = text.encode()
    entry = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if code is not None:
        entry["exit_code"] = code
    return entry


if __name__ == "__main__":
    digests = {name: digest(text, code) for name, text, code in outputs()}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
