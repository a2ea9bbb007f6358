import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bpring.bimodules import all_labels
from bpring.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_counts(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--p", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 6
    code, out, _ = run_cli(capsys, "catalog", "--p", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 8
    assert payload["entries"][0]["label"] == "T"
    assert payload["entries"][0]["object_count"] == 9


def test_catalog_markdown(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--p", "2")
    assert code == 0
    assert "### T" in out and "### F1" in out


def test_catalog_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "catalog", "--p", "4")
    assert code == 2


def test_fuse_basic(capsys):
    code, out, _ = run_cli(capsys, "fuse", "--p", "3", "--left", "T", "--right", "T")
    assert code == 0
    assert out.strip() == "3*T"


def test_fuse_unit(capsys):
    code, out, _ = run_cli(capsys, "fuse", "--p", "2", "--left", "X1", "--right", "F1")
    assert code == 0
    assert out.strip() == "F1"


def test_fuse_detail(capsys):
    code, out, _ = run_cli(capsys, "fuse", "--p", "5", "--left", "F2", "--right", "X3", "--detail")
    assert code == 0
    assert out.strip().endswith("F1")
    assert "associator exponent 1" in out
    assert "karoubi simples: 1" in out


def test_fuse_detail_json(capsys):
    code, out, _ = run_cli(
        capsys, "fuse", "--p", "3", "--left", "R", "--right", "F0", "--detail", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "3*R"
    assert payload["detail"]["kar_simples"] == 9
    assert payload["detail"]["end_dimensions"] == {"3": 3}


def test_fuse_rejects_bad_label(capsys):
    code, _, err = run_cli(capsys, "fuse", "--p", "3", "--left", "X0", "--right", "T")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "fuse", "--p", "3", "--left", "X5", "--right", "T")
    assert code == 2
    # an index is ASCII digits with no leading zero, and a label has no
    # surrounding whitespace, on either side
    for label in ("X01", "X\uff11", "F\u0663", "F00", " T", "X1\n", "F0 ", "\tR"):
        for argv in (("--left", label, "--right", "T"), ("--left", "T", "--right", label)):
            code, out, err = run_cli(capsys, "fuse", "--p", "7", *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["catalog", "table", "verify", "fuse"])
@pytest.mark.parametrize("p", ["1_1", "\u0667", "07", "+7", " 7", "7 ", "", "4"])
def test_p_has_one_spelling(capsys, command, p):
    # --p is ASCII digits with no leading zero, and prime: anything else is
    # bad input, exit code 2 with a one-line message and nothing on stdout.
    labels = ["--left", "T", "--right", "T"] if command == "fuse" else []
    code, out, err = run_cli(capsys, command, "--p", p, *labels)
    assert code == 2 and out == ""
    assert err.startswith("error: argument --p: p must be ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catalog"], "the following arguments are required: --p"),
        (["fuse", "--p", "3", "--left", "T"], "the following arguments are required: --right"),
        (["table", "--p", "5", "--bogus"], "unrecognized arguments: --bogus"),
        (["table", "--p", "3", "extra"], "unrecognized arguments: extra"),
        ([], "the following arguments are required: command"),
        (["nope"], "argument command: invalid choice: 'nope' (choose from 'catalog', 'fuse', 'table', 'verify')"),
        (["catalog", "--p", "3", "--format", "xml"], "argument --format: invalid choice: 'xml' (choose from 'json', 'md')"),
        (["verify", "--p", "3", "--oracle"], "unrecognized arguments: --oracle"),
        (["verify", "--p", "3", "--triples"], "unrecognized arguments: --triples"),
    ],
)
def test_every_usage_error_is_one_line(capsys, argv, message):
    # a missing or unknown option or command is bad input like a bad option
    # value: exit code 2 and one line, with no usage line
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_fuse_prints_the_parsed_labels(capsys):
    # labels are echoed as parsed, which is their one spelling
    code, out, _ = run_cli(capsys, "fuse", "--p", "3", "--left", "F1", "--right", "T", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["left"], payload["right"]) == ("F1", "T")
    code, out, _ = run_cli(capsys, "fuse", "--p", "3", "--left", "F1", "--right", "T", "--detail")
    assert code == 0 and out.startswith("F1 (x) T at p=3\n")


def test_table_markdown(capsys):
    code, out, _ = run_cli(capsys, "table", "--p", "2", "--format", "md")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("|") and not line.startswith("|---")]
    assert len(rows) == 7


def test_table_json_round_trip(capsys, tmp_path):
    out_file = tmp_path / "table.json"
    code, _, _ = run_cli(capsys, "table", "--p", "2", "--format", "json", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["p"] == 2
    assert payload["checks"] == {"unit": True, "associativity": True}
    assert payload["units"]["order"] == 2


def test_table_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "table.json"
    code, _, err = run_cli(capsys, "table", "--p", "2", "--out", str(target))
    assert code == 1
    assert "cannot write" in err


VERIFY_OK = "closed-form table: ok\nunit: ok\nassociativity: ok\nwall oracle: ok\n"


def test_verify_small(capsys):
    # verify has one mode: all four checks, in this order, on every run
    assert run_cli(capsys, "verify", "--p", "2") == (0, VERIFY_OK, "")


def test_verify_p3(capsys):
    assert run_cli(capsys, "verify", "--p", "3") == (0, VERIFY_OK, "")


def test_verify_checks_associativity_without_flags(capsys, monkeypatch):
    # X2 x X2 = X1 at p=5 keeps X1 a unit but breaks associativity:
    # (X2 x X2) x X3 = X3, while X2 x (X2 x X3) = X2 x X1 = X2
    from bpring import cli
    from bpring.bimodules import Decomposition, label_parse
    from bpring.closed_form import closed_form_table

    def non_associative(p):
        table = closed_form_table(p)
        table.set_product(label_parse("X2"), label_parse("X2"), Decomposition.single(label_parse("X1")))
        return table

    monkeypatch.setattr(cli, "build_table", non_associative)
    code, out, _ = run_cli(capsys, "verify", "--p", "5")
    assert code == 1
    assert out.splitlines()[:4] == [
        "closed-form table: FAIL",
        "unit: ok",
        "associativity: FAIL",
        "wall oracle: FAIL",
    ]


def test_fuse_detail_matches_golden_files(capsys):
    # p=5 pins every orbit's witness exponent at a third prime
    for p, fmt in [(2, "json"), (2, "md"), (3, "json"), (3, "md"), (5, "md")]:
        out = []
        for a in all_labels(p):
            for b in all_labels(p):
                argv = ["fuse", "--p", str(p), "--left", str(a), "--right", str(b), "--detail"]
                code, text, err = run_cli(capsys, *argv, "--format", fmt)
                assert code == 0 and err == ""
                out.append(text)
        want = (GOLDEN / f"fuse_detail_p{p}_{fmt}.txt").read_bytes()
        assert "".join(out).encode() == want, (p, fmt)


def test_catalog_matches_golden_files(capsys):
    for p in (2, 3):
        for fmt in ("json", "md"):
            code, text, err = run_cli(capsys, "catalog", "--p", str(p), "--format", fmt)
            assert code == 0 and err == ""
            assert text.encode() == (GOLDEN / f"catalog_p{p}.{fmt}").read_bytes(), (p, fmt)


def test_cli_entry_point_subprocess():
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, "-m", "bpring.cli", "fuse", "--p", "2", "--left", "T", "--right", "T"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "2*T"


def test_exit_codes(capsys, monkeypatch):
    from bpring import cli
    from bpring.bimodules import Decomposition, label_parse
    from bpring.fusion import ClassificationError, RelativeTensorProduct
    from bpring.closed_form import closed_form_table

    code, _, err = run_cli(capsys, "fuse", "--p", "2", "--left", "T", "--right", "L")
    assert code == 0 and err == ""

    def wrong_closed_form(p):
        table = closed_form_table(p)
        t = label_parse("T")
        table.set_product(t, t, Decomposition.single(t))
        return table

    with monkeypatch.context() as m:
        m.setattr(cli, "closed_form_table", wrong_closed_form)
        code, out, _ = run_cli(capsys, "verify", "--p", "2")
    assert code == 1
    assert "closed-form table: FAIL" in out

    code, _, err = run_cli(capsys, "fuse", "--p", "2", "--left", "Q", "--right", "T")
    assert code == 2
    assert err.startswith("error: ")

    def fault(self):
        raise ClassificationError("orbit size times stabilizer order is not p^2")

    monkeypatch.setattr(RelativeTensorProduct, "analyze", fault)
    code, out, err = run_cli(capsys, "fuse", "--p", "2", "--left", "T", "--right", "T")
    assert code == 3
    assert out == ""
    assert err == "internal error: orbit size times stabilizer order is not p^2\n"


@pytest.mark.parametrize("value", ["abc", "-4", "0", "2.5", " ", "\u0662", "02", "+2", " 2", "2 ", "1_0", "\uff12"])
def test_bad_threads_value_is_invalid_input(capsys, monkeypatch, value):
    # a worker count has one spelling, ASCII digits with no leading zero, as --p has
    monkeypatch.setenv("BPRING_THREADS", value)
    code, out, err = run_cli(capsys, "table", "--p", "2")
    assert code == 2
    assert out == ""
    assert err == (
        f"error: BPRING_THREADS must be a positive integer in ASCII digits with no leading zero, got {value!r}\n"
    )


def test_verify_lists_only_unit_violations_under_unit(capsys, monkeypatch):
    from bpring import cli
    from bpring.bimodules import Decomposition, label_parse
    from bpring.closed_form import closed_form_table

    def broken_unit_table(p):
        table = closed_form_table(p)
        table.set_product(label_parse("X1"), label_parse("T"), Decomposition.single(label_parse("L")))
        return table

    monkeypatch.setattr(cli, "build_table", broken_unit_table)
    code, out, _ = run_cli(capsys, "verify", "--p", "2")
    assert code == 1
    assert "unit: FAIL" in out and "associativity: FAIL" in out and "wall oracle: FAIL" in out
    unit_lines = [line for line in out.splitlines() if line.startswith("  unit: ")]
    assert unit_lines == ["  unit: X1 x T != T"]
    assert any(line.startswith("  associativity: associativity fails at ") for line in out.splitlines())


def test_oracle_fault_exit_code(capsys, monkeypatch):
    from bpring import walls

    def sheared_wall_of(p, label):
        if str(label) == "X2":
            return walls.InvertibleWall(p, ((1, 1), (0, 1)))
        return real_wall_of(p, label)

    real_wall_of = walls.wall_of
    monkeypatch.setattr(walls, "wall_of", sheared_wall_of)
    code, out, err = run_cli(capsys, "verify", "--p", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: wall map ((1, 1), (0, 1)) ")
    assert err.count("\n") == 1


def test_oracle_naming_fault_exit_code(capsys, monkeypatch):
    from bpring import walls
    from bpring.bimodules import label_parse

    real_wall_of = walls.wall_of
    x1, x2 = label_parse("X1"), label_parse("X2")
    monkeypatch.setattr(walls, "wall_of", lambda p, label: real_wall_of(p, x1 if label == x2 else label))
    code, out, err = run_cli(capsys, "verify", "--p", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: labels X1 and X2 share the wall ")
    assert err.count("\n") == 1


def test_table_reader_fault_exit_code(capsys, monkeypatch):
    from bpring import cli
    from bpring.bimodules import Decomposition, label_parse
    from bpring.closed_form import closed_form_table

    def two_label_unit_product(p):
        table = closed_form_table(p)
        x1, f1, t = label_parse("X1"), label_parse("F1"), label_parse("T")
        table.set_product(x1, f1, Decomposition.from_pairs([(t, 1), (f1, 1)]))
        return table

    monkeypatch.setattr(cli, "build_table", two_label_unit_product)
    code, out, err = run_cli(capsys, "table", "--p", "2", "--format", "json")
    assert code == 3
    assert out == ""
    assert err == "internal error: unit product X1 x F1 is not a single label\n"


def test_non_unit_conjugate_exit_code(capsys, monkeypatch):
    # F1 and X2 stay units, but F1 x X2 = T leaves the units, so F1 x X2 x F1
    # has no cell in the unit table
    from bpring import fusion
    from bpring.bimodules import Decomposition, label_parse

    pair_product = fusion._pair_product
    F1, X2, T = label_parse("F1"), label_parse("X2"), label_parse("T")

    def off_unit(entries, a, b):
        return Decomposition.single(T) if (a, b) == (F1, X2) else pair_product(entries, a, b)

    monkeypatch.delenv("BPRING_THREADS", raising=False)
    monkeypatch.setattr(fusion, "_pair_product", off_unit)
    code, out, err = run_cli(capsys, "table", "--p", "3", "--format", "json")
    assert code == 3
    assert out == ""
    assert err == "internal error: unit product F1 x X2 is T, not a unit\n"


def test_an_interrupt_is_exit_130_with_one_line(capsys, monkeypatch):
    # Ctrl-C anywhere in a command ends the run with one line, no traceback
    from bpring.fusion import RelativeTensorProduct

    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(RelativeTensorProduct, "analyze", interrupted)
    code, out, err = run_cli(capsys, "fuse", "--p", "5", "--left", "R", "--right", "L", "--detail")
    assert (code, out, err) == (130, "", "interrupted\n")


@pytest.mark.parametrize(
    "message, line", [("", "out of memory"), ("cannot allocate", "out of memory: cannot allocate")]
)
def test_running_out_of_memory_is_an_internal_error(capsys, monkeypatch, message, line):
    from bpring import cli

    def exhausted(p):
        raise MemoryError(message) if message else MemoryError

    monkeypatch.setattr(cli, "build_table", exhausted)
    code, out, err = run_cli(capsys, "verify", "--p", "5")
    assert (code, out, err) == (3, "", f"internal error: {line}\n")


def test_a_worker_that_dies_is_an_internal_error(capsys, monkeypatch):
    # A forked two-worker pool in which the worker that gets T x T ends at
    # once, as one killed for memory would: one line and exit 3
    import concurrent.futures
    import functools
    import multiprocessing

    from bpring import fusion
    from bpring.bimodules import label_parse

    T, pair_product = label_parse("T"), fusion._pair_product

    def dying(entries, a, b):
        if a == b == T:
            os._exit(1)
        return pair_product(entries, a, b)

    forked = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forked)
    monkeypatch.setattr(fusion, "_pair_product", dying)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("BPRING_THREADS", "2")
    code, out, err = run_cli(capsys, "table", "--p", "3")
    assert (code, out, err) == (3, "", "internal error: a worker process ended unexpectedly\n")


def test_non_monomial_rung_exit_code(capsys, monkeypatch):
    # a composite rung that is not one monomial c*zeta^k is an engine fault:
    # here every composition stacks {0: 1, 1: 1} on {0: 1, 1: zeta}, whose
    # rung 1 is 1 + zeta, and the kernel refuses it in one line, exit code 3
    from bpring.cyclotomic import CyclotomicScalar
    from bpring.ladders import LadderCategory, LadderMorphism, group_algebra_product
    from scalar_oracle import root_of_unity

    def non_monomial(self, f, g):
        one = CyclotomicScalar.one(self.p)
        coeffs = group_algebra_product(self.p, {0: one, 1: one}, {0: one, 1: root_of_unity(self.p, 1)})
        return LadderMorphism(f.source, g.target, coeffs)

    monkeypatch.setattr(LadderCategory, "compose", non_monomial)
    code, out, err = run_cli(capsys, "fuse", "--p", "5", "--left", "F1", "--right", "X2")
    assert code == 3
    assert out == ""
    assert err == "internal error: rung 1 of a composite is not a monomial c*zeta^k at p=5\n"


def test_corrupted_step_table_exit_code():
    # two swapped left steps make the actions on simples not commute
    code = """
import sys
from bpring.cli import main
from bpring.fusion import RelativeTensorProduct

inner = RelativeTensorProduct._steps.func

def swapped(self):
    lstep, rstep = inner(self)
    lstep = list(lstep)
    lstep[0], lstep[1] = lstep[1], lstep[0]
    return lstep, rstep

RelativeTensorProduct._steps = property(swapped)
sys.exit(main(["fuse", "--p", "3", "--left", "T", "--right", "T"]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("internal error: the left and right actions do not commute on ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


# every command writes its output once, through main, and so does --help: a
# stdout that cannot take it is exit code 1 and one stderr line, whatever the
# command
UNWRITABLE = {
    "catalog": ["catalog", "--p", "3"],
    "fuse": ["fuse", "--p", "3", "--left", "T", "--right", "T"],
    "fuse-detail": ["fuse", "--p", "3", "--left", "T", "--right", "T", "--detail", "--format", "json"],
    "table": ["table", "--p", "2"],
    "verify": ["verify", "--p", "2"],
    "help": ["--help"],
    "catalog-help": ["catalog", "--help"],
}


def _full():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return open("/dev/full", "w", encoding="utf-8")


def _broken_pipe():
    read, write = os.pipe()
    os.close(read)
    return open(write, "w", encoding="utf-8")


@pytest.mark.parametrize("command", UNWRITABLE)
@pytest.mark.parametrize("stdout", ["full", "broken-pipe", "closed"])
def test_unwritable_stdout_is_exit_1(capsys, monkeypatch, command, stdout):
    # "closed" is a stdout closed when the interpreter started, where sys.stdout is None
    stream = {"full": _full, "broken-pipe": _broken_pipe, "closed": lambda: None}[stdout]()
    monkeypatch.setattr(sys, "stdout", stream)
    try:
        code = main(UNWRITABLE[command])
    finally:
        if stream is not None:
            stream.close()  # its descriptor now leads to os.devnull, so the close's flush succeeds
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("cannot write stdout: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["catalog", "--help"], ["fuse", "-h"]])
def test_help_is_written_to_stdout_with_exit_0(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: bpring") and err == "", (out, err)


def test_unwritable_stdout_in_a_fresh_interpreter():
    # the interpreter flushes stdout again at exit, and that flush must neither
    # fail nor print: one line on stderr, no traceback, no "Exception ignored"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    cli = [sys.executable, "-m", "bpring.cli"]
    pipe = {"stderr": subprocess.PIPE, "text": True, "env": env}
    read, write = os.pipe()
    os.close(read)
    closed = ["sh", "-c", 'exec "$@" >&-', "sh", *cli]
    runs = [
        subprocess.Popen([*closed, *UNWRITABLE["verify"]], **pipe),
        subprocess.Popen([*closed, *UNWRITABLE["help"]], **pipe),
        subprocess.Popen([*cli, *UNWRITABLE["fuse-detail"]], stdout=write, **pipe),
    ]
    os.close(write)
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            for command in ("catalog", "catalog-help"):
                runs.append(subprocess.Popen([*cli, *UNWRITABLE[command]], stdout=full, **pipe))
    errs = [run.communicate(timeout=60)[1] for run in runs]
    for run, err in zip(runs, errs):
        assert run.returncode == 1, run.args
        assert err.startswith("cannot write stdout: ") and err.count("\n") == 1, err
