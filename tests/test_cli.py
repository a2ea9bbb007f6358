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


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--oracle", "--triples")
    assert code == 0
    assert "closed-form table: ok" in out
    assert "wall oracle: ok" in out
    assert "associativity: ok" in out


def test_verify_p3(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3")
    assert code == 0
    assert "unit: ok" in out


def test_fuse_detail_matches_golden_files(capsys):
    for p in (2, 3):
        for fmt in ("json", "md"):
            out = []
            for a in all_labels(p):
                for b in all_labels(p):
                    argv = ["fuse", "--p", str(p), "--left", str(a), "--right", str(b), "--detail"]
                    code, text, err = run_cli(capsys, *argv, "--format", fmt)
                    assert code == 0 and err == ""
                    out.append(text)
            want = (GOLDEN / f"fuse_detail_p{p}_{fmt}.txt").read_bytes()
            assert "".join(out).encode() == want, (p, fmt)


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


@pytest.mark.parametrize("value", ["abc", "-4", "0", "2.5", " "])
def test_bad_threads_value_is_invalid_input(capsys, monkeypatch, value):
    monkeypatch.setenv("BPRING_THREADS", value)
    code, out, err = run_cli(capsys, "table", "--p", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: BPRING_THREADS must be a positive integer, got {value!r}\n"


def test_verify_lists_only_unit_violations_under_unit(capsys, monkeypatch):
    from bpring import cli
    from bpring.bimodules import Decomposition, label_parse
    from bpring.closed_form import closed_form_table

    def broken_unit_table(p):
        table = closed_form_table(p)
        table.set_product(label_parse("X1"), label_parse("T"), Decomposition.single(label_parse("L")))
        return table

    monkeypatch.setattr(cli, "build_table", broken_unit_table)
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--triples")
    assert code == 1
    assert "unit: FAIL" in out and "associativity: FAIL" in out
    unit_lines = [line for line in out.splitlines() if line.startswith("  unit: ")]
    assert unit_lines == ["  unit: X1 x T != T"]
    assert any(line.startswith("  associativity: associativity fails at ") for line in out.splitlines())


def test_oracle_fault_exit_code(capsys, monkeypatch):
    from bpring import walls

    def sheared_wall_of(p, label):
        if label.kind == "X":
            return walls.InvertibleWall(p, ((1, 1), (0, 1)))
        return real_wall_of(p, label)

    real_wall_of = walls.wall_of
    monkeypatch.setattr(walls, "wall_of", sheared_wall_of)
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--oracle")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: wall map ((1, 1), (0, 1)) ")
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
