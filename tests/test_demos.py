"""Each demo prints, byte for byte, the output stored in tests/golden/."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("demo", sorted(path.stem for path in DEMOS.glob("*.py")))
def test_demo_output_matches_golden_file(capsys, demo):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    assert capsys.readouterr().out.encode() == (GOLDEN / f"demo_{demo}.txt").read_bytes()
