"""The byte-identical output gate, pinned by sha256 and byte length.

tests/golden/digests.json holds one digest per output that tests/digest_outputs.py
names: the engine's table in every format at p in {5, 7, 11, 13}, the catalogue
at p in {5, 7}, `fuse --detail` over every ordered pair at p=7 and for R x L,
R x F0, F10 x F2 and X3 x T at p=11 (the exponents on non-full orbits, which
no table reads), the output and exit code of `verify --p 17`, and the
closed form's and the wall oracle's JSON tables at p in {7, 11, 13, 17}.
A failure names the output,
so it can be diffed against a run of the same command at a known-good commit.
"""

import json

from digest_outputs import DIGESTS, digest, outputs


def test_outputs_match_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = {name: digest(text, code) for name, text, code in outputs()}
    assert sorted(got) == sorted(want)
    wrong = [f"{name}: {got[name]} != {want[name]}" for name in want if got[name] != want[name]]
    assert not wrong, "outputs differ from tests/golden/digests.json:\n" + "\n".join(wrong)
