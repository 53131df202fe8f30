"""Every golden output of ``tests/golden.py`` against ``tests/data/golden.json``:
decisions, keys, gates, ``first_failed``, rankings, labels and CLI stdout
exactly, floats within ``golden.RTOL`` (relative; ``golden.ATOL`` near zero).
``python tests/golden.py --compare`` checks the same outputs bit for bit."""

import json

import pytest

import golden

STORED = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", list(golden.SECTIONS))
def test_section_matches_golden(section):
    diffs = golden.compare(STORED[section], golden.SECTIONS[section](), exact=False, path=section)
    assert not diffs, "\n".join(diffs[:20])


def test_tolerant_compare_reads_floats_within_rtol_and_decisions_exactly():
    x = 12.5
    want = {"mhd": x.hex(), "accepted": True, "gates": [True, True, True]}
    assert golden.compare(want, dict(want, mhd=(x * (1 + golden.RTOL / 2)).hex()), exact=False) == []
    assert golden.compare(want, dict(want, mhd=(x * (1 + 4 * golden.RTOL)).hex()), exact=False) != []
    assert golden.compare(want, dict(want, gates=[True, True, False]), exact=False) != []
    assert golden.compare(want, dict(want, mhd=(x * (1 + golden.RTOL / 2)).hex()), exact=True) != []
    # A near tie compares only its floats, so its decision may go either way.
    tie = dict(want, near_tie=True)
    assert golden.compare(tie, dict(tie, accepted=False), exact=False) == []
