"""tests/ladder.py's table of scaling ladders: each has a row in the
committed BENCH_scaling.json, and each runs at its two smallest sizes.
No timing is read here; `python tests/ladder.py` measures the ladders."""

import json
import sys

import pytest

import ladder
from ladder import LADDERS, OUT


def test_every_ladder_has_a_row_in_the_committed_json():
    doc = json.loads(OUT.read_text(encoding="utf-8"))
    assert {"sha", "src_sha256", "python", "ladders"} <= doc.keys()
    rows = {row["ladder"]: row for row in doc["ladders"]}
    assert list(rows) == [label for label, *_ in LADDERS]
    for label, unit, sizes, _, bound in LADDERS:
        row = rows[label]
        assert (row["size"], row["sizes"], row["bound"]) == (unit, list(sizes), bound)
        assert len(row["seconds"]) == len(sizes) and len(row["slopes"]) == len(sizes) - 1


@pytest.fixture
def no_digit_limit():
    """The int/str digit limit put back after the test; tests/ladder.py lifts it."""
    limit = sys.get_int_max_str_digits()
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_every_ladder_runs_at_its_two_smallest_sizes(no_digit_limit, monkeypatch, capsys):
    # a call that exits other than 0 raises; --first writes no JSON
    monkeypatch.setattr(sys, "path", [*sys.path])  # importing ab puts bench/ on it
    written = OUT.stat().st_mtime_ns
    assert ladder.main(["--first", "2"]) == 0
    out = capsys.readouterr().out
    assert [label for label, *_ in LADDERS] == [
        line.rpartition(" (")[0] for line in out.splitlines() if not line.startswith(" ")]
    assert OUT.stat().st_mtime_ns == written
