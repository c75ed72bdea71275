"""The fork table of tests/forks.py names live code and shapes that exist.

`python tests/ab.py --ledger` measures each row of the table into
BENCH_forks.json.  A row whose old text no longer occurs exactly once, or
whose shape was renamed, would drop out of that ledger quietly, so it fails
here instead.  This reads bench/ and changes nothing there.
"""

import json
import pathlib

from forks import DELETED, FORKS, missing
from mutants import stale

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_each_fork_disables_live_code_on_shapes_that_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # for missing(), which reads workloads.py
    assert {name: why for name, (file, old, _, _, shapes) in FORKS.items()
            if (why := stale(file, old, shapes, missing=missing))} == {}
    ledger = json.loads((ROOT / "BENCH_forks.json").read_text(encoding="utf-8"))
    assert [row["fork"] for row in ledger["forks"]] == list(FORKS)
    assert [row["fork"] for row in ledger["deleted"]] == list(DELETED)
