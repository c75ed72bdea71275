"""The fork table of tests/forks.py and the mutant table of tests/mutants.py
name live code, and shapes and tests that exist.

`python tests/ab.py --ledger` measures each row of the fork table into
BENCH_forks.json, and `python tests/mutants.py` runs each mutant.  A row
whose old text no longer occurs exactly once, or whose shape or test was
renamed, would drop out of that ledger quietly or show as STALE only when
the harness runs, so it fails here instead.  This reads bench/ and changes
nothing there.
"""

import json
import pathlib

from forks import DELETED, FORKS, missing
from mutants import MUTANTS, judge, stale

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_each_fork_disables_live_code_on_shapes_that_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # for missing(), which reads workloads.py
    assert {name: why for name, (file, old, _, _, shapes) in FORKS.items()
            if (why := stale(file, old, shapes, missing=missing))} == {}
    ledger = json.loads((ROOT / "BENCH_forks.json").read_text(encoding="utf-8"))
    assert [row["fork"] for row in ledger["forks"]] == list(FORKS)
    assert [row["fork"] for row in ledger["deleted"]] == list(DELETED)


def test_each_mutant_edits_live_code_and_names_tests_that_exist():
    assert [(file, old, why) for file, old, _, _, tests in MUTANTS
            if (why := stale(file, old, tests))] == []


def test_a_mutant_run_is_judged_by_its_exit_status():
    # pytest's exit statuses: a failed test, an interrupted run (a test file
    # that no longer collects) and a timeout kill a mutant, and the run goes
    # on past an internal, usage or no-tests error, counted as failing
    assert {code: judge(code) for code in (None, 0, 1, 2, 3, 4, 5)} == {
        None: ("killed (timeout)", False), 0: ("SURVIVED", True), 1: ("killed", False),
        2: ("killed (exit 2)", False), 3: ("ERROR (exit 3)", True),
        4: ("ERROR (exit 4)", True), 5: ("ERROR (exit 5)", True)}
