"""The fork table of tests/forks.py and the mutant table of tests/mutants.py
name live code, and shapes and tests that exist.

`python tests/ab.py --ledger` measures each row of the fork table into
BENCH_forks.json, and `python tests/mutants.py` runs each mutant.  A row
whose old text no longer occurs exactly once, or whose shape or test was
renamed, would drop out of that ledger quietly or show as STALE only when
the harness runs, so it fails here instead.  Each fork's in-process shapes
must also run the line that holds its old text, or the ledger times a path
that never meets the fork, and each disabled twin must write the working
tree's bytes on every shape of its row.  This reads bench/ and changes
nothing there.
"""

import importlib
import json
import pathlib
import random
import shutil
import sys

from forks import DELETED, FORKS, missing
from mutants import MUTANTS, judge, stale

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACED = "lincong_traced"  # the package name of the copy that the line tracer watches


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


def lines_run(path, call):
    """The numbers of the lines of the file at path that run while call()
    does, with the line at which each of its functions that is called starts
    (a decorated one's first decorator)."""
    seen = set()

    def local(frame, event, arg):
        seen.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename == path:
            return local(frame, event, arg)
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return seen


def test_the_shapes_of_each_fork_run_the_line_it_edits(tmp_path, monkeypatch):
    # every in-process shape of a row, as tests/ab.py runs it (cold starts
    # are left out), runs a line of the row's old text in a copy of
    # src/lincong imported afresh for the row, so no cache an earlier shape
    # filled hides a call; one that runs none cannot show what the fork pays
    monkeypatch.setattr(sys, "path", [*sys.path])  # importing ab puts bench/ on it
    import ab
    import workloads

    monkeypatch.setattr(workloads, "lincong", workloads.lincong)  # round_jobs rebinds it
    shutil.copytree(ROOT / "src" / "lincong", tmp_path / TRACED,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.syspath_prepend(str(tmp_path))
    missed = {}
    try:
        for name, (file, old, _, _, shapes) in FORKS.items():
            for module in [m for m in sys.modules if m.partition(".")[0] == TRACED]:
                del sys.modules[module]
            tree = importlib.import_module(TRACED)
            importlib.import_module(f"{TRACED}.cli")
            # cli imports some modules, such as oracle, only when a command needs them
            path = importlib.import_module(f"{TRACED}.{file[:-3]}").__file__
            text = pathlib.Path(path).read_text(encoding="utf-8")
            first = text[:text.index(old)].count("\n") + 1
            wanted = set(range(first, first + old.count("\n") + 1))
            rngs = {workload: random.Random(1) for workload in workloads.ROUNDS}
            for label, cold, job in ab.round_jobs(workloads, shapes, rngs, tmp_path):
                if not cold and not wanted & lines_run(path, lambda: job(tree)):
                    missed.setdefault(name, []).append(label)
    finally:
        for module in [m for m in sys.modules if m.partition(".")[0] == TRACED]:
            del sys.modules[module]
    assert missed == {}


def test_each_fork_twin_writes_the_working_trees_bytes(tmp_path, monkeypatch):
    # each row's disabled twin, loaded beside the working tree as tests/ab.py
    # loads the two, writes the working tree's exit code and output on every
    # shape of the row, cold starts included, each run once on each tree: a
    # twin that writes other bytes is no speed-only fork
    monkeypatch.setattr(sys, "path", [*sys.path])  # importing ab puts bench/ on it
    import ab

    kept = {name: module for name, module in sys.modules.items()
            if name.partition(".")[0] in ("lincong", "lincong_a", "lincong_b", "workloads")}
    differ = {}
    try:
        for name, (file, old, new, _, shapes) in FORKS.items():
            tmp = tmp_path / name
            tmp.mkdir()
            sys.path.insert(0, str(tmp))
            workloads, a, b = ab.load_trees(tmp, (file, old, new))
            rngs = {workload: random.Random(1) for workload in workloads.ROUNDS}
            for label, _, job in ab.round_jobs(workloads, shapes, rngs, tmp):
                if job(a)[1] != job(b)[1]:
                    differ.setdefault(name, []).append(label)
    finally:
        ab.purge()  # later tests read the lincong and workloads modules loaded before
        sys.modules.update(kept)
    assert differ == {}
