"""Seeded workloads for the lincong benchmark, and independent output checks.

Each workload is an endless sequence of *rounds*.  A round is a fixed ladder
of operation classes; the seed only picks the concrete coefficients, right-hand
sides and spellings inside each class.  The quantities that set an operation's
cost (modulus size, arity, gcd(a_i, m), hence p1, p2 and s) are fixed per
class, so two seeds give runs of the same cost and a run always ends on a
round boundary with the same mix of classes.

Every expected value is computed here from math.gcd, products and powers.
Nothing in this file asks lincong for an answer it then checks.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import gcd, prod
from operator import mul
from typing import Callable

import lincong.cli
import lincong.core

WORKLOADS = ("counts", "basis", "stream", "verify")

# `lincong verify --seed K` checks this many random instances (documented CLI
# behaviour, part of its output line).
VERIFY_BATCH = 200


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's own arithmetic."""


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Instance:
    """A congruence as the benchmark writes it: unreduced, variables x1..xn."""

    coeffs: tuple[int, ...]
    rhs: int
    mod: int

    def expression(self, rng: random.Random) -> str:
        """Input text in one of the spellings the parser accepts."""
        terms = []
        for i, a in enumerate(self.coeffs, start=1):
            star = "*" if rng.random() < 0.5 else ""
            body = f"x{i}" if abs(a) == 1 and rng.random() < 0.5 else f"{abs(a)}{star}x{i}"
            if i == 1:
                # a leading '-' would make argparse read the expression as an option
                assert a >= 0
                terms.append(body)
            else:
                terms.append(("- " if a < 0 else "+ ") + body)
        relation = "≡" if rng.random() < 0.5 else "="
        return f"{' '.join(terms)} {relation} {self.rhs} (mod {self.mod})"

    def flags(self) -> list[str]:
        return [f"--coeffs={','.join(map(str, self.coeffs))}",
                f"--rhs={self.rhs}", f"--mod={self.mod}"]

    def echo(self) -> str:
        """The canonical rendering the CLI prints after 'congruence: '."""
        first = self.coeffs[0]
        pieces = [f"-{abs(first)}*x1" if first < 0 else f"{first}*x1"]
        for i, a in enumerate(self.coeffs[1:], start=2):
            pieces.append(f"{'-' if a < 0 else '+'} {abs(a)}*x{i}")
        return f"{' '.join(pieces)} ≡ {self.rhs} (mod {self.mod})"


@dataclass(frozen=True)
class Expected:
    """The closed-form facts of an instance, from the benchmark's arithmetic."""

    a: tuple[int, ...]
    b: int
    m: int
    d: int
    p1: int
    p2: int
    s: int
    strides: tuple[int, ...]

    @property
    def solvable(self) -> bool:
        return self.b % self.d == 0

    def summary_lines(self, inst: Instance) -> list[str]:
        return [f"congruence: {inst.echo()}",
                f"d = {self.d}",
                f"solvable = {'true' if self.solvable else 'false'}",
                f"solutions (p1) = {self.p1}",
                f"per-seed (p2) = {self.p2}",
                f"basis size (s) = {self.s}"]

    def summary_doc(self) -> dict:
        return {"d": str(self.d), "solvable": self.solvable, "p1": str(self.p1),
                "p2": str(self.p2), "s": str(self.s)}


def expect(inst: Instance) -> Expected:
    m = abs(inst.mod)
    a = tuple(x % m for x in inst.coeffs)
    gs = [gcd(x, m) for x in a]
    d = gcd(*gs)
    p1 = d * m ** (len(a) - 1)
    p2 = prod(gs)
    return Expected(a, inst.rhs % m, m, d, p1, p2, p1 // p2, tuple(m // g for g in gs))


def structured(rng: random.Random, m: int, gs: tuple[int, ...]) -> Instance:
    """A random solvable instance mod m with gcd(a_i, m) == gs[i] exactly.

    a_i = g_i * u_i with u_i a unit mod m // g_i.  Some coefficients (never the
    first) are written as a_i - m, which names the same residue.
    """
    coeffs = []
    for i, g in enumerate(gs):
        q = m // g
        u = 1
        while q > 1:
            u = rng.randrange(1, q)
            if gcd(u, q) == 1:
                break
        a = g * u % m
        coeffs.append(a - m if i and a and rng.random() < 0.3 else a)
    d = gcd(*gs)
    return Instance(tuple(coeffs), d * rng.randrange(m // d), m)


def big_instance(rng: random.Random, digits: int, n: int, solvable: bool) -> Instance:
    """Random coefficients and modulus of about `digits` digits sharing a factor."""
    k = rng.choice((2, 6, 30, 210))
    m = k * (rng.randrange(10 ** (digits - 1), 10 ** digits) // k)
    coeffs = [k * rng.randrange(1, m // k) for _ in range(n)]
    coeffs = [coeffs[0]] + [-a if rng.random() < 0.5 else a for a in coeffs[1:]]
    d = gcd(*coeffs, m)
    b = d * rng.randrange(m // d) + (0 if solvable else rng.randrange(1, d))
    return Instance(tuple(coeffs), b, m)


# --- operations -----------------------------------------------------------

@dataclass
class Op:
    """One closed-loop request: `call` is timed, `check` runs afterwards.

    check returns the number of rows the operation emitted and raises
    CheckFailed on a wrong output.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], int]


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """`lincong.cli.main(argv)` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lincong.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def output_bytes(result: object) -> str:
    """What an operation printed (or returned), for the per-seed output hash."""
    if isinstance(result, CliResult):
        return f"{result.code}\n{result.out}{result.err}"
    return f"{result!r}\n"


def _rows_of_text(lines: list[str]) -> list[tuple[int, ...]]:
    return [tuple(map(int, line.split())) for line in lines]


def _check_rows(rows: list[tuple[int, ...]], e: Expected, count: int):
    _require(len(rows) == count, f"{len(rows)} rows, expected {count}")
    if not rows:
        return
    a, b, m = e.a, e.b, e.m
    _require(set(map(len, rows)) == {len(a)}, "a row of the wrong length")
    _require(min(map(min, rows)) >= 0 and max(map(max, rows)) < m, "a row is not reduced mod m")
    bad = next((x for x in rows if sum(map(mul, a, x)) % m != b), None)
    _require(bad is None, f"row {bad} does not satisfy the congruence")
    _require(len(set(rows)) == len(rows), "duplicate rows")


def _check_basis(rows: list[tuple[int, ...]], e: Expected, count: int):
    """Rows solve, are pairwise independent, and are the lex-least class members."""
    _check_rows(rows, e, count)
    keys = {tuple(xi % g for xi, g in zip(x, e.strides)) for x in rows}
    _require(len(keys) == len(rows), "two basis rows are dependent")
    _require(all(xi < g for x in rows for xi, g in zip(x, e.strides)),
             "a basis row is not the least member of its class")
    _require(all(r < t for r, t in zip(rows, rows[1:])), "basis rows are not in lexicographic order")


def _check_json(r: CliResult, doc_keys: tuple[str, ...]) -> dict:
    doc = json.loads(r.out)
    _require(r.out == json.dumps(doc, ensure_ascii=False) + "\n", "JSON output is not canonical")
    _require(tuple(doc) == doc_keys, f"JSON keys {tuple(doc)}")
    return doc


def solve_op(label: str, inst: Instance, argv_instance: list[str], fmt: str,
             limit: int | None) -> Op:
    e = expect(inst)
    argv = ["solve", *argv_instance, "--format", fmt]
    if limit is not None:
        argv.append(f"--limit={limit}")
    kept = e.s if limit is None else min(limit, e.s)
    truncated = e.solvable and limit is not None and limit < e.s

    def check(r: CliResult) -> int:
        _require(r.code == (0 if e.solvable else 3), f"exit code {r.code}: {r.err.strip()}")
        if fmt == "json":
            keys = ("d", "solvable", "p1", "p2", "s") + (("basis",) if e.solvable else ()) + ("truncated",)
            doc = _check_json(r, keys)
            _require({k: doc[k] for k in keys[:5]} == e.summary_doc(), "wrong summary")
            _require(doc["truncated"] is truncated, "wrong truncation flag")
            rows = [tuple(v) for v in doc.get("basis", [])]
        else:
            lines = r.out.splitlines()
            head = e.summary_lines(inst)
            _require(lines[:6] == head, f"wrong summary {lines[:6]}")
            body = lines[6:]
            if e.solvable:
                _require(body[:1] == ["basis:"], "missing 'basis:' line")
                body = body[1:]
                if truncated:
                    _require(body[-1:] == ["# truncated"], "missing truncation marker")
                    body = body[:-1]
            rows = _rows_of_text(body)
        if e.solvable:
            _check_basis(rows, e, kept)
        else:
            _require(not rows, "rows printed for an unsolvable instance")
        return len(rows)

    return Op(label, lambda: run_cli(argv), check)


def enumerate_op(label: str, inst: Instance, argv_instance: list[str], fmt: str,
                 limit: int | None) -> Op:
    e = expect(inst)
    assert e.solvable
    argv = ["enumerate", *argv_instance, "--format", fmt]
    if limit is not None:
        argv.append(f"--limit={limit}")
    count = e.p1 if limit is None else min(limit, e.p1)
    truncated = limit is not None and limit < e.p1

    def check(r: CliResult) -> int:
        _require(r.code == 0, f"exit code {r.code}: {r.err.strip()}")
        if fmt == "json":
            doc = _check_json(r, ("d", "solvable", "p1", "p2", "s", "solutions", "truncated"))
            _require({k: doc[k] for k in ("d", "solvable", "p1", "p2", "s")} == e.summary_doc(),
                     "wrong summary")
            _require(doc["truncated"] is truncated, "wrong truncation flag")
            rows = [tuple(v) for v in doc["solutions"]]
        else:
            lines = r.out.splitlines()
            if truncated:
                _require(lines[-1:] == ["# truncated"], "missing truncation marker")
                lines = lines[:-1]
            rows = _rows_of_text(lines)
        _check_rows(rows, e, count)
        return len(rows)

    return Op(label, lambda: run_cli(argv), check)


def particular_op(label: str, inst: Instance) -> Op:
    """Library path: normalize, then find_particular."""
    e = expect(inst)

    def call():
        core = lincong.core
        return core.find_particular(core.normalize(inst.coeffs, inst.rhs, inst.mod))

    def check(x) -> int:
        if not e.solvable:
            _require(x is None, "a solution returned for an unsolvable instance")
            return 0
        _require(isinstance(x, tuple), f"expected a solution, got {x!r}")
        _check_rows([x], e, 1)
        return 1

    return Op(label, call, check)


def verify_op(label: str, inst: Instance, argv_instance: list[str]) -> Op:
    e = expect(inst)
    count = e.p1 if e.solvable else 0
    want = "\n".join([f"congruence: {inst.echo()}", f"oracle count = {count}",
                      f"expected count = {count}", "count agreement: yes",
                      "set agreement: yes"]) + "\n"

    def check(r: CliResult) -> int:
        _require(r.code == 0, f"exit code {r.code}: {r.err.strip()}")
        _require(r.out == want, f"unexpected output {r.out!r}")
        return count

    return Op(label, lambda: run_cli(["verify", *argv_instance]), check)


def verify_batch_op(label: str, batch_seed: int) -> Op:
    want = (f"verified {VERIFY_BATCH} random instances (seed {batch_seed}): "
            f"{VERIFY_BATCH} agree, 0 disagree\n")

    def check(r: CliResult) -> int:
        _require(r.code == 0, f"exit code {r.code}: {r.err.strip()}")
        _require(r.out == want, f"unexpected output {r.out!r}")
        return 0

    return Op(label, lambda: run_cli(["verify", "--seed", str(batch_seed)]), check)


def census_op() -> Op:
    """A tiny `verify` that enters every layer once; see run.py."""
    inst = Instance((1, 2), 1, 6)
    return verify_op("census", inst, ["x1 + 2x2 ≡ 1 (mod 6)"])


# --- rounds ----------------------------------------------------------------
# Each function returns one round.  The comments give the cost drivers of each
# class; the mix is chosen so that the median and the tail percentile fall
# inside a class, not on a boundary between two, whatever the seed.

def counts_round(rng: random.Random) -> list[Op]:
    # Moduli of 20, 100 and 300 digits, arity 1 to 12: parse, summarize,
    # intmath and big-int rendering do all the work; basis and stream none.
    # One cell in four is unsolvable (exit code 3, find_particular -> None).
    # 15 cells of 3 classes: an odd number of equal blocks puts the median
    # inside a class rather than between two.
    ops = []
    cell = 0
    for digits in (20, 100, 300):
        for n in (1, 2, 3, 5, 12):
            inst = big_instance(rng, digits, n, solvable=cell % 4 != 3)
            cell += 1
            label = f"d{digits}n{n}"
            ops.append(solve_op(f"solve-text-{label}", inst, [inst.expression(rng)], "text", 0))
            ops.append(solve_op(f"solve-json-{label}", inst, [inst.expression(rng)], "json", 0))
            ops.append(particular_op(f"particular-{label}", inst))
    return ops


def basis_round(rng: random.Random) -> list[Op]:
    # Small classes (p2 of 1 to 48) so the greedy dependence search in
    # iter_basis does nearly all the work: full bases with s = 16 .. 64, and
    # enumerate --limit on instances with s in the hundreds of thousands,
    # where only the first 60 or 100 basis rows are needed.
    def solve(label, m, gs, fmt):
        inst = structured(rng, m, gs)
        return solve_op(label, inst, inst.flags(), fmt, None)

    def enum(label, m, gs, fmt, limit):
        inst = structured(rng, m, gs)
        return enumerate_op(label, inst, [inst.expression(rng)], fmt, limit)

    return [
        solve("solve-s16", 64, (2, 4), "text"),
        solve("solve-n3-s24", 24, (2, 4, 6), "json"),
        solve("solve-s40", 160, (2, 4), "json"),
        enum("enum-p2is1-L60", 1000, (1, 1, 1), "text", 60),
        solve("solve-s64", 256, (2, 4), "text"),
        enum("enum-p2is2-L100", 1000, (1, 1, 2), "json", 100),
        solve("solve-s64", 256, (2, 4), "json"),
    ]


def stream_round(rng: random.Random) -> list[Op]:
    # Few basis rows (s of 1 to 6) and p2 of 2e3 to 1e5, so the time goes to
    # expand and to rendering each row.  The largest gcd(a_i, m) comes first,
    # so the strides of the leading coordinates are small and iter_basis
    # finds every class within a few dozen prefixes.
    def enum(label, m, gs, fmt, limit):
        inst = structured(rng, m, gs)
        return enumerate_op(label, inst, inst.flags(), fmt, limit)

    return [
        enum("text-s2-p2e3", 4000, (125, 16), "text", None),
        enum("json-s2-p2e3", 4000, (125, 16), "json", None),
        enum("text-n3-s1-L6e3", 84, (42, 28, 12), "text", 6000),
        enum("json-n3-s1-L6e3", 84, (42, 28, 12), "json", 6000),
        enum("text-n4-s6-L6e3", 30, (15, 10, 6, 5), "text", 6000),
        enum("text-s2-p2e5-L6e3", 200000, (3125, 32), "text", 6000),
        enum("json-s2-p2e5-L6e3", 200000, (3125, 32), "json", 6000),
    ]


def verify_round(rng: random.Random) -> list[Op]:
    # The oracle scan of m**n tuples (7.8e3 to 2.3e4) dominates; each call
    # also builds a small basis, so core.basis runs once per operation.
    def single(label, m, gs):
        inst = structured(rng, m, gs)
        return verify_op(label, inst, [inst.expression(rng)])

    return [
        single("n5-m6", 6, (3, 2, 3, 2, 1)),
        single("n2-m100", 100, (10, 4)),
        single("n4-m10", 10, (5, 5, 2, 2)),
        single("n3-m24", 24, (12, 8, 6)),
        single("n2-m150", 150, (15, 10)),
    ]


def warm_up_ops(workload: str, rng: random.Random) -> list[Op]:
    """Checked but untimed: a census call, and for verify one `verify --seed K`
    batch (200 tiny instances, about a second: too long an operation to time
    steadily on a shared machine)."""
    ops = [census_op()]
    if workload == "verify":
        ops.append(verify_batch_op("batch", rng.randrange(10**6)))
    return ops


ROUNDS = {"counts": counts_round, "basis": basis_round,
          "stream": stream_round, "verify": verify_round}
