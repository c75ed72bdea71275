"""Outside-in tracer: wraps lincong's public functions at their module attributes.

Nothing inside lincong changes.  `Tracer.install()` replaces every binding of
a listed function in the lincong modules (the defining module, the modules
that imported it by name, and the package) with a wrapper that opens a span
around the call; `uninstall()` puts the originals back.  Generators return
immediately when called, so for the iterating functions each `next()` is a
span of its own.

A span is (id, parent id, name, start ns, end ns).  Self time, the span's
duration minus the time its child spans cover, is added to the span's layer
as it closes, so per-layer busy time needs no post-processing and nested
spans of the same layer are never counted twice.  Only the first SPAN_CAP
spans are kept for writing out; the aggregates cover all of them.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns

import lincong
import lincong.cli
import lincong.core
import lincong.intmath
import lincong.oracle
import lincong.parser

MODULES = (lincong, lincong.cli, lincong.core, lincong.intmath, lincong.oracle, lincong.parser)

# layer -> (defining module, public functions).  ITERATES names the functions
# whose work happens while the returned iterator is consumed.
LAYERS = {
    "parser": (lincong.parser, ("parse", "format_congruence")),
    "intmath": (lincong.intmath, ("extended_gcd", "multi_gcd_bezout", "solve_unary", "basis_size")),
    "core.summarize": (lincong.core, ("summarize", "module_generators", "find_particular")),
    "core.basis": (lincong.core, ("iter_basis", "build_basis")),
    "core.stream": (lincong.core, ("expand", "enumerate_raw", "enumerate_all")),
    "oracle": (lincong.oracle, ("brute_force", "verify")),
    "cli": (lincong.cli, ("main",)),
}
ITERATES = {"iter_basis", "expand", "enumerate_raw", "enumerate_all"}
SPAN_CAP = 20000


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # open spans: [layer, name, id, start, child ns]
        self.busy_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.n_spans = 0
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def open(self, layer: str, name: str) -> list:
        frame = [layer, name, self.n_spans, 0, 0]
        self.n_spans += 1
        self.stack.append(frame)
        frame[3] = perf_counter_ns()
        return frame

    def close(self, frame: list):
        end = perf_counter_ns()
        self.stack.pop()
        dur = end - frame[3]
        self.busy_ns[frame[0]] += dur - frame[4]
        parent = None
        if self.stack:
            top = self.stack[-1]
            top[4] += dur
            parent = top[2]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[2], parent, f"{frame[0]}:{frame[1]}", frame[3], end))

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, layer: str, name: str, fn):
        tracer = self
        counts = self.counts
        calls = f"{layer}.calls"
        after = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            frame = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(args, result)
            if name in ITERATES:
                return tracer._iterate(layer, name, result)
            return result

        return traced

    def _iterate(self, layer: str, name: str, it):
        step = it.__next__
        open_, close, counts, stack = self.open, self.close, self.counts, self.stack
        label = f"{name}.next"
        while True:
            frame = open_(layer, label)
            try:
                item = step()
            except StopIteration:
                close(frame)
                return
            except BaseException:
                close(frame)
                raise
            close(frame)
            consumer = stack[-1][0] if stack else None
            if layer == "core.basis":
                counts["core.basis.rows"] += 1
            elif consumer != "core.stream":
                # rows leaving the stream layer; enumerate_all -> expand
                # nesting is counted once
                counts["core.stream.rows"] += 1
                if consumer == "core.basis":
                    counts["core.basis.candidates"] += 1
            yield item

    def _count_dependence(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["core.basis.dependence_checks"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- per-function counters ---------------------------------------------

    def _after_parse(self, args, result):
        self.counts["parser.chars"] += len(args[0])

    def _after_solve_unary(self, args, result):
        # solve_unary's own span is closed, so the top of the stack is its caller
        if self.stack and self.stack[-1][1] == "enumerate_raw.next":
            self.counts["core.stream.prefixes"] += 1
            self.counts["core.stream.prefix_hits"] += result is not None

    def _after_brute_force(self, args, result):
        c = args[0]
        self.counts["oracle.tuples"] += c.modulus ** c.arity

    # -- install ------------------------------------------------------------

    def install(self):
        replace = {}
        for layer, (module, names) in LAYERS.items():
            for name in names:
                fn = getattr(module, name)
                replace[id(fn)] = (fn, self._wrap_call(layer, name, fn))
        fn = lincong.core.are_dependent
        replace[id(fn)] = (fn, self._count_dependence(fn))
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

