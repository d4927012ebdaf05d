"""Span tracer that reaches barrierkit's layers from outside.

`Tracer.instrument()` replaces public functions and module attributes of
barrierkit with wrappers that record a span (name, start, end, parent,
op id) or bump a counter, and restores the originals on exit. A function
is replaced under every barrierkit module name that is bound to it, so
calls made through `from .x import f` aliases are seen too. Spans stay in
memory until `write_spans` saves them at the end of a run.

Self time of a span is its duration minus the part of it that its child
spans cover (the union of the children's intervals, which matters when a
worker pool runs children in parallel).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute, span name); a None span name counts calls only
SPANS = (
    ("barrierkit.pricing.engine", "simulate_paths", "engine.simulate_paths"),
    ("barrierkit.pricing.engine", "ndtri", "engine.ndtri"),
    ("barrierkit.pricing.engine", "_path_words", "engine.path_words"),
    ("barrierkit.pricing.engine", "_resolve_tie", "engine.resolve_tie"),
    ("barrierkit.pricing.mc", "mc_price", "mc.mc_price"),
    ("barrierkit.passage", "breach_prob_mc", "passage.breach_prob_mc"),
    ("barrierkit.passage", "breach_prob_pde", "passage.breach_prob_pde"),
    ("barrierkit.passage", "solve_banded", None),
    ("barrierkit.critical", "critical_prices", "critical.critical_prices"),
    ("barrierkit.numerics", "maximize_on_interval", "numerics.maximize_on_interval"),
    ("barrierkit.numerics", "std_normal_cdf", None),
    ("barrierkit.pricing.closed", "bs_vanilla", "closed.bs_vanilla"),
    ("barrierkit.pricing.closed", "down_and_out_call_closed", "closed.down_and_out"),
    ("barrierkit.pricing.closed", "up_and_out_call_closed", "closed.up_and_out"),
    ("barrierkit.pricing.closed", "double_knockout_closed", "closed.double_knockout"),
    ("barrierkit.classify", "classify_down_and_out", "classify"),
    ("barrierkit.classify", "classify_up_and_out", "classify"),
    ("barrierkit.classify", "classify_double", "classify"),
    ("barrierkit.calibrate", "numeric_critical_price", "calibrate.numeric_critical_price"),
    ("barrierkit.calibrate", "implied_nu", "calibrate.implied_nu"),
    ("barrierkit.calibrate", "reproduce_table1", "calibrate.reproduce_table1"),
    ("barrierkit.cli", "run", "cli.run"),
)
COUNTED = {
    ("barrierkit.passage", "solve_banded"): "passage.solve_banded",
    ("barrierkit.numerics", "std_normal_cdf"): "numerics.std_normal_cdf",
}


class Tracer:
    """In-memory spans and counters for one traced phase of a run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent span, op id]
        self.counts: Counter = Counter()
        self.op = -1
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        # pool threads start with an empty stack: their parent is the
        # span the main thread is waiting in
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        rec = [name, 0, 0, parent, self.op]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- argument and result hooks: counts taken where the work happens --

    def _before_numerics_maximize_on_interval(self, args, kwargs):
        return (self._wrap_count("numerics.maximize_on_interval.evals", args[0]),) + args[1:], kwargs

    def _before_calibrate_numeric_critical_price(self, args, kwargs):
        if "pricer" in kwargs:
            kwargs = dict(kwargs, pricer=self._wrap_count("calibrate.pricer", kwargs["pricer"]))
        else:
            args = args[:5] + (self._wrap_count("calibrate.pricer", args[5]),) + args[6:]
        return args, kwargs

    def _after_engine_simulate_paths(self, args, kwargs, res):
        from barrierkit.pricing import engine  # already imported by the caller

        bound = dict(zip(("params", "barriers", "s0", "paths"), args), **kwargs)
        paths, barriers = bound["paths"], bound["barriers"]
        n = res.n_steps
        sides = int(barriers.lower is not None) + int(barriers.upper is not None)
        wpp = engine.words_per_path(n, barriers.lower is not None, barriers.upper is not None)
        c = self.counts
        c["engine.paths"] += paths
        c["engine.alive"] += int((res.status == engine.STATUS_ALIVE).sum())
        # computed from shapes, not measured
        c["engine.words"] += paths * wpp
        c["engine.path_steps"] += paths * n
        c["engine.bytes_random"] += paths * wpp * 8
        c["engine.bytes_normal"] += paths * n * 8
        c["engine.bytes_bridge"] += paths * n * 8 * sides

    def _after_engine_ndtri(self, args, kwargs, result):
        with self._lock:  # pool threads call ndtri concurrently
            self.counts["engine.ndtri.elements"] += getattr(result, "size", 1)

    # -- patching --

    @contextlib.contextmanager
    def instrument(self):
        """Wrap every layer entry point; restore the originals on exit."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "barrierkit" or k.startswith("barrierkit."))]
        engine = sys.modules["barrierkit.pricing.engine"]
        targets = list(SPANS)
        # the path kernel is whichever module the engine selected at import
        kernel = getattr(engine, "_kernel", None)
        if kernel is not None:
            targets.append((kernel.__name__, "run_paths", "kernel.run_paths"))
        saved = []
        try:
            for mod_name, attr, name in targets:
                original = getattr(sys.modules.get(mod_name), attr, None)
                if original is None:
                    # a layer that a refactor removed reads as zero work
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                if name is None:
                    wrapper = self._wrap_count(COUNTED[(mod_name, attr)], original)
                else:
                    wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, original in reversed(saved):
                setattr(mod, key, original)

    # -- reduction --

    def summarize(self) -> dict:
        """Per span name: calls, total and self seconds, outermost calls and time."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "outer_calls": 0, "outer_s": 0.0})
        for rec in self.spans:
            name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            dur = end - start
            covered = _union(children.get(id(rec), ()), start, end)
            s = out[name]
            s["calls"] += 1
            s["total_s"] += dur * 1e-9
            s["self_s"] += (dur - covered) * 1e-9
            if parent is None or parent[0] != name:
                s["outer_calls"] += 1
                s["outer_s"] += dur * 1e-9
        return dict(out)

    def write_spans(self, path) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_ns", "end_ns", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                w.writerow([i, name, start, end, -1 if parent is None else index[id(parent)], op])


def _union(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
