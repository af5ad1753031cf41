"""Span tracing of the decksym layers from outside the library.

Wrappers replace module and class attributes for the length of a traced
pass and restore them afterwards.  Each wrapped call records one span (name,
start, end, parent) in memory.  The compiled evaluator and the scalar
``evaluate`` methods run too often for a span each (one triangular_d32
pass makes 172k evaluator calls), so their calls are counted and timed on
the enclosing span instead.

Patching a module attribute reaches every caller that looks the name up on
the module at call time (``tracker.track_path`` inside ``track_fiber``,
``monodromy.run_monodromy`` inside ``cli``).  A from-import binds the
original, so ``parse_system`` is patched on ``decksym.cli``, where the
pipeline looks it up.  ``check_fired`` catches a binding that bypasses a
patch: a wrapper that never fires on a workload that reaches it fails the
traced run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

from workloads import WORKLOADS

ALL = frozenset(WORKLOADS)
DECKS = frozenset({"p3p_graded", "small_dense"})  # workloads with deck maps
P3P = frozenset({"p3p_graded"})
STATUSES = ("success", "diverged", "singular", "step_underflow")  # PathResult.status


def _status(result):
    return {"status": result.status, "steps": result.steps_taken}


def _interp_stats(result):
    stats = result[1]
    return {"subproblems": stats.subproblems, "vandermonde": stats.largest_vandermonde}


# (object path, attribute, span name, what to keep of the result, workloads
# that must reach the wrapper).  The first part of a span name is its layer.
SPANS = (
    ("decksym.cli", "parse_system", "expr.parse", None, ALL),
    ("decksym.tracker", "track_path", "tracker.track_path", _status, ALL),
    ("decksym.tracker", "track_fiber", "tracker.track_fiber", None, DECKS),
    ("decksym.monodromy", "run_monodromy", "monodromy.run",
     lambda r: {"loops": r.loop_count}, ALL),
    ("decksym.monodromy", "sample_orbit", "monodromy.sample_orbit",
     lambda r: {"samples": len(r)}, DECKS),
    ("decksym.monodromy", "_group_signature", "permgrp.signature", None, ALL),
    ("decksym.permgrp", "is_transitive", "permgrp.transitive", None, ALL),
    ("decksym.permgrp", "group_order_capped", "permgrp.order", None, ALL),
    ("decksym.permgrp", "centralizer_in_symmetric", "permgrp.centralizer", None, ALL),
    ("decksym.permgrp", "minimal_block_systems", "permgrp.blocks", None, ALL),
    ("decksym.scaling", "detect_scalings", "scaling.detect", None, DECKS),
    ("decksym.scaling", "commuting_discrete_scalings", "scaling.filter",
     lambda r: {"candidates": len(r.candidates)}, P3P),
    ("decksym.interp", "interpolate_graded", "interp.graded", _interp_stats, P3P),
    ("decksym.interp", "interpolate_dense", "interp.dense", _interp_stats,
     frozenset({"small_dense"})),
    ("decksym.interp", "verify_deck", "interp.verify",
     lambda r: {"trials": r.trials}, DECKS),
    ("decksym.numcore", "nullspace", "numcore.nullspace", None, DECKS),
    ("decksym.numcore", "rref", "numcore.rref", None, DECKS),
)

# (object path, attribute, counter name, workloads that must reach it)
COUNTERS = (
    ("decksym.tracker:CompiledSystem", "f_at", "tracker.eval.f_at", DECKS),
    ("decksym.tracker:CompiledSystem", "jx_at", "tracker.eval.jx_at", ALL),
    ("decksym.tracker:CompiledSystem", "jp_at", "tracker.eval.jp_at", ALL),
    ("decksym.tracker:CompiledSystem", "f_and_jx", "tracker.eval.f_and_jx", ALL),
    ("decksym.expr:Polynomial", "evaluate", "expr.evaluate.polynomial", DECKS),
    ("decksym.expr:RationalFunction", "evaluate", "expr.evaluate.rational", DECKS),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Span:
    __slots__ = ("name", "parent", "start", "end", "note", "error", "counts", "times")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = perf_counter()
        self.end = 0.0
        self.note = None
        self.error = None
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; ``with tracer:`` patches and restores."""

    def __init__(self):
        self.spans: list[Span] = [Span("cli.pass", -1)]
        self._stack = [0]
        self._counting = False
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1])
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        return wrapper

    def _counter(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Only the outermost counted call is timed: RationalFunction.evaluate
            # calls Polynomial.evaluate twice.
            if self._counting:
                return fn(*args, **kwargs)
            self._counting = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = self.spans[self._stack[-1]]
                span.times[name] += perf_counter() - start
                span.counts[name] += 1
                self._counting = False

        return wrapper

    def _patch(self, path, attr, wrap):
        owner = _resolve(path)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def __enter__(self):
        for path, attr, name, note, _ in SPANS:
            self._patch(path, attr, lambda fn, n=name, f=note: self._span(fn, n, f))
        for path, attr, name, _ in COUNTERS:
            self._patch(path, attr, lambda fn, n=name: self._counter(fn, n))
        self.spans[0].start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.spans[0].end = perf_counter()
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- results ----------------------------------------------------------

    def check_fired(self, workload: str) -> list[str]:
        """Wrappers that never fired on a workload that should reach them."""
        counts = self.counters()
        fired = {name for name in counts if counts[name]}
        return [
            f"wrapper on {path}.{attr} never fired"
            for path, attr, name, *_, reach in SPANS + COUNTERS
            if workload in reach and f"calls.{name}" not in fired and name not in fired
        ]

    def _count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            parent = span.parent if span.name == name else -1
            while parent >= 0:
                if self.spans[parent].name == ancestor:
                    count += 1
                    break
                parent = self.spans[parent].parent
        return count

    def _outermost_under(self, ancestors, layers: set[str]) -> list[Span]:
        """Spans of the given layers below a span named in ``ancestors``, with
        no span of those layers between them and it."""
        out = []
        for i, span in enumerate(self.spans):
            if span.layer not in layers:
                continue
            parent = span.parent
            while parent >= 0:
                above = self.spans[parent]
                if above.name in ancestors:
                    out.append(span)
                    break
                if above.layer in layers:
                    break
                parent = above.parent
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its child spans and
        its counted calls; counted calls go to their own rows."""
        child = [0.0] * len(self.spans)
        for span in self.spans[1:]:
            child[span.parent] += span.duration
        out: defaultdict = defaultdict(float)
        for i, span in enumerate(self.spans):
            counted = 0.0
            for name, t in span.times.items():
                row = "tracker.eval" if name.startswith("tracker.eval") else "expr"
                out[row] += t
                counted += t
            out[span.layer] += span.duration - child[i] - counted
        return dict(out)

    def counters(self) -> dict[str, int]:
        """Deterministic counts of one pass: calls per span and counter, paths
        by final status, steps, loops, samples, subproblems, candidates."""
        out: Counter = Counter()
        for span in self.spans[1:]:
            out[f"calls.{span.name}"] += 1
            if span.error:
                out[f"raised.{span.name}.{span.error}"] += 1
            if span.note:
                if "status" in span.note:
                    out[f"tracker.paths.{span.note['status']}"] += 1
                    out["tracker.steps"] += span.note["steps"]
                for key in ("loops", "samples", "subproblems", "candidates", "trials"):
                    if key in span.note:
                        out[f"{span.name}.{key}"] += span.note[key]
        for span in self.spans:
            out.update(span.counts)
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass (times in s unless named)."""
        spans = self.spans[1:]
        counts = self.counters()

        def total(*names):
            return sum(s.duration for s in spans if s.name in names)

        def calls(name):
            return counts.get(f"calls.{name}", 0)

        def ratio(a, b):
            return a / b if b else 0.0

        eval_calls = sum(v for k, v in counts.items() if k.startswith("tracker.eval."))
        eval_s = sum(
            t for s in self.spans for k, t in s.times.items() if k.startswith("tracker.eval.")
        )
        paths = calls("tracker.track_path")
        loops = counts.get("monodromy.run.loops", 0)
        interpolation = ("interp.graded", "interp.dense")
        notes = [s.note for s in spans if s.name in interpolation and s.note]
        orbit_attempts = self._count_under("tracker.track_fiber", "monodromy.sample_orbit")
        samples = counts.get("monodromy.sample_orbit.samples", 0)
        evaluate_calls = sum(v for k, v in counts.items() if k.startswith("expr.evaluate."))
        evaluate_s = sum(
            t for s in self.spans for k, t in s.times.items() if k.startswith("expr.evaluate.")
        )
        outside = self._outermost_under(interpolation, {"monodromy", "tracker"})
        self_times = self.layer_self_times()
        out = {
            "tracker.eval_calls": eval_calls,
            "tracker.eval_us": ratio(eval_s, eval_calls) * 1e6,
            "tracker.eval_s": eval_s,
            "tracker.self_s": self_times.get("tracker", 0.0),
            "tracker.paths": paths,
            "tracker.path_ms": ratio(total("tracker.track_path"), paths) * 1e3,
            "tracker.steps_per_path": ratio(counts.get("tracker.steps", 0), paths),
            "tracker.path_fail_frac": ratio(
                paths - counts.get("tracker.paths.success", 0), paths
            ),
            "tracker.fibers": calls("tracker.track_fiber"),
            "tracker.fiber_fail_frac": ratio(
                sum(v for k, v in counts.items() if k.startswith("raised.tracker.track_fiber.")),
                calls("tracker.track_fiber"),
            ),
            "monodromy.run_s": total("monodromy.run"),
            "monodromy.self_s": self_times.get("monodromy", 0.0),
            "monodromy.loops": loops,
            "monodromy.paths_per_loop": ratio(
                self._count_under("tracker.track_path", "monodromy.run"), loops
            ),
            "monodromy.orbit_s": total("monodromy.sample_orbit"),
            "monodromy.orbit_samples": samples,
            "monodromy.orbit_attempts": orbit_attempts,
            "monodromy.orbit_yield": ratio(samples, orbit_attempts),
            "permgrp.order_s": total("permgrp.order"),
            "permgrp.centralizer_s": total("permgrp.centralizer"),
            "permgrp.blocks_s": total("permgrp.blocks"),
            "permgrp.in_monodromy_s": sum(
                s.duration for s in self._outermost_under(("monodromy.run",), {"permgrp"})
            ),
            "permgrp.self_s": self_times.get("permgrp", 0.0),
            "scaling.detect_s": total("scaling.detect"),
            "scaling.filter_s": total("scaling.filter"),
            "scaling.self_s": self_times.get("scaling", 0.0),
            "scaling.candidates": counts.get("scaling.filter.candidates", 0),
            "scaling.filter_fibers": self._count_under("tracker.track_fiber", "scaling.filter"),
            "interp.interpolate_s": total(*interpolation),
            "interp.self_s": total(*interpolation) - sum(s.duration for s in outside),
            "interp.subproblems": sum(n["subproblems"] for n in notes),
            "interp.largest_vandermonde": max((n["vandermonde"] for n in notes), default=0),
            "interp.verify_s": total("interp.verify"),
            "interp.verify_trials": counts.get("interp.verify.trials", 0),
            "numcore.nullspace_calls": calls("numcore.nullspace"),
            "numcore.nullspace_s": total("numcore.nullspace"),
            "numcore.rref_s": total("numcore.rref"),
            "expr.parse_s": total("expr.parse"),
            "expr.evaluate_calls": evaluate_calls,
            "expr.evaluate_s": evaluate_s,
            "expr.self_s": self_times.get("expr", 0.0),
            "tracker.steps": counts.get("tracker.steps", 0),
        }
        for status in STATUSES:
            out[f"tracker.paths.{status}"] = counts.get(f"tracker.paths.{status}", 0)
        for path, attr, name, _ in COUNTERS:
            if name.startswith("tracker.eval."):
                out[f"tracker.eval_calls.{attr}"] = counts.get(name, 0)
        return out

    def dump(self) -> list[list]:
        """Spans as [name, parent, start, end] rows, start of the pass at 0."""
        t0 = self.spans[0].start
        return [
            [s.name, s.parent, round(s.start - t0, 7), round(s.end - t0, 7)]
            for s in self.spans
        ]
