"""Spans and counters installed from outside onto specwave's module attributes.

Functions at block level and above get a span each (name, start, end, the
span that caused it, thread).  Per-step functions get a call count and a
summed time per thread.  Each thread keeps its own records, so the hot path
takes no lock; everything is read out once the traced command has ended.

``summarize`` turns the records into the per-layer metrics.  A layer's self
time is its span's duration minus the part of it that its child spans cover
and minus the time of counted calls made directly under it.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
import time
from collections import defaultdict

# (module, attribute, metric stem); spans
SPANS = [
    ("specwave.cli", "main", "cli"),
    ("specwave.config", "load_config", "config.load"),
    ("specwave.cli", "load_config", "config.load"),
    ("specwave.integrator", "_engine_tables", "integrator.tables"),
    ("specwave.mc", "run_chunk", "integrator.run_chunk"),
    ("specwave.mc", "_mean_stderr", "mc.reduce"),
    ("specwave.cli", "fit_rate", "analysis.fit"),
    ("specwave.cli", "theoretical_weak_bound", "analysis.bound"),
]
# per-step functions: counts and summed times
COUNTERS = [
    ("specwave.integrator", "_record_moment", "integrator.moment"),
    ("specwave.integrator", "diffusion_vel", "coefficients.diffusion"),
    ("specwave.integrator", "drift_vel", "coefficients.drift"),
    ("specwave.spectral", "GridWorkspace.synthesize", "spectral.synthesize"),
    ("specwave.spectral", "GridWorkspace.analyze", "spectral.analyze"),
    ("specwave.spectral", "GridWorkspace.product_to_sine", "spectral.product_to_sine"),
    ("specwave.cli", "step", "integrator.step"),
    ("specwave.integrator", "propagate_arrays", "propagator.propagate"),
    ("specwave.cli", "norm_bold_hr", "spectral.norm"),
]
MAP = ("specwave.mc", "_map_chunks", "mc.map")
# the benchmark's configs use this functional; load_config calls it through specwave.mc
FUNCTIONAL = ("specwave.mc", "exp_neg_norm", "mc.functional")


class _ThreadRecord:
    def __init__(self):
        self.ident = threading.get_ident()
        self.stack: list[int] = []
        self.adopted: int | None = None  # span that handed work to this thread
        self.spans: list[tuple] = []     # (id, parent, name, start, end, thread)
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.depth = 0                    # nesting of counted calls
        self.direct: dict[int, float] = defaultdict(float)  # counted time per span


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _ThreadRecord()
            with self._lock:
                self._records.append(rec)
            self._local.rec = rec
        return rec

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._record()
            sid = self._new_id()
            parent = rec.stack[-1] if rec.stack else rec.adopted
            rec.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                rec.spans.append((sid, parent, name, start, end, rec.ident))
        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._record()
            rec.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                rec.depth -= 1
                rec.counts[name] += 1
                rec.seconds[name] += took
                if rec.depth == 0 and rec.stack:
                    rec.direct[rec.stack[-1]] += took
        return wrapper

    def map_span(self, name, fn):
        """Span around a map whose work items run on pool threads.

        Items are re-wrapped so that spans they open name the map span as
        their cause, whichever thread runs them.
        """
        def wrapper(work, items, *args, **kwargs):
            holder = {}

            def adopted(item):
                rec = self._record()
                saved = rec.adopted
                rec.adopted = holder["sid"]
                try:
                    return work(item)
                finally:
                    rec.adopted = saved

            def run(*a, **k):
                holder["sid"] = self._record().stack[-1]
                return fn(adopted, items, *a, **k)
            return self.span(name, run)(*args, **kwargs)
        return wrapper

    def _patch(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if not hasattr(owner, leaf):
            self.missing.append(f"{module}.{attr}")
            return
        original = getattr(owner, leaf)
        self._undo.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, n=name: self.span(n, fn))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, n=name: self.counter(n, fn))
        module, attr, name = MAP
        self._patch(module, attr, lambda fn, n=name: self.map_span(n, fn))
        module, attr, name = FUNCTIONAL

        def traced_functional(make, name=name):
            def build(*args, **kwargs):
                phi = make(*args, **kwargs)
                return dataclasses.replace(
                    phi, evaluate_batch=self.counter(name, phi.evaluate_batch))
            return build
        self._patch(module, attr, traced_functional)

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def records(self) -> dict:
        """Every span and the merged counters, as plain JSON data."""
        spans, counts, seconds, direct = [], defaultdict(int), defaultdict(float), {}
        with self._lock:
            recs = list(self._records)
        for rec in recs:
            spans.extend(rec.spans)
            for k, v in rec.counts.items():
                counts[k] += v
            for k, v in rec.seconds.items():
                seconds[k] += v
            direct.update(rec.direct)
        return {"spans": [list(s) for s in spans], "counts": dict(counts),
                "seconds": dict(seconds),
                "direct": {str(k): v for k, v in direct.items()},
                "missing": list(self.missing)}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# per-layer metrics that are counted calls: metric -> counter name
_COUNTED_SECONDS = {
    "integrator.moment_s": "integrator.moment",
    "mc.functional_s": "mc.functional",
    "coefficients.diffusion_s": "coefficients.diffusion",
    "coefficients.drift_s": "coefficients.drift",
    "spectral.synthesize_s": "spectral.synthesize",
    "spectral.analyze_s": "spectral.analyze",
    "integrator.step_s": "integrator.step",
    "spectral.product_to_sine_s": "spectral.product_to_sine",
    "propagator.propagate_s": "propagator.propagate",
    "spectral.norm_s": "spectral.norm",
}
_COUNTED_CALLS = {
    "coefficients.diffusion_calls": "coefficients.diffusion",
    "spectral.synthesize_calls": "spectral.synthesize",
    "integrator.step_calls": "integrator.step",
}


def summarize(records: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command; layers that did not run read 0."""
    spans = [tuple(s) for s in records["spans"]]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sid, parent, name, start, end, thread in spans:
        by_name[name].append((sid, start, end, thread))
        children[parent].append((start, end, name, thread))

    def total(name):
        return sum((end - start for _, start, end, _ in by_name[name]), 0.0)

    blocks = [end - start for _, start, end, _ in by_name["integrator.run_chunk"]]
    idle = 0.0
    for sid, start, end, _ in by_name["mc.map"]:
        work = [(s, e, t) for s, e, n, t in children[sid] if n == "integrator.run_chunk"]
        threads = len({t for _, _, t in work}) or 1
        idle += threads * (end - start) - sum(e - s for s, e, _ in work)
    cli_self = 0.0
    for sid, start, end, _ in by_name["cli"]:
        inner = [(max(s, start), min(e, end)) for s, e, _, _ in children[sid]]
        cli_self += (end - start) - _covered(inner) - records["direct"].get(str(sid), 0.0)

    out = {
        "config.load_s": total("config.load"),
        "integrator.tables_s": total("integrator.tables"),
        "integrator.run_chunk_s": sum(blocks, 0.0),
        "integrator.run_chunk_calls": len(blocks),
        "integrator.block_max_s": max(blocks, default=0.0),
        "mc.map_s": total("mc.map"),
        "mc.idle_s": idle,
        "mc.reduce_s": total("mc.reduce"),
        "analysis.fit_s": total("analysis.fit"),
        "analysis.bound_s": total("analysis.bound"),
        "cli.self_s": cli_self,
    }
    for metric, name in _COUNTED_SECONDS.items():
        out[metric] = records["seconds"].get(name, 0.0)
    for metric, name in _COUNTED_CALLS.items():
        out[metric] = records["counts"].get(name, 0)
    return out
