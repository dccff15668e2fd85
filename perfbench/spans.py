"""Outside-in span recorder for timebinsim.

The package's layer functions are replaced, for the duration of a traced op,
by wrappers that record one :class:`Span` per call: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it started (its
parent), the op it belongs to, and exact counts of the work it did (events in
and out, windows, bytes).  Nothing inside ``src/`` changes; the wrappers are
installed from here and removed afterwards.

``cli``, ``measurement`` and ``wdm`` bind ``run``, ``fringe_scan`` and the
other layer functions with ``from ... import``, so a wrapper is installed
under every ``timebinsim.*`` module attribute that holds the original
function, and on the ``EventStream`` class for the I/O methods.

A span is a plain record so that an in-program stage timer can emit the same
shape later: ``{"id", "name", "parent", "op_id", "start", "end", "counts"}``.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op_id: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Recorder:
    """Collects spans in memory; :meth:`wrap` makes a recording wrapper."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = 0
        self._open: list[Span] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name,
                        self._open[-1].id if self._open else None,
                        self.op_id, time.perf_counter())
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return wrapper

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class RunCounter:
    """Counts ``montecarlo.run`` windows and events without reading a clock.

    Installed during untraced ops so that trajectories and events per second
    can be reported for ops that simulate their own events.
    """

    def __init__(self):
        self.traj = 0
        self.events = 0

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.traj += result.n_trajectories
            self.events += len(result)
            return result
        return wrapper


# ---------------------------------------------------------------------------
# What is wrapped, and what is counted at each boundary
# ---------------------------------------------------------------------------

def _stream_arg(args, kwargs):
    return args[0] if args else kwargs["stream"]


def _filter_counts(args, kwargs, result):
    return {"events_in": len(_stream_arg(args, kwargs)), "events_out": len(result)}


def _write_counts(args, kwargs, result):
    # (self, path) for the instance writers
    return {"events": len(args[0]), "bytes": os.path.getsize(args[1])}


def _read_counts(args, kwargs, result):
    # (cls, path) for the classmethod readers
    return {"events": len(result), "bytes": os.path.getsize(args[1])}


# (module, attribute, count function); "EventStream.x" names a method.
LAYER_FUNCTIONS = (
    ("cli", "main", None),
    ("dynamics", "generate_state", None),
    ("montecarlo", "run",
     lambda a, k, r: {"traj": r.n_trajectories, "events_out": len(r)}),
    ("montecarlo", "EventStream.to_csv", _write_counts),
    ("montecarlo", "EventStream.to_binary", _write_counts),
    ("montecarlo", "EventStream.from_csv", _read_counts),
    ("montecarlo", "EventStream.from_binary", _read_counts),
    ("measurement", "michelson",
     lambda a, k, r: {"events_in": r.n_input, "events_out": r.n_detected}),
    ("measurement", "reject_reset_light", _filter_counts),
    ("measurement", "gate", _filter_counts),
    ("measurement", "spectral_filter", _filter_counts),
    ("measurement", "hbt_g2",
     lambda a, k, r: {"events_in": len(_stream_arg(a, k))}),
    ("measurement", "fringe_scan", None),
    ("measurement", "calibrate_background_for_g2", None),
    ("tomography", "fit_fringe", None),
    ("tomography", "reconstruct", None),
    ("wdm", "recovery_report", None),
)

RUN_ONLY = (("montecarlo", "run", None),)


def install(recorder, functions=LAYER_FUNCTIONS):
    """Wrap ``functions`` with ``recorder.wrap``; returns an undo callable.

    Module functions are replaced in every loaded ``timebinsim`` module that
    binds them; methods are replaced on their class.
    """
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "timebinsim" or n.startswith("timebinsim."))]
    undo = []
    for module, attr, count in functions:
        mod = sys.modules[f"timebinsim.{module}"]
        name = f"{module}.{attr.split('.')[-1]}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(recorder.wrap(name, raw.__func__, count))
            else:
                new = recorder.wrap(name, raw, count)
            setattr(cls, meth, new)
            undo.append((cls, meth, raw))
            continue
        original = getattr(mod, attr)
        wrapper = recorder.wrap(name, original, count)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    undo.append((ns, key, original))

    def uninstall():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
    return uninstall


# ---------------------------------------------------------------------------
# Self time and per-layer aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the part of the interval they cover.
    """
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def per_op_layers(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """op id -> layer name -> {"calls", "self_s", <summed counts>...}.

    ``run_calls`` on a span counts its direct ``montecarlo.run`` children.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    ops: dict[int, dict[str, dict[str, float]]] = {}
    for s in spans:
        layer = ops.setdefault(s.op_id, {}).setdefault(
            s.name, {"calls": 0, "self_s": 0.0})
        layer["calls"] += 1
        layer["self_s"] += own[s.id]
        for key, value in s.counts.items():
            layer[key] = layer.get(key, 0) + value
        if s.name == "montecarlo.run" and s.parent is not None:
            parent = by_id[s.parent]
            p = ops[s.op_id].setdefault(parent.name, {"calls": 0, "self_s": 0.0})
            p["run_calls"] = p.get("run_calls", 0) + 1
    return ops


def summarize(ops: dict[int, dict[str, dict[str, float]]]) -> tuple[dict, bool]:
    """Median self time per layer over ops, counts from the first op.

    Every traced op of a run repeats the same input, so counts must agree
    across ops; the second value says whether they did.
    """
    per_op = [ops[k] for k in sorted(ops)]
    if not per_op:
        return {}, True
    names = sorted({name for op in per_op for name in op})
    out = {}
    for name in names:
        first = per_op[0].get(name, {})
        out[name] = {k: v for k, v in first.items() if k != "self_s"}
        out[name]["self_s"] = statistics.median(
            op.get(name, {}).get("self_s", 0.0) for op in per_op)

    def counts(op):
        return {n: {k: v for k, v in d.items() if k != "self_s"} for n, d in op.items()}
    stable = all(counts(op) == counts(per_op[0]) for op in per_op)
    return out, stable
