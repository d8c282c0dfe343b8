"""Benchmark-side tracing: spans around the calls into each layer.

The benchmark measures the program without changing it, so every layer
span is recorded here, by wrapping the public functions the layers
export.  A wrapper opens a span on the run's :class:`TraceRecorder` (the
same recorder the executors receive through ``Observability``, so the
program's own ``campaign.*``/``shard.run``/``experiment.*`` spans land
beside ours) and calls through.

Inside a forked pool worker the parent's recorder is a dead copy, so a
wrapper records into the worker's own recorder instead
(``repro.core.executor._WORKER_STATE``); the executor ships those events
back with the shard results.  Wrappers must therefore be installed
before the pool forks, which :func:`install` guarantees by being called
during set-up.

Self time follows the child-coverage rule: a span's duration minus the
part of its interval covered by other layer spans nested inside it.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from typing import Any, Callable, Iterable

#: (layer, span name, module, attribute path) for every wrapped call.
#: Several functions may share one span name; nested calls of one span
#: name (``save_campaign`` calling ``campaign_to_dict``) record once.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("systolic", "systolic.golden", "repro.core.executor", "GoldenCache.golden_run"),
    ("systolic", "systolic.simulate", "repro.core.campaign", "Campaign.run_single"),
    ("patterns", "patterns.extract", "repro.core.fault_patterns", "extract_pattern"),
    ("analytic", "analytic.batch", "repro.engines.analytic.engine", "evaluate_batch"),
    ("classifier", "classifier", "repro.core.classifier", "classify_pattern"),
    ("classifier", "classifier", "repro.core.classifier", "classify_mask"),
    ("classifier", "classifier", "repro.core.classifier", "classify_cells"),
    ("serialize", "serialize.record_encode", "repro.core.serialize", "experiment_record"),
    ("serialize", "serialize.record_decode", "repro.core.serialize", "experiment_from_record"),
    ("serialize", "serialize.record_decode", "repro.core.serialize", "read_checkpoint"),
    ("serialize", "serialize.artefact", "repro.core.serialize", "save_campaign"),
    ("serialize", "serialize.artefact", "repro.core.serialize", "campaign_to_dict"),
    ("serialize", "serialize.artefact", "repro.core.serialize", "campaign_result_record"),
    ("executor", "executor.execute", "repro.core.executor", "ParallelExecutor.execute"),
)

#: Span categories of every layer span this module records.
LAYER_CAT = "layer"

#: Program spans (recorded by ``repro`` itself) that count as layer
#: time: a worker's shard is executor work seen from the parent.
PROGRAM_LAYER_SPANS = {"shard.run": "executor"}


class Tracer:
    """Holds the recorder, the on/off switch and the installed wrappers."""

    def __init__(self) -> None:
        from repro.obs.trace import TraceRecorder

        self.recorder = TraceRecorder()
        self.enabled = False
        self.parent_pid = os.getpid()
        self._open = threading.local()

    # -- recording -------------------------------------------------------
    def _target_recorder(self):
        if os.getpid() == self.parent_pid:
            return self.recorder
        from repro.core import executor

        state = executor._WORKER_STATE
        return state[5] if state is not None else None

    def span(self, name: str, layer: str):
        """A layer span on whichever recorder this process reports to."""
        recorder = self._target_recorder()
        if recorder is None or not recorder.armed:
            return None
        return recorder.span(name, cat=LAYER_CAT, layer=layer)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            opened = getattr(tracer._open, "names", None)
            if opened is None:
                opened = tracer._open.names = set()
            if name in opened:
                return fn(*args, **kwargs)
            span = tracer.span(name, layer)
            if span is None:
                return fn(*args, **kwargs)
            opened.add(name)
            try:
                with span:
                    return fn(*args, **kwargs)
            finally:
                opened.discard(name)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target and rebind every module-level alias of it.

        Modules that did ``from x import f`` hold their own reference, so
        each loaded ``repro`` module attribute that *is* the original
        function is rebound too.  ``os.fsync`` is wrapped as a span so
        durable writes are both counted and attributed to ``serialize``.
        """
        import importlib

        for layer, name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner: object = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapped = self._wrap(layer, name, original)
            setattr(owner, parts[-1], wrapped)
            if not isinstance(owner, type):
                for alias_module in list(sys.modules.values()):
                    if alias_module is None or alias_module is module:
                        continue
                    if not getattr(alias_module, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(alias_module).items()):
                        if value is original:
                            setattr(alias_module, attr, wrapped)
        os.fsync = self._wrap("serialize", "serialize.fsync", os.fsync)

    def mark(self, name: str, start_ns: int, end_ns: int, layer: str) -> None:
        """Record an interval the benchmark measured itself as a span of ``layer``."""
        self.recorder.ingest([{
            "name": name, "cat": LAYER_CAT, "ph": "X",
            "ts": start_ns // 1000, "dur": (end_ns - start_ns) // 1000,
            "pid": os.getpid(), "tid": threading.get_ident(),
            "args": {"layer": layer},
        }])


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def _union_length(intervals: Iterable[tuple[int, int]]) -> int:
    total = 0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total


def layer_of(event: dict) -> str | None:
    """The layer a span belongs to, or ``None`` for non-layer spans."""
    if event.get("ph") != "X":
        return None
    if event.get("cat") == LAYER_CAT:
        return event.get("args", {}).get("layer")
    return PROGRAM_LAYER_SPANS.get(event.get("name"))


def _interval(event: dict) -> tuple[int, int]:
    return event["ts"], event["ts"] + event["dur"]


def layer_spans(events: Iterable[dict], start_us: int, end_us: int) -> list[dict]:
    """Layer spans that lie inside ``[start_us, end_us]``."""
    return [
        e for e in events
        if layer_of(e) is not None
        and e["ts"] >= start_us and e["ts"] + e["dur"] <= end_us
    ]


def self_times_us(spans: list[dict]) -> list[int]:
    """Each span's duration minus the union of the layer spans inside it.

    Spans of one thread nest, so a stack walk finds each span's parent.
    An executor span also waits on the shards other processes run while
    it is open, so their spans count as its children too.
    """
    order = sorted(
        range(len(spans)),
        key=lambda i: (spans[i]["pid"], spans[i]["tid"], spans[i]["ts"], -spans[i]["dur"], -i),
    )
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    stack: list[int] = []
    for i in order:
        a, b = _interval(spans[i])
        key = (spans[i]["pid"], spans[i]["tid"])
        while stack and (
            (spans[stack[-1]]["pid"], spans[stack[-1]]["tid"]) != key
            or _interval(spans[stack[-1]])[1] < b
        ):
            stack.pop()
        if stack:
            children[stack[-1]].append((a, b))
        stack.append(i)
    for i, span in enumerate(spans):
        if layer_of(span) != "executor":
            continue
        a, b = _interval(span)
        children[i].extend(
            _interval(other) for other in spans
            if other["pid"] != span["pid"]
            and other["ts"] >= a and other["ts"] + other["dur"] <= b
        )
    return [
        span["dur"] - _union_length(children[i]) for i, span in enumerate(spans)
    ]


def covered_share(spans: list[dict], start_us: int, end_us: int) -> float:
    """Share of ``[start_us, end_us]`` covered by at least one span."""
    if end_us <= start_us:
        return 0.0
    clipped = [
        (max(a, start_us), min(b, end_us))
        for a, b in map(_interval, spans)
        if b > start_us and a < end_us
    ]
    return _union_length(clipped) / (end_us - start_us)


def op_layer_stats(events: list[dict], start_us: int, end_us: int) -> dict[str, float]:
    """Per-layer totals of one operation: self seconds and span counts.

    Keys are ``"<span name>.self_s"``, ``"<span name>.wall_s"``,
    ``"<span name>.last_wall_s"`` (the span that started last),
    ``"<span name>.calls"``, ``"analytic.fallback_sites"`` (simulations
    run inside an analytic batch) and ``"covered"``, the share of the
    operation's wall covered by some layer span.
    """
    spans = layer_spans(events, start_us, end_us)
    stats: dict[str, float] = {}
    for span, self_us in sorted(zip(spans, self_times_us(spans)), key=lambda pair: pair[0]["ts"]):
        name = span["name"]
        stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + self_us / 1e6
        stats[f"{name}.wall_s"] = stats.get(f"{name}.wall_s", 0.0) + span["dur"] / 1e6
        stats[f"{name}.last_wall_s"] = span["dur"] / 1e6
        stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
    batches = [s for s in spans if s["name"] == "analytic.batch"]
    stats["analytic.fallback_sites"] = sum(
        any(
            (b["pid"], b["tid"]) == (s["pid"], s["tid"])
            and b["ts"] <= s["ts"] and s["ts"] + s["dur"] <= b["ts"] + b["dur"]
            for b in batches
        )
        for s in spans if s["name"] == "systolic.simulate"
    )
    stats["covered"] = covered_share(spans, start_us, end_us)
    return stats

