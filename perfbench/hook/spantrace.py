"""Span tracing of the repro-leakage layers, installed from outside.

:func:`install` wraps the public functions at each layer boundary (CLI,
experiments, policy analysis, engine, result store, trace reader,
workload generator) so that every call records a span: a name, a
start, an end and the span that was open when it began.  Spans stay in
memory and are written out once, when the traced process finishes.

The kernel stages (frontend, residual, assembly, annotate) are timed by
the program itself; the wrapper around ``execute_job`` copies them from
the result's profile into the job span, so :func:`account` can charge
that part of a job to the ``cache`` and ``prefetch`` layers.

:func:`account` turns the spans of one run, from one or more processes,
into per-layer self time: a span's duration minus the part its children
cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Kernel stage (profile key) -> the span name it is charged to.
KERNEL_STAGES = {
    "frontend": "cache.frontend",
    "residual": "cache.residual",
    "assembly": "cache.assembly",
    "annotate": "prefetch.annotate",
}


class Tracer:
    """Collects spans in memory; one open-span stack per thread."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: ``[id, name, start, end, parent_id, attrs]`` per span.
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        record = [next(self._ids), name, time.perf_counter(), None, parent, None]
        stack.append(record)
        return record

    def end(self, record: list) -> None:
        record[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self.spans.append(record)

    def dump(self, path: str) -> None:
        """Write the spans as JSON (``perf_counter`` seconds)."""
        document = {"pid": self.pid, "spans": self.spans}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[[list, tuple, dict, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``after`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record)
            if after is not None:
                after(record, args, kwargs, result)
            return result

        return traced

    def wrap_iterator(
        self,
        method: Callable,
        name: str,
        first: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """A generator method whose every ``next`` is one span.

        Each span carries ``items`` (the length of the yielded chunk);
        ``first(self)`` adds attributes to the first span of a stream.
        """

        @functools.wraps(method)
        def traced(owner, *args, **kwargs):
            inner = method(owner, *args, **kwargs)
            extra = first(owner) if first is not None else None
            return self._timed(inner, name, extra)

        return traced

    def _timed(self, inner, name: str, extra: Optional[Dict[str, Any]]):
        while True:
            record = self.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                self.end(record)
                return
            except BaseException:
                self.end(record)
                raise
            self.end(record)
            attrs = {"items": len(item)}
            if extra:
                attrs.update(extra)
                extra = None
            record[5] = attrs
            yield item


def _replace_everywhere(owner: Any, attr: str, replacement: Any) -> None:
    """Set ``owner.attr`` and rebind every ``repro`` module alias of it."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function of the already-importable package."""
    import repro.core.savings as savings
    import repro.engine.jobs as jobs
    import repro.engine.parallel as parallel
    import repro.engine.store as store
    import repro.engine.transport as transport
    import repro.engine.validate as validate
    import repro.experiments.reporting as reporting
    import repro.experiments.runner as runner
    import repro.traces.format as trace_format
    import repro.workloads.program as program

    def priced(record, args, kwargs, result):
        intervals = kwargs.get("intervals", args[1] if len(args) > 1 else ())
        record[5] = {"items": len(intervals)}

    def stages(record, args, kwargs, annotated):
        profile = getattr(annotated.result, "profile", None)
        if profile is not None:
            record[5] = {"stages": dict(profile.stage_seconds)}

    def read(record, args, kwargs, value):
        if value is not None:
            record[5] = {"bytes": _file_size(args[0].path_for(args[1]))}

    def written(record, args, kwargs, landed):
        if landed:
            record[5] = {"bytes": _file_size(args[0].path_for(args[1]))}

    _replace_everywhere(
        savings, "evaluate_policy",
        tracer.wrap(savings.evaluate_policy, "core.evaluate_policy", priced),
    )
    _replace_everywhere(
        jobs, "execute_job", tracer.wrap(jobs.execute_job, "engine.job", stages)
    )
    _replace_everywhere(
        validate, "check_result",
        tracer.wrap(validate.check_result, "engine.validate"),
    )
    _replace_everywhere(
        transport, "publish_for_jobs",
        tracer.wrap(transport.publish_for_jobs, "engine.transport_publish"),
    )
    engine_cls = parallel.ExecutionEngine
    engine_cls.run = tracer.wrap(engine_cls.run, "engine.run")
    store_cls = store.ResultStore
    store_cls.get = tracer.wrap(store_cls.get, "engine.store_get", read)
    store_cls.put = tracer.wrap(store_cls.put, "engine.store_put", written)
    result_cls = reporting.ExperimentResult
    result_cls.render = tracer.wrap(result_cls.render, "experiments.render")
    for registry in (runner._STATIC, runner._SUITE):
        for name, fn in list(registry.items()):
            registry[name] = tracer.wrap(fn, f"experiments.{name}")
    workload_cls = program.Workload
    workload_cls.chunks = tracer.wrap_iterator(
        workload_cls.chunks, "workloads.generate"
    )
    recording_cls = trace_format.TraceRecording
    recording_cls.chunks = tracer.wrap_iterator(
        recording_cls.chunks,
        "traces.decode",
        first=lambda recording: {"bytes": _file_size(recording.path)},
    )


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def load(paths: Iterable[str]) -> List[dict]:
    """Spans of several processes as dicts; the first file is the root."""
    spans: List[dict] = []
    for order, path in enumerate(paths):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        pid = document["pid"]
        for ident, name, start, end, parent, attrs in document["spans"]:
            spans.append(
                {
                    "id": (pid, ident),
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None if parent is None else (pid, parent),
                    "attrs": attrs or {},
                    "root_process": order == 0,
                }
            )
    _adopt_worker_roots(spans)
    return spans


def _adopt_worker_roots(spans: List[dict]) -> None:
    """Give each worker-process root span the innermost root-process span
    that was open when it started (``perf_counter`` is system-wide)."""
    home = [s for s in spans if s["root_process"]]
    for span in spans:
        if span["root_process"] or span["parent"] is not None:
            continue
        enclosing = [
            s for s in home if s["start"] <= span["start"] and span["end"] <= s["end"]
        ]
        if enclosing:
            span["parent"] = max(enclosing, key=lambda s: s["start"])["id"]


def _union(intervals: List[tuple]) -> float:
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def account(spans: List[dict]) -> Dict[str, Any]:
    """Per-span-name totals and self time, by name and by layer.

    Returns ``{"total": {name: seconds}, "count": {name: calls},
    "attrs": {name: {attr: sum}}, "self": {name: seconds},
    "layers": {layer: seconds}, "covered": seconds}``.  A span's layer
    is its name up to the first dot.  A kernel stage copied into a job
    span is counted as a child of it, under its own name.
    """
    children: Dict[Any, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    attrs: Dict[str, Dict[str, float]] = {}
    self_time: Dict[str, float] = {}
    for span in spans:
        name = span["name"]
        start, end = span["start"], span["end"]
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        count[name] = count.get(name, 0) + 1
        sums = attrs.setdefault(name, {})
        for key, value in span["attrs"].items():
            if key == "stages":
                continue
            sums[key] = sums.get(key, 0) + value
        clipped = [
            (max(a, start), min(b, end))
            for a, b in children.get(span["id"], ())
            if b > start and a < end
        ]
        covered = _union(clipped)
        for stage, seconds in span["attrs"].get("stages", {}).items():
            stage_name = KERNEL_STAGES.get(stage, f"cache.{stage}")
            total[stage_name] = total.get(stage_name, 0.0) + seconds
            self_time[stage_name] = self_time.get(stage_name, 0.0) + seconds
            covered += seconds
        self_time[name] = self_time.get(name, 0.0) + max(0.0, duration - covered)
    layers: Dict[str, float] = {}
    for name, seconds in self_time.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return {
        "total": total,
        "count": count,
        "attrs": attrs,
        "self": self_time,
        "layers": layers,
        "covered": sum(self_time.values()),
    }
