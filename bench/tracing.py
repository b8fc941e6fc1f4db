"""Span tracing around the package's public functions, from outside the package.

``Tracer.install`` replaces every public function of every loaded
``sagnacsim`` module, in every module namespace that holds it (so the names
``campaign``, ``sagnac``, ``analysis`` and ``cli`` import from their
siblings are covered too), plus ``PhaseSchedule.__call__``, with a wrapper
that records a span.  ``uninstall`` puts the originals back.  Callers must
look functions up through their module at call time, never hold them.

Each span is (id, parent id, name, start, end, operation id).  Per span name
the tracer keeps the call count, the inclusive time and the self time (span
time minus the time of the child spans inside it).  Raw spans are kept in
memory up to ``SPAN_LIMIT`` and written out as JSONL by ``write_jsonl``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

PACKAGE = "sagnacsim"
SPAN_LIMIT = 20_000  # raw spans kept for the JSONL trace; later ones are only counted


def _path_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _sidecar(path) -> str:
    return os.path.splitext(str(path))[0] + ".json"


def _written(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    meta = kwargs.get("metadata", args[2] if len(args) > 2 else None)
    extra = _path_bytes(_sidecar(path)) if meta is not None else 0
    return "sagnac.bytes_written", _path_bytes(path) + extra


def _read(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return "sagnac.bytes_read", _path_bytes(path) + _path_bytes(_sidecar(path))


def _svg(args, kwargs, result):
    return "plotting.svg_bytes", len(result.encode())


def _campaign_files(args, kwargs, result):
    spec = kwargs.get("spec", args[0] if args else None)
    return "campaign.files_written", len(os.listdir(spec.out_dir))


def _steps(args, kwargs, result):
    return "analysis.kinematic_steps", kwargs.get("steps", args[2] if len(args) > 2 else 0)


# Work counted at a span's end: span name -> fn(args, kwargs, result) -> (counter, amount).
COUNTERS = {
    "sagnac.write_scan": _written,
    "sagnac.read_scan": _read,
    "plotting.render_campaign_svg": _svg,
    "campaign.run_campaign": _campaign_files,
    "analysis.kinematic_phase": _steps,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list[float]] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self.op = None  # operation id stamped on every span
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Forget the aggregates (raw spans are kept)."""
        self.stats = {}
        self.counters = {}

    def _wrap(self, name: str, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                span = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += span
                stat = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += span
                stat[2] += span - frame[1]
                if len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((frame[0], parent, name, start, end, tracer.op))
                else:
                    tracer.dropped += 1
            if count is not None:
                counter, amount = count(args, kwargs, result)
                tracer.counters[counter] = tracer.counters.get(counter, 0) + amount
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith(PACKAGE + ".")):
                    continue
                if value not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value)
                setattr(module, attr, wrappers[value])
                self._undo.append((module, attr, value))
        schedule_cls = sys.modules[PACKAGE + ".schedule"].PhaseSchedule
        call = schedule_cls.__call__
        schedule_cls.__call__ = self._wrap("schedule.PhaseSchedule.__call__", call)
        self._undo.append((schedule_cls, "__call__", call))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
