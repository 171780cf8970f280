"""Span recorder for the traced benchmark run.

Every public function of the eight ``wignerlab`` modules is wrapped, and the
wrapper is installed in the defining module and in every module that
imported the function by name (``cli.wdf_from_wavefunction``,
``filtering.wigner_values_of_amplitudes``, ...), so nested library calls
become child spans.  Spans stay in memory and are written out once, when
the traced process ends.

A span's self time is its duration minus the durations of its direct
children.  Its peak is the ``tracemalloc`` peak above the allocation level
at entry.  Allocation tracing runs only inside the outermost call into
``wigner``, ``filtering`` or ``blobs``, so that the CSV writers and readers
are timed without its per-allocation cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
import tracemalloc
from pathlib import Path

MODULES = ("grid", "wigner", "states", "filtering", "evolution", "blobs", "io", "cli")
MEMORY_MODULES = frozenset({"wigner", "filtering", "blobs"})
_IO_PREFIXES = ("io.save_", "io.load_")


class _Open:
    __slots__ = ("span_id", "parent", "name", "start", "child_ns", "memory", "base", "peak", "owns_tracing")

    def __init__(self, span_id: int, parent: int, name: str, memory: bool):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = 0
        self.child_ns = 0
        self.memory = memory
        self.base = 0
        self.peak = 0
        self.owns_tracing = False


def _file_bytes(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.exists() else 0


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.op = -1
        self.enabled = True
        # finished spans: [op, span id, parent id or -1, name, start_ns, dur_ns, self_ns, peak_bytes or -1]
        self.spans: list[list] = []
        # work counts at the layer boundaries; they must repeat exactly for one seed
        self.counts = {"io.write_bytes": 0, "io.read_bytes": 0, "evolution.steps": 0}
        self.write_ns = 0
        self.propagate_ns = 0
        self._stack: list[_Open] = []
        self._next_id = 0
        self._origin = time.perf_counter_ns()

    def wrap(self, module: str, name: str, fn):
        key = f"{module}.{name}"
        memory = module in MEMORY_MODULES
        io_kind = next((p for p in _IO_PREFIXES if key.startswith(p)), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            # bytes are counted once, at the outermost save or load
            outer_io = io_kind is not None and not any(f.name.startswith(io_kind) for f in self._stack)
            frame = self._enter(key, memory)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit(frame)
            if outer_io and io_kind == "io.save_":
                self.counts["io.write_bytes"] += sum(_file_bytes(p) for p in result)
                self.write_ns += dur
            elif outer_io:
                csv_path = Path(args[0] if args else next(iter(kwargs.values())))
                self.counts["io.read_bytes"] += _file_bytes(csv_path) + _file_bytes(csv_path.with_suffix(".json"))
            elif key == "evolution.propagate":
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                self.counts["evolution.steps"] += cfg.n_steps
                self.propagate_ns += dur
            return result

        return traced

    def _memory_parent(self) -> _Open | None:
        for frame in reversed(self._stack):
            if frame.memory:
                return frame
        return None

    def _enter(self, name: str, memory: bool) -> _Open:
        parent = self._stack[-1].span_id if self._stack else -1
        frame = _Open(self._next_id, parent, name, memory)
        self._next_id += 1
        if memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                frame.owns_tracing = True
            else:
                current, peak = tracemalloc.get_traced_memory()
                outer = self._memory_parent()
                if outer is not None:
                    outer.peak = max(outer.peak, peak)
                tracemalloc.reset_peak()
                frame.base = frame.peak = current
        self._stack.append(frame)
        frame.start = time.perf_counter_ns()
        return frame

    def _exit(self, frame: _Open) -> int:
        dur = time.perf_counter_ns() - frame.start
        self._stack.pop()
        peak_bytes = -1
        if frame.memory:
            _, peak = tracemalloc.get_traced_memory()
            frame.peak = max(frame.peak, peak)
            peak_bytes = frame.peak - frame.base
            if frame.owns_tracing:
                tracemalloc.stop()
            else:
                outer = self._memory_parent()
                if outer is not None:
                    outer.peak = max(outer.peak, frame.peak)
                tracemalloc.reset_peak()
        if self._stack:
            self._stack[-1].child_ns += dur
        self.spans.append(
            [self.op, frame.span_id, frame.parent, frame.name, frame.start - self._origin,
             dur, dur - frame.child_ns, peak_bytes]
        )
        return dur

    def record(self, **meta) -> dict:
        return {
            "counts": dict(self.counts),
            "write_ns": self.write_ns,
            "propagate_ns": self.propagate_ns,
            "spans": self.spans,
            **meta,
        }

    def dump(self, path: str | Path, **meta) -> None:
        """Write everything recorded in this process as one JSON document."""
        Path(path).write_text(json.dumps(self.record(**meta)))


def install(tracer: Tracer, package) -> list[tuple]:
    """Wrap the public functions of every module and rebind them everywhere.

    Returns ``(module, attribute, original)`` triples for :func:`uninstall`.
    """
    modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
    wrappers = {}
    for label, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            wrappers[obj] = tracer.wrap(label, attr, obj)
    replaced = []
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                replaced.append((module, attr, obj))
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for module, attr, original in replaced:
        setattr(module, attr, original)


def summarize(records: list[dict]) -> dict[str, float]:
    """Aggregate the records of every traced process of one pass.

    Keys: ``<module>.<function>.{self_ms,calls,peak_mb}`` (times and calls
    summed, peaks the largest), ``<module>.self_ms``, ``io.write_mb``,
    ``io.read_mb``, ``io.write_mb_per_s``, ``evolution.steps``,
    ``evolution.step_ms`` and ``cli.import_ms``, the median import time of
    the processes that timed it.
    """
    out: dict[str, float] = {}
    counts = dict.fromkeys(("io.write_bytes", "io.read_bytes", "evolution.steps"), 0)
    write_ns = propagate_ns = 0
    imports = []
    for record in records:
        for key, value in record["counts"].items():
            counts[key] += value
        write_ns += record["write_ns"]
        propagate_ns += record["propagate_ns"]
        if "import_ms" in record:
            imports.append(record["import_ms"])
        for _op, _sid, _parent, name, _start, _dur, self_ns, peak in record["spans"]:
            module = name.split(".", 1)[0]
            out[f"{name}.self_ms"] = out.get(f"{name}.self_ms", 0.0) + self_ns / 1e6
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{module}.self_ms"] = out.get(f"{module}.self_ms", 0.0) + self_ns / 1e6
            if peak >= 0:
                out[f"{name}.peak_mb"] = max(out.get(f"{name}.peak_mb", 0.0), peak / 1e6)
    out["io.write_mb"] = counts["io.write_bytes"] / 1e6
    out["io.read_mb"] = counts["io.read_bytes"] / 1e6
    out["io.write_mb_per_s"] = out["io.write_mb"] / (write_ns / 1e9) if write_ns else 0.0
    out["evolution.steps"] = counts["evolution.steps"]
    steps = counts["evolution.steps"]
    out["evolution.step_ms"] = propagate_ns / 1e6 / steps if steps else 0.0
    out["cli.import_ms"] = statistics.median(imports) if imports else 0.0
    return out
