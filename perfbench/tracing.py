"""Spans recorded from outside the package, around calls into its modules.

The benchmark never edits `streamsir`.  While a traced operation runs,
`Tracer.installed()` replaces module attributes with timing wrappers and
restores them afterwards.  Each patch point is the module attribute that a
caller looks up at call time: `stream_step` calls `append` through
`streamsir.engine.append`, the command line calls `run_stream` through
`streamsir.cli.run_stream`, and so on.  A wrapper therefore sees every call
made through that name, and the nesting of wrappers gives each span its
parent.

Spans live in flat arrays (name id, parent index, start, end) and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The span name's prefix is the layer that
# owns the time: the streamsir module the called function belongs to.
PATCHES = (
    ("streamsir.simulate", "draw", "simulate.draw"),
    ("streamsir.studies", "draw", "simulate.draw"),
    ("streamsir.sir", "batch_moments", "moments.batch"),
    ("streamsir.engine", "recursive_step", "sir.step"),
    ("streamsir.engine", "append", "linkreg.append"),
    ("streamsir.engine", "evaluate", "linkreg.evaluate"),
    ("streamsir.studies", "evaluate", "linkreg.evaluate"),
    ("streamsir.engine", "init_stream", "engine.init"),
    ("streamsir.crossval", "init_stream", "engine.init"),
    ("streamsir.studies", "init_stream", "engine.init"),
    ("streamsir.engine", "stream_step", "engine.step"),
    ("streamsir.crossval", "stream_step", "engine.step"),
    ("streamsir.studies", "stream_step", "engine.step"),
    ("streamsir.engine", "predict_next", "engine.predict"),
    ("streamsir.crossval", "predict_next", "engine.predict"),
    ("streamsir.cli", "run_stream", "engine.run_stream"),
    ("streamsir.cli", "select_alpha", "crossval.select_alpha"),
    # cv_score is a thin shell over _replay, which select_alpha calls once
    # per candidate exponent.
    ("streamsir.crossval", "_replay", "crossval.candidate"),
    ("streamsir.cli", "rate_study", "studies.rate_study"),
    # One Monte Carlo replication: draw, stream, checkpoint evaluations.
    ("streamsir.studies", "_checkpoint_rows", "studies.rep"),
    ("streamsir.io", "read_sample_csv", "io.read_sample"),
    ("streamsir.io", "write_json", "io.write_json"),
    ("streamsir.io", "write_projection_log_csv", "io.write_csv"),
    ("streamsir.io", "write_grid_csv", "io.write_csv"),
    ("streamsir.io", "write_moment_state", "io.write_state"),
    ("streamsir.studies", "write_records_csv", "io.write_csv"),
    ("streamsir.studies", "write_json", "io.write_json"),
)

_EVALUATE = "linkreg.evaluate"


class Tracer:
    """In-memory span store plus the operation windows that group spans."""

    def __init__(self) -> None:
        self.span_names: list[str] = sorted({name for _, _, name in PATCHES})
        self._ids = {name: i for i, name in enumerate(self.span_names)}
        self.names = array("H")
        self.parents = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        # One entry per evaluate call: (span index, log, log length, x,
        # raised NoSupportError).  The log is append-only, so its first
        # `length` entries are exactly what the call scanned.
        self.evaluations: list[tuple[int, object, int, float, bool]] = []
        # (first span index, end span index, start, end) per traced operation.
        self.ops: list[tuple[int, int, float, float]] = []

    def _wrap(self, fn, name: str):
        nid = self._ids[name]
        names, parents, t0s, t1s, stack = self.names, self.parents, self.t0, self.t1, self._stack
        clock = time.perf_counter

        if name == _EVALUATE:
            evaluations = self.evaluations

            def wrapper(log, x, *args, **kwargs):
                i = len(t0s)
                names.append(nid)
                parents.append(stack[-1])
                t1s.append(0.0)
                stack.append(i)
                missed = True
                t0s.append(clock())
                try:
                    out = fn(log, x, *args, **kwargs)
                    missed = False
                    return out
                finally:
                    t1s[i] = clock()
                    stack.pop()
                    evaluations.append((i, log, len(log), float(x), missed))

            return wrapper

        def wrapper(*args, **kwargs):
            i = len(t0s)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(i)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def operation(self):
        """Mark one traced operation: its spans and its wall-clock window."""
        first = len(self.t0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.ops.append((first, len(self.t0), start, end))

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with self time (duration minus child spans)."""
        names = np.frombuffer(self.names, dtype=np.uint16).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        dur = t1 - t0
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return {"name": names, "parent": parents, "t0": t0, "t1": t1, "dur": dur, "self": dur - child}

    def save(self, path: Path) -> None:
        spans = self.arrays()
        ops = np.array(self.ops, dtype=np.float64).reshape(-1, 4)
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            name=spans["name"],
            parent=spans["parent"],
            t0=spans["t0"],
            t1=spans["t1"],
            ops=ops,
        )
