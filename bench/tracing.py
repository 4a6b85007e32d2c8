"""Spans around calls into nlcs's public functions, recorded from outside.

The traced run replaces each target function, in every ``nlcs`` module
namespace where it is looked up, with a wrapper that records one span
(name, start, end, parent) per call.  Spans live in flat arrays while the
run is going and are written out once, when it ends.  Nothing under
``src/`` is touched: the wrappers are installed on the imported modules and
removed again afterwards.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# A hook sees (args, kwargs, result) of a finished call and returns extra
# counters for the span's name plus the solve's converged flag (or None).
Hook = Callable[[tuple, dict, object], Tuple[Dict[str, int], Optional[bool]]]


def _fixed_hook(args, kwargs, result):
    trace = result[1]
    return {"iters": trace.iterations}, bool(trace.converged)


def _adaptive_hook(args, kwargs, result):
    trace = result[1]
    return {"stages": len(trace.stages)}, bool(trace.converged)


def _batch_hook(args, kwargs, result):
    # sparse_code_batch(d, projector, a0, cfg, ...) returns (codes, totals)
    # with one total before the first iteration and one after each.
    iters = len(result[1]) - 1
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    return {"iters": iters}, iters < cfg.max_iters


# (module, function, span name, hook).  ``batch_projector`` gets no span of
# its own: the ``project`` method of the object it returns is traced instead.
TARGETS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("linops", "prox_l1", "linops.prox_l1", None),
    ("linops", "prox_l0_topk", "linops.prox_l0_topk", None),
    ("linops", "spectral_norm", "linops.spectral_norm", None),
    ("measurements", "project", "measurements.project", None),
    ("measurements", "feasibility_intervals", "measurements.feasibility_intervals", None),
    ("measurements", "apply_measurement", "measurements.apply_measurement", None),
    ("solvers", "sparse_code_fixed", "solvers.sparse_code_fixed", _fixed_hook),
    ("solvers", "sparse_code_adaptive", "solvers.sparse_code_adaptive", _adaptive_hook),
    ("solvers", "sparse_code_batch", "solvers.sparse_code_batch", _batch_hook),
    ("solvers", "batch_projector", "solvers.batch_project", None),
    ("dictlearn", "learn", "dictlearn.learn", None),
    ("dictlearn", "dict_update", "dictlearn.dict_update", None),
    ("pipeline", "frame_signal", "pipeline.frame_signal", None),
    ("pipeline", "overlap_add", "pipeline.overlap_add", None),
    ("pipeline", "wav_read", "pipeline.wav_read", None),
    ("pipeline", "wav_write", "pipeline.wav_write", None),
    ("pipeline", "gen_synthetic", "pipeline.gen_synthetic", None),
    ("experiments", "run_synth", "experiments.run_synth", None),
    ("experiments", "run_audio", "experiments.run_audio", None),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)
SOLVER_SPANS = ("solvers.sparse_code_fixed", "solvers.sparse_code_adaptive",
                "solvers.sparse_code_batch")


class Tracer:
    """In-memory span store.  Single-threaded: the CLI runs in this thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.converged: Dict[int, bool] = {}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                extra, converged = hook(args, kwargs, result)
                for key, value in extra.items():
                    self.counters[f"{name}.{key}"] += value
                if converged is not None:
                    self.converged[idx] = converged
            return result

        return traced

    def spans(self) -> List[Tuple[str, float, float, int]]:
        """All spans as (name, start, end, parent index or -1)."""
        return [(self.names[n], s, e, p)
                for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)]

    def summary(self, spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, float]:
        """Calls, self seconds and counters per span name, plus the share of
        outermost solves that converged.  ``spans`` is :meth:`spans`."""
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for name, *_ in spans:
            out[f"{name}.calls"] += 1
        for name, secs in self_time(spans).items():
            out[f"{name}.self_s"] = secs
        out.update(self.counters)
        outer = [ok for idx, ok in self.converged.items()
                 if not _has_solver_ancestor(spans, idx)]
        out["solvers.converged_frac"] = sum(outer) / len(outer) if outer else 0.0
        return out

def _has_solver_ancestor(spans, idx: int) -> bool:
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] in SOLVER_SPANS:
            return True
        p = spans[p][3]
    return False


def write_spans(path, spans: Iterable[Tuple[str, float, float, int]]) -> None:
    """Write spans as tab-separated lines: name, start, end, parent index."""
    with open(path, "w") as fh:
        fh.write("name\tstart\tend\tparent\n")
        for name, s, e, p in spans:
            fh.write(f"{name}\t{s!r}\t{e!r}\t{p}\n")


def self_time(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, float]:
    """Self seconds per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; children are clipped to the parent and their
    overlaps counted once.  Spans must be listed in order of start time, as
    the tracer records them.
    """
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)  # end of the covered prefix per parent
    for _, start, end, parent in spans:
        if parent < 0:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        s = max(start, p_start, reach[parent])
        e = min(end, p_end)
        if e > s:
            covered[parent] += e - s
        reach[parent] = max(reach[parent], e)
    totals: Dict[str, float] = {}
    for (name, start, end, _), cover in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - cover
    return totals


def install(tracer: Tracer) -> Tuple[List[tuple], List[str]]:
    """Wrap every target in every ``nlcs`` module that looks it up.

    Returns the undo list for :func:`uninstall` and the span names whose
    function the package no longer defines (those report zero calls).
    """
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "nlcs" or k.startswith("nlcs."))]
    undo: List[tuple] = []
    missing: List[str] = []
    for module_name, func_name, span_name, hook in TARGETS:
        home = sys.modules.get(f"nlcs.{module_name}")
        fn = getattr(home, func_name, None)
        if fn is None:
            missing.append(span_name)
            continue
        if func_name == "batch_projector":
            wrapped = _wrap_projector_factory(tracer, span_name, fn)
        else:
            wrapped = tracer.wrap(span_name, fn, hook)
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, fn))
    return undo, missing


def uninstall(undo: Iterable[tuple]) -> None:
    for mod, attr, fn in undo:
        setattr(mod, attr, fn)


def _wrap_projector_factory(tracer: Tracer, span_name: str, factory: Callable) -> Callable:
    def traced_factory(*args, **kwargs):
        projector = factory(*args, **kwargs)
        projector.project = tracer.wrap(span_name, projector.project)
        return projector

    return traced_factory
