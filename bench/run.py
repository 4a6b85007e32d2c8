"""nlcs benchmark: run one workload through the CLI, in this process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` next to this directory and driven
through ``nlcs.cli.main([...])``.  After set-up, whole passes over the
workload's CLI calls repeat until the time is used up; every pass's outputs
are checked.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` the first half of the time
runs untraced and the second half traced, and the JSON holds the per-layer
metrics.  Human-readable lines, including an environment record, come
before it.  See NOTES.md for what each metric should move.
"""

from __future__ import annotations

import os

# Fixed before numpy loads.  One thread keeps runs steady on a shared
# machine; it is at most nproc on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import tracing
from workloads import WORKLOADS, Call, Workload, read_rows

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPS = 3  # per round: one round before the passes, one after each untraced pass
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

# (name, unit) of the end-to-end metrics; the order is the print order.
END_TO_END = (
    ("run_s", "s"),
    ("solves_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("snr_med_db", "dB"),
    ("snr_worst_db", "dB"),
    ("ok_frac", "ratio"),
)


def per_layer_metrics() -> Tuple[Tuple[str, str], ...]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for name in tracing.SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [("solvers.sparse_code_fixed.iters", "count"),
            ("solvers.sparse_code_adaptive.stages", "count"),
            ("solvers.sparse_code_batch.iters", "count"),
            ("solvers.converged_frac", "ratio"),
            ("trace_overhead_frac", "ratio")]
    return tuple(out)


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest of PERCENTILES that has at least ten samples above it,
    as (percentile, nearest-rank value); None when even the median has
    fewer than ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(round(p * n / 100.0, 6)))  # 99.9 % of 10000 is 9990
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def describe_times(label: str, samples: Sequence[float]) -> str:
    text = f"{label}: n={len(samples)} median={statistics.median(samples):.6g} s"
    if len(samples) <= 10:
        text += " [" + " ".join(f"{t:.4g}" for t in samples) + "]"
    tail = tail_percentile(samples)
    if tail is None:
        return text + " (no percentile has ten samples above it)"
    return text + f" p{tail[0]:g}={tail[1]:.6g} s"


def environment() -> Dict[str, object]:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


class Checker:
    """Counts output rows and the ones that fail.

    A row fails when its call raises or returns non-zero, when its SNR is
    missing or non-finite, when at the reference seed it falls more than the
    tolerance below the committed reference SNR (a gain never fails), or
    when its call's CSV (runtime column aside) or output WAV differs from
    the first pass's.
    """

    def __init__(self, reference: Optional[Dict[str, float]], tolerance_db: float):
        self.reference = reference or {}
        self.tolerance_db = tolerance_db
        self.attempted = 0
        self.failures: List[Tuple[str, str]] = []
        self.snrs: Dict[str, float] = {}
        self._first: Dict[int, Tuple[str, bytes]] = {}

    def check(self, index: int, call: Call, status: object) -> None:
        self.attempted += len(call.rows)
        if status != 0:
            reason = (f"raised {type(status).__name__}" if isinstance(status, BaseException)
                      else f"returned {status}")
            self.failures += [(key, reason) for key in call.rows]
            return
        try:
            snrs, text = read_rows(call.csv)
            wav = call.wav.read_bytes() if call.wav else b""
        except (OSError, ValueError) as exc:
            self.failures += [(key, f"unreadable output: {exc}") for key in call.rows]
            return
        same = self._first.setdefault(index, (text, wav)) == (text, wav)
        for key in call.rows:
            snr = snrs.get(key)
            ref = self.reference.get(key)
            if snr is None:
                self.failures.append((key, "row missing"))
            elif not math.isfinite(snr):
                self.failures.append((key, f"non-finite SNR {snr}"))
            elif ref is not None and snr < ref - self.tolerance_db:
                self.failures.append((key, f"SNR {snr} below reference {ref}"))
            elif not same:
                self.failures.append((key, "rerun output differs"))
            self.snrs.setdefault(key, snr)


def fresh_import():
    """Import nlcs and its CLI from scratch (drop any earlier import)."""
    for name in [m for m in sys.modules if m == "nlcs" or m.startswith("nlcs.")]:
        del sys.modules[name]
    importlib.import_module("nlcs.cli")
    return sys.modules["nlcs"]


def setup(workload: Workload, seed: int, work: Path, tiny: bool,
          times: List[float]) -> List[Call]:
    """Import nlcs afresh and build the inputs, SETUP_REPS times; append the
    time each took to ``times`` and return the workload's calls."""
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        nlcs = fresh_import()
        calls = workload.build(seed, work, nlcs, tiny)
        times.append(time.perf_counter() - t0)
    if Path(nlcs.__file__).resolve().parent != SRC / "nlcs":
        raise RuntimeError(f"nlcs was imported from {nlcs.__file__}, not from {SRC}")
    return calls


def run_pass(calls: Sequence[Call], checker: Checker) -> float:
    """Run every call once through ``nlcs.cli.main``; return the wall time.

    The program's stderr is captured, not echoed; it is shown only for a
    call that fails.
    """
    cli = sys.modules["nlcs.cli"]
    outcomes = []
    t0 = time.perf_counter()
    for call in calls:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                status = cli.main(list(call.argv))
            except (Exception, SystemExit) as exc:  # a failing row, not a failing run
                traceback.print_exc(file=err)
                status = exc
        outcomes.append((status, err.getvalue()))
    elapsed = time.perf_counter() - t0
    for index, (call, (status, stderr)) in enumerate(zip(calls, outcomes)):
        before = len(checker.failures)
        checker.check(index, call, status)
        if len(checker.failures) > before:
            print(f"call {' '.join(call.argv)} failed; its stderr ends with:\n"
                  + "\n".join(stderr.splitlines()[-5:]), file=sys.stderr)
    return elapsed


def run_passes(calls, checker, deadline: float, min_passes: int,
               after_pass=None) -> List[float]:
    """Whole passes until the next one would end after the deadline;
    ``after_pass`` runs, untimed, after each."""
    times: List[float] = []
    while len(times) < min_passes or time.perf_counter() + times[-1] <= deadline:
        times.append(run_pass(calls, checker))
        if after_pass is not None:
            after_pass()
    return times


def load_reference(workload: str, seed: int, tiny: bool):
    """The committed row SNRs that apply to this run (None at other seeds
    or sizes) and the tolerance below them."""
    ref = json.loads(REFERENCE.read_text())
    rows = ref["snr_db"].get(workload) if seed == ref["seed"] and not tiny else None
    return rows, float(ref["tolerance_db"])


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tiny: bool, work: Path, checker: Checker):
    setup_times: List[float] = []
    calls = setup(workload, seed, work, tiny, setup_times)
    # One untimed pass on tiny inputs first, so that lazy set-up inside
    # numpy and the allocator does not land in the first timed pass.
    warm_dir = work / "warm-up"
    warm_dir.mkdir()
    warm = Checker(None, 0.0)
    run_pass(workload.build(seed, warm_dir, sys.modules["nlcs"], True), warm)
    checker.attempted += warm.attempted
    checker.failures += [(f"warm-up {key}", why) for key, why in warm.failures]
    start = time.perf_counter()
    # Set-up rounds between the passes sample the host's speed over the
    # whole run, as the passes do, instead of only at its start.
    untraced = run_passes(calls, checker, start + seconds * (0.5 if trace else 1.0),
                          min_passes=1 if trace else 2,
                          after_pass=lambda: setup(workload, seed, work, tiny, setup_times))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(describe_times("untraced passes", untraced))
    run_s = statistics.median(untraced)
    solves = sum(c.solves for c in calls)
    # Baseline rows are checked but not summarized: the classical baselines
    # can sit near 0 dB, where a bound relative to the median means nothing.
    snrs = [s for key, s in checker.snrs.items()
            if not key.endswith("/baseline") and s is not None and math.isfinite(s)]
    metrics = {
        "run_s": run_s,
        "solves_per_s": solves / run_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        # 0 only when every row failed, which already makes the run incorrect
        "snr_med_db": statistics.median(snrs) if snrs else 0.0,
        "snr_worst_db": min(snrs) if snrs else 0.0,
    }
    if trace:
        tracer = tracing.Tracer()
        undo, missing = tracing.install(tracer)
        try:
            traced = run_passes(calls, checker, start + seconds, min_passes=1)
        finally:
            tracing.uninstall(undo)
        print(describe_times("traced passes", traced))
        for name in missing:
            print(f"note: nlcs no longer defines the target of {name}; it reports 0")
        spans = tracer.spans()
        summary = tracer.summary(spans)
        report_layers(spans, summary, sum(traced))
        tracing.write_spans(RUN_DIR / f"spans-{workload.name}.tsv", spans)
        layer = {k: (v if k == "solvers.converged_frac" else v / len(traced))
                 for k, v in summary.items()}
        layer["trace_overhead_frac"] = statistics.median(traced) / run_s
        metrics = {name: layer.get(name, 0) for name, _ in per_layer_metrics()}
    if not trace:
        metrics["ok_frac"] = 1.0 - len(checker.failures) / checker.attempted
    return metrics, solves


def report_layers(spans, summary: Dict[str, float], traced_s: float) -> None:
    """Print each layer's calls, self time and share of the traced time."""
    durations: Dict[str, List[float]] = {}
    for name, s, e, _ in spans:
        durations.setdefault(name, []).append(e - s)
    for name in tracing.SPAN_NAMES:
        if name not in durations:
            continue
        self_s = summary[f"{name}.self_s"]
        print(f"layer {name}: calls={summary[f'{name}.calls']} self={self_s:.6g} s "
              f"({100.0 * self_s / traced_s:.1f} %); "
              + describe_times("per call", durations[name]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes; skips the reference check")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's row SNRs as the workload's reference")
    args = parser.parse_args(argv)

    if not (SRC / "nlcs" / "__init__.py").is_file():
        print(f"error: no nlcs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {workload.why}")
    print("env " + json.dumps(environment()))

    work = RUN_DIR / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    reference, tolerance_db = load_reference(workload.name, args.seed, args.tiny)
    checker = Checker(None if args.write_reference else reference, tolerance_db)
    try:
        metrics, solves = measure(workload, args.seed, args.seconds, bool(args.trace),
                                  args.tiny, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.write_reference:
        ref = json.loads(REFERENCE.read_text())
        if args.seed != ref["seed"] or args.tiny or checker.failures:
            print("error: a reference comes from a clean full-size run at the "
                  f"reference seed {ref['seed']}", file=sys.stderr)
            return 2
        ref["snr_db"][workload.name] = checker.snrs
        REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")

    units = dict(END_TO_END + per_layer_metrics())
    for key, reason in checker.failures:
        print(f"failed row {key}: {reason}")
    failed = len(checker.failures)
    print(f"fail_frac {failed / checker.attempted:.6g} ratio "
          f"({failed} of {checker.attempted} rows; {solves} solves per pass)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
