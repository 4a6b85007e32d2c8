"""End-to-end recovery experiments on synthetic ensembles and audio signals.

Conventions for the final estimate: consistent methods re-project the
synthesized signal D a onto the observation's feasibility set (restoring
exactly observed samples and clamping distorted ones), the classical
inpainting baseline restores its reliable samples, and the noisy-signal and
1-bit pipelines return D a unchanged since no sample is exactly observed.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .dictlearn import DictLearnConfig, learn
from .linops import dct_dictionary, prox_l0_topk
from .measurements import (
    Batch,
    Clip,
    GeneralQuantizer,
    Identity,
    Mask,
    MeasurementModel,
    Observation,
    OneBit,
    UniformQuantizer,
    apply_measurement,
    estimate_clip_model,
)
from .pipeline import (
    EvalRow,
    FrameSpec,
    SyntheticSpec,
    _frames,
    _pad_to_frame_grid,
    angular_snr_db,
    gen_synthetic,
    overlap_add,
    snr_db,
    uniform_quantizer_for_bits,
)
from .solvers import (
    L0,
    L1,
    HomotopyConfig,
    SolverConfig,
    _level_or_columns,
    _resolve_step,
    _synth_used,
    sparse_code_adaptive,
    sparse_code_fixed,
)

__all__ = [
    "SolveParams",
    "distortion",
    "run_synth",
    "run_audio",
    "measure_audio",
    "frame_batch",
    "learn_dictionary",
    "AUDIO_TASKS",
]

logger = logging.getLogger(__name__)

AUDIO_TASKS = {"declip": "clip", "dequant": "quant", "onebit": "onebit"}  # task -> kind
METHODS = ("fixed", "adaptive", "iht", "baseline")
BLOCK_FRAMES = 256  # audio frames coded at once: peak memory follows the block, not the input


@dataclass(frozen=True)
class SolveParams:
    """Solver knobs shared by the experiment drivers."""

    lam: float = 1e-2
    epsilon: float = 1e-3
    decay: float = 0.5
    iters: int = 400
    k: int = 32
    outer_iters: int = 50
    inner_iters: int = 20

    def __post_init__(self):  # here, before a batch broadcasts them to its columns
        _level_or_columns(self.lam, "lam", zero_ok=True)
        _level_or_columns(self.epsilon, "epsilon", zero_ok=False)


def distortion(kind: str, level=None) -> tuple[Optional[MeasurementModel], str]:
    """The measurement model of a distortion kind at a level, and its CSV row tag.

    clip: the symmetric clip at theta = level > 0, or for level None a clip
    detected from the input (model None, tag clip:detected); quant: the
    uniform quantizer of level bits; onebit (signs) and none (Identity)
    ignore the level.
    """
    if kind == "clip":
        if level is None:
            return None, "clip:detected"
        theta = float(level)
        if not theta > 0:
            raise ValueError(f"clip level must be positive, got {theta}")
        return Clip(theta, -theta), f"clip:{theta:g}"
    if kind == "quant":
        if level is None:
            raise ValueError("a quant distortion needs a bit depth")
        return uniform_quantizer_for_bits(int(level)), f"quant:{int(level)}"
    if kind not in ("onebit", "none"):
        raise ValueError(f"unknown distortion {kind!r}")
    return (OneBit(), "onebit") if kind == "onebit" else (Identity(), "none")


def _baseline_observations(observations: Sequence[Observation], n: Optional[int] = None
                           ) -> tuple[List[Observation], Optional[np.ndarray]]:
    """The classical linear substitutes of a batch of observations, chosen
    by their model, and the data term levels at which their solve stops.

    Clipped samples are dropped (inpainting: a Mask of the reliable ones);
    quantized and 1-bit values are taken as noisy values (Identity).  A
    quantized observation of step delta_t stops at 0.5 * n * delta_t^2 / 12
    (its error taken as noise of variance delta_t^2 / 12, over the n samples
    of a coded signal: by default an observation's own); a batch may mix
    quantizer steps.  The others have no stop (None).
    """
    model = observations[0].model
    if isinstance(model, Clip):
        return [Observation(o.values, Mask(o.reliable)) for o in observations], None
    if isinstance(model, (UniformQuantizer, GeneralQuantizer)):
        delta = np.array([o.model.delta if isinstance(o.model, UniformQuantizer)
                          else o.model.codewords[1] - o.model.codewords[0] for o in observations])
        n = observations[0].values.shape[0] if n is None else n
        stop = 0.5 * n * delta * delta / 12.0
    elif isinstance(model, OneBit):
        stop = None
    else:
        raise ValueError(f"no classical baseline for {type(model).__name__} observations")
    return [Observation(o.values, Identity()) for o in observations], stop


def _solve(d, batch: Batch, method, params: SolveParams, *, step: Optional[float] = None,
           classical_start: bool = False, stop: Optional[np.ndarray] = None) -> np.ndarray:
    """Code a batch of observations with one coder call; (M, T) codes.

    method picks the coder: fixed-lam l1, the l1 homotopy (adaptive) or
    hard thresholding (iht).  The start is zero or, with classical_start,
    one classical gradient step (top-K thresholded for iht), taken with
    the coder's own step, 1 / ||D||_2^2 when None.  stop holds one data
    term level per observation: the homotopy's target (params.epsilon when
    None), else an early stop.
    """
    step = _resolve_step(d, step)
    k = params.k if method == "iht" else None
    # popped into the coder, which copies it: the start codes exist once in the solve
    start = [_classical_init(d, batch, k, step) if classical_start
             else np.zeros((d.shape[1], len(batch)))]
    reg = L1(params.lam) if k is None else L0(k)
    cfg = SolverConfig(reg, step=step, max_iters=params.iters)
    if method == "adaptive":
        eps = params.epsilon if stop is None else stop
        hcfg = HomotopyConfig(cfg, epsilon=eps, decay=params.decay)
        return sparse_code_adaptive(d, batch, start.pop(), hcfg)[0]
    return sparse_code_fixed(d, batch, start.pop(), cfg, stop_consistency=stop)[0]


def _estimate(d, codes, batch: Batch) -> np.ndarray:
    """(N, T) final signal estimates: D a re-projected onto the feasibility
    sets, or D a itself for noisy (Identity) and 1-bit observations."""
    z = _synth_used(d, codes)
    if isinstance(batch.model, (Identity, OneBit)):
        return z
    return batch.projector.project(z)


def _synth_estimates(d, observations, methods, params: SolveParams) -> List[np.ndarray]:
    """(N, T) final estimates of a batch, one per method: fixed or iht alone, or adaptive
    and baseline in one homotopy call, their observations in the order of methods."""
    if methods[0] in ("fixed", "iht"):
        batch = Batch.of(observations)
        codes = _solve(d, batch, methods[0], params, classical_start=methods[0] == "iht")
        return [_estimate(d, codes, batch)]
    t, eps = len(observations), np.full(len(observations), params.epsilon)
    sets = [(observations, eps) if m == "adaptive" else _baseline_observations(observations)
            for m in methods]
    codes = _solve(d, Batch.of([o for obs, _ in sets for o in obs]), "adaptive", params,
                   stop=np.concatenate([eps if stop is None else stop for _, stop in sets]))
    return [_estimate(d, codes[:, i * t:(i + 1) * t], Batch.of(obs))
            for i, (obs, _) in enumerate(sets)]


def check_methods(methods: Sequence[str], learn: bool = False,
                  task: Optional[str] = None) -> None:
    """Reject an unknown method, a repeated one or an empty list, and the l1
    coders fixed and adaptive with learn (dictionary learning) or for the
    onebit task."""
    for i, method in enumerate(methods or [""]):
        if method not in METHODS or method in methods[:i]:
            raise ValueError(f"method {method!r} is listed twice" if method in METHODS else
                             f"unknown method {method!r} (choose from {','.join(METHODS)})")
    l1 = [m for m in methods if m in ("fixed", "adaptive")]
    if learn and l1:
        raise ValueError("dictionary learning is only wired to the iht coder")
    if task == "onebit" and l1:
        # the origin is in every 1-bit feasible set, so a = 0 is the unique minimiser
        raise ValueError(f"method {l1[0]!r} does not apply to onebit: l1 codes collapse to "
                         "zero on sign data (F(0) = 0 < lam ||a||_1 <= F(a) for a != 0)")


def run_synth(spec: SyntheticSpec, kind: str, levels: Sequence,
              methods: Sequence[str], params: SolveParams, seed: int):
    """Distortion sweep over a synthetic ensemble.

    Each solve is batched over the observations of every level: one for
    fixed, one for iht, and one that adaptive and baseline share.  A row's
    runtime is the wall time of the solve its method ran in.  Returns
    (rows, per_signal) where rows hold the mean SNR per (level, method) and
    per_signal maps (level, method) to the individual SNR values.
    """
    if kind not in ("clip", "quant"):
        raise ValueError(f"unknown distortion {kind!r}")
    check_methods(methods)
    d, _, signals = gen_synthetic(replace(spec, seed=seed))
    if not levels:
        return [], {}
    models, tags = zip(*(distortion(kind, level) for level in levels))
    observations = [apply_measurement(model, x) for model in models for x in signals.T]
    truth = np.tile(signals, len(levels))
    snrs, runtimes = {}, {}
    joint = [m for m in methods if m in ("adaptive", "baseline")]
    for group in [[m] for m in methods if m not in joint] + ([joint] if joint else []):
        t0 = time.perf_counter()
        for method, est in zip(group, _synth_estimates(d, observations, group, params)):
            snrs[method] = np.array([snr_db(xhat, x) for xhat, x in zip(est.T, truth.T)])
        runtimes.update(dict.fromkeys(group, time.perf_counter() - t0))
    rows: List[EvalRow] = []
    per_signal = {}
    count = signals.shape[1]
    for i, (level, tag) in enumerate(zip(levels, tags)):
        for method in methods:
            level_snrs = snrs[method][i * count:(i + 1) * count]
            rows.append(EvalRow(tag, method, float(np.mean(level_snrs)), runtimes[method], seed))
            per_signal[(level, method)] = level_snrs
            logger.info("%s %s: mean SNR %.2f dB (%.2f s)", tag, method,
                        float(np.mean(level_snrs)), runtimes[method])
    return rows, per_signal


# ---------------------------------------------------------------------------
# audio-scale processing


def measure_audio(samples: np.ndarray, spec: FrameSpec, model: Optional[MeasurementModel]
                  ) -> tuple[Observation, float]:
    """The audio front end: the input measured once on the frame grid, and its peak.

    ``samples`` is scaled to unit peak, padded to the frame grid and
    measured through ``model`` (None: taken as already clipped, with the
    clip model estimated from the signal).
    """
    x = np.asarray(samples, dtype=float)
    peak = np.max(np.abs(x))
    if peak == 0.0:
        raise ValueError("input signal is identically zero")
    x_pad = _pad_to_frame_grid(x / peak, spec)
    return (estimate_clip_model(x_pad) if model is None else apply_measurement(model, x_pad)), peak


def frame_batch(obs: Observation, spec: FrameSpec, cols: slice = slice(None)) -> Batch:
    """The frames cols of a measured signal on the frame grid as a batch:
    copies of its values and of its per-sample bounds, taken once per obs."""
    iv = obs.intervals()
    return Batch.box(obs.model,
                     *(_frames(x, spec, cols) for x in (obs.values, iv.lower, iv.upper)))


def _classical_init(d, batch: Batch, k: Optional[int],
                    step: Optional[float] = None) -> np.ndarray:
    """One classical gradient step on the raw observation vectors.

    Used to seed the hard-thresholding coder: the origin is a fixed point of
    the 1-bit data cost, and for quantized data a zero start converges to
    the shrunk consistent point at the inner bin edges.  The step defaults
    to 1 / ||D||_2^2.
    """
    a0 = _resolve_step(d, step) * (d.T @ batch.values)
    if k is not None:
        a0 = prox_l0_topk(a0, k)
    return a0


def learn_dictionary(d, batch: Batch, params: SolveParams):
    """Learn a dictionary from d with the iht coder; learn's (d, codes, trace).

    The codes start from _classical_init's step, not from zero.  Coding and
    each dictionary update take params.inner_iters steps, params.outer_iters
    times.
    """
    cfg = SolverConfig(L0(params.k), max_iters=params.inner_iters)
    dl = DictLearnConfig(inner_code=cfg, outer_iters=params.outer_iters,
                         inner_dict_iters=params.inner_iters)
    return learn(batch, d, dl, init_codes=_classical_init(d, batch, params.k))


def _estimates(d, obs: Observation, spec: FrameSpec, method: str,
               params: SolveParams) -> Iterator[np.ndarray]:
    """A method's (N, b) estimates of the frames of obs in blocks of
    BLOCK_FRAMES, in frame order, every block with one step 1 / ||D||_2^2;
    a block's batch and codes are dropped once its estimate has been
    consumed, so one block is alive at a time."""
    step, stop = _resolve_step(d), None
    if method == "baseline":  # IHT from zero on the classical substitutes
        [obs], stop = _baseline_observations([obs], spec.frame_len)
    count = (obs.values.shape[0] - spec.frame_len) // spec.hop + 1  # obs ends on the frame grid
    for start in range(0, count, BLOCK_FRAMES):
        batch = frame_batch(obs, spec, slice(start, start + BLOCK_FRAMES))
        codes = _solve(d, batch, "iht" if method == "baseline" else method, params,
                       step=step, classical_start=method == "iht", stop=stop)
        yield _estimate(d, codes, batch)
        del batch, codes  # dead before the next block is framed and solved


def _learned_estimates(d, obs: Observation, spec: FrameSpec, params: SolveParams) -> np.ndarray:
    """The (N, count) estimates of every frame of obs, coded on a dictionary
    learned from them (D couples the frames); its batch and codes die here."""
    batch = frame_batch(obs, spec)
    d, codes, _ = learn_dictionary(d, batch, params)
    return _estimate(d, codes, batch)


@dataclass
class AudioResult:
    estimate: np.ndarray          # reconstruction in the unit-peak domain
    distortion: str               # the CSV row tag, as from distortion()
    method: str
    runtime_s: float
    snr_db: Optional[float] = None


def run_audio(task: str, samples: np.ndarray, frame_spec: FrameSpec,
              params: SolveParams, methods: Sequence[str] = ("iht",), *,
              level=None, learn_dict: bool = False,
              dictionary: Optional[np.ndarray] = None,
              reference: Optional[np.ndarray] = None) -> List[AudioResult]:
    """Frame-based recovery of one distorted signal; one result per method.

    ``samples`` is normalized to unit peak and distorted at ``level`` (see
    distortion(); for declip, None takes the input as already clipped)
    once for every method.  A method codes the frames in blocks of
    BLOCK_FRAMES, each framed from the per-sample bounds and overlap-added
    into the result before the next, so memory follows the block, not the
    input; dictionary learning codes every frame as one block, since D
    couples them.  A result's runtime covers this shared set-up plus its
    own method's recovery, and its estimate lives in the input's unit-peak
    domain.  When a reference is given, the summary SNR is computed against
    the reference rescaled by the input's peak (angular SNR for a OneBit
    model).
    """
    if task not in AUDIO_TASKS:
        raise ValueError(f"unknown task {task!r}")
    check_methods(methods, learn_dict, task)
    t0 = time.perf_counter()
    model, tag = distortion(AUDIO_TASKS[task], level)
    obs, peak = measure_audio(samples, frame_spec, model)
    if dictionary is None:
        dictionary = dct_dictionary(frame_spec.frame_len, 2 * frame_spec.frame_len)
    if reference is not None:
        if np.shape(reference)[0] != len(samples):
            raise ValueError("reference length does not match the input")
        # scale the reference like the input so the comparison is meaningful
        # even when the input was clipped before it reached us (detect mode)
        reference = np.asarray(reference, dtype=float) / peak
    setup = time.perf_counter() - t0

    results = []
    for method in methods:
        t0 = time.perf_counter()
        learned = learn_dict and method != "baseline"  # the iht coder, as check_methods allows
        # no local keeps the estimates: they die before the next method runs
        estimate = overlap_add(
            _learned_estimates(dictionary, obs, frame_spec, params) if learned
            else _estimates(dictionary, obs, frame_spec, method, params),
            frame_spec, len(samples))
        runtime = setup + time.perf_counter() - t0
        snr = None if reference is None else (
            angular_snr_db if isinstance(obs.model, OneBit) else snr_db)(estimate, reference)
        label = method + ("+learn" if learned else "")
        results.append(AudioResult(estimate, tag, label, runtime, snr))
    return results
