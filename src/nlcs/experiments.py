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
from typing import List, Optional, Sequence

import numpy as np

from .dictlearn import DictLearnConfig, TrainingSet, learn
from .linops import dct_dictionary, prox_l0_topk
from .measurements import (
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
    _pad_to_frame_grid,
    angular_snr_db,
    frame_signal,
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
    _resolve_step,
    _synth_used,
    batch_projector,
    sparse_code_adaptive,
    sparse_code_fixed,
)

__all__ = [
    "SolveParams",
    "run_synth",
    "run_audio",
    "frame_observations",
    "learn_dictionary",
    "AUDIO_TASKS",
]

logger = logging.getLogger(__name__)

AUDIO_TASKS = ("declip", "dequant", "onebit")


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


def _quant_delta(model) -> float:
    if isinstance(model, UniformQuantizer):
        return model.delta
    if isinstance(model, GeneralQuantizer):
        deltas = np.diff(model.codewords)
        return float(deltas[0])
    raise TypeError(f"not a quantizer model: {model!r}")


def _baseline_observations(observations: Sequence[Observation], task: str
                           ) -> tuple[List[Observation], Optional[np.ndarray]]:
    """Classical linear treatment of a batch of nonlinear observations.

    Returns the substituted observations and, for dequantization, one data
    term level 0.5 * N * delta_t^2 / 12 per observation at which the solver
    should stop (quantization error treated as noise of variance
    delta_t^2 / 12); a batch may mix quantizers of different steps.
    """
    if task == "declip":
        return [Observation(o.values, Mask(o.reliable)) for o in observations], None
    if task == "dequant":
        delta = np.array([_quant_delta(o.model) for o in observations])
        n = observations[0].values.shape[0]
        stop = 0.5 * n * delta * delta / 12.0
    elif task == "onebit":
        stop = None
    else:
        raise ValueError(f"unknown task {task!r}")
    return [Observation(o.values, Identity()) for o in observations], stop


def _solve(d, observations, method, params: SolveParams, *,
           classical_start: bool = False, stop: Optional[np.ndarray] = None) -> np.ndarray:
    """Code a batch of observations with one coder call; (M, T) codes.

    method picks the coder: fixed-lam l1, the l1 homotopy (adaptive) or
    hard thresholding (iht).  The start is zero or, with classical_start,
    one classical gradient step (top-K thresholded for iht), taken with
    the coder's own step 1 / ||D||_2^2.  stop holds one data term level per
    observation: the homotopy's target (params.epsilon when None), else an
    early stop.
    """
    if method not in ("fixed", "adaptive", "iht"):
        raise ValueError(f"unknown method {method!r}")
    step = _resolve_step(d)
    k = params.k if method == "iht" else None
    if classical_start:
        a0 = _classical_init(d, observations, k, step)
    else:
        a0 = np.zeros((d.shape[1], len(observations)))
    reg = L1(params.lam) if k is None else L0(k)
    cfg = SolverConfig(reg, step=step, max_iters=params.iters)
    if method == "adaptive":
        eps = params.epsilon if stop is None else stop
        hcfg = HomotopyConfig(cfg, epsilon=eps, decay=params.decay)
        codes, _ = sparse_code_adaptive(d, observations, a0, hcfg)
    else:
        codes, _ = sparse_code_fixed(d, observations, a0, cfg, stop_consistency=stop)
    return codes


def _estimate(d, codes, observations, top_k: bool) -> np.ndarray:
    """(N, T) final signal estimates: D a re-projected onto the feasibility
    sets, or D a itself for noisy (Identity) and 1-bit observations."""
    z = _synth_used(d, codes) if top_k else d @ codes
    if isinstance(observations[0].model, (Identity, OneBit)):
        return z
    return batch_projector(observations).project(z)


def _synth_estimates(d, observations, method, task, params: SolveParams) -> np.ndarray:
    """Solve a batch of synthetic instances; (N, T) final signal estimates."""
    if method == "baseline":
        observations, stop = _baseline_observations(observations, task)
        codes = _solve(d, observations, "adaptive", params, stop=stop)
    else:
        codes = _solve(d, observations, method, params, classical_start=method == "iht")
    return _estimate(d, codes, observations, method == "iht")


def run_synth(spec: SyntheticSpec, distortion: str, levels: Sequence,
              methods: Sequence[str], params: SolveParams, seed: int):
    """Distortion sweep over a synthetic ensemble.

    Each method makes one batched solve over the observations of every
    level; a row's runtime is the wall time of its method's solve, shared
    by that method's rows.  Returns (rows, per_signal) where rows hold the
    mean SNR per (level, method) and per_signal maps (level, method) to the
    individual SNR values.
    """
    if distortion not in ("clip", "quant"):
        raise ValueError(f"unknown distortion {distortion!r}")
    d, _, signals = gen_synthetic(replace(spec, seed=seed))
    if not levels:
        return [], {}
    tags: List[str] = []
    observations: List[Observation] = []
    for level in levels:
        if distortion == "clip":
            theta = float(level)
            if not theta > 0:
                raise ValueError(f"clip level must be positive, got {theta}")
            model = Clip(theta, -theta)
            tags.append(f"clip:{theta:g}")
        else:
            bits = int(level)
            model = uniform_quantizer_for_bits(bits)
            tags.append(f"quant:{bits}")
        observations += [apply_measurement(model, x) for x in signals.T]
    task = "declip" if distortion == "clip" else "dequant"
    truth = np.tile(signals, len(levels))
    snrs, runtimes = {}, {}
    for method in methods:
        t0 = time.perf_counter()
        estimates = _synth_estimates(d, observations, method, task, params)
        snrs[method] = np.array([snr_db(xhat, x) for xhat, x in zip(estimates.T, truth.T)])
        runtimes[method] = time.perf_counter() - t0
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


def frame_observations(samples: np.ndarray, spec: FrameSpec,
                       model: Optional[MeasurementModel]
                       ) -> tuple[List[Observation], float]:
    """The audio front end: one observation per frame, and the input's peak.

    ``samples`` is scaled to unit peak, padded to the frame grid, measured
    through ``model`` (None: taken as already clipped, with the clip model
    estimated from the signal) and framed.
    """
    x = np.asarray(samples, dtype=float)
    peak = np.max(np.abs(x))
    if peak == 0.0:
        raise ValueError("input signal is identically zero")
    x_pad = _pad_to_frame_grid(x / peak, spec)
    obs = estimate_clip_model(x_pad) if model is None else apply_measurement(model, x_pad)
    y = frame_signal(obs.values, spec)
    if not isinstance(obs.model, Clip):
        return [Observation(y[:, j], obs.model) for j in range(y.shape[1])], peak
    r = frame_signal(obs.reliable, spec)
    p = frame_signal(obs.clip_pos, spec) & ~r
    n = ~(r | p)
    return [Observation(y[:, j], obs.model, reliable=r[:, j], clip_pos=p[:, j],
                        clip_neg=n[:, j]) for j in range(y.shape[1])], peak


def _classical_init(d, observations, k: Optional[int],
                    step: Optional[float] = None) -> np.ndarray:
    """One classical gradient step on the raw observation vectors.

    Used to seed the hard-thresholding coder: the origin is a fixed point of
    the 1-bit data cost, and for quantized data a zero start converges to
    the shrunk consistent point at the inner bin edges.  The step defaults
    to 1 / ||D||_2^2.
    """
    y = np.stack([o.values for o in observations], axis=1)
    a0 = _resolve_step(d, step) * (d.T @ y)
    if k is not None:
        a0 = prox_l0_topk(a0, k)
    return a0


def learn_dictionary(d, observations, params: SolveParams):
    """Learn a dictionary from d with the iht coder; learn's (d, codes, trace).

    The codes start from _classical_init's step, not from zero.  Coding and
    each dictionary update take params.inner_iters steps, params.outer_iters
    times.
    """
    cfg = SolverConfig(L0(params.k), max_iters=params.inner_iters)
    dl = DictLearnConfig(inner_code=cfg, outer_iters=params.outer_iters,
                         inner_dict_iters=params.inner_iters)
    a0 = _classical_init(d, observations, params.k)
    return learn(TrainingSet(observations), d, dl, init_codes=a0)


@dataclass
class AudioResult:
    estimate: np.ndarray          # reconstruction in the unit-peak domain
    method: str
    runtime_s: float
    snr_db: Optional[float] = None
    dictionary: Optional[np.ndarray] = None
    codes: Optional[np.ndarray] = None


def run_audio(task: str, samples: np.ndarray, frame_spec: FrameSpec,
              params: SolveParams, *, theta: Optional[float] = None,
              bits: Optional[int] = None, detect: bool = False,
              method: str = "iht", learn_dict: bool = False,
              dictionary: Optional[np.ndarray] = None,
              reference: Optional[np.ndarray] = None) -> AudioResult:
    """Frame-based recovery of one distorted signal.

    ``samples`` is normalized to unit peak, distorted (or, with detect=True
    for declipping, taken as already distorted), framed, solved per frame,
    and rebuilt by overlap-add.  The returned estimate lives in the input's
    unit-peak domain.  When a reference is given, the summary SNR is
    computed against the reference rescaled by the input's peak (angular
    SNR for 1-bit data).
    """
    if task not in AUDIO_TASKS:
        raise ValueError(f"unknown task {task!r}")
    if learn_dict and method in ("fixed", "adaptive"):
        raise ValueError("dictionary learning is only wired to the iht coder")
    t0 = time.perf_counter()
    if task == "declip" and detect:
        model = None
    elif task == "declip":
        if theta is None:
            raise ValueError("declip needs a clip level theta (or detect=True)")
        model = Clip(theta, -theta)
    elif task == "dequant":
        if bits is None:
            raise ValueError("dequant needs a bit depth")
        model = uniform_quantizer_for_bits(bits)
    else:
        model = OneBit()
    observations, peak = frame_observations(samples, frame_spec, model)
    if dictionary is None:
        dictionary = dct_dictionary(frame_spec.frame_len, 2 * frame_spec.frame_len)
    d = dictionary

    label = method + ("+learn" if learn_dict and method != "baseline" else "")
    if method == "baseline":
        # IHT from zero on the classical substitutes
        observations, stop = _baseline_observations(observations, task)
        codes = _solve(d, observations, "iht", params, stop=stop)
    elif learn_dict and method == "iht":
        d, codes, _ = learn_dictionary(d, observations, params)
    else:
        codes = _solve(d, observations, method, params,
                       classical_start=method == "iht" or task == "onebit")
    out_len = len(samples)
    estimate = overlap_add(_estimate(d, codes, observations, method in ("iht", "baseline")),
                           frame_spec, out_len)
    runtime = time.perf_counter() - t0

    snr = None
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        if ref.shape[0] != out_len:
            raise ValueError("reference length does not match the input")
        # scale the reference like the input so the comparison is meaningful
        # even when the input was clipped before it reached us (detect mode)
        ref = ref / peak
        snr = angular_snr_db(estimate, ref) if task == "onebit" else snr_db(estimate, ref)
    return AudioResult(estimate, label, runtime, snr, d, codes)
