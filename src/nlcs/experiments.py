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
    batch_projector,
    sparse_code_adaptive,
    sparse_code_batch,
    sparse_code_fixed,
)

__all__ = [
    "SolveParams",
    "run_synth",
    "run_audio",
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
    rel_tol: float = 1e-8
    outer_iters: int = 50
    inner_iters: int = 20


def _quant_delta(model) -> float:
    if isinstance(model, UniformQuantizer):
        return model.delta
    if isinstance(model, GeneralQuantizer):
        deltas = np.diff(model.codewords)
        return float(deltas[0])
    raise TypeError(f"not a quantizer model: {model!r}")


def _baseline_observation(obs: Observation, task: str) -> tuple[Observation, Optional[float]]:
    """Classical linear treatment of a nonlinear observation.

    Returns the substituted observation and, for dequantization, the data
    term level 0.5 * N * delta^2 / 12 at which the solver should stop
    (quantization error treated as noise of variance delta^2 / 12).
    """
    if task == "declip":
        return Observation(obs.values, Mask(obs.reliable)), None
    if task == "dequant":
        delta = _quant_delta(obs.model)
        n = obs.values.shape[0]
        return Observation(obs.values, Identity()), 0.5 * n * delta * delta / 12.0
    if task == "onebit":
        return Observation(obs.values, Identity()), None
    raise ValueError(f"unknown task {task!r}")


def _solve(d, observations, method, params: SolveParams, a0=None) -> np.ndarray:
    """Code a batch of observations with one coder call; (M, T) codes."""
    if a0 is None:
        a0 = np.zeros((d.shape[1], len(observations)))
    if method == "fixed":
        cfg = SolverConfig(L1(params.lam), max_iters=params.iters, rel_tol=params.rel_tol)
        codes, _ = sparse_code_fixed(d, observations, a0, cfg)
    elif method == "adaptive":
        inner = SolverConfig(L1(params.lam), max_iters=params.iters, rel_tol=params.rel_tol)
        hcfg = HomotopyConfig(inner, epsilon=params.epsilon, decay=params.decay)
        codes, _ = sparse_code_adaptive(d, observations, a0, hcfg)
    elif method == "iht":
        cfg = SolverConfig(L0(params.k), max_iters=params.iters, rel_tol=params.rel_tol)
        codes, _ = sparse_code_fixed(d, observations, a0, cfg)
    else:
        raise ValueError(f"unknown method {method!r}")
    return codes


def _synth_estimates(d, observations, method, task, params: SolveParams) -> np.ndarray:
    """Solve a batch of synthetic instances; (N, T) final signal estimates."""
    if method == "baseline":
        base = [_baseline_observation(o, task) for o in observations]
        base_obs = [b for b, _ in base]
        stop = base[0][1]  # one model and length per batch: one noise floor
        eps = stop if stop is not None else params.epsilon
        z = d @ _solve(d, base_obs, "adaptive", replace(params, epsilon=eps))
        if task == "declip":
            return batch_projector(base_obs).project(z)  # restore reliable samples
        return z
    a0 = _classical_init(d, observations, params.k) if method == "iht" else None
    codes = _solve(d, observations, method, params, a0)
    return batch_projector(observations).project(d @ codes)


def run_synth(spec: SyntheticSpec, distortion: str, levels: Sequence,
              methods: Sequence[str], params: SolveParams, seed: int):
    """Distortion sweep over a synthetic ensemble.

    Returns (rows, per_signal) where rows hold the mean SNR per
    (level, method) and per_signal maps (level, method) to the individual
    SNR values.
    """
    if distortion not in ("clip", "quant"):
        raise ValueError(f"unknown distortion {distortion!r}")
    d, _, signals = gen_synthetic(replace(spec, seed=seed))
    rows: List[EvalRow] = []
    per_signal = {}
    for level in levels:
        if distortion == "clip":
            theta = float(level)
            if not theta > 0:
                raise ValueError(f"clip level must be positive, got {theta}")
            model = Clip(theta, -theta)
            tag = f"clip:{theta:g}"
            task = "declip"
        else:
            bits = int(level)
            model = uniform_quantizer_for_bits(bits)
            tag = f"quant:{bits}"
            task = "dequant"
        observations = [apply_measurement(model, x) for x in signals.T]
        for method in methods:
            t0 = time.perf_counter()
            estimates = _synth_estimates(d, observations, method, task, params)
            snrs = np.array([snr_db(xhat, x) for xhat, x in zip(estimates.T, signals.T)])
            runtime = time.perf_counter() - t0
            rows.append(EvalRow(tag, method, float(np.mean(snrs)), runtime, seed))
            per_signal[(level, method)] = snrs
            logger.info("%s %s: mean SNR %.2f dB (%.2f s)", tag, method,
                        float(np.mean(snrs)), runtime)
    return rows, per_signal


# ---------------------------------------------------------------------------
# audio-scale processing


def _frame_observations(obs_full: Observation, spec: FrameSpec) -> List[Observation]:
    y = frame_signal(obs_full.values, spec)
    model = obs_full.model
    if isinstance(model, Clip):
        r = frame_signal(obs_full.reliable, spec)
        p = frame_signal(obs_full.clip_pos, spec) & ~r
        n = ~(r | p)
        return [Observation(y[:, j], model, reliable=r[:, j], clip_pos=p[:, j],
                            clip_neg=n[:, j]) for j in range(y.shape[1])]
    return [Observation(y[:, j], model) for j in range(y.shape[1])]


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
    x = np.asarray(samples, dtype=float)
    peak = np.max(np.abs(x))
    if peak == 0.0:
        raise ValueError("input signal is identically zero")
    x = x / peak
    out_len = x.shape[0]
    x_pad = _pad_to_frame_grid(x, frame_spec)

    t0 = time.perf_counter()
    if task == "declip":
        if detect:
            obs_full = estimate_clip_model(x_pad)
        else:
            if theta is None:
                raise ValueError("declip needs a clip level theta (or detect=True)")
            obs_full = apply_measurement(Clip(theta, -theta), x_pad)
    elif task == "dequant":
        if bits is None:
            raise ValueError("dequant needs a bit depth")
        obs_full = apply_measurement(uniform_quantizer_for_bits(bits), x_pad)
    else:
        obs_full = apply_measurement(OneBit(), x_pad)

    observations = _frame_observations(obs_full, frame_spec)
    if dictionary is None:
        dictionary = dct_dictionary(frame_spec.frame_len, 2 * frame_spec.frame_len)
    d = dictionary

    label = method + ("+learn" if learn_dict and method != "baseline" else "")
    stop = None
    if method == "baseline":
        solve_obs = []
        for o in observations:
            bo, stop = _baseline_observation(o, task)
            solve_obs.append(bo)
    else:
        solve_obs = observations

    codes = None
    if method in ("iht", "baseline"):
        cfg = SolverConfig(L0(params.k), max_iters=params.iters, rel_tol=params.rel_tol)
        step = None
        if method == "baseline":
            a0 = np.zeros((d.shape[1], len(solve_obs)))
        else:
            step = _resolve_step(d)  # shared by the init and the coder
            a0 = _classical_init(d, solve_obs, params.k, step)
        if learn_dict and method != "baseline":
            dl = DictLearnConfig(inner_code=replace(cfg, max_iters=params.inner_iters),
                                 outer_iters=params.outer_iters,
                                 inner_dict_iters=params.inner_iters)
            d, codes, _ = learn(TrainingSet(solve_obs), d, dl, init_codes=a0)
        else:
            projector = batch_projector(solve_obs)
            thresholds = None if stop is None else np.full(len(solve_obs), stop)
            codes, _ = sparse_code_batch(d, projector, a0, cfg, step=step,
                                         stop_consistency=thresholds)
    elif method in ("fixed", "adaptive"):
        if learn_dict:
            raise ValueError("dictionary learning is only wired to the iht coder")
        a0 = _classical_init(d, solve_obs, None) if task == "onebit" else None
        codes = _solve(d, solve_obs, method, params, a0)
    else:
        raise ValueError(f"unknown method {method!r}")

    z = d @ codes
    if task == "onebit" or (task == "dequant" and method == "baseline"):
        est_frames = z
    else:
        est_frames = batch_projector(solve_obs).project(z)
    estimate = overlap_add(est_frames, frame_spec, out_len)
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
