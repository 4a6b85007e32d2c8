"""Consistent sparse coding solvers.

For a dictionary D and an observation y = f(x), sparse codes are found by
proximal gradient descent on

    F(a) = cost(D a, y) + lam * psi(a),

where cost is the distance-to-feasibility data term from
:mod:`nlcs.measurements` and psi is either the l1 norm (soft-threshold prox)
or a hard sparsity constraint ||a||_0 <= K (top-K prox, which recovers
consistent iterative hard thresholding).  One iteration is

    a <- prox(a + mu1 * D^T (proj(D a) - D a)),

with mu1 <= 1 / ||D||_2^2 guaranteeing a non-increasing objective in the
convex case.  An adaptive scheme re-solves with geometrically decreasing
lam, warm-starting each stage, until the data term falls below a target
consistency epsilon.

Signals do not interact once D is fixed, so every coder runs one kernel on
(M, T) code matrices, one column per signal, each column stopping on its
own test.  Top-K codes synthesize D a from the atoms in use; the gradient
stays dense, as the next support needs every atom's correlation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from types import SimpleNamespace
from typing import List, Optional, Sequence, Union

import numpy as np

from .linops import prox_l0_topk, prox_l1, spectral_norm
from .measurements import (
    GeneralLinear,
    IntervalSet,
    Observation,
    _clamp,
    _clamp_bounds,
    cost,
    project_linear,
)

__all__ = [
    "L1",
    "L0",
    "SolverConfig",
    "HomotopyConfig",
    "StageRecord",
    "SolveTrace",
    "DivergenceError",
    "objective",
    "sparse_code_fixed",
    "sparse_code_adaptive",
    "consistency_level",
    "batch_projector",
]


class DivergenceError(RuntimeError):
    """The objective became non-finite (user-supplied step too large)."""


def _level_or_columns(value, name: str, zero_ok: bool):
    """value unchanged if scalar, as a float array if 1-d (one per column);
    every entry must be finite and positive, or >= 0 when zero_ok."""
    v = np.asarray(value, dtype=float)
    if v.ndim > 1 or not np.all(np.isfinite(v) & ((v >= 0) if zero_ok else (v > 0))):
        raise ValueError(f"{name} must be a scalar or 1-d, finite and "
                         f"{'>= 0' if zero_ok else 'positive'}, got {value}")
    return v if v.ndim == 1 else value


@dataclass(frozen=True)
class L1:
    """l1 penalty with weight lam (lam = 0 disables shrinkage).

    For a batch of T signals lam may also hold one weight per column.
    """

    lam: Union[float, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "lam", _level_or_columns(self.lam, "lam", zero_ok=True))


@dataclass(frozen=True)
class L0:
    """Hard sparsity constraint: at most k nonzero coefficients."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


Regularizer = L1 | L0  # not typing.Union: see measurements.MeasurementModel


@dataclass(frozen=True)
class SolverConfig:
    regularizer: Regularizer
    step: Optional[float] = None  # None -> 1 / ||D||_2^2
    max_iters: int = 400
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.step is not None and not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class HomotopyConfig:
    """Settings of the adaptive (homotopy) coder.

    epsilon is the consistency target: one level for every signal, or for
    a batch of T signals a 1-d array with one level per column.
    """

    inner: SolverConfig
    lam0: Optional[float] = None  # None -> ||D^T proj(0)||_inf
    decay: float = 0.5
    epsilon: Union[float, np.ndarray] = 1e-3
    max_stages: int = 60

    def __post_init__(self):
        if not isinstance(self.inner.regularizer, L1):
            raise ValueError("the adaptive scheme varies lam and needs an L1 regularizer")
        if not 0 < self.decay < 1:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")
        object.__setattr__(self, "epsilon",
                           _level_or_columns(self.epsilon, "epsilon", zero_ok=False))
        if self.max_stages < 1:
            raise ValueError("max_stages must be >= 1")


@dataclass
class StageRecord:
    """One homotopy stage.

    In a batched solve lam, consistency and penalty hold one value per
    column, lam being NaN for the columns that were already consistent and
    sat the stage out; iterations is the stage's lockstep count.
    """

    lam: Union[float, np.ndarray]
    consistency: Union[float, np.ndarray]
    penalty: Union[float, np.ndarray]
    iterations: int


@dataclass
class SolveTrace:
    """Verbatim record of a solve: objective values as they occurred.

    In a batched solve the objectives are summed over the signals and
    consistency holds one value per signal; iterations counts lockstep
    iterations and converged is true when every signal converged.
    """

    objectives: np.ndarray
    iterations: int
    converged: bool
    consistency: Union[float, np.ndarray]
    stages: List[StageRecord] = field(default_factory=list)


def _resolve_step(d: np.ndarray, step: Optional[float] = None) -> float:
    """The given step, or 1 / ||D||_2^2 when it is None (1 for D = 0)."""
    if step is not None:
        return step
    s = spectral_norm(d)
    mu = 1.0 / (s * s) if s * s > 0.0 else (np.inf if s > 0.0 else 1.0)
    if not 0.0 < mu < np.inf:
        raise ValueError(f"step 1/||X||^2 is not a finite positive number for ||X|| = {s:g}")
    return mu


def _synth_used(d: np.ndarray, a: np.ndarray) -> np.ndarray:
    """D a from the rows of a holding a nonzero, or dense when they are half the atoms."""
    rows = np.flatnonzero(a.any(axis=1))
    return d @ a if 2 * rows.size >= a.shape[0] else d[:, rows] @ a[rows]


def _penalty(reg: Regularizer, a: np.ndarray):
    """lam * ||a_t||_1 per column of a (0 under the L0 constraint)."""
    if isinstance(reg, L1):
        return reg.lam * np.sum(np.abs(a), axis=0)
    return np.zeros(a.shape[1:])


def objective(d: np.ndarray, alpha: np.ndarray, obs: Observation,
              cfg: SolverConfig) -> float:
    """Penalized objective cost(D a, y) + lam * ||a||_1 (data term only for L0)."""
    return cost(obs, d @ alpha) + float(_penalty(cfg.regularizer, alpha))


def consistency_level(d: np.ndarray, alpha: np.ndarray, obs: Observation) -> float:
    """Data term cost(D a, y) of the current code."""
    return cost(obs, d @ alpha)


def _descend(d: np.ndarray, project_batch, a: np.ndarray, cfg: SolverConfig,
             mu: float, stop_consistency: Union[float, np.ndarray, None] = None):
    """Proximal gradient descent on the columns of the (M, T) code matrix a.

    Each column stops on its own test: a relative objective change of at
    most cfg.rel_tol or, when stop_consistency is given, a data term at or
    below its threshold.  Stopped columns keep their codes while the others
    iterate.  Returns the codes, the total objective before the first and
    after every iteration, the per-column stopped flags and the final data
    terms.

    On small batches the loop is bound by Python overhead, so the
    regulariser is resolved once, reductions call the ufuncs directly and
    the masking of stopped columns is skipped while every column iterates.
    """
    reg = cfg.regularizer
    add, every_of = np.add.reduce, np.logical_and.reduce
    if isinstance(reg, L1):
        lam, threshold, synth = reg.lam, reg.lam * mu, np.matmul

        def prox(g):
            return prox_l1(g, threshold)

        def penalized(data, a):
            return data + lam * add(np.abs(a), axis=0)
    else:
        synth = _synth_used

        def prox(g):
            return prox_l0_topk(g, reg.k)

        def penalized(data, a):  # the constraint carries no penalty
            return data

    z = synth(d, a)
    p = project_batch(z)
    data = 0.5 * add((z - p) ** 2, axis=0)
    f = penalized(data, a)
    totals = [float(add(f))]
    active = np.ones(a.shape[1], dtype=bool)
    if stop_consistency is not None:
        active &= data > stop_consistency
    every = every_of(active)

    for k in range(1, cfg.max_iters + 1):
        if not every and not active.any():
            break
        a_new = prox(a + mu * (d.T @ (p - z)))
        if not every:
            a_new = np.where(active, a_new, a)
        z_new = synth(d, a_new)
        p_new = project_batch(z_new)
        # ** 2 squares the temporary in place; np.square would allocate a
        # second (N, T) array per iteration and add page faults on audio
        data = 0.5 * add((z_new - p_new) ** 2, axis=0)
        f_new = penalized(data, a_new)
        if not every_of(np.isfinite(f_new if every else f_new[active])):
            raise DivergenceError(f"objective diverged at iteration {k}")
        totals.append(float(add(f_new)))
        a, z, p = a_new, z_new, p_new
        active &= np.abs(f - f_new) > cfg.rel_tol * np.maximum(f, 1e-300)
        if stop_consistency is not None:
            active &= data > stop_consistency
        every = every_of(active)
        f = f_new
    return a, np.array(totals), ~active, data


def _as_batch(d: np.ndarray, obs, alpha0):
    """(observations, (M, T) codes, single) from one observation with (M,)
    codes or a sequence of T observations with (M, T) codes."""
    single = isinstance(obs, Observation)
    observations = [obs] if single else list(obs)
    a = np.array(alpha0, dtype=float)
    if single:
        if a.ndim != 1 or a.shape[0] != d.shape[1]:
            raise ValueError("alpha0 length must match the dictionary atom count")
        a = a[:, None]
    elif a.shape != (d.shape[1], len(observations)):
        raise ValueError("alpha0 must have shape (atom_count, observation count)")
    if not np.all(np.isfinite(a)):
        raise ValueError("alpha0 must be finite")
    return observations, a, single


def sparse_code_fixed(d: np.ndarray, obs: Union[Observation, Sequence[Observation]],
                      alpha0: np.ndarray, cfg: SolverConfig,
                      stop_consistency: Union[float, np.ndarray, None] = None
                      ) -> tuple[np.ndarray, SolveTrace]:
    """Proximal gradient descent at a fixed regularization level.

    Codes one observation from an (M,) start, or a sequence of T
    observations from an (M, T) start, one column each.  A column iterates
    until its relative objective change drops below cfg.rel_tol, its data
    term drops to stop_consistency (when given: one level, or one per
    column) or cfg.max_iters is hit.
    """
    observations, a, single = _as_batch(d, obs, alpha0)
    a, totals, stopped, level = _descend(d, batch_projector(observations).project,
                                         a, cfg, _resolve_step(d, cfg.step),
                                         stop_consistency)
    iterations = len(totals) - 1
    if single:
        return a[:, 0], SolveTrace(totals, iterations, bool(stopped[0]), float(level[0]))
    return a, SolveTrace(totals, iterations, bool(stopped.all()), level)


def _auto_lam0(d: np.ndarray, observations: List[Observation], project_batch) -> np.ndarray:
    lam = np.max(np.abs(d.T @ project_batch(np.zeros((d.shape[0], len(observations))))),
                 axis=0)
    if not isinstance(observations[0].model, GeneralLinear):
        # degenerate for one-sided sets (the origin is always feasible for
        # 1-bit data); substitute the raw observation for the projection
        y = np.stack([o.values for o in observations], axis=1)
        lam = np.where(lam == 0.0, np.max(np.abs(d.T @ y), axis=0), lam)
    return np.where(lam > 0.0, lam, 1.0)


def sparse_code_adaptive(d: np.ndarray, obs: Union[Observation, Sequence[Observation]],
                         alpha0: np.ndarray, hcfg: HomotopyConfig
                         ) -> tuple[np.ndarray, SolveTrace]:
    """Warm-started homotopy over decreasing lam until consistency <= epsilon.

    Takes one observation with (M,) codes or a sequence of T observations
    with (M, T) codes; every signal keeps its own lam, and its own epsilon
    when hcfg.epsilon holds one per column.  Each stage makes one
    :func:`sparse_code_fixed` call, to convergence at the current lam, on
    the signals whose consistency is still above epsilon, starting from
    the previous stage's codes.  If max_stages is exhausted before the
    consistency target is met, the last iterate is returned with
    converged=False.
    """
    observations, a, single = _as_batch(d, obs, alpha0)
    project_batch = batch_projector(observations).project
    inner = replace(hcfg.inner, step=_resolve_step(d, hcfg.inner.step))
    t_count = a.shape[1]
    if np.ndim(hcfg.epsilon) == 1 and hcfg.epsilon.shape[0] != t_count:
        raise ValueError(f"epsilon holds {hcfg.epsilon.shape[0]} levels for "
                         f"{t_count} observations")
    if hcfg.lam0 is not None:
        lam = np.full(t_count, float(hcfg.lam0))
    else:
        lam = _auto_lam0(d, observations, project_batch)
    z = d @ a
    level = 0.5 * np.sum((z - project_batch(z)) ** 2, axis=0)
    stages: List[StageRecord] = []
    objectives = [np.empty(0)]
    total_iters = 0
    for _ in range(hcfg.max_stages):
        run = np.flatnonzero(level > hcfg.epsilon)
        if run.size == 0:
            break
        codes, tr = sparse_code_fixed(d, [observations[t] for t in run], a[:, run],
                                      replace(inner, regularizer=L1(lam[run])))
        a[:, run] = codes
        level[run] = tr.consistency
        stage_lam = np.full(t_count, np.nan)
        stage_lam[run] = lam[run]
        stages.append(StageRecord(stage_lam, level.copy(),
                                  np.sum(np.abs(a), axis=0), tr.iterations))
        objectives.append(tr.objectives)
        total_iters += tr.iterations
        lam = lam * hcfg.decay
    converged = bool(np.all(level <= hcfg.epsilon))
    objectives = np.concatenate(objectives)
    if single:
        stages = [StageRecord(float(s.lam[0]), float(s.consistency[0]),
                              float(s.penalty[0]), s.iterations) for s in stages]
        return a[:, 0], SolveTrace(objectives, total_iters, converged,
                                   float(level[0]), stages)
    return a, SolveTrace(objectives, total_iters, converged, level, stages)


# ---------------------------------------------------------------------------
# projection of a batch of observations


def batch_projector(observations: Sequence[Observation]):
    """Build a projector with ``project((N, T)) -> (N, T)`` for a batch."""
    obs = list(observations)
    if not obs:
        raise ValueError("need at least one observation")
    first = obs[0]
    if len({isinstance(o.model, GeneralLinear) for o in obs}) > 1:
        raise ValueError("a batch cannot mix GeneralLinear observations with "
                         "separable (interval) ones")
    if not isinstance(first.model, GeneralLinear):
        intervals = [o.intervals() for o in obs]
        bounds = _clamp_bounds(*(np.stack([getattr(iv, f.name) for iv in intervals], axis=1)
                                 for f in fields(IntervalSet)))
        return SimpleNamespace(project=partial(_clamp, *bounds))
    if all(o.model is first.model for o in obs):
        y = np.stack([o.values for o in obs], axis=1)
        return SimpleNamespace(project=partial(project_linear, first.model, y,
                                               _cache=first._cache))

    def project_columns(z):
        return np.stack([project_linear(o.model, o.values, z[:, t], _cache=o._cache)
                         for t, o in enumerate(obs)], axis=1)

    return SimpleNamespace(project=project_columns)
