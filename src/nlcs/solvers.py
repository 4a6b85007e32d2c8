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
(M, T) code matrices, one column per signal and feasibility set: each column
runs its own schedule and epsilon, and leaves the batch when it is done.
Top-K codes synthesize D a from the atoms in use; the gradient stays
dense, as the next support needs every atom's correlation.  Top-K reuses
the last support where it still holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from .linops import prox_l0_topk, prox_l1, spectral_norm
from .measurements import GeneralLinear, Observation, batch_projector, cost

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


class _ValueEq:
    """== and hash by field value, an array field by its shape and bytes."""

    def _key(self):
        return tuple((v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class L1(_ValueEq):
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


@dataclass(frozen=True, eq=False)
class HomotopyConfig(_ValueEq):
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
        if self.lam0 is not None and not 0 <= self.lam0 < np.inf:
            raise ValueError(f"lam0 must be finite and >= 0, got {self.lam0}")
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
    column after the stage, lam being NaN for the columns that were already
    consistent and sat the stage out; iterations is the largest count among
    the columns that ran the stage.
    """

    lam: Union[float, np.ndarray]
    consistency: Union[float, np.ndarray]
    penalty: Union[float, np.ndarray]
    iterations: int


@dataclass
class SolveTrace:
    """Verbatim record of a solve: objective values as they occurred.

    In a batched solve consistency holds one value per signal and the
    objectives are summed over all signals, a finished signal's value
    frozen; iterations counts the iterations of the longest-running signal
    and converged is true when every signal converged.
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


def _descend(d: np.ndarray, projector, a: np.ndarray, cfg: SolverConfig,
             mu: float, stop_consistency: Union[float, np.ndarray, None] = None,
             homotopy: Optional[tuple] = None):
    """Proximal gradient descent on the columns of the (M, T) code matrix a,
    whose storage may hold the result.

    A column's stage ends on its own test (a relative objective change of
    at most cfg.rel_tol or, at a fixed lam, a data term at or below
    stop_consistency) or after cfg.max_iters iterations.  With homotopy =
    (decay, log), a column still above stop_consistency then goes on at
    lam * decay while log has a row left, and log[:, s, t] gets column t's
    lam, data term, l1 norm and iterations after its stage s.  Finished
    columns leave the batch (projector.columns); projector.project must
    return a new array, which becomes the residual in place.  Returns the
    codes, the total objective (finished columns frozen) before the first
    and after every iteration, per-column flags "last stage ended by its
    test" and the final data terms.

    On small batches the loop is bound by Python overhead, so the
    regulariser is resolved once, the schedule is one array, reductions
    call the ufuncs directly and the iteration cap is tested only once some
    column can reach it.
    """
    reg = cfg.regularizer
    add, every_of, any_of = np.add.reduce, np.logical_and.reduce, np.logical_or.reduce
    t_count = a.shape[1]
    lam, stop, stage, begin, cols = sched = np.array(np.broadcast_arrays(
        getattr(reg, "lam", 0.0), -np.inf if stop_consistency is None else stop_consistency,
        0.0, 0.0, np.arange(t_count)), dtype=float)
    decay, log = homotopy or (None, None)
    stop_each_iteration = stop_consistency is not None and log is None
    rows = np.tile(np.arange(getattr(reg, "k", 0))[:, None], t_count)  # top-K's candidate rows
    if isinstance(reg, L1):
        synth = np.matmul

        def prox(g):
            return prox_l1(g, threshold)

        def penalized(data, a):
            return data + lam * add(np.abs(a), axis=0)
    else:
        synth = _synth_used

        def prox(g):
            return prox_l0_topk(g, reg.k, rows)  # rows becomes the rows kept

        def penalized(data, a):  # the constraint carries no penalty
            return data

    z = synth(d, a)
    r = projector.project(z)
    r -= z  # the residual proj(D a) - D a, in the projection's new array
    data = 0.5 * add(r ** 2, axis=0)
    f = penalized(data, a)
    out, final, stopped = a, np.empty(t_count), np.empty(t_count, bool)
    totals, frozen, threshold, cap_at, k = [float(add(f))], 0.0, lam * mu, cfg.max_iters, 0
    test = ended = data <= stop  # a column already at its level never runs
    while True:
        if any_of(ended):
            if log is not None and k:
                e = ended.nonzero()[0]
                l1, (lam_e, stop_e, s, b, c) = add(np.abs(a[:, e]), axis=0), sched[:, e]
                log[:, s.astype(int), c.astype(int)] = lam_e, data[e], l1, k - b
                go = (s + 1 < log.shape[1]) & (data[e] > stop_e)
                go_on = e[go]
                lam[go_on] *= decay
                f[go_on] = data[go_on] + lam[go_on] * l1[go]
                stage[go_on], begin[go_on], ended[go_on] = s[go] + 1, k, False
            if any_of(ended):
                if every_of(ended) and cols.size == t_count:  # never compacted: no copy
                    return a, np.array(totals), test, data
                done = cols[ended].astype(int)
                out[:, done], final[done], stopped[done] = a[:, ended], data[ended], test[ended]
                if done.size == cols.size:
                    return out, np.array(totals), stopped, final
                frozen += float(add(f[ended]))
                keep = (~ended).nonzero()[0]
                a, r, f, data, sched, rows = (x[..., keep] for x in (a, r, f, data, sched, rows))
                lam, stop, stage, begin, cols = sched
                projector = projector.columns(keep)
            threshold, cap_at = lam * mu, np.minimum.reduce(begin) + cfg.max_iters
        k += 1
        g = d.T @ r
        g *= mu
        g += a
        a_new = prox(g)
        z = synth(d, a_new)
        r = projector.project(z)
        r -= z
        data = 0.5 * add(r ** 2, axis=0)
        f_new = penalized(data, a_new)
        total = float(add(f_new))
        if not total < np.inf:  # every term is >= 0: NaN or inf in one reaches the sum
            raise DivergenceError(f"objective diverged at iteration {k}")
        totals.append(frozen + total)
        a = a_new
        test = np.abs(f - f_new) <= cfg.rel_tol * np.maximum(f, 1e-300)
        if stop_each_iteration:
            test |= data <= stop
        ended = test | (k - begin >= cfg.max_iters) if k >= cap_at else test
        f = f_new


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
    a, totals, stopped, level = _descend(d, batch_projector(observations), a, cfg,
                                         _resolve_step(d, cfg.step), stop_consistency)
    return a[:, 0] if single else a, SolveTrace(
        totals, len(totals) - 1, bool(stopped.all()), float(level[0]) if single else level)


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
    when hcfg.epsilon holds one per column.  Each signal solves to
    convergence at its current lam, then, while its consistency is above
    epsilon, goes on at once from those codes at lam * decay; the whole
    schedule is one kernel call.  If max_stages is exhausted before the
    consistency target is met, the last iterate is returned with
    converged=False.
    """
    observations, a, single = _as_batch(d, obs, alpha0)
    projector = batch_projector(observations)
    t_count = a.shape[1]
    if np.ndim(hcfg.epsilon) == 1 and hcfg.epsilon.shape[0] != t_count:
        raise ValueError(f"epsilon holds {hcfg.epsilon.shape[0]} levels for "
                         f"{t_count} observations")
    lam = (_auto_lam0(d, observations, projector.project) if hcfg.lam0 is None
           else np.full(t_count, float(hcfg.lam0)))
    inner = replace(hcfg.inner, regularizer=L1(lam))
    log = np.full((4, hcfg.max_stages, t_count), np.nan)  # lam, level, l1, iterations
    a, objectives, _, level = _descend(d, projector, a, inner, _resolve_step(d, inner.step),
                                       hcfg.epsilon, (hcfg.decay, log))
    ran, l1 = ~np.isnan(log[0]), np.sum(np.abs(a), axis=0)
    view = (lambda x: float(x[0])) if single else (lambda x: x)
    stages = [StageRecord(view(log[0, s]), view(np.where(ran[s], log[1, s], level)),
                          view(np.where(ran[s], log[2, s], l1)), int(np.nanmax(log[3, s])))
              for s in range(np.count_nonzero(ran.any(axis=1)))]
    return a[:, 0] if single else a, SolveTrace(
        objectives, len(objectives) - 1, bool(np.all(level <= hcfg.epsilon)), view(level),
        stages)
