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
Top-K codes synthesize D a from the atoms in use, and their gradient is
taken on U, the atoms any column has used in the solve, while each column
keeps a residual bound for the atoms outside U: a column whose support is
still the strict top-K of g on U, above that bound, provably keeps it and
needs no product with the other atoms.  Every other column takes the full
product, and keeps its support without a selection where that is still the
strict top-K of the full g.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from .linops import _topk_keep, prox_l1, spectral_norm
from .measurements import Batch, Observation

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
]


class DivergenceError(RuntimeError):
    """The objective became non-finite (user-supplied step too large)."""


def _level_or_columns(value, name: str, zero_ok: bool):
    """value unchanged if scalar, as a float array if 1-d (one per column);
    every entry must be finite and positive, or >= 0 when zero_ok."""
    v = np.asarray(value, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(v) & ((v >= 0) if zero_ok else (v > 0))))
    if v.ndim > 1 or bad.size:  # one line: the first bad entry, not the array
        got = (f"shape {v.shape}" if v.ndim > 1 else f"{v.flat[bad[0]]}"
               + (f" in column {bad[0]}" if v.ndim else ""))
        raise ValueError(f"{name} must be a scalar or 1-d, finite and "
                         f"{'>= 0' if zero_ok else 'positive'}, got {got}")
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

    inner must hold an L1 regularizer, but its weight is never read: the
    homotopy sets lam itself, from lam0 down by decay.  inner's step,
    max_iters and rel_tol apply to every stage.  epsilon is the
    consistency target: one level for every signal, or for a batch of T
    signals a 1-d array with one level per column.
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


def _evaluate(d: np.ndarray, projector, a: np.ndarray, synth, lam):
    """For (M, T) codes a and D a = synth(d, a): the residual proj(D a) - D a, in
    projector.project's new array, and per column the data term 0.5 ||r_t||^2 and
    the objective data + lam ||a_t||_1 (the data term when lam is None: top-K)."""
    add = np.add.reduce
    z = synth(d, a)
    r = projector.project(z)
    r -= z
    data = 0.5 * add(np.square(r, out=z), axis=0)  # into D a's array, not a new temporary
    return r, data, data if lam is None else data + lam * add(np.abs(a), axis=0)


def _objective_of_one(d: np.ndarray, alpha: np.ndarray, obs: Observation, lam) -> float:
    a = np.asarray(alpha, dtype=float)[:, None]
    return float(_evaluate(d, Batch.of([obs]).projector, a, np.matmul, lam)[2][0])


def objective(d: np.ndarray, alpha: np.ndarray, obs: Observation,
              cfg: SolverConfig) -> float:
    """Penalized objective cost(D a, y) + lam * ||a||_1 (data term only for L0)."""
    return _objective_of_one(d, alpha, obs, getattr(cfg.regularizer, "lam", None))


def consistency_level(d: np.ndarray, alpha: np.ndarray, obs: Observation) -> float:
    """Data term cost(D a, y) of the current code."""
    return _objective_of_one(d, alpha, obs, None)


def _gradient_step(x: np.ndarray, r: np.ndarray, mu: float, a: np.ndarray) -> np.ndarray:
    """The gradient step a + mu X^T r, in the product's new array."""
    g = x.T @ r
    g *= mu
    g += a
    return g


def _strict_top_k(g: np.ndarray, rows: np.ndarray, floor=None) -> np.ndarray:
    """Per column of g, whether its (k, T) rows hold its strict top-K: their
    smallest |g| beats every other |g| in the column, and floor when given
    (one value per column).  NaN fails."""
    mag = np.abs(g)
    cols = np.arange(g.shape[1])
    low = np.minimum.reduce(mag[rows, cols], axis=0)
    mag[rows, cols] = -np.inf
    held = low > np.maximum.reduce(mag, axis=0)
    return held if floor is None else held & (low > floor)


class _TopKScreen:
    """The top-K step a <- top_k(a + mu D^T r) on the (M, T) codes of one
    solve, multiplying only the atoms in use where a bound allows.

    U, the atoms that some column's code has held in the solve (every
    nonzero of a among them), only grows, and D[:, U] is gathered again
    only when it does.  Each column keeps a candidate support S, k distinct
    rows: a warm start's when its code has exactly k nonzeros.  From its
    last full step the column keeps the residual r_ref and m, the largest
    |g_j| over the atoms j outside U (mu |d_j^T r_ref|, as a_j = 0 there),
    when the k values kept there are all nonzero (else it has no bound).
    An iteration computes g on U alone, and column t keeps S with the
    values g_S when

        min_S |g| > max(max_(U - S) |g|, (m + mu ||d||_max ||r - r_ref||) (1 + 1e-9)
                        + mu ||d||_max tol (||r|| + ||r_ref||)),

    tol = 4 N eps covering the rounding of both products: S is then the
    strict top-K of the full g.  NaN or inf fails the test.

    Every other column takes the one full step, _select: the full product,
    then S kept as it is where it is still the strict top-K of g (its unique
    top-K, so bit for bit the selection's), and the selection's rows as the
    new S elsewhere (ties, NaN, zeros, a moved support).  The full step
    serves every column when fewer than half hold, and every step once U
    covers half the atoms (the dense step, as in _synth_used).
    """

    def __init__(self, d: np.ndarray, k: int, mu: float, a: np.ndarray):
        n, m_atoms = d.shape
        t_count = a.shape[1]
        self.d, self.k, self.mu = d, k, mu
        nonzero = a != 0.0
        full = np.add.reduce(nonzero, axis=0) == k  # a warm start's supports
        self.rows = np.tile(np.arange(k)[:, None], t_count)  # S, per column
        self.rows[:, full] = np.nonzero(nonzero[:, full].T)[1].reshape(-1, k).T
        self.used = np.flatnonzero(a.any(axis=1))  # U, in the order atoms joined
        self.dense = 2 * self.used.size >= m_atoms
        self.where = np.full(m_atoms, -1)  # an atom's place in U, -1 outside
        self.where[self.used] = np.arange(self.used.size)
        self.d_used = d[:, self.used]
        self.m, self.ref_norm = np.full(t_count, np.inf), np.zeros(t_count)  # inf: no bound
        self.r_ref = None  # may share the kernel's residual array, which it never writes
        self.reach = mu * float(np.max(np.linalg.norm(d, axis=0)))
        self.tol = 4.0 * n * np.finfo(float).eps

    def columns(self, keep: np.ndarray) -> None:
        """Keep the per-column state of the columns still running."""
        self.rows, self.m, self.ref_norm = self.rows[:, keep], self.m[keep], self.ref_norm[keep]
        if self.r_ref is not None:
            self.r_ref = self.r_ref[:, keep]

    def step(self, a: np.ndarray, r: np.ndarray, data: np.ndarray) -> np.ndarray:
        """The new codes from the codes a, their residual r and data terms, written
        into a and returned: a held column's values on its unchanged S, the rest by _select."""
        if not self.dense:
            held, g_used, at = self._certify(a, r, data)
        if self.dense or 2 * np.count_nonzero(held) < held.size:  # gathering the rest costs more
            return self._select(a, r, data)
        h = np.flatnonzero(held)
        a[self.rows[:, h], h] = g_used[at[:, h], h]  # a's nonzeros are S's already
        del g_used, at  # free them before the full step
        if h.size < held.size:
            self._select(a, r, data, np.flatnonzero(~held))
        return a

    def _certify(self, a, r, data):
        """(columns proved to keep S, g on U, S's rows in g) for the codes a
        and residual r; the last two are None when no column has a bound yet."""
        m = self.m
        if not np.logical_or.reduce(m < np.inf):
            return np.zeros(m.shape, bool), None, None
        at = np.maximum(self.where[self.rows], 0)  # a column without a bound reads any row
        g = _gradient_step(self.d_used, r, self.mu, a[self.used])
        drift = np.subtract(r, self.r_ref)
        drift = np.sqrt(np.add.reduce(np.square(drift, out=drift), axis=0))
        bound = (m + self.reach * drift) * (1.0 + 1e-9)
        bound += self.reach * self.tol * (np.sqrt(2.0 * data) + self.ref_norm)
        return _strict_top_k(g, at, bound), g, at

    def _select(self, a, r, data, redo=None):
        """The full step on the columns redo (None: every column), which
        then refresh S, their bound and their reference residual: their
        codes are zeroed and their new S written into a, which is returned."""
        cols = slice(None) if redo is None else redo  # a slice keeps a, r and S as views
        r_sub = r[:, cols]
        g = _gradient_step(self.d, r_sub, self.mu, a[:, cols])
        rows = self.rows[:, cols]
        moved = np.flatnonzero(~_strict_top_k(g, rows))
        if moved.size:
            keep = _topk_keep(g if moved.size == g.shape[1] else g[:, moved], self.k)
            rows[:, moved] = np.nonzero(keep.T)[1].reshape(-1, self.k).T
            self.rows[:, cols] = rows
        values = g[rows, np.arange(g.shape[1])]
        a[:, cols] = 0.0
        a[rows, np.arange(a.shape[1])[cols]] = values
        kept = values != 0.0
        fresh = np.zeros(self.where.shape, bool)
        fresh[rows[kept]] = True  # the atoms the codes hold
        fresh &= self.where < 0
        if fresh.any():
            self._grow(np.flatnonzero(fresh))
        if self.dense:
            return a
        mag = np.abs(g, out=g)
        mag[self.used] = 0.0  # leaves the atoms outside U
        self.m[cols] = np.where(np.logical_and.reduce(kept, axis=0),
                                np.maximum.reduce(mag, axis=0), np.inf)
        self.ref_norm[cols] = np.sqrt(2.0 * data[cols])
        if redo is None:
            self.r_ref = r  # shared, not copied: the kernel never writes r
        else:
            self.r_ref[:, cols] = r_sub
        return a

    def _grow(self, atoms: np.ndarray) -> None:
        self.where[atoms] = np.arange(self.used.size, self.used.size + atoms.size)
        self.used = np.concatenate((self.used, atoms))
        if 2 * self.used.size >= self.where.size:  # from now on the dense step
            self.dense, self.d_used, self.r_ref = True, None, None
        else:
            self.d_used = np.concatenate((self.d_used, self.d[:, atoms]), axis=1)


def _descend(d: np.ndarray, projector, a: np.ndarray, cfg: SolverConfig,
             mu: float, stop_consistency: Union[float, np.ndarray, None] = None,
             homotopy: Optional[tuple] = None):
    """Proximal gradient descent on the columns of the (M, T) code matrix a,
    whose storage may hold the result: top-K steps write into it.

    A column's stage ends on its own test (a relative objective change of
    at most cfg.rel_tol or, at a fixed lam, a data term at or below
    stop_consistency) or after cfg.max_iters iterations.  With homotopy =
    (decay, log), a column still above stop_consistency then goes on at
    lam * decay while log has a row left, and log[:, s, t] gets column t's
    lam, data term, l1 norm and iterations after its stage s.  Finished
    columns leave the batch (projector.columns).  _evaluate scores the codes
    before the loop and after every step.  Returns the codes, the total
    objective (finished columns frozen) before the first and after every
    iteration, per-column flags "last stage ended by its test" and the
    final data terms.

    Top-K steps go through _TopKScreen.  On small batches the loop is bound
    by Python overhead, so the regulariser (synthesis, step, penalty) is
    resolved once, the schedule is one array, reductions call the ufuncs
    directly and the iteration cap is tested only once some column can
    reach it.
    """
    reg = cfg.regularizer
    add, every_of, any_of = np.add.reduce, np.logical_and.reduce, np.logical_or.reduce
    t_count = a.shape[1]
    lam, stop, stage, begin, cols = sched = np.array(np.broadcast_arrays(
        getattr(reg, "lam", 0.0), -np.inf if stop_consistency is None else stop_consistency,
        0.0, 0.0, np.arange(t_count)), dtype=float)
    decay, log = homotopy or (None, None)
    stop_each_iteration = stop_consistency is not None and log is None
    shrink = isinstance(reg, L1)  # not "l1": the stage-end block binds that name
    synth = np.matmul if shrink else _synth_used
    screen = None if shrink else _TopKScreen(d, reg.k, mu, a)

    r, data, f = _evaluate(d, projector, a, synth, lam if shrink else None)
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
                a, r, f, data, sched = (x[..., keep] for x in (a, r, f, data, sched))
                lam, stop, stage, begin, cols = sched
                projector = projector.columns(keep)
                if screen is not None:
                    a = np.ascontiguousarray(a)  # C-ordered, for D a's product path
                    screen.columns(keep)
            threshold, cap_at = lam * mu, np.minimum.reduce(begin) + cfg.max_iters
        k += 1
        if shrink:
            a_new = prox_l1(_gradient_step(d, r, mu, a), threshold)
        else:
            a_new = screen.step(a, r, data)
        r, data, f_new = _evaluate(d, projector, a_new, synth, lam if shrink else None)
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


def _code_matrix(codes, shape: tuple, name: str = "codes") -> np.ndarray:
    """codes as a float array, checked to have the given shape and to be finite."""
    a = np.asarray(codes, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _check_length(d: np.ndarray, batch: Batch) -> None:
    """Reject a batch whose signals are not as long as the atoms of d."""
    n = batch.model.matrix.shape[1] if batch.values is None else batch.values.shape[0]
    if n != d.shape[0]:
        raise ValueError(f"signals of length {n} do not match the dictionary's {d.shape[0]} rows")


def _as_batch(d: np.ndarray, obs, alpha0):
    """(Batch, (M, T) codes in a new array, single) from one observation with
    (M,) codes, or T observations (a sequence or a Batch) with (M, T) codes."""
    single = isinstance(obs, Observation)
    batch = obs if isinstance(obs, Batch) else Batch.of([obs] if single else obs)
    _check_length(d, batch)
    shape = (d.shape[1],) if single else (d.shape[1], len(batch))
    a = _code_matrix(alpha0, shape, "alpha0").copy()
    return batch, a[:, None] if single else a, single


def sparse_code_fixed(d: np.ndarray, obs: Union[Observation, Sequence[Observation], Batch],
                      alpha0: np.ndarray, cfg: SolverConfig,
                      stop_consistency: Union[float, np.ndarray, None] = None
                      ) -> tuple[np.ndarray, SolveTrace]:
    """Proximal gradient descent at a fixed regularization level.

    Codes one observation from an (M,) start, or T observations (a
    sequence or a Batch) from an (M, T) start, one column each.  A column iterates
    until its relative objective change drops below cfg.rel_tol, its data
    term drops to stop_consistency (when given: one level, or one per
    column) or cfg.max_iters is hit.
    """
    batch, a, single = _as_batch(d, obs, alpha0)
    del alpha0  # a is the solve's own copy: the start codes exist once
    a, totals, stopped, level = _descend(d, batch.projector, a, cfg,
                                         _resolve_step(d, cfg.step), stop_consistency)
    return a[:, 0] if single else a, SolveTrace(
        totals, len(totals) - 1, bool(stopped.all()), float(level[0]) if single else level)


def _auto_lam0(d: np.ndarray, batch: Batch) -> np.ndarray:
    lam = np.max(np.abs(d.T @ batch.projector.project(np.zeros((d.shape[0], len(batch))))),
                 axis=0)
    if batch.values is not None:
        # degenerate for one-sided sets (the origin is always feasible for
        # 1-bit data); substitute the raw observation for the projection
        lam = np.where(lam == 0.0, np.max(np.abs(d.T @ batch.values), axis=0), lam)
    return np.where(lam > 0.0, lam, 1.0)


def sparse_code_adaptive(d: np.ndarray, obs: Union[Observation, Sequence[Observation], Batch],
                         alpha0: np.ndarray, hcfg: HomotopyConfig
                         ) -> tuple[np.ndarray, SolveTrace]:
    """Warm-started homotopy over decreasing lam until consistency <= epsilon.

    Takes one observation with (M,) codes or T observations (a sequence or
    a Batch) with (M, T) codes; every signal keeps its own lam, and its own epsilon
    when hcfg.epsilon holds one per column.  Each signal solves to
    convergence at its current lam, then, while its consistency is above
    epsilon, goes on at once from those codes at lam * decay; the whole
    schedule is one kernel call.  If max_stages is exhausted before the
    consistency target is met, the last iterate is returned with
    converged=False.
    """
    batch, a, single = _as_batch(d, obs, alpha0)
    del alpha0  # a is the solve's own copy: the start codes exist once
    t_count = a.shape[1]
    if np.ndim(hcfg.epsilon) == 1 and hcfg.epsilon.shape[0] != t_count:
        raise ValueError(f"epsilon holds {hcfg.epsilon.shape[0]} levels for "
                         f"{t_count} observations")
    lam = (_auto_lam0(d, batch) if hcfg.lam0 is None
           else np.full(t_count, float(hcfg.lam0)))
    inner = replace(hcfg.inner, regularizer=L1(lam))
    log = np.full((4, hcfg.max_stages, t_count), np.nan)  # lam, level, l1, iterations
    a, objectives, _, level = _descend(d, batch.projector, a, inner, _resolve_step(d, inner.step),
                                       hcfg.epsilon, (hcfg.decay, log))
    ran, l1 = ~np.isnan(log[0]), np.sum(np.abs(a), axis=0)
    view = (lambda x: float(x[0])) if single else (lambda x: x)
    stages = [StageRecord(view(log[0, s]), view(np.where(ran[s], log[1, s], level)),
                          view(np.where(ran[s], log[2, s], l1)), int(np.nanmax(log[3, s])))
              for s in range(np.count_nonzero(ran.any(axis=1)))]
    return a[:, 0] if single else a, SolveTrace(
        objectives, len(objectives) - 1, bool(np.all(level <= hcfg.epsilon)), view(level),
        stages)
