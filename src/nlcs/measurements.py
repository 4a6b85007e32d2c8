"""Measurement maps, feasibility sets, projections, and the
distance-to-feasibility data cost.

Every supported measurement map f comes with the convex set of clean signals
that are consistent with an observation y = f(x).  For the separable maps
(identity, masking, clipping, quantization, 1-bit) that set is a per-sample
interval box [lower, upper], with -inf or +inf on an open side, so
projecting onto it is an element-wise clamp; for a general linear map it is
an affine subspace.  Batch.of stacks the sets of T observations to project
(N, T) signals, one per column.  The data cost is half the squared
Euclidean distance to the set,

    cost(y, x) = 0.5 * ||x - proj(x)||_2^2,

which is convex and differentiable with gradient x - proj(x) and a gradient
Lipschitz constant of 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Identity",
    "Mask",
    "Clip",
    "UniformQuantizer",
    "GeneralQuantizer",
    "OneBit",
    "GeneralLinear",
    "MeasurementModel",
    "IntervalSet",
    "Observation",
    "Batch",
    "apply_measurement",
    "feasibility_intervals",
    "project",
    "project_linear",
    "cost",
    "gradient",
    "estimate_clip_model",
    "SingularModelError",
    "DegenerateObservationError",
]

# relative tolerance used to match observed values against clip thresholds
# and quantizer codewords; wide enough to survive 16-bit PCM round trips
VALUE_MATCH_RTOL = 1e-9

# condition-number ceiling above which a general linear model is rejected
MAX_GRAM_CONDITION = 1e12


class SingularModelError(ValueError):
    """Sensing matrix is (numerically) rank deficient."""


class DegenerateObservationError(ValueError):
    """Observation carries no usable structure (e.g. constant clip input)."""


def _as_float_vector(x, name="x"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


# ---------------------------------------------------------------------------
# measurement models


@dataclass(frozen=True)
class Identity:
    """Clean (or additive-noise) measurements, y = x."""


@dataclass(frozen=True, eq=False)
class Mask:
    """Diagonal binary reliability pattern; unreliable samples are dropped."""

    reliable: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.reliable, dtype=bool)
        object.__setattr__(self, "reliable", r)


@dataclass(frozen=True)
class Clip:
    """Hard clipping at thresholds theta_pos > theta_neg."""

    theta_pos: float
    theta_neg: float

    def __post_init__(self):
        if not (np.isfinite(self.theta_pos) and np.isfinite(self.theta_neg)):
            raise ValueError("clip thresholds must be finite")
        if not self.theta_pos > self.theta_neg:
            raise ValueError(
                f"theta_pos ({self.theta_pos}) must exceed theta_neg ({self.theta_neg})"
            )


@dataclass(frozen=True)
class UniformQuantizer:
    """Mid-riser uniform quantizer: f(x) = delta * floor(x / delta) + delta / 2."""

    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True, eq=False)
class GeneralQuantizer:
    """Quantizer given by bin edges and one codeword per bin.

    Bin b is the half-open interval [edges[b], edges[b+1]) mapping to
    codewords[b]; the first and last edge may be -inf / +inf.  Edges must be
    strictly increasing, so the bins are disjoint and cover the declared
    input range by construction.
    """

    edges: np.ndarray
    codewords: np.ndarray
    # ascending codewords and their original indices, for the bin lookup
    _sorted: np.ndarray = field(init=False, repr=False)
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        c = np.asarray(self.codewords, dtype=float)
        if e.ndim != 1 or c.ndim != 1 or e.shape[0] != c.shape[0] + 1:
            raise ValueError("need len(edges) == len(codewords) + 1")
        if not np.all(np.diff(e) > 0):
            raise ValueError("edges must be strictly increasing")
        if not np.all(np.isfinite(c)):
            raise ValueError("codewords must be finite")
        if np.unique(c).shape[0] != c.shape[0]:
            raise ValueError("codewords must be distinct")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "codewords", c)
        order = np.argsort(c)
        object.__setattr__(self, "_sorted", c[order])
        object.__setattr__(self, "_order", order)


@dataclass(frozen=True)
class OneBit:
    """Sign-only measurements, y = sign(x) with sign(0) = +1."""


@dataclass(frozen=True, eq=False)
class GeneralLinear:
    """General linear map y = M x with a full-row-rank sensing matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("sensing matrix must be a nonempty 2-d array")
        if not np.all(np.isfinite(m)):
            raise ValueError("sensing matrix must be finite")
        object.__setattr__(self, "matrix", m)

    @cached_property
    def gram(self) -> np.ndarray:
        """M M^T, its condition checked once per model."""
        gram = self.matrix @ self.matrix.T
        if np.linalg.cond(gram) > MAX_GRAM_CONDITION:
            raise SingularModelError("sensing matrix is numerically rank deficient")
        return gram


# The | form builds a fresh union object; typing.Union would keep it, and
# with it this module, in typing's cache across re-imports of the package.
MeasurementModel = (
    Identity | Mask | Clip | UniformQuantizer | GeneralQuantizer | OneBit | GeneralLinear
)


# ---------------------------------------------------------------------------
# feasibility sets


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Per-sample feasibility intervals [lower_i, upper_i].

    The arrays have shape (N,) for one signal, or (N, T) for T signals
    held column-wise.  An unbounded side holds -inf (lower) or +inf
    (upper), so projecting is a plain clamp against the two arrays.
    lower_i == upper_i encodes an exactly observed sample.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.shape != up.shape or lo.ndim not in (1, 2):
            raise ValueError("interval arrays must share one 1-d or 2-d shape")
        if not (np.all(lo < np.inf) and np.all(up > -np.inf)):  # also rejects NaN
            raise ValueError("need lower < +inf and upper > -inf")
        if np.any(lo > up):
            raise ValueError("need lower <= upper")
        for name, arr in (("lower", lo), ("upper", up)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def equality(cls, values) -> "IntervalSet":
        v = _as_float_vector(values, "values")
        return cls(v, v)

    def __len__(self) -> int:
        return self.lower.shape[0]

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all((x >= self.lower - tol) & (x <= self.upper + tol)))


def _clamp(lo, up, x) -> np.ndarray:
    """max(x, lo), then min with up.  Not np.clip: with scalar bounds it
    keeps -0.0 against a +0.0 lower bound, where np.maximum gives +0.0."""
    out = np.maximum(x, lo)
    return np.minimum(out, up, out=out)


def project(intervals: IntervalSet, x) -> np.ndarray:
    """Orthogonal projection onto the interval box: element-wise clamp.

    x has the shape of the intervals, (N,) or (N, T).
    """
    return _clamp(intervals.lower, intervals.upper, np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# observations


@dataclass(frozen=True, eq=False)
class Observation:
    """A measured signal together with the model that produced it.

    For Clip models the three diagonal masks (reliable, positively clipped,
    negatively clipped) must be supplied and partition the samples exactly.
    """

    values: np.ndarray
    model: MeasurementModel
    reliable: Optional[np.ndarray] = None
    clip_pos: Optional[np.ndarray] = None
    clip_neg: Optional[np.ndarray] = None

    def __post_init__(self):
        y = _as_float_vector(self.values, "values")
        y.setflags(write=False)
        object.__setattr__(self, "values", y)
        m = self.model
        if isinstance(m, Clip):
            self._init_clip(y, m)
        elif self.reliable is not None or self.clip_pos is not None or self.clip_neg is not None:
            raise ValueError("clip masks are only meaningful for Clip models")
        if isinstance(m, Mask) and m.reliable.shape != y.shape:
            raise ValueError("mask length must match the observation")
        if isinstance(m, OneBit) and not np.all(np.abs(y) == 1.0):
            raise ValueError("1-bit observations must take values in {-1, +1}")
        if isinstance(m, UniformQuantizer):
            # legal codewords sit at (q + 1/2) * delta for integer q
            q = y / m.delta - 0.5
            if not np.allclose(q, np.round(q), atol=1e-6):
                raise ValueError("observation values are not quantizer codewords")
        if isinstance(m, GeneralLinear) and y.shape[0] != m.matrix.shape[0]:
            raise ValueError("observation length must match the sensing matrix rows")

    def _init_clip(self, y, m):
        masks = []
        for name in ("reliable", "clip_pos", "clip_neg"):
            arr = getattr(self, name)
            if arr is None:
                raise ValueError("Clip observations need reliable/clip_pos/clip_neg masks")
            arr = np.asarray(arr, dtype=bool)
            if arr.shape != y.shape:
                raise ValueError(f"{name} mask length must match the observation")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            masks.append(arr)
        r, p, n = masks
        if np.any(r.astype(int) + p.astype(int) + n.astype(int) != 1):
            raise ValueError("clip masks must partition the samples exactly")
        if not np.all(_at(y[p], m.theta_pos)):
            raise ValueError("positively clipped samples must sit at theta_pos")
        if not np.all(_at(y[n], m.theta_neg)):
            raise ValueError("negatively clipped samples must sit at theta_neg")

    @cached_property
    def _intervals(self) -> IntervalSet:
        return feasibility_intervals(self)

    def intervals(self) -> IntervalSet:
        """Feasibility intervals for this observation (computed once)."""
        return self._intervals


def _at(y, theta: float) -> np.ndarray:
    """Which samples of y sit at theta, to VALUE_MATCH_RTOL * max(1, |theta|)."""
    return np.abs(y - theta) <= VALUE_MATCH_RTOL * max(1.0, abs(theta))


def apply_measurement(model: MeasurementModel, x) -> Observation:
    """Forward-distort a clean signal through a measurement model.

    For Clip models the three masks are derived from which branch fired; a
    sample exactly at a threshold is recorded as reliable, since its measured
    value equals the true value and the tighter feasibility interval is
    still valid.
    """
    x = _as_float_vector(x)
    if isinstance(model, Identity):
        return Observation(x.copy(), model)
    if isinstance(model, Mask):
        if model.reliable.shape != x.shape:
            raise ValueError("mask length must match the signal")
        return Observation(np.where(model.reliable, x, 0.0), model)
    if isinstance(model, Clip):
        pos = x > model.theta_pos
        neg = x < model.theta_neg
        y = np.clip(x, model.theta_neg, model.theta_pos)
        return Observation(y, model, reliable=~(pos | neg), clip_pos=pos, clip_neg=neg)
    if isinstance(model, UniformQuantizer):
        y = model.delta * np.floor(x / model.delta) + model.delta / 2.0
        return Observation(y, model)
    if isinstance(model, GeneralQuantizer):
        idx = np.searchsorted(model.edges, x, side="right") - 1
        if np.any(idx < 0) or np.any(idx >= model.codewords.shape[0]):
            raise ValueError("input falls outside the declared quantizer range")
        return Observation(model.codewords[idx], model)
    if isinstance(model, OneBit):
        return Observation(np.where(x >= 0.0, 1.0, -1.0), model)
    if isinstance(model, GeneralLinear):
        if model.matrix.shape[1] != x.shape[0]:
            raise ValueError("signal length must match the sensing matrix columns")
        return Observation(model.matrix @ x, model)
    raise TypeError(f"unknown measurement model {model!r}")


def _quantizer_bin_index(model: GeneralQuantizer, values) -> np.ndarray:
    """Index of the codeword nearest each value, ties to the lower index.

    A binary search over the sorted codewords finds the two neighbours of
    each value, so the cost is O(N log B) time and O(N) memory for N values
    and B codewords.
    """
    c = model.codewords
    order = model._order
    pos = np.searchsorted(model._sorted, values)
    below = order[np.maximum(pos - 1, 0)]
    above = order[np.minimum(pos, c.shape[0] - 1)]
    d_below = np.abs(values - c[below])
    d_above = np.abs(values - c[above])
    take_above = (d_above < d_below) | ((d_above == d_below) & (above < below))
    idx = np.where(take_above, above, below)
    best = c[idx]
    tol = VALUE_MATCH_RTOL * np.maximum(1.0, np.abs(best))
    if np.any(np.abs(values - best) > tol):
        raise ValueError("observation values are not legal quantizer codewords")
    return idx


def feasibility_intervals(obs: Observation) -> IntervalSet:
    """Pre-image intervals of each observed sample under the forward map.

    Quantizer bins are closed on both sides here: closing the pre-image does
    not change distances to it, and it keeps the projection single-valued on
    bin boundaries.
    """
    y = obs.values
    m = obs.model
    if isinstance(m, Identity):
        return IntervalSet.equality(y)
    if isinstance(m, Mask):
        return IntervalSet(np.where(m.reliable, y, -np.inf), np.where(m.reliable, y, np.inf))
    if isinstance(m, Clip):
        return IntervalSet(np.where(obs.clip_neg, -np.inf, y), np.where(obs.clip_pos, np.inf, y))
    if isinstance(m, UniformQuantizer):
        half = m.delta / 2.0
        return IntervalSet(y - half, y + half)
    if isinstance(m, GeneralQuantizer):
        idx = _quantizer_bin_index(m, y)
        return IntervalSet(m.edges[idx], m.edges[idx + 1])
    if isinstance(m, OneBit):
        pos = y > 0
        return IntervalSet(np.where(pos, 0.0, -np.inf), np.where(pos, np.inf, 0.0))
    if isinstance(m, GeneralLinear):
        raise ValueError("general linear models have no separable intervals; "
                         "use project_linear")
    raise TypeError(f"unknown measurement model {m!r}")


def project_linear(model: GeneralLinear, y, x) -> np.ndarray:
    """Projection onto {z : M z = y}: x - M^T (M M^T)^{-1} (M x - y).

    Solves the L x L symmetric positive-definite system directly; accepts x
    of shape (N,) or (N, T) for batched projection, with y of shape (L,) or,
    one observation per column, (L, T).
    """
    m, x, y = model.matrix, np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    w = np.linalg.solve(model.gram, m @ x - (y if y.ndim == x.ndim else y[:, None]))
    return x - m.T @ w


# ---------------------------------------------------------------------------
# projection of a batch of observations


class _Projection(partial):
    """project((N, T)) for a batch: func on bound arguments whose arrays hold
    one column (last axis) per observation; columns(cols) keeps columns cols."""

    project = partial.__call__  # an instance may rebind it, to wrap its calls

    def columns(self, cols):
        return type(self)(self.func, *(x[..., cols] if isinstance(x, np.ndarray) else x
                                       for x in self.args), **self.keywords)


def _project_each(observations, z):
    return np.stack([project_linear(o.model, o.values, z[:, t])
                     for t, o in enumerate(observations)], axis=1)


@dataclass(frozen=True, eq=False)
class Batch:
    """T observations held column-wise, as the coders and the learner take
    them: the projector of their feasibility sets (``project((N, T)) ->
    (N, T)``, and ``columns(cols)``, the projector of columns cols), the
    model they were measured through (the first observation's) and, for
    interval sets, their (N, T) values (None for linear sets, whose
    projector holds them)."""

    projector: _Projection
    model: MeasurementModel
    values: Optional[np.ndarray] = None

    @classmethod
    def of(cls, observations: Sequence[Observation]) -> "Batch":
        """The batch of observations, one column each.  The only code that
        tells a linear feasibility set from an interval box."""
        obs = list(observations)
        if not obs:
            raise ValueError("need at least one observation")
        first = obs[0]
        if len({isinstance(o.model, GeneralLinear) for o in obs}) > 1:
            raise ValueError("a batch cannot mix GeneralLinear observations with "
                             "separable (interval) ones")
        if isinstance(first.model, GeneralLinear):
            if all(o.model is first.model for o in obs):
                y = np.stack([o.values for o in obs], axis=1)
                return cls(_Projection(project_linear, first.model, y), first.model)
            return cls(_Projection(_project_each, np.array(obs, dtype=object)), first.model)
        lengths = sorted({o.values.shape[0] for o in obs})
        if len(lengths) > 1:
            raise ValueError(f"a batch needs one signal length, got lengths {lengths}")
        intervals = [o.intervals() for o in obs]
        return cls.box(first.model, np.stack([o.values for o in obs], axis=1),
                       np.stack([iv.lower for iv in intervals], axis=1),
                       np.stack([iv.upper for iv in intervals], axis=1))

    @classmethod
    def box(cls, model: MeasurementModel, values, lower, upper) -> "Batch":
        """The batch of interval observations with (N, T) values and bounds."""
        return cls(_Projection(_clamp, lower, upper), model, values)

    def __len__(self) -> int:
        return self.projector.args[-1].shape[-1]  # one column per observation


def gradient(obs: Observation, x) -> np.ndarray:
    """Gradient x - proj(x) of the data cost at an (N,) signal x: a one-column batch."""
    x = np.asarray(x, dtype=float)
    return x - Batch.of([obs]).projector.project(x[:, None])[:, 0]


def cost(obs: Observation, x) -> float:
    """Half squared distance from the (N,) signal x to the feasibility set of obs."""
    r = gradient(obs, x)
    return 0.5 * float(r @ r)


def estimate_clip_model(y) -> Observation:
    """Detect clipping thresholds and masks from an observed signal.

    theta_pos = max(y) and theta_neg = min(y); a sample is flagged clipped
    when it matches a threshold within a relative tolerance of 1e-9, which
    survives 16-bit PCM round trips where exact float equality would not.
    """
    y = _as_float_vector(y, "y")
    theta_pos = float(np.max(y))
    theta_neg = float(np.min(y))
    if theta_pos == theta_neg:
        raise DegenerateObservationError("constant input: every sample would be clipped")
    pos, neg = _at(y, theta_pos), _at(y, theta_neg)
    if np.any(pos & neg):
        raise DegenerateObservationError("clip thresholds are not separated")
    model = Clip(theta_pos, theta_neg)
    return Observation(y.copy(), model, reliable=~(pos | neg), clip_pos=pos, clip_neg=neg)
