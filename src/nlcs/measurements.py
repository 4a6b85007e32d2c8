"""Measurement maps, feasibility sets, projections, and the
distance-to-feasibility data cost.

Every supported measurement map f comes with the convex set of clean signals
that are consistent with an observation y = f(x).  For the separable maps
(identity, masking, clipping, quantization, 1-bit) that set is a per-sample
interval box, so projecting onto it is an element-wise clamp; for a general
linear map it is an affine subspace.  The data cost is half the squared
Euclidean distance to the set,

    cost(y, x) = 0.5 * ||x - proj(x)||_2^2,

which is convex and differentiable with gradient x - proj(x) and a gradient
Lipschitz constant of 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    held column-wise.  Unbounded sides are represented by an explicit flag
    per side; the stored bound value on an unbounded side is ignored, so no
    arithmetic is ever done with floating-point infinities.  lower_i ==
    upper_i encodes an exactly observed sample.
    """

    lower: np.ndarray
    upper: np.ndarray
    lower_bounded: np.ndarray
    upper_bounded: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        lb = np.asarray(self.lower_bounded, dtype=bool)
        ub = np.asarray(self.upper_bounded, dtype=bool)
        if not (lo.shape == up.shape == lb.shape == ub.shape) or lo.ndim not in (1, 2):
            raise ValueError("interval arrays must share one 1-d or 2-d shape")
        if not np.all(np.isfinite(lo[lb])) or not np.all(np.isfinite(up[ub])):
            raise ValueError("bounded sides must be finite")
        both = lb & ub
        if np.any(lo[both] > up[both]):
            raise ValueError("need lower <= upper wherever both sides are bounded")
        for name, arr in (("lower", lo), ("upper", up),
                          ("lower_bounded", lb), ("upper_bounded", ub)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def equality(cls, values) -> "IntervalSet":
        v = _as_float_vector(values, "values")
        t = np.ones(v.shape[0], dtype=bool)
        return cls(v, v, t, t)

    def __len__(self) -> int:
        return self.lower.shape[0]

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        ok_lo = ~self.lower_bounded | (x >= self.lower - tol)
        ok_up = ~self.upper_bounded | (x <= self.upper + tol)
        return bool(np.all(ok_lo & ok_up))


def _clamp_bounds(lower, upper, lower_bounded, upper_bounded):
    """The box's bounds with -inf / +inf on its unbounded sides: the only
    arrays that hold infinities, kept by batch projectors for _clamp."""
    return np.where(lower_bounded, lower, -np.inf), np.where(upper_bounded, upper, np.inf)


def _clamp(lo, up, x) -> np.ndarray:
    """max(x, lo), then min with up.  Not np.clip: with scalar bounds it
    keeps -0.0 against a +0.0 lower bound, where np.maximum gives +0.0."""
    out = np.maximum(x, lo)
    return np.minimum(out, up, out=out)


def project(intervals: IntervalSet, x) -> np.ndarray:
    """Orthogonal projection onto the interval box: element-wise clamp.

    x has the shape of the intervals, (N,) or (N, T).
    """
    iv = intervals
    bounds = _clamp_bounds(iv.lower, iv.upper, iv.lower_bounded, iv.upper_bounded)
    return _clamp(*bounds, np.asarray(x, dtype=float))


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
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        tol_p = VALUE_MATCH_RTOL * max(1.0, abs(m.theta_pos))
        tol_n = VALUE_MATCH_RTOL * max(1.0, abs(m.theta_neg))
        if np.any(np.abs(y[p] - m.theta_pos) > tol_p):
            raise ValueError("positively clipped samples must sit at theta_pos")
        if np.any(np.abs(y[n] - m.theta_neg) > tol_n):
            raise ValueError("negatively clipped samples must sit at theta_neg")

    def intervals(self) -> IntervalSet:
        """Feasibility intervals for this observation (cached)."""
        iv = self._cache.get("intervals")
        if iv is None:
            iv = feasibility_intervals(self)
            self._cache["intervals"] = iv
        return iv


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
    n = y.shape[0]
    m = obs.model
    if isinstance(m, Identity):
        return IntervalSet.equality(y)
    if isinstance(m, Mask):
        lo = np.where(m.reliable, y, 0.0)
        bounded = m.reliable.copy()
        return IntervalSet(lo, lo.copy(), bounded, bounded.copy())
    if isinstance(m, Clip):
        lo = y.copy()
        up = y.copy()
        lower_bounded = obs.reliable | obs.clip_pos
        upper_bounded = obs.reliable | obs.clip_neg
        return IntervalSet(lo, up, lower_bounded, upper_bounded)
    if isinstance(m, UniformQuantizer):
        half = m.delta / 2.0
        t = np.ones(n, dtype=bool)
        return IntervalSet(y - half, y + half, t, t)
    if isinstance(m, GeneralQuantizer):
        idx = _quantizer_bin_index(m, y)
        lo = m.edges[idx]
        up = m.edges[idx + 1]
        lb = np.isfinite(lo)
        ub = np.isfinite(up)
        return IntervalSet(np.where(lb, lo, 0.0), np.where(ub, up, 0.0), lb, ub)
    if isinstance(m, OneBit):
        zero = np.zeros(n)
        pos = y > 0
        return IntervalSet(zero, zero.copy(), pos, ~pos)
    if isinstance(m, GeneralLinear):
        raise ValueError("general linear models have no separable intervals; "
                         "use project_linear")
    raise TypeError(f"unknown measurement model {m!r}")


def _linear_gram(model: GeneralLinear, cache: Optional[dict] = None) -> np.ndarray:
    gram = None if cache is None else cache.get("gram")
    if gram is None:
        m = model.matrix
        gram = m @ m.T
        if np.linalg.cond(gram) > MAX_GRAM_CONDITION:
            raise SingularModelError("sensing matrix is numerically rank deficient")
        if cache is not None:
            cache["gram"] = gram
    return gram


def project_linear(model: GeneralLinear, y, x, _cache: Optional[dict] = None) -> np.ndarray:
    """Projection onto {z : M z = y}: x - M^T (M M^T)^{-1} (M x - y).

    Solves the L x L symmetric positive-definite system directly; accepts x
    of shape (N,) or (N, T) for batched projection, with y of shape (L,) or,
    one observation per column, (L, T).
    """
    m = model.matrix
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gram = _linear_gram(model, _cache)
    resid = m @ x - (y if y.ndim == x.ndim else y[:, None])
    w = np.linalg.solve(gram, resid)
    return x - m.T @ w


def _project_onto_feasibility(obs: Observation, x) -> np.ndarray:
    if isinstance(obs.model, GeneralLinear):
        return project_linear(obs.model, obs.values, x, _cache=obs._cache)
    return project(obs.intervals(), x)


def cost(obs: Observation, x) -> float:
    """Half squared distance from x to the feasibility set of obs."""
    x = np.asarray(x, dtype=float)
    r = x - _project_onto_feasibility(obs, x)
    return 0.5 * float(r @ r)


def gradient(obs: Observation, x) -> np.ndarray:
    """Gradient of the data cost: x - proj(x)."""
    x = np.asarray(x, dtype=float)
    return x - _project_onto_feasibility(obs, x)


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
    tol_p = VALUE_MATCH_RTOL * max(1.0, abs(theta_pos))
    tol_n = VALUE_MATCH_RTOL * max(1.0, abs(theta_neg))
    pos = np.abs(y - theta_pos) <= tol_p
    neg = np.abs(y - theta_neg) <= tol_n
    if np.any(pos & neg):
        raise DegenerateObservationError("clip thresholds are not separated")
    model = Clip(theta_pos, theta_neg)
    return Observation(y.copy(), model, reliable=~(pos | neg), clip_pos=pos, clip_neg=neg)
