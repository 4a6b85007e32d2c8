"""Dense linear-algebra building blocks: DCT dictionaries, spectral norms,
and the proximal maps used by the sparse coding solvers."""

from __future__ import annotations

import numpy as np

__all__ = ["dct_dictionary", "spectral_norm", "prox_l1", "prox_l0_topk"]


def dct_dictionary(signal_dim: int, atom_count: int) -> np.ndarray:
    """Overcomplete DCT-II dictionary of shape (signal_dim, atom_count).

    Atom m sampled at position n is cos(pi * (2n + 1) * m / (2 * atom_count));
    every column is rescaled to unit l2 norm.  For atom_count == signal_dim
    this reduces to the orthonormal DCT basis.
    """
    if signal_dim < 1:
        raise ValueError(f"signal_dim must be >= 1, got {signal_dim}")
    if atom_count < signal_dim:
        raise ValueError(
            f"atom_count ({atom_count}) must be >= signal_dim ({signal_dim})"
        )
    n = np.arange(signal_dim)[:, None]
    m = np.arange(atom_count)[None, :]
    d = np.cos(np.pi * (2 * n + 1) * m / (2.0 * atom_count))
    d /= np.linalg.norm(d, axis=0)
    return d


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a dense matrix: the square root of the top
    eigenvalue of the smaller Gram matrix, X X^T or X^T X (exact to rounding;
    X is rescaled by a power of two when that eigenvalue leaves the normal range)."""
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("spectral_norm expects a nonempty 2-d matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("spectral_norm expects finite entries")
    with np.errstate(over="ignore"):
        gram = x @ x.T if x.shape[0] <= x.shape[1] else x.T @ x
        top = np.linalg.eigvalsh(gram)[-1] if np.isfinite(gram).all() else np.inf
        if not np.finfo(float).tiny <= top < np.inf and x.any():
            e = np.frexp(np.max(np.abs(x)))[1]
            return float(np.ldexp(spectral_norm(np.ldexp(x, -e)), e))
    # the Gram matrix is PSD; keep a rounding-negative top eigenvalue at 0
    return float(np.sqrt(max(0.0, top)))


def prox_l1(v: np.ndarray, threshold: float) -> np.ndarray:
    """Soft threshold: max(|v_i| - threshold, 0) with v_i's sign bit (-0.0 stays -0.0).

    For an (M, T) array the threshold may also hold one value per column.
    """
    t = np.asarray(threshold)
    if not (0 <= t < np.inf if t.ndim == 0
            else np.logical_and.reduce((t >= 0) & (t < np.inf), axis=None)):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    v = np.asarray(v, dtype=float)
    out = np.abs(v, out=np.empty(v.shape))  # an array even for a 0-d v
    out -= t
    return np.copysign(np.maximum(out, 0.0, out=out), v, out=out)


def prox_l0_topk(v: np.ndarray, sparsity: int) -> np.ndarray:
    """Keep the ``sparsity`` largest-magnitude entries of v, zero the rest.

    v is (M,) or (M, T); for (M, T) every column is treated on its own.
    Magnitude ties are broken in favour of the lowest index, and NaN entries
    rank below every number, so they are kept only when a column has fewer
    than ``sparsity`` numbers.  The selection takes the k-th largest magnitude
    from ``np.partition`` (O(M) per column on average, against O(M log M) for
    a sort), then scans the ties when a column has more than free slots.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError(f"prox_l0_topk expects a 1-d or 2-d array, got {v.ndim}-d")
    if not 1 <= sparsity <= v.shape[0]:
        raise ValueError(f"sparsity must be in [1, {v.shape[0]}], got {sparsity}")
    return np.where(_topk_keep(v, sparsity), v, 0.0)


def _topk_keep(v: np.ndarray, sparsity: int) -> np.ndarray:
    """Mask of the selection: the ``sparsity`` largest magnitudes per column."""
    # partition -|v| so NaN, which partition puts last, ranks as smallest
    mag = np.abs(v)
    np.negative(mag, out=mag)
    mag.partition(sparsity - 1, axis=0)
    kth = -mag[sparsity - 1]
    np.abs(v, out=mag)
    keep = mag > kth
    ties = mag == kth
    if np.isnan(kth).any():
        # fewer than k numbers: keep them all, fill up with the first NaNs
        short = np.isnan(kth)
        keep |= short & ~np.isnan(mag)
        ties |= short & np.isnan(mag)
    del mag  # free it before the output is allocated
    free = sparsity - keep.sum(axis=0)
    if np.any(ties.sum(axis=0) > free):
        ties &= np.cumsum(ties, axis=0) <= free
    keep |= ties
    return keep
