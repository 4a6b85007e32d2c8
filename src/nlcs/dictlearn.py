"""Dictionary learning from nonlinearly measured signals.

Alternates consistent sparse coding of every training observation with
projected gradient descent on the dictionary under the column-norm
constraint ||d_i||_2 <= 1.  The dictionary step for codes A = [a_1 ... a_T]
is

    D <- proj_norm( D + mu2 * sum_t (proj_t(D a_t) - D a_t) a_t^T ),

with mu2 = 1 / ||A||_2^2.  Both step sizes are re-estimated every outer
iteration, each norm from the top Gram eigenvalue, and the dictionary step
touches only the atoms some code uses (||A_used||_2 = ||A||_2).
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .measurements import Batch
from .solvers import (SolverConfig, _check_length, _code_matrix, _evaluate, _resolve_step,
                      _synth_used, sparse_code_fixed)

__all__ = [
    "DictLearnConfig",
    "LearnTrace",
    "project_dictionary",
    "dict_update",
    "learn",
    "save_dictionary",
    "load_dictionary",
    "export_dictionary_text",
]

logger = logging.getLogger(__name__)

COLUMN_NORM_SLACK = 1e-12


@dataclass(frozen=True)
class DictLearnConfig:
    inner_code: SolverConfig
    outer_iters: int = 50
    inner_dict_iters: int = 20

    def __post_init__(self):
        if self.outer_iters < 0:
            raise ValueError("outer_iters must be >= 0")
        if self.inner_dict_iters < 1:
            raise ValueError("inner_dict_iters must be >= 1")


@dataclass
class LearnTrace:
    """Total objective after each half step of the alternation."""

    after_coding: List[float] = field(default_factory=list)
    after_dict: List[float] = field(default_factory=list)


def project_dictionary(d: np.ndarray) -> np.ndarray:
    """Rescale each column onto the unit l2 ball: d_i / max(||d_i||, 1)."""
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValueError("dictionary must be finite")
    return _onto_unit_ball(d, _column_norms(d), np.empty_like(d))


def _column_norms(d: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # a finite column's norm may overflow
        return np.linalg.norm(d, axis=0)


def _onto_unit_ball(d: np.ndarray, norms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d_i / max(norms_i, 1) into out, which may be d itself."""
    over = np.flatnonzero(np.isinf(norms))
    big = d[:, over] if over.size else None  # a copy, taken before out is written
    np.divide(d, np.maximum(norms, 1.0), out=out)
    if over.size:
        # a finite column whose norm overflows: scale its peak into [0.5, 1)
        # by a power of two, as spectral_norm does, and normalise that
        big = np.ldexp(big, -np.frexp(np.max(np.abs(big), axis=0))[1])
        out[:, over] = big / np.linalg.norm(big, axis=0)
    return out


def dict_update(d: np.ndarray, codes, batch: Batch, cfg: DictLearnConfig) -> np.ndarray:
    """Projected gradient steps on the data cost of the training batch,
    summed over its columns, with the (M, T) codes fixed; returns the
    updated dictionary, its unused atoms bit for bit as given."""
    d = np.asarray(d, dtype=float)
    a = _code_matrix(codes, (d.shape[1], len(batch)))
    _check_length(d, batch)
    if not np.all(np.isfinite(d)):
        raise ValueError("dictionary must be finite")
    used = np.flatnonzero(np.any(a != 0.0, axis=1))
    if used.size == 0:
        # all-zero codes: the gradient vanishes, nothing to update
        return d.copy()
    du, au = d[:, used], a[used]
    mu2 = _resolve_step(au)
    projector = batch.projector
    for _ in range(cfg.inner_dict_iters):
        z = du @ au
        e = projector.project(z)
        e -= z
        du_next = e @ au.T
        du_next *= mu2
        du_next += du  # du + mu2 e a^T, in the product's array
        du, norms = du_next, _column_norms(du_next)
        odd = np.flatnonzero(~np.isfinite(norms))  # NaN or inf entries, or an overflow
        if odd.size and not np.all(np.isfinite(du[:, odd])):
            raise RuntimeError("dictionary update diverged")
        _onto_unit_ball(du, norms, du)
    d = d.copy()
    d[:, used] = du
    return d


def learn(batch: Batch, d0: np.ndarray, cfg: DictLearnConfig,
          init_codes=None) -> tuple[np.ndarray, np.ndarray, LearnTrace]:
    """Alternating consistent sparse coding and dictionary updates on the
    training batch, one signal per column, its one projector serving every
    half step; each coding half step is one sparse_code_fixed call.  Codes
    are warm-started from the previous outer iteration (column t of the
    returned (M, T) array codes signal t).  Atoms that no training code
    ever activates are left untouched and reported through a warning.
    """
    d = np.asarray(d0, dtype=float)
    _check_length(d, batch)
    norms = np.linalg.norm(d, axis=0)
    if np.any(norms > 1.0 + COLUMN_NORM_SLACK):
        raise ValueError("initial dictionary violates the unit column-norm constraint")

    a = (np.zeros((d.shape[1], len(batch))) if init_codes is None
         else _code_matrix(init_codes, (d.shape[1], len(batch))).copy())
    del init_codes  # the copy is the only start codes learn holds

    code = cfg.inner_code
    lam = getattr(code.regularizer, "lam", None)  # None: top-K, no penalty
    trace = LearnTrace()
    for i in range(cfg.outer_iters):
        # the coder copies its start: popped into it, the warm-start codes exist once
        warm = [a]
        del a
        a, solve = sparse_code_fixed(d, batch, warm.pop(), code)
        if i:  # the solve's first objective: the codes on the last update's dictionary
            trace.after_dict.append(float(solve.objectives[0]))
        trace.after_coding.append(float(solve.objectives[-1]))
        d = dict_update(d, a, batch, cfg)
    if cfg.outer_iters:  # evaluated as the kernel does
        synth = _synth_used if lam is None else np.matmul
        trace.after_dict.append(float(_evaluate(d, batch.projector, a, synth, lam)[2].sum()))

    unused = np.flatnonzero(~np.any(a != 0.0, axis=1))
    if unused.size:
        logger.warning("%d atoms were never activated and were left as-is "
                       "(the first %d: %s)", unused.size, min(unused.size, 10),
                       unused[:10].tolist())
    return d, a, trace


# ---------------------------------------------------------------------------
# serialization

DICT_MAGIC = b"NLCSDICT"
DICT_VERSION = 1


def save_dictionary(path, d: np.ndarray) -> None:
    """Write a dictionary as magic, version/N/M header, column-major f64 LE."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2:
        raise ValueError("dictionary must be 2-d")
    n, m = d.shape
    with open(path, "wb") as fh:
        fh.write(DICT_MAGIC)
        fh.write(struct.pack("<III", DICT_VERSION, n, m))
        fh.write(np.ascontiguousarray(d.T).astype("<f8").tobytes())


def load_dictionary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != DICT_MAGIC:
            raise ValueError(f"not a dictionary container (magic {magic!r})")
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError("truncated dictionary header")
        version, n, m = struct.unpack("<III", header)
        if version != DICT_VERSION:
            raise ValueError(f"unsupported dictionary version {version}")
        payload = fh.read()
    expected = 8 * n * m
    if len(payload) != expected:
        raise ValueError(f"dictionary payload has {len(payload)} bytes, expected {expected}")
    cols = np.frombuffer(payload, dtype="<f8").reshape(m, n)
    return np.array(cols.T, dtype=float)


def export_dictionary_text(path, d: np.ndarray) -> None:
    """Plain-text export for inspection: one column per line, space-separated."""
    d = np.asarray(d, dtype=float)
    with open(path, "w") as fh:
        for col in d.T:
            fh.write(" ".join(f"{v:.17g}" for v in col))
            fh.write("\n")
