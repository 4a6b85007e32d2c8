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
from functools import cached_property
from typing import List

import numpy as np

from .measurements import Observation, batch_projector
from .solvers import L0, SolverConfig, _descend, _penalty, _resolve_step, _synth_used

__all__ = [
    "DictLearnConfig",
    "TrainingSet",
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


@dataclass(eq=False)
class TrainingSet:
    """Observations measured through one model family."""

    observations: List[Observation]

    def __post_init__(self):
        if not self.observations:
            raise ValueError("training set must contain at least one observation")
        first = self.observations[0]
        for o in self.observations:
            if type(o.model) is not type(first.model):
                raise ValueError("observations must share one measurement model family")
            if o.values.shape != first.values.shape:
                raise ValueError("observations must share one signal length")

    def __len__(self) -> int:
        return len(self.observations)

    @cached_property
    def projector(self):  # one stacked projector for every half step
        return batch_projector(self.observations)


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
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(d, axis=0)
    out = d / np.maximum(norms, 1.0)
    over = np.isinf(norms)
    if over.any():
        # a finite column whose norm overflows: scale its peak into [0.5, 1)
        # by a power of two, as spectral_norm does, and normalise that
        big = d[:, over]
        big = np.ldexp(big, -np.frexp(np.max(np.abs(big), axis=0))[1])
        out[:, over] = big / np.linalg.norm(big, axis=0)
    return out


def _as_code_matrix(codes, atom_count: int, count: int) -> np.ndarray:
    a = np.asarray(codes, dtype=float)
    if a.shape != (atom_count, count):
        raise ValueError(f"codes must have shape {(atom_count, count)} (atoms, "
                         f"training signals), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("codes must be finite")
    return a


def dict_update(d: np.ndarray, codes, train: TrainingSet, cfg: DictLearnConfig
                ) -> np.ndarray:
    """Projected gradient steps on the summed data cost with codes fixed;
    returns the updated dictionary, its unused atoms bit for bit as given."""
    d = np.asarray(d, dtype=float)
    a = _as_code_matrix(codes, d.shape[1], len(train))
    if not np.all(np.isfinite(d)):
        raise ValueError("dictionary must be finite")
    used = np.flatnonzero(np.any(a != 0.0, axis=1))
    if used.size == 0:
        # all-zero codes: the gradient vanishes, nothing to update
        return d.copy()
    du, au = d[:, used], a[used]
    mu2 = _resolve_step(au)
    projector = train.projector
    for _ in range(cfg.inner_dict_iters):
        z = du @ au
        e = projector.project(z) - z
        du = du + mu2 * (e @ au.T)
        if not np.all(np.isfinite(du)):
            raise RuntimeError("dictionary update diverged")
        du = project_dictionary(du)
    d = d.copy()
    d[:, used] = du
    return d


def learn(train: TrainingSet, d0: np.ndarray, cfg: DictLearnConfig,
          init_codes=None) -> tuple[np.ndarray, np.ndarray, LearnTrace]:
    """Alternating consistent sparse coding and dictionary updates.

    Codes are warm-started from the previous outer iteration (column t of
    the returned (M, T) array codes signal t).  Atoms that no training code
    ever activates are left untouched and reported through a warning.
    """
    d = np.asarray(d0, dtype=float)
    norms = np.linalg.norm(d, axis=0)
    if np.any(norms > 1.0 + COLUMN_NORM_SLACK):
        raise ValueError("initial dictionary violates the unit column-norm constraint")

    if init_codes is None:
        a = np.zeros((d.shape[1], len(train)))
    else:
        a = _as_code_matrix(init_codes, d.shape[1], len(train)).copy()

    projector, code = train.projector, cfg.inner_code
    reg, synth = code.regularizer, _synth_used if isinstance(code.regularizer, L0) else np.matmul
    trace = LearnTrace()
    for _ in range(cfg.outer_iters):
        a, totals = _descend(d, projector, a, code, _resolve_step(d, code.step))[:2]
        trace.after_coding.append(float(totals[-1]))  # the kernel's objective of the codes

        d = dict_update(d, a, train, cfg)
        z = synth(d, a)
        r = z - projector.project(z)
        trace.after_dict.append(0.5 * float(np.sum(r * r)) + float(np.sum(_penalty(reg, a))))

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
