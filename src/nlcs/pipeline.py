"""Experiment plumbing: synthetic data generation, audio framing and
overlap-add, reconstruction metrics, WAV and CSV I/O."""

from __future__ import annotations

import logging
import wave
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .measurements import GeneralQuantizer

__all__ = [
    "SyntheticSpec",
    "FrameSpec",
    "EvalRow",
    "gen_synthetic",
    "uniform_quantizer_for_bits",
    "frame_signal",
    "overlap_add",
    "snr_db",
    "angular_snr_db",
    "wav_read",
    "wav_write",
    "write_rows_csv",
    "speech_like_signal",
]

logger = logging.getLogger(__name__)

PCM_SCALE = 32768.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic sparse-signal ensemble: seeded Gaussian dictionary with unit
    l2 columns and K-sparse Gaussian codes, signals rescaled to unit peak."""

    seed: int = 0
    signal_dim: int = 32
    atom_count: int = 64
    sparsity: int = 4
    count: int = 2000
    clip_levels: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    quant_bits: Tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)

    def __post_init__(self):
        if self.signal_dim < 1 or self.atom_count < 1 or self.count < 1:
            raise ValueError("dimensions and count must be positive")
        if not 1 <= self.sparsity <= self.atom_count:
            raise ValueError(
                f"sparsity must be in [1, {self.atom_count}], got {self.sparsity}"
            )


@dataclass(frozen=True)
class FrameSpec:
    """Rectangular analysis frames; hop = frame_len * (1 - overlap)."""

    frame_len: int = 256
    overlap: float = 0.75

    def __post_init__(self):
        if self.frame_len < 1:
            raise ValueError("frame_len must be positive")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"overlap must lie in [0, 1), got {self.overlap}")
        hop_f = self.frame_len * (1.0 - self.overlap)
        hop = int(round(hop_f))
        if hop < 1 or abs(hop_f - hop) > 1e-9:
            raise ValueError(
                f"frame_len * (1 - overlap) must be a positive integer, got {hop_f}"
            )
        object.__setattr__(self, "_hop", hop)

    @property
    def hop(self) -> int:
        return self._hop


@dataclass
class EvalRow:
    distortion: str
    method: str
    snr_db: float
    runtime_s: float
    seed: int


def gen_synthetic(spec: SyntheticSpec):
    """Generate (dictionary, codes (M, T), signals (N, T)) from a seed.

    Each signal x_t = D a_t is rescaled to unit peak amplitude, with the code
    rescaled by the same factor so the factorization is preserved.
    """
    rng = np.random.default_rng(spec.seed)
    d = rng.standard_normal((spec.signal_dim, spec.atom_count))
    d /= np.linalg.norm(d, axis=0)
    codes = np.zeros((spec.atom_count, spec.count))
    for t in range(spec.count):
        support = rng.choice(spec.atom_count, size=spec.sparsity, replace=False)
        codes[support, t] = rng.standard_normal(spec.sparsity)
    signals = d @ codes
    peaks = np.max(np.abs(signals), axis=0)
    if np.any(peaks == 0.0):
        raise RuntimeError("degenerate zero signal generated; change the seed")
    signals /= peaks
    codes /= peaks
    return d, codes, signals


def uniform_quantizer_for_bits(bits: int) -> GeneralQuantizer:
    """Mid-riser quantizer covering [-1, 1] with 2**bits levels.

    Bin width is 2 / 2**bits; the outermost bins extend to +-inf so inputs at
    or beyond the nominal range saturate to the extreme codewords.
    """
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    levels = 2 ** bits
    delta = 2.0 / levels
    edges = -1.0 + delta * np.arange(levels + 1)
    edges[0] = -np.inf
    edges[-1] = np.inf
    codewords = -1.0 + delta * (np.arange(levels) + 0.5)
    return GeneralQuantizer(edges, codewords)


def _pad_to_frame_grid(x: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """Zero-pad x, keeping its dtype, to the end of the last of the
    ceil((len - frame_len) / hop) + 1 frames that cover it."""
    n, hop = spec.frame_len, spec.hop
    if x.shape[0] < n:
        raise ValueError(f"signal of length {x.shape[0]} is shorter than one frame ({n})")
    count = int(np.ceil((x.shape[0] - n) / hop)) + 1
    out = np.zeros((count - 1) * hop + n, dtype=x.dtype)
    out[: x.shape[0]] = x
    return out


def frame_signal(samples, spec: FrameSpec) -> np.ndarray:
    """Slice a signal into overlapping frames, zero-padding the tail.

    Returns an array of shape (frame_len, frame_count) with
    frame_count = ceil((len - frame_len) / hop) + 1.  Boolean input (a
    sample mask) gives boolean frames; anything else is framed as float.
    """
    x = np.asarray(samples)
    if x.dtype != bool:
        x = x.astype(float, copy=False)
    padded = _pad_to_frame_grid(x, spec)
    return sliding_window_view(padded, spec.frame_len)[:: spec.hop].T.copy()


def overlap_add(frames, spec: FrameSpec, out_len: int) -> np.ndarray:
    """Rebuild a signal by summing frames at their hops and dividing each
    sample by its coverage count (rectangular windows)."""
    f = np.asarray(frames, dtype=float)
    n, count = f.shape
    if n != spec.frame_len:
        raise ValueError("frame length does not match the spec")
    hop = spec.hop
    total = (count - 1) * hop + n
    acc = np.zeros(total)
    cov = np.zeros(total)
    for j in range(count):
        acc[j * hop : j * hop + n] += f[:, j]
        cov[j * hop : j * hop + n] += 1.0
    return (acc / cov)[:out_len]


def snr_db(estimate, reference) -> float:
    """20 log10(||x|| / ||x - xhat||); +inf on exact reconstruction."""
    xhat = np.asarray(estimate, dtype=float)
    x = np.asarray(reference, dtype=float)
    if xhat.shape != x.shape:
        raise ValueError("estimate and reference must have the same length")
    ref_norm = np.linalg.norm(x)
    if ref_norm == 0.0:
        raise ValueError("reference signal is zero")
    err = np.linalg.norm(x - xhat)
    if err == 0.0:
        return np.inf
    return 20.0 * np.log10(ref_norm / err)


def angular_snr_db(estimate, reference) -> float:
    """SNR after rescaling the estimate to the reference's norm.

    Invariant under positive rescaling of the estimate; used when the
    measurement destroys amplitude information (1-bit data).
    """
    xhat = np.asarray(estimate, dtype=float)
    x = np.asarray(reference, dtype=float)
    if xhat.shape != x.shape:
        raise ValueError("estimate and reference must have the same length")
    ref_norm = np.linalg.norm(x)
    est_norm = np.linalg.norm(xhat)
    if ref_norm == 0.0:
        raise ValueError("reference signal is zero")
    if est_norm == 0.0:
        raise ValueError("estimate signal is zero")
    err = np.linalg.norm(x - (ref_norm / est_norm) * xhat)
    if err == 0.0:
        return np.inf
    return 20.0 * np.log10(ref_norm / err)


def wav_read(path) -> tuple[np.ndarray, int]:
    """Read a 16-bit PCM RIFF/WAVE file; first channel only, scaled by 1/32768."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getcomptype() != "NONE":
                raise ValueError(f"{path}: only PCM wav files are supported")
            if fh.getsampwidth() != 2:
                raise ValueError(f"{path}: only 16-bit wav files are supported")
            nch = fh.getnchannels()
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except wave.Error as exc:
        raise ValueError(f"{path}: malformed wav file ({exc})") from exc
    data = np.frombuffer(raw, dtype="<i2")
    if data.size == 0:
        raise ValueError(f"{path}: no audio samples")
    if nch > 1:
        logger.info("%s has %d channels; using the first", path, nch)
        data = data.reshape(-1, nch)[:, 0]
    return data.astype(float) / PCM_SCALE, rate


def wav_write(path, samples, rate: int) -> None:
    """Write mono 16-bit PCM; clamps to [-1, 1 - 1/32768] and rounds half
    away from zero."""
    x = np.asarray(samples, dtype=float)
    x = np.clip(x, -1.0, 1.0 - 1.0 / PCM_SCALE)
    v = x * PCM_SCALE
    q = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(q.tobytes())


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def write_rows_csv(path_or_fh, rows: Sequence[EvalRow],
                   config_lines: Optional[Sequence[str]] = None) -> None:
    """Write evaluation rows with 6-significant-digit numbers; 'inf' marks a
    perfect reconstruction.  Optional key=value lines are embedded as
    comments so a run can be reproduced from its own output."""

    def _write(fh):
        for line in config_lines or []:
            fh.write(f"# {line}\n")
        fh.write("distortion,method,snr_db,runtime_s,seed\n")
        for r in rows:
            fh.write(f"{r.distortion},{r.method},{_fmt(r.snr_db)},"
                     f"{_fmt(r.runtime_s)},{r.seed}\n")

    if hasattr(path_or_fh, "write"):
        _write(path_or_fh)
    else:
        with open(path_or_fh, "w") as fh:
            _write(fh)


def speech_like_signal(seed: int = 0, seconds: float = 2.0, rate: int = 16000,
                       inharmonicity: float = 0.0) -> np.ndarray:
    """Deterministic harmonic test signal with a gliding pitch, formant-style
    spectral shaping and syllable-rate amplitude modulation; unit peak.

    A positive ``inharmonicity`` stretches partial h to h * (1 + c * h^2),
    like a stiff string, which makes the signal markedly less compressible
    in a DCT and so leaves room for dictionary adaptation.
    """
    rng = np.random.default_rng(seed)
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    f0 = 140.0 * (1.0 + 0.10 * np.sin(2 * np.pi * 1.3 * t)) + 22.0 * t
    phase = 2 * np.pi * np.cumsum(f0) / rate
    x = np.zeros(n)
    for h in range(1, 13):
        freq = h * 160.0
        gain = (np.exp(-((freq - 500.0) / 350.0) ** 2)
                + 0.6 * np.exp(-((freq - 1500.0) / 450.0) ** 2)
                + 0.08)
        stretch = 1.0 + inharmonicity * h * h
        x += (gain / h) * np.sin(h * stretch * phase + rng.uniform(0, 2 * np.pi))
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * 3.1 * t + 1.0)
    x *= envelope
    x += 0.002 * rng.standard_normal(n)
    return x / np.max(np.abs(x))
