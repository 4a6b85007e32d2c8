"""The benchmark's workloads: CLI invocations built from a seed.

Each workload is a list of ``nlcs`` command lines (a "pass").  The seed
reaches the program only as ``--seed`` or through the generated input WAV.
Every CLI call writes a CSV with one row per (distortion level, method);
those rows are what the correctness checks and the SNR metrics look at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

SYNTH_METHODS = ("adaptive", "fixed", "baseline")
RATE = 16000
FRAME, OVERLAP = 256, 0.75


@dataclass(frozen=True)
class Call:
    """One ``nlcs.cli.main`` invocation and the outputs it must produce."""

    argv: Tuple[str, ...]
    csv: Path
    wav: Optional[Path]
    rows: Tuple[str, ...]  # expected row keys, "distortion/method"
    solves: int            # signals or frames recovered by this call


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path, object, bool], List[Call]]


def _frame_count(samples: int) -> int:
    hop = int(FRAME * (1 - OVERLAP))
    return math.ceil((samples - FRAME) / hop) + 1


def _synth(seed: int, work: Path, nlcs, tiny: bool) -> List[Call]:
    count = 2 if tiny else 20
    calls = []
    for distortion, flag, levels, tags in (
        ("clip", "--theta", "0.2,0.4", ("clip:0.2", "clip:0.4")),
        ("quant", "--bits", "2,3", ("quant:2", "quant:3")),
    ):
        csv = work / f"synth_{distortion}.csv"
        argv = ("synth", "--distortion", distortion, flag, levels,
                "--method", ",".join(SYNTH_METHODS), "--count", str(count),
                "--seed", str(seed), "--out", str(csv))
        rows = tuple(f"{t}/{m}" for t in tags for m in SYNTH_METHODS)
        calls.append(Call(argv, csv, None, rows, count * len(rows)))
    return calls


def _write_speech_wav(nlcs, seed: int, seconds: float, path: Path) -> int:
    x = 0.9 * nlcs.pipeline.speech_like_signal(seed=seed, seconds=seconds, rate=RATE)
    nlcs.pipeline.wav_write(path, x, RATE)
    return x.shape[0]


def _audio(task: str, level_flag: str, level: str, tag: str, seconds: float,
           learn: bool) -> Callable[[int, Path, object, bool], List[Call]]:
    def build(seed: int, work: Path, nlcs, tiny: bool) -> List[Call]:
        wav_in = work / "in.wav"
        samples = _write_speech_wav(nlcs, seed, 0.05 if tiny else seconds, wav_in)
        wav_out = work / f"{task}_out.wav"
        argv = [task, str(wav_in), level_flag, level, "--iters", "3" if tiny else "50",
                "--reference", str(wav_in), "--seed", str(seed), "--out", str(wav_out)]
        if learn:
            argv.append("--learn")
        method = "iht+learn" if learn else "iht"
        return [Call(tuple(argv), wav_out.with_suffix(".csv"), wav_out,
                     (f"{tag}/{method}",), _frame_count(samples))]

    return build


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("synth-sweep",
             "per-signal coders on length-32 vectors: many tiny project/prox_l1 "
             "calls, Python-overhead-bound; no top-K, learning or framing",
             _synth),
    Workload("audio-declip-learn",
             "batched IHT with dictionary learning: top-K argsort, dict_update "
             "and spectral_norm dominate; no per-signal coder or prox_l1 calls",
             _audio("declip", "--theta", "0.2", "clip:0.2", 0.5, learn=True)),
    Workload("audio-dequant-hibit",
             "12-bit dequantization: the dense per-frame quantizer lookup in "
             "feasibility_intervals dominates time and peak memory",
             _audio("dequant", "--bits", "12", "quant:12", 2.0, learn=False)),
)}


def read_rows(csv: Path) -> Tuple[Dict[str, float], str]:
    """Row SNRs by key, and the file's text with the runtime column blanked
    (the part of the CSV that reruns must reproduce byte for byte)."""
    snrs: Dict[str, float] = {}
    kept = []
    for line in csv.read_text().splitlines():
        if line.startswith("#") or line.startswith("distortion,"):
            kept.append(line)
            continue
        distortion, method, snr, _runtime, seed = line.split(",")
        snrs[f"{distortion}/{method}"] = float(snr)
        kept.append(",".join((distortion, method, snr, "", seed)))
    return snrs, "\n".join(kept)
