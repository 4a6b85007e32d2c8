"""Command-line front end.

Subcommands: synth, declip, dequant, onebit, baseline, learn-dict.  Every
run is driven by a flat key=value configuration; values come from built-in
defaults, then an optional --config file, then explicit flags.  The
effective configuration is echoed into each output file as comment lines so
any result can be reproduced from its own CSV.  Progress goes to stderr;
stdout is reserved for CSV when --stdout is set.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from .dictlearn import export_dictionary_text, load_dictionary, save_dictionary
from .experiments import (
    AUDIO_TASKS,
    SolveParams,
    frame_observations,
    learn_dictionary,
    run_audio,
    run_synth,
)
from .linops import dct_dictionary
from .measurements import Clip, Identity, OneBit
from .pipeline import (
    EvalRow,
    FrameSpec,
    SyntheticSpec,
    uniform_quantizer_for_bits,
    wav_read,
    wav_write,
    write_rows_csv,
)


@dataclass
class RunConfig:
    command: str = ""
    input: Optional[str] = None
    out: Optional[str] = None
    seed: int = 0
    method: str = ""
    lam: float = 1e-2
    epsilon: float = 1e-3
    decay: float = 0.5
    iters: int = 0
    inner_iters: int = 20
    k: int = 32
    frame: int = 256
    overlap: float = 0.75
    dict: str = "dct"
    learn: bool = False
    reference: Optional[str] = None
    distortion: str = "clip"
    theta: Optional[List[float]] = None
    bits: Optional[List[int]] = None
    count: int = 2000
    detect: bool = False
    stdout: bool = False
    task: str = "all"
    text: Optional[str] = None


def _command_defaults(command: str) -> RunConfig:
    cfg = RunConfig(command=command)
    if command == "synth":
        cfg.method = "adaptive,fixed"
        cfg.iters = 400
    else:
        cfg.method = "iht"
        cfg.iters = 50
    if command == "baseline":
        cfg.method = "baseline"
    return cfg


def _parse_float_list(text: str) -> List[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_int_list(text: str) -> List[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_FIELD_PARSERS = {
    "seed": int, "iters": int, "inner_iters": int, "k": int, "frame": int,
    "count": int,
    "lam": float, "epsilon": float, "decay": float, "overlap": float,
    "theta": _parse_float_list, "bits": _parse_int_list,
    "learn": _parse_bool, "detect": _parse_bool, "stdout": _parse_bool,
}


def _load_config_file(path) -> dict:
    """Flat key=value file; leading '# ' is stripped so a previous output CSV
    can be fed back directly.  Lines without '=' are ignored."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                line = line.lstrip("#").strip()
            if "=" not in line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key in {f.name for f in fields(RunConfig)}:
                values[key] = val
    return values


def _merge_config(command: str, args: argparse.Namespace) -> RunConfig:
    cfg = _command_defaults(command)
    file_values = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
    for key, raw in file_values.items():
        if key == "command":
            continue
        parser = _FIELD_PARSERS.get(key, str)
        setattr(cfg, key, parser(raw))
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


def _config_lines(cfg: RunConfig) -> List[str]:
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        if isinstance(val, list):
            val = ",".join(repr(v) for v in val)
        elif isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{f.name}={val}")
    return lines


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlcs",
        description="Consistent sparse recovery from clipped, quantized and 1-bit data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, audio: bool):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--method", type=str, default=None,
                       help="comma list of fixed,adaptive,iht,baseline")
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--decay", type=float, default=None)
        p.add_argument("--iters", type=int, default=None)
        p.add_argument("--inner-iters", dest="inner_iters", type=int, default=None)
        p.add_argument("-K", dest="k", type=int, default=None)
        p.add_argument("--frame", type=int, default=None)
        p.add_argument("--overlap", type=float, default=None)
        p.add_argument("--dict", type=str, default=None, help="dct or file:PATH")
        p.add_argument("--config", type=str, default=None,
                       help="key=value file; explicit flags override it")
        p.add_argument("--stdout", action="store_const", const=True, default=None)
        if audio:
            p.add_argument("input", type=str)
            p.add_argument("--learn", action="store_const", const=True, default=None)
            p.add_argument("--reference", type=str, default=None)

    p = sub.add_parser("synth", help="distortion sweep on a synthetic ensemble")
    p.add_argument("--distortion", choices=("clip", "quant"), default=None)
    p.add_argument("--theta", type=_parse_float_list, default=None)
    p.add_argument("--bits", type=_parse_int_list, default=None)
    p.add_argument("--count", type=int, default=None)
    add_common(p, audio=False)

    p = sub.add_parser("declip", help="declip a wav file")
    p.add_argument("--theta", type=_parse_float_list, default=None)
    p.add_argument("--detect", action="store_const", const=True, default=None)
    add_common(p, audio=True)

    p = sub.add_parser("dequant", help="dequantize a wav file")
    p.add_argument("--bits", type=_parse_int_list, default=None)
    add_common(p, audio=True)

    p = sub.add_parser("onebit", help="recover a wav file from its signs")
    add_common(p, audio=True)

    p = sub.add_parser("baseline", help="classical linear baselines")
    p.add_argument("--task", choices=AUDIO_TASKS + ("all",), default=None)
    p.add_argument("--theta", type=_parse_float_list, default=None)
    p.add_argument("--bits", type=_parse_int_list, default=None)
    add_common(p, audio=True)

    p = sub.add_parser("learn-dict", help="learn a dictionary from a wav file")
    p.add_argument("--distortion", choices=("clip", "quant", "onebit", "none"),
                   default=None)
    p.add_argument("--theta", type=_parse_float_list, default=None)
    p.add_argument("--bits", type=_parse_int_list, default=None)
    p.add_argument("--text", type=str, default=None, help="also export as text")
    add_common(p, audio=True)
    return parser


def _solve_params(cfg: RunConfig) -> SolveParams:
    return SolveParams(lam=cfg.lam, epsilon=cfg.epsilon, decay=cfg.decay,
                       iters=cfg.iters, k=cfg.k,
                       outer_iters=cfg.iters, inner_iters=cfg.inner_iters)


def _one_level(cfg: RunConfig, name: str, default):
    """The single value of the level list cfg.<name>, or default if unset."""
    values = getattr(cfg, name)
    if not values:
        return default
    if len(values) > 1:
        raise ValueError(f"--{name} takes one value for {cfg.command}, got "
                         f"{','.join(map(str, values))}")
    return values[0]


def _load_dict(cfg: RunConfig, frame_len: int) -> np.ndarray:
    if cfg.dict == "dct":
        return dct_dictionary(frame_len, 2 * frame_len)
    if cfg.dict.startswith("file:"):
        d = load_dictionary(cfg.dict[5:])
        if d.shape[0] != frame_len:
            raise ValueError(
                f"dictionary rows ({d.shape[0]}) do not match --frame ({frame_len})"
            )
        return d
    raise ValueError(f"--dict must be 'dct' or 'file:PATH', got {cfg.dict!r}")


def _emit_csv(cfg: RunConfig, rows, path) -> None:
    lines = _config_lines(cfg)
    write_rows_csv(path, rows, config_lines=lines)
    if cfg.stdout:
        write_rows_csv(sys.stdout, rows, config_lines=lines)
    _progress(f"wrote {len(rows)} rows to {path}")


def cmd_synth(cfg: RunConfig) -> int:
    spec = SyntheticSpec(seed=cfg.seed, count=cfg.count)
    if cfg.distortion == "clip":
        levels = cfg.theta if cfg.theta else list(spec.clip_levels)
    else:
        levels = cfg.bits if cfg.bits else list(spec.quant_bits)
    methods = [m.strip() for m in cfg.method.split(",") if m.strip()]
    params = _solve_params(cfg)
    rows, _ = run_synth(spec, cfg.distortion, levels, methods, params, cfg.seed)
    _emit_csv(cfg, rows, cfg.out or "synth_results.csv")
    return 0


def _distortion_tag(task: str, theta, bits) -> str:
    if task == "declip":
        return "clip:detected" if theta is None else f"clip:{theta:g}"
    if task == "dequant":
        return f"quant:{bits}"
    return "onebit"


def cmd_audio(cfg: RunConfig, task: str) -> int:
    samples, rate = wav_read(cfg.input)
    reference = None
    if cfg.reference:
        reference, _ = wav_read(cfg.reference)
    frame_spec = FrameSpec(cfg.frame, cfg.overlap)
    d = _load_dict(cfg, cfg.frame)
    params = _solve_params(cfg)
    if cfg.detect and cfg.theta:
        raise ValueError("--detect reads the clip level from the input; drop --theta")
    default_theta = 0.2 if task == "declip" and not cfg.detect else None
    theta = _one_level(cfg, "theta", default_theta)
    bits = _one_level(cfg, "bits", 3 if task == "dequant" else None)

    methods = [m.strip() for m in cfg.method.split(",") if m.strip()]
    rows = []
    estimate = None
    peak = np.max(np.abs(samples))
    for method in methods:
        result = run_audio(task, samples, frame_spec, params, theta=theta,
                           bits=bits, detect=bool(cfg.detect), method=method,
                           learn_dict=cfg.learn, dictionary=d,
                           reference=reference)
        tag = _distortion_tag(task, theta, bits)
        if result.snr_db is not None:
            rows.append(EvalRow(tag, result.method, result.snr_db,
                                result.runtime_s, cfg.seed))
            _progress(f"{tag} {result.method}: SNR {result.snr_db:.2f} dB")
        estimate = result.estimate

    out_wav = cfg.out or f"{cfg.input.rsplit('.', 1)[0]}_{task}_out.wav"
    est = estimate
    est_peak = np.max(np.abs(est))
    if task == "onebit" and est_peak > 0:
        est = est / est_peak  # amplitude is not recoverable from signs
    wav_write(out_wav, est * peak, rate)
    _progress(f"wrote {out_wav}")
    if rows:
        csv_path = out_wav.rsplit(".", 1)[0] + ".csv"
        _emit_csv(cfg, rows, csv_path)
    return 0


def cmd_baseline(cfg: RunConfig) -> int:
    samples, rate = wav_read(cfg.input)
    if not cfg.reference:
        raise ValueError("baseline rows report SNR and need --reference")
    reference, _ = wav_read(cfg.reference)
    frame_spec = FrameSpec(cfg.frame, cfg.overlap)
    d = _load_dict(cfg, cfg.frame)
    params = _solve_params(cfg)
    tasks = AUDIO_TASKS if cfg.task == "all" else (cfg.task,)
    theta = _one_level(cfg, "theta", 0.2)
    bits = _one_level(cfg, "bits", 3)
    rows = []
    for task in tasks:
        result = run_audio(task, samples, frame_spec, params,
                           theta=theta if task == "declip" else None,
                           bits=bits if task == "dequant" else None,
                           method="baseline", dictionary=d, reference=reference)
        tag = _distortion_tag(task, theta, bits)
        rows.append(EvalRow(tag, "baseline", result.snr_db,
                            result.runtime_s, cfg.seed))
        _progress(f"{tag} baseline: SNR {result.snr_db:.2f} dB "
                  f"({result.runtime_s:.2f} s)")
    _emit_csv(cfg, rows, cfg.out or "baseline_results.csv")
    return 0


def cmd_learn_dict(cfg: RunConfig) -> int:
    samples, _ = wav_read(cfg.input)
    theta = _one_level(cfg, "theta", 0.2)
    bits = _one_level(cfg, "bits", 3)
    if cfg.distortion == "clip":
        model = Clip(theta, -theta)
    elif cfg.distortion == "quant":
        model = uniform_quantizer_for_bits(bits)
    elif cfg.distortion == "onebit":
        model = OneBit()
    else:
        model = Identity()
    observations, _ = frame_observations(samples, FrameSpec(cfg.frame, cfg.overlap), model)
    d, _, trace = learn_dictionary(_load_dict(cfg, cfg.frame), observations,
                                   _solve_params(cfg))
    out = cfg.out or "dictionary.nlcsdict"
    save_dictionary(out, d)
    _progress(f"wrote {out} (final objective {trace.after_dict[-1]:.6g})"
              if trace.after_dict else f"wrote {out}")
    if cfg.text:
        export_dictionary_text(cfg.text, d)
        _progress(f"wrote {cfg.text}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _merge_config(args.command, args)
    try:
        if cfg.command == "synth":
            return cmd_synth(cfg)
        if cfg.command in AUDIO_TASKS:
            return cmd_audio(cfg, cfg.command)
        if cfg.command == "baseline":
            return cmd_baseline(cfg)
        if cfg.command == "learn-dict":
            return cmd_learn_dict(cfg)
        parser.error(f"unknown command {cfg.command!r}")
    except (ValueError, OSError, RuntimeError) as exc:
        _progress(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
