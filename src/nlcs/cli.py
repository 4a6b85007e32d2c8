"""Command-line front end.

Subcommands: synth, declip, dequant, onebit, baseline, learn-dict.  Each
setting is declared once, as a RunConfig field with its flag, parser and
help; each subcommand once, in _COMMANDS, with its help, its defaults and
the settings it reads.  A subcommand takes the flags of those settings
only, and its --config applies only their keys, ignoring any other.
Values come from the defaults, then an optional --config file, then
explicit flags.  Each output CSV records the settings its command read as
comment lines, so any result can be reproduced from its own CSV.  Progress
goes to stderr; stdout is reserved for CSV when --stdout is set.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence

import numpy as np

from .dictlearn import export_dictionary_text, load_dictionary, save_dictionary
from .experiments import (
    AUDIO_TASKS,
    SolveParams,
    check_methods,
    distortion,
    frame_batch,
    learn_dictionary,
    measure_audio,
    run_audio,
    run_synth,
)
from .linops import dct_dictionary
from .pipeline import (
    EvalRow,
    FrameSpec,
    SyntheticSpec,
    wav_read,
    wav_write,
    write_rows_csv,
)


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


def _setting(flag: str, parse, default=None, help: Optional[str] = None):
    """A RunConfig field that is a CLI setting: its flag ('input' is the
    positional), the parser of its flag and --config value (_parse_bool: an
    on-switch) and its help."""
    return field(default=default, metadata={"cli": (flag, parse, help)})


@dataclass
class RunConfig:
    """One run's settings: each field but command is a CLI setting."""

    command: str = ""
    input: Optional[str] = _setting("input", str, help="wav file to read")
    out: Optional[str] = _setting("--out", str, help="output path")
    seed: int = _setting("--seed", int, 0)
    method: str = _setting("--method", str, "", "comma list of fixed,adaptive,iht,baseline")
    lam: float = _setting("--lambda", float, SolveParams.lam, "l1 weight of the fixed coder")
    epsilon: float = _setting("--epsilon", float, SolveParams.epsilon,
                              "consistency target of the adaptive coder")
    decay: float = _setting("--decay", float, SolveParams.decay,
                            "lambda factor per adaptive stage")
    iters: int = _setting("--iters", int, SolveParams.iters,
                          "iterations per solve, and outer iterations of learning")
    inner_iters: int = _setting("--inner-iters", int, SolveParams.inner_iters,
                                "coding and dictionary steps per learning iteration")
    k: int = _setting("-K", int, SolveParams.k, "nonzeros per iht code")
    frame: int = _setting("--frame", int, FrameSpec.frame_len, "frame length in samples")
    overlap: float = _setting("--overlap", float, FrameSpec.overlap, "frame overlap in [0, 1)")
    dict: str = _setting("--dict", str, "dct", "dct or file:PATH")
    learn: bool = _setting("--learn", _parse_bool, False, "learn the dictionary as it codes")
    reference: Optional[str] = _setting("--reference", str, help="clean wav to score against")
    distortion: str = _setting("--distortion", str, "clip",
                               "clip or quant; learn-dict also takes onebit and none")
    theta: Optional[List[float]] = _setting("--theta", _parse_float_list, help="clip level(s)")
    bits: Optional[List[int]] = _setting("--bits", _parse_int_list, help="quantizer bits")
    count: int = _setting("--count", int, SyntheticSpec.count, "signals in the ensemble")
    detect: bool = _setting("--detect", _parse_bool, False, "read the clip level from the input")
    stdout: bool = _setting("--stdout", _parse_bool, False, "also write the CSV to stdout")
    task: str = _setting("--task", str, "all", "declip, dequant, onebit or all")
    text: Optional[str] = _setting("--text", str, help="also export the dictionary as text")


# setting -> (flag, parser, help)
_SETTINGS = {f.name: f.metadata["cli"] for f in fields(RunConfig) if f.metadata}

_AUDIO = ("input out seed method lam epsilon decay iters inner_iters k frame overlap dict learn "
          "reference")
_COMMANDS = {  # subcommand -> (help, defaults, the settings it reads)
    "synth": ("distortion sweep on a synthetic ensemble", {"method": "adaptive,fixed"},
              "out seed method lam epsilon decay iters k distortion theta bits count stdout"),
    "declip": ("declip a wav file", {"method": "iht", "iters": 50},
               _AUDIO + " theta detect stdout"),
    "dequant": ("dequantize a wav file", {"method": "iht", "iters": 50}, _AUDIO + " bits stdout"),
    "onebit": ("recover a wav file from its signs", {"method": "iht", "iters": 50},
               "input out seed method iters inner_iters k frame overlap dict learn reference "
               "stdout"),
    "baseline": ("classical linear baselines", {"iters": 50},
                 "input out seed iters k frame overlap dict reference theta bits stdout task"),
    "learn-dict": ("learn a dictionary from a wav file", {"iters": 50},
                   "input out iters inner_iters k frame overlap dict distortion theta bits text"),
}


def _reads(command: str) -> List[str]:
    return _COMMANDS[command][2].split()


def _load_config_file(path, parsers: dict) -> dict:
    """The parsed values a flat key=value file gives the settings in parsers
    (name -> parser).  --config applies only the keys its subcommand reads:
    other keys and lines without '=' are ignored, and a leading '#' is
    stripped, so the CSV of any earlier run can be fed back directly."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            key, eq, val = raw.strip().lstrip("#").partition("=")
            key, val = key.strip(), val.strip()
            if eq and key in parsers:
                try:
                    values[key] = parsers[key](val)
                except ValueError as exc:
                    raise ValueError(f"{path}: {key}={val}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    reads = _reads(args.command)
    parsers = {name: _SETTINGS[name][1] for name in reads}
    from_file = _load_config_file(args.config, parsers) if args.config else {}
    from_flags = {name: getattr(args, name) for name in reads if getattr(args, name) is not None}
    return RunConfig(command=args.command,
                     **{**_COMMANDS[args.command][1], **from_file, **from_flags})


def _config_lines(cfg: RunConfig) -> List[str]:
    """command=..., then each setting the command reads that has a value, in field order."""
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if val is None or f.name not in ("command", *_reads(cfg.command)):
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


class _Parser(argparse.ArgumentParser):
    """Usage errors are one line naming the (sub)command, with argparse's status 2.  A
    subcommand refuses what it does not know: argparse would pass it up to the top level."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlcs",
        description="Consistent sparse recovery from clipped, quantized and 1-bit data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in _reads(command):
            flag, parse, text = _SETTINGS[name]
            kind = (dict(action="store_const", const=True) if parse is _parse_bool
                    else dict(type=parse))
            p.add_argument(flag, **kind, help=text,
                           **({"dest": name} if flag.startswith("-") else {}))
        p.add_argument("--config", help="key=value file; explicit flags override it")
    return parser


def _solve_params(cfg: RunConfig) -> SolveParams:
    return SolveParams(lam=cfg.lam, epsilon=cfg.epsilon, decay=cfg.decay,
                       iters=cfg.iters, k=cfg.k,
                       outer_iters=cfg.iters, inner_iters=cfg.inner_iters)


# distortion kind -> (its level setting, the audio commands' default, synth's default sweep)
_LEVEL_FLAGS = {"clip": ("theta", 0.2, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
                "quant": ("bits", 3, (2, 3, 4, 5, 6, 7, 8))}


def _level(cfg: RunConfig, kind: str):
    """The one level cfg sets for a distortion kind, its default if unset,
    and None for a kind that takes no level."""
    if kind not in _LEVEL_FLAGS:
        return None
    name, default, _ = _LEVEL_FLAGS[kind]
    values = getattr(cfg, name) or [default]
    if len(values) > 1:
        raise ValueError(f"--{name} takes one value for {cfg.command}, got "
                         f"{','.join(map(str, values))}")
    return values[0]


def _load_dict(cfg: RunConfig, frame_len: int) -> Optional[np.ndarray]:
    """The --dict file's dictionary, or None for the DCT, which run_audio
    builds once the input has been framed."""
    if cfg.dict == "dct":
        return None
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
    # run_synth rejects a kind without levels
    name, _, sweep = _LEVEL_FLAGS.get(cfg.distortion, ("theta", None, ()))
    levels = getattr(cfg, name) or list(sweep)
    methods = [m.strip() for m in cfg.method.split(",") if m.strip()]
    params = _solve_params(cfg)
    rows, _ = run_synth(spec, cfg.distortion, levels, methods, params, cfg.seed)
    _emit_csv(cfg, rows, cfg.out or "synth_results.csv")
    return 0


def _rows(cfg: RunConfig, results) -> List[EvalRow]:
    """One CSV row, with a progress line, per audio result that has an SNR."""
    rows = []
    for r in results:
        if r.snr_db is not None:
            rows.append(EvalRow(r.distortion, r.method, r.snr_db, r.runtime_s, cfg.seed))
            _progress(f"{r.distortion} {r.method}: SNR {r.snr_db:.2f} dB ({r.runtime_s:.2f} s)")
    return rows


def cmd_audio(cfg: RunConfig, task: str) -> int:
    methods = [m.strip() for m in cfg.method.split(",") if m.strip()]
    check_methods(methods, cfg.learn, task)  # before anything is read or solved
    if cfg.detect and cfg.theta:
        raise ValueError("--detect reads the clip level from the input; drop --theta")
    level = None if cfg.detect and task == "declip" else _level(cfg, AUDIO_TASKS[task])
    samples, rate = wav_read(cfg.input)
    reference = wav_read(cfg.reference)[0] if cfg.reference else None
    results = run_audio(task, samples, FrameSpec(cfg.frame, cfg.overlap), _solve_params(cfg),
                        methods, level=level, learn_dict=cfg.learn,
                        dictionary=_load_dict(cfg, cfg.frame), reference=reference)
    rows = _rows(cfg, results)

    out_wav = cfg.out or f"{cfg.input.rsplit('.', 1)[0]}_{task}_out.wav"
    est = results[-1].estimate  # the last method's
    est_peak = np.max(np.abs(est))
    if task == "onebit" and est_peak > 0:
        est = est / est_peak  # amplitude is not recoverable from signs
    wav_write(out_wav, est * np.max(np.abs(samples)), rate)
    _progress(f"wrote {out_wav}")
    if rows:
        _emit_csv(cfg, rows, out_wav.rsplit(".", 1)[0] + ".csv")
    return 0


def cmd_baseline(cfg: RunConfig) -> int:
    if cfg.task != "all" and cfg.task not in AUDIO_TASKS:
        raise ValueError(f"unknown task {cfg.task!r} (choose from {','.join(AUDIO_TASKS)},all)")
    samples, rate = wav_read(cfg.input)
    if not cfg.reference:
        raise ValueError("baseline rows report SNR and need --reference")
    reference, _ = wav_read(cfg.reference)
    frame_spec = FrameSpec(cfg.frame, cfg.overlap)
    d = _load_dict(cfg, cfg.frame)
    params = _solve_params(cfg)
    tasks = AUDIO_TASKS if cfg.task == "all" else (cfg.task,)
    levels = [_level(cfg, AUDIO_TASKS[task]) for task in tasks]  # checked before any solve
    rows = []
    for task, level in zip(tasks, levels):
        rows += _rows(cfg, run_audio(task, samples, frame_spec, params, ["baseline"],
                                     level=level, dictionary=d, reference=reference))
    _emit_csv(cfg, rows, cfg.out or "baseline_results.csv")
    return 0


def cmd_learn_dict(cfg: RunConfig) -> int:
    model, _ = distortion(cfg.distortion, _level(cfg, cfg.distortion))
    samples, _ = wav_read(cfg.input)
    frame_spec = FrameSpec(cfg.frame, cfg.overlap)
    obs, _ = measure_audio(samples, frame_spec, model)
    d0 = _load_dict(cfg, cfg.frame)
    d, _, trace = learn_dictionary(dct_dictionary(cfg.frame, 2 * cfg.frame) if d0 is None
                                   else d0, frame_batch(obs, frame_spec), _solve_params(cfg))
    out = cfg.out or "dictionary.nlcsdict"
    save_dictionary(out, d)
    _progress(f"wrote {out} (final objective {trace.after_dict[-1]:.6g})"
              if trace.after_dict else f"wrote {out}")
    if cfg.text:
        export_dictionary_text(cfg.text, d)
        _progress(f"wrote {cfg.text}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        # fail before any work, as opening it would (a default output lies in the working
        # directory or beside the input, an audio CSV in --out's directory or above it)
        for path in filter(None, (cfg.out, cfg.text)):
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if cfg.command in AUDIO_TASKS:
            return cmd_audio(cfg, cfg.command)
        return {"synth": cmd_synth, "baseline": cmd_baseline,
                "learn-dict": cmd_learn_dict}[cfg.command](cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        _progress(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
