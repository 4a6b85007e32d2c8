import os
import runpy
import subprocess
import sys
import wave
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import nlcs.cli
from nlcs.cli import RunConfig, _build_parser, main
from nlcs.dictlearn import load_dictionary
from nlcs.linops import dct_dictionary
from nlcs.pipeline import speech_like_signal, wav_read, wav_write


def _strip_runtime(text: str) -> str:
    out = []
    for line in text.splitlines():
        if line.startswith("#") or "," not in line:
            out.append(line)
            continue
        parts = line.split(",")
        if parts[-2] != "runtime_s":
            parts[-2] = "X"
        out.append(",".join(parts))
    return "\n".join(out)


@pytest.fixture(scope="module")
def voice_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "voice.wav"
    wav_write(path, 0.9 * speech_like_signal(seed=3, seconds=0.5), 16000)
    return str(path)


class TestSynth:
    def test_single_level_adaptive(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main(["synth", "--distortion", "clip", "--theta", "0.4",
                   "--method", "adaptive", "--seed", "7", "--count", "20",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        header = [l for l in lines if l.startswith("distortion,")]
        assert header == ["distortion,method,snr_db,runtime_s,seed"]
        rows = [l for l in lines if not l.startswith("#") and not l.startswith("distortion,")]
        assert len(rows) == 1
        dist, method, snr, _, seed = rows[0].split(",")
        assert (dist, method, seed) == ("clip:0.4", "adaptive", "7")
        assert float(snr) > 5.0

    def test_quant_smoke(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main(["synth", "--distortion", "quant", "--bits", "3",
                   "--method", "fixed", "--lambda", "1e-2", "--seed", "1",
                   "--count", "10", "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("distortion,")]
        assert len(rows) == 1
        assert np.isfinite(float(rows[0].split(",")[2]))

    def test_deterministic_modulo_runtime(self, tmp_path):
        out = tmp_path / "a.csv"
        args = ["synth", "--distortion", "clip", "--theta", "0.4",
                "--method", "fixed", "--seed", "3", "--count", "10",
                "--out", str(out)]
        assert main(args) == 0
        first = out.read_text()
        assert main(args) == 0
        second = out.read_text()
        assert first != "" and _strip_runtime(first) == _strip_runtime(second)

    @pytest.mark.parametrize("distortion, tags", [
        ("clip", "clip:0.1 clip:0.2 clip:0.3 clip:0.4 clip:0.5 clip:0.6 clip:0.7 clip:0.8 "
                 "clip:0.9 clip:1"),
        ("quant", "quant:2 quant:3 quant:4 quant:5 quant:6 quant:7 quant:8")])
    def test_default_sweep(self, tmp_path, distortion, tags):
        # without --theta or --bits, synth sweeps the CLI's default levels in order
        out = tmp_path / "rows.csv"
        assert main(["synth", "--distortion", distortion, "--count", "1", "--method", "fixed",
                     "--iters", "1", "--out", str(out)]) == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()
                if not line.startswith(("#", "distortion,"))]
        assert rows == [[tag, "fixed"] for tag in tags.split()]

    def test_rerun_from_embedded_config(self, tmp_path):
        first = tmp_path / "first.csv"
        assert main(["synth", "--distortion", "clip", "--theta", "0.3",
                     "--method", "fixed", "--seed", "9", "--count", "8",
                     "--out", str(first)]) == 0
        second = tmp_path / "second.csv"
        assert main(["synth", "--config", str(first), "--out", str(second)]) == 0
        ta = _strip_runtime(first.read_text()).replace(str(first), "OUT")
        tb = _strip_runtime(second.read_text()).replace(str(second), "OUT")
        assert ta == tb

    def test_stdout_mirror(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["synth", "--distortion", "quant", "--bits", "4",
                     "--method", "fixed", "--seed", "2", "--count", "5",
                     "--out", str(out), "--stdout"]) == 0
        captured = capsys.readouterr()
        assert "distortion,method,snr_db,runtime_s,seed" in captured.out
        assert "quant:4,fixed," in captured.out
        assert "wrote" not in captured.out  # progress stays on stderr
        assert "wrote" in captured.err

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\ncount=6\nmethod=fixed\ndistortion=clip\ntheta=0.4\n")
        out = tmp_path / "rows.csv"
        assert main(["synth", "--config", str(cfg), "--seed", "8",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "seed=8" in text and "count=6" in text
        assert text.strip().splitlines()[-1].endswith(",8")


class TestAudioCommands:
    def test_declip_theta_one_hits_pcm_floor(self, voice_wav, tmp_path):
        out = tmp_path / "out.wav"
        rc = main(["declip", voice_wav, "--theta", "1.0", "--reference",
                   voice_wav, "--iters", "20", "--out", str(out)])
        assert rc == 0
        csv_text = (tmp_path / "out.csv").read_text()
        row = csv_text.strip().splitlines()[-1]
        snr = row.split(",")[2]
        assert snr == "inf" or float(snr) >= 90.0

    def test_declip_writes_outputs(self, voice_wav, tmp_path):
        out = tmp_path / "res.wav"
        rc = main(["declip", voice_wav, "--theta", "0.3", "--reference",
                   voice_wav, "--iters", "20", "--out", str(out)])
        assert rc == 0
        recon, rate = wav_read(out)
        orig, _ = wav_read(voice_wav)
        assert rate == 16000 and recon.shape == orig.shape
        row = (tmp_path / "res.csv").read_text().strip().splitlines()[-1]
        assert row.startswith("clip:0.3,iht,")

    def test_dequant_smoke(self, voice_wav, tmp_path):
        out = tmp_path / "dq.wav"
        rc = main(["dequant", voice_wav, "--bits", "3", "--reference",
                   voice_wav, "--iters", "20", "--out", str(out)])
        assert rc == 0
        row = (tmp_path / "dq.csv").read_text().strip().splitlines()[-1]
        assert row.startswith("quant:3,iht,")
        assert float(row.split(",")[2]) > 5.0

    def test_onebit_reports_angular_metric_row(self, voice_wav, tmp_path):
        out = tmp_path / "ob.wav"
        rc = main(["onebit", voice_wav, "--reference", voice_wav, "--dict",
                   "dct", "--method", "iht", "-K", "32", "--iters", "20",
                   "--out", str(out)])
        assert rc == 0
        row = (tmp_path / "ob.csv").read_text().strip().splitlines()[-1]
        assert row.startswith("onebit,iht,")
        assert np.isfinite(float(row.split(",")[2]))

    def test_detect_mode(self, voice_wav, tmp_path):
        clipped = tmp_path / "clipped.wav"
        x, rate = wav_read(voice_wav)
        wav_write(clipped, np.clip(x, -0.25, 0.25), rate)
        out = tmp_path / "det.wav"
        rc = main(["declip", str(clipped), "--detect", "--reference",
                   voice_wav, "--iters", "20", "--out", str(out)])
        assert rc == 0
        assert out.exists()


class TestBaseline:
    def test_all_three_tasks(self, voice_wav, tmp_path):
        out = tmp_path / "base.csv"
        rc = main(["baseline", voice_wav, "--theta", "0.3", "--bits", "3",
                   "--reference", voice_wav, "--iters", "20", "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("distortion,")]
        assert [r.split(",")[0] for r in rows] == ["clip:0.3", "quant:3", "onebit"]
        assert all(r.split(",")[1] == "baseline" for r in rows)

    def test_single_task(self, voice_wav, tmp_path):
        out = tmp_path / "base1.csv"
        rc = main(["baseline", voice_wav, "--task", "dequant", "--bits", "2",
                   "--iters", "10", "--reference", voice_wav, "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("distortion,")]
        assert len(rows) == 1 and rows[0].startswith("quant:2,baseline,")

    def test_reference_required(self, voice_wav, tmp_path):
        rc = main(["baseline", voice_wav, "--task", "dequant",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestLearnDict:
    def test_learn_and_reuse(self, voice_wav, tmp_path):
        dict_path = tmp_path / "d.nlcsdict"
        text_path = tmp_path / "d.txt"
        rc = main(["learn-dict", voice_wav, "--distortion", "clip", "--theta",
                   "0.3", "--iters", "3", "--inner-iters", "5", "-K", "16",
                   "--out", str(dict_path), "--text", str(text_path)])
        assert rc == 0
        d = load_dictionary(dict_path)
        assert d.shape == (256, 512)
        assert np.all(np.linalg.norm(d, axis=0) <= 1.0 + 1e-12)
        assert text_path.exists()
        out = tmp_path / "reuse.wav"
        rc = main(["declip", voice_wav, "--theta", "0.3", "--dict",
                   f"file:{dict_path}", "--reference", voice_wav,
                   "--iters", "10", "--out", str(out)])
        assert rc == 0

    def test_onebit_learning_moves_off_the_dct(self, voice_wav, tmp_path):
        # zero codes are a fixed point of the 1-bit cost, so learning must
        # start from the classical codes to change the dictionary at all
        dict_path = tmp_path / "ob.nlcsdict"
        rc = main(["learn-dict", voice_wav, "--distortion", "onebit", "--iters", "2",
                   "--inner-iters", "5", "-K", "16", "--out", str(dict_path)])
        assert rc == 0
        d = load_dictionary(dict_path)
        assert np.abs(d - dct_dictionary(256, 512)).max() > 1e-3


class TestErrors:
    def test_missing_input_file(self, tmp_path):
        rc = main(["declip", str(tmp_path / "nope.wav"), "--theta", "0.3"])
        assert rc == 1

    @pytest.mark.parametrize("command", [["declip", "--theta", "0.3"], ["learn-dict"]])
    def test_empty_wav(self, tmp_path, capsys, command):
        path = tmp_path / "empty.wav"
        wav_write(path, np.zeros(0), 16000)
        rc = main([command[0], str(path)] + command[1:] + ["--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"{path}: no audio samples" in capsys.readouterr().err

    def test_bad_dict_spec(self, voice_wav):
        rc = main(["declip", voice_wav, "--theta", "0.3", "--dict", "magic"])
        assert rc == 1

    def test_negative_overlap(self, voice_wav, tmp_path, capsys):
        rc = main(["declip", voice_wav, "--overlap", "-0.5", "--reference", voice_wav,
                   "--out", str(tmp_path / "o.wav")])
        assert rc == 1
        assert "error: overlap must lie in [0, 1), got -0.5" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_detect_with_theta_rejected(self, voice_wav, tmp_path, capsys):
        # detect mode reads the clip level from the input; a --theta would
        # only label the row with a level that was never used
        out = tmp_path / "o.wav"
        rc = main(["declip", voice_wav, "--detect", "--theta", "0.7",
                   "--reference", voice_wav, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --detect reads the clip level from the input; drop --theta"]
        assert not out.exists()

    @pytest.mark.parametrize("config, shown", [
        (None, "missing.cfg"),
        ("iters=abc\n", "invalid literal for int() with base 10: 'abc'"),
        ("iters=abc\n", "missing.cfg: iters=abc"),
        ("stdout=maybe\n", "not a boolean: 'maybe'"),
    ])
    def test_bad_config(self, tmp_path, capsys, config, shown):
        path = tmp_path / "missing.cfg"
        if config is not None:
            path.write_text(config)
        out = tmp_path / "rows.csv"
        rc = main(["synth", "--count", "2", "--config", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and shown in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("level", ["-0.2", "0"])
    @pytest.mark.parametrize("command", [["synth", "--count", "2"], ["declip", "VOICE"],
                                         ["learn-dict", "VOICE", "--distortion", "clip"]])
    def test_clip_level_must_be_positive(self, voice_wav, tmp_path, capsys, command, level):
        # one check of the clip level serves every command
        args = [voice_wav if a == "VOICE" else a for a in command]
        rc = main(args + [f"--theta={level}", "--out", str(tmp_path / "o.out")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: clip level must be positive, got {float(level)}"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [["declip"], ["baseline", "--reference", "SHORT"],
                                         ["learn-dict", "--distortion", "clip"]])
    def test_frame_longer_than_the_input(self, tmp_path, capsys, monkeypatch, command):
        # reported from the framing, before a dictionary of the frame's size is built
        import nlcs.cli
        import nlcs.experiments

        def refuse(*args):
            raise AssertionError("a dictionary was built before the input was framed")

        monkeypatch.setattr(nlcs.cli, "dct_dictionary", refuse)
        monkeypatch.setattr(nlcs.experiments, "dct_dictionary", refuse)
        short = tmp_path / "short.wav"
        wav_write(short, 0.9 * speech_like_signal(seed=3, seconds=0.1), 16000)
        args = [str(short) if a == "SHORT" else a for a in command[1:]]
        out = tmp_path / "o.out"
        rc = main([command[0], str(short), *args, "--frame", "4096", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: signal of length 1600 is shorter than one frame (4096)"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["declip", "--theta", "0.2,0.4"],
                                         ["dequant", "--bits", "3,4"]])
    def test_several_levels_rejected(self, voice_wav, tmp_path, capsys, command):
        out = tmp_path / "o.wav"
        rc = main([command[0], voice_wav] + command[1:]
                  + ["--reference", voice_wav, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {command[1]} takes one value for {command[0]}, "
                       f"got {command[2]}"]
        assert not out.exists()


@pytest.mark.parametrize("args, shown", [
    (["synth", "--count", "2", "--epsilon", "inf"],
     "epsilon must be a scalar or 1-d, finite and positive, got inf"),
    (["synth", "--count", "2", "--epsilon", "0"],
     "epsilon must be a scalar or 1-d, finite and positive, got 0.0"),
    (["synth", "--count", "2", "--lambda", "nan"],
     "lam must be a scalar or 1-d, finite and >= 0, got nan"),
    (["declip", "VOICE", "--lambda", "-1"],
     "lam must be a scalar or 1-d, finite and >= 0, got -1.0"),
    (["synth", "--count", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["declip", "NOT_WAV"], "NOT_WAV: not a complete RIFF/WAVE file"),
    (["declip", "CUT_SAMPLE"], "CUT_SAMPLE: not a complete RIFF/WAVE file"),
    (["declip", "CUT_FRAME"], "CUT_FRAME: not a complete RIFF/WAVE file"),
    (["declip", "VOICE", "--overlap", "1.5"], "overlap must lie in [0, 1), got 1.5"),
    (["declip", "VOICE", "-K", "0"], "sparsity must be in [1, 512], got 0"),
    (["dequant", "VOICE", "--bits", "0"], "bits must be in [1, 16], got 0"),
    (["declip", "VOICE", "--frame", "0"], "frame_len must be positive"),
    (["declip", "VOICE", "--theta", "0.2", "--iters", "5", "--out", "NO_DIR_WAV"],
     "[Errno 2] No such file or directory: 'NO_DIR_WAV'"),
    (["dequant", "VOICE", "--reference", "VOICE", "--out", "NO_DIR_WAV"],
     "[Errno 2] No such file or directory: 'NO_DIR_WAV'"),
    (["onebit", "VOICE", "--out", "NO_DIR_WAV"],
     "[Errno 2] No such file or directory: 'NO_DIR_WAV'"),
    (["synth", "--count", "2", "--out", "NO_DIR_OUT"],
     "[Errno 2] No such file or directory: 'NO_DIR_OUT'"),
    (["baseline", "VOICE", "--reference", "VOICE", "--out", "NO_DIR_OUT"],
     "[Errno 2] No such file or directory: 'NO_DIR_OUT'"),
    (["learn-dict", "VOICE", "--out", "NO_DIR_OUT"],
     "[Errno 2] No such file or directory: 'NO_DIR_OUT'"),
    (["learn-dict", "VOICE", "--text", "NO_DIR_OUT"],
     "[Errno 2] No such file or directory: 'NO_DIR_OUT'"),
    (["synth", "--count", "2", "--theta", "0.4", "--method", "fixed", "--out", "IS_DIR"],
     "[Errno 21] Is a directory: 'IS_DIR'"),
    (["declip", "VOICE", "--theta", "0.2", "--iters", "5", "--out", "IS_DIR"],
     "[Errno 21] Is a directory: 'IS_DIR'"),
    (["learn-dict", "VOICE", "--out", "IS_DIR"], "[Errno 21] Is a directory: 'IS_DIR'"),
    (["learn-dict", "VOICE", "--text", "IS_DIR"], "[Errno 21] Is a directory: 'IS_DIR'"),
], ids=["epsilon-inf", "epsilon-zero", "lambda-nan", "lambda-negative", "seed-negative",
        "not-a-wav", "wav-cut-mid-sample", "wav-cut-mid-frame", "overlap-1.5", "k-zero",
        "bits-zero", "frame-zero", "out-dir-missing", "dequant-out-dir-missing",
        "onebit-out-dir-missing", "synth-out-dir-missing", "baseline-out-dir-missing",
        "learn-dict-out-dir-missing", "learn-dict-text-dir-missing", "synth-out-is-dir",
        "declip-out-is-dir", "learn-dict-out-is-dir", "learn-dict-text-is-dir"])
def test_bad_invocation_is_one_error_line(voice_wav, tmp_path, capsys, monkeypatch, args, shown):
    # refused before the input is read or solved
    if any(a.startswith(("NO_DIR", "IS_DIR")) for a in args):

        def refuse(*called, **kwargs):
            raise AssertionError("worked before the output directory was checked")

        for name in ("run_audio", "run_synth", "learn_dictionary", "wav_read"):
            monkeypatch.setattr(nlcs.cli, name, refuse)
    not_wav = tmp_path / "notawav.wav"
    not_wav.write_text("hello")
    names = {"VOICE": voice_wav, "NOT_WAV": str(not_wav),
             "NO_DIR_WAV": str(tmp_path / "missing" / "x.wav"),
             "NO_DIR_OUT": str(tmp_path / "missing" / "x.out"), "IS_DIR": str(tmp_path)}
    stereo = tmp_path / "stereo.wav"
    with wave.open(str(stereo), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(bytes(4 * 1000))
    # a data chunk that ends 3 bytes short stops inside a sample, 2 bytes short inside a frame
    for name, cut in (("CUT_SAMPLE", 3), ("CUT_FRAME", 2)):
        names[name] = str(tmp_path / f"{name.lower()}.wav")
        with open(names[name], "wb") as fh:
            fh.write(stereo.read_bytes()[:-cut])
    argv = [names.get(a, a) for a in args]
    rc = main(argv if "--out" in argv else argv + ["--out", str(tmp_path / "o.out")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    for name in ("NOT_WAV", "CUT_SAMPLE", "CUT_FRAME", "NO_DIR_WAV", "NO_DIR_OUT", "IS_DIR"):
        shown = shown.replace(name, names[name])
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(shown)


def test_unwritable_output_wav_is_one_line_from_the_interpreter(voice_wav, tmp_path):
    # a failed wave.open(path) once left a writer whose __del__ printed a
    # traceback at garbage collection, where capsys does not look
    out = tmp_path / "missing" / "x.wav"
    env = {**os.environ, "PYTHONPATH": str(Path(nlcs.cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "nlcs", "declip", voice_wav, "--theta", "0.2",
                           "--iters", "5", "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [f"error: [Errno 2] No such file or directory: '{out}'"]


@pytest.mark.parametrize("args, shown", [
    (["synth", "--count", "2", "--frame", "128"], "unrecognized arguments: --frame 128"),
    (["synth", "--count", "2", "--iters", "abc"], "argument --iters: invalid int value: 'abc'"),
], ids=["flag-synth-does-not-take", "iters-abc"])
def test_bad_usage_is_one_error_line(capsys, args, shown):
    # a usage error is argparse's, with its status 2 (program errors exit 1),
    # on one line that names the subcommand
    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: nlcs synth: {shown}"]


class TestMethodList:
    """--method is checked before anything is solved, with a one-line error."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        import nlcs.experiments

        def refuse(*args, **kwargs):
            raise AssertionError("solved before the method list was checked")

        monkeypatch.setattr(nlcs.experiments, "_solve", refuse)
        monkeypatch.setattr(nlcs.experiments, "learn_dictionary", refuse)

    @pytest.mark.parametrize("methods, message", [
        ("adaptive,bogus", "unknown method 'bogus' (choose from fixed,adaptive,iht,baseline)"),
        ("adaptive,adaptive", "method 'adaptive' is listed twice"),
    ])
    def test_synth(self, tmp_path, capsys, no_solve, methods, message):
        out = tmp_path / "rows.csv"
        rc = main(["synth", "--method", methods, "--count", "200", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["declip", "dequant", "onebit"])
    @pytest.mark.parametrize("methods, message", [
        ("iht,bogus", "unknown method 'bogus' (choose from fixed,adaptive,iht,baseline)"),
        ("iht,fixed,iht", "method 'iht' is listed twice"),
        (",", "unknown method '' (choose from fixed,adaptive,iht,baseline)"),
        ("iht,fixed --learn", "dictionary learning is only wired to the iht coder"),
    ])
    def test_audio(self, voice_wav, tmp_path, capsys, no_solve, command, methods, message):
        out = tmp_path / "o.wav"
        rc = main([command, voice_wav, "--method", *methods.split(), "--reference", voice_wav,
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists() and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("methods, named", [
        ("fixed", "fixed"), ("adaptive", "adaptive"), ("iht,adaptive,fixed", "adaptive")])
    def test_onebit_rejects_the_l1_coders(self, voice_wav, tmp_path, capsys, no_solve,
                                          methods, named):
        # the origin is consistent with every sign pattern, so l1 codes go to zero
        out = tmp_path / "o.wav"
        rc = main(["onebit", voice_wav, "--method", methods, "--reference", voice_wav,
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: method '{named}' does not apply to onebit: l1 codes collapse to zero "
            "on sign data (F(0) = 0 < lam ||a||_1 <= F(a) for a != 0)"]
        assert not out.exists() and not (tmp_path / "o.csv").exists()


class TestSettings:
    """Each subcommand takes, applies from --config and records only the settings it reads."""

    # an otherwise valid, quick invocation of each command; OUT is the output path
    BASE = {
        "synth": ["--count", "2", "--method", "iht", "--theta", "0.4"],
        "onebit": ["VOICE", "--iters", "2"],
        "baseline": ["VOICE", "--task", "dequant", "--reference", "VOICE", "--iters", "2"],
        "learn-dict": ["VOICE", "--iters", "1", "--inner-iters", "2", "-K", "4"],
    }

    @pytest.mark.parametrize("command, flag", [
        ("synth", ["--inner-iters", "5"]), ("synth", ["--frame", "128"]),
        ("synth", ["--overlap", "0.5"]), ("synth", ["--dict", "dct"]),
        ("onebit", ["--lambda", "0.01"]), ("onebit", ["--epsilon", "0.001"]),
        ("onebit", ["--decay", "0.5"]),
        ("baseline", ["--method", "baseline"]), ("baseline", ["--lambda", "0.01"]),
        ("baseline", ["--epsilon", "0.001"]), ("baseline", ["--decay", "0.5"]),
        ("baseline", ["--inner-iters", "5"]), ("baseline", ["--learn"]),
        ("learn-dict", ["--seed", "1"]), ("learn-dict", ["--method", "iht"]),
        ("learn-dict", ["--lambda", "0.01"]), ("learn-dict", ["--epsilon", "0.001"]),
        ("learn-dict", ["--decay", "0.5"]), ("learn-dict", ["--stdout"]),
        ("learn-dict", ["--learn"]), ("learn-dict", ["--reference", "VOICE"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_flag_the_command_does_not_read_is_refused(self, voice_wav, tmp_path, capsys,
                                                       command, flag):
        out = tmp_path / "o.out"
        args = [voice_wav if a == "VOICE" else a for a in self.BASE[command] + flag]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_settings_match_the_run_config(self):
        # built from the parser: no setting that no command reads, no flag without a field
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        taken = {command: {a.dest for a in p._actions} - {"help", "config"}
                 for command, p in sub.choices.items()}
        names = {f.name for f in fields(RunConfig)} - {"command"}
        assert set().union(*taken.values()) == names
        assert sum(len(dests - {"input"}) for dests in taken.values()) == 81  # flags

    @pytest.mark.parametrize("command, args, keys", [
        ("synth", ["--distortion", "clip", "--theta", "0.4", "--bits", "3", "--method", "fixed",
                   "--count", "4", "--seed", "2"],
         "out seed method lam epsilon decay iters k distortion theta bits count stdout"),
        ("declip", ["VOICE", "--theta", "0.4", "--reference", "VOICE", "--iters", "5"],
         "input out seed method lam epsilon decay iters inner_iters k frame overlap dict learn "
         "reference theta detect stdout"),
        ("dequant", ["VOICE", "--bits", "3", "--reference", "VOICE", "--iters", "5"],
         "input out seed method lam epsilon decay iters inner_iters k frame overlap dict learn "
         "reference bits stdout"),
        ("onebit", ["VOICE", "--reference", "VOICE", "--iters", "5"],
         "input out seed method iters inner_iters k frame overlap dict learn reference stdout"),
        ("baseline", ["VOICE", "--theta", "0.4", "--bits", "3", "--reference", "VOICE",
                      "--iters", "5"],
         "input out seed iters k frame overlap dict reference theta bits stdout task"),
    ])
    def test_csv_records_its_settings_and_replays(self, voice_wav, tmp_path, command, args,
                                                  keys):
        audio = command in ("declip", "dequant", "onebit")  # these write a wav and a CSV beside it
        first, second = (tmp_path / f"{name}.{'wav' if audio else 'csv'}"
                         for name in ("first", "second"))
        args = [voice_wav if a == "VOICE" else a for a in args]
        assert main([command, *args, "--out", str(first)]) == 0
        first_csv, second_csv = (p.with_suffix(".csv") for p in (first, second))
        recorded = [line[2:].partition("=")[0] for line in first_csv.read_text().splitlines()
                    if line.startswith("# ")]
        assert recorded == ["command", *keys.split()]
        rerun = [command, voice_wav] if command != "synth" else [command]
        assert main([*rerun, "--config", str(first_csv), "--out", str(second)]) == 0
        ta = _strip_runtime(first_csv.read_text()).replace(str(first), "OUT")
        tb = _strip_runtime(second_csv.read_text()).replace(str(second), "OUT")
        assert ta == tb

    def test_config_keys_the_command_does_not_read_are_ignored(self, tmp_path):
        # a declip CSV's frame, dict and detect replay into synth as no-ops
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# command=declip\n# frame=abc\n# dict=file:/nonexistent\n"
                       "# detect=maybe\n# count=3\n# method=iht\n")
        out = tmp_path / "rows.csv"
        assert main(["synth", "--config", str(cfg), "--theta", "0.4", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# command=synth" in text and "# count=3" in text and "# method=iht" in text
        assert "frame=" not in text and "dict=" not in text and "detect=" not in text

    @pytest.mark.parametrize("args, message", [
        (["synth", "--count", "2", "--distortion", "onebit"], "unknown distortion 'onebit'"),
        (["learn-dict", "VOICE", "--distortion", "bogus"], "unknown distortion 'bogus'"),
        (["baseline", "VOICE", "--task", "bogus", "--reference", "VOICE"],
         "unknown task 'bogus' (choose from declip,dequant,onebit,all)"),
    ], ids=["synth-distortion", "learn-dict-distortion", "baseline-task"])
    def test_bad_choice_is_one_error_line(self, voice_wav, tmp_path, capsys, args, message):
        out = tmp_path / "o.out"
        rc = main([voice_wav if a == "VOICE" else a for a in args] + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path, monkeypatch):
    out = tmp_path / "rows.csv"
    monkeypatch.setattr(sys, "argv", ["nlcs", "synth", "--distortion", "clip",
                                      "--theta", "0.4", "--method", "iht",
                                      "--count", "2", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("nlcs", run_name="__main__")
    assert exc.value.code == 0
    assert out.read_text().strip().splitlines()[-1].startswith("clip:0.4,iht,")
