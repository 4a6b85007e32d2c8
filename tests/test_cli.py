import numpy as np
import pytest

from nlcs.cli import main
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
