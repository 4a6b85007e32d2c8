import numpy as np
import pytest

from nlcs.measurements import apply_measurement
from nlcs.pipeline import (
    EvalRow,
    FrameSpec,
    SyntheticSpec,
    angular_snr_db,
    frame_signal,
    gen_synthetic,
    overlap_add,
    snr_db,
    speech_like_signal,
    uniform_quantizer_for_bits,
    wav_read,
    wav_write,
    write_rows_csv,
)


class TestGenSynthetic:
    def test_same_seed_is_bit_identical(self):
        spec = SyntheticSpec(seed=5, count=20)
        d1, c1, s1 = gen_synthetic(spec)
        d2, c2, s2 = gen_synthetic(spec)
        assert np.array_equal(d1, d2)
        assert np.array_equal(c1, c2)
        assert np.array_equal(s1, s2)

    def test_single_atom_signals_are_scaled_columns(self):
        spec = SyntheticSpec(seed=1, sparsity=1, count=10)
        d, codes, signals = gen_synthetic(spec)
        for t in range(10):
            (atom,) = np.flatnonzero(codes[:, t])
            want = d[:, atom] * codes[atom, t]
            assert signals[:, t] == pytest.approx(want)
            assert np.abs(signals[:, t]).max() == pytest.approx(1.0)

    def test_default_ensemble_audit(self):
        spec = SyntheticSpec(seed=2, count=50)
        d, codes, signals = gen_synthetic(spec)
        assert d.shape == (32, 64)
        assert np.abs(np.linalg.norm(d, axis=0) - 1.0).max() < 1e-12
        assert np.all(np.count_nonzero(codes, axis=0) == spec.sparsity)
        assert np.abs(np.abs(signals).max(axis=0) - 1.0).max() < 1e-12

    def test_rejects_oversized_sparsity(self):
        with pytest.raises(ValueError):
            SyntheticSpec(sparsity=65)


class TestUniformQuantizerForBits:
    def test_one_bit_codewords(self):
        q = uniform_quantizer_for_bits(1)
        assert q.codewords == pytest.approx(np.array([-0.5, 0.5]))

    def test_three_bit_spacing(self):
        q = uniform_quantizer_for_bits(3)
        assert np.diff(q.codewords) == pytest.approx(np.full(7, 0.25))

    def test_saturation_of_overshoot(self):
        # oracle: enumerate the bins of the 2-bit quantizer over [-1, 1]
        q = uniform_quantizer_for_bits(2)
        obs = apply_measurement(q, np.array([0.99]))
        edges = [-1.0, -0.5, 0.0, 0.5, 1.0]
        centers = [-0.75, -0.25, 0.25, 0.75]
        idx = max(b for b in range(4) if 0.99 >= edges[b])
        assert obs.values[0] == pytest.approx(centers[idx]) == pytest.approx(0.75)
        assert apply_measurement(q, np.array([1.0])).values[0] == pytest.approx(0.75)

    @pytest.mark.parametrize("bits", [0, 17])
    def test_rejects_out_of_range(self, bits):
        with pytest.raises(ValueError):
            uniform_quantizer_for_bits(bits)


class TestFraming:
    def test_exact_fit_single_frame(self):
        frames = frame_signal(np.ones(256), FrameSpec(256, 0.75))
        assert frames.shape == (256, 1)

    def test_two_frames_no_padding(self):
        frames = frame_signal(np.arange(320.0), FrameSpec(256, 0.75))
        assert frames.shape == (256, 2)
        assert frames[0, 1] == 64.0

    def test_thirteen_frames(self):
        spec = FrameSpec(256, 0.75)
        x = np.random.default_rng(0).standard_normal(1000)
        frames = frame_signal(x, spec)
        assert frames.shape[1] == 13
        back = overlap_add(frames, spec, 1000)
        assert np.abs(back - x).max() < 1e-12

    def test_single_frame_roundtrip(self):
        spec = FrameSpec(64, 0.5)
        x = np.random.default_rng(1).standard_normal(64)
        assert overlap_add(frame_signal(x, spec), spec, 64) == pytest.approx(x)

    def test_constant_frames_stay_constant(self):
        spec = FrameSpec(16, 0.75)
        frames = np.ones((16, 5))
        out = overlap_add(frames, spec, (5 - 1) * 4 + 16)
        assert out == pytest.approx(np.ones_like(out))

    @pytest.mark.parametrize("frame_len,overlap", [(256, 0.75), (64, 0.5),
                                                   (100, 0.9), (32, 0.0)])
    def test_roundtrip_any_spec(self, frame_len, overlap):
        spec = FrameSpec(frame_len, overlap)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(777)
        back = overlap_add(frame_signal(x, spec), spec, 777)
        assert np.abs(back - x).max() < 1e-12

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            frame_signal(np.ones(100), FrameSpec(256, 0.75))

    def test_fractional_hop_rejected(self):
        with pytest.raises(ValueError):
            FrameSpec(10, 0.85)

    @pytest.mark.parametrize("overlap", [-0.5, 1.0, 1.5, float("nan")])
    def test_overlap_outside_unit_interval_rejected(self, overlap):
        with pytest.raises(ValueError, match=r"overlap must lie in \[0, 1\)"):
            FrameSpec(256, overlap)


class TestMetrics:
    def test_exact_match_is_infinite(self):
        x = np.array([1.0, 2.0])
        assert snr_db(x, x) == np.inf

    def test_zero_estimate_is_zero_db(self):
        x = np.array([3.0, -4.0])
        assert snr_db(np.zeros(2), x) == pytest.approx(0.0)

    def test_twenty_db(self):
        x = np.array([1.0, 0.0])
        xhat = np.array([0.9, 0.0])
        assert snr_db(xhat, x) == pytest.approx(20.0)

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(32)
        xhat = x + 0.1 * rng.standard_normal(32)
        for c in (0.5, 2.0, 117.0):
            assert snr_db(c * xhat, c * x) == pytest.approx(snr_db(xhat, x))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            snr_db(np.ones(3), np.zeros(3))

    def test_angular_scale_invariance_in_estimate(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(16)
        xhat = x + 0.2 * rng.standard_normal(16)
        base = angular_snr_db(xhat, x)
        for c in (0.1, 3.0, 42.0):
            assert angular_snr_db(c * xhat, x) == pytest.approx(base)

    def test_angular_positive_multiple_is_perfect(self):
        x = np.array([1.0, -2.0, 0.5])
        assert angular_snr_db(3.0 * x, x) == np.inf

    def test_angular_sign_flip(self):
        x = np.array([1.0, -2.0, 0.5])
        assert angular_snr_db(-x, x) == pytest.approx(20 * np.log10(0.5))

    def test_angular_zero_estimate_rejected(self):
        with pytest.raises(ValueError):
            angular_snr_db(np.zeros(3), np.ones(3))


class TestWav:
    def test_roundtrip_error_bound(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.99, 0.99, size=500)
        path = tmp_path / "x.wav"
        wav_write(path, x, 16000)
        back, rate = wav_read(path)
        assert rate == 16000
        assert np.abs(back - x).max() <= 2.0 ** -15

    def test_sample_scaling(self, tmp_path):
        path = tmp_path / "one.wav"
        wav_write(path, np.array([1.0]), 8000)  # clamps to 32767
        back, _ = wav_read(path)
        assert back[0] == pytest.approx(0.999969482421875)

    def test_round_half_away_from_zero(self, tmp_path):
        path = tmp_path / "r.wav"
        wav_write(path, np.array([0.5 / 32768.0, -0.5 / 32768.0]), 8000)
        back, _ = wav_read(path)
        assert back[0] == pytest.approx(1.0 / 32768.0)
        assert back[1] == pytest.approx(-1.0 / 32768.0)

    def test_stereo_takes_first_channel(self, tmp_path):
        import wave

        path = tmp_path / "st.wav"
        left = np.array([100, 200, 300], dtype="<i2")
        right = np.array([-1, -2, -3], dtype="<i2")
        inter = np.empty(6, dtype="<i2")
        inter[0::2] = left
        inter[1::2] = right
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(inter.tobytes())
        back, _ = wav_read(path)
        assert back == pytest.approx(left / 32768.0)

    def test_wrong_width_rejected(self, tmp_path):
        import wave

        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x10\x20")
        with pytest.raises(ValueError):
            wav_read(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFFgarbage")
        with pytest.raises(ValueError):
            wav_read(path)


class TestCsv:
    def test_format(self, tmp_path):
        rows = [EvalRow("clip:0.2", "adaptive", np.inf, 1.234567, 7),
                EvalRow("quant:3", "fixed", 12.3456789, 0.5, 7)]
        path = tmp_path / "rows.csv"
        write_rows_csv(path, rows, config_lines=["seed=7"])
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "# seed=7"
        assert lines[1] == "distortion,method,snr_db,runtime_s,seed"
        assert lines[2] == "clip:0.2,adaptive,inf,1.23457,7"
        assert lines[3] == "quant:3,fixed,12.3457,0.5,7"


class TestSpeechLike:
    def test_deterministic_and_unit_peak(self):
        a = speech_like_signal(seed=4, seconds=0.25)
        b = speech_like_signal(seed=4, seconds=0.25)
        assert np.array_equal(a, b)
        assert np.abs(a).max() == pytest.approx(1.0)
        assert a.shape[0] == 4000

    def test_two_seconds_fills_frame_grid_exactly(self):
        x = speech_like_signal(seed=0, seconds=2.0)
        assert (x.shape[0] - 256) % 64 == 0
