import numpy as np
import pytest

from nlcs.cli import main
from nlcs.experiments import (
    SolveParams,
    _baseline_observations,
    _classical_init,
    _estimate,
    run_audio,
    run_synth,
)
from nlcs.linops import dct_dictionary
from nlcs.measurements import Clip, Identity, Mask, OneBit, apply_measurement
from nlcs.pipeline import (
    FrameSpec,
    SyntheticSpec,
    speech_like_signal,
    uniform_quantizer_for_bits,
    wav_write,
)

PARAMS_SMALL = SolveParams(iters=30, k=32, outer_iters=10, inner_iters=10)


@pytest.fixture(scope="module")
def short_signal():
    return speech_like_signal(seed=3, seconds=0.5)


class TestBaselineObservations:
    def test_declip_becomes_inpainting(self):
        rng = np.random.default_rng(0)
        from nlcs.measurements import Clip

        obs = apply_measurement(Clip(0.3, -0.3), rng.standard_normal(32))
        [base], stop = _baseline_observations([obs], "declip")
        assert isinstance(base.model, Mask)
        assert np.array_equal(base.model.reliable, obs.reliable)
        assert stop is None

    def test_dequant_noise_floor_threshold(self):
        # per-sample variance of a bin of width 0.25 is 0.25^2/12 ~ 5.208e-3
        rng = np.random.default_rng(1)
        model = uniform_quantizer_for_bits(3)
        obs = apply_measurement(model, np.tanh(rng.standard_normal(256)))
        [base], stop = _baseline_observations([obs], "dequant")
        assert isinstance(base.model, Identity)
        per_sample = 0.25 ** 2 / 12.0
        assert per_sample == pytest.approx(5.208e-3, rel=1e-3)
        assert stop == pytest.approx(0.5 * 256 * per_sample)

    def test_dequant_stop_per_observation(self):
        # a level-batched sweep mixes quantizers: each keeps its own level
        rng = np.random.default_rng(3)
        x = np.tanh(rng.standard_normal(64))
        batch = [apply_measurement(uniform_quantizer_for_bits(b), x) for b in (2, 3, 3)]
        _, stop = _baseline_observations(batch, "dequant")
        deltas = np.array([0.5, 0.25, 0.25])
        assert stop.shape == (3,)
        assert np.array_equal(stop, 0.5 * 64 * deltas * deltas / 12.0)

    def test_onebit_uses_signs_directly(self):
        rng = np.random.default_rng(2)
        obs = apply_measurement(OneBit(), rng.standard_normal(64))
        [base], stop = _baseline_observations([obs], "onebit")
        assert isinstance(base.model, Identity)
        assert set(np.unique(base.values)) <= {-1.0, 1.0}
        assert stop is None


class TestClassicalInit:
    def test_one_bit_start_is_nonzero(self):
        # the origin is a fixed point of the sign-consistency cost, so the
        # coder must start elsewhere
        rng = np.random.default_rng(3)
        d = dct_dictionary(64, 128)
        obs = apply_measurement(OneBit(), rng.standard_normal(64))
        a0 = _classical_init(d, [obs], 16)
        assert np.count_nonzero(a0) == 16
        assert np.abs(a0).max() > 0


class TestEstimate:
    @pytest.mark.parametrize("model", [Clip(0.3, -0.3), OneBit()])
    def test_top_k_estimate_matches_dense_synthesis(self, short_signal, model):
        d = dct_dictionary(64, 128)
        frames = short_signal[:64 * 12].reshape(12, 64).T
        observations = [apply_measurement(model, x) for x in frames.T]
        codes = _classical_init(d, observations, 8)
        assert 2 * np.count_nonzero(codes.any(axis=1)) < 128  # gathered, not dense
        np.testing.assert_allclose(_estimate(d, codes, observations, True),
                                   _estimate(d, codes, observations, False),
                                   rtol=1e-12, atol=1e-15)


class TestRunSynth:
    def test_theta_one_recovers_exactly(self):
        spec = SyntheticSpec(seed=7, count=25)
        rows, per = run_synth(spec, "clip", [1.0], ["adaptive"],
                              SolveParams(iters=400), seed=7)
        assert rows[0].snr_db == np.inf
        assert np.all(per[(1.0, "adaptive")] >= 100.0)

    def test_row_shape(self):
        spec = SyntheticSpec(seed=1, count=5)
        rows, _ = run_synth(spec, "quant", [3], ["fixed"],
                            SolveParams(iters=100), seed=1)
        assert len(rows) == 1
        r = rows[0]
        assert r.distortion == "quant:3" and r.method == "fixed" and r.seed == 1
        assert np.isfinite(r.snr_db)

    @pytest.mark.parametrize("distortion, levels", [("clip", [0.2, 0.4]), ("quant", [2, 3])])
    def test_level_batch_matches_levels_solved_alone(self, distortion, levels):
        # one batched solve per method over every level gives each signal
        # the SNR it gets when its level is solved alone; the batch width
        # changes BLAS blocking, so products may round differently
        spec = SyntheticSpec(seed=5, count=6)
        methods = ["adaptive", "fixed", "baseline"]
        params = SolveParams(iters=200)
        rows, both = run_synth(spec, distortion, levels, methods, params, seed=5)
        assert [(r.distortion.split(":")[1], r.method) for r in rows] == \
            [(f"{lv:g}", m) for lv in levels for m in methods]
        for level in levels:
            _, alone = run_synth(spec, distortion, [level], methods, params, seed=5)
            for m in methods:
                assert both[(level, m)].shape == (6,)
                np.testing.assert_allclose(both[(level, m)], alone[(level, m)],
                                           rtol=0.0, atol=1e-9)
        runtime = {r.method: r.runtime_s for r in rows[:len(methods)]}
        assert all(r.runtime_s == runtime[r.method] for r in rows)

    def test_unknown_distortion_rejected(self):
        with pytest.raises(ValueError):
            run_synth(SyntheticSpec(count=2), "blur", [1], ["fixed"],
                      SolveParams(), seed=0)


class TestRunAudio:
    def test_full_clip_level_baseline_equivalence(self, short_signal):
        # nothing is flagged clipped at the full level, so the consistent
        # and inpainting problems coincide sample for sample
        fs = FrameSpec(256, 0.75)
        cons = run_audio("declip", short_signal, fs, PARAMS_SMALL, theta=1.0,
                         method="iht", reference=short_signal)
        base = run_audio("declip", short_signal, fs, PARAMS_SMALL, theta=1.0,
                         method="baseline", reference=short_signal)
        assert np.array_equal(cons.estimate, base.estimate)
        assert cons.snr_db == base.snr_db

    def test_estimate_length_and_domain(self, short_signal):
        fs = FrameSpec(256, 0.75)
        res = run_audio("declip", short_signal, fs, PARAMS_SMALL, theta=0.3,
                        method="iht")
        assert res.estimate.shape == short_signal.shape
        assert res.snr_db is None  # no reference given

    def test_onebit_scores_angular(self, short_signal):
        fs = FrameSpec(256, 0.75)
        res = run_audio("onebit", short_signal, fs, PARAMS_SMALL,
                        method="iht", reference=short_signal)
        scaled = run_audio("onebit", 0.25 * short_signal, fs, PARAMS_SMALL,
                           method="iht", reference=short_signal)
        # unit-peak normalization makes the whole pipeline scale-free
        assert res.snr_db == pytest.approx(scaled.snr_db)

    def test_declip_detect_improves_on_clipped_input(self, short_signal):
        from nlcs.pipeline import snr_db

        fs = FrameSpec(256, 0.75)
        clipped = np.clip(short_signal, -0.3, 0.3)
        detected = run_audio("declip", clipped, fs, PARAMS_SMALL, detect=True,
                             reference=short_signal)
        peak = np.abs(clipped).max()
        untouched = snr_db(clipped / peak, short_signal / peak)
        assert detected.snr_db > untouched

    @pytest.mark.parametrize("method", ["iht", "fixed", "adaptive", "baseline"])
    @pytest.mark.parametrize("task", ["declip", "dequant", "onebit"])
    def test_one_spectral_norm_per_solve(self, short_signal, monkeypatch, task, method):
        # the step 1/||D||^2 is resolved once and shared by the start and
        # the coder
        import nlcs.solvers

        calls = []
        norm = nlcs.solvers.spectral_norm
        monkeypatch.setattr(nlcs.solvers, "spectral_norm",
                            lambda a: calls.append(a.shape) or norm(a))
        run_audio(task, short_signal[:2048], FrameSpec(64, 0.5), PARAMS_SMALL,
                  theta=0.3, bits=3, method=method)
        assert calls == [(64, 128)]

    def test_reference_length_checked(self, short_signal):
        fs = FrameSpec(256, 0.75)
        with pytest.raises(ValueError):
            run_audio("declip", short_signal, fs, PARAMS_SMALL, theta=0.3,
                      reference=short_signal[:-1])


@pytest.mark.slow
def test_dequant_learning_improves_on_stiff_signal(tmp_path):
    # paired CLI run at the full audio protocol: learning the dictionary
    # from 3-bit data must not lose to the fixed DCT on a signal whose
    # stretched partials a DCT cannot capture compactly
    wav = tmp_path / "stiff.wav"
    wav_write(wav, 0.95 * speech_like_signal(seed=0, seconds=2.0,
                                             inharmonicity=0.002), 16000)
    out_learn = tmp_path / "dl.wav"
    out_fixed = tmp_path / "sc.wav"
    assert main(["dequant", str(wav), "--bits", "3", "--learn",
                 "--reference", str(wav), "--out", str(out_learn)]) == 0
    assert main(["dequant", str(wav), "--bits", "3",
                 "--reference", str(wav), "--out", str(out_fixed)]) == 0

    def snr_of(path):
        rows = [l for l in path.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("distortion,")]
        return float(rows[0].split(",")[2])

    learned = snr_of(tmp_path / "dl.csv")
    fixed = snr_of(tmp_path / "sc.csv")
    assert learned >= fixed
