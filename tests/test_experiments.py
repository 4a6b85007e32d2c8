import tracemalloc

import numpy as np
import pytest
from conftest import assert_bitwise_equal

import nlcs.experiments
import nlcs.measurements
import nlcs.solvers
from nlcs.cli import main
from nlcs.dictlearn import DictLearnConfig, learn
from nlcs.experiments import (
    SolveParams,
    _baseline_observations,
    _classical_init,
    _estimate,
    _solve,
    distortion,
    frame_batch,
    learn_dictionary,
    measure_audio,
    run_audio,
    run_synth,
)
from nlcs.linops import dct_dictionary
from nlcs.measurements import (
    Batch,
    Clip,
    Identity,
    Mask,
    Observation,
    OneBit,
    apply_measurement,
    estimate_clip_model,
)
from nlcs.pipeline import (
    FrameSpec,
    SyntheticSpec,
    _pad_to_frame_grid,
    frame_signal,
    speech_like_signal,
    uniform_quantizer_for_bits,
    wav_read,
    wav_write,
)
from nlcs.solvers import L0, SolverConfig

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
        a0 = _classical_init(d, Batch.of([obs]), 16)
        assert np.count_nonzero(a0) == 16
        assert np.abs(a0).max() > 0


class TestEstimate:
    @pytest.mark.parametrize("model", [Clip(0.3, -0.3), OneBit()])
    def test_top_k_estimate_matches_dense_synthesis(self, short_signal, model):
        # _estimate picks the synthesis from the codes: gathered for top-K
        # codes that use few atoms, dense for l1 codes that use half or more
        d = dct_dictionary(64, 128)
        frames = short_signal[:64 * 12].reshape(12, 64).T
        observations = [apply_measurement(model, x) for x in frames.T]

        def dense(codes):
            z = d @ codes
            return z if isinstance(model, OneBit) else Batch.of(observations).projector.project(z)

        batch = Batch.of(observations)
        codes = _classical_init(d, batch, 8)
        assert 2 * np.count_nonzero(codes.any(axis=1)) < 128  # gathered, not dense
        np.testing.assert_allclose(_estimate(d, codes, batch), dense(codes),
                                   rtol=1e-12, atol=1e-15)
        codes = _solve(d, batch, "fixed", PARAMS_SMALL, classical_start=True)
        assert 2 * np.count_nonzero(codes.any(axis=1)) >= 128  # dense
        assert_bitwise_equal(_estimate(d, codes, batch), dense(codes))


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
        # adaptive and baseline share one solve, fixed has its own
        assert runtime["adaptive"] == runtime["baseline"] != runtime["fixed"]

    @pytest.mark.parametrize("distortion, levels", [("clip", [0.2, 0.4]), ("quant", [2, 3])])
    def test_joint_solve_matches_methods_solved_alone(self, distortion, levels, monkeypatch):
        # adaptive and baseline run as one homotopy call, the baseline's
        # columns with their own epsilon (per-column dequantization stops
        # at two step sizes for quant); each signal gets the SNR its method
        # gets when solved alone
        import nlcs.experiments

        spec = SyntheticSpec(seed=9, count=6)
        params = SolveParams(iters=200)
        alone = {}
        for m in ("adaptive", "baseline"):
            alone.update(run_synth(spec, distortion, levels, [m], params, seed=9)[1])
        calls = []
        solve = nlcs.experiments.sparse_code_adaptive
        monkeypatch.setattr(nlcs.experiments, "sparse_code_adaptive",
                            lambda d, obs, a0, h: calls.append(h.epsilon) or solve(d, obs, a0, h))
        rows, joint = run_synth(spec, distortion, levels, ["baseline", "adaptive"], params,
                                seed=9)
        assert [r.method for r in rows] == ["baseline", "adaptive"] * len(levels)
        assert len(calls) == 1 and calls[0].shape == (2 * 6 * len(levels),)
        assert len(set(calls[0])) == (1 if distortion == "clip" else 3)
        for key, snrs in alone.items():
            np.testing.assert_allclose(joint[key], snrs, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("methods, message", [
        (["adaptive", "bogus"], "unknown method 'bogus'"),
        (["fixed", "adaptive", "fixed"], "method 'fixed' is listed twice"),
        ([], "unknown method ''"),
    ])
    def test_method_list_checked_before_any_solve(self, methods, message, monkeypatch):
        import nlcs.experiments

        monkeypatch.setattr(nlcs.experiments, "_solve", None)  # any solve would fail
        with pytest.raises(ValueError, match=message):
            run_synth(SyntheticSpec(count=2), "clip", [0.3], methods, SolveParams(), seed=0)

    def test_unknown_distortion_rejected(self):
        with pytest.raises(ValueError):
            run_synth(SyntheticSpec(count=2), "blur", [1], ["fixed"],
                      SolveParams(), seed=0)


class TestDistortion:
    @pytest.mark.parametrize("kind, level, model, tag", [
        ("clip", 0.25, Clip(0.25, -0.25), "clip:0.25"),
        ("clip", None, None, "clip:detected"),
        ("quant", 3, uniform_quantizer_for_bits(3), "quant:3"),
        ("onebit", None, OneBit(), "onebit"),
        ("none", None, Identity(), "none"),
    ])
    def test_model_and_tag(self, kind, level, model, tag):
        assert repr(distortion(kind, level)) == repr((model, tag))  # models hold arrays

    @pytest.mark.parametrize("kind, level, message", [
        ("clip", -0.2, "clip level must be positive, got -0.2"),
        ("clip", 0, "clip level must be positive, got 0.0"),
        ("quant", None, "a quant distortion needs a bit depth"),
        ("blur", None, "unknown distortion 'blur'"),
    ])
    def test_bad_level_rejected(self, kind, level, message):
        with pytest.raises(ValueError, match=message):
            distortion(kind, level)


class TestRunAudio:
    def test_full_clip_level_baseline_equivalence(self, short_signal):
        # nothing is flagged clipped at the full level, so the consistent
        # and inpainting problems coincide sample for sample
        fs = FrameSpec(256, 0.75)
        cons = run_audio("declip", short_signal, fs, PARAMS_SMALL, ["iht"], level=1.0,
                         reference=short_signal)[0]
        base = run_audio("declip", short_signal, fs, PARAMS_SMALL, ["baseline"], level=1.0,
                         reference=short_signal)[0]
        assert np.array_equal(cons.estimate, base.estimate)
        assert cons.snr_db == base.snr_db

    def test_estimate_length_and_domain(self, short_signal):
        fs = FrameSpec(256, 0.75)
        res = run_audio("declip", short_signal, fs, PARAMS_SMALL, ["iht"], level=0.3)[0]
        assert res.estimate.shape == short_signal.shape
        assert res.snr_db is None  # no reference given

    def test_onebit_scores_angular(self, short_signal):
        fs = FrameSpec(256, 0.75)
        res = run_audio("onebit", short_signal, fs, PARAMS_SMALL, ["iht"],
                        reference=short_signal)[0]
        scaled = run_audio("onebit", 0.25 * short_signal, fs, PARAMS_SMALL, ["iht"],
                           reference=short_signal)[0]
        # unit-peak normalization makes the whole pipeline scale-free
        assert res.snr_db == pytest.approx(scaled.snr_db)

    @pytest.mark.parametrize("methods", [["fixed"], ["iht", "adaptive"]])
    def test_onebit_rejects_the_l1_coders(self, short_signal, methods):
        with pytest.raises(ValueError, match="l1 codes collapse to zero on sign data"):
            run_audio("onebit", short_signal, FrameSpec(256, 0.75), PARAMS_SMALL, methods)

    def test_declip_detect_improves_on_clipped_input(self, short_signal):
        from nlcs.pipeline import snr_db

        fs = FrameSpec(256, 0.75)
        clipped = np.clip(short_signal, -0.3, 0.3)
        detected = run_audio("declip", clipped, fs, PARAMS_SMALL, ["iht"], level=None,
                             reference=short_signal)[0]
        peak = np.abs(clipped).max()
        untouched = snr_db(clipped / peak, short_signal / peak)
        assert detected.snr_db > untouched

    @pytest.mark.parametrize("task, method", [
        (task, method) for task in ("declip", "dequant", "onebit")
        for method in ("iht", "fixed", "adaptive", "baseline")
        if task != "onebit" or method in ("iht", "baseline")])  # no l1 coder on signs
    def test_one_spectral_norm_per_solve(self, short_signal, monkeypatch, task, method):
        # the step 1/||D||^2 is resolved once per command and shared by the
        # start and the coder of every block: 63 frames, in one block and in 4
        calls = []
        norm = nlcs.solvers.spectral_norm
        monkeypatch.setattr(nlcs.solvers, "spectral_norm",
                            lambda a: calls.append(a.shape) or norm(a))
        for block in (nlcs.experiments.BLOCK_FRAMES, 16):
            monkeypatch.setattr(nlcs.experiments, "BLOCK_FRAMES", block)
            run_audio(task, short_signal[:2048], FrameSpec(64, 0.5), PARAMS_SMALL, [method],
                      level={"declip": 0.3, "dequant": 3}.get(task))
            assert calls == [(64, 128)]
            calls.clear()

    def test_one_framing_serves_every_method(self, short_signal, monkeypatch):
        # the input is measured once per call, in the front end every
        # method's blocks are framed from, and each method's estimate is the
        # one it gets when run alone
        calls = []
        measure = nlcs.experiments.measure_audio
        monkeypatch.setattr(nlcs.experiments, "measure_audio",
                            lambda *a: calls.append(a[2]) or measure(*a))
        fs = FrameSpec(256, 0.75)
        methods = ["iht", "fixed", "baseline"]
        results = run_audio("declip", short_signal, fs, PARAMS_SMALL, methods, level=0.3)
        assert len(calls) == 1
        for method, res in zip(methods, results, strict=True):
            alone = run_audio("declip", short_signal, fs, PARAMS_SMALL, [method], level=0.3)
            assert (res.distortion, res.method) == ("clip:0.3", method)
            assert np.array_equal(res.estimate, alone[0].estimate)

    def test_reference_length_checked(self, short_signal):
        fs = FrameSpec(256, 0.75)
        with pytest.raises(ValueError):
            run_audio("declip", short_signal, fs, PARAMS_SMALL, ["iht"], level=0.3,
                      reference=short_signal[:-1])


def _per_frame_observations(samples, spec, model):
    """The per-frame front end that frame blocks replace: every frame of the
    measured, padded input as its own observation."""
    x_pad = _pad_to_frame_grid(samples / np.max(np.abs(samples)), spec)
    obs = estimate_clip_model(x_pad) if model is None else apply_measurement(model, x_pad)
    y = frame_signal(obs.values, spec)
    if not isinstance(obs.model, Clip):
        return [Observation(v, obs.model) for v in y.T]
    r, p = frame_signal(obs.reliable, spec), frame_signal(obs.clip_pos, spec)
    return [Observation(y[:, j], obs.model, reliable=r[:, j], clip_pos=p[:, j] & ~r[:, j],
                        clip_neg=~(r[:, j] | p[:, j])) for j in range(y.shape[1])]


class TestFrameBlocks:
    """Audio is coded in blocks of BLOCK_FRAMES frames, framed from one
    measurement of the whole input."""

    FS = FrameSpec(256, 0.75)

    @pytest.mark.parametrize("model, task", [
        (Clip(0.3, -0.3), "declip"), (None, "declip"), (uniform_quantizer_for_bits(3), "dequant"),
        (uniform_quantizer_for_bits(12), "dequant"), (OneBit(), "onebit")],
        ids=["clip", "clip-detected", "quant-3", "quant-12", "onebit"])
    def test_framed_bounds_match_stacked_per_frame_intervals(self, short_signal, model, task):
        x = np.clip(short_signal, -0.4, 0.5) if model is None else short_signal
        obs, _ = measure_audio(x, self.FS, model)
        per_frame = _per_frame_observations(x, self.FS, model)
        assert len(frame_batch(obs, self.FS)) == len(per_frame) == 122
        [substitute], stop = _baseline_observations([obs], task, self.FS.frame_len)
        per_frame_sub, per_frame_stop = _baseline_observations(per_frame, task)
        for cols in (slice(None), slice(0, 16), slice(112, 128)):  # all, first, short last
            for got, observations in ((obs, per_frame), (substitute, per_frame_sub)):
                batch = frame_batch(got, self.FS, cols)
                want = Batch.of(observations[cols]).projector
                assert type(batch.model) is type(observations[0].model)
                assert_bitwise_equal(batch.values,
                                     np.stack([o.values for o in observations[cols]], axis=1))
                for bound, stacked in zip(batch.projector.args, want.args, strict=True):
                    assert_bitwise_equal(bound, stacked)
        if stop is None:
            assert per_frame_stop is None
        else:
            assert_bitwise_equal(np.broadcast_to(stop, per_frame_stop.shape), per_frame_stop)

    @pytest.mark.parametrize("task, level, methods", [
        ("declip", 0.3, ["fixed", "adaptive", "iht", "baseline"]),
        ("dequant", 3, ["fixed", "adaptive", "iht", "baseline"]),
        ("onebit", None, ["iht", "baseline"])])
    def test_blocked_matches_one_block(self, short_signal, tmp_path, monkeypatch,
                                       task, level, methods):
        # 122 frames in blocks of 16 (the last one of 10) against one block.
        # Blocks change the shapes of the BLAS products, whose rounding
        # OpenBLAS does not keep across shapes, so the estimates agree to
        # rounding and the 16-bit output the CLI writes agrees byte for byte
        params = SolveParams(iters=60, k=32)
        # the kernel keeps a projector's running columns when others have finished
        left, columns = [], nlcs.measurements._Projection.columns
        monkeypatch.setattr(nlcs.measurements._Projection, "columns",
                            lambda self, cols: left.append(1) or columns(self, cols))
        results = {}
        for block in (10 ** 6, 16):
            monkeypatch.setattr(nlcs.experiments, "BLOCK_FRAMES", block)
            left.clear()
            results[block] = run_audio(task, short_signal, self.FS, params, methods, level=level)
        assert left  # in some block of 16, columns finished at different iterations
        for blocked, whole in zip(results[16], results[10 ** 6], strict=True):
            assert blocked.method == whole.method
            assert np.abs(blocked.estimate - whole.estimate).max() <= 1e-12
            for name, res in (("blocked", blocked), ("whole", whole)):
                wav_write(tmp_path / f"{name}.wav", res.estimate, 16000)
            assert ((tmp_path / "blocked.wav").read_bytes()
                    == (tmp_path / "whole.wav").read_bytes())

    def test_baseline_starts_from_zero(self, short_signal, monkeypatch):
        # the inpainting baseline is IHT from zero: no classical start
        def refuse(*args):
            raise AssertionError("the baseline takes no classical start")

        monkeypatch.setattr(nlcs.experiments, "_classical_init", refuse)
        for task, level in (("declip", 0.3), ("dequant", 3), ("onebit", None)):
            run_audio(task, short_signal, self.FS, PARAMS_SMALL, ["baseline"], level=level)

    def test_peak_memory_follows_the_block(self, short_signal, monkeypatch):
        # four times the input holds four times the per-sample arrays, but
        # one block of frames at a time: the traced peak grows far less
        # (coding every frame at once, it grows 3.6 times)
        monkeypatch.setattr(nlcs.experiments, "BLOCK_FRAMES", 64)
        x, d = np.tile(short_signal, 3), dct_dictionary(256, 512)
        one = x[:63 * self.FS.hop + self.FS.frame_len]  # 64 frames: one block
        four = x[:255 * self.FS.hop + self.FS.frame_len]  # 256 frames: four blocks
        peaks = []
        for signal in (one, four):
            tracemalloc.start()
            try:
                run_audio("declip", signal, self.FS, PARAMS_SMALL, ["iht"], level=0.3,
                          dictionary=d)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2.0 * peaks[0]

    def test_learning_takes_one_norm_per_outer_iteration(self, short_signal, monkeypatch):
        # the classical start's 1/||D||^2 also serves learn's first coding
        # step: outer_iters norms of the dictionary in all, and the same D
        obs, _ = measure_audio(short_signal[:4000], self.FS, Clip(0.3, -0.3))
        batch, d0 = frame_batch(obs, self.FS), dct_dictionary(256, 512)
        params = SolveParams(k=32, outer_iters=3, inner_iters=5)
        shapes = []
        norm = nlcs.solvers.spectral_norm
        monkeypatch.setattr(nlcs.solvers, "spectral_norm",
                            lambda a: shapes.append(a.shape) or norm(a))
        d, codes, _ = learn_dictionary(d0, batch, params)
        assert shapes.count((256, 512)) == params.outer_iters
        dl = DictLearnConfig(SolverConfig(L0(params.k), max_iters=params.inner_iters),
                             outer_iters=params.outer_iters,
                             inner_dict_iters=params.inner_iters)
        shapes.clear()
        d_ref, codes_ref, _ = learn(batch, d0, dl, init_codes=_classical_init(d0, batch, 32))
        assert shapes.count((256, 512)) == params.outer_iters + 1  # learn resolves its own
        assert_bitwise_equal(d, d_ref)
        assert_bitwise_equal(codes, codes_ref)


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
