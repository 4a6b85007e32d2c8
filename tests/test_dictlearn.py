import numpy as np
import pytest

import nlcs.dictlearn
import nlcs.solvers
from nlcs.dictlearn import (
    DictLearnConfig,
    dict_update,
    export_dictionary_text,
    learn,
    load_dictionary,
    project_dictionary,
    save_dictionary,
)
from nlcs.linops import dct_dictionary, spectral_norm
from nlcs.measurements import Batch, Clip, Identity, Mask, Observation, apply_measurement, cost
from nlcs.solvers import L0, L1, SolverConfig, sparse_code_fixed


def _observations(rng, n=8, m=12, t=20, theta=0.4, k=2, model=None):
    """t observations of k-sparse signals of a random dictionary; the
    observations, the (n, t) signals and the dictionary."""
    d_true = rng.standard_normal((n, m))
    d_true /= np.linalg.norm(d_true, axis=0)
    observations = []
    signals = []
    for _ in range(t):
        a = np.zeros(m)
        a[rng.choice(m, size=k, replace=False)] = rng.standard_normal(k)
        x = d_true @ a
        x /= max(np.abs(x).max(), 1e-12)
        signals.append(x)
        mdl = Clip(theta, -theta) if model is None else model
        observations.append(apply_measurement(mdl, x))
    return observations, np.stack(signals, axis=1), d_true


def _training_set(rng, **kwargs):
    """_observations as a training batch, with the signals and the dictionary."""
    observations, signals, d_true = _observations(rng, **kwargs)
    return Batch.of(observations), signals, d_true


def _data_cost(d, codes, observations):
    """Summed data cost of the observations under codes (column t codes
    observation t)."""
    return sum(cost(o, d @ codes[:, t]) for t, o in enumerate(observations))


class TestProjectDictionary:
    def test_rescales_long_columns(self):
        d = np.array([[2.0, 0.3], [0.0, 0.4]])
        out = project_dictionary(d)
        assert np.linalg.norm(out[:, 0]) == pytest.approx(1.0)

    def test_short_columns_untouched(self):
        d = np.array([[0.5], [0.0]])
        assert np.array_equal(project_dictionary(d), d)

    def test_zero_column_untouched(self):
        d = np.zeros((3, 2))
        d[0, 0] = 0.9
        assert np.array_equal(project_dictionary(d), d)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        d = 2.0 * rng.standard_normal((6, 9))
        once = project_dictionary(d)
        assert np.array_equal(project_dictionary(once), once)

    def test_overflowing_norm_maps_to_unit_norm(self):
        # the l2 norm of a finite column can overflow to inf; that column is
        # rescaled by a power of two first instead of becoming a dead atom
        d = np.array([[1e200, 1.0, 3.0], [1e200, 0.0, 4.0]])
        with np.errstate(all="raise"):
            out = project_dictionary(d)
        assert out[:, 0] == pytest.approx(np.full(2, np.sqrt(0.5)), rel=1e-15)
        assert np.linalg.norm(out[:, 0]) == pytest.approx(1.0, rel=1e-15)
        assert np.array_equal(out[:, 1:], d[:, 1:] / np.array([1.0, 5.0]))

    def test_normal_range_is_bitwise(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal((6, 9)) * np.logspace(-3, 150, 9)
        norms = np.linalg.norm(d, axis=0)
        assert np.array_equal(project_dictionary(d), d / np.maximum(norms, 1.0))

    def test_columnwise_nonexpansive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = 2.0 * rng.standard_normal(5)
            b = 2.0 * rng.standard_normal(5)
            pa = project_dictionary(a[:, None])[:, 0]
            pb = project_dictionary(b[:, None])[:, 0]
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestDictUpdate:
    def _cfg(self, inner=5):
        return DictLearnConfig(inner_code=SolverConfig(L1(1e-2), max_iters=10),
                               inner_dict_iters=inner)

    def test_consistent_codes_leave_dictionary_unchanged(self):
        rng = np.random.default_rng(2)
        d = 0.9 * dct_dictionary(8, 12)  # strictly inside the constraint set
        codes = np.zeros((12, 4))
        codes[2, :] = rng.standard_normal(4)
        signals = d @ codes
        observations = [apply_measurement(Identity(), signals[:, t]) for t in range(4)]
        out = dict_update(d, codes, Batch.of(observations), self._cfg())
        assert np.array_equal(out, d)

    def test_rank_one_update_touches_one_column(self):
        rng = np.random.default_rng(3)
        d = 0.9 * dct_dictionary(8, 12)
        codes = np.zeros((12, 1))
        codes[0, 0] = 1.0
        y = d @ codes[:, 0] + 0.3 * rng.standard_normal(8)
        train = Batch.of([apply_measurement(Identity(), y)])
        out = dict_update(d, codes, train, self._cfg())
        assert not np.array_equal(out[:, 0], d[:, 0])
        assert np.array_equal(out[:, 1:], d[:, 1:])

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(4)
        clipped, _, _ = _observations(rng)
        # one batch of two model families: each Clip observation next to its
        # Mask substitute, as synth's joint adaptive and baseline solve holds them
        mixed = clipped + [Observation(o.values, Mask(o.reliable)) for o in clipped]
        d0 = dct_dictionary(8, 12)
        cfg = DictLearnConfig(inner_code=SolverConfig(L1(1e-2), max_iters=20),
                              inner_dict_iters=20)
        # the step 1 / ||A||^2 depends on the codes only, so twenty one-step
        # calls walk through the same dictionaries as one twenty-step call
        one_step = DictLearnConfig(inner_code=cfg.inner_code, inner_dict_iters=1)
        for observations in (clipped, mixed):
            train = Batch.of(observations)
            codes = 0.1 * rng.standard_normal((12, len(train)))
            d, objs = d0, [_data_cost(d0, codes, observations)]
            for _ in range(cfg.inner_dict_iters):
                d = dict_update(d, codes, train, one_step)
                objs.append(_data_cost(d, codes, observations))
            assert np.array_equal(d, dict_update(d0, codes, train, cfg))
            assert np.all(np.diff(objs) <= 1e-10)
            assert objs[-1] < objs[0]

    @pytest.mark.parametrize("shape", [(12,), (11, 6), (12, 5), (12, 6, 1)])
    def test_malformed_codes_rejected(self, shape):
        rng = np.random.default_rng(11)
        train, _, _ = _training_set(rng, t=6)
        with pytest.raises(ValueError, match=r"codes must have shape \(12, 6\)"):
            dict_update(dct_dictionary(8, 12), np.zeros(shape), train, self._cfg())
        with pytest.raises(ValueError, match=r"codes must have shape \(12, 6\)"):
            learn(train, dct_dictionary(8, 12), self._cfg(), init_codes=np.zeros(shape))

    def test_unused_atoms_returned_bit_for_bit(self):
        rng = np.random.default_rng(17)
        train, _, _ = _training_set(rng)
        d = dct_dictionary(8, 12)
        d[0, [3, 7]] = -0.0  # a sign of zero that an added zero gradient would flip
        codes = rng.standard_normal((12, len(train)))
        codes[[3, 7, 8]] = 0.0
        out = dict_update(d, codes, train, self._cfg())
        unused = [3, 7, 8]
        assert np.array_equal(out[:, unused].view(np.int64), d[:, unused].view(np.int64))
        assert not np.array_equal(out[:, 0], d[:, 0])

    def test_nonfinite_unused_atom_rejected(self):
        rng = np.random.default_rng(18)
        train, _, _ = _training_set(rng)
        d = dct_dictionary(8, 12)
        d[2, 5] = np.nan
        codes = rng.standard_normal((12, len(train)))
        codes[5] = 0.0
        with pytest.raises(ValueError, match="dictionary must be finite"):
            dict_update(d, codes, train, self._cfg())
        codes[:] = 0.0
        with pytest.raises(ValueError, match="dictionary must be finite"):
            dict_update(d, codes, train, self._cfg())

    def test_nonfinite_codes_rejected(self):
        rng = np.random.default_rng(19)
        train, _, _ = _training_set(rng, t=6)
        codes = np.zeros((12, 6))
        codes[4, 2] = np.inf
        with pytest.raises(ValueError, match="codes must be finite"):
            dict_update(dct_dictionary(8, 12), codes, train, self._cfg())
        with pytest.raises(ValueError, match="codes must be finite"):
            learn(train, dct_dictionary(8, 12), self._cfg(), init_codes=codes)

    def test_tiny_codes_rejected(self):
        # ||A||^2 underflows, so the step 1/||A||^2 is not a number
        rng = np.random.default_rng(12)
        train, _, _ = _training_set(rng, t=6)
        codes = 1e-170 * rng.standard_normal((12, 6))
        with pytest.raises(ValueError, match="not a finite positive number"):
            dict_update(dct_dictionary(8, 12), codes, train, self._cfg())

    def test_divergence_reported(self):
        train = Batch.of([apply_measurement(Identity(), np.full(8, 1.5e308))
                          for _ in range(3)])
        codes = np.zeros((16, 3))
        codes[0], codes[1] = 1.0, 0.5
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="diverged"):
            dict_update(dct_dictionary(8, 16), codes, train, self._cfg())

    def test_column_norm_invariant(self):
        rng = np.random.default_rng(5)
        train, _, _ = _training_set(rng)
        codes = rng.standard_normal((12, len(train)))
        out = dict_update(dct_dictionary(8, 12), codes, train, self._cfg())
        assert np.all(np.linalg.norm(out, axis=0) <= 1.0 + 1e-12)


class TestLearn:
    def test_zero_outer_iters_is_identity(self):
        rng = np.random.default_rng(6)
        train, _, _ = _training_set(rng)
        d0 = dct_dictionary(8, 12)
        cfg = DictLearnConfig(inner_code=SolverConfig(L1(1e-2), max_iters=10),
                              outer_iters=0)
        d, codes, trace = learn(train, d0, cfg)
        assert np.array_equal(d, d0)
        assert np.all(codes == 0.0)
        assert len(trace.after_dict) == 0

    def test_learning_beats_fixed_dictionary_objective(self):
        rng = np.random.default_rng(7)
        observations, _, _ = _observations(rng, model=Identity())
        train = Batch.of(observations)
        d0 = dct_dictionary(8, 12)
        inner = SolverConfig(L1(1e-2), max_iters=20)
        cfg_learn = DictLearnConfig(inner_code=inner, outer_iters=15,
                                    inner_dict_iters=20)
        _, _, trace = learn(train, d0, cfg_learn)
        # sparse coding alone, dictionary held at its start value
        projector = train.projector
        codes = np.zeros((12, len(train)))
        for _ in range(15):
            codes, _ = sparse_code_fixed(d0, observations, codes, inner)
        z = d0 @ codes
        fixed_obj = float(
            0.5 * np.sum((z - projector.project(z)) ** 2)
            + 1e-2 * np.abs(codes).sum()
        )
        assert trace.after_dict[-1] <= fixed_obj + 1e-12

    def test_top_k_learning_matches_dense_synthesis(self, monkeypatch):
        rng = np.random.default_rng(22)
        train, _, _ = _training_set(rng, m=48, t=10, k=2)
        cfg = DictLearnConfig(inner_code=SolverConfig(L0(2), max_iters=10),
                              outer_iters=4, inner_dict_iters=5)
        d0 = dct_dictionary(8, 48)
        got = learn(train, d0, cfg)

        def dense(d, a):
            return d @ a

        monkeypatch.setattr(nlcs.solvers, "_synth_used", dense)
        monkeypatch.setattr(nlcs.dictlearn, "_synth_used", dense)
        want = learn(train, d0, cfg)
        assert 2 * np.count_nonzero(got[1].any(axis=1)) < 48  # the gathered path ran
        for g, w in zip(got[:2], want[:2]):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)
        for g, w in ((got[2].after_coding, want[2].after_coding),
                     (got[2].after_dict, want[2].after_dict)):
            np.testing.assert_allclose(g, w, rtol=1e-12)

    @pytest.mark.parametrize("reg", [L0(2), L1(1e-2)], ids=["top-k", "l1"])
    def test_after_dict_is_the_next_coding_calls_first_objective(self, monkeypatch, reg):
        # the kernel's first evaluation is the objective after the update,
        # so only the last update is evaluated apart
        rng = np.random.default_rng(23)
        train, _, _ = _training_set(rng, m=48, t=10)
        cfg = DictLearnConfig(inner_code=SolverConfig(reg, max_iters=10),
                              outer_iters=4, inner_dict_iters=5)
        updates, evaluations = [], []
        update, evaluate = nlcs.dictlearn.dict_update, nlcs.dictlearn._evaluate

        def recording_update(d, codes, *args):
            new = update(d, codes, *args)
            updates.append((new, codes.copy()))
            return new

        monkeypatch.setattr(nlcs.dictlearn, "dict_update", recording_update)
        monkeypatch.setattr(nlcs.dictlearn, "_evaluate",
                            lambda *args: evaluations.append(1) or evaluate(*args))
        _, _, trace = learn(train, dct_dictionary(8, 48), cfg)
        assert len(evaluations) == 1 and len(trace.after_dict) == 4
        synth = nlcs.solvers._synth_used if isinstance(reg, L0) else np.matmul
        lam = getattr(reg, "lam", None)
        for after, (d, codes) in zip(trace.after_dict, updates):
            want = evaluate(d, train.projector, codes, synth, lam)[2]
            assert after == float(np.add.reduce(want))

    def test_block_descent_on_clipped_data(self):
        rng = np.random.default_rng(8)
        train, _, _ = _training_set(rng)
        cfg = DictLearnConfig(inner_code=SolverConfig(L1(1e-2), max_iters=20),
                              outer_iters=10, inner_dict_iters=20)
        d, codes, trace = learn(train, dct_dictionary(8, 12), cfg)
        seq = []
        for i in range(len(trace.after_dict)):
            seq += [trace.after_coding[i], trace.after_dict[i]]
        assert np.all(np.diff(seq) <= 1e-9)
        assert np.all(np.linalg.norm(d, axis=0) <= 1.0 + 1e-12)

    def test_identity_reduces_to_least_squares_gradient(self):
        rng = np.random.default_rng(9)
        train, signals, _ = _training_set(rng, model=Identity())
        d = dct_dictionary(8, 12)
        codes = rng.standard_normal((12, len(train)))
        projector = train.projector
        z = d @ codes
        direction = (projector.project(z) - z) @ codes.T
        want = (signals - d @ codes) @ codes.T
        assert np.abs(direction - want).max() < 1e-12

    def test_never_used_atoms_keep_their_bits(self, monkeypatch):
        rng = np.random.default_rng(20)
        train, _, _ = _training_set(rng)
        d0 = dct_dictionary(8, 64)
        d0[1, 40:] = -0.0
        seen = []

        def recording(d, codes, *args):
            seen.append(np.any(codes != 0.0, axis=1))
            return dict_update(d, codes, *args)

        monkeypatch.setattr(nlcs.dictlearn, "dict_update", recording)
        cfg = DictLearnConfig(inner_code=SolverConfig(L0(2), max_iters=5),
                              outer_iters=3, inner_dict_iters=4)
        d, _, _ = learn(train, d0, cfg)
        never = ~np.any(seen, axis=0)
        assert len(seen) == 3 and 0 < never.sum() < 64
        assert np.array_equal(d[:, never].view(np.int64), d0[:, never].view(np.int64))
        assert not np.array_equal(d[:, ~never], d0[:, ~never])

    def test_one_stacked_projector_per_learn(self, monkeypatch):
        rng = np.random.default_rng(21)
        observations, _, _ = _observations(rng)
        builds = []
        build = Batch.of

        def counting(observations):
            builds.append(len(observations))
            return build(observations)

        monkeypatch.setattr(Batch, "of", staticmethod(counting))
        cfg = DictLearnConfig(inner_code=SolverConfig(L1(1e-2), max_iters=5),
                              outer_iters=4, inner_dict_iters=2)
        _, _, trace = learn(Batch.of(observations), dct_dictionary(8, 12), cfg)
        assert len(trace.after_dict) == 4
        assert builds == [len(observations)]

    def test_initial_dictionary_validated(self):
        rng = np.random.default_rng(10)
        train, _, _ = _training_set(rng)
        bad = 2.0 * dct_dictionary(8, 12)
        cfg = DictLearnConfig(inner_code=SolverConfig(L1(1e-2), max_iters=5))
        with pytest.raises(ValueError):
            learn(train, bad, cfg)

    def test_unused_atoms_warned(self, caplog):
        rng = np.random.default_rng(11)
        train, _, _ = _training_set(rng)
        cfg = DictLearnConfig(inner_code=SolverConfig(L0(1), max_iters=5),
                              outer_iters=1, inner_dict_iters=2)
        with caplog.at_level("WARNING", logger="nlcs.dictlearn"):
            learn(train, dct_dictionary(8, 12), cfg)
        assert any("never activated" in r.message for r in caplog.records)

    def test_unused_atom_warning_is_a_summary(self, caplog):
        rng = np.random.default_rng(11)
        train, _, _ = _training_set(rng)
        cfg = DictLearnConfig(inner_code=SolverConfig(L0(1), max_iters=5),
                              outer_iters=1, inner_dict_iters=2)
        with caplog.at_level("WARNING", logger="nlcs.dictlearn"):
            _, codes, _ = learn(train, dct_dictionary(8, 64), cfg)
        unused = np.flatnonzero(~np.any(codes != 0.0, axis=1))
        assert unused.size > 10
        (message,) = [r.getMessage() for r in caplog.records
                      if "never activated" in r.getMessage()]
        assert message.startswith(f"{unused.size} atoms")
        assert message.endswith(f"{unused[:10].tolist()})")


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        d = rng.standard_normal((16, 24))
        path = tmp_path / "d.nlcsdict"
        save_dictionary(path, d)
        back = load_dictionary(path)
        assert np.array_equal(back, d)

    def test_header_layout(self, tmp_path):
        d = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "d.nlcsdict"
        save_dictionary(path, d)
        raw = path.read_bytes()
        assert raw[:8] == b"NLCSDICT"
        import struct
        version, n, m = struct.unpack("<III", raw[8:20])
        assert (version, n, m) == (1, 2, 3)
        cols = np.frombuffer(raw[20:], dtype="<f8").reshape(3, 2)
        assert np.array_equal(cols.T, d)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTADICT" + b"\x00" * 20)
        with pytest.raises(ValueError):
            load_dictionary(path)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        d = rng.standard_normal((4, 4))
        path = tmp_path / "d.nlcsdict"
        save_dictionary(path, d)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_dictionary(path)

    def test_text_export(self, tmp_path):
        rng = np.random.default_rng(16)
        d = rng.standard_normal((3, 5))
        path = tmp_path / "d.txt"
        export_dictionary_text(path, d)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5  # one column per line
        back = np.array([[float(v) for v in line.split()] for line in lines]).T
        assert back == pytest.approx(d, abs=0.0)
