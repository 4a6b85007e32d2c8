import numpy as np
import pytest

import nlcs.solvers
from conftest import FAMILIES, random_model, random_observation, random_sparse_problem
from nlcs.linops import dct_dictionary, prox_l0_topk, spectral_norm
from nlcs.measurements import (
    Clip,
    Identity,
    OneBit,
    apply_measurement,
    cost,
    feasibility_intervals,
    project,
)
from nlcs.solvers import (
    L0,
    L1,
    DivergenceError,
    HomotopyConfig,
    SolverConfig,
    _descend,
    _resolve_step,
    _synth_used,
    batch_projector,
    consistency_level,
    objective,
    sparse_code_adaptive,
    sparse_code_fixed,
)


def _clip_problem(rng, theta=0.4, n=32, m=64, k=4):
    return random_sparse_problem("clip", rng, n=n, m=m, k=k)


class TestObjective:
    def test_zero_code_identity(self):
        rng = np.random.default_rng(0)
        d = dct_dictionary(8, 16)
        y = rng.standard_normal(8)
        obs = apply_measurement(Identity(), y)
        cfg = SolverConfig(L1(0.3))
        assert objective(d, np.zeros(16), obs, cfg) == pytest.approx(0.5 * y @ y)

    def test_consistent_code_leaves_penalty(self):
        d = dct_dictionary(4, 4)
        alpha = np.array([1.0, -1.0, 0.0, 0.0])
        obs = apply_measurement(Identity(), d @ alpha)
        assert objective(d, alpha, obs, SolverConfig(L1(0.1))) == pytest.approx(0.2)

    def test_l0_reports_data_term_only(self):
        d = dct_dictionary(4, 4)
        alpha = np.array([1.0, -1.0, 0.0, 0.0])
        obs = apply_measurement(Identity(), d @ alpha)
        assert objective(d, alpha, obs, SolverConfig(L0(2))) == 0.0

    def test_composition_of_sub_operations(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d, alpha_true, x, obs = random_sparse_problem("quant", rng)
            alpha = alpha_true + 0.1 * rng.standard_normal(alpha_true.shape)
            lam = rng.uniform(0, 1)
            want = cost(obs, d @ alpha) + lam * np.abs(alpha).sum()
            got = objective(d, alpha, obs, SolverConfig(L1(lam)))
            assert abs(got - want) < 1e-14


class TestSparseCodeFixed:
    def test_landweber_limit(self):
        rng = np.random.default_rng(2)
        d = dct_dictionary(16, 16)
        y = rng.standard_normal(16)
        obs = apply_measurement(Identity(), y)
        cfg = SolverConfig(L1(0.0), max_iters=200)
        alpha, trace = sparse_code_fixed(d, obs, np.zeros(16), cfg)
        assert trace.iterations <= 200
        assert np.linalg.norm(d @ alpha - y) < 1e-8
        assert alpha == pytest.approx(d.T @ y, abs=1e-8)

    def test_fixed_point_returned_unchanged(self):
        # consistent start and zero threshold: nothing may move
        rng = np.random.default_rng(3)
        d, alpha_true, _, _ = _clip_problem(rng)
        obs = apply_measurement(Clip(0.5, -0.5), d @ alpha_true)
        cfg = SolverConfig(L1(0.0), max_iters=50)
        alpha, trace = sparse_code_fixed(d, obs, alpha_true, cfg)
        assert np.array_equal(alpha, alpha_true)
        assert trace.converged

    def test_synthetic_instance_trace(self):
        rng = np.random.default_rng(4)
        d, _, x, obs = _clip_problem(rng)
        cfg = SolverConfig(L1(1e-2), max_iters=400)
        alpha, trace = sparse_code_fixed(d, obs, np.zeros(64), cfg)
        assert np.all(np.diff(trace.objectives) <= 1e-12)
        start = cost(obs, d @ np.zeros(64))
        assert trace.consistency <= start / 10.0

    def test_divergence_reports_iteration(self):
        rng = np.random.default_rng(5)
        d, _, x, obs = _clip_problem(rng)
        cfg = SolverConfig(L1(1e-2), step=1e12, max_iters=50)
        with pytest.raises(DivergenceError, match="iteration"):
            sparse_code_fixed(d, obs, np.ones(64), cfg)

    def test_l0_keeps_k_sparse(self):
        rng = np.random.default_rng(6)
        d, _, x, obs = _clip_problem(rng)
        alpha, _ = sparse_code_fixed(d, obs, np.zeros(64),
                                     SolverConfig(L0(5), max_iters=60))
        assert np.count_nonzero(alpha) <= 5

    def test_monotone_per_family(self):
        rng = np.random.default_rng(8)
        for family in FAMILIES:
            d, _, x, obs = random_sparse_problem(family, rng)
            mu = 1.0 / spectral_norm(d) ** 2
            cfg = SolverConfig(L1(1e-2), step=mu, max_iters=150)
            _, trace = sparse_code_fixed(d, obs, np.zeros(d.shape[1]), cfg)
            assert np.all(np.diff(trace.objectives) <= 1e-12), family


class TestSparseCodeAdaptive:
    def test_consistent_start_returns_zero_stages(self):
        rng = np.random.default_rng(9)
        d, alpha_true, x, obs = _clip_problem(rng)
        hcfg = HomotopyConfig(SolverConfig(L1(1.0), max_iters=100), epsilon=1e-3)
        alpha, trace = sparse_code_adaptive(d, obs, alpha_true, hcfg)
        assert trace.stages == []
        assert trace.converged
        assert np.array_equal(alpha, alpha_true)

    def test_onebit_lam0_fallback(self):
        rng = np.random.default_rng(10)
        d, _, x, obs = random_sparse_problem("onebit", rng)
        # the projection of the origin is the origin for sign data, so the
        # auto rule falls back to the raw observation; start from a
        # sign-violating code so at least one stage actually runs
        alpha0 = -0.1 * (d.T @ obs.values)
        assert consistency_level(d, alpha0, obs) > 1e-6
        hcfg = HomotopyConfig(SolverConfig(L1(1.0), max_iters=40),
                              epsilon=1e-12, max_stages=1)
        _, trace = sparse_code_adaptive(d, obs, alpha0, hcfg)
        assert trace.stages[0].lam == pytest.approx(np.abs(d.T @ obs.values).max())

    def test_onebit_zero_start_is_already_consistent(self):
        rng = np.random.default_rng(10)
        d, _, x, obs = random_sparse_problem("onebit", rng)
        hcfg = HomotopyConfig(SolverConfig(L1(1.0), max_iters=40), epsilon=1e-3)
        alpha, trace = sparse_code_adaptive(d, obs, np.zeros(d.shape[1]), hcfg)
        assert trace.stages == [] and np.all(alpha == 0.0)

    def test_stagewise_monotonicity(self):
        rng = np.random.default_rng(11)
        d, _, x, obs = _clip_problem(rng)
        hcfg = HomotopyConfig(SolverConfig(L1(1.0), max_iters=2000, rel_tol=1e-12),
                              epsilon=1e-3)
        _, trace = sparse_code_adaptive(d, obs, np.zeros(64), hcfg)
        psi = [s.penalty for s in trace.stages]
        lvl = [s.consistency for s in trace.stages]
        assert np.all(np.diff(psi) >= -1e-9)
        assert np.all(np.diff(lvl) <= 1e-9)
        assert trace.consistency <= 1e-3

    def test_warm_start_equivalence(self):
        rng = np.random.default_rng(12)
        d, _, x, obs = _clip_problem(rng)
        inner = SolverConfig(L1(1.0), max_iters=120)
        lam0 = 0.25
        hcfg = HomotopyConfig(inner, lam0=lam0, decay=0.5, epsilon=1e-300,
                              max_stages=2)
        via_adaptive, _ = sparse_code_adaptive(d, obs, np.zeros(64), hcfg)
        from dataclasses import replace
        a1, _ = sparse_code_fixed(d, obs, np.zeros(64),
                                  replace(inner, regularizer=L1(lam0)))
        a2, _ = sparse_code_fixed(d, obs, a1,
                                  replace(inner, regularizer=L1(lam0 * 0.5)))
        assert np.array_equal(via_adaptive, a2)

    def test_exhausted_stages_flagged_not_converged(self):
        rng = np.random.default_rng(13)
        d, _, x, obs = _clip_problem(rng)
        hcfg = HomotopyConfig(SolverConfig(L1(1.0), max_iters=5),
                              epsilon=1e-12, max_stages=2)
        _, trace = sparse_code_adaptive(d, obs, np.zeros(64), hcfg)
        assert not trace.converged
        assert len(trace.stages) == 2

    def test_requires_l1(self):
        with pytest.raises(ValueError):
            HomotopyConfig(SolverConfig(L0(4)))


class TestResolveStep:
    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_step_out_of_range_rejected(self, scale):
        # ||D||^2 overflows or underflows: no finite positive step exists
        with pytest.raises(ValueError, match="not a finite positive number"):
            _resolve_step(scale * dct_dictionary(8, 16))

    def test_zero_dictionary_keeps_unit_step(self):
        assert _resolve_step(np.zeros((8, 16))) == 1.0


class TestNoiseBound:
    @pytest.mark.parametrize("family", ["clip", "quant", "gquant", "onebit", "mask"])
    def test_noisy_truth_stays_near_feasible(self, family):
        rng = np.random.default_rng(14)
        for _ in range(20):
            d, alpha, x, _ = random_sparse_problem(family, rng)
            noise = 0.05 * rng.standard_normal(x.shape)
            from conftest import random_model
            model = random_model(family, rng, x.shape[0])
            obs = apply_measurement(model, x + noise)
            assert cost(obs, x) <= 0.5 * noise @ noise + 1e-15


class TestConsistencyLevel:
    def test_matches_cost(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            d, alpha_true, x, obs = random_sparse_problem("quant", rng)
            alpha = alpha_true + 0.2 * rng.standard_normal(alpha_true.shape)
            assert abs(consistency_level(d, alpha, obs)
                       - cost(obs, d @ alpha)) < 1e-14

    def test_zero_for_consistent(self):
        rng = np.random.default_rng(16)
        d, alpha, _, _ = _clip_problem(rng)
        obs = apply_measurement(Clip(0.5, -0.5), d @ alpha)
        assert consistency_level(d, alpha, obs) == 0.0


class TestBatchSolver:
    def test_matches_per_signal_quality(self):
        rng = np.random.default_rng(17)
        problems = [_clip_problem(rng) for _ in range(8)]
        d = problems[0][0]
        observations = [apply_measurement(Clip(0.5, -0.5), p[2]) for p in problems]
        cfg = SolverConfig(L1(1e-2), max_iters=150)
        a0 = np.zeros((d.shape[1], len(observations)))
        batch, trace = sparse_code_fixed(d, observations, a0, cfg)
        assert np.all(np.diff(trace.objectives) <= 1e-10)
        for t, obs in enumerate(observations):
            single, _ = sparse_code_fixed(d, obs, a0[:, t], cfg)
            f_batch = objective(d, batch[:, t], obs, cfg)
            f_single = objective(d, single, obs, cfg)
            assert abs(f_batch - f_single) < 1e-6

    def test_per_column_linear_operators_match_single_signals(self):
        rng = np.random.default_rng(19)
        d = rng.standard_normal((16, 32))
        d /= np.linalg.norm(d, axis=0)
        observations = [random_sparse_problem("linear", rng, n=16, m=32)[3]
                        for _ in range(6)]
        assert len({id(o.model) for o in observations}) == 6
        cfg = SolverConfig(L1(1e-2), max_iters=150)
        a0 = np.zeros((32, len(observations)))
        batch, _ = sparse_code_fixed(d, observations, a0, cfg)
        for t, obs in enumerate(observations):
            single, _ = sparse_code_fixed(d, obs, a0[:, t], cfg)
            assert np.abs(batch[:, t] - single).max() <= 1e-12

    @pytest.mark.parametrize("linear_first", [True, False])
    def test_mixed_linear_and_separable_batch_rejected(self, linear_first):
        rng = np.random.default_rng(20)
        d, _, x, linear_obs = random_sparse_problem("linear", rng, n=16, m=32)
        clip_obs = apply_measurement(Clip(0.5, -0.5), x)
        batch = [linear_obs, clip_obs] if linear_first else [clip_obs, linear_obs]
        with pytest.raises(ValueError, match="cannot mix GeneralLinear"):
            sparse_code_fixed(d, batch, np.zeros((32, 2)), SolverConfig(L1(1e-2)))

    @pytest.mark.parametrize("family", ["clip", "quant"])
    def test_batched_homotopy_matches_single_signals(self, family):
        rng = np.random.default_rng(21)
        problems = [random_sparse_problem(family, rng, n=32, m=64, k=4) for _ in range(8)]
        d = problems[0][0]
        observations = [apply_measurement(problems[0][3].model, p[2]) for p in problems]
        hcfg = HomotopyConfig(SolverConfig(L1(1.0), max_iters=400), epsilon=1e-3)
        a0 = np.zeros((64, len(observations)))
        batch, trace = sparse_code_adaptive(d, observations, a0, hcfg)
        assert isinstance(trace.iterations, int) and isinstance(trace.converged, bool)
        stage_counts = np.sum([~np.isnan(s.lam) for s in trace.stages], axis=0)
        assert len(set(stage_counts)) > 1  # some columns sit late stages out
        for t, obs in enumerate(observations):
            single, tr = sparse_code_adaptive(d, obs, a0[:, t], hcfg)
            assert stage_counts[t] == len(tr.stages)
            assert np.abs(batch[:, t] - single).max() <= 1e-10
            assert trace.consistency[t] == pytest.approx(tr.consistency, abs=1e-12)

    def test_stop_consistency_threshold(self):
        rng = np.random.default_rng(18)
        d, _, x, _ = _clip_problem(rng)
        obs = apply_measurement(Identity(), x)
        thresholds = np.array([0.05])
        a, _ = sparse_code_fixed(d, [obs], np.zeros((64, 1)),
                                 SolverConfig(L0(8), max_iters=400),
                                 stop_consistency=thresholds)
        lvl = cost(obs, d @ a[:, 0])
        assert lvl <= 0.05


def _dense(d, a):
    return d @ a


class TestTopKSynthesis:
    """Top-K codes synthesize D a from the atoms in use; a dense product is
    the reference."""

    def _problem(self, rng, n, m, t, k, family="clip"):
        """A unit-norm (n, m) dictionary and t observations of k-sparse signals."""
        d = rng.standard_normal((n, m))
        d /= np.linalg.norm(d, axis=0)
        model = random_model(family, rng, n)
        observations = []
        for _ in range(t):
            x = d[:, rng.choice(m, size=k, replace=False)] @ rng.standard_normal(k)
            observations.append(apply_measurement(model, x / np.abs(x).max()))
        return d, observations

    def _descend_both(self, monkeypatch, d, observations, a0, cfg):
        project = batch_projector(observations).project
        mu = _resolve_step(d)
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(nlcs.solvers, "_synth_used",
                       lambda d, a: calls.append(1) or _synth_used(d, a))
            got = _descend(d, project, a0.copy(), cfg, mu)
        assert len(calls) == len(got[1])  # the start and every iteration
        with monkeypatch.context() as mp:
            mp.setattr(nlcs.solvers, "_synth_used", _dense)
            want = _descend(d, project, a0.copy(), cfg, mu)
        return got, want

    @pytest.mark.parametrize("family", ["clip", "quant", "identity", "onebit"])
    @pytest.mark.parametrize("m, t, k", [(256, 3, 4), (64, 40, 16)])
    def test_descend_matches_dense_reference(self, monkeypatch, family, m, t, k):
        # (256, 3, 4): a union of at most 12 of 256 atoms, gathered;
        # (64, 40, 16): the union covers more than half the atoms, dense
        rng = np.random.default_rng(m + t + k)
        d, observations = self._problem(rng, 32, m, t, k, family)
        y = np.stack([o.values for o in observations], axis=1)
        a0 = prox_l0_topk(_resolve_step(d) * (d.T @ y), k)
        cfg = SolverConfig(L0(k), max_iters=30)
        (a, totals, stopped, data), (a_ref, totals_ref, stopped_ref, data_ref) = \
            self._descend_both(monkeypatch, d, observations, a0, cfg)
        used = np.count_nonzero(a.any(axis=1))
        assert (2 * used < m) == (m == 256)
        np.testing.assert_allclose(a, a_ref, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(data, data_ref, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(totals, totals_ref, rtol=1e-12, atol=1e-300)
        assert np.array_equal(stopped, stopped_ref)
        if m == 64:  # the dense fallback computes the reference's products
            assert np.array_equal(a, a_ref) and np.array_equal(data, data_ref)

    def test_dense_fallback_is_bitwise(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((16, 32))
        a = rng.standard_normal((32, 5)) * (rng.random((32, 5)) < 0.5)
        a[:16, 0] = 1.0  # at least half the atoms in use
        assert np.array_equal(_synth_used(d, a), d @ a)

    def test_all_zero_codes(self, monkeypatch):
        rng = np.random.default_rng(4)
        d, observations = self._problem(rng, 16, 64, 4, 3)
        z = _synth_used(d, np.zeros((64, 4)))
        assert z.shape == (16, 4) and np.all(z == 0.0) and not np.signbit(z).any()
        cfg = SolverConfig(L0(3), max_iters=10)
        (a, _, _, data), (a_ref, _, _, data_ref) = self._descend_both(
            monkeypatch, d, observations, np.zeros((64, 4)), cfg)
        np.testing.assert_allclose(a, a_ref, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(data, data_ref, rtol=1e-12, atol=1e-300)

    def test_negative_zero_entries(self):
        rng = np.random.default_rng(5)
        d = rng.standard_normal((16, 64))
        a = np.zeros((64, 4))
        a[3, 0], a[9, 1] = 0.7, -1.2
        a[10:13, :] = -0.0  # kept by top-K when a column has fewer than K numbers
        a[20, 3] = -0.0
        z = _synth_used(d, a)
        want = d @ a
        np.testing.assert_allclose(z, want, rtol=1e-12, atol=0.0)
        assert np.array_equal(np.signbit(z[:, 2:]), np.signbit(want[:, 2:]))

    def test_l1_codes_keep_the_dense_product(self, monkeypatch):
        rng = np.random.default_rng(6)
        d, observations = self._problem(rng, 16, 64, 4, 3)

        def refuse(d, a):
            raise AssertionError("l1 codes must use the dense product")

        monkeypatch.setattr(nlcs.solvers, "_synth_used", refuse)
        a0 = np.zeros((64, 4))
        sparse_code_fixed(d, observations, a0, SolverConfig(L1(1e-2), max_iters=40))
        sparse_code_adaptive(d, observations, a0,
                             HomotopyConfig(SolverConfig(L1(1e-2), max_iters=40)))
