from dataclasses import replace

import numpy as np
import pytest

import nlcs.solvers
from conftest import (
    FAMILIES,
    assert_bitwise_equal,
    random_model,
    random_observation,
    random_sparse_problem,
)
from nlcs.dictlearn import DictLearnConfig, learn
from nlcs.linops import dct_dictionary, prox_l0_topk, spectral_norm
from nlcs.measurements import (
    Batch,
    Clip,
    Identity,
    Observation,
    OneBit,
    apply_measurement,
    cost,
    feasibility_intervals,
    project,
)
from nlcs.pipeline import uniform_quantizer_for_bits
from nlcs.solvers import (
    L0,
    L1,
    DivergenceError,
    HomotopyConfig,
    SolverConfig,
    StageRecord,
    _auto_lam0,
    _descend,
    _resolve_step,
    _synth_used,
    consistency_level,
    objective,
    sparse_code_adaptive,
    sparse_code_fixed,
)


def _clip_problem(rng, theta=0.4, n=32, m=64, k=4):
    return random_sparse_problem("clip", rng, n=n, m=m, k=k)


def _lockstep_adaptive(d, observations, a0, hcfg):
    """Reference homotopy: the stage loop the one-kernel schedule replaced.

    Each stage is one sparse_code_fixed call on the columns still above
    epsilon, and every column waits for the slowest one of its stage.
    """
    batch = Batch.of(observations)
    projector = batch.projector
    a = a0.copy()
    t_count = a.shape[1]
    lam = (_auto_lam0(d, batch) if hcfg.lam0 is None
           else np.full(t_count, float(hcfg.lam0)))
    z = d @ a
    level = 0.5 * np.sum((z - projector.project(z)) ** 2, axis=0)
    stages = []
    for _ in range(hcfg.max_stages):
        run = np.flatnonzero(level > hcfg.epsilon)
        if run.size == 0:
            break
        codes, tr = sparse_code_fixed(d, [observations[t] for t in run], a[:, run],
                                      replace(hcfg.inner, regularizer=L1(lam[run])))
        a[:, run] = codes
        level[run] = tr.consistency
        stage_lam = np.full(t_count, np.nan)
        stage_lam[run] = lam[run]
        stages.append(StageRecord(stage_lam, level.copy(), np.sum(np.abs(a), axis=0),
                                  tr.iterations))
        lam = lam * hcfg.decay
    return a, stages


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

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_callers_arrays_are_not_written(self, adaptive):
        # the kernel reuses the projection's array for the residual and
        # steps in place; the dictionary, the start and the stop levels a
        # caller passes come back as they were
        rng = np.random.default_rng(4)
        problems = [random_sparse_problem("clip", rng, n=32, m=64, k=4) for _ in range(3)]
        d = problems[0][0]
        observations = [apply_measurement(problems[0][3].model, p[2]) for p in problems]
        a0, eps = 0.01 * rng.standard_normal((64, 3)), np.array([1e-3, 1e-2, 1e-1])
        kept = [x.copy() for x in (d, a0, eps)]
        cfg = SolverConfig(L1(1e-2), max_iters=100)
        if adaptive:
            sparse_code_adaptive(d, observations, a0, HomotopyConfig(cfg, epsilon=eps))
        else:
            sparse_code_fixed(d, observations, a0, cfg, stop_consistency=eps)
        for x, y in zip((d, a0, eps), kept):
            assert np.array_equal(x, y)

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
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="iteration"):
            sparse_code_fixed(d, obs, np.ones(64), cfg)

    def test_divergence_with_some_columns_stopped(self):
        # the first column meets its stop level at the start and sits out;
        # the others diverge, and the masked finiteness check still fires
        rng = np.random.default_rng(5)
        d, _, _, obs = _clip_problem(rng)
        cfg = SolverConfig(L1(1e-2), step=1e12, max_iters=50)
        stop = np.array([np.inf, 0.0, 0.0])
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="iteration"):
            sparse_code_fixed(d, [obs] * 3, np.ones((64, 3)), cfg, stop_consistency=stop)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="iteration"):
            sparse_code_fixed(d, [obs] * 3, np.ones((64, 3)), cfg)

    def test_prox_l1_runs_once_per_iteration(self, monkeypatch):
        # the benchmark's tracer counts prox_l1 calls through this namespace
        rng = np.random.default_rng(7)
        d, _, _, obs = _clip_problem(rng)
        calls = []
        prox = nlcs.solvers.prox_l1
        monkeypatch.setattr(nlcs.solvers, "prox_l1",
                            lambda v, t: calls.append(v.shape) or prox(v, t))
        _, trace = sparse_code_fixed(d, [obs] * 4, np.zeros((64, 4)),
                                     SolverConfig(L1(1e-2), max_iters=60))
        assert len(calls) == trace.iterations > 1
        assert set(calls) == {(64, 4)}

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

    @pytest.mark.parametrize("rel_tol, decay", [(1e-8, 0.5), (1e-2, 0.9)])
    def test_chained_stages_equivalence(self, rel_tol, decay):
        # one signal over four stages is the chained fixed-lam calls, bit for
        # bit; a loose rel_tol makes some stages end after a few iterations
        rng = np.random.default_rng(12)
        d, _, x, obs = _clip_problem(rng)
        inner = SolverConfig(L1(1.0), max_iters=120, rel_tol=rel_tol)
        hcfg = HomotopyConfig(inner, lam0=0.25, decay=decay, epsilon=1e-300, max_stages=4)
        via_adaptive, trace = sparse_code_adaptive(d, obs, np.zeros(64), hcfg)
        assert len(trace.stages) == 4
        a, lam = np.zeros(64), 0.25
        for stage in trace.stages:
            a, tr = sparse_code_fixed(d, obs, a, replace(inner, regularizer=L1(lam)))
            assert (stage.lam, stage.iterations) == (lam, tr.iterations)
            assert stage.consistency == tr.consistency
            lam *= decay
        assert np.array_equal(via_adaptive, a)
        assert trace.iterations == sum(s.iterations for s in trace.stages)

    @pytest.mark.parametrize("family", ["clip", "quant"])
    def test_matches_lockstep_stage_loop(self, family):
        rng = np.random.default_rng(24)
        problems = [random_sparse_problem(family, rng, n=32, m=64, k=4) for _ in range(8)]
        d = problems[0][0]
        observations = [apply_measurement(problems[0][3].model, p[2]) for p in problems]
        eps = rng.choice([1e-3, 1e-2, 1e-1], size=8)
        hcfg = HomotopyConfig(SolverConfig(L1(1.0), max_iters=300), epsilon=eps)
        a0 = np.zeros((64, 8))
        codes, trace = sparse_code_adaptive(d, observations, a0, hcfg)
        want_codes, want = _lockstep_adaptive(d, observations, a0, hcfg)
        np.testing.assert_allclose(codes, want_codes, rtol=0.0, atol=1e-10)
        assert len(trace.stages) == len(want) > 1
        assert np.isnan(trace.stages[-1].lam).any()  # some columns sit late stages out
        for got, ref in zip(trace.stages, want):
            for name in ("lam", "consistency", "penalty"):
                np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                           rtol=0.0, atol=1e-12)
            assert got.iterations == ref.iterations
        assert np.all(np.diff(trace.objectives) <= 1e-12)

    def test_divergence_in_a_later_stage(self):
        # at lam0 >= ||D^T proj(0)||_inf the zero start is a fixed point, so
        # the first stage ends after one iteration; the second one diverges
        rng = np.random.default_rng(5)
        d, _, _, obs = _clip_problem(rng)
        lam0 = np.abs(d.T @ project(obs.intervals(), np.zeros(32))).max()
        inner = SolverConfig(L1(1.0), step=1e12, max_iters=50)
        a, trace = sparse_code_adaptive(d, obs, np.zeros(64),
                                        HomotopyConfig(inner, lam0=lam0, decay=1e-3,
                                                       max_stages=1))
        assert trace.stages[0].iterations == 1 and not a.any()
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="iteration"):
            sparse_code_adaptive(d, obs, np.zeros(64),
                                 HomotopyConfig(inner, lam0=lam0, decay=1e-3, max_stages=2))

    @pytest.mark.parametrize("lam0", [-1.0, np.nan, np.inf])
    def test_bad_lam0_rejected(self, lam0):
        with pytest.raises(ValueError, match="lam0 must be finite and >= 0"):
            HomotopyConfig(SolverConfig(L1(1.0)), lam0=lam0)

    def test_per_column_configs_compare_and_hash_by_value(self):
        assert L1(np.array([1.0, 2.0])) == L1(np.array([1.0, 2.0]))
        assert L1(np.array([1.0, 2.0])) != L1(np.array([1.0, 3.0]))
        assert L1(np.array([1.0, 2.0])) != L1(np.array([1.0, 2.0, 0.0]))
        inner = SolverConfig(L1(1.0))
        h1 = HomotopyConfig(inner, epsilon=np.array([1e-3, 1e-2]))
        h2 = HomotopyConfig(inner, epsilon=np.array([1e-3, 1e-2]))
        assert h1 == h2 and hash(h1) == hash(h2) and len({h1, h2}) == 1
        assert h1 != HomotopyConfig(inner, epsilon=np.array([1e-3, 1e-1]))
        assert h1 != HomotopyConfig(inner, epsilon=1e-3)
        # scalar configs compare and hash as before
        assert L1(1.0) == L1(1) and hash(L1(1.0)) == hash(L1(1))
        assert L1(1.0) != L1(np.array([1.0])) and L1(1.0) != 1.0
        assert HomotopyConfig(inner) == HomotopyConfig(inner)
        assert hash(HomotopyConfig(inner)) == hash(HomotopyConfig(inner))

    def test_exhausted_stages_flagged_not_converged(self):
        rng = np.random.default_rng(13)
        d, _, x, obs = _clip_problem(rng)
        hcfg = HomotopyConfig(SolverConfig(L1(1.0), max_iters=5),
                              epsilon=1e-12, max_stages=2)
        _, trace = sparse_code_adaptive(d, obs, np.zeros(64), hcfg)
        assert not trace.converged
        assert len(trace.stages) == 2

    def test_per_column_epsilon_matches_scalar_calls(self):
        rng = np.random.default_rng(22)
        problems = [random_sparse_problem("clip", rng, n=32, m=64, k=4) for _ in range(6)]
        d = problems[0][0]
        observations = [apply_measurement(problems[0][3].model, p[2]) for p in problems]
        eps = np.array([1e-3, 1e-1, 1e-3, 1e-2, 1e-1, 1e-2])
        inner = SolverConfig(L1(1.0), max_iters=400)
        a0 = np.zeros((64, 6))
        batch, trace = sparse_code_adaptive(d, observations, a0,
                                            HomotopyConfig(inner, epsilon=eps))
        assert trace.converged and np.all(trace.consistency <= eps)
        for level in np.unique(eps):
            cols = np.flatnonzero(eps == level)
            part, tr = sparse_code_adaptive(d, [observations[t] for t in cols], a0[:, cols],
                                            HomotopyConfig(inner, epsilon=float(level)))
            np.testing.assert_allclose(batch[:, cols], part, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(trace.consistency[cols], tr.consistency,
                                       rtol=0.0, atol=1e-12)
        # one level repeated per column is the scalar call, bit for bit
        same, _ = sparse_code_adaptive(d, observations, a0,
                                       HomotopyConfig(inner, epsilon=np.full(6, 1e-2)))
        scalar, _ = sparse_code_adaptive(d, observations, a0,
                                         HomotopyConfig(inner, epsilon=1e-2))
        assert np.array_equal(same, scalar)

    @pytest.mark.parametrize("eps", [np.nan, -1e-3, 0.0, np.inf,
                                     np.array([1e-3, np.nan]), np.ones((2, 2))])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            HomotopyConfig(SolverConfig(L1(1.0)), epsilon=eps)

    def test_epsilon_length_must_match_batch(self):
        rng = np.random.default_rng(23)
        d, _, _, obs = _clip_problem(rng)
        hcfg = HomotopyConfig(SolverConfig(L1(1.0)), epsilon=np.full(3, 1e-3))
        with pytest.raises(ValueError, match="epsilon"):
            sparse_code_adaptive(d, [obs] * 2, np.zeros((64, 2)), hcfg)

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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("reg", [L1(1e-2), L0(3)], ids=["l1", "top-k"])
def test_single_signal_objectives_sum_to_the_kernels_first_total(family, reg):
    # objective is _evaluate on one column: summed over a batch it gives
    # the kernel's objective of the same codes
    rng = np.random.default_rng(22)
    d, _, _, _ = random_sparse_problem(family, rng)
    model = random_model(family, rng, d.shape[0])
    signals = rng.standard_normal((d.shape[0], 6))
    if family == "gquant":
        signals = np.tanh(signals)
    observations = [apply_measurement(model, x) for x in signals.T]
    a = np.where(rng.random((d.shape[1], 6)) < 0.2, rng.standard_normal((d.shape[1], 6)), 0.0)
    cfg = SolverConfig(reg, max_iters=1)
    totals = _descend(d, Batch.of(observations).projector, a.copy(), cfg, _resolve_step(d))[1]
    got = sum(objective(d, a[:, t], o, cfg) for t, o in enumerate(observations))
    assert got == pytest.approx(totals[0], rel=1e-12)


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

    def test_projector_reads_each_observations_intervals_once(self, monkeypatch):
        rng = np.random.default_rng(19)
        observations = [random_observation("quant", rng, 16)[0] for _ in range(5)]
        z = rng.standard_normal((16, 5))
        want = np.stack([project(o.intervals(), z[:, t])
                         for t, o in enumerate(observations)], axis=1)
        calls = []
        intervals = Observation.intervals
        monkeypatch.setattr(Observation, "intervals",
                            lambda o: calls.append(1) or intervals(o))
        got = Batch.of(observations).projector.project(z)
        assert len(calls) == len(observations)
        assert np.array_equal(got, want)

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

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_prox_runs_on_the_columns_still_running(self, monkeypatch, adaptive):
        # a column leaves the batch when it finishes: iteration k computes
        # exactly the columns whose own solve runs k iterations or more
        rng = np.random.default_rng(25)
        problems = [random_sparse_problem("clip", rng, n=32, m=64, k=4) for _ in range(8)]
        d = problems[0][0]
        observations = [apply_measurement(problems[0][3].model, p[2]) for p in problems]
        a0 = np.zeros((64, 8))
        inner = SolverConfig(L1(1e-2), max_iters=150)
        eps = np.array([1e-3, 1e-1, 1e-2, 1e-3, 1e-1, 1e-2, 1e-3, 1e-2])

        def solve(obs, start, eps):
            if adaptive:
                return sparse_code_adaptive(d, obs, start, HomotopyConfig(inner, epsilon=eps))
            return sparse_code_fixed(d, obs, start, inner, stop_consistency=eps)

        runs = np.array([solve(obs, a0[:, t], float(eps[t]))[1].iterations
                         for t, obs in enumerate(observations)])
        assert len(set(runs)) > 1
        widths = []
        prox = nlcs.solvers.prox_l1
        monkeypatch.setattr(nlcs.solvers, "prox_l1",
                            lambda v, t: widths.append(v.shape[1]) or prox(v, t))
        codes, trace = solve(observations, a0, eps)
        assert trace.iterations == runs.max()
        assert widths == [np.count_nonzero(runs >= k) for k in range(1, runs.max() + 1)]
        if not adaptive:  # finished columns stay in the total, frozen
            final = sum(objective(d, codes[:, t], o, inner) for t, o in enumerate(observations))
            assert trace.objectives[-1] == pytest.approx(final, rel=1e-12)

    def test_adaptive_builds_one_projector(self, monkeypatch):
        rng = np.random.default_rng(26)
        problems = [random_sparse_problem("quant", rng, n=32, m=64, k=4) for _ in range(4)]
        observations = [apply_measurement(problems[0][3].model, p[2]) for p in problems]
        builds = []
        build = Batch.of
        monkeypatch.setattr(Batch, "of", staticmethod(lambda obs: builds.append(1) or build(obs)))
        _, trace = sparse_code_adaptive(problems[0][0], observations, np.zeros((64, 4)),
                                        HomotopyConfig(SolverConfig(L1(1.0), max_iters=100)))
        assert len(trace.stages) > 1 and len(builds) == 1

    @pytest.mark.parametrize("family", ["clip", "linear", "per-column linear"])
    def test_projector_columns_match_a_projector_of_those_observations(self, family):
        rng = np.random.default_rng(27)
        if family == "per-column linear":
            observations = [random_observation("linear", rng, 16)[0] for _ in range(5)]
        else:
            model = random_model(family, rng, 16)
            observations = [apply_measurement(model, rng.standard_normal(16))
                            for _ in range(5)]
        z = rng.standard_normal((16, 3))
        cols = np.array([0, 2, 4])
        got = Batch.of(observations).projector.columns(cols)
        want = Batch.of([observations[t] for t in cols]).projector.project(z)
        assert np.array_equal(got.project(z), want)
        one = Batch.of([observations[2]]).projector.project(z[:, 1:2])
        assert np.array_equal(got.columns(np.array([1])).project(z[:, 1:2]), one)

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
        projector = Batch.of(observations).projector
        mu = _resolve_step(d)
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(nlcs.solvers, "_synth_used",
                       lambda d, a: calls.append(1) or _synth_used(d, a))
            got = _descend(d, projector, a0.copy(), cfg, mu)
        assert len(calls) == len(got[1])  # the start and every iteration
        with monkeypatch.context() as mp:
            mp.setattr(nlcs.solvers, "_synth_used", _dense)
            want = _descend(d, projector, a0.copy(), cfg, mu)
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


def _every_column_moved(self, g, rows):
    """The screen's candidate test off: a full step selects every column."""
    return np.arange(g.shape[1])


class _CountingProjector:
    """A batch projector that records the batch width each time columns leave."""

    def __init__(self, projector, widths):
        self.projector, self.widths = projector, widths

    def project(self, z):
        return self.projector.project(z)

    def columns(self, keep):
        self.widths.append(len(keep))
        return _CountingProjector(self.projector.columns(keep), self.widths)


class TestWarmTopKSupport:
    """The screen's full step keeps a column's last support where it is
    still the strict top-K; a run with that test off, every column
    selected, is the reference, bit for bit."""

    def _problem(self, rng, model, n=32, m=128, t=24, k=4):
        d = rng.standard_normal((n, m))
        d /= np.linalg.norm(d, axis=0)
        observations = []
        for _ in range(t):
            x = d[:, rng.choice(m, size=k, replace=False)] @ rng.standard_normal(k)
            observations.append(apply_measurement(model, x / np.abs(x).max()))
        return d, observations

    def _descend_both(self, monkeypatch, d, observations, cfg, stop=None):
        """(columns selected per top-K call, batch widths as columns left,
        iterations) of the warm run, after checking it against the reference."""
        projector, mu = Batch.of(observations).projector, _resolve_step(d)
        a0 = np.zeros((d.shape[1], len(observations)))
        selected, widths, full = [], [], nlcs.solvers._topk_keep
        with monkeypatch.context() as mp:
            mp.setattr(nlcs.solvers, "_topk_keep",
                       lambda v, k: selected.append(v.shape[1]) or full(v, k))
            got = _descend(d, _CountingProjector(projector, widths), a0.copy(), cfg, mu, stop)
        with monkeypatch.context() as mp:
            mp.setattr(nlcs.solvers._TopKScreen, "_moved", _every_column_moved)
            want = _descend(d, projector, a0.copy(), cfg, mu, stop)
        for g, w in zip(got, want):  # codes, totals, stopped flags, data terms
            assert_bitwise_equal(g, w)
        return selected, widths, len(got[1]) - 1

    def test_clipped_data(self, monkeypatch):
        rng = np.random.default_rng(40)
        d, observations = self._problem(rng, Clip(0.4, -0.4))
        selected, _, iters = self._descend_both(
            monkeypatch, d, observations, SolverConfig(L0(4), max_iters=60))
        assert iters > 20
        assert sum(selected) < iters * len(observations) / 2  # most columns held

    def test_quantized_data_with_columns_leaving(self, monkeypatch):
        rng = np.random.default_rng(41)
        model = uniform_quantizer_for_bits(12)
        d, observations = self._problem(rng, model)
        stop = np.full(len(observations), 0.1)  # reached at different iterations
        selected, widths, iters = self._descend_both(
            monkeypatch, d, observations, SolverConfig(L0(4), max_iters=60), stop)
        assert len(widths) >= 2 and widths[-1] < len(observations)  # left mid-solve
        assert sum(selected) < iters * len(observations) / 2

    def test_learning_on_clipped_data(self, monkeypatch):
        rng = np.random.default_rng(42)
        d_true, observations = self._problem(rng, Clip(0.4, -0.4), t=40)
        train = Batch.of(observations)
        cfg = DictLearnConfig(inner_code=SolverConfig(L0(4), max_iters=10),
                              outer_iters=4, inner_dict_iters=5)
        d0 = dct_dictionary(32, 128)
        got = learn(train, d0, cfg)
        monkeypatch.setattr(nlcs.solvers._TopKScreen, "_moved", _every_column_moved)
        want = learn(train, d0, cfg)
        for g, w in zip(got[:2], want[:2]):
            assert_bitwise_equal(g, w)
        assert got[2].after_coding == want[2].after_coding
        assert got[2].after_dict == want[2].after_dict


def _certify_none(self, a, r, data):
    """The screen with its certificate off: every step is the full product."""
    return np.zeros(r.shape[1], bool), None, None


class TestTopKScreen:
    """Top-K steps multiply only the atoms in use where a residual bound
    proves a column's support; the same kernel with the certificate off is
    the unscreened reference."""

    def _problem(self, rng, model, n=32, m=256, t=24, k=4):
        d = rng.standard_normal((n, m))
        d /= np.linalg.norm(d, axis=0)
        observations = []
        for _ in range(t):
            x = d[:, rng.choice(m, size=k, replace=False)] @ rng.standard_normal(k)
            observations.append(apply_measurement(model, x / np.abs(x).max()))
        y = np.stack([o.values for o in observations], axis=1)
        return d, observations, prox_l0_topk(_resolve_step(d) * (d.T @ y), k)

    def _descend_both(self, monkeypatch, d, projector, a0, cfg, stop=None):
        """(screened result, reference result, per-iteration supports of
        each, per-step certified masks of the screened run)."""
        runs = []
        for certify in (None, _certify_none):
            supports, held = [], []
            with monkeypatch.context() as mp:
                mp.setattr(nlcs.solvers, "_synth_used",
                           lambda d, a: supports.append(a != 0.0) or _synth_used(d, a))
                screen_certify = certify or nlcs.solvers._TopKScreen._certify

                def recording(self, a, r, data):
                    result = screen_certify(self, a, r, data)
                    held.append(result[0])
                    return result

                mp.setattr(nlcs.solvers._TopKScreen, "_certify", recording)
                result = _descend(d, projector, a0.copy(), cfg, _resolve_step(d), stop)
            runs.append((result, supports, held))
        (got, got_supports, held), (want, want_supports, none_held) = runs
        assert not any(h.any() for h in none_held)
        return got, want, got_supports, want_supports, held

    @pytest.mark.parametrize("family", ["clip", "quant", "onebit"])
    def test_matches_the_unscreened_kernel(self, monkeypatch, family):
        rng = np.random.default_rng(60)
        model = {"clip": Clip(0.4, -0.4), "quant": uniform_quantizer_for_bits(4),
                 "onebit": OneBit()}[family]
        d, observations, a0 = self._problem(rng, model)
        got, want, got_supports, want_supports, held = self._descend_both(
            monkeypatch, d, Batch.of(observations).projector, a0,
            SolverConfig(L0(4), max_iters=60))
        assert len(got_supports) == len(want_supports) == 61
        for g, w in zip(got_supports, want_supports):
            assert np.array_equal(g, w)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[3], want[3], rtol=1e-9, atol=1e-300)
        assert np.array_equal(got[2], want[2])
        assert np.concatenate(held).mean() > 0.5  # the screen did hold most columns

    def test_columns_leaving_keep_the_state_aligned(self, monkeypatch):
        rng = np.random.default_rng(61)
        d, observations, a0 = self._problem(rng, uniform_quantizer_for_bits(8), t=30)
        widths = []
        projector = _CountingProjector(Batch.of(observations).projector, widths)
        stop = np.full(30, 0.45)  # reached at various iterations, or never
        compactions, columns = [], nlcs.solvers._TopKScreen.columns
        fields = ("rows", "m", "ref_norm", "r_ref")

        def checked(screen, keep):  # each kept column's state moves with it
            before = [getattr(screen, f).copy() for f in fields]
            columns(screen, keep)
            for f, x in zip(fields, before):
                assert_bitwise_equal(getattr(screen, f), x[..., keep])
            compactions.append(keep.size)

        monkeypatch.setattr(nlcs.solvers._TopKScreen, "columns", checked)
        got, want, got_supports, want_supports, held = self._descend_both(
            monkeypatch, d, projector, a0, SolverConfig(L0(4), max_iters=60), stop)
        assert len(set(widths)) >= 3 and widths[-1] < 30  # columns left more than once
        assert len(compactions) == len(widths)
        assert len(got_supports) == len(want_supports)
        for g, w in zip(got_supports, want_supports):
            assert np.array_equal(g, w)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
        assert np.array_equal(got[2], want[2])
        after = [h for h in held if h.size < 30]
        assert after and np.concatenate(after).mean() > 0.5  # held after leaving, too

    def _screen_after_one_step(self, rng):
        """A screen whose three columns hold the supports {0, 1}, {2, 3} and
        {0, 1} (so U = {0, 1, 2, 3}) and have a bound, and the codes and
        residual of that step.  Atoms 0-15 are the unit vectors, and column
        1's residual makes atom 0 its runner-up: 8 against 10."""
        d = np.hstack((np.eye(16), rng.standard_normal((16, 16))))
        d /= np.linalg.norm(d, axis=0)
        a = np.zeros((32, 3))
        a[:2, [0, 2]] = a[2:4, 1] = 10.0
        screen = nlcs.solvers._TopKScreen(d, 2, 0.5, a)
        r = 1e-3 * rng.standard_normal((16, 3))
        r[0, 1] = 16.0
        new = screen.step(a, r, 0.5 * np.sum(r * r, axis=0))
        assert np.array_equal(new != 0.0, a != 0.0)
        assert np.all(screen.m < np.inf) and screen.m[1] < 6.0  # every column has a bound
        return d, screen, new, r

    @pytest.mark.parametrize("atom, push", [(0, 6.0), (10, 30.0)], ids=["in U", "outside U"])
    def test_an_atom_that_overtakes_the_support_enters(self, atom, push):
        # in U the exact g on U shows it; outside U only the residual bound can
        rng = np.random.default_rng(62)
        d, screen, a, r = self._screen_after_one_step(rng)
        assert (screen.where[atom] >= 0) == (atom == 0)
        r = r.copy()
        r[atom, 1] += push  # atom's g in column 1 now reaches 11 or 15
        data = 0.5 * np.sum(r * r, axis=0)
        held = screen._certify(a, r, data)[0]
        assert held.tolist() == [True, False, True]
        new = screen.step(a, r, data)
        g = a + 0.5 * (d.T @ r)
        np.testing.assert_allclose(new, prox_l0_topk(g, 2), rtol=1e-12, atol=0.0)
        assert new[atom, 1] != 0.0 and screen.where[atom] >= 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_nonfinite_residual_certifies_no_column(self, bad):
        rng = np.random.default_rng(63)
        _, screen, a, r = self._screen_after_one_step(rng)
        data = 0.5 * np.sum(r * r, axis=0)
        assert screen._certify(a, r, data)[0].all()  # the same residual holds
        r = r.copy()
        r[3, 1] = bad
        with np.errstate(invalid="ignore"):
            held = screen._certify(a, r, 0.5 * np.sum(r * r, axis=0))[0]
        assert held.tolist() == [True, False, True]
        r[5] = bad
        with np.errstate(invalid="ignore"):
            assert not screen._certify(a, r, 0.5 * np.sum(r * r, axis=0))[0].any()

    def test_half_the_atoms_in_use_take_the_dense_step_bitwise(self, monkeypatch):
        rng = np.random.default_rng(64)
        d, observations, a0 = self._problem(rng, Clip(0.4, -0.4), m=64, t=30)
        assert 2 * np.count_nonzero(a0.any(axis=1)) >= 64
        projector, cfg = Batch.of(observations).projector, SolverConfig(L0(4), max_iters=40)
        got, want, _, _, held = self._descend_both(monkeypatch, d, projector, a0, cfg)
        assert held == []  # the dense step never asks for a certificate
        for g, w in zip(got, want):
            assert_bitwise_equal(g, w)

    def test_u_grows_to_half_the_atoms_and_goes_dense(self, monkeypatch):
        rng = np.random.default_rng(65)
        d, observations, _ = self._problem(rng, Clip(0.4, -0.4), m=64, t=30)
        screens = []
        init = nlcs.solvers._TopKScreen.__init__
        monkeypatch.setattr(nlcs.solvers._TopKScreen, "__init__",
                            lambda self, *args: screens.append(self) or init(self, *args))
        _descend(d, Batch.of(observations).projector, np.zeros((64, 30)),
                 SolverConfig(L0(4), max_iters=40), _resolve_step(d))
        (screen,) = screens
        assert screen.dense and 2 * screen.used.size >= 64 and screen.d_used is None

    def test_a_warm_start_seeds_the_candidate_rows(self, monkeypatch):
        rng = np.random.default_rng(66)
        d, observations, a0 = self._problem(rng, Clip(0.4, -0.4))
        projector, cfg = Batch.of(observations).projector, SolverConfig(L0(4), max_iters=30)
        warm = _descend(d, projector, a0.copy(), cfg, _resolve_step(d))[0]
        selected, full = [], nlcs.solvers._topk_keep
        monkeypatch.setattr(nlcs.solvers, "_topk_keep",
                            lambda v, k: selected.append(v.shape[1]) or full(v, k))
        once = replace(cfg, max_iters=1)
        a1 = _descend(d, projector, warm.copy(), once, _resolve_step(d))[0]
        assert sum(selected) < len(observations) / 2  # the first step held most columns
        z = _synth_used(d, warm)
        g = warm + _resolve_step(d) * (d.T @ (projector.project(z) - z))
        assert_bitwise_equal(a1, prox_l0_topk(g, 4))
