import tracemalloc

import numpy as np
import pytest

from conftest import (
    FAMILIES,
    SEPARABLE_FAMILIES,
    assert_bitwise_equal,
    random_model,
    random_observation,
)
from nlcs.measurements import (
    Batch,
    Clip,
    DegenerateObservationError,
    GeneralLinear,
    GeneralQuantizer,
    Identity,
    IntervalSet,
    Mask,
    Observation,
    OneBit,
    SingularModelError,
    UniformQuantizer,
    apply_measurement,
    cost,
    estimate_clip_model,
    feasibility_intervals,
    gradient,
    project,
    project_linear,
)
from nlcs.measurements import _quantizer_bin_index
from nlcs.pipeline import uniform_quantizer_for_bits, wav_read, wav_write


# ---------------------------------------------------------------------------
# closed-form data costs used as independent oracles (one per model family)


def clip_cost_closed_form(y, reliable, clip_pos, clip_neg, x):
    r = np.where(reliable, y - x, 0.0)
    p = np.maximum(np.where(clip_pos, y - x, 0.0), 0.0)
    n = np.minimum(np.where(clip_neg, y - x, 0.0), 0.0)
    return 0.5 * (r @ r + p @ p + n @ n)


def quantizer_cost_closed_form(lower, upper, lower_bounded, upper_bounded, x):
    below = np.minimum(np.where(lower_bounded, x - lower, 0.0), 0.0)
    above = np.maximum(np.where(upper_bounded, x - upper, 0.0), 0.0)
    return 0.5 * (below @ below + above @ above)


def onebit_cost_closed_form(y, x):
    v = np.minimum(y * x, 0.0)
    return 0.5 * (v @ v)


def mask_cost_closed_form(y, reliable, x):
    r = np.where(reliable, y - x, 0.0)
    return 0.5 * (r @ r)


class TestApplyMeasurement:
    def test_clip_values_and_masks(self):
        obs = apply_measurement(Clip(0.5, -0.5), np.array([0.2, 0.9, -0.7]))
        assert obs.values == pytest.approx(np.array([0.2, 0.5, -0.5]))
        assert obs.reliable.tolist() == [True, False, False]
        assert obs.clip_pos.tolist() == [False, True, False]
        assert obs.clip_neg.tolist() == [False, False, True]

    def test_mid_riser_quantizer(self):
        obs = apply_measurement(UniformQuantizer(0.5), np.array([0.3, -0.1]))
        assert obs.values == pytest.approx(np.array([0.25, -0.25]))

    def test_onebit_sign_of_zero_is_positive(self):
        obs = apply_measurement(OneBit(), np.array([0.3, -0.2, 0.0]))
        assert obs.values == pytest.approx(np.array([1.0, -1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_measurement(Mask(np.array([True, False])), np.zeros(3))
        with pytest.raises(ValueError):
            apply_measurement(GeneralLinear(np.ones((2, 4))), np.zeros(3))


class TestFeasibilityIntervals:
    def test_clip_read_off(self):
        obs = apply_measurement(Clip(0.5, -0.5), np.array([0.2, 0.9, -0.7]))
        iv = feasibility_intervals(obs)
        assert iv.lower[0] == iv.upper[0] == pytest.approx(0.2)
        assert np.isfinite(iv.lower).tolist() == [True, True, False]
        assert np.isfinite(iv.upper).tolist() == [True, False, True]
        assert iv.lower[1] == pytest.approx(0.5)
        assert iv.upper[2] == pytest.approx(-0.5)

    def test_mid_riser_bin_closure(self):
        obs = apply_measurement(UniformQuantizer(0.5), np.array([0.3]))
        iv = feasibility_intervals(obs)
        assert iv.lower[0] == pytest.approx(0.0)
        assert iv.upper[0] == pytest.approx(0.5)

    def test_identity_preimage(self):
        iv = feasibility_intervals(apply_measurement(Identity(), np.array([1.0])))
        assert iv.lower[0] == iv.upper[0] == 1.0

    def test_linear_rejected(self):
        obs = apply_measurement(GeneralLinear(np.eye(3)), np.zeros(3))
        with pytest.raises(ValueError):
            feasibility_intervals(obs)


def dense_bin_index(model, values):
    """Reference lookup: argmin over the full value-by-codeword distance matrix."""
    return np.argmin(np.abs(values[:, None] - model.codewords[None, :]), axis=1)


class TestQuantizerBinIndex:
    @pytest.mark.parametrize("bits", range(1, 13))
    def test_matches_dense_argmin_uniform(self, bits):
        rng = np.random.default_rng(bits)
        q = uniform_quantizer_for_bits(bits)
        c = q.codewords
        picks = np.concatenate([[0, c.shape[0] - 1], rng.integers(0, c.shape[0], 300)])
        values = c[picks] + rng.uniform(-1e-10, 1e-10, picks.shape[0])
        idx = _quantizer_bin_index(q, values)
        assert np.array_equal(idx, dense_bin_index(q, values))
        assert np.array_equal(idx, picks)

    def test_matches_dense_argmin_non_monotone(self):
        rng = np.random.default_rng(3)
        q = GeneralQuantizer(np.array([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf]),
                             np.array([0.7, -3.0, 5.0, -0.2, 1.1]))
        picks = rng.integers(0, 5, 200)
        values = q.codewords[picks] + rng.uniform(-1e-10, 1e-10, 200)
        assert np.array_equal(_quantizer_bin_index(q, values),
                              dense_bin_index(q, values))

    @pytest.mark.parametrize("codewords", [[1e-9, 0.0], [0.0, 1e-9]])
    def test_exact_tie_goes_to_lower_index(self, codewords):
        # 5e-10 is legal for both codewords and exactly halfway between them
        q = GeneralQuantizer(np.array([-np.inf, 0.0, np.inf]), np.array(codewords))
        values = np.array([5e-10])
        assert _quantizer_bin_index(q, values).tolist() == [0]
        assert np.array_equal(_quantizer_bin_index(q, values), dense_bin_index(q, values))

    def test_value_within_tolerance_accepted(self):
        q = uniform_quantizer_for_bits(4)
        iv = feasibility_intervals(Observation(np.array([q.codewords[5] + 1e-10]), q))
        assert iv.lower[0] == q.edges[5] and iv.upper[0] == q.edges[6]

    def test_illegal_value_rejected(self):
        q = uniform_quantizer_for_bits(4)
        illegal = q.codewords[5] + 1e-3
        with pytest.raises(ValueError,
                           match="^observation values are not legal quantizer codewords$"):
            feasibility_intervals(Observation(np.array([0.0625, illegal]), q))

    def test_memory_does_not_scale_with_codeword_count(self):
        # a dense 4096 x 65536 distance matrix would take 2 GiB
        q = uniform_quantizer_for_bits(16)
        obs = apply_measurement(q, np.random.default_rng(4).uniform(-1, 1, 4096))
        tracemalloc.start()
        try:
            iv = feasibility_intervals(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(iv) == 4096
        assert peak < 4 * 2**20


class TestProject:
    def test_clamp_matches_grid_search(self):
        # per-coordinate grid search over the feasible box as oracle
        obs = apply_measurement(Clip(0.5, -0.5), np.array([0.2, 0.9, -0.7]))
        iv = feasibility_intervals(obs)
        x = np.array([0.9, 0.7, 0.1])
        got = project(iv, x)
        assert got == pytest.approx(np.array([0.2, 0.7, -0.5]))
        for i in range(3):
            lo = iv.lower[i] if np.isfinite(iv.lower[i]) else -3.0
            up = iv.upper[i] if np.isfinite(iv.upper[i]) else 3.0
            grid = np.linspace(lo, up, 20001)
            best = grid[np.argmin(np.abs(grid - x[i]))]
            assert abs(got[i] - best) < 5e-4

    def test_member_is_fixed_point(self):
        iv = IntervalSet.equality(np.array([1.0, -2.0]))
        x = np.array([1.0, -2.0])
        assert np.array_equal(project(iv, x), x)

    def test_onebit_negative_orthant(self):
        obs = apply_measurement(OneBit(), np.array([-0.2]))
        assert project(feasibility_intervals(obs), np.array([0.4]))[0] == 0.0

    def test_validation(self):
        inf, nan = np.inf, np.nan
        for lo, up, why in [(1.0, 0.0, "lower <= upper"), (nan, 1.0, "lower < \\+inf"),
                            (0.0, nan, "upper > -inf"), (inf, inf, "lower < \\+inf"),
                            (-inf, -inf, "upper > -inf")]:
            with pytest.raises(ValueError, match=why):
                IntervalSet(np.array([lo]), np.array([up]))
        # (N, T): one signal per column, projected column by column; -inf and
        # +inf mark the open sides
        lo = np.array([[0.0, -inf], [0.5, 0.0]])
        up = np.array([[1.0, inf], [1.5, 1.0]])
        iv = IntervalSet(lo, up)
        x = np.array([[-3.0, -3.0], [3.0, 0.5]])
        assert np.array_equal(project(iv, x), np.array([[0.0, -3.0], [1.5, 0.5]]))
        assert iv.contains(project(iv, x)) and not iv.contains(x)
        with pytest.raises(ValueError, match="1-d or 2-d"):
            IntervalSet(lo[None], up[None])
        with pytest.raises(ValueError, match="1-d or 2-d"):
            IntervalSet(lo, up[:, :1])


def project_two_where(iv, x):
    """The clamp as it was first written: one np.where pass per side."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.isfinite(iv.lower), np.maximum(x, iv.lower), x)
    return np.where(np.isfinite(iv.upper), np.minimum(out, iv.upper), out)


def assert_bits_equal(got, want):
    # equal bit patterns: tells -0.0 from +0.0 and compares NaN payloads
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def stack_intervals(observations):
    return IntervalSet(*(np.stack([getattr(o.intervals(), name) for o in observations],
                                  axis=1)
                         for name in ("lower", "upper")))


# x against every kind of side: both zeros, NaN, infinities and ordinary values
EDGE_X = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, 0.3, -0.3, 2.0, -2.0, 1e-300])


class TestProjectBitIdentity:
    @pytest.mark.parametrize("lb,ub", [(False, False), (True, False), (False, True),
                                       (True, True)])
    @pytest.mark.parametrize("bound", [0.0, -0.0, 1.0])
    def test_one_signal_sides_and_signed_zero(self, lb, ub, bound):
        n = EDGE_X.shape[0]
        iv = IntervalSet(np.full(n, bound if lb else -np.inf),
                         np.full(n, bound if ub else np.inf))
        got = project(iv, EDGE_X)
        assert_bits_equal(got, project_two_where(iv, EDGE_X))
        if not (lb or ub):
            assert_bits_equal(got, EDGE_X)

    def test_batch_projector_on_every_separable_family(self):
        rng = np.random.default_rng(21)
        n = EDGE_X.shape[0]
        for family in SEPARABLE_FAMILIES:
            observations = [random_observation(family, rng, n=n)[0] for _ in range(5)]
            stacked = stack_intervals(observations)
            x = np.stack([EDGE_X, -EDGE_X, rng.standard_normal(n), EDGE_X[::-1],
                          np.zeros(n)], axis=1)
            want = project_two_where(stacked, x)
            assert_bits_equal(Batch.of(observations).projector.project(x), want)
            assert_bits_equal(project(stacked, x), want)
            for t, o in enumerate(observations):
                assert_bits_equal(project(o.intervals(), x[:, t]), want[:, t])

    def test_signed_zero_bounds_from_observations(self):
        # identity and mask observations of +-0.0 give +-0.0 bounds on both
        # sides, 1-bit observations a +0.0 bound on one side
        y = np.array([-0.0, 0.0, -0.0, 0.0])
        observations = [Observation(y, Identity()),
                        Observation(y, Mask(np.array([True, True, False, True]))),
                        Observation(np.array([1.0, -1.0, 1.0, -1.0]), OneBit())]
        x = np.array([[-0.0, 0.0, np.nan], [0.0, -0.0, -0.0], [-0.0, -0.0, 0.0],
                      [0.0, 0.0, -0.0]])
        for o in observations:
            for col in x.T:
                assert_bits_equal(project(o.intervals(), col),
                                  project_two_where(o.intervals(), col))
            batch = [o] * 3
            assert_bits_equal(Batch.of(batch).projector.project(x),
                              project_two_where(stack_intervals(batch), x))


class TestProjectLinear:
    def test_identity_matrix_returns_y(self):
        model = GeneralLinear(np.eye(4))
        rng = np.random.default_rng(0)
        y = rng.standard_normal(4)
        x = rng.standard_normal(4)
        assert project_linear(model, y, x) == pytest.approx(y)

    def test_diagonal_mask_formula(self):
        sel = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # keeps samples 0, 2
        model = GeneralLinear(sel)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        y = sel @ rng.standard_normal(3)
        got = project_linear(model, y, x)
        want = np.array([y[0], x[1], y[1]])
        assert got == pytest.approx(want, abs=1e-12)

    def test_feasibility_and_optimality(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((2, 4))
        model = GeneralLinear(m)
        x = rng.standard_normal(4)
        y = m @ rng.standard_normal(4)
        p = project_linear(model, y, x)
        assert np.abs(m @ p - y).max() < 1e-10
        # optimality against random feasible points built from the null space
        _, _, vt = np.linalg.svd(m)
        null = vt[2:].T
        dist = np.linalg.norm(x - p)
        w = rng.standard_normal((2, 100_000))
        zs = p[:, None] + null @ w
        dists = np.linalg.norm(x[:, None] - zs, axis=0)
        assert np.all(dist <= dists + 1e-12)

    def test_singular_model_rejected(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        with pytest.raises(SingularModelError):
            project_linear(GeneralLinear(m), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_condition_checked_once_per_model(self, monkeypatch, rank_deficient):
        # the Gram matrix belongs to the model: observations that share one
        # model check its condition once, and a rejected model stays rejected
        rng = np.random.default_rng(20)
        m = rng.standard_normal((3, 6))
        if rank_deficient:
            m[2] = m[0] + m[1]
        model = GeneralLinear(m)
        observations = [Observation(m @ rng.standard_normal(6), model) for _ in range(2)]
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda g: calls.append(1) or cond(g))

        def attempt(run):
            if rank_deficient:
                with pytest.raises(SingularModelError):
                    run()
            else:
                run()

        for _ in range(3):
            attempt(lambda: Batch.of(observations).projector.project(np.ones((6, 2))))
            for o in observations:
                attempt(lambda: gradient(o, np.ones(6)))
        assert len(calls) == (9 if rank_deficient else 1)


class TestBatch:
    def test_mixed_lengths_rejected(self):
        rng = np.random.default_rng(13)
        o1 = apply_measurement(Identity(), rng.standard_normal(8))
        o2 = apply_measurement(Clip(0.5, -0.5), rng.standard_normal(9))
        for observations in ([o1, o2], [o2, o1, o1]):
            with pytest.raises(ValueError, match=r"one signal length, got lengths \[8, 9\]"):
                Batch.of(observations)


class TestCostGradient:
    def test_member_has_zero_cost_and_gradient(self):
        rng = np.random.default_rng(3)
        for family in SEPARABLE_FAMILIES:
            obs, x = random_observation(family, rng)
            p = project(feasibility_intervals(obs), x)
            assert cost(obs, p) == 0.0
            assert np.abs(gradient(obs, p)).max() == 0.0

    def test_identity_is_least_squares(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(8)
        x = rng.standard_normal(8)
        obs = apply_measurement(Identity(), y)
        assert cost(obs, x) == pytest.approx(0.5 * np.sum((x - y) ** 2))
        assert gradient(obs, x) == pytest.approx(x - y)

    def test_quantizer_interval_example(self):
        obs = apply_measurement(UniformQuantizer(0.5), np.array([0.3, 0.3]))
        x = np.array([0.7, 0.2])  # first sample 0.2 above its bin [0, 0.5]
        assert cost(obs, x) == pytest.approx(0.02)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        obs, _ = random_observation("clip", rng)
        x = _away_from_bounds(obs, rng)
        g = gradient(obs, x)
        fd = _central_differences(obs, x)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0) < 1e-5


@pytest.mark.parametrize("family", FAMILIES)
def test_single_signal_gradient_is_one_column_of_the_batch(family):
    # cost and gradient are T = 1 batches: each observation's gradient is
    # its column of a batch residual (bitwise for the interval boxes; a
    # linear batch solves with T right-hand sides at once)
    rng = np.random.default_rng(21)
    n, t_count = 12, 5
    model = random_model(family, rng, n)
    signals = rng.standard_normal((n, t_count))
    if family == "gquant":
        signals = np.tanh(signals)
    observations = [apply_measurement(model, x) for x in signals.T]
    z = 2.0 * rng.standard_normal((n, t_count))
    batch = z - Batch.of(observations).projector.project(z)
    for t, obs in enumerate(observations):
        col = np.ascontiguousarray(batch[:, t])
        g = gradient(obs, z[:, t])
        if family == "linear":
            np.testing.assert_allclose(g, col, rtol=1e-12, atol=1e-14)
            assert cost(obs, z[:, t]) == pytest.approx(0.5 * float(col @ col), rel=1e-12)
        else:
            assert_bitwise_equal(g, col)
            assert cost(obs, z[:, t]) == 0.5 * float(col @ col)


def _away_from_bounds(obs, rng, margin=1e-3):
    iv = feasibility_intervals(obs)
    while True:
        x = 2.0 * rng.standard_normal(len(iv))
        near_lo = np.isfinite(iv.lower) & (np.abs(x - iv.lower) < margin)
        near_up = np.isfinite(iv.upper) & (np.abs(x - iv.upper) < margin)
        if not np.any(near_lo | near_up):
            return x


def _central_differences(obs, x, h=1e-5):
    fd = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (cost(obs, x + e) - cost(obs, x - e)) / (2 * h)
    return fd


class TestEstimateClipModel:
    def test_flag_read_off(self):
        obs = estimate_clip_model(np.array([0.1, 0.5, 0.5, -0.5]))
        assert obs.model.theta_pos == 0.5 and obs.model.theta_neg == -0.5
        assert obs.clip_pos.tolist() == [False, True, True, False]
        assert obs.clip_neg.tolist() == [False, False, False, True]

    def test_single_max_sample(self):
        y = np.array([0.0, 0.1, 0.9, 0.2, -0.3])
        obs = estimate_clip_model(y)
        assert obs.clip_pos.sum() == 1 and obs.clip_pos[2]

    def test_16bit_roundtrip_matches_exact_equality(self, tmp_path):
        rng = np.random.default_rng(6)
        x = np.clip(rng.standard_normal(256) * 0.5, -0.4, 0.4)
        path = tmp_path / "clipped.wav"
        wav_write(path, x, 16000)
        y, _ = wav_read(path)
        obs = estimate_clip_model(y)
        theta_pos, theta_neg = y.max(), y.min()
        assert np.array_equal(obs.clip_pos, y == theta_pos)
        assert np.array_equal(obs.clip_neg, y == theta_neg)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateObservationError):
            estimate_clip_model(np.full(5, 0.3))


class TestModelValidation:
    def test_clip_threshold_order(self):
        with pytest.raises(ValueError):
            Clip(-0.5, 0.5)
        with pytest.raises(ValueError):
            Clip(0.5, 0.5)

    def test_quantizer_delta(self):
        with pytest.raises(ValueError):
            UniformQuantizer(0.0)

    def test_general_quantizer_edges(self):
        with pytest.raises(ValueError):
            GeneralQuantizer(np.array([0.0, 1.0, 0.5]), np.array([0.1, 0.2]))

    def test_clip_masks_must_partition(self):
        y = np.array([0.2, 0.5])
        with pytest.raises(ValueError):
            Observation(y, Clip(0.5, -0.5),
                        reliable=np.array([True, True]),
                        clip_pos=np.array([False, True]),
                        clip_neg=np.array([False, False]))

    def test_onebit_values_checked(self):
        with pytest.raises(ValueError):
            Observation(np.array([0.5]), OneBit())


class TestProjectionProperties:
    def test_idempotence_exact(self):
        rng = np.random.default_rng(7)
        for family in SEPARABLE_FAMILIES:
            for _ in range(50):
                obs, _ = random_observation(family, rng)
                iv = feasibility_intervals(obs)
                x = 2.0 * rng.standard_normal(len(iv))
                once = project(iv, x)
                assert np.array_equal(project(iv, once), once)

    def test_nonexpansive_and_lipschitz(self):
        rng = np.random.default_rng(8)
        for family in FAMILIES:
            obs, _ = random_observation(family, rng)
            for _ in range(200):
                n = obs.values.shape[0] if not isinstance(obs.model, GeneralLinear) \
                    else obs.model.matrix.shape[1]
                x1 = 2.0 * rng.standard_normal(n)
                x2 = 2.0 * rng.standard_normal(n)
                gap = np.linalg.norm(x1 - x2)
                p1 = x1 - gradient(obs, x1)
                p2 = x2 - gradient(obs, x2)
                assert np.linalg.norm(p1 - p2) <= gap + 1e-12
                g = np.linalg.norm(gradient(obs, x1) - gradient(obs, x2))
                assert g <= gap + 1e-12

    def test_membership(self):
        rng = np.random.default_rng(9)
        for family in SEPARABLE_FAMILIES:
            obs, _ = random_observation(family, rng)
            iv = feasibility_intervals(obs)
            for _ in range(20):
                x = 3.0 * rng.standard_normal(len(iv))
                p = project(iv, x)
                assert iv.contains(p)
                assert cost(obs, p) == 0.0

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(10)
        for family in FAMILIES:
            obs, _ = random_observation(family, rng)
            n = obs.values.shape[0] if not isinstance(obs.model, GeneralLinear) \
                else obs.model.matrix.shape[1]
            for _ in range(100):
                x1 = 2.0 * rng.standard_normal(n)
                x2 = 2.0 * rng.standard_normal(n)
                mid = cost(obs, 0.5 * (x1 + x2))
                assert mid <= 0.5 * cost(obs, x1) + 0.5 * cost(obs, x2) + 1e-12


class TestClosedFormEquivalence:
    def test_clip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            obs, _ = random_observation("clip", rng)
            x = 2.0 * rng.standard_normal(len(obs.values))
            want = clip_cost_closed_form(obs.values, obs.reliable, obs.clip_pos,
                                         obs.clip_neg, x)
            assert abs(cost(obs, x) - want) < 1e-12

    @pytest.mark.parametrize("family", ["quant", "gquant"])
    def test_quantizers(self, family):
        rng = np.random.default_rng(12)
        for _ in range(100):
            obs, _ = random_observation(family, rng)
            iv = feasibility_intervals(obs)
            x = 2.0 * rng.standard_normal(len(iv))
            want = quantizer_cost_closed_form(iv.lower, iv.upper, np.isfinite(iv.lower),
                                              np.isfinite(iv.upper), x)
            assert abs(cost(obs, x) - want) < 1e-12

    def test_onebit(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            obs, _ = random_observation("onebit", rng)
            x = 2.0 * rng.standard_normal(len(obs.values))
            assert abs(cost(obs, x) - onebit_cost_closed_form(obs.values, x)) < 1e-12

    def test_mask(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            obs, _ = random_observation("mask", rng)
            x = 2.0 * rng.standard_normal(len(obs.values))
            want = mask_cost_closed_form(obs.values, obs.model.reliable, x)
            assert abs(cost(obs, x) - want) < 1e-12

    def test_degeneration_chain(self):
        # 1-bit equals clipping at thresholds 0 and a two-bin quantizer with
        # half-line bins, sample by sample
        rng = np.random.default_rng(15)
        sign_quant = GeneralQuantizer(np.array([-np.inf, 0.0, np.inf]),
                                      np.array([-1.0, 1.0]))
        for _ in range(100):
            x_true = rng.standard_normal(10)
            obs_bit = apply_measurement(OneBit(), x_true)
            obs_q = apply_measurement(sign_quant, x_true)
            assert np.array_equal(obs_bit.values, obs_q.values)
            x = 2.0 * rng.standard_normal(10)
            c_bit = cost(obs_bit, x)
            c_quant = cost(obs_q, x)
            pos = obs_bit.values > 0
            c_clip = clip_cost_closed_form(np.zeros(10), np.zeros(10, dtype=bool),
                                           pos, ~pos, x)
            assert abs(c_bit - c_clip) < 1e-12
            assert abs(c_bit - c_quant) < 1e-12
