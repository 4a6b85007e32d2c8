import itertools

import numpy as np
import pytest

import nlcs.solvers
from conftest import assert_bitwise_equal
from nlcs.linops import dct_dictionary, prox_l0_topk, prox_l1, spectral_norm
from nlcs.solvers import _TopKScreen


class TestDctDictionary:
    def test_1x1_is_unit(self):
        assert dct_dictionary(1, 1) == pytest.approx(np.array([[1.0]]))

    def test_2x2_orthonormal(self):
        d = dct_dictionary(2, 2)
        assert np.abs(d.T @ d - np.eye(2)).max() < 1e-12

    def test_square_is_orthonormal(self):
        d = dct_dictionary(16, 16)
        assert np.abs(d.T @ d - np.eye(16)).max() < 1e-12

    def test_overcomplete_column_norms(self):
        # oracle: direct norm computation over all 512 columns
        d = dct_dictionary(256, 512)
        norms = np.sqrt(np.sum(d * d, axis=0))
        assert np.abs(norms - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n,m", [(4, 3), (0, 0), (1, 0)])
    def test_rejects_bad_dims(self, n, m):
        with pytest.raises(ValueError):
            dct_dictionary(n, m)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-8)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 5))) == 0.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((32, 64))
        oracle = np.linalg.svd(x, compute_uv=False)[0]
        got = spectral_norm(x)
        assert abs(got - oracle) / oracle < 1e-6

    def test_lower_bounds_operator_norm(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 30))
        s = spectral_norm(x)
        for _ in range(100):
            v = rng.standard_normal(30)
            assert s >= np.linalg.norm(x @ v) / np.linalg.norm(v) - 1e-6 * s

    def test_ones_annihilating_matrix(self):
        # the all-ones start lies in the kernel; the restart must recover
        x = np.array([[1.0, -1.0]])
        assert spectral_norm(x) == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("shape", [(64, 8), (8, 64), (1, 30), (30, 1), (17, 17)])
    def test_svd_oracle_tall_wide_square(self, shape):
        x = np.random.default_rng(sum(shape)).standard_normal(shape)
        oracle = np.linalg.svd(x, compute_uv=False)[0]
        assert abs(spectral_norm(x) - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
    def test_svd_oracle_rank_one(self, shape):
        rng = np.random.default_rng(3)
        x = np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
        oracle = np.linalg.svd(x, compute_uv=False)[0]
        assert abs(spectral_norm(x) - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (7, 3)])
    def test_zero_matrices(self, shape):
        s = spectral_norm(np.zeros(shape))
        assert s == 0.0 and not np.signbit(s)

    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e170, 1e200, 1e-150, 1e-160,
                                       1e-170, 1e-200])
    @pytest.mark.parametrize("shape", [(2, 3), (12, 5), (6, 6)])
    def test_svd_oracle_at_extreme_scale(self, scale, shape):
        # the Gram matrix over- or underflows beyond about 1e+-154
        x = scale * np.random.default_rng(sum(shape)).standard_normal(shape)
        oracle = np.linalg.svd(x, compute_uv=False)[0]
        assert abs(spectral_norm(x) - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_normal_range_keeps_the_plain_gram_eigenvalue(self, scale):
        x = scale * np.random.default_rng(5).standard_normal((9, 4))
        want = float(np.sqrt(np.linalg.eigvalsh(x.T @ x)[-1]))
        assert spectral_norm(x) == want

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_constant_matrix_at_extreme_scale(self, scale):
        assert spectral_norm(np.full((2, 3), scale)) == pytest.approx(
            np.sqrt(6.0) * scale, rel=1e-12, abs=0.0)


class TestProxL1:
    def test_basic(self):
        out = prox_l1(np.array([1.5, -0.3, 0.0]), 0.5)
        assert out == pytest.approx(np.array([1.0, 0.0, 0.0]))

    def test_zero_threshold_is_identity(self):
        v = np.array([0.3, -2.0, 0.0, 5.5])
        assert prox_l1(v, 0.0) == pytest.approx(v, abs=0.0)

    def test_sign_preserving(self):
        assert prox_l1(np.array([-2.0]), 0.75) == pytest.approx(np.array([-1.25]))

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            prox_l1(np.array([1.0]), -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, np.array([0.1, np.nan]),
                                     np.array([np.inf, 0.1])])
    def test_rejects_non_finite_threshold(self, bad):
        with pytest.raises(ValueError, match="threshold"):
            prox_l1(np.ones((3, 2)), bad)

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.standard_normal(16)
            b = rng.standard_normal(16)
            t = rng.uniform(0, 2)
            lhs = np.linalg.norm(prox_l1(a, t) - prox_l1(b, t))
            assert lhs <= np.linalg.norm(a - b) + 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
    def test_matches_sign_formula_bit_for_bit_on_nonzero_input(self, t):
        # entries below, at and above the threshold, both signs; the only
        # input the two forms disagree on is -0.0 (see the next test)
        rng = np.random.default_rng(4)
        v = rng.standard_normal((32, 6))
        v[:4] = np.array([0.3, -0.3, 2.0, -2.0])[:, None]
        want = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        assert_bitwise_equal(prox_l1(v, t), want)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_signed_zeros(self, t):
        # the result takes the input's sign bit, so -0.0 stays -0.0 where
        # sign(v) * max(|v| - t, 0) gave +0.0; a negative input shrunk to
        # zero gives -0.0 in both forms
        v = np.array([0.0, -0.0, 0.1, -0.1])
        out = prox_l1(v, t)
        assert np.array_equal(np.signbit(out), [False, True, False, True])
        old = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        assert np.array_equal(np.signbit(old), [False, False, False, True])
        assert np.array_equal(out, old)  # equal as numbers: -0.0 == +0.0

    def test_nan_and_infinite_input(self):
        v = np.array([np.nan, -np.nan, np.inf, -np.inf, 1.0])
        out = prox_l1(v, 0.5)
        assert np.isnan(out[:2]).all()
        assert np.array_equal(np.signbit(out[:2]), np.signbit(v[:2]))
        assert np.array_equal(out[2:], [np.inf, -np.inf, 0.5])
        assert_bitwise_equal(prox_l1(v, 0.0), v)

    def test_zero_threshold_returns_a_copy(self):
        v = np.array([[1.5, -0.0], [np.inf, -2.0]])
        keep = v.copy()
        out = prox_l1(v, 0.0)
        assert_bitwise_equal(out, v)
        assert out is not v and not np.shares_memory(out, v)
        out[0, 0] = 7.0
        assert_bitwise_equal(v, keep)  # the input is never written

    def test_per_column_threshold_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((16, 5))
        t = np.array([0.0, 0.1, 0.5, 1.0, 3.0])
        out = prox_l1(v, t)
        for j in range(5):
            assert_bitwise_equal(out[:, j], prox_l1(v[:, j], t[j]))
        assert not out[:, 4].any() and np.array_equal(out[:, 0], v[:, 0])

    @pytest.mark.parametrize("bad", [-0.1, np.array([0.1, -1e-300]), np.array([np.nan])])
    def test_rejects_any_bad_threshold_entry(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            prox_l1(np.ones((3, 2)), bad)

    def test_zero_dimensional_input(self):
        assert prox_l1(-2.0, 0.75) == -1.25
        assert prox_l1(np.float64(0.5), 0.75) == 0.0


def topk_by_stable_sort(v, k):
    """Reference top-K: stable argsort of -|v|, lowest index first among ties."""
    v = np.asarray(v, dtype=float)
    keep = np.argsort(-np.abs(v), axis=0, kind="stable")[:k]
    out = np.zeros_like(v)
    if v.ndim == 1:
        out[keep] = v[keep]
    else:
        cols = np.arange(v.shape[1])[None, :]
        out[keep, cols] = v[keep, cols]
    return out


class TestProxL0TopK:
    def test_magnitude_ranking(self):
        out = prox_l0_topk(np.array([3.0, -1.0, 2.0]), 2)
        assert out == pytest.approx(np.array([3.0, 0.0, 2.0]))

    def test_k_equals_length(self):
        assert prox_l0_topk(np.array([5.0]), 1) == pytest.approx(np.array([5.0]))

    def test_tie_broken_by_lowest_index(self):
        out = prox_l0_topk(np.array([1.0, 1.0, 1.0]), 1)
        assert out == pytest.approx(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError):
            prox_l0_topk(np.array([1.0, 2.0, 3.0]), k)

    def test_nonzero_count(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.standard_normal(10)
            v[rng.random(10) < 0.5] = 0.0
            k = int(rng.integers(1, 11))
            out = prox_l0_topk(v, k)
            assert np.count_nonzero(out) == min(k, np.count_nonzero(v))

    def test_matches_exhaustive_subset_search(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            v = rng.standard_normal(n)
            k = int(rng.integers(1, n + 1))
            out = prox_l0_topk(v, k)
            best = np.inf
            for supp in itertools.combinations(range(n), k):
                u = np.zeros(n)
                u[list(supp)] = v[list(supp)]
                best = min(best, np.sum((u - v) ** 2))
            assert np.sum((out - v) ** 2) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("shape", [(7,), (9, 5), (16, 3)])
    def test_matches_stable_sort_on_ties(self, shape):
        # small integers give many magnitude ties, so the tie rule decides
        rng = np.random.default_rng(17)
        for _ in range(20):
            v = rng.integers(-3, 4, size=shape).astype(float)
            for k in range(1, shape[0] + 1):
                assert_bitwise_equal(prox_l0_topk(v, k), topk_by_stable_sort(v, k))

    def test_matches_stable_sort_on_zero_columns_and_negative_zero(self):
        rng = np.random.default_rng(18)
        v = rng.integers(-2, 3, size=(8, 6)).astype(float)
        v[:, 0] = 0.0
        v[:, 1] = -0.0
        v[rng.random(v.shape) < 0.3] = -0.0
        for k in range(1, 9):
            assert_bitwise_equal(prox_l0_topk(v, k), topk_by_stable_sort(v, k))
            assert_bitwise_equal(prox_l0_topk(v[:, 2], k), topk_by_stable_sort(v[:, 2], k))

    def test_matches_stable_sort_with_nan(self):
        # NaN ranks below every number and fills up columns short of k numbers
        v = np.array([[np.nan, 1.0, np.nan, np.nan],
                      [2.0, np.nan, np.nan, -0.0],
                      [-2.0, 3.0, np.nan, np.nan],
                      [np.nan, -1.0, 5.0, 1.0]])
        for k in range(1, 5):
            assert_bitwise_equal(prox_l0_topk(v, k), topk_by_stable_sort(v, k))
            for t in range(v.shape[1]):
                assert_bitwise_equal(prox_l0_topk(v[:, t], k),
                                     topk_by_stable_sort(v[:, t], k))

    @pytest.mark.parametrize("v", [np.float64(1.0), 2.0, np.ones((3, 2, 2))])
    def test_rejects_anything_but_1d_or_2d(self, v):
        with pytest.raises(ValueError, match="1-d or 2-d"):
            prox_l0_topk(v, 1)


def kept_rows(v, k):
    """The rows topk_by_stable_sort keeps, ascending per column."""
    return np.sort(np.argsort(-np.abs(v), axis=0, kind="stable")[:k], axis=0)


def candidates(v, k, rng):
    """Candidate supports for v: the true one, a stale one (true for another
    array), the true one shifted by one row, and rows 0..k-1."""
    m = v.shape[0]
    true = kept_rows(v, k)
    stale = kept_rows(v + rng.standard_normal(v.shape), k)
    first = np.broadcast_to(np.arange(k).reshape((k,) + (1,) * (v.ndim - 1)), true.shape)
    return {"true": true, "stale": stale, "shifted": (true + 1) % m, "first": first}


class TestProxL0TopKSupport:
    """The top-K screen's full step from any candidate support S is bitwise
    equal to plain prox_l0_topk, and S comes back as the kept rows."""

    @staticmethod
    def full_step(v, k, support):
        """(codes, new S) of the screen's full step on the gradient v, an
        (M,) v as one column, with the candidate support."""
        v2 = v.reshape(v.shape[0], -1)
        m, t = v2.shape
        screen = _TopKScreen(np.eye(m), k, 1.0, np.zeros((m, t)))
        screen.rows = np.array(support).reshape(k, t)
        with pytest.MonkeyPatch.context() as mp:  # the step's gradient is v, as given
            mp.setattr(nlcs.solvers, "_gradient_step", lambda x, r, mu, a: v2.copy())
            codes = screen._select(np.zeros((m, t)), np.zeros((m, t)), np.zeros(t))
        return codes.reshape(v.shape), screen.rows.reshape(np.shape(support))

    def check(self, v, k, rng):
        want = prox_l0_topk(v, k)
        assert_bitwise_equal(want, topk_by_stable_sort(v, k))
        for name, cand in candidates(v, k, rng).items():
            codes, support = self.full_step(v, k, cand)
            assert_bitwise_equal(codes, want)
            assert np.array_equal(np.sort(support, axis=0), kept_rows(v, k)), name
            # the kept rows as the next step's candidate: nothing moves
            assert_bitwise_equal(self.full_step(v, k, support)[0], want)

    @pytest.mark.parametrize("shape", [(7,), (9, 5), (16, 3)])
    def test_integer_values_with_ties(self, shape):
        rng = np.random.default_rng(30)
        for _ in range(10):
            v = rng.integers(-3, 4, size=shape).astype(float)
            for k in range(1, shape[0] + 1):
                self.check(v, k, rng)

    def test_nan_columns_short_of_k_numbers(self):
        v = np.array([[np.nan, 1.0, np.nan, np.nan, 4.0],
                      [2.0, np.nan, np.nan, -0.0, 3.0],
                      [-2.0, 3.0, np.nan, np.nan, 2.0],
                      [np.nan, -1.0, 5.0, 1.0, 1.0]])
        rng = np.random.default_rng(31)
        for k in range(1, 5):
            self.check(v, k, rng)
            self.check(v[:, 1], k, rng)

    def test_infinities(self):
        rng = np.random.default_rng(32)
        v = rng.standard_normal((10, 6))
        v[2, :3] = np.inf
        v[7, 1:4] = -np.inf
        v[:, 5] = np.inf
        for k in (1, 2, 3, 10):
            self.check(v, k, rng)

    def test_negative_zero_and_zero_columns(self):
        rng = np.random.default_rng(33)
        v = rng.integers(-2, 3, size=(8, 6)).astype(float)
        v[:, 0] = 0.0
        v[:, 1] = -0.0
        v[rng.random(v.shape) < 0.3] = -0.0
        for k in range(1, 9):
            self.check(v, k, rng)

    def test_k_equals_m(self):
        rng = np.random.default_rng(34)
        v = rng.standard_normal((6, 4))
        v[0, 1] = np.nan
        v[:, 2] = 0.0
        self.check(v, 6, rng)
        self.check(v[:, 0], 6, rng)

    def test_a_separated_candidate_skips_the_selection(self, monkeypatch):
        rng = np.random.default_rng(35)
        v = rng.standard_normal((64, 5))
        support = kept_rows(v, 8)
        selected = []
        full = nlcs.solvers._topk_keep
        monkeypatch.setattr(nlcs.solvers, "_topk_keep",
                            lambda u, k: selected.append(u.shape) or full(u, k))
        codes, support = self.full_step(v, 8, support)
        assert_bitwise_equal(codes, prox_l0_topk(v, 8))
        assert selected == []
        v[support[0, 3], 3] = 0.0  # column 3 loses a row of its candidate
        codes, support = self.full_step(v, 8, support)
        assert_bitwise_equal(codes, prox_l0_topk(v, 8))
        assert selected == [(64, 1)]
        assert np.array_equal(np.sort(support, axis=0), kept_rows(v, 8))
