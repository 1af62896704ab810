import itertools

import numpy as np
import numpy.testing as nptest
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

from cslab import sensing
from cslab.sensing import (
    MeasurementEnsemble,
    estimate_rip_constant,
    generate_ensemble,
    generate_subsampled_dct_ensemble,
    orthogonalize_rows,
)


def _row_space_projector(matrix):
    q, _ = np.linalg.qr(matrix.T)
    return q @ q.T


class TestGenerateEnsemble:
    def test_no_subsampling(self):
        ens = generate_ensemble(16, 16, "gaussian", 0)
        assert ens.subsampling == 1.0

    def test_rademacher_values(self):
        ens = generate_ensemble(64, 256, "rademacher", 1)
        nptest.assert_array_equal(np.unique(np.abs(ens.matrix)), [0.125])

    def test_gaussian_entry_variance(self):
        ens = generate_ensemble(128, 1024, "gaussian", 2)
        v = np.var(ens.matrix)
        assert abs(v - 1 / 128) < 0.05 / 128

    def test_rejects_more_rows_than_cols(self):
        with pytest.raises(ValueError):
            generate_ensemble(10, 4, "gaussian", 0)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate_ensemble(4, 8, "bernoulli", 0)

    def test_deterministic(self):
        a = generate_ensemble(8, 32, "gaussian", 9)
        b = generate_ensemble(8, 32, "gaussian", 9)
        nptest.assert_array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("seed", [5, np.random.SeedSequence(5)], ids=["int", "seed_sequence"])
    def test_subsampled_dct_is_the_dedicated_draw(self, seed):
        ens = generate_ensemble(16, 64, "subsampled_dct", seed)
        ref = generate_subsampled_dct_ensemble(16, 64, seed)
        nptest.assert_array_equal(ens._signs, ref._signs)
        nptest.assert_array_equal(ens._selected, ref._selected)
        v = np.random.default_rng(6).standard_normal(64)
        assert ens.apply(v).tobytes() == ref.apply(v).tobytes()


class TestSubsampledDct:
    def test_rows_orthogonal_norm_sqrt_rho(self):
        ens = generate_subsampled_dct_ensemble(8, 32, 3)
        rho = 4.0
        nptest.assert_allclose(ens.matrix @ ens.matrix.T, rho * np.eye(8), atol=1e-12)

    def test_operator_matches_matrix(self):
        # the reference comes from the FFT path (apply on unit vectors);
        # .matrix is built by columns(), so it is compared last, never used as a reference
        ens = generate_subsampled_dct_ensemble(16, 64, 5)
        reference = np.column_stack([ens.apply(e) for e in np.eye(64)])
        idx = [0, 7, 63]
        nptest.assert_allclose(ens.columns(idx), reference[:, idx], atol=1e-12)
        r = np.random.default_rng(0).standard_normal(16)
        nptest.assert_allclose(ens.apply_transpose(r), reference.T @ r, atol=1e-12)
        nptest.assert_allclose(ens.matrix, reference, atol=1e-12)

    @pytest.mark.parametrize("B, M", [(64, 1), (64, 37), (64, 64), (9216, 4096), (20000, 300),
                                      (20000, 500), (20000, 19999)])
    def test_row_draw_is_the_shuffled_draw_sorted(self, B, M):
        # pins the kept rows to numpy's shuffled draw: choice(..., shuffle=False)
        # is not a faster equal, since for B > 10000 it moves the switch from
        # Floyd's algorithm to a tail shuffle from M > B // 50 to M > B // 20,
        # which draws another set at (20000, 500)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rng.integers(0, 2, size=B)  # the signs come first
            expected = np.sort(rng.choice(B, size=M, replace=False))
            ens = generate_subsampled_dct_ensemble(M, B, seed)
            nptest.assert_array_equal(ens._selected, expected)

    @pytest.mark.parametrize("method, length", [("apply", 64), ("apply_transpose", 16)])
    def test_operator_rejects_a_block(self, method, length):
        ens = generate_subsampled_dct_ensemble(16, 64, 5)
        with pytest.raises(ValueError, match=r"got shape \({}, 3\)".format(length)):
            getattr(ens, method)(np.ones((length, 3)))

    def test_square_case_is_orthogonal(self):
        ens = generate_subsampled_dct_ensemble(16, 16, 1)
        nptest.assert_allclose(ens.matrix @ ens.matrix.T, np.eye(16), atol=1e-12)

    def test_reading_matrix_leaves_operator_unchanged(self):
        ens = generate_subsampled_dct_ensemble(128, 1024, 8)
        fresh = generate_subsampled_dct_ensemble(128, 1024, 8)
        dense = ens.matrix
        assert ens._matrix is None
        nptest.assert_array_equal(ens.matrix, dense)
        rng = np.random.default_rng(9)
        v, r = rng.standard_normal(1024), rng.standard_normal(128)
        idx = rng.choice(1024, 39, replace=False)
        nptest.assert_array_equal(ens.apply(v), fresh.apply(v))
        nptest.assert_array_equal(ens.apply_transpose(r), fresh.apply_transpose(r))
        nptest.assert_array_equal(ens.columns(idx), fresh.columns(idx))


class TestMeasurementEnsemble:
    def test_shape_comes_from_the_arrays(self):
        dense = MeasurementEnsemble(matrix=np.ones((3, 12)))
        assert (dense.rows, dense.cols, dense.subsampling) == (3, 12, 4.0)
        implicit = MeasurementEnsemble(signs=np.ones(12), selected_rows=np.array([0, 5, 7]))
        assert (implicit.rows, implicit.cols, implicit.subsampling) == (3, 12, 4.0)

    @pytest.mark.parametrize("kwargs", [
        {},
        {"signs": np.ones(8)},
        {"selected_rows": np.arange(4)},
        {"matrix": np.ones((4, 8)), "signs": np.ones(8), "selected_rows": np.arange(4)},
    ])
    def test_exactly_one_representation(self, kwargs):
        with pytest.raises(ValueError):
            MeasurementEnsemble(**kwargs)

    def test_rejects_more_rows_than_cols(self):
        with pytest.raises(ValueError):
            MeasurementEnsemble(matrix=np.ones((5, 4)))

    @pytest.mark.parametrize("rows", [[5, 0, 7], [0, 5, 5]])
    def test_selected_rows_must_increase(self, rows):
        with pytest.raises(ValueError):
            MeasurementEnsemble(signs=np.ones(12), selected_rows=np.array(rows))


def _columns_by_cos(ens, idx):
    """Reference block: one cos per entry of the sign-flipped, scaled DCT-II."""
    B = ens.cols
    q = ens._selected[:, None].astype(float)
    j = np.asarray(idx)[None, :].astype(float)
    block = np.sqrt(2.0 / B) * np.cos(np.pi * q * (2.0 * j + 1.0) / (2.0 * B))
    block[ens._selected == 0, :] = 1.0 / np.sqrt(B)
    return np.sqrt(ens.subsampling) * ens._signs[idx][None, :] * block


def _columns_by_int64_phase(ens, idx):
    """Reference block: a gather from the period-4B table of
    sqrt(2/B) * cos(pi * n / (2B)) at the int64 phase n = q * (2j + 1)."""
    B = ens.cols
    table = np.sqrt(2.0 / B) * np.cos(np.pi * np.arange(4 * B) / (2.0 * B))
    phase = np.multiply.outer(ens._selected.astype(np.int64), 2 * np.asarray(idx, dtype=np.int64) + 1)
    block = table[phase % (4 * B)]
    block[ens._selected == 0, :] = 1.0 / np.sqrt(B)
    block *= np.sqrt(ens.subsampling) * ens._signs[idx]
    return block


class TestColumnsCosineTable:
    @pytest.mark.parametrize("B, n_rows", [(8192, 8192), (8192, 4096), (8192, 256),
                                           (1024, 1024), (1024, 64), (37, 37), (37, 5)])
    def test_int32_phase_bit_identical_to_int64(self, B, n_rows):
        # columns() against the table gather, bit for bit (the name dates from
        # when columns() itself gathered from the table at an int32 phase)
        rng = np.random.default_rng(B + n_rows)
        drawn = generate_subsampled_dct_ensemble(n_rows, B, B * n_rows)
        # the same signs with DCT row 0 forced into the selected rows
        with_row_0 = MeasurementEnsemble(signs=drawn._signs, selected_rows=np.union1d(
            [0], rng.choice(np.arange(1, B), n_rows - 1, replace=False)))
        assert with_row_0._selected[0] == 0
        for ens in (drawn, with_row_0):
            for idx in ([0, B - 1], rng.choice(B, min(B, 39), replace=False), np.arange(B)[::7]):
                assert ens.columns(idx).tobytes() == _columns_by_int64_phase(ens, idx).tobytes()

    @pytest.mark.parametrize("B", [32768, 32769])
    def test_int64_phase_from_b_32768(self, B):
        # 32768 is the first B with 2 * B * B >= 2**31; at 32769, row B - 1
        # times column B - 1 would overflow an int32 phase
        rng = np.random.default_rng(B)
        signs = 2.0 * rng.integers(0, 2, size=B) - 1.0
        ens = MeasurementEnsemble(signs=signs, selected_rows=np.union1d(
            [0, B - 1], rng.choice(B, B // 2, replace=False)))
        idx = np.concatenate([[0, B - 1], rng.choice(np.arange(1, B - 1), 4, replace=False)])
        block = ens.columns(idx)
        nptest.assert_allclose(block, _columns_by_cos(ens, idx), rtol=0, atol=1e-12)
        assert block.tobytes() == _columns_by_int64_phase(ens, idx).tobytes()

    @pytest.mark.parametrize("n_rows", [8192, 1024, 32])
    def test_matches_cos_formula(self, n_rows):
        B = 8192
        ens = generate_subsampled_dct_ensemble(n_rows, B, 29)
        rng = np.random.default_rng(30)
        idx = np.sort(np.concatenate([[0, B - 1], rng.choice(np.arange(1, B - 1), 37, replace=False)]))
        nptest.assert_allclose(ens.columns(idx), _columns_by_cos(ens, idx), rtol=0, atol=1e-12)

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_matches_cos_formula_any_size(self, B, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(1, B + 1))
        ens = generate_subsampled_dct_ensemble(M, B, seed)
        idx = rng.choice(B, int(rng.integers(1, min(B, 40) + 1)), replace=False)
        block = ens.columns(idx)
        nptest.assert_allclose(block, _columns_by_cos(ens, idx), rtol=0, atol=1e-12)
        # a column's entries do not depend on the other columns extracted with it
        keep = np.sort(rng.choice(idx.size, (idx.size + 1) // 2, replace=False))
        nptest.assert_array_equal(block[:, keep], ens.columns(idx[keep]))


def _row_sets(B, rng):
    """Kept-row sets with and without DCT rows 0 and B - 1."""
    inner = rng.choice(np.arange(1, B - 1), max(1, (B - 2) // 4), replace=False) if B > 2 else []
    sets = [np.union1d(inner, [0, B - 1]), np.union1d(inner, [0]),
            np.union1d(inner, [B - 1]), np.union1d(inner, [])]
    return [rows.astype(int) for rows in sets if rows.size]


class TestGram:
    """``gram`` against the product of the extracted columns it replaces."""

    @pytest.mark.parametrize("B", [1, 15, 16, 24, 64, 8192])
    def test_subsampled_dct_matches_column_product(self, B):
        rng = np.random.default_rng(B)
        signs = 2.0 * rng.integers(0, 2, size=B) - 1.0
        index_sets = [[0, B - 1],
                      np.union1d([0, B - 1], rng.choice(B, min(B, 39), replace=False)),
                      np.arange(B)[::max(1, B // 40)]]
        for rows in _row_sets(B, rng):
            ens = MeasurementEnsemble(signs=signs, selected_rows=rows)
            for idx in index_sets:
                cols = ens.columns(idx)
                nptest.assert_allclose(ens.gram(idx), cols.T @ cols, rtol=0, atol=1e-12)

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_subsampled_dct_matches_column_product_any_size(self, B, seed):
        rng = np.random.default_rng(seed)
        ens = generate_subsampled_dct_ensemble(int(rng.integers(1, B + 1)), B, seed)
        idx = rng.choice(B, int(rng.integers(1, min(B, 40) + 1)), replace=False)
        cols = ens.columns(idx)
        nptest.assert_allclose(ens.gram(idx), cols.T @ cols, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
    def test_dense_is_the_column_product(self, distribution):
        ens = orthogonalize_rows(generate_ensemble(16, 32, distribution, 3))
        for idx in ([0, 31], [4, 9, 17], np.arange(32)):
            cols = ens.columns(idx)
            nptest.assert_array_equal(ens.gram(idx), cols.T @ cols)

    def test_kernel_read_only_and_operator_unchanged(self):
        ens = generate_subsampled_dct_ensemble(64, 256, 11)
        kernel = ens._kernel  # built with the draw, before any gram call
        assert kernel.shape == (512,)
        with pytest.raises(ValueError):
            kernel[0] = 0.0
        v = np.random.default_rng(12).standard_normal(256)
        r = np.random.default_rng(13).standard_normal(64)
        idx = [0, 7, 255]
        before = ens.apply(v), ens.apply_transpose(r), ens.columns(idx)
        ens.gram(idx)
        ens.gram([3, 4])
        assert ens._kernel is kernel
        for old, new in zip(before, (ens.apply(v), ens.apply_transpose(r), ens.columns(idx))):
            assert old.tobytes() == new.tobytes()


def _scipy_apply(ens, v):
    """The kernel the FFT operator replaced: scipy's orthonormal DCT-II, kept rows."""
    return np.sqrt(ens.subsampling) * scipy.fft.dct(ens._signs * v, norm="ortho")[ens._selected]


def _scipy_apply_transpose(ens, r):
    """The kernel the FFT adjoint replaced: scipy's orthonormal DCT-III of the scattered rows."""
    t = np.zeros(ens.cols)
    t[ens._selected] = r
    return np.sqrt(ens.subsampling) * ens._signs * scipy.fft.idct(t, norm="ortho")


def _fft_row_sets(B, rng):
    """Every row (each bin then serves a row q and its mirror B - q), a random
    subset with DCT rows 0, B // 2 and B - 1, and one without them."""
    edges = [0, B // 2, B - 1]
    inner = np.setdiff1d(np.arange(B), edges)
    inner = inner[rng.random(inner.size) < 0.5]
    sets = [np.arange(B), np.union1d(inner, edges), inner]
    return [rows for rows in sets if rows.size]


class TestFftOperator:
    """``apply`` and ``apply_transpose`` of ``subsampled_dct`` against scipy.fft."""

    @staticmethod
    def _check(B, rng):
        signs = 2.0 * rng.integers(0, 2, size=B) - 1.0
        v = rng.standard_normal(B)
        for rows in _fft_row_sets(B, rng):
            ens = MeasurementEnsemble(signs=signs, selected_rows=rows)
            r = rng.standard_normal(rows.size)
            forward, adjoint = ens.apply(v), ens.apply_transpose(r)
            nptest.assert_allclose(forward, _scipy_apply(ens, v), rtol=0, atol=1e-12)
            nptest.assert_allclose(adjoint, _scipy_apply_transpose(ens, r), rtol=0, atol=1e-12)
            # <R v, r> = <v, R^T r>
            assert forward @ r == pytest.approx(v @ adjoint, rel=1e-12, abs=1e-12)

    def test_matches_scipy_every_small_length(self):
        rng = np.random.default_rng(0)
        for B in range(1, 301):
            self._check(B, rng)

    @pytest.mark.parametrize("B", [8192, 8193, 32768])
    def test_matches_scipy_large_length(self, B):
        self._check(B, np.random.default_rng(B))

    def test_gram_kernel_is_scipy_rfft_bit_for_bit(self):
        rng = np.random.default_rng(1)
        for B in [*range(1, 301), 8192, 8193]:
            for rows in _fft_row_sets(B, rng):
                ens = MeasurementEnsemble(signs=np.ones(B), selected_rows=rows)
                ens.gram([0])
                indicator = np.zeros(2 * B)
                indicator[rows] = 1.0
                half = scipy.fft.rfft(indicator).real
                nptest.assert_array_equal(ens._kernel, np.concatenate([half, half[-2:0:-1]]))

    def test_tables_read_only(self):
        for table in sensing._dct_tables(256):
            with pytest.raises(ValueError):
                table[0] = 0


class TestOrthogonalizeRows:
    def test_gram_is_rho_identity(self):
        ens = orthogonalize_rows(generate_ensemble(4, 16, "gaussian", 7))
        nptest.assert_allclose(ens.matrix @ ens.matrix.T, 4.0 * np.eye(4), atol=1e-8)

    def test_row_norms(self):
        ens = orthogonalize_rows(generate_ensemble(2, 4, "gaussian", 11))
        norms = np.linalg.norm(ens.matrix, axis=1)
        nptest.assert_allclose(norms, np.sqrt(2.0), atol=1e-8)

    def test_row_space_preserved(self):
        raw = generate_ensemble(6, 24, "gaussian", 13)
        ortho = orthogonalize_rows(raw)
        diff = _row_space_projector(raw.matrix) - _row_space_projector(ortho.matrix)
        assert np.linalg.norm(diff) < 1e-8

    def test_already_orthogonal_input(self):
        base = generate_subsampled_dct_ensemble(8, 32, 17)
        again = orthogonalize_rows(
            MeasurementEnsemble(matrix=base.matrix.copy()))
        nptest.assert_allclose(again.matrix @ again.matrix.T, 4.0 * np.eye(8), atol=1e-12)
        diff = _row_space_projector(base.matrix) - _row_space_projector(again.matrix)
        assert np.linalg.norm(diff) < 1e-8

    def test_rank_deficient_rejected(self):
        mat = np.ones((3, 8))
        with pytest.raises(ValueError):
            orthogonalize_rows(MeasurementEnsemble(matrix=mat))

    def test_subsampled_dct_returned_as_is(self):
        # its rows already satisfy R R^T = rho I
        ens = generate_subsampled_dct_ensemble(8, 32, 17)
        assert orthogonalize_rows(ens) is ens


class TestMeasure:
    def test_matches_triple_loop_product(self):
        ens = generate_ensemble(5, 9, "gaussian", 21)
        v = np.random.default_rng(2).standard_normal(9)
        expected = np.zeros(5)
        for i in range(5):
            for j in range(9):
                expected[i] += ens.matrix[i, j] * v[j]
        nptest.assert_allclose(ens.apply(v), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        ens = generate_ensemble(4, 8, "gaussian", 0)
        with pytest.raises(ValueError):
            ens.apply(np.zeros(7))

    def test_folded_noise_is_white(self):
        # covariance of R n over 10^4 draws: diag rho*var, off-diag small
        ens = orthogonalize_rows(generate_ensemble(16, 64, "gaussian", 23))
        rng = np.random.default_rng(0)
        z = ens.matrix @ rng.standard_normal((64, 10_000))
        cov = z @ z.T / 10_000
        rho = 4.0
        assert np.max(np.abs(np.diag(cov) - rho)) / rho < 0.10
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.05 * rho


class TestRipEstimate:
    def test_square_orthogonal_has_zero_delta(self):
        ens = generate_subsampled_dct_ensemble(16, 16, 0)
        for w in (1, 2, 3):
            assert estimate_rip_constant(ens, w, mode="exhaustive") < 1e-10

    def test_exhaustive_matches_direct_enumeration(self):
        # oracle: direct SVD over all supports, written independently
        ens = generate_ensemble(12, 16, "gaussian", 31)
        expected = 0.0
        for sup in itertools.combinations(range(16), 2):
            s = np.linalg.svd(ens.matrix[:, list(sup)], compute_uv=False)
            expected = max(expected, s[0] ** 2 - 1, 1 - s[-1] ** 2)
        got = estimate_rip_constant(ens, 2, mode="exhaustive")
        assert got == pytest.approx(expected, rel=1e-12)

    def test_sampled_is_lower_bound(self):
        ens = generate_ensemble(12, 16, "gaussian", 31)
        full = estimate_rip_constant(ens, 2, mode="exhaustive")
        sampled = estimate_rip_constant(ens, 2, mode="sampled", n_supports=100, rng_seed=0)
        assert sampled <= full + 1e-15

    def test_sparsity_beyond_measurements_rejected(self):
        ens = generate_ensemble(4, 16, "gaussian", 0)
        with pytest.raises(ValueError):
            estimate_rip_constant(ens, 5)

    def test_sampled_needs_a_support(self, monkeypatch):
        ens = generate_ensemble(12, 16, "gaussian", 31)
        monkeypatch.setattr(np.random, "default_rng", None)  # nothing may be drawn
        with pytest.raises(ValueError, match="n_supports must be >= 1"):
            estimate_rip_constant(ens, 2, mode="sampled", n_supports=0)

    def test_exhaustive_guard(self):
        ens = generate_ensemble(40, 80, "gaussian", 0)
        with pytest.raises(ValueError):
            estimate_rip_constant(ens, 8, mode="exhaustive")


class TestSpectralLemmas:
    def test_unit_row_orthogonalization_preserves_near_isometry(self):
        # seed pinned so the raw exhaustive constant is < 1
        raw = generate_ensemble(12, 16, "gaussian", 11)
        delta = estimate_rip_constant(raw, 2, mode="exhaustive")
        assert delta < 1.0
        s = np.linalg.svd(raw.matrix, compute_uv=False)
        unit_rows = orthogonalize_rows(raw).matrix / np.sqrt(raw.subsampling)
        rng = np.random.default_rng(0)
        for _ in range(200):
            sup = rng.choice(16, size=2, replace=False)
            alpha = np.zeros(16)
            alpha[sup] = rng.standard_normal(2)
            ratio = np.linalg.norm(unit_rows @ alpha) / np.linalg.norm(alpha)
            assert np.sqrt(1 - delta) / s[0] - 1e-9 <= ratio <= np.sqrt(1 + delta) / s[-1] + 1e-9

    def test_congruence_eigenvalue_inequalities(self):
        # random SPD A and tall factor: extreme eigenvalues of B^T A B are
        # bracketed by the products of the factors' extremes
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            m = int(rng.integers(1, n + 1))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eig = rng.uniform(0.1, 5.0, size=n)
            A = q @ np.diag(eig) @ q.T
            Bmat = rng.standard_normal((n, m))
            inner = Bmat.T @ A @ Bmat
            gram = Bmat.T @ Bmat
            assert np.linalg.eigvalsh(inner)[-1] <= eig.max() * np.linalg.eigvalsh(gram)[-1] + 1e-9
            assert np.linalg.eigvalsh(inner)[0] >= eig.min() * np.linalg.eigvalsh(gram)[0] - 1e-9

    def test_pseudoinverse_singular_values_bracketed(self):
        # every support of an exhaustive B=16, W=2 scan
        ens = orthogonalize_rows(generate_ensemble(12, 16, "gaussian", 11))
        delta = estimate_rip_constant(ens, 2, mode="exhaustive")
        assert delta < 1.0
        lo, hi = 1 / np.sqrt(1 + delta), 1 / np.sqrt(1 - delta)
        for sup in itertools.combinations(range(16), 2):
            s = np.linalg.svd(np.linalg.pinv(ens.columns(list(sup))), compute_uv=False)
            assert lo - 1e-12 <= s[-1] and s[0] <= hi + 1e-12
