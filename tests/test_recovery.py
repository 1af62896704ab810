import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cslab import metrics, recovery
from cslab.recovery import (
    GRAM_COND_LIMIT,
    _fold,
    _lstsq_on_support,
    _normal_solve,
    bandpass_baseline,
    cosamp,
    oracle_recover,
)
from cslab.sensing import (
    MeasurementEnsemble,
    estimate_rip_constant,
    generate_ensemble,
    generate_subsampled_dct_ensemble,
    orthogonalize_rows,
)
from cslab.signal_model import basis_column, generate_bandlimited, synthesize_vector


def synthesis_matrix(B):
    """Reference: the explicit B x B synthesis matrix, one basis vector per column."""
    return np.column_stack([basis_column(B, k) for k in range(B)])


class TestOracleRecover:
    def test_noise_free_exact(self):
        ens = generate_ensemble(8, 32, "gaussian", 0)
        sp = generate_bandlimited(32, 3, "random", 1)
        out = oracle_recover(ens, ens.apply(sp.coeffs), sp.support)
        nptest.assert_allclose(out.coeffs_hat, sp.coeffs, atol=1e-8)
        nptest.assert_array_equal(out.support_hat, sp.support)

    def test_zero_measurements(self):
        ens = generate_ensemble(8, 32, "gaussian", 0)
        out = oracle_recover(ens, np.zeros(8), [3, 5])
        nptest.assert_array_equal(out.coeffs_hat, np.zeros(32))

    def test_matches_normal_equations(self):
        # oracle: explicit (R^T R)^-1 R^T y on the support columns
        ens = generate_ensemble(4, 8, "gaussian", 5)
        rng = np.random.default_rng(6)
        sp = generate_bandlimited(8, 2, 3, 7)
        y = ens.apply(sp.coeffs) + 0.1 * rng.standard_normal(4)
        cols = ens.matrix[:, sp.support]
        expected = np.linalg.solve(cols.T @ cols, cols.T @ y)
        out = oracle_recover(ens, y, sp.support)
        nptest.assert_allclose(out.coeffs_hat[sp.support], expected, atol=1e-8)

    def test_residual_orthogonal_to_support_columns(self):
        ens = generate_ensemble(16, 64, "gaussian", 8)
        sp = generate_bandlimited(64, 4, "random", 9)
        y = ens.apply(sp.coeffs) + 0.3 * np.random.default_rng(10).standard_normal(16)
        out = oracle_recover(ens, y, sp.support)
        residual = y - ens.apply(out.coeffs_hat)
        assert np.max(np.abs(ens.columns(sp.support).T @ residual)) < 1e-8

    def test_rank_deficient_support_rejected(self):
        mat = np.random.default_rng(0).standard_normal((4, 8))
        mat[:, 5] = mat[:, 2]
        from cslab.sensing import MeasurementEnsemble

        ens = MeasurementEnsemble(matrix=mat)
        with pytest.raises(np.linalg.LinAlgError):
            oracle_recover(ens, np.ones(4), [2, 5])

    def test_singular_gram_raises_through_gelsd(self, monkeypatch):
        # a repeated support index makes the Gram singular: the normal solve
        # refuses it and gelsd, the judge of rank, raises; a sweep records the
        # raise as a failed row and the tracer counts it as a rank failure
        ens = generate_subsampled_dct_ensemble(64, 256, 23)
        y = np.random.default_rng(24).standard_normal(64)
        calls, factorizations = [], []
        original = recovery._lstsq_on_support
        original_inv = np.linalg.inv

        def recorded(columns, y):
            calls.append(columns.shape)
            return original(columns, y)

        def counted_inv(a, *args, **kwargs):
            factorizations.append(a.shape)
            return original_inv(a, *args, **kwargs)

        monkeypatch.setattr(recovery, "_lstsq_on_support", recorded)
        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        with pytest.raises(np.linalg.LinAlgError):
            oracle_recover(ens, y, [5, 5, 9])
        assert calls == [(64, 3)]
        # the closed-form Gram is factorized once; gelsd is the only fallback
        assert factorizations == [(3, 3)]

    def test_closed_form_gram_matches_gelsd(self):
        ens = generate_subsampled_dct_ensemble(512, 8192, 25)
        rng = np.random.default_rng(26)
        support = np.sort(rng.choice(8192, 13, replace=False))
        y = rng.standard_normal(512)
        out = oracle_recover(ens, y, support)
        nptest.assert_allclose(out.coeffs_hat[support], _gelsd(ens.columns(support), y),
                               rtol=1e-9)

    @staticmethod
    def _block_against_columns(ens, support, monkeypatch):
        """Solve a block of measurements in one call and column by column;
        return both and the column counts that reached gelsd."""
        ys = np.random.default_rng(27).standard_normal((ens.rows, 5))
        gelsd_cols = []
        original = recovery._lstsq_on_support

        def recorded(columns, y):
            gelsd_cols.append(y.shape[1:])
            return original(columns, y)

        monkeypatch.setattr(recovery, "_lstsq_on_support", recorded)
        block = oracle_recover(ens, ys, support)
        columns = np.column_stack([oracle_recover(ens, y, support).coeffs_hat for y in ys.T])
        assert block.coeffs_hat.shape == (ens.cols, 5)
        nptest.assert_array_equal(block.support_hat, np.sort(support))
        return block.coeffs_hat, columns, gelsd_cols

    def test_block_equals_columns_on_the_normal_solve(self, monkeypatch):
        ens = orthogonalize_rows(generate_ensemble(16, 32, "gaussian", 1))
        block, columns, gelsd_cols = self._block_against_columns(ens, [9, 3, 4], monkeypatch)
        assert gelsd_cols == []
        nptest.assert_allclose(block, columns, rtol=1e-12, atol=1e-14)

    def test_block_equals_columns_through_gelsd(self, monkeypatch):
        # near-twin columns: cond(G) ~ 1e12 is refused, gelsd finds full rank
        rng = np.random.default_rng(28)
        mat = rng.standard_normal((16, 32))
        mat[:, 5] = mat[:, 2] + 1e-6 * rng.standard_normal(16)
        ens = MeasurementEnsemble(matrix=mat)
        block, columns, gelsd_cols = self._block_against_columns(ens, [2, 5, 11], monkeypatch)
        assert gelsd_cols == [(5,)] + [()] * 5
        nptest.assert_allclose(block, columns, rtol=1e-9)

    @staticmethod
    def _identity_block_operator_solves(ens, support, rtol, atol=0.0):
        """The solve of the M x M identity block on ``support`` is the W x M
        least-squares operator P: P @ y is the solve of any y."""
        op = oracle_recover(ens, np.eye(ens.rows), support).coeffs_hat[support]
        assert op.shape == (support.size, ens.rows)
        for y in np.random.default_rng(29).standard_normal((5, ens.rows)):
            nptest.assert_allclose(op @ y, oracle_recover(ens, y, support).coeffs_hat[support],
                                   rtol=rtol, atol=atol)

    def test_identity_block_operator_on_the_normal_solve(self, monkeypatch):
        ens = orthogonalize_rows(generate_ensemble(16, 32, "gaussian", 1))
        monkeypatch.setattr(recovery, "_lstsq_on_support", None)  # gelsd must not run
        self._identity_block_operator_solves(ens, np.array([3, 4, 9]), rtol=1e-12, atol=1e-14)

    def test_identity_block_operator_through_gelsd(self, monkeypatch):
        # near-twin columns: cond(G) ~ 1e12 is refused, gelsd finds full rank
        rng = np.random.default_rng(28)
        mat = rng.standard_normal((16, 32))
        mat[:, 5] = mat[:, 2] + 1e-6 * rng.standard_normal(16)
        gelsd_shapes = []
        original = recovery._lstsq_on_support

        def recorded(columns, y):
            gelsd_shapes.append(y.shape)
            return original(columns, y)

        monkeypatch.setattr(recovery, "_lstsq_on_support", recorded)
        self._identity_block_operator_solves(MeasurementEnsemble(matrix=mat),
                                             np.array([2, 5, 11]), rtol=1e-9)
        assert gelsd_shapes == [(16, 16)] + [(16,)] * 5

    def test_expected_error_bracket_under_white_noise(self):
        # Monte Carlo E||ahat - a||^2 within [W v/(1+d), W v/(1-d)]
        ens = orthogonalize_rows(generate_ensemble(16, 32, "gaussian", 1))
        delta = estimate_rip_constant(ens, 2, mode="exhaustive")
        assert delta < 1.0
        rng = np.random.default_rng(2)
        total = 0.0
        trials = 3000
        for _ in range(trials):
            sp = generate_bandlimited(32, 2, "random", rng)
            y = ens.apply(sp.coeffs) + rng.standard_normal(16)
            out = oracle_recover(ens, y, sp.support)
            total += np.sum((out.coeffs_hat - sp.coeffs) ** 2)
        mean_err = total / trials
        assert 2 / (1 + delta) <= mean_err <= 2 / (1 - delta)


def _gelsd(columns, y):
    return np.linalg.lstsq(columns, y, rcond=None)[0]


def _eigh_solve(gram, rhs):
    """The eigendecomposition solve that ``_normal_solve`` replaced, kept as
    its reference: None on a failed factorization or when the computed
    eigenvalues put cond(G) at or above ``GRAM_COND_LIMIT``."""
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        return None
    if not w[0] > w[-1] / GRAM_COND_LIMIT:  # also catches NaN
        return None
    return v @ ((v.T @ rhs) / w)


# W = 13 oracle/refit blocks and 39-column CoSaMP candidate blocks
SWEEP_BLOCKS = [(8192, 13), (1024, 13), (8192, 39), (1024, 39), (64, 39)]


def _sweep_block(n_rows, n_cols):
    B = 8192
    ens = generate_subsampled_dct_ensemble(n_rows, B, 3)
    rng = np.random.default_rng(4)
    cols = ens.columns(np.sort(rng.choice(B, n_cols, replace=False)))
    return cols, rng.standard_normal(n_rows)


class TestNormalSolve:
    @pytest.mark.parametrize("n_rows,n_cols", SWEEP_BLOCKS)
    def test_matches_gelsd_on_sweep_blocks(self, n_rows, n_cols):
        cols, y = _sweep_block(n_rows, n_cols)
        sol = _normal_solve(cols.T @ cols, cols.T @ y)
        assert sol is not None
        nptest.assert_allclose(sol, _gelsd(cols, y), rtol=1e-9)

    @pytest.mark.parametrize("n_rows,n_cols", SWEEP_BLOCKS)
    def test_matches_eigh_reference_on_sweep_blocks(self, n_rows, n_cols):
        cols, y = _sweep_block(n_rows, n_cols)
        gram, rhs = cols.T @ cols, cols.T @ y
        sol = _normal_solve(gram, rhs)
        assert sol is not None
        nptest.assert_allclose(sol, _eigh_solve(gram, rhs), rtol=1e-12)

    @given(st.integers(2, 40), st.integers(0, 40), st.floats(0, 12), st.integers(0, 2**32 - 1))
    def test_refuses_what_eigh_refuses(self, k, extra_rows, log_cond, seed):
        # columns with logspace singular values give cond(G) = 10**log_cond;
        # within rounding of the limit either kernel may refuse
        assume(abs(log_cond - np.log10(GRAM_COND_LIMIT)) > 1e-3)
        rng = np.random.default_rng(seed)
        n = k + extra_rows
        u, _ = np.linalg.qr(rng.standard_normal((n, k)))
        v, _ = np.linalg.qr(rng.standard_normal((k, k)))
        cols = u @ np.diag(np.logspace(0, -log_cond / 2, k)) @ v.T
        y = rng.standard_normal(n)
        gram, rhs = cols.T @ cols, cols.T @ y
        sol = _normal_solve(gram, rhs)
        if _eigh_solve(gram, rhs) is None:
            assert sol is None
        if sol is not None:
            ref = _gelsd(cols, y)
            cond = np.linalg.cond(gram)
            assert cond <= GRAM_COND_LIMIT * (1 + 1e-6)
            assert np.linalg.norm(sol - ref) <= 1e-12 * cond * np.linalg.norm(ref)

    @given(st.integers(1, 20), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_matches_gelsd_within_conditioning(self, k, extra_rows, seed):
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((k + extra_rows, k))
        y = rng.standard_normal(k + extra_rows)
        sol = _normal_solve(cols.T @ cols, cols.T @ y)
        if sol is not None:
            ref = _gelsd(cols, y)
            cond = np.linalg.cond(cols.T @ cols)
            assert cond <= GRAM_COND_LIMIT * (1 + 1e-6)
            assert np.linalg.norm(sol - ref) <= 1e-12 * cond * np.linalg.norm(ref)

    def test_wider_than_tall_falls_back(self):
        # rho = 256, W = 13: up to 39 CoSaMP candidates against M = 32 rows;
        # the 39 x 39 Gram has rank 32, so the guard itself refuses it
        ens = generate_subsampled_dct_ensemble(32, 8192, 5)
        cols = ens.columns(np.arange(0, 8192, 211)[:39])
        y = np.random.default_rng(6).standard_normal(32)
        assert cols.shape == (32, 39)
        assert _normal_solve(cols.T @ cols, cols.T @ y) is None
        with pytest.raises(np.linalg.LinAlgError):
            _lstsq_on_support(cols, y)

    def test_ill_conditioned_block_goes_to_gelsd(self):
        # cond(A) ~ 1e7, so cond(G) ~ 1e14 trips the guard and gelsd answers
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.standard_normal((100, 5)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        cols = u @ np.diag(np.logspace(0, -7, 5)) @ v.T
        y = rng.standard_normal(100)
        assert _normal_solve(cols.T @ cols, cols.T @ y) is None
        nptest.assert_array_equal(_lstsq_on_support(cols, y), _gelsd(cols, y))

    def test_rank_deficient_block_detected(self):
        cols = np.random.default_rng(8).standard_normal((16, 3))
        cols[:, 2] = cols[:, 0] + cols[:, 1]
        assert _normal_solve(cols.T @ cols, cols.T @ np.ones(16)) is None
        with pytest.raises(np.linalg.LinAlgError):
            _lstsq_on_support(cols, np.ones(16))

    @given(st.sampled_from(["subsampled_dct", "gaussian", "rademacher"]),
           st.integers(1, 39), st.integers(1, 29), st.integers(0, 2**32 - 1))
    def test_refuses_every_wide_gram(self, family, n_rows, extra_cols, seed):
        # CoSaMP relies on this: a candidate set wider than M has no branch of
        # its own, its Gram (rank <= M) is refused and gelsd answers
        rng = np.random.default_rng(seed)
        if family == "subsampled_dct":
            ens = generate_subsampled_dct_ensemble(n_rows, 8192, rng)
        else:
            ens = orthogonalize_rows(generate_ensemble(n_rows, 256, family, rng))
        indices = np.sort(rng.choice(ens.cols, n_rows + extra_cols, replace=False))
        rhs = ens.apply_transpose(rng.standard_normal(n_rows))[indices]
        assert _normal_solve(ens.gram(indices), rhs) is None


class TestCosamp:
    def test_noise_free_one_sparse_recovery_rate(self):
        hits, big_rsnr = 0, 0
        for t in range(100):
            c_sig, c_ens = np.random.SeedSequence((3, t)).spawn(2)
            sp = generate_bandlimited(256, 1, "random", c_sig)
            ens = generate_ensemble(64, 256, "gaussian", c_ens)
            out = cosamp(ens, ens.apply(sp.coeffs), 1)
            if np.array_equal(out.support_hat, sp.support):
                hits += 1
                if metrics.rsnr(sp.coeffs, out.coeffs_hat) > 1e10:
                    big_rsnr += 1
        assert hits >= 99
        assert big_rsnr >= 99

    def test_zero_measurements(self):
        ens = generate_ensemble(8, 32, "gaussian", 0)
        out = cosamp(ens, np.zeros(8), 3)
        nptest.assert_array_equal(out.coeffs_hat, np.zeros(32))
        assert out.converged and out.iterations == 1
        assert out.support_hat.size == 0

    def test_failure_beyond_recovery_limit(self):
        # rho at twice the blind-recovery limit (kappa0 = 0.6): mostly fails
        B, W = 1024, 4
        rho_max = B / W
        rho_cs = 0.6 * rho_max / np.log(rho_max)
        M = int(round(B / (2 * rho_cs)))
        fails = 0
        for t in range(100):
            c_sig, c_ens = np.random.SeedSequence((4, t)).spawn(2)
            sp = generate_bandlimited(B, W, "random", c_sig)
            ens = generate_ensemble(M, B, "gaussian", c_ens)
            out = cosamp(ens, ens.apply(sp.coeffs), W)
            fails += not np.array_equal(out.support_hat, sp.support)
        assert fails > 50

    def test_output_sparsity_bounded(self):
        ens = generate_ensemble(24, 128, "gaussian", 7)
        sp = generate_bandlimited(128, 4, "random", 8)
        y = ens.apply(sp.coeffs) + 0.05 * np.random.default_rng(9).standard_normal(24)
        out = cosamp(ens, y, 4)
        assert out.support_hat.size <= 4
        assert np.count_nonzero(out.coeffs_hat) <= 4
        off = np.setdiff1d(np.arange(128), out.support_hat)
        assert np.all(out.coeffs_hat[off] == 0.0)

    def test_step_that_raises_the_residual_is_rejected(self, monkeypatch):
        ens = generate_ensemble(32, 256, "gaussian", 11)
        sp = generate_bandlimited(256, 4, "random", 12)
        y = ens.apply(sp.coeffs) + 0.1 * np.random.default_rng(13).standard_normal(32)
        monkeypatch.setattr(recovery, "COSAMP_MAX_ITER", 1)
        first = cosamp(ens, y, 4)
        monkeypatch.undo()
        # each iteration solves twice (candidates, then the refit): spoil the
        # second iteration's refit so that its residual grows
        solves = []
        original = recovery._normal_solve

        def spoiled(gram, rhs):
            solves.append(gram.shape)
            sol = original(gram, rhs)
            return 10.0 * sol if len(solves) == 4 else sol

        monkeypatch.setattr(recovery, "_normal_solve", spoiled)
        out = cosamp(ens, y, 4)
        assert len(solves) == 4
        assert out.iterations == 2
        assert not out.converged
        nptest.assert_array_equal(out.support_hat, first.support_hat)
        nptest.assert_array_equal(out.coeffs_hat, first.coeffs_hat)

    def test_agrees_with_oracle_when_support_found(self):
        ens = generate_ensemble(32, 256, "gaussian", 17)
        sp = generate_bandlimited(256, 3, "random", 18)
        y = ens.apply(sp.coeffs) + 0.02 * np.random.default_rng(19).standard_normal(32)
        out = cosamp(ens, y, 3)
        assert np.array_equal(out.support_hat, sp.support)
        reference = oracle_recover(ens, y, sp.support)
        nptest.assert_allclose(out.coeffs_hat, reference.coeffs_hat, atol=1e-10)

    def test_more_candidates_than_rows(self, monkeypatch):
        # rho = 256, W = 13: up to 39 candidates against M = 32 rows go to gelsd
        B, M, W = 8192, 32, 13
        ens = generate_subsampled_dct_ensemble(M, B, 27)
        sp = generate_bandlimited(B, W, "random", 28)
        widths, gram_widths = [], []
        original, original_gram = np.linalg.lstsq, ens.gram

        def recorded(a, b, rcond=None):
            widths.append(a.shape[1])
            return original(a, b, rcond=rcond)

        def recorded_gram(indices):
            gram_widths.append(len(indices))
            return original_gram(indices)

        monkeypatch.setattr(np.linalg, "lstsq", recorded)
        monkeypatch.setattr(ens, "gram", recorded_gram)
        out = cosamp(ens, ens.apply(sp.coeffs), W)
        assert any(width > M for width in widths)
        # one Gram per iteration, of the candidate set, wide or not: the
        # refit Gram is always its slice
        assert len(gram_widths) == out.iterations
        assert all(width >= 2 * W for width in gram_widths)
        assert out.support_hat.size == W
        assert np.count_nonzero(out.coeffs_hat) <= W
        off = np.setdiff1d(np.arange(B), out.support_hat)
        assert np.all(out.coeffs_hat[off] == 0.0)

    @staticmethod
    def _twin_columns_run(offset, monkeypatch):
        """CoSaMP with W = 2 on a dense 8 x 16 ensemble whose column 5 is
        column 3 plus ``offset`` times noise, with the signal on both; returns
        the output, the signal's coefficients and the outcome of every gelsd
        refit."""
        rng = np.random.default_rng(31)
        matrix = rng.standard_normal((8, 16))
        matrix[:, 5] = matrix[:, 3] + offset * rng.standard_normal(8)
        ens = MeasurementEnsemble(matrix=matrix)
        alpha = np.zeros(16)
        alpha[[3, 5]] = 1.0, -0.5
        refits = []

        def recorded(columns, y):
            try:
                sol = _lstsq_on_support(columns, y)
            except np.linalg.LinAlgError:
                refits.append("rank failure")
                raise
            refits.append("accepted")
            return sol

        monkeypatch.setattr(recovery, "_lstsq_on_support", recorded)
        return cosamp(ens, ens.apply(alpha), 2), alpha, refits

    def test_rank_deficient_refit_ends_the_run(self, monkeypatch):
        # the refit Gram of the twin columns is singular: the normal solve
        # refuses it, gelsd finds rank 1 and the run stops unconverged
        out, _, refits = self._twin_columns_run(0.0, monkeypatch)
        assert out.iterations == 1
        assert not out.converged
        assert out.support_hat.size == 0
        nptest.assert_array_equal(out.coeffs_hat, np.zeros(16))
        assert refits == ["rank failure"]

    def test_ill_conditioned_refit_takes_gelsd(self, monkeypatch):
        # near-twin columns: cond(G) ~ 1e11 is refused, gelsd finds full rank
        out, alpha, refits = self._twin_columns_run(1e-5, monkeypatch)
        assert refits and set(refits) == {"accepted"}
        assert out.converged
        nptest.assert_array_equal(out.support_hat, [3, 5])
        nptest.assert_allclose(out.coeffs_hat, alpha, atol=1e-8)

    def test_works_with_implicit_ensembles(self):
        ens = generate_subsampled_dct_ensemble(64, 512, 21)
        sp = generate_bandlimited(512, 2, "random", 22)
        out = cosamp(ens, ens.apply(sp.coeffs), 2)
        nptest.assert_allclose(out.coeffs_hat, sp.coeffs, atol=1e-8)

    def test_residual_extracts_no_columns(self, monkeypatch):
        # the residual comes from ens.apply; columns are only for gelsd
        ens = generate_subsampled_dct_ensemble(256, 1024, 4)
        sp = generate_bandlimited(1024, 4, "random", 5)
        extracted = []
        original = ens.columns

        def counted(indices):
            extracted.append(len(indices))
            return original(indices)

        monkeypatch.setattr(ens, "columns", counted)
        out = cosamp(ens, ens.apply(sp.coeffs), 4)
        assert extracted == []
        nptest.assert_array_equal(out.support_hat, sp.support)


class TestBandpassBaseline:
    def test_single_tone_exact_for_every_representable_bin(self):
        # oracle: fold bin found by scanning the explicit decimated basis
        B, rho = 8, 2
        M = B // rho
        psi_m = synthesis_matrix(M)
        for k in range(B):
            alpha = np.zeros(B)
            alpha[k] = 1.7
            x = synthesize_vector(alpha)
            decimated_basis = synthesis_matrix(B)[::rho, k]
            gains = psi_m.T @ decimated_basis
            if np.max(np.abs(gains)) < 1e-12:
                with pytest.raises(ValueError):
                    bandpass_baseline(x, rho, [k])
                continue
            out = bandpass_baseline(x, rho, [k])
            nptest.assert_allclose(out.coeffs_hat, alpha, atol=1e-8)

    @pytest.mark.parametrize("B", [15, 16, 24, 64])
    def test_closed_form_gain_matches_basis_product(self, B):
        # reference: the decimated basis vector against every size-M basis vector
        for rho in (d for d in range(1, B + 1) if B % d == 0):
            M = B // rho
            psi_m = synthesis_matrix(M)
            for k in range(B):
                decimated = basis_column(B, k)[::rho]
                products = psi_m.T @ decimated
                folded = _fold(k, B, M, rho)
                assert (folded is None) == (np.max(np.abs(products)) < 1e-12), (k, rho)
                if folded is None:
                    with pytest.raises(ValueError):
                        bandpass_baseline(synthesize_vector(np.eye(B)[k]), rho, [k])
                    continue
                q, gain = folded
                assert abs(gain - decimated @ basis_column(M, q)) < 1e-13, (k, rho)
                assert np.max(np.abs(np.delete(products, q)), initial=0.0) < 1e-12, (k, rho)

    def test_no_decimation_is_plain_analysis(self):
        sp = generate_bandlimited(16, 4, 5, 3)
        out = bandpass_baseline(synthesize_vector(sp.coeffs), 1, sp.support)
        nptest.assert_allclose(out.coeffs_hat, sp.coeffs, atol=1e-10)

    def test_alias_collision_detected(self):
        # cosine bins of frequencies f and f + M fold onto the same bin
        B, rho = 16, 4
        alpha = np.zeros(B)
        alpha[1] = 1.0   # cos, f = 1
        alpha[9] = 1.0   # cos, f = 5 = 1 + M
        x = synthesize_vector(alpha)
        with pytest.raises(ValueError):
            bandpass_baseline(x, rho, [1, 9])

    def test_rejects_non_divisor(self):
        sp = generate_bandlimited(16, 2, 0, 0)
        with pytest.raises(ValueError):
            bandpass_baseline(synthesize_vector(sp.coeffs), 3, sp.support)

    def test_noise_folding_ratio(self):
        # white signal noise: in-band noise energy amplified by rho
        B, W, rho = 64, 2, 4
        rng = np.random.default_rng(5)
        err_sum, inband_sum = 0.0, 0.0
        for _ in range(10_000):
            sp = generate_bandlimited(B, W, "random", rng)
            noisy = sp.coeffs + 0.1 * rng.standard_normal(B)
            x = synthesize_vector(noisy)
            try:
                out = bandpass_baseline(x, rho, sp.support)
            except ValueError:
                continue
            err_sum += np.sum((out.coeffs_hat - sp.coeffs) ** 2)
            inband_sum += np.sum((noisy - sp.coeffs)[sp.support] ** 2)
        loss_db = 10 * np.log10(err_sum / inband_sum)
        assert abs(loss_db - 10 * np.log10(rho)) < 0.5
