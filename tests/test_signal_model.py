import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from cslab.signal_model import (
    SparseSpectrum,
    add_signal_noise,
    analyze_vector,
    generate_bandlimited,
    par,
    signal_noise_var_for_isnr,
    synthesis_matrix,
    synthesize_vector,
)


class TestSparseSpectrum:
    def test_rejects_nonzero_off_support(self):
        with pytest.raises(ValueError):
            SparseSpectrum(4, np.array([0]), np.array([1.0, 0.5, 0.0, 0.0]))

    def test_rejects_out_of_range_support(self):
        with pytest.raises(ValueError):
            SparseSpectrum(4, np.array([4]), np.zeros(4))


class TestSynthesize:
    def test_zero_vector(self):
        sp = SparseSpectrum(8, np.array([], dtype=int), np.zeros(8))
        nptest.assert_array_equal(synthesize_vector(sp.coeffs), np.zeros(8))

    def test_dc_bin_is_constant_unit_norm(self):
        sp = SparseSpectrum(4, np.array([0]), np.array([1.0, 0, 0, 0]))
        x = synthesize_vector(sp.coeffs)
        nptest.assert_allclose(x, np.full(4, 0.5))
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12

    def test_matches_explicit_orthonormal_matrix(self):
        # oracle: explicit B x B synthesis matrix, orthonormality by direct product
        B = 64
        Psi = synthesis_matrix(B)
        nptest.assert_allclose(Psi.T @ Psi, np.eye(B), atol=1e-12)
        sp = generate_bandlimited(B, 3, "random", 123)
        x = synthesize_vector(sp.coeffs)
        nptest.assert_allclose(x, Psi @ sp.coeffs, atol=1e-12)

    def test_isometry(self):
        sp = generate_bandlimited(64, 3, "random", 5)
        x = synthesize_vector(sp.coeffs)
        ratio = np.linalg.norm(x) / np.linalg.norm(sp.coeffs)
        assert abs(ratio - 1.0) < 1e-10

    @pytest.mark.parametrize("B", [1, 2, 3, 15, 16, 33])
    def test_analyze_inverts_synthesize(self, B):
        rng = np.random.default_rng(B)
        alpha = rng.standard_normal(B)
        nptest.assert_allclose(analyze_vector(synthesize_vector(alpha)), alpha, atol=1e-10)

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -2.25, 1e300, -1e300, 5e-324])
    def test_one_bin_is_the_identity(self, value):
        # B = 1 takes the general real-FFT path; the lone basis vector is [1]
        alpha = np.array([value])
        assert synthesize_vector(alpha).tobytes() == alpha.tobytes()
        assert analyze_vector(alpha).tobytes() == alpha.tobytes()


class TestGenerateBandlimited:
    def test_contiguous_support(self):
        sp = generate_bandlimited(1024, 4, "random", 1)
        assert sp.sparsity == 4
        nptest.assert_array_equal(np.diff(sp.support), np.ones(3))
        assert np.count_nonzero(sp.coeffs) == 4

    def test_full_band_degenerate(self):
        sp = generate_bandlimited(16, 16, 0, 0)
        nptest.assert_array_equal(sp.support, np.arange(16))

    def test_rejects_band_too_wide(self):
        with pytest.raises(ValueError):
            generate_bandlimited(8, 9, "random", 0)

    def test_rejects_out_of_range_placement(self):
        with pytest.raises(ValueError):
            generate_bandlimited(16, 4, 13, 0)

    def test_deterministic_given_seed(self):
        a = generate_bandlimited(256, 4, "random", 77)
        b = generate_bandlimited(256, 4, "random", 77)
        nptest.assert_array_equal(a.support, b.support)
        nptest.assert_array_equal(a.coeffs, b.coeffs)

    def test_placement_uniform_over_admissible_range(self):
        # oracle: histogram over 10^4 seeds, chi-square test
        B, W = 2580, 4
        starts = [generate_bandlimited(B, W, "random", s).support[0] for s in range(10_000)]
        counts, _ = np.histogram(starts, bins=np.linspace(0, B - W + 1, 21))
        assert chisquare(counts).pvalue > 0.01


class TestPar:
    def test_constant_vector_attains_lower_bound(self):
        assert par(np.full(4, 2.5)) == pytest.approx(1.0)

    def test_one_sparse_attains_upper_bound(self):
        assert par(np.array([1.0, 0, 0, 0])) == pytest.approx(2.0)

    def test_direct_evaluation(self):
        # max|x| = 4, ||x||/sqrt(2) = 5/sqrt(2)
        assert par(np.array([3.0, 4.0])) == pytest.approx(4 * np.sqrt(2) / 5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            par(np.zeros(8))

    @given(st.integers(2, 64), st.integers(0, 2**31 - 1))
    def test_bounds(self, size, seed):
        v = np.random.default_rng(seed).standard_normal(size)
        if not np.any(v):
            return
        g = par(v)
        assert 1.0 - 1e-12 <= g <= np.sqrt(size) + 1e-12


class TestAddSignalNoise:
    def test_zero_variance_is_exact(self):
        sp = generate_bandlimited(64, 4, "random", 3)
        nptest.assert_array_equal(add_signal_noise(sp, 0.0, 9), sp.coeffs)

    def test_sample_variance(self):
        sp = SparseSpectrum(10_000, np.array([0]), np.eye(10_000)[0])
        noise = add_signal_noise(sp, 1.0, 4) - sp.coeffs
        assert abs(np.var(noise) - 1.0) < 0.05

    def test_zero_mean(self):
        sp = SparseSpectrum(10_000, np.array([0]), np.eye(10_000)[0])
        noise = add_signal_noise(sp, 1.0, 5) - sp.coeffs
        assert abs(np.mean(noise)) < 0.05

    def test_covers_all_bins_not_just_support(self):
        sp = generate_bandlimited(128, 2, 10, 6)
        noisy = add_signal_noise(sp, 1.0, 7)
        off = np.setdiff1d(np.arange(128), sp.support)
        assert np.all(noisy[off] != 0.0)


def test_isnr_targeting_within_half_db():
    # trial-averaged realized in-band noise energy must invert back to the target
    sp = generate_bandlimited(512, 4, "random", 8)
    target_db = 40.0
    var = signal_noise_var_for_isnr(sp, target_db)
    energies = []
    for t in range(1000):
        noisy = add_signal_noise(sp, var, (8, t))
        energies.append(np.sum((noisy - sp.coeffs)[sp.support] ** 2))
    realized_db = 10 * np.log10(np.dot(sp.coeffs, sp.coeffs) / np.mean(energies))
    assert abs(realized_db - target_db) < 0.5
