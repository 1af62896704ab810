import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslab import metrics, theory
from cslab.sensing import estimate_rip_constant, generate_ensemble, orthogonalize_rows
from cslab.signal_model import generate_bandlimited, par, synthesize_vector
from cslab.quantization import QuantizerSpec, sqnr as quantizer_sqnr


class TestSnrMetrics:
    def test_isnr_exact_signal_is_infinite(self):
        sp = generate_bandlimited(16, 2, 0, 0)
        assert metrics.isnr(sp, sp.coeffs) == np.inf

    def test_isnr_direct_ratio(self):
        sp = generate_bandlimited(16, 1, 3, 0)
        sp.coeffs[3] = 1.0
        noisy = sp.coeffs.copy()
        noisy[3] += 0.1
        assert metrics.isnr(sp, noisy) == pytest.approx(100.0)

    def test_isnr_ignores_out_of_band_noise(self):
        sp = generate_bandlimited(16, 1, 3, 0)
        noisy = sp.coeffs.copy()
        noisy[10] += 5.0
        assert metrics.isnr(sp, noisy) == np.inf

    def test_rsnr_exact_and_direct(self):
        alpha = np.zeros(8)
        alpha[2] = 1.0
        assert metrics.rsnr(alpha, alpha) == np.inf
        ahat = alpha.copy()
        ahat[2] += 0.1
        assert metrics.rsnr(alpha, ahat) == pytest.approx(100.0)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            metrics.rsnr(np.zeros(4), np.ones(4))

    def test_msnr(self):
        ens = generate_ensemble(4, 8, "gaussian", 0)
        sp = generate_bandlimited(8, 2, 0, 1)
        clean = ens.apply(sp.coeffs)
        assert metrics.msnr(clean, clean) == np.inf
        perturbed = clean + np.full(4, 0.01)
        expected = np.dot(clean, clean) / (4 * 1e-4)
        assert metrics.msnr(clean, perturbed) == pytest.approx(expected)

    @given(st.floats(-200, 200))
    def test_db_round_trip(self, db):
        assert metrics.to_db(metrics.from_db(db)) == pytest.approx(db, abs=1e-12)

    @given(st.floats(1e-9, 1e9))
    def test_linear_round_trip(self, ratio):
        assert metrics.from_db(metrics.to_db(ratio)) == pytest.approx(ratio, rel=1e-12)


class TestTheoremBounds:
    def test_rsnr_over_msnr(self):
        assert theory.rsnr_over_msnr_bounds(16, 4, 0.0) == (4.0, 4.0)
        lo, hi = theory.rsnr_over_msnr_bounds(64, 4, 0.2)
        assert lo == pytest.approx(32 / 3)
        assert hi == pytest.approx(24.0)
        _, hi = theory.rsnr_over_msnr_bounds(64, 4, 0.999999999)
        assert hi > 1e9

    def test_msnr_over_isnr(self):
        assert theory.msnr_over_isnr_bounds(8, 8, 0.0) == (1.0, 1.0)
        lo, hi = theory.msnr_over_isnr_bounds(4, 1024, 0.1)
        assert lo == pytest.approx(0.003515625)
        assert hi == pytest.approx(0.004296875)

    def test_noise_folding(self):
        lo, hi = theory.noise_folding_bounds(2.0, 0.0)
        assert lo == hi == 2.0
        assert metrics.to_db(lo) == pytest.approx(3.0103, abs=1e-4)
        assert theory.noise_folding_bounds(1.0, 0.0) == (1.0, 1.0)
        lo160, _ = theory.noise_folding_bounds(160.0, 0.0)
        assert metrics.to_db(lo160) == pytest.approx(22.04, abs=0.01)

    def test_oracle_error_bracket_degenerate(self):
        assert theory.expected_oracle_error_bounds(4, 1.0, 0.0) == (4.0, 4.0)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            theory.noise_folding_bounds(2.0, 1.0)
        with pytest.raises(ValueError):
            theory.rsnr_over_msnr_bounds(8, 2, -0.1)


class TestDesignRules:
    def test_rho_cs_published_anchors(self):
        assert theory.rho_cs(2500.0, 0.5) == pytest.approx(159.76, abs=0.05)
        assert math.log2(theory.rho_cs(645.0, 0.5)) == pytest.approx(5.64, abs=0.02)
        assert theory.rho_cs(math.e, 1.0) == pytest.approx(math.e)
        assert theory.rho_cs(1.0) == 1.0

    def test_bit_depth_trend(self):
        diff = theory.bit_depth_trend(4.0, 32) - theory.bit_depth_trend(4.0, 16)
        assert diff == pytest.approx(10 * math.log10(2) / 2.3)
        assert diff == pytest.approx(1.309, abs=0.001)
        assert theory.bit_depth_trend(4.0, 1) == pytest.approx(4.0)
        assert theory.bit_depth_trend(4.0, 16) == pytest.approx(9.2353, abs=0.001)

    def test_table_inputs(self):
        rep = theory.design_rules(1e9, 4e5, kappa0=0.5, base_bits=8)
        assert rep.rho_max == pytest.approx(2500.0)
        assert 155 <= rep.rho_cs <= 165
        assert 21.8 <= rep.noise_figure_db <= 22.2
        assert 9 <= rep.bit_gain <= 10
        assert rep.projected_bits >= 17
        assert rep.projected_dr_db > 100
        assert 1e9 / rep.rho_cs == pytest.approx(6.25e6, rel=0.01)

    def test_full_band_degenerate(self):
        rep = theory.design_rules(64, 64)
        assert rep.rho_max == 1.0
        assert rep.rho_cs == 1.0
        assert rep.noise_figure_db == 0.0

    @pytest.mark.parametrize("kwargs, key", [({"kappa0": 0.0}, "kappa0"),
                                             ({"kappa0": -0.5}, "kappa0"),
                                             ({"base_bits": 0}, "base_bits")])
    def test_rejects_nonpositive_kappa0_and_base_bits_below_one(self, kwargs, key):
        with pytest.raises(ValueError, match=key):
            theory.design_rules(1e9, 4e5, **kwargs)

    def test_noise_figure_matches_rho_cs(self):
        rep = theory.design_rules(4096, 4)
        assert rep.noise_figure_db == pytest.approx(10 * math.log10(rep.rho_cs))
        assert rep.rho_cs <= rep.rho_max


class TestQuantizationLinkBounds:
    def test_recovery_bound_degenerate(self):
        assert theory.rsnr_from_measurement_sqnr_bound(123.0, 0.0, 1.0) == 123.0
        assert theory.rsnr_from_measurement_sqnr_bound(400.0, 0.0, 2.0) == 100.0

    def test_measurement_sqnr_bound_holds_on_instances(self):
        # full-range-scaled quantized measurements beat the closed form
        q = QuantizerSpec(bits=6)
        count = 0
        for seed in range(100):
            c_sig, c_ens = np.random.SeedSequence((50, seed)).spawn(2)
            sp = generate_bandlimited(16, 2, "random", c_sig)
            ens = orthogonalize_rows(generate_ensemble(8, 16, "gaussian", c_ens))
            delta = estimate_rip_constant(ens, 2, mode="exhaustive")
            if delta >= 1.0:
                continue
            x = synthesize_vector(sp.coeffs)
            y = ens.apply(sp.coeffs)
            beta = 1.0 / np.max(np.abs(y))
            bound = theory.measurement_sqnr_lower_bound(
                q.bits, par(x), delta, ens.subsampling,
                np.max(np.abs(x)), np.max(np.abs(y)))
            assert quantizer_sqnr(q, beta * y) >= bound - 1e-9
            count += 1
        assert count >= 90

    def test_worst_case_par_penalty_implication(self):
        # whenever every |y_j| <= rho * max|x|, the transfer ratio is >= 1/rho
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(500):
            B = int(rng.integers(8, 64))
            M = int(rng.integers(2, B + 1))
            rho = B / M
            x = rng.standard_normal(B)
            phi = (2.0 * rng.integers(0, 2, size=(M, B)) - 1.0) / np.sqrt(M)
            y = phi @ x
            x_peak = np.max(np.abs(x))
            if np.max(np.abs(y)) <= rho * x_peak:
                ratio = rho * x_peak**2 / np.max(np.abs(y)) ** 2
                assert ratio >= 1.0 / rho - 1e-12
                checked += 1
        assert checked > 0

