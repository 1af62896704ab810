import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslab import metrics, recovery, sensing, signal_model, theory
from cslab.quantization import (
    QuantizerSpec,
    dynamic_range_closed_form,
    dynamic_range_empirical,
    quantize,
    sqnr,
)
from cslab.signal_model import par


class TestQuantizerSpec:
    def test_interval_and_max_level(self):
        q = QuantizerSpec(bits=2, saturation=1.0)
        assert q.interval == 0.5
        assert q.max_level == 0.75
        # Delta * 2^(b-1) == G exactly
        assert q.interval * 2 ** (q.bits - 1) == q.saturation

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantizerSpec(bits=0)
        with pytest.raises(ValueError):
            QuantizerSpec(bits=4, saturation=0.0)

    def test_bits_bounded_by_the_float_significand(self):
        with pytest.raises(ValueError, match="bits must lie in"):
            QuantizerSpec(bits=54)
        q = QuantizerSpec(bits=53)
        v = np.array([-0.99, -0.3, 0.1, 0.7])
        out = quantize(q, v)
        # the levels Delta (k + 1/2), odd multiples of Delta/2, are still floats
        nptest.assert_array_equal(np.mod(out / (q.interval / 2), 2), 1.0)
        assert np.all(np.abs(out - v) <= q.interval / 2)


class TestQuantize:
    def test_two_bit_examples(self):
        q = QuantizerSpec(bits=2, saturation=1.0)
        nptest.assert_allclose(
            quantize(q, np.array([0.3, 0.9, 1.7, -0.1])),
            np.array([0.25, 0.75, 0.75, -0.25]),
        )

    def test_boundary_maps_upward(self):
        q = QuantizerSpec(bits=2, saturation=1.0)
        assert quantize(q, np.array([0.5]))[0] == 0.75
        assert quantize(q, np.array([0.0]))[0] == 0.25

    @given(st.integers(1, 12), st.lists(st.floats(-3, 3), min_size=1, max_size=32))
    def test_unsaturated_error_bound(self, bits, values):
        q = QuantizerSpec(bits=bits, saturation=3.5)
        v = np.asarray(values)
        err = np.abs(v - quantize(q, v))
        assert np.all(err <= q.interval / 2 + 1e-12)

    @given(st.integers(1, 12), st.floats(1.01, 50.0))
    def test_saturated_error_is_exact_overshoot(self, bits, magnitude):
        q = QuantizerSpec(bits=bits, saturation=1.0)
        for v in (magnitude, -magnitude):
            err = abs(v - quantize(q, np.array([v]))[0])
            assert err == pytest.approx(abs(v) - (1.0 - q.interval / 2), rel=1e-12)

    def test_outputs_lie_on_midrise_levels(self):
        q = QuantizerSpec(bits=3, saturation=1.0)
        v = np.linspace(-2, 2, 401)
        out = quantize(q, v)
        levels = q.interval * (np.arange(-4, 4) + 0.5)
        assert set(np.round(out, 12)) <= set(np.round(levels, 12))
        assert len(np.unique(out)) == 2**3


class TestSqnr:
    def test_exact_levels_give_infinite_sqnr(self):
        q = QuantizerSpec(bits=3, saturation=1.0)
        levels = q.interval * (np.array([-2, 0, 1]) + 0.5)
        assert sqnr(q, levels) == np.inf

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            sqnr(QuantizerSpec(bits=3), np.zeros(4))

    def test_full_range_constant_vector_attains_floor(self):
        # oracle recomputation: constant vector at the saturation level has
        # per-entry error exactly Delta/2, so SQNR == (2G/Delta)^2 == 2^(2b)
        q = QuantizerSpec(bits=4, saturation=1.0)
        v = np.full(16, 1.0)  # beta = G/max|v| = 1
        bound = (2 * q.saturation / q.interval) ** 2 / par(v) ** 2
        assert bound == 256.0
        assert sqnr(q, v) >= bound - 1e-9
        assert sqnr(q, v) == pytest.approx(256.0)

    @pytest.mark.parametrize("bits", [2, 4, 8, 12])
    def test_full_range_scaling_beats_db_rule(self, bits):
        # 6.02 b - 20 log10(par) floor on 1000 random vectors
        q = QuantizerSpec(bits=bits, saturation=1.0)
        rng = np.random.default_rng(bits)
        for _ in range(1000):
            v = rng.standard_normal(int(rng.integers(4, 64)))
            beta = q.saturation / np.max(np.abs(v))
            db = 10 * np.log10(sqnr(q, beta * v))
            assert db >= 6.02 * bits - 20 * np.log10(par(v)) - 1e-9


class TestDynamicRangeClosedForm:
    def test_formula_value(self):
        # par(x) = sqrt(2) for a 1-sparse pair; dr = (2^16 - 1) / (2*100 - 1)
        q = QuantizerSpec(bits=8, saturation=1.0)
        x = np.array([1.0, 0.0])
        res = dynamic_range_closed_form(q, x, 100.0)
        assert res.dr_linear == pytest.approx(65535 / 199)
        assert res.dr_db == pytest.approx(10 * np.log10(65535 / 199))

    def test_interval_contains_full_range_anchor(self):
        q = QuantizerSpec(bits=6, saturation=2.0)
        x = np.random.default_rng(1).standard_normal(32)
        res = dynamic_range_closed_form(q, x, 50.0)
        anchor = q.saturation / np.max(np.abs(x))
        assert res.beta_min <= anchor <= res.beta_max
        assert res.dr_linear == pytest.approx((res.beta_max / res.beta_min) ** 2)

    def test_snr_holds_on_sampled_scalings(self):
        # defining property: SQNR(beta x) >= C for 100 log-spaced betas inside
        q = QuantizerSpec(bits=8, saturation=1.0)
        x = np.random.default_rng(2).standard_normal(24)
        C = 200.0
        res = dynamic_range_closed_form(q, x, C)
        for beta in np.geomspace(res.beta_min, res.beta_max, 100):
            assert sqnr(q, beta * x) >= C

    def test_max_admissible_target_collapses_to_one(self):
        q = QuantizerSpec(bits=5, saturation=1.0)
        x = np.ones(8)  # par == 1 exactly
        cmax = (2 * q.saturation / q.interval) ** 2
        res = dynamic_range_closed_form(q, x, cmax)
        assert res.dr_linear == pytest.approx(1.0)

    def test_six_db_per_bit_at_large_depth(self):
        x = np.array([1.0, 0.0])
        drs = [dynamic_range_closed_form(QuantizerSpec(bits=b), x, 100.0).dr_db
               for b in (12, 13)]
        assert drs[1] - drs[0] == pytest.approx(6.02, abs=0.01)

    def test_inadmissible_target_rejected(self):
        q = QuantizerSpec(bits=4, saturation=1.0)
        x = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            dynamic_range_closed_form(q, x, 0.5)
        with pytest.raises(ValueError):
            dynamic_range_closed_form(q, x, 1e9)

    def test_monotonicity(self):
        q8, q9 = QuantizerSpec(bits=8), QuantizerSpec(bits=9)
        x_low = np.full(16, 1.0)
        x_high = np.zeros(16)
        x_high[0] = 1.0
        x_high[1] = 0.2
        dr = lambda q, x, c: dynamic_range_closed_form(q, x, c).dr_linear
        assert dr(q8, x_low, 200.0) <= dr(q8, x_low, 100.0)  # nonincreasing in C
        assert dr(q8, x_high, 100.0) <= dr(q8, x_low, 100.0)  # nonincreasing in par
        assert dr(q9, x_low, 100.0) >= dr(q8, x_low, 100.0)  # increasing in bits


class TestDynamicRangeEmpirical:
    def test_exceeds_closed_form(self):
        # oracle: dense sweep on 10^4 grid points agrees with the search
        q = QuantizerSpec(bits=8, saturation=1.0)
        x = np.random.default_rng(3).standard_normal(32)
        C = 100.0
        emp = dynamic_range_empirical(q, x, C)
        cf = dynamic_range_closed_form(q, x, C)
        assert emp.dr_linear >= cf.dr_linear
        anchor = 1.0 / np.max(np.abs(x))
        betas = anchor * np.logspace(-6, 6, 10_000)
        passing = np.array([sqnr(q, b * x) >= C for b in betas])
        i = int(np.argmin(np.abs(betas - anchor)))
        lo = i
        while lo > 0 and passing[lo - 1]:
            lo -= 1
        hi = i
        while hi < betas.size - 1 and passing[hi + 1]:
            hi += 1
        dense_db = 20 * np.log10(betas[hi] / betas[lo])
        assert emp.dr_db == pytest.approx(dense_db, abs=0.05)

    def test_constant_curve_spans_grid(self):
        q = QuantizerSpec(bits=4)
        x = np.array([1.0, -0.5])
        res = dynamic_range_empirical(q, x, 10.0, snr_fn=lambda beta: 11.0)
        assert res.beta_max / res.beta_min == pytest.approx(1e12, rel=1e-9)

    def test_unachievable_target_rejected(self):
        q = QuantizerSpec(bits=4)
        x = np.array([1.0, -0.5])
        with pytest.raises(ValueError):
            dynamic_range_empirical(q, x, 10.0, snr_fn=lambda beta: 1.0)

    def test_recovery_path_tracks_conventional_within_predicted_offset(self):
        # Monte Carlo comparison: rating the acquisition chain by recovered
        # SNR shifts the dynamic range by roughly the SNR-transfer constant
        B, M, W, bits, C = 256, 64, 4, 8, 100.0
        q = QuantizerSpec(bits=bits, saturation=1.0)
        gaps, offsets = [], []
        for seed in range(5):
            c_sig, c_ens = np.random.SeedSequence((77, seed)).spawn(2)
            sp = signal_model.generate_bandlimited(B, W, "random", c_sig)
            x = signal_model.synthesize_vector(sp.coeffs)
            ens = sensing.generate_subsampled_dct_ensemble(M, B, c_ens)
            y = ens.apply(sp.coeffs)
            conv = dynamic_range_empirical(q, x, C)

            def recovery_snr(beta):
                out = recovery.oracle_recover(ens, quantize(q, beta * y), sp.support)
                return metrics.rsnr(beta * sp.coeffs, out.coeffs_hat)

            cs = dynamic_range_empirical(q, x, C, snr_fn=recovery_snr,
                                         anchor=q.saturation / np.max(np.abs(y)))
            delta = sensing.estimate_rip_constant(ens, W, mode="sampled",
                                                  n_supports=300, rng_seed=seed)
            transfer = theory.cs_equivalent_snr_target(
                min(delta, 0.99), B / M, np.max(np.abs(x)), np.max(np.abs(y)))
            gaps.append(cs.dr_db - conv.dr_db)
            offsets.append(abs(10 * np.log10(transfer)))
        for gap, offset in zip(gaps, offsets):
            assert gap >= -1.0  # recovery path is no worse than direct quantization
            assert abs(gap) <= offset + 6.0  # and shifted by about the predicted constant
