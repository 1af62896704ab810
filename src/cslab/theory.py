"""Closed-form performance brackets and receiver design rules.

Every bracket collapses to a point at delta = 0 and widens as the restricted
isometry constant grows.  dB conversions are 10*log10 throughout (power
ratios).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BIT_SLOPE_PER_OCTAVE",
    "DEFAULT_KAPPA0",
    "DEFAULT_KAPPA1",
    "DesignRuleReport",
    "expected_oracle_error_bounds",
    "rsnr_over_msnr_bounds",
    "msnr_over_isnr_bounds",
    "noise_folding_bounds",
    "rho_cs",
    "bit_depth_trend",
    "design_rules",
    "rsnr_from_measurement_sqnr_bound",
    "measurement_sqnr_lower_bound",
    "cs_equivalent_snr_target",
]

DEFAULT_KAPPA0 = 0.5
DEFAULT_KAPPA1 = 2.0

# bits gained per octave of subsampling in the rate/resolution trade
BIT_SLOPE_PER_OCTAVE = 10.0 * math.log10(2.0) / 2.3


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")


def expected_oracle_error_bounds(sparsity: int, noise_var: float, delta: float) -> tuple[float, float]:
    """Bracket for E||alpha_hat - alpha||^2 of support-aware least squares
    under white measurement noise: [W v / (1 + delta), W v / (1 - delta)]."""
    _check_delta(delta)
    base = sparsity * noise_var
    return base / (1.0 + delta), base / (1.0 - delta)


def rsnr_over_msnr_bounds(n_measurements: int, sparsity: int, delta: float) -> tuple[float, float]:
    """Bracket for RSNR/MSNR of support-aware recovery: (M/W) * (1 -+ delta)/(1 +- delta)."""
    _check_delta(delta)
    ratio = n_measurements / sparsity
    return ratio * (1.0 - delta) / (1.0 + delta), ratio * (1.0 + delta) / (1.0 - delta)


def msnr_over_isnr_bounds(sparsity: int, ambient_dim: int, delta: float) -> tuple[float, float]:
    """Bracket for MSNR/ISNR under white signal noise and an orthogonal-row
    ensemble: (W/B) * (1 -+ delta)."""
    _check_delta(delta)
    ratio = sparsity / ambient_dim
    return (1.0 - delta) * ratio, (1.0 + delta) * ratio


def noise_folding_bounds(subsampling: float, delta: float) -> tuple[float, float]:
    """Bracket for the ISNR/RSNR penalty of subsampled acquisition in white
    signal noise: [rho / (1 + delta), rho / (1 - delta)] (3 dB per octave)."""
    _check_delta(delta)
    return subsampling / (1.0 + delta), subsampling / (1.0 - delta)


def rho_cs(rho_max: float, kappa0: float = DEFAULT_KAPPA0) -> float:
    """Largest subsampling factor at which blind sparse recovery stays
    reliable: kappa0 * rho_max / ln(rho_max), capped at rho_max."""
    if rho_max < 1.0:
        raise ValueError("rho_max must be >= 1")
    if rho_max == 1.0:
        return 1.0
    return min(rho_max, kappa0 * rho_max / math.log(rho_max))


def bit_depth_trend(base_bits: float, subsampling: float) -> float:
    """Achievable quantizer bits at subsampling rho for a full-rate bit depth
    b0: b0 + (10*log10(2)/2.3) * log2(rho) (about 1.309 bits per octave)."""
    return base_bits + BIT_SLOPE_PER_OCTAVE * math.log2(subsampling)


@dataclass(frozen=True)
class DesignRuleReport:
    """Headline numbers for a candidate receiver design."""

    rho_max: float
    rho_cs: float
    noise_figure_db: float
    bit_gain: float
    projected_bits: float
    projected_dr_db: float


def design_rules(
    ambient_dim: float,
    band_width: float,
    kappa0: float = DEFAULT_KAPPA0,
    base_bits: float = 8.0,
) -> DesignRuleReport:
    """Evaluate the receiver design rules for a (B, W) geometry.

    ``base_bits`` is the bit depth of a full-rate sampler; the projected bit
    depth adds the rate/resolution gain at rho_cs and the projected dynamic
    range applies the 6.02 dB-per-bit rule.
    """
    if band_width <= 0 or ambient_dim <= 0:
        raise ValueError("ambient_dim and band_width must be positive")
    if band_width > ambient_dim:
        raise ValueError("band_width cannot exceed ambient_dim")
    if kappa0 <= 0:
        raise ValueError(f"kappa0 must be positive; got {kappa0}")
    if base_bits < 1:
        raise ValueError(f"base_bits must be >= 1; got {base_bits}")
    rmax = ambient_dim / band_width
    rcs = rho_cs(rmax, kappa0)
    nf_db = 10.0 * math.log10(rcs)
    bits = bit_depth_trend(base_bits, rcs)
    return DesignRuleReport(
        rho_max=rmax,
        rho_cs=rcs,
        noise_figure_db=nf_db,
        bit_gain=BIT_SLOPE_PER_OCTAVE * math.log2(rcs),
        projected_bits=bits,
        projected_dr_db=6.02 * bits,
    )


def rsnr_from_measurement_sqnr_bound(
    sqnr_y: float, delta: float, kappa1: float = DEFAULT_KAPPA1
) -> float:
    """Lower bound on the recovered SNR given the SQNR of the quantized
    measurements: SQNR(y) / ((1 + delta) * kappa1^2)."""
    _check_delta(delta)
    return sqnr_y / ((1.0 + delta) * kappa1**2)


def measurement_sqnr_lower_bound(
    bits: int,
    par_x: float,
    delta: float,
    rho: float,
    x_peak: float,
    y_peak: float,
) -> float:
    """Lower bound on SQNR of full-range-scaled measurements:
    (1 - delta) * rho * (x_peak/y_peak)^2 * (2^b)^2 / par_x^2."""
    _check_delta(delta)
    levels = 2.0**bits  # 2G/Delta
    return (1.0 - delta) * rho * (x_peak / y_peak) ** 2 * levels**2 / par_x**2


def cs_equivalent_snr_target(
    delta: float,
    rho: float,
    x_peak: float,
    y_peak: float,
    kappa1: float = DEFAULT_KAPPA1,
) -> float:
    """Recovered-SNR level C' that plays the role of the conventional SQNR
    target in the dynamic-range bound for a recovery-based system:
    C' = ((1 - delta) / ((1 + delta) kappa1^2)) * rho * (x_peak/y_peak)^2."""
    _check_delta(delta)
    return (1.0 - delta) / ((1.0 + delta) * kappa1**2) * rho * (x_peak / y_peak) ** 2

