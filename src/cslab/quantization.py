"""Midrise uniform quantizer with saturation, SQNR, and dynamic range.

The b-bit midrise quantizer with saturation level G has interval
Delta = 2^(1-b) * G and output levels Delta * (k + 1/2) clamped to
+-(G - Delta/2).  A value sitting exactly on a level boundary k * Delta maps
upward to Delta * (k + 1/2) (floor-based rule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import rsnr
from .signal_model import par

__all__ = [
    "QuantizerSpec",
    "DynamicRangeResult",
    "quantize",
    "sqnr",
    "dynamic_range_closed_form",
    "dynamic_range_empirical",
]

MAX_BITS = 53  # float64 significand; finer levels in the range's top octave are not floats


@dataclass(frozen=True)
class QuantizerSpec:
    """Bit depth and saturation level; the interval is derived."""

    bits: int
    saturation: float = 1.0

    def __post_init__(self):
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must lie in [1, {MAX_BITS}]; got {self.bits}")
        if self.saturation <= 0:
            raise ValueError("saturation must be positive")

    @property
    def interval(self) -> float:
        """Delta = 2^(1-b) * G."""
        return 2.0 ** (1 - self.bits) * self.saturation

    @property
    def max_level(self) -> float:
        """Largest representable output, G - Delta/2."""
        return self.saturation - self.interval / 2.0


@dataclass(frozen=True)
class DynamicRangeResult:
    """Scaling interval over which a target SNR is maintained."""

    beta_min: float
    beta_max: float
    dr_linear: float
    dr_db: float


def quantize(spec: QuantizerSpec, values: np.ndarray) -> np.ndarray:
    """Quantize each entry to the nearest midrise level, saturating at +-(G - Delta/2)."""
    v = np.asarray(values, dtype=float)
    delta = spec.interval
    q = delta * (np.floor(v / delta) + 0.5)
    return np.clip(q, -spec.max_level, spec.max_level)


def sqnr(spec: QuantizerSpec, values: np.ndarray) -> float:
    """Signal-to-quantization-noise ratio ||v||^2 / ||v - Q(v)||^2 (linear): the
    recovered SNR of Q(v) as an estimate of v, so a zero v is a ValueError."""
    v = np.asarray(values, dtype=float)
    return rsnr(v, quantize(spec, v))


def dynamic_range_closed_form(
    spec: QuantizerSpec, x: np.ndarray, target_snr: float
) -> DynamicRangeResult:
    """Guaranteed scaling interval for SQNR(beta * x) >= target_snr.

    beta_min comes from the granular-error bound on unsaturated inputs and
    beta_max from the saturation-error bound; the resulting dynamic range is
    ((2G/Delta)^2 - 1) / (C * par(x)^2 - 1).  Requires
    1 < C <= (2G/Delta)^2 / par(x)^2, outside of which the notion degenerates.
    """
    v = np.asarray(x, dtype=float)
    gamma = par(v)
    levels = 2.0**spec.bits  # 2G/Delta, exactly
    ceiling = levels**2 / gamma**2
    if not 1.0 < target_snr <= ceiling:
        raise ValueError(
            f"target_snr must lie in (1, {ceiling:.6g}] for this signal and quantizer"
        )
    B = v.size
    energy = float(v @ v)
    half = spec.interval / 2.0
    G = spec.saturation
    beta_min = np.sqrt(target_snr * B * half**2 / energy)
    beta_max_sq = (target_snr * B / energy) * (G**2 - half**2) / (target_snr * gamma**2 - 1.0)
    beta_max = np.sqrt(beta_max_sq)
    dr = (levels**2 - 1.0) / (target_snr * gamma**2 - 1.0)
    return DynamicRangeResult(
        beta_min=float(beta_min),
        beta_max=float(beta_max),
        dr_linear=float(dr),
        dr_db=float(10.0 * np.log10(dr)),
    )


# search grid of ``dynamic_range_empirical``
SEARCH_GRID_POINTS = 241
SEARCH_SPAN_DECADES = 6.0
SEARCH_REL_RESOLUTION = 1e-3


def _bisect_boundary(snr_fn, passing: float, failing: float, target: float) -> float:
    """Shrink (failing, passing) until the endpoints differ by
    SEARCH_REL_RESOLUTION; return the best passing point.  Works for both
    orientations of the interval."""
    while abs(passing - failing) > SEARCH_REL_RESOLUTION * max(abs(passing), abs(failing)):
        mid = np.sqrt(passing * failing)  # geometric midpoint of a log interval
        if snr_fn(mid) >= target:
            passing = mid
        else:
            failing = mid
    return passing


def dynamic_range_empirical(
    spec: QuantizerSpec,
    x: np.ndarray,
    target_snr: float,
    snr_fn=None,
    anchor: float | None = None,
) -> DynamicRangeResult:
    """Certified-by-sampling scaling interval for an arbitrary SNR curve.

    Walks a log-spaced grid of ``SEARCH_GRID_POINTS`` scalings beta over
    [10^-span, 10^span] * anchor (span = ``SEARCH_SPAN_DECADES``) outward from
    the anchor, keeping the contiguous run where ``snr_fn(beta) >=
    target_snr``, then refines both edges by bisection to the relative
    resolution ``SEARCH_REL_RESOLUTION``.  The SNR curve need not be monotone
    in beta, so the interval is certified only at the tested points.

    ``snr_fn`` defaults to the quantizer's own SQNR.  ``anchor`` defaults to
    the full-range scaling G / max|x|; a recovery-based curve should anchor at
    the full range of whatever is quantized (e.g. G / max|y| for quantized
    measurements).  The anchor must achieve the target.
    """
    v = np.asarray(x, dtype=float)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        raise ValueError("x must be nonzero")
    if snr_fn is None:
        snr_fn = lambda beta: sqnr(spec, beta * v)  # noqa: E731
    if anchor is None:
        anchor = spec.saturation / peak
    if snr_fn(anchor) < target_snr:
        raise ValueError("target SNR unachievable at the full-range anchor scaling")
    exps = np.linspace(-SEARCH_SPAN_DECADES, SEARCH_SPAN_DECADES, SEARCH_GRID_POINTS)
    grid = anchor * 10.0**exps
    anchor_idx = int(np.argmin(np.abs(exps)))

    lo_idx = anchor_idx
    while lo_idx > 0 and snr_fn(grid[lo_idx - 1]) >= target_snr:
        lo_idx -= 1
    beta_min = grid[lo_idx]
    if lo_idx > 0:
        beta_min = _bisect_boundary(snr_fn, grid[lo_idx], grid[lo_idx - 1], target_snr)

    hi_idx = anchor_idx
    while hi_idx < grid.size - 1 and snr_fn(grid[hi_idx + 1]) >= target_snr:
        hi_idx += 1
    beta_max = grid[hi_idx]
    if hi_idx < grid.size - 1:
        beta_max = _bisect_boundary(snr_fn, grid[hi_idx], grid[hi_idx + 1], target_snr)

    dr = (beta_max / beta_min) ** 2
    return DynamicRangeResult(
        beta_min=float(beta_min),
        beta_max=float(beta_max),
        dr_linear=float(dr),
        dr_db=float(10.0 * np.log10(dr)),
    )
