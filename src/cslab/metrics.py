"""Signal-to-noise ratio definitions used throughout the lab.

All ratios are single-realization power ratios; Monte Carlo campaigns take
expectations by averaging over trials (ratio of averaged energies where the
quantity being estimated has an expectation in the denominator).
"""

from __future__ import annotations

import numpy as np

from .signal_model import SparseSpectrum

__all__ = ["to_db", "from_db", "isnr", "msnr", "rsnr"]


def to_db(ratio: float) -> float:
    """Power ratio to dB."""
    return 10.0 * np.log10(ratio)


def from_db(db: float) -> float:
    """dB to power ratio."""
    return 10.0 ** (db / 10.0)


def _power_ratio(signal_energy: float, error_energy: float) -> float:
    if signal_energy == 0.0:
        raise ValueError("SNR is undefined for a zero signal")
    if error_energy == 0.0:
        return float("inf")
    return signal_energy / error_energy


def isnr(spectrum: SparseSpectrum, noisy_coeffs: np.ndarray) -> float:
    """In-band input SNR: signal energy over realized noise energy on the support."""
    noisy = np.asarray(noisy_coeffs, dtype=float)
    alpha = spectrum.coeffs
    in_band = (noisy - alpha)[spectrum.support]
    return _power_ratio(float(alpha @ alpha), float(in_band @ in_band))


def msnr(clean: np.ndarray, y: np.ndarray) -> float:
    """Measurement SNR: ||R alpha||^2 over the realized measurement perturbation,
    given the noiseless measurements ``clean`` = R alpha."""
    clean = np.asarray(clean, dtype=float)
    err = np.asarray(y, dtype=float) - clean
    return _power_ratio(float(clean @ clean), float(err @ err))


def rsnr(alpha: np.ndarray, alpha_hat: np.ndarray) -> float:
    """Recovered SNR: ||alpha||^2 / ||alpha_hat - alpha||^2."""
    alpha = np.asarray(alpha, dtype=float)
    err = np.asarray(alpha_hat, dtype=float) - alpha
    return _power_ratio(float(alpha @ alpha), float(err @ err))
