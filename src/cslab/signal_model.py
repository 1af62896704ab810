"""Sparse-spectrum signal model.

A signal is described by a coefficient vector ``alpha`` of length B in a real
orthonormal trigonometric basis (DC bin, interleaved cosine/sine pairs, and a
Nyquist bin when B is even).  Synthesis maps coefficients to B Nyquist-rate
samples over a one second window; the basis is orthonormal, so coefficient and
sample Euclidean norms agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseSpectrum",
    "bin_frequency",
    "basis_column",
    "synthesize_vector",
    "analyze_vector",
    "generate_bandlimited",
    "par",
    "add_signal_noise",
    "signal_noise_var_for_isnr",
]


@dataclass
class SparseSpectrum:
    """A W-sparse coefficient vector in the real trigonometric basis.

    Attributes
    ----------
    ambient_dim : int
        Number of basis bins B (also the number of Nyquist-rate samples).
    support : np.ndarray
        Sorted indices of the nonzero bins.
    coeffs : np.ndarray
        Length-B coefficient vector; zero off the support.
    """

    ambient_dim: int
    support: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=int)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be >= 1")
        if self.coeffs.shape != (self.ambient_dim,):
            raise ValueError("coeffs must have length ambient_dim")
        if self.support.size:
            if self.support.min() < 0 or self.support.max() >= self.ambient_dim:
                raise ValueError("support indices must lie in [0, ambient_dim)")
            if np.unique(self.support).size != self.support.size:
                raise ValueError("support indices must be distinct")
        self.support = np.sort(self.support)
        off = np.ones(self.ambient_dim, dtype=bool)
        off[self.support] = False
        if np.any(self.coeffs[off] != 0.0):
            raise ValueError("coeffs must be zero off the support")

    @property
    def sparsity(self) -> int:
        return int(self.support.size)


def bin_frequency(k: int, ambient_dim: int) -> tuple[int, str]:
    """Map a basis bin index to its (frequency, kind) pair.

    Kind is one of ``"dc"``, ``"cos"``, ``"sin"``, ``"nyquist"``.
    """
    B = ambient_dim
    if not 0 <= k < B:
        raise ValueError("bin index out of range")
    if k == 0:
        return 0, "dc"
    if B % 2 == 0 and k == B - 1:
        return B // 2, "nyquist"
    f = (k + 1) // 2
    return f, ("cos" if k % 2 == 1 else "sin")


def basis_column(ambient_dim: int, k: int) -> np.ndarray:
    """Return basis vector psi_k sampled at t_j = j/B, j = 0..B-1."""
    B = ambient_dim
    f, kind = bin_frequency(k, B)
    j = np.arange(B)
    if kind == "dc":
        return np.full(B, 1.0 / np.sqrt(B))
    if kind == "nyquist":
        return np.where(j % 2 == 0, 1.0, -1.0) / np.sqrt(B)
    phase = 2.0 * np.pi * f * j / B
    if kind == "cos":
        return np.sqrt(2.0 / B) * np.cos(phase)
    return np.sqrt(2.0 / B) * np.sin(phase)


def synthesize_vector(coeffs: np.ndarray) -> np.ndarray:
    """Synthesize samples x from a dense coefficient vector via the real FFT.

    The basis is orthonormal, so ``norm(x) == norm(coeffs)`` up to roundoff.
    """
    alpha = np.asarray(coeffs, dtype=float)
    B = alpha.shape[0]
    spec = np.zeros(B // 2 + 1, dtype=complex)
    spec[0] = np.sqrt(B) * alpha[0]
    if B % 2 == 0:
        spec[-1] = np.sqrt(B) * alpha[-1]
        f_hi = B // 2  # exclusive
    else:
        f_hi = (B + 1) // 2
    f = np.arange(1, f_hi)
    spec[f] = np.sqrt(B / 2.0) * (alpha[2 * f - 1] - 1j * alpha[2 * f])
    return np.fft.irfft(spec, n=B)


def analyze_vector(samples: np.ndarray) -> np.ndarray:
    """Inverse of ``synthesize_vector``: project samples onto the basis."""
    x = np.asarray(samples, dtype=float)
    B = x.shape[0]
    spec = np.fft.rfft(x)
    alpha = np.zeros(B)
    alpha[0] = spec[0].real / np.sqrt(B)
    if B % 2 == 0:
        alpha[-1] = spec[B // 2].real / np.sqrt(B)
        f_hi = B // 2
    else:
        f_hi = (B + 1) // 2
    f = np.arange(1, f_hi)
    alpha[2 * f - 1] = np.sqrt(2.0 / B) * spec[f].real
    alpha[2 * f] = -np.sqrt(2.0 / B) * spec[f].imag
    return alpha


def generate_bandlimited(
    ambient_dim: int,
    band_width: int,
    center_bin="random",
    rng_seed=0,
) -> SparseSpectrum:
    """Generate a band-limited surrogate signal.

    The support is a contiguous run of ``band_width`` bins whose nonzero
    coefficients are drawn i.i.d. standard normal.

    Parameters
    ----------
    ambient_dim : int
        Number of basis bins B.
    band_width : int
        Number of occupied bins W (W <= B).
    center_bin : int or "random"
        Lowest bin of the band, i.e. the band occupies
        ``[center_bin, center_bin + band_width)``.  ``"random"`` draws the
        placement uniformly over the admissible range ``0..B-W``.
    rng_seed
        Seed (or Generator / SeedSequence) controlling both the placement
        and the coefficients; identical seeds give identical spectra.
    """
    B, W = int(ambient_dim), int(band_width)
    if W < 1:
        raise ValueError("band_width must be >= 1")
    if W > B:
        raise ValueError("band_width cannot exceed ambient_dim")
    rng = np.random.default_rng(rng_seed)
    if isinstance(center_bin, str):
        if center_bin != "random":
            raise ValueError("center_bin must be an index or 'random'")
        start = int(rng.integers(0, B - W + 1))
    else:
        start = int(center_bin)
        if start < 0 or start + W > B:
            raise ValueError("band does not fit in [0, ambient_dim)")
    support = np.arange(start, start + W)
    coeffs = np.zeros(B)
    coeffs[support] = rng.standard_normal(W)
    return SparseSpectrum(ambient_dim=B, support=support, coeffs=coeffs)


def par(x: np.ndarray) -> float:
    """Peak-to-average ratio gamma(x) = max|x_i| / (norm(x)/sqrt(B)).

    Always in [1, sqrt(B)] for nonzero x; raises ValueError on the zero
    vector.
    """
    v = np.asarray(x, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("PAR is undefined for the zero vector")
    return float(np.max(np.abs(v)) / (norm / np.sqrt(v.size)))


def add_signal_noise(spectrum: SparseSpectrum, signal_noise_var: float, rng_seed=0) -> np.ndarray:
    """Return ``coeffs + n`` with n i.i.d. zero-mean Gaussian on all B bins."""
    if signal_noise_var < 0:
        raise ValueError("signal_noise_var must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    noise = np.sqrt(signal_noise_var) * rng.standard_normal(spectrum.ambient_dim)
    return spectrum.coeffs + noise


def signal_noise_var_for_isnr(spectrum: SparseSpectrum, isnr_target_db: float) -> float:
    """Noise variance that hits a target in-band SNR.

    Inverts ISNR = norm(alpha)^2 / (W * var): the expected in-band noise
    energy of white noise over a W-bin support is W * var.
    """
    W = spectrum.sparsity
    if W == 0:
        raise ValueError("spectrum has empty support")
    energy = float(np.dot(spectrum.coeffs, spectrum.coeffs))
    return energy / (W * 10.0 ** (isnr_target_db / 10.0))
