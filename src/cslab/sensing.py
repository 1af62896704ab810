"""Randomized measurement ensembles and empirical isometry diagnostics.

Three families are provided:

* ``gaussian`` / ``rademacher``: dense M x B matrices with i.i.d. entries of
  variance 1/M (unit-norm columns in expectation).
* ``subsampled_dct``: a random row subset of an orthonormal DCT applied after
  a random sign flip, scaled so rows have norm sqrt(rho).  Rows are exactly
  orthogonal by construction and the operator applies in O(B log B), which is
  what makes desk-scale Monte Carlo sweeps affordable: ``apply`` and
  ``apply_transpose`` each run one length-B numpy real FFT (Makhoul's
  even/odd reorder plus a twiddle, see ``_dct_tables``) and touch only the
  kept rows' bins.

A ``MeasurementEnsemble`` holds either the dense matrix or the (signs,
selected rows) pair, never both, and takes its shape from those arrays.
``gram(L)`` returns the k x k block ``R[:, L].T @ R[:, L]`` that the
least-squares solvers need; for ``subsampled_dct`` it is read in closed form
off one cosine-sum kernel per ensemble (2B floats), without extracting the
M x k columns (``columns(L)``, one ``cos`` per entry with nothing tabulated,
which recovery needs only for gelsd).  The dense families' ``apply`` and
``apply_transpose`` also take a block of columns; ``subsampled_dct`` takes
one vector and raises ``ValueError`` on a block.

``generate_ensemble`` draws any of ``DISTRIBUTIONS``.  ``orthogonalize_rows``
turns any full-row-rank dense ensemble into one with ``R @ R.T == rho * I`` on
the same row space (reduced SVD, keep the right factor, rescale rows to norm
sqrt(rho)) and returns a ``subsampled_dct`` one as it is.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "DISTRIBUTIONS",
    "MeasurementEnsemble",
    "generate_ensemble",
    "generate_subsampled_dct_ensemble",
    "orthogonalize_rows",
    "estimate_rip_constant",
]

# singular values below RANK_TOL * s_max are treated as zero for rank decisions
RANK_TOL = 1e-10

EXHAUSTIVE_SUPPORT_LIMIT = 10**6

DISTRIBUTIONS = ("subsampled_dct", "gaussian", "rademacher")


@lru_cache(maxsize=8)
def _dct_tables(B: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-length tables of the orthonormal DCT-II through one real FFT.

    Makhoul, "A fast cosine transform in one and two dimensions" (IEEE TASSP,
    1980): with v the even samples of x followed by its odd samples reversed
    and V = FFT(v), row q of the DCT-II is X_q = s_q Re(w_q V_q), where
    w_q = exp(-i pi q / 2B), s_0 = sqrt(1/B) and s_q = sqrt(2/B) otherwise.
    V_{B-k} = conj(V_k) turns a row q > B/2 into X_q = s_q Re(i w_k V_k) at
    bin k = B - q, so every row reads one bin of ``rfft(v)`` through one
    complex coefficient c_q.  The adjoint puts conj(c_q) r_q on that bin and
    inverts with ``irfft``, which weighs bin k of Re(sum_k W_k exp(2 pi i k n/B))
    by 2/B, and DC and the even-B Nyquist bin (of which it reads only the real
    part) by 1/B; the adjoint coefficients carry B/2 or B to undo that.

    Returns (bin, forward coefficient, adjoint coefficient) per DCT row,
    read-only.
    """
    q = np.arange(B)
    low = q <= B // 2
    bins = np.where(low, q, B - q)
    twiddle = np.exp(-1j * np.pi * bins / (2.0 * B))
    norm = np.full(B, math.sqrt(2.0 / B))
    norm[0] = math.sqrt(1.0 / B)
    forward = np.where(low, twiddle, 1j * twiddle) * norm
    weight = np.where((bins == 0) | (2 * bins == B), float(B), B / 2.0)
    adjoint = np.conj(forward) * weight
    for table in (bins, forward, adjoint):
        table.flags.writeable = False
    return bins, forward, adjoint


class MeasurementEnsemble:
    """An M x B measurement operator held in exactly one representation.

    The dense families hold ``matrix``.  ``subsampled_dct`` holds ``signs``
    (length B) and ``selected_rows`` (the M kept DCT rows, strictly
    increasing) and applies in O(B log B).  ``rows`` and ``cols`` are read off
    those arrays.  For an implicit ensemble ``.matrix`` is built fresh on every
    read and never stored; the operator's plan and the read-only kernel behind
    ``gram`` are built with the ensemble.
    """

    def __init__(
        self,
        matrix: np.ndarray | None = None,
        signs: np.ndarray | None = None,
        selected_rows: np.ndarray | None = None,
    ):
        if matrix is not None and signs is None and selected_rows is None:
            rows, cols = np.shape(matrix)
        elif matrix is None and signs is not None and selected_rows is not None:
            rows, cols = len(selected_rows), len(signs)
            if np.any(np.diff(selected_rows) <= 0):
                raise ValueError("selected_rows must be strictly increasing")
        else:
            raise ValueError("pass either matrix, or signs and selected_rows")
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        if rows > cols:
            raise ValueError("rows cannot exceed cols (need rho = B/M >= 1)")
        self.rows, self.cols = rows, cols
        self._matrix = matrix
        self._signs = signs
        self._selected = selected_rows
        if matrix is None:
            # the FFT plan: the kept rows' ``_dct_tables`` entries scaled by sqrt(rho),
            # the count of rows q <= B/2 (a prefix of sorted rows), the reordered signs
            bins, forward, adjoint = _dct_tables(cols)
            scale = math.sqrt(self.subsampling)
            self._plan = (bins[selected_rows], scale * forward[selected_rows],
                          scale * adjoint[selected_rows],
                          int(np.searchsorted(selected_rows, cols // 2, side="right")),
                          signs[::2].copy(), signs[1::2][::-1].copy())
            # gram's kernel K(m), m = 0..2B-1: the real part of the length-2B DFT of
            # the kept-row indicator; rfft gives m = 0..B and K(m) = K(2B - m) the rest
            indicator = np.zeros(2 * cols)
            indicator[selected_rows] = 1.0
            half = np.fft.rfft(indicator).real
            self._kernel = np.concatenate([half, half[-2:0:-1]])
            self._kernel.flags.writeable = False

    @property
    def subsampling(self) -> float:
        """rho = B / M."""
        return self.cols / self.rows

    @property
    def matrix(self) -> np.ndarray:
        """The dense M x B matrix; built anew on each read for ``subsampled_dct``."""
        if self._matrix is not None:
            return self._matrix
        return self.columns(np.arange(self.cols))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """R @ v: v is a length-B vector, or for the dense families also a
        B x n block of columns."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.cols:
            raise ValueError("dimension mismatch")
        if self._matrix is not None:
            return self._matrix @ v
        if v.ndim != 1:
            raise ValueError("the subsampled-DCT operator applies to one vector at a time; "
                             f"got shape {v.shape}")
        bins, forward, _, _, even_signs, odd_signs = self._plan
        n_even = even_signs.size
        reordered = np.empty(self.cols)
        np.multiply(v[::2], even_signs, out=reordered[:n_even])
        np.multiply(v[1::2][::-1], odd_signs, out=reordered[n_even:])
        return (forward * np.fft.rfft(reordered)[bins]).real.copy()

    def apply_transpose(self, r: np.ndarray) -> np.ndarray:
        """R.T @ r: r is a length-M vector, or for the dense families also an
        M x n block of columns."""
        r = np.asarray(r, dtype=float)
        if r.shape[0] != self.rows:
            raise ValueError("dimension mismatch")
        if self._matrix is not None:
            return self._matrix.T @ r
        if r.ndim != 1:
            raise ValueError("the subsampled-DCT operator applies to one vector at a time; "
                             f"got shape {r.shape}")
        bins, _, adjoint, n_low, even_signs, odd_signs = self._plan
        B, n_even = self.cols, even_signs.size
        spectrum = np.zeros(B // 2 + 1, dtype=complex)
        spectrum[bins[:n_low]] = adjoint[:n_low] * r[:n_low]
        # a row q > B/2 shares bin B - q with row B - q when both are kept
        spectrum[bins[n_low:]] += adjoint[n_low:] * r[n_low:]
        reordered = np.fft.irfft(spectrum, n=B)
        out = np.empty(B)
        np.multiply(reordered[:n_even], even_signs, out=out[::2])
        np.multiply(reordered[n_even:], odd_signs, out=out[1::2][::-1])
        return out

    def columns(self, indices) -> np.ndarray:
        """Extract R[:, indices] as a dense M x len(indices) block; one ``cos``
        per entry for ``subsampled_dct`` (recovery needs it only for gelsd)."""
        idx = np.atleast_1d(np.asarray(indices, dtype=int))
        if self._matrix is not None:
            return self._matrix[:, idx]
        # orthonormal DCT-II: T[0, j] = 1/sqrt(B), T[q >= 1, j] = sqrt(2/B) *
        # cos(pi * n / (2B)), phase n = q * (2j + 1) < 2B^2 (int64) mod 4B
        B = self.cols
        phase = np.multiply.outer(self._selected.astype(np.int64), 2 * idx.astype(np.int64) + 1)
        phase %= 4 * B
        block = np.sqrt(2.0 / B) * np.cos(np.pi * phase / (2.0 * B))
        if self._selected[0] == 0:  # rows are sorted, so only row 0 can be DCT row 0
            block[0] = 1.0 / np.sqrt(B)
        block *= np.sqrt(self.subsampling) * self._signs[idx]
        return block

    def gram(self, indices) -> np.ndarray:
        """R[:, indices].T @ R[:, indices] as a dense k x k array.

        Dense families form that product from the extracted columns.  For
        ``subsampled_dct`` with kept rows S, cos(a)cos(b) = (cos(a+b) +
        cos(a-b))/2 turns the entry of columns i and j into two reads of the
        kernel K(m) = sum_{q in S} cos(pi q m / B):

            G[i, j] = s_i s_j (K(i+j+1) + K(|i-j|) - [0 in S]) / M

        (DCT row 0 carries 1/sqrt(B), not sqrt(2/B), hence the correction).
        That costs k^2 gathers in place of an M x k block and its product.
        """
        idx = np.atleast_1d(np.asarray(indices, dtype=int))
        if self._matrix is not None:
            cols = self.columns(idx)
            return cols.T @ cols
        kernel = self._kernel
        gram = kernel[np.add.outer(idx, idx + 1)]
        gram += kernel[np.abs(np.subtract.outer(idx, idx))]
        if self._selected[0] == 0:
            gram -= 1.0
        signs = self._signs[idx]
        gram *= np.multiply.outer(signs, signs / self.rows)
        return gram


def generate_ensemble(
    n_measurements: int,
    ambient_dim: int,
    distribution: str = "gaussian",
    rng_seed=0,
) -> MeasurementEnsemble:
    """Draw an M x B ensemble of one of ``DISTRIBUTIONS``.

    ``"gaussian"`` and ``"rademacher"`` (entries +-1/sqrt(M) equiprobable)
    have i.i.d. entries of variance 1/M; ``"subsampled_dct"`` is
    ``generate_subsampled_dct_ensemble`` with the same seed.  Deterministic
    given the seed.
    """
    if distribution == "subsampled_dct":
        return generate_subsampled_dct_ensemble(n_measurements, ambient_dim, rng_seed)
    M, B = int(n_measurements), int(ambient_dim)
    if M > B:
        raise ValueError("n_measurements cannot exceed ambient_dim")
    rng = np.random.default_rng(rng_seed)
    if distribution == "gaussian":
        mat = rng.standard_normal((M, B)) / np.sqrt(M)
    elif distribution == "rademacher":
        mat = (2.0 * rng.integers(0, 2, size=(M, B)) - 1.0) / np.sqrt(M)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return MeasurementEnsemble(matrix=mat)


def generate_subsampled_dct_ensemble(
    n_measurements: int,
    ambient_dim: int,
    rng_seed=0,
) -> MeasurementEnsemble:
    """Sign-randomized row-subsampled orthonormal DCT, rows of norm sqrt(rho).

    Satisfies ``R @ R.T == rho * I`` exactly (rows of an orthonormal matrix
    stay orthonormal under column sign flips), so the white-noise statistics
    of orthogonalized dense ensembles carry over without an SVD.
    """
    M, B = int(n_measurements), int(ambient_dim)
    if M > B:
        raise ValueError("n_measurements cannot exceed ambient_dim")
    rng = np.random.default_rng(rng_seed)
    signs = 2.0 * rng.integers(0, 2, size=B) - 1.0
    selected = np.sort(rng.choice(B, size=M, replace=False))
    return MeasurementEnsemble(signs=signs, selected_rows=selected)


def orthogonalize_rows(ensemble: MeasurementEnsemble) -> MeasurementEnsemble:
    """Replace an ensemble by one with orthogonal rows of norm sqrt(rho).

    Computes the reduced SVD R = U S V^T and returns sqrt(rho) * V^T, which
    has the same row space as R.  Raises on rank-deficient input.  A
    ``subsampled_dct`` ensemble already has such rows and is returned as it is.
    """
    if ensemble._matrix is None:
        return ensemble
    R = ensemble.matrix
    _, s, vt = np.linalg.svd(R, full_matrices=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise ValueError("ensemble is rank deficient; cannot orthogonalize rows")
    return MeasurementEnsemble(matrix=np.sqrt(ensemble.subsampling) * vt)


def _support_deviation(ensemble: MeasurementEnsemble, support) -> float:
    s = np.linalg.svd(ensemble.columns(support), compute_uv=False)
    return max(s[0] ** 2 - 1.0, 1.0 - s[-1] ** 2)


def estimate_rip_constant(
    ensemble: MeasurementEnsemble,
    sparsity: int,
    mode: str = "sampled",
    n_supports: int = 200,
    rng_seed=0,
) -> float:
    """Empirical restricted-isometry constant of order ``sparsity``.

    For each visited support L the deviation is
    ``max(s_max(R_L)^2 - 1, 1 - s_min(R_L)^2)``; the estimate is the max over
    visited supports.  ``mode="exhaustive"`` visits every support (exact
    constant, allowed only while C(B, W) <= 10^6); ``mode="sampled"`` visits
    ``n_supports`` uniform random supports and therefore yields a lower bound.
    """
    W = int(sparsity)
    if W < 1:
        raise ValueError("sparsity must be >= 1")
    if W > ensemble.rows:
        raise ValueError("sparsity cannot exceed the number of measurements")
    B = ensemble.cols
    if mode == "exhaustive":
        if math.comb(B, W) > EXHAUSTIVE_SUPPORT_LIMIT:
            raise ValueError("too many supports for exhaustive enumeration")
        supports = combinations(range(B), W)
    elif mode == "sampled":
        if int(n_supports) < 1:
            raise ValueError("n_supports must be >= 1")
        rng = np.random.default_rng(rng_seed)
        supports = (rng.choice(B, size=W, replace=False) for _ in range(int(n_supports)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return float(max(_support_deviation(ensemble, list(sup)) for sup in supports))
