"""Recovery of sparse coefficient vectors from measurements.

Three estimators:

* ``oracle_recover``: least squares restricted to a known support.
* ``cosamp``: greedy support identification with least-squares refit.
* ``bandpass_baseline``: uniform decimation of the Nyquist-rate samples with
  fold-bin readout; a benchmark that preserves coefficient values but, unlike
  the randomized ensembles, cannot tolerate aliases landing on one another.

The least-squares steps of the first two solve normal equations from
``MeasurementEnsemble.gram`` (closed form for ``subsampled_dct``) and
(R^T y)[L] through one ``inv`` of the Gram with a Frobenius condition bound;
a block that solve refuses goes straight to LAPACK gelsd on the extracted
columns, the only fallback and the only judge of rank.  No block is
factorized twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# basis_column is unused here but stays importable: the benchmark's tracer
# patches recovery.basis_column as well as signal_model.basis_column
from .signal_model import analyze_vector, basis_column, bin_frequency  # noqa: F401

__all__ = ["RecoveryOutput", "oracle_recover", "cosamp", "bandpass_baseline"]


@dataclass
class RecoveryOutput:
    """Estimated coefficients plus bookkeeping from the recovery run."""

    coeffs_hat: np.ndarray
    support_hat: np.ndarray
    iterations: int = 0
    converged: bool = True


# the Gram solve loses about log10(cond(G)) of the 16 digits; once the
# Frobenius bound on cond(G) reaches this value the SVD-based solver takes over
GRAM_COND_LIMIT = 1e8

# CoSaMP halting rule, see ``cosamp``
COSAMP_MAX_ITER = 50
COSAMP_TOL = 1e-6


def _normal_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve the normal equations G x = rhs through one inverse of G.

    Returns None when the solve cannot be trusted: a singular G, or the
    Frobenius bound ||G||_F ||G^-1||_F at or above ``GRAM_COND_LIMIT``.  For a
    k x k G that bound lies between cond_2(G) and k cond_2(G), so every block
    with cond_2(G) >= ``GRAM_COND_LIMIT`` is refused; NaN and inf fail the
    comparison and are refused too.
    """
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return None
    if not np.vdot(gram, gram) * np.vdot(inverse, inverse) < GRAM_COND_LIMIT ** 2:
        return None
    return inverse @ rhs


def _lstsq_on_support(columns: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full-rank least squares by LAPACK gelsd; raises LinAlgError on a
    rank-deficient block.

    The fallback for blocks whose Gram ``_normal_solve`` refused; gelsd alone
    decides whether the block is rank-deficient.
    """
    sol, _, rank, _ = np.linalg.lstsq(columns, y, rcond=None)
    if rank < columns.shape[1]:
        raise np.linalg.LinAlgError("rank-deficient submatrix")
    return sol


def oracle_recover(ensemble, y: np.ndarray, support,
                   rty: np.ndarray | None = None) -> RecoveryOutput:
    """Least squares on the given support; zero elsewhere.

    Solves the normal equations from ``ensemble.gram(support)`` and
    ``(R.T @ y)[support]``; a block that solve cannot trust goes to gelsd on
    the extracted columns, which raises on a rank-deficient column submatrix
    (the support is then not identifiable from these measurements).  ``rty``
    is R.T @ y when the caller has it already.

    ``y`` is one measurement vector (length M) or a block of n of them
    (M x n, one per column), all on this support; a block is solved with one
    Gram, one inverse and one product, or one gelsd call, and ``coeffs_hat``
    is then B x n.  ``rty`` of a block needs an ensemble whose
    ``apply_transpose`` takes blocks (the dense families) or the caller's own.
    """
    support = np.sort(np.asarray(support, dtype=int))
    y = np.asarray(y, dtype=float)
    if support.size > ensemble.rows:
        raise ValueError("support larger than the number of measurements")
    if rty is None:
        rty = ensemble.apply_transpose(y)
    sol = _normal_solve(ensemble.gram(support), rty[support])
    if sol is None:
        sol = _lstsq_on_support(ensemble.columns(support), y)
    coeffs = np.zeros((ensemble.cols,) + y.shape[1:])
    coeffs[support] = sol
    return RecoveryOutput(coeffs_hat=coeffs, support_hat=support)


def cosamp(ensemble, y: np.ndarray, sparsity: int,
           rty: np.ndarray | None = None) -> RecoveryOutput:
    """Greedy W-sparse recovery.

    Each iteration: correlate the residual against the columns, merge the 2W
    strongest indices with the current support, least-squares on the merged
    candidate set, prune to the W largest entries, refit on the pruned support
    and recompute the residual.  Halts when the residual norm changes by less
    than ``COSAMP_TOL * ||y||`` between iterations or after
    ``COSAMP_MAX_ITER`` iterations;
    an iteration that would increase the residual is rejected (the previous
    state is kept), so the residual norm never increases from one accepted
    iteration to the next.  A failed least-squares solve ends the run as
    non-converged rather than raising.

    Both least-squares steps solve normal equations built from
    ``ensemble.gram`` and R^T y, which is the first proxy (the residual starts
    at y); the refit Gram is a slice of the candidate Gram.  The residual is
    y - R x, with R x from ``ensemble.apply``.  Columns are extracted only
    for gelsd, when the normal solve refuses a Gram, as it does every Gram of
    more candidates than rows (rank at most M): the minimum-norm solution for
    the candidate set, and ``_lstsq_on_support`` for the refit, whose rank
    check ends the run.
    ``rty`` is R^T y when the caller has it already.
    """
    W = int(sparsity)
    if W < 1:
        raise ValueError("sparsity must be >= 1")
    y = np.asarray(y, dtype=float)
    B = ensemble.cols
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        return RecoveryOutput(
            coeffs_hat=np.zeros(B),
            support_hat=np.array([], dtype=int),
            iterations=1,
            converged=True,
        )

    support = np.array([], dtype=int)
    coeffs = np.zeros(B)
    residual = y
    if rty is None:
        rty = ensemble.apply_transpose(y)  # R^T y, also the first proxy
    res_norm = y_norm
    converged = False
    it = 0
    n_strong = min(2 * W, B)
    while it < COSAMP_MAX_ITER:
        it += 1
        proxy = rty if it == 1 else ensemble.apply_transpose(residual)
        strongest = np.argpartition(np.abs(proxy), -n_strong)[-n_strong:]
        candidates = np.union1d(strongest, support)
        try:
            cand_gram = ensemble.gram(candidates)
            cand_sol = _normal_solve(cand_gram, rty[candidates])
            if cand_sol is None:  # singular (wide included) or ill-conditioned
                cand_sol = np.linalg.lstsq(ensemble.columns(candidates), y, rcond=None)[0]
            # candidates are sorted, so sorted positions give a sorted support
            keep = np.sort(np.argsort(np.abs(cand_sol))[-W:])
            new_support = candidates[keep]
            new_sol = _normal_solve(cand_gram[np.ix_(keep, keep)], rty[new_support])
            if new_sol is None:
                new_sol = _lstsq_on_support(ensemble.columns(new_support), y)
        except np.linalg.LinAlgError:
            break
        new_coeffs = np.zeros(B)
        new_coeffs[new_support] = new_sol
        new_residual = y - ensemble.apply(new_coeffs)
        new_norm = float(np.linalg.norm(new_residual))
        if new_norm > res_norm:
            # reject the step; a sub-tolerance oscillation still counts as settled
            converged = new_norm - res_norm < COSAMP_TOL * y_norm
            break
        support, coeffs = new_support, new_coeffs
        improvement = res_norm - new_norm
        residual, res_norm = new_residual, new_norm
        if improvement < COSAMP_TOL * y_norm:
            converged = True
            break

    return RecoveryOutput(
        coeffs_hat=coeffs,
        support_hat=support,
        iterations=it,
        converged=converged,
    )


def _fold(k: int, ambient_dim: int, n_kept: int, rho: int) -> tuple[int, float] | None:
    """Fold of basis vector k under decimation by rho: the size-M bin q it
    lands on and the aliasing gain <psi_k[::rho], phi_q>, or None when the
    decimated basis vector vanishes identically.

    The gain is c * s / sqrt(rho): c = sqrt(2) when a cosine lands on the DC
    or Nyquist bin, s = -1 when a sine folds from the upper half of the
    size-M band, and 1 otherwise.
    """
    M = n_kept
    unit = 1.0 / math.sqrt(rho)
    f, kind = bin_frequency(k, ambient_dim)
    if kind == "dc":
        return 0, unit
    if kind == "nyquist":
        # (-1)^(m*rho): constant when rho is even, alternating otherwise
        return (0 if rho % 2 == 0 else M - 1), unit
    g = f % M
    if kind == "cos":
        if g == 0:
            return 0, math.sqrt(2.0) * unit
        if 2 * g == M:
            return M - 1, math.sqrt(2.0) * unit
        return (2 * g - 1 if 2 * g < M else 2 * (M - g) - 1), unit
    # sine: vanishes when it folds onto a purely even bin
    if g == 0 or 2 * g == M:
        return None
    return (2 * g, unit) if 2 * g < M else (2 * (M - g), -unit)


def bandpass_baseline(x: np.ndarray, rho: int, true_support) -> RecoveryOutput:
    """Decimate the Nyquist-rate samples x by rho and read folded bins for a known support.

    Each support bin k of the full-size basis aliases onto a single bin of the
    size-M basis (M = B/rho); the readout divides by the aliasing gain, which
    is c * s / sqrt(rho) in closed form (see ``_fold``), so a noise-free
    single tone is recovered exactly.  Raises when two support bins fold onto
    the same bin or a bin's decimated basis vector vanishes: the components
    overlap irreversibly and cannot be separated.
    """
    rho = int(rho)
    samples = np.asarray(x, dtype=float)
    B = samples.size
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if B % rho != 0:
        raise ValueError("rho must divide the number of samples")
    M = B // rho
    support = np.sort(np.asarray(true_support, dtype=int))

    fold = {}
    for k in support:
        folded = _fold(int(k), B, M, rho)
        if folded is None:
            raise ValueError(f"support bin {k} aliases to zero under decimation by {rho}")
        q, gain = folded
        if q in fold:
            raise ValueError(
                f"support bins {fold[q][0]} and {k} alias onto the same bin; decimation is irreversible"
            )
        fold[q] = int(k), gain

    decimated = samples[::rho]
    folded_coeffs = analyze_vector(decimated)
    coeffs = np.zeros(B)
    for q, (k, gain) in fold.items():
        coeffs[k] = folded_coeffs[q] / gain
    return RecoveryOutput(coeffs_hat=coeffs, support_hat=support)
