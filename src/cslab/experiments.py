"""Monte Carlo harness: one sweep over the acquisition chain plus the
closed-form bracket containment campaign.

A sweep's points are rho x ISNR target, or rho alone when the config has no
targets.  Signal noise (an ISNR target), measurement noise
(``measurement_noise_var``) and quantization (``quantizer``) each apply
independently when set, so the noise-folding study, the quantization study
and their combination are configs of the same sweep.

Determinism contract: given an identical config (including master_seed) the
emitted rows are identical bit for bit, regardless of worker count or
scheduling.  Every trial derives its own seed from
(master_seed, point_index, trial_index) through a splitmix64 finalizer, and
the trials' rows come out in trial order, which both the builtin ``map`` and
``Executor.map`` keep, so how the trials are chunked cannot change them.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
import os
import platform
from dataclasses import dataclass, field

import numpy as np

from . import metrics, quantization, recovery, sensing, signal_model, theory

__all__ = [
    "METHODS",
    "ConfigDivisibilityError",
    "QuantizerSweepSpec",
    "SweepConfig",
    "ContainmentConfig",
    "ContainmentReport",
    "TrialRow",
    "PointSummary",
    "ExperimentResult",
    "derive_trial_seed",
    "run_sweep",
    "run_bound_containment",
    "aggregate",
]

METHODS = ("oracle", "cosamp", "bandpass")
ENSEMBLES = ("subsampled_dct", "gaussian", "rademacher")

_TRIAL_BLOCK = 32  # most trials per pool task; rows come out in trial order at any size
_CONTAINMENT_CHUNK = 256  # trials per chunk of the containment campaign; sets its memory

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer (a bijection on 64-bit integers)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    """Collision-free per-trial seed.

    The point and trial indices are packed into disjoint 32-bit lanes and
    xor-folded into a hash of the master seed; because the splitmix64
    finalizer is a bijection, distinct (point, trial) pairs under one master
    seed always map to distinct seeds.  Pure integer arithmetic, so the value
    is identical on every platform.
    """
    if not 0 <= point_index < 2**32:
        raise ValueError("point_index out of range")
    if not 0 <= trial_index < 2**32:
        raise ValueError("trial_index out of range")
    h = _mix64((master_seed ^ 0x9E3779B97F4A7C15) & _MASK64)
    return _mix64(h ^ (point_index << 32) ^ trial_index)


class ConfigDivisibilityError(ValueError):
    """A rho value does not divide the ambient dimension (exit code 4)."""

    exit_code = 4


def _integer(key: str, value) -> int:
    """``value`` as an int; anything else, a bool included, is a TypeError
    that names ``key``."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise TypeError(f"{key} must be an integer; got {value!r}")


def _real(key: str, value) -> float:
    """``value`` as a float when it is a finite Python or numpy real number;
    anything else, a bool or a string included, is a TypeError that names
    ``key``, and NaN, an infinity (which JSON configs can spell) or an
    integer beyond the float range is a ValueError that names it."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            real = math.inf
        if not math.isfinite(real):
            raise ValueError(f"{key} must be finite; got {value!r}")
        return real
    raise TypeError(f"{key} must be a real number; got {value!r}")


@dataclass(frozen=True)
class QuantizerSweepSpec:
    """Quantizer policy of a sweep.

    ``base_bits`` anchors the bit-depth trend at rho = 1 (``bits_at``);
    measurements are scaled to the full quantizer range before quantization.
    """

    base_bits: int
    saturation: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "base_bits", _integer("base_bits", self.base_bits))
        object.__setattr__(self, "saturation", _real("saturation", self.saturation))
        if not 1 <= self.base_bits <= quantization.MAX_BITS:
            raise ValueError(f"base_bits must lie in [1, {quantization.MAX_BITS}]")
        if self.saturation <= 0:
            raise ValueError("saturation must be positive")

    def bits_at(self, rho: int) -> int:
        """Bit depth at subsampling ``rho``: the trend from ``base_bits``, rounded half up."""
        return math.floor(theory.bit_depth_trend(self.base_bits, rho) + 0.5)


@dataclass(frozen=True)
class SweepConfig:
    """Geometry, schedule, and seeding of a Monte Carlo sweep."""

    ambient_dim: int = 8192
    band_width: int = 4
    rho_list: tuple = (2, 4, 8, 16, 32)
    isnr_targets_db: tuple = ()
    trials_per_point: int = 200
    methods: tuple = ("oracle", "cosamp", "bandpass")
    master_seed: int = 0
    ensemble: str = "subsampled_dct"
    measurement_noise_var: float = 0.0
    quantizer: QuantizerSweepSpec | None = None

    def __post_init__(self):
        for key in ("ambient_dim", "band_width", "trials_per_point", "master_seed"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        rho_list = tuple(_integer("every rho_list value", r) for r in self.rho_list)
        object.__setattr__(self, "rho_list", rho_list)
        object.__setattr__(self, "isnr_targets_db", tuple(
            _real("every isnr_targets_db value", v) for v in self.isnr_targets_db))
        object.__setattr__(self, "measurement_noise_var",
                           _real("measurement_noise_var", self.measurement_noise_var))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.ambient_dim < 1 or self.band_width < 1:
            raise ValueError("ambient_dim and band_width must be positive")
        if self.band_width > self.ambient_dim:
            raise ValueError("band_width cannot exceed ambient_dim")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if not self.rho_list:
            raise ValueError("rho_list must be nonempty")
        for name in ("rho_list", "isnr_targets_db"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
        if min(self.rho_list) < 1:
            raise ValueError(f"every rho_list value must be >= 1; got {min(self.rho_list)}")
        for r in self.rho_list:
            if self.ambient_dim % r != 0:
                raise ConfigDivisibilityError(
                    f"every rho_list value must divide ambient_dim {self.ambient_dim}; got {r}")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        n_fewest = self.ambient_dim // max(self.rho_list)
        if "oracle" in self.methods and n_fewest < self.band_width:
            raise ValueError(f"oracle recovery needs M = ambient_dim // rho >= band_width; "
                             f"rho={max(self.rho_list)} gives M={n_fewest} < {self.band_width}")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"ensemble must be one of {ENSEMBLES}")
        if self.measurement_noise_var < 0:
            raise ValueError("measurement_noise_var must be nonnegative")
        if self.quantizer is not None:
            if "bandpass" in self.methods:
                raise ValueError("bandpass reads the unquantized samples; "
                                 "drop it from methods or remove the quantizer")
            bits = self.quantizer.bits_at(max(self.rho_list))
            if bits > quantization.MAX_BITS:
                raise ValueError(f"base_bits={self.quantizer.base_bits} needs {bits} bits at rho="
                                 f"{max(self.rho_list)}; the most is {quantization.MAX_BITS}")


@dataclass
class TrialRow:
    """One (point, method, trial) record of a sweep.

    The field order and declared types are the ``rows.csv`` format:
    ``results_io`` writes one column per field and parses each column by
    its field's type.
    """

    rho: int
    isnr_target_db: float | None
    method: str
    trial: int
    seed: int
    isnr_db: float | None
    msnr_db: float | None
    rsnr_db: float | None
    support_exact: bool
    bits: int | None


@dataclass
class ExperimentResult:
    """All rows of a sweep plus the config that produced them."""

    config: SweepConfig
    rows: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)  # runtime of the sweep; not row data


@dataclass(frozen=True)
class PointSummary:
    """Per-(rho, ISNR, method) aggregate.  SNR means are linear averages
    converted to dB; failed trials (no recovery value) are excluded from the
    means but counted."""

    rho: int
    isnr_target_db: float | None
    method: str
    n_trials: int
    n_failed: int
    mean_isnr_db: float | None
    mean_msnr_db: float | None
    mean_rsnr_db: float | None
    support_exact_rate: float
    bits: int | None


def _fresh_ensemble(cfg: SweepConfig, n_measurements: int, seed) -> sensing.MeasurementEnsemble:
    if cfg.ensemble == "subsampled_dct":
        return sensing.generate_subsampled_dct_ensemble(n_measurements, cfg.ambient_dim, seed)
    raw = sensing.generate_ensemble(n_measurements, cfg.ambient_dim, cfg.ensemble, seed)
    return sensing.orthogonalize_rows(raw)


def _db_or_none(value: float | None) -> float | None:
    return None if value is None else float(metrics.to_db(value))


def _trial(cfg: SweepConfig, point_index: int, rho: int,
           isnr_target: float | None, trial: int) -> list[TrialRow]:
    """One acquisition: signal, signal noise when ``isnr_target`` is set,
    ensemble, measurement (with ``cfg.measurement_noise_var``), quantization
    when ``cfg.quantizer`` is set, then every configured method."""
    seed = derive_trial_seed(cfg.master_seed, point_index, trial)
    c_signal, c_noise, c_ens, c_meas = np.random.SeedSequence(seed).spawn(4)
    B, W = cfg.ambient_dim, cfg.band_width
    bits = quantizer = None
    if cfg.quantizer is not None:
        bits = cfg.quantizer.bits_at(rho)
        quantizer = quantization.QuantizerSpec(bits=bits, saturation=cfg.quantizer.saturation)

    spectrum = signal_model.generate_bandlimited(B, W, "random", c_signal)
    acquired, isnr_db = spectrum.coeffs, None
    if isnr_target is not None:
        noise_var = signal_model.signal_noise_var_for_isnr(spectrum, isnr_target)
        acquired = signal_model.add_signal_noise(spectrum, noise_var, c_noise)
        isnr_db = _db_or_none(metrics.isnr(spectrum, acquired))

    if any(m != "bandpass" for m in cfg.methods):
        ens = _fresh_ensemble(cfg, B // rho, c_ens)
        clean = ens.apply(spectrum.coeffs)  # R alpha; also R acquired without signal noise
        y = clean if acquired is spectrum.coeffs else ens.apply(acquired)
        if cfg.measurement_noise_var > 0:
            noise = np.random.default_rng(c_meas).standard_normal(ens.rows)
            y = y + np.sqrt(cfg.measurement_noise_var) * noise
        if quantizer is not None:
            # scale to the full quantizer range, quantize, undo the scaling
            beta = quantizer.saturation / float(np.max(np.abs(y)))
            y = quantization.quantize(quantizer, beta * y) / beta
        msnr_db = _db_or_none(metrics.msnr(clean, y))
        rty = ens.apply_transpose(y)  # shared by oracle and CoSaMP

    rows = []
    for method in METHODS:
        if method not in cfg.methods:
            continue
        if method == "bandpass":
            x = signal_model.synthesize_vector(acquired)
            try:
                out = recovery.bandpass_baseline(x, rho, spectrum.support)
            except ValueError:  # alias collision: a failed row, not an aborted sweep
                out = None
            hit = out is not None
        elif method == "oracle":
            try:
                out = recovery.oracle_recover(ens, y, spectrum.support, rty)
            except np.linalg.LinAlgError:  # rank-deficient support block: a failed row
                out = None
            hit = out is not None
        else:
            out = recovery.cosamp(ens, y, W, rty)
            hit = bool(np.array_equal(out.support_hat, spectrum.support))
        rsnr_db = None if out is None else _db_or_none(metrics.rsnr(spectrum.coeffs, out.coeffs_hat))
        rows.append(TrialRow(rho, isnr_target, method, trial, seed, isnr_db,
                             None if method == "bandpass" else msnr_db, rsnr_db, hit, bits))
    return rows


def _affinity_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def run_sweep(cfg: SweepConfig, n_workers: int = 1) -> ExperimentResult:
    """Sweep recovery SNR against subsampling.

    The points are rho x ISNR target, or rho alone when there are no targets;
    every trial runs the acquisition chain of ``_trial``, on ``n_workers``
    processes (0: one per CPU this process may run on; never more than there
    are trials; 1: in this process).  A bandpass alias collision or a
    rank-deficient oracle solve marks the trial failed rather than aborting
    the sweep.
    """
    points = [(rho, isnr) for rho in cfg.rho_list for isnr in cfg.isnr_targets_db or (None,)]
    trials = [(cfg, point_index, rho, isnr_target, trial)
              for point_index, (rho, isnr_target) in enumerate(points)
              for trial in range(cfg.trials_per_point)]
    workers = max(1, min(int(n_workers) or _affinity_cpus(), len(trials)))
    if workers == 1:
        trial_rows = map(_trial, *zip(*trials))
    else:
        # imported here, so that only a pooled sweep loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # about four chunks per worker, so that the slow low-rho trials spread over all
        chunk = min(_TRIAL_BLOCK, -(-len(trials) // (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trial_rows = list(pool.map(_trial, *zip(*trials), chunksize=chunk))
    rows = [row for one_trial in trial_rows for row in one_trial]
    environment = {
        "workers": workers,
        # the BLAS sizes its own thread pool; these settings (None when unset) steer it
        "blas_thread_env": {v: os.environ.get(v)
                            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "affinity_cpus": _affinity_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return ExperimentResult(config=cfg, rows=rows, environment=environment)


def aggregate(rows) -> list[PointSummary]:
    """Per-point summaries of sweep rows (linear means converted to dB,
    failures counted)."""
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.rho, row.isnr_target_db, row.method), []).append(row)

    def _mean_db(values):
        vals = [metrics.from_db(v) for v in values if v is not None]
        if not vals:
            return None
        return float(metrics.to_db(float(np.mean(vals))))

    summaries = []
    for key in sorted(groups, key=lambda k: (k[0], -1.0 if k[1] is None else k[1], k[2])):
        group = groups[key]
        rho, isnr_target, method = key
        failed = sum(1 for r in group if r.rsnr_db is None)
        bits_values = {r.bits for r in group}
        summaries.append(PointSummary(
            rho=rho,
            isnr_target_db=isnr_target,
            method=method,
            n_trials=len(group),
            n_failed=failed,
            mean_isnr_db=_mean_db([r.isnr_db for r in group]),
            mean_msnr_db=_mean_db([r.msnr_db for r in group]),
            mean_rsnr_db=_mean_db([r.rsnr_db for r in group]),
            support_exact_rate=float(np.mean([r.support_exact for r in group])),
            bits=bits_values.pop() if len(bits_values) == 1 else None,
        ))
    return summaries


@dataclass(frozen=True)
class ContainmentConfig:
    """Small-instance campaign checking Monte Carlo estimates against the
    closed-form brackets evaluated at the exhaustive isometry constant."""

    ambient_dim: int = 32
    n_measurements: int = 16
    band_width: int = 2
    trials: int = 10_000
    measurement_noise_var: float = 1.0
    signal_noise_var: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        for key in ("ambient_dim", "n_measurements", "band_width", "trials", "master_seed"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        for key in ("measurement_noise_var", "signal_noise_var"):
            # at zero the oracle-error bracket pinches to [0, 0], which roundoff
            # misses, or the in-band noise energy, a denominator, is zero
            value = _real(key, getattr(self, key))
            if value <= 0:
                raise ValueError(f"{key} must be positive; got {value!r}")
            object.__setattr__(self, key, value)
        if not 1 <= self.band_width <= self.n_measurements <= self.ambient_dim:
            raise ValueError("need 1 <= band_width <= n_measurements <= ambient_dim; got "
                             f"{self.band_width}, {self.n_measurements}, {self.ambient_dim}")
        # the exhaustive isometry constant enumerates every band_width-column support
        if math.comb(self.ambient_dim, self.band_width) > sensing.EXHAUSTIVE_SUPPORT_LIMIT:
            raise ValueError(
                f"ambient_dim={self.ambient_dim} and band_width={self.band_width} give "
                f"more than {sensing.EXHAUSTIVE_SUPPORT_LIMIT} supports to enumerate")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class ContainmentReport:
    delta_hat: float
    oracle_error_mean: float
    oracle_error_bounds: tuple
    oracle_error_ok: bool
    msnr_over_isnr: float
    msnr_over_isnr_bounds: tuple
    msnr_over_isnr_ok: bool
    isnr_over_rsnr: float
    isnr_over_rsnr_bounds: tuple
    isnr_over_rsnr_ok: bool
    folded_var_rel_err: float
    folded_offdiag_max_rel: float
    whiteness_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.oracle_error_ok and self.msnr_over_isnr_ok
                and self.isnr_over_rsnr_ok and self.whiteness_ok)


def run_bound_containment(cfg: ContainmentConfig) -> ContainmentReport:
    """Verify the oracle-error, MSNR/ISNR, and ISNR/RSNR brackets plus the
    folded-noise whiteness statistics on a small exhaustive-delta instance.

    The campaign draws one gaussian ensemble, orthogonalizes its rows (that is
    the operator the sweeps use), and evaluates every bracket at the
    orthogonalized ensemble's exhaustive isometry constant; the brackets
    come from ``theory`` before any trial runs, so a constant of 1 or more
    raises ``ValueError`` instead of reporting a vacuous bracket.
    Expectation-bearing quantities are estimated as ratios of trial-averaged
    energies (the closed forms put the expectation on the noise energies).

    Least squares is linear in y, so the oracle solve of each of the
    B - W + 1 bands is one W x M operator: ``oracle_recover`` solves the
    M x M identity block on that band once per campaign, after the brackets.
    The constant is below 1 by then, so every band's columns have full rank.
    Trials run in chunks of ``_CONTAINMENT_CHUNK``.  Each trial still draws
    its band start, amplitudes, measurement noise and signal noise from the
    one trial generator in trial order, so every drawn value is that of a
    trial-by-trial loop; a chunk then takes each operator product as one
    block, applies each trial's band operator to both noise paths in one
    batched product, and adds its energies and its folded-noise products
    z z^T to running sums.  Memory therefore does not grow with
    ``cfg.trials``.
    """
    B, M, W = cfg.ambient_dim, cfg.n_measurements, cfg.band_width
    ss = np.random.SeedSequence(cfg.master_seed)
    c_ens, c_trials = ss.spawn(2)
    rng = np.random.default_rng(c_trials)

    ens = sensing.orthogonalize_rows(sensing.generate_ensemble(M, B, "gaussian", c_ens))
    delta_hat = sensing.estimate_rip_constant(ens, W, mode="exhaustive")
    rho = B / M
    oracle_bounds = theory.expected_oracle_error_bounds(W, cfg.measurement_noise_var, delta_hat)
    msnr_isnr_bounds = theory.msnr_over_isnr_bounds(W, B, delta_hat)
    isnr_rsnr_bounds = theory.noise_folding_bounds(rho, delta_hat)

    T = cfg.trials
    sigma_e = math.sqrt(cfg.measurement_noise_var)
    sigma_n = math.sqrt(cfg.signal_noise_var)
    band = np.arange(W)
    # ops[s] @ y is the oracle solve of y on the band starting at s
    ops = np.stack([recovery.oracle_recover(ens, np.eye(M), band + s).coeffs_hat[band + s]
                    for s in range(B - W + 1)])
    sq_err_sum = folded_err_sum = 0.0
    meas_energy_sum = folded_noise_energy_sum = alpha_energy_sum = inband_noise_sum = 0.0
    folded_gram = np.zeros((M, M))  # sum over trials of z z^T, z the folded signal noise
    for lo in range(0, T, _CONTAINMENT_CHUNK):
        size = min(_CONTAINMENT_CHUNK, T - lo)
        # trial by trial, the draws of a per-trial loop in its order: the band
        # start, then W amplitudes, M measurement-noise and B signal-noise values
        starts = np.empty(size, dtype=int)
        draws = np.empty((size, W + M + B))
        for t in range(size):
            starts[t] = rng.integers(0, B - W + 1)
            rng.standard_normal(out=draws[t])
        trial = np.arange(size)[:, None]
        supports = starts[:, None] + band  # row t: the support of trial t
        amplitudes = draws[:, :W]
        noise = sigma_n * draws[:, W + M:].T  # one trial per column, as all blocks below
        coeffs = np.zeros((B, size))
        coeffs[supports, trial] = amplitudes

        clean = ens.apply(coeffs)
        y = clean + sigma_e * draws[:, W:W + M].T  # white measurement-noise path
        folded = ens.apply(noise)
        y2 = ens.apply(coeffs + noise)  # white signal-noise path
        # row t: trial t's solves on both noise paths, size x W x 2
        sol = ops[starts] @ np.stack([y.T, y2.T], axis=2)
        sq_err_sum += float(np.sum((sol[:, :, 0] - amplitudes) ** 2))
        folded_err_sum += float(np.sum((sol[:, :, 1] - amplitudes) ** 2))
        meas_energy_sum += float(np.sum(clean**2))
        folded_noise_energy_sum += float(np.sum(folded**2))
        alpha_energy_sum += float(np.sum(amplitudes**2))
        inband_noise_sum += float(np.sum(noise[supports, trial] ** 2))
        folded_gram += folded @ folded.T

    oracle_err_mean = sq_err_sum / T
    msnr_isnr = (meas_energy_sum / folded_noise_energy_sum) / (alpha_energy_sum / inband_noise_sum)
    isnr_rsnr = (folded_err_sum / T) / (inband_noise_sum / T)

    target_var = rho * cfg.signal_noise_var
    cov = folded_gram / T
    diag = np.diag(cov)
    var_rel_err = float(np.max(np.abs(diag - target_var)) / target_var)
    off = cov - np.diag(diag)
    offdiag_rel = float(np.max(np.abs(off)) / target_var)

    return ContainmentReport(
        delta_hat=float(delta_hat),
        oracle_error_mean=float(oracle_err_mean),
        oracle_error_bounds=oracle_bounds,
        oracle_error_ok=oracle_bounds[0] <= oracle_err_mean <= oracle_bounds[1],
        msnr_over_isnr=float(msnr_isnr),
        msnr_over_isnr_bounds=msnr_isnr_bounds,
        msnr_over_isnr_ok=msnr_isnr_bounds[0] <= msnr_isnr <= msnr_isnr_bounds[1],
        isnr_over_rsnr=float(isnr_rsnr),
        isnr_over_rsnr_bounds=isnr_rsnr_bounds,
        isnr_over_rsnr_ok=isnr_rsnr_bounds[0] <= isnr_rsnr <= isnr_rsnr_bounds[1],
        folded_var_rel_err=var_rel_err,
        folded_offdiag_max_rel=offdiag_rel,
        whiteness_ok=bool(var_rel_err <= 0.10 and offdiag_rel <= 0.05),
    )
