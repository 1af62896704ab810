import concurrent.futures
import dataclasses
import functools
import multiprocessing

import numpy as np
import numpy.testing as nptest
import pytest

from cslab import experiments, metrics, recovery, sensing, signal_model, theory
from cslab.experiments import (
    METHODS,
    ConfigDivisibilityError,
    ContainmentConfig,
    ContainmentReport,
    QuantizerSweepSpec,
    SweepConfig,
    aggregate,
    derive_trial_seed,
    run_bound_containment,
    run_sweep,
)
from cslab.results_io import rows_to_csv_text


class TestTrialSeeds:
    def test_pinned_vector(self):
        assert derive_trial_seed(0, 0, 0) == 5197578548964807871
        assert derive_trial_seed(0, 0, 1) == 11385487063155714807
        assert derive_trial_seed(1, 2, 3) == 2693695414508406746

    def test_pure_function(self):
        assert derive_trial_seed(9, 5, 7) == derive_trial_seed(9, 5, 7)

    def test_collision_free(self):
        seen = set()
        for point in range(1000):
            for trial in range(1000):
                seen.add(derive_trial_seed(123, point, trial))
        assert len(seen) == 1_000_000

    def test_range_validation(self):
        with pytest.raises(ValueError):
            derive_trial_seed(0, -1, 0)
        with pytest.raises(ValueError):
            derive_trial_seed(0, 0, 2**32)


class _RecordingPool:
    """Stand-in for ``ProcessPoolExecutor`` that notes the worker count it is
    asked for and runs the trials in this process, starting none."""

    asked: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables, chunksize=1):
        assert 1 <= chunksize <= experiments._TRIAL_BLOCK
        return map(fn, *iterables)


@pytest.fixture
def asked_workers(monkeypatch):
    """Worker counts that ``run_sweep`` asks a pool for, in order."""
    monkeypatch.setattr(_RecordingPool, "asked", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool.asked


def _oracle_cfg(points: int, trials_per_point: int) -> SweepConfig:
    return SweepConfig(ambient_dim=512, band_width=2, rho_list=tuple(2**k for k in range(points)),
                       trials_per_point=trials_per_point, methods=("oracle",), master_seed=6)


class TestResolveWorkers:
    def test_zero_counts_cpus_in_affinity_mask(self, monkeypatch, asked_workers):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        cfg = _oracle_cfg(2, 4)
        assert run_sweep(cfg, n_workers=0).environment["workers"] == 3
        assert run_sweep(cfg, n_workers=2).environment["workers"] == 2
        assert asked_workers == [3, 2]

    def test_zero_without_affinity_api_counts_all_cpus(self, monkeypatch, asked_workers):
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 6)
        cfg = _oracle_cfg(2, 4)
        assert run_sweep(cfg, n_workers=0).environment["workers"] == 6
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert run_sweep(cfg, n_workers=0).environment["workers"] == 1
        assert asked_workers == [6]  # one worker runs serially, without a pool

    def test_never_more_workers_than_trials(self, asked_workers):
        cfg = _oracle_cfg(9, 1)
        pooled = run_sweep(cfg, n_workers=64)
        assert asked_workers == [9]
        assert pooled.environment["workers"] == 9
        assert pooled.rows == run_sweep(cfg).rows

    def test_two_workers_share_one_trial_per_point(self, started_workers):
        # the bench's pool check: 9 points at 1 trial each, fewer trials than `_TRIAL_BLOCK`
        cfg = _oracle_cfg(9, 1)
        pooled = run_sweep(cfg, n_workers=2)
        assert pooled.environment["workers"] == 2
        assert len(started_workers()) == 2
        assert pooled.rows == run_sweep(cfg).rows


class TestSweepConfig:
    def test_quantizer_bit_depth_bounded_at_the_largest_rho(self):
        base = dict(ambient_dim=64, band_width=2, methods=("oracle",))
        with pytest.raises(ValueError, match="base_bits must lie in"):
            QuantizerSweepSpec(base_bits=54)
        spec = QuantizerSweepSpec(base_bits=51)
        assert [spec.bits_at(rho) for rho in (1, 2, 4)] == [51, 52, 54]
        assert SweepConfig(rho_list=(1, 2), quantizer=spec, **base).quantizer == spec
        with pytest.raises(ValueError, match="base_bits=51 needs 54 bits at rho=4"):
            SweepConfig(rho_list=(1, 2, 4), quantizer=spec, **base)

    def test_non_divisor_rho_rejected(self):
        with pytest.raises(ConfigDivisibilityError) as info:
            SweepConfig(ambient_dim=8192, rho_list=(3,))
        assert isinstance(info.value, ValueError)

    def test_integer_fields_take_numpy_integers_and_reject_floats(self):
        cfg = SweepConfig(ambient_dim=np.int64(64), band_width=np.int32(2),
                          rho_list=(np.int64(2),), trials_per_point=np.uint8(3))
        assert (cfg.ambient_dim, cfg.band_width, cfg.rho_list) == (64, 2, (2,))
        assert type(cfg.ambient_dim) is int and type(cfg.rho_list[0]) is int
        with pytest.raises(TypeError, match="every rho_list value must be an integer"):
            SweepConfig(ambient_dim=64, band_width=2, rho_list=(2.0,))

    def test_real_fields_take_numpy_reals_and_integers(self):
        cfg = SweepConfig(ambient_dim=64, band_width=2, rho_list=(2,),
                          isnr_targets_db=(np.float32(40.0), 20), measurement_noise_var=np.int64(0),
                          methods=("oracle",),
                          quantizer=QuantizerSweepSpec(base_bits=4, saturation=np.float64(0.5)))
        assert (cfg.isnr_targets_db, cfg.measurement_noise_var) == ((40.0, 20.0), 0.0)
        assert type(cfg.measurement_noise_var) is float and type(cfg.isnr_targets_db[0]) is float
        assert type(cfg.quantizer.saturation) is float

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       np.float32("nan"), 10**400])
    def test_real_fields_reject_non_finite_values(self, value):
        base = dict(ambient_dim=64, band_width=2, rho_list=(2,), methods=("oracle",))
        with pytest.raises(ValueError, match="measurement_noise_var must be finite"):
            SweepConfig(**base, measurement_noise_var=value)
        with pytest.raises(ValueError, match="every isnr_targets_db value must be finite"):
            SweepConfig(**base, isnr_targets_db=(40.0, value))
        with pytest.raises(ValueError, match="saturation must be finite"):
            QuantizerSweepSpec(base_bits=4, saturation=value)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(methods=("oracle", "omp"))

    def test_oracle_with_fewer_measurements_than_band_rejected(self):
        # rho = 32 leaves M = 2 < W = 4, which support-aware least squares cannot solve
        with pytest.raises(ValueError, match="oracle"):
            SweepConfig(ambient_dim=64, band_width=4, rho_list=(2, 32))
        SweepConfig(ambient_dim=64, band_width=4, rho_list=(2, 32), methods=("cosamp",))

    def test_quantizer_guardrails(self):
        # bandpass reads the unquantized samples, so it cannot run with a quantizer
        with pytest.raises(ValueError, match="bandpass"):
            SweepConfig(ambient_dim=64, band_width=2, rho_list=(2,), trials_per_point=1,
                        methods=("oracle", "bandpass"),
                        quantizer=QuantizerSweepSpec(base_bits=4))


def _small_cfg(**overrides):
    base = dict(ambient_dim=256, band_width=2, rho_list=(2, 4), isnr_targets_db=(40.0,),
                trials_per_point=40, methods=("oracle", "cosamp", "bandpass"), master_seed=5)
    base.update(overrides)
    return SweepConfig(**base)


class TestNoiseFoldingSweep:
    def test_row_schema(self):
        res = run_sweep(_small_cfg(trials_per_point=3))
        assert len(res.rows) == 2 * 3 * 3
        row = res.rows[0]
        assert row.method in ("oracle", "cosamp", "bandpass")
        assert row.seed == derive_trial_seed(5, 0, 0)
        assert row.bits is None

    def test_identical_results_across_worker_counts(self):
        a = run_sweep(_small_cfg(), n_workers=1)
        b = run_sweep(_small_cfg(), n_workers=2)
        assert a.rows == b.rows

    def test_no_subsampling_keeps_input_snr(self):
        cfg = _small_cfg(ambient_dim=256, band_width=4, rho_list=(1,),
                         methods=("oracle",), trials_per_point=100)
        res = run_sweep(cfg)
        diffs = [r.isnr_db - r.rsnr_db for r in res.rows]
        assert abs(np.mean(diffs)) < 0.5

    def test_bandpass_collisions_marked_failed(self):
        # M = 8 with a 4-bin band: folds collide often
        cfg = _small_cfg(ambient_dim=64, band_width=4, rho_list=(8,),
                         methods=("bandpass",), trials_per_point=200)
        res = run_sweep(cfg)
        summary = aggregate(res.rows)[0]
        assert summary.n_failed > 0
        failed_rows = [r for r in res.rows if r.rsnr_db is None]
        assert all(not r.support_exact for r in failed_rows)
        assert summary.n_failed == len(failed_rows)

    def test_oracle_solve_failure_is_a_failed_row(self, monkeypatch):
        calls = []
        original = recovery.oracle_recover

        def fail_third_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("rank-deficient submatrix")
            return original(*args, **kwargs)

        monkeypatch.setattr(recovery, "oracle_recover", fail_third_call)
        res = run_sweep(_small_cfg(trials_per_point=4, methods=("oracle",)))
        assert len(res.rows) == 8
        failed = [r for r in res.rows if r.rsnr_db is None]
        assert [(r.rho, r.trial, r.support_exact) for r in failed] == [(2, 2, False)]
        assert [s.n_failed for s in aggregate(res.rows)] == [1, 0]

    def test_oracle_tracks_bandpass(self):
        # mean-dB curves: stable under the heavy-tailed per-trial linear ratios
        cfg = _small_cfg(ambient_dim=512, band_width=4, rho_list=(2, 4, 8),
                         trials_per_point=150, methods=("oracle", "bandpass"))
        res = run_sweep(cfg, n_workers=2)
        curves = {}
        for r in res.rows:
            if r.rsnr_db is not None:
                curves.setdefault((r.method, r.rho), []).append(r.rsnr_db)
        for rho in (2, 4, 8):
            diff = np.mean(curves[("oracle", rho)]) - np.mean(curves[("bandpass", rho)])
            assert abs(diff) < 1.5

    def test_gaussian_ensemble_path(self):
        cfg = _small_cfg(ambient_dim=128, band_width=2, rho_list=(4,),
                         methods=("oracle",), trials_per_point=20, ensemble="gaussian")
        res = run_sweep(cfg)
        assert len(res.rows) == 20

    def test_cosamp_tracks_oracle_then_collapses(self):
        # geometry with rho_max = 640: agreement through log2(rho) = 5,
        # collapse by the time rho doubles past the blind-recovery limit
        cfg = SweepConfig(ambient_dim=2560, band_width=4, rho_list=(8, 32, 128),
                          isnr_targets_db=(60.0,), trials_per_point=30,
                          methods=("oracle", "cosamp"), master_seed=3)
        summaries = aggregate(run_sweep(cfg, n_workers=2).rows)
        oracle = {s.rho: s.mean_rsnr_db for s in summaries if s.method == "oracle"}
        cosamp = {s.rho: s.mean_rsnr_db for s in summaries if s.method == "cosamp"}
        for rho in (8, 32):
            assert abs(oracle[rho] - cosamp[rho]) < 1.0
        assert oracle[128] - cosamp[128] > 5.0


class TestQuantizationSweep:
    def test_bits_follow_trend(self):
        cfg = SweepConfig(ambient_dim=1024, band_width=4, rho_list=(1, 2, 4, 16),
                          isnr_targets_db=(), trials_per_point=5,
                          methods=("oracle",), master_seed=1,
                          quantizer=QuantizerSweepSpec(base_bits=4))
        res = run_sweep(cfg)
        bits = {s.rho: s.bits for s in aggregate(res.rows)}
        assert bits[1] == 4
        assert bits[2] == 5   # 4 + 1.309
        assert bits[4] == 7   # 4 + 2.618 rounds up
        assert bits[16] == 9  # 4 + 5.235 rounds down

    def test_rows_noise_free(self):
        cfg = SweepConfig(ambient_dim=256, band_width=2, rho_list=(2,),
                          isnr_targets_db=(), trials_per_point=4,
                          methods=("oracle", "cosamp"), master_seed=2,
                          quantizer=QuantizerSweepSpec(base_bits=4))
        res = run_sweep(cfg)
        for row in res.rows:
            assert row.isnr_target_db is None
            assert row.isnr_db is None
            assert row.rsnr_db is not None
            assert row.bits >= 1

    def test_measurement_noise_lowers_msnr(self):
        def mean_msnr(noise_var):
            cfg = SweepConfig(ambient_dim=256, band_width=4, rho_list=(1, 4),
                              isnr_targets_db=(), trials_per_point=8, methods=("oracle",),
                              master_seed=3, measurement_noise_var=noise_var,
                              quantizer=QuantizerSweepSpec(base_bits=4))
            res = run_sweep(cfg)
            return np.mean([row.msnr_db for row in res.rows])

        assert mean_msnr(0.01) < mean_msnr(0.0) - 3.0

    def test_measurement_noise_comes_from_the_trials_measurement_seed(self):
        cfg = SweepConfig(ambient_dim=256, band_width=2, rho_list=(4,), trials_per_point=3,
                          methods=("oracle",), master_seed=3, measurement_noise_var=1e-3)
        for row in run_sweep(cfg).rows:
            c_signal, _, c_ens, c_meas = np.random.SeedSequence(row.seed).spawn(4)
            spectrum = signal_model.generate_bandlimited(256, 2, "random", c_signal)
            clean = sensing.generate_subsampled_dct_ensemble(64, 256, c_ens).apply(spectrum.coeffs)
            noise = np.random.default_rng(c_meas).standard_normal(64)
            y = clean + np.sqrt(1e-3) * noise
            assert row.msnr_db == float(metrics.to_db(metrics.msnr(clean, y)))

    def test_signal_noise_and_quantizer_apply_together(self):
        base = dict(ambient_dim=256, band_width=2, rho_list=(1, 4), trials_per_point=3,
                    methods=("oracle", "cosamp"), master_seed=6)
        quantizer = QuantizerSweepSpec(base_bits=4)
        joint = run_sweep(SweepConfig(isnr_targets_db=(40.0,), quantizer=quantizer, **base))
        noise_only = run_sweep(SweepConfig(isnr_targets_db=(40.0,), **base))
        quant_only = run_sweep(SweepConfig(quantizer=quantizer, **base))
        assert len(joint.rows) == 2 * 3 * 2
        for row, noisy, quantized in zip(joint.rows, noise_only.rows, quant_only.rows):
            assert row.isnr_target_db == 40.0
            assert row.isnr_db is not None and row.bits is not None
            assert row.rsnr_db is not None
            # one seed per (point, trial): the same signal noise and the same bit depth
            assert row.seed == noisy.seed == quantized.seed
            assert row.isnr_db == noisy.isnr_db
            assert row.bits == quantized.bits

    def test_pooled_sweep_leaves_no_process(self):
        res = run_sweep(_tiny_quant_cfg(), n_workers=2)
        assert len(res.rows) == 4
        assert multiprocessing.active_children() == []


class TestTrialTransforms:
    """A trial computes R alpha and R^T y once each and hands them on."""

    @pytest.mark.parametrize("isnr_targets_db, applies", [((), 1), ((40.0,), 2)],
                             ids=["no_signal_noise", "signal_noise"])
    def test_operator_calls_per_oracle_trial(self, isnr_targets_db, applies, monkeypatch):
        calls = {"apply": 0, "apply_transpose": 0}
        for name in calls:
            def counted(ens, v, _original=getattr(sensing.MeasurementEnsemble, name), _name=name):
                calls[_name] += 1
                return _original(ens, v)
            monkeypatch.setattr(sensing.MeasurementEnsemble, name, counted)
        run_sweep(SweepConfig(ambient_dim=64, band_width=2, rho_list=(2,),
                              isnr_targets_db=isnr_targets_db, trials_per_point=1,
                              methods=("oracle",), master_seed=3))
        assert calls == {"apply": applies, "apply_transpose": 1}

    def test_oracle_and_cosamp_share_one_adjoint(self, monkeypatch):
        handed = []
        for name in ("oracle_recover", "cosamp"):
            def recording(ens, y, arg, rty=None, _original=getattr(recovery, name)):
                nptest.assert_array_equal(rty, ens.apply_transpose(y))
                handed.append(rty)
                return _original(ens, y, arg, rty)
            monkeypatch.setattr(recovery, name, recording)
        run_sweep(SweepConfig(ambient_dim=64, band_width=2, rho_list=(2,), trials_per_point=1,
                              methods=("oracle", "cosamp"), master_seed=3))
        assert len(handed) == 2 and handed[0] is handed[1]


def _gram_by_columns(ensemble, indices):
    cols = ensemble.columns(indices)
    return cols.T @ cols


class TestGramAgainstColumnProduct:
    """A sweep writes the same rows whether ``MeasurementEnsemble.gram`` is
    read in closed form or formed from the extracted columns."""

    @pytest.mark.parametrize("cfg", [
        # M = 16 rows at rho = 64 against up to 3W = 39 CoSaMP candidates: the wide gelsd path
        SweepConfig(ambient_dim=1024, band_width=13, rho_list=(1, 4, 16, 32, 64),
                    trials_per_point=4, methods=("oracle", "cosamp"), master_seed=7,
                    quantizer=QuantizerSweepSpec(base_bits=4)),
        SweepConfig(ambient_dim=512, band_width=4, rho_list=(2, 8, 32),
                    isnr_targets_db=(40.0, 20.0), trials_per_point=4, methods=METHODS,
                    master_seed=8),
        SweepConfig(ambient_dim=128, band_width=3, rho_list=(2, 8), isnr_targets_db=(30.0,),
                    trials_per_point=6, methods=("oracle", "cosamp"), master_seed=9,
                    ensemble="gaussian"),
    ], ids=["quantizer_wide_candidates", "noise_folding", "gaussian"])
    def test_rows_byte_identical(self, cfg, monkeypatch):
        closed_form = rows_to_csv_text(run_sweep(cfg).rows)
        monkeypatch.setattr(sensing.MeasurementEnsemble, "gram", _gram_by_columns)
        assert rows_to_csv_text(run_sweep(cfg).rows) == closed_form


def _tiny_quant_cfg():
    return SweepConfig(ambient_dim=64, band_width=2, rho_list=(1, 2),
                       isnr_targets_db=(), trials_per_point=2, methods=("oracle",),
                       master_seed=4, quantizer=QuantizerSweepSpec(base_bits=4))


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_rows_match_serial_under_every_start_method(monkeypatch, started_workers, method):
    cfg = _tiny_quant_cfg()
    serial = run_sweep(cfg).rows
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor,
                             mp_context=multiprocessing.get_context(method))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    pooled = run_sweep(cfg, n_workers=2)
    assert pooled.rows == serial
    assert pooled.environment["workers"] == 2
    assert len(started_workers()) == 2


class TestAggregate:
    def test_linear_mean_then_db(self):
        cfg = _small_cfg(trials_per_point=10, methods=("oracle",))
        res = run_sweep(cfg)
        summaries = aggregate(res.rows)
        rows2 = [r for r in res.rows if r.rho == 2]
        expected = 10 * np.log10(np.mean([10 ** (r.rsnr_db / 10) for r in rows2]))
        got = [s for s in summaries if s.rho == 2][0].mean_rsnr_db
        assert got == pytest.approx(expected, rel=1e-12)

    def test_support_rate_and_counts(self):
        cfg = _small_cfg(trials_per_point=10)
        summaries = aggregate(run_sweep(cfg).rows)
        for s in summaries:
            assert s.n_trials == 10
            assert 0.0 <= s.support_exact_rate <= 1.0


def _per_trial_containment(cfg: ContainmentConfig) -> ContainmentReport:
    """``run_bound_containment`` one trial at a time, with a matrix-vector
    product per operator application, two ``oracle_recover`` calls per trial
    and the folded noise of every trial kept: the reference for the chunked
    campaign."""
    B, M, W = cfg.ambient_dim, cfg.n_measurements, cfg.band_width
    c_ens, c_trials = np.random.SeedSequence(cfg.master_seed).spawn(2)
    rng = np.random.default_rng(c_trials)
    ens = sensing.orthogonalize_rows(sensing.generate_ensemble(M, B, "gaussian", c_ens))
    delta_hat = sensing.estimate_rip_constant(ens, W, mode="exhaustive")
    rho = B / M
    oracle_bounds = theory.expected_oracle_error_bounds(W, cfg.measurement_noise_var, delta_hat)
    msnr_isnr_bounds = theory.msnr_over_isnr_bounds(W, B, delta_hat)
    isnr_rsnr_bounds = theory.noise_folding_bounds(rho, delta_hat)

    T = cfg.trials
    sigma_e = np.sqrt(cfg.measurement_noise_var)
    sigma_n = np.sqrt(cfg.signal_noise_var)
    sq_err_sum = meas_energy_sum = folded_noise_energy_sum = 0.0
    alpha_energy_sum = inband_noise_sum = folded_err_sum = 0.0
    folded = np.empty((M, T))
    for t in range(T):
        start = int(rng.integers(0, B - W + 1))
        support = np.arange(start, start + W)
        coeffs = np.zeros(B)
        coeffs[support] = rng.standard_normal(W)

        e = sigma_e * rng.standard_normal(M)
        clean = ens.apply(coeffs)
        out = recovery.oracle_recover(ens, clean + e, support)
        sq_err_sum += float(np.sum((out.coeffs_hat - coeffs) ** 2))

        n = sigma_n * rng.standard_normal(B)
        zn = ens.apply(n)
        folded[:, t] = zn
        out2 = recovery.oracle_recover(ens, ens.apply(coeffs + n), support)
        folded_err_sum += float(np.sum((out2.coeffs_hat - coeffs) ** 2))
        meas_energy_sum += float(np.sum(clean**2))
        folded_noise_energy_sum += float(np.sum(zn**2))
        alpha_energy_sum += float(np.sum(coeffs**2))
        inband_noise_sum += float(np.sum(n[support] ** 2))

    oracle_err_mean = sq_err_sum / T
    msnr_isnr = (meas_energy_sum / folded_noise_energy_sum) / (alpha_energy_sum / inband_noise_sum)
    isnr_rsnr = (folded_err_sum / T) / (inband_noise_sum / T)
    target_var = rho * cfg.signal_noise_var
    cov = folded @ folded.T / T
    diag = np.diag(cov)
    var_rel_err = float(np.max(np.abs(diag - target_var)) / target_var)
    offdiag_rel = float(np.max(np.abs(cov - np.diag(diag))) / target_var)
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


class TestBoundContainment:
    @pytest.mark.parametrize("kwargs", [
        {"master_seed": 0},  # the criterion-2/3 instance, full size
        {"trials": 2000, "master_seed": 1},
        {"trials": 2000, "master_seed": 2},
        {"ambient_dim": 16, "n_measurements": 16, "trials": 2000, "master_seed": 1},  # rho = 1
        {"trials": 1, "master_seed": 3},
        {"trials": experiments._CONTAINMENT_CHUNK + 1, "master_seed": 4},
        {"trials": 1500, "master_seed": 5},
        {"trials": 1500, "measurement_noise_var": 0.3, "signal_noise_var": 2.5},
        {"trials": 1500, "measurement_noise_var": 4.0, "signal_noise_var": 0.5, "master_seed": 6},
    ])
    def test_matches_the_per_trial_reference(self, kwargs):
        cfg = ContainmentConfig(**kwargs)
        got, ref = run_bound_containment(cfg), _per_trial_containment(cfg)
        for f in dataclasses.fields(ContainmentReport):
            value, expected = getattr(got, f.name), getattr(ref, f.name)
            if isinstance(expected, (bool, tuple)):
                assert value == expected, f.name
            else:
                assert value == pytest.approx(expected, rel=1e-12, abs=0), f.name
        assert got.all_ok == ref.all_ok

    @pytest.mark.parametrize("kwargs, error", [
        ({"measurement_noise_var": -1.0}, ValueError),
        ({"measurement_noise_var": 0.0}, ValueError),
        ({"signal_noise_var": 0.0}, ValueError),
        ({"signal_noise_var": float("nan")}, ValueError),
        ({"trials": 2.5}, TypeError),
        ({"master_seed": True}, TypeError),
        ({"band_width": 0}, ValueError),
        ({"ambient_dim": 8}, ValueError),  # fewer columns than the 16 rows
        # C(20000, 3) supports, far over the exhaustive limit
        ({"ambient_dim": 20000, "n_measurements": 64, "band_width": 3}, ValueError),
    ])
    def test_config_rejects_bad_input(self, kwargs, error):
        with pytest.raises(error, match=next(iter(kwargs))):
            ContainmentConfig(**kwargs)

    def test_small_campaign_all_brackets_hold(self):
        # the 0.05 off-diagonal whiteness threshold needs the full 10^4 draws
        rep = run_bound_containment(ContainmentConfig(trials=10_000, master_seed=0))
        assert rep.delta_hat < 1.0
        assert rep.oracle_error_ok
        assert rep.msnr_over_isnr_ok
        assert rep.isnr_over_rsnr_ok
        assert rep.whiteness_ok
        assert rep.all_ok

    def test_degenerate_square_case_collapses(self):
        # rho = 1: orthonormal ensemble, delta ~ 0, brackets pinch to a point,
        # so the estimates must sit on them up to Monte Carlo error
        rep = run_bound_containment(ContainmentConfig(
            ambient_dim=16, n_measurements=16, band_width=2,
            trials=10_000, master_seed=1))
        assert rep.delta_hat < 1e-8
        assert rep.isnr_over_rsnr == pytest.approx(1.0, abs=1e-6)
        assert rep.oracle_error_mean == pytest.approx(rep.oracle_error_bounds[0], rel=0.05)
        assert rep.msnr_over_isnr == pytest.approx(2 / 16, rel=0.05)
        assert rep.whiteness_ok

    def test_one_isometry_estimate_of_the_orthogonalized_ensemble(self, monkeypatch):
        estimate = sensing.estimate_rip_constant
        seen = []

        def counted(ens, *args, **kwargs):
            seen.append(ens)
            return estimate(ens, *args, **kwargs)

        monkeypatch.setattr(sensing, "estimate_rip_constant", counted)
        rep = run_bound_containment(ContainmentConfig(trials=10))
        assert len(seen) == 1
        # orthogonalized rows of the default B=32, M=16 instance: R R^T = (B/M) I
        np.testing.assert_allclose(seen[0].matrix @ seen[0].matrix.T, 2 * np.eye(16), atol=1e-12)
        assert rep.delta_hat == estimate(seen[0], 2, mode="exhaustive")

    @pytest.mark.parametrize("trials", [1, experiments._CONTAINMENT_CHUNK + 1, 10_000])
    def test_one_solve_per_band_per_campaign(self, trials, monkeypatch):
        solve = recovery.oracle_recover
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(recovery, "oracle_recover", counted)
        cfg = ContainmentConfig(trials=trials)
        run_bound_containment(cfg)
        B, W = cfg.ambient_dim, cfg.band_width
        assert len(calls) == B - W + 1
        assert sorted(int(support[0]) for support in calls) == list(range(B - W + 1))

    def test_isometry_constant_above_one_fails_before_trials(self, monkeypatch):
        # B=32, M=8, W=2 at seed 0 has an exhaustive delta of about 1.65
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(recovery, "oracle_recover", no_trials)
        with pytest.raises(ValueError, match="delta must lie in"):
            run_bound_containment(ContainmentConfig(n_measurements=8, trials=10))
