"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here, not computed; geometry notes:

* criteria 1 and 9 use the pinned desk-scale noise-folding geometry
  (B=8192, W=4, 200 trials/point);
* criterion 6 keeps B=8192 with a 13-bin band (rho_max = 8192/13 = 630), a
  narrowband regime where blind recovery collapses near log2(rho) ~ 5.7 and
  the bit-depth trend produces the target gains;
* criterion 11 keeps the criterion-1 band (B=8192, W=4) over rho 2..64 with
  measurement noise of variance 1e-4 and no signal noise.
"""

import itertools
import time

import numpy as np
import pytest

from cslab import recovery, sensing, signal_model, theory
from cslab.experiments import (
    ContainmentConfig,
    QuantizerSweepSpec,
    SweepConfig,
    aggregate,
    run_bound_containment,
    run_sweep,
)
from cslab.quantization import (
    QuantizerSpec,
    dynamic_range_closed_form,
    dynamic_range_empirical,
    sqnr,
)
from cslab.results_io import write_results

MASTER_SEED = 20260809


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _criterion1_config() -> SweepConfig:
    return SweepConfig(
        ambient_dim=8192,
        band_width=4,
        rho_list=(2, 4, 8, 16, 32),
        isnr_targets_db=(60.0,),
        trials_per_point=200,
        methods=("oracle",),
        master_seed=MASTER_SEED,
    )


def test_criterion_1_noise_folding_slope():
    started = time.perf_counter()
    result = run_sweep(_criterion1_config(), n_workers=2)
    elapsed = time.perf_counter() - started
    losses = {}
    for row in result.rows:
        losses.setdefault(row.rho, []).append(row.isnr_db - row.rsnr_db)
    octaves = sorted(losses)
    mean_loss = [float(np.mean(losses[r])) for r in octaves]
    slope = float(np.polyfit(np.log2(octaves), mean_loss, 1)[0])
    ok = abs(slope - 3.01) <= 0.5 and elapsed < 300.0
    _report(
        "criterion 1 (noise-folding slope)",
        ok,
        f"slope={slope:.3f} dB/octave (target 3.01 +- 0.5), runtime={elapsed:.1f}s (< 300s)",
    )


@pytest.fixture(scope="module")
def containment_report():
    return run_bound_containment(ContainmentConfig(
        ambient_dim=32, n_measurements=16, band_width=2,
        trials=10_000, measurement_noise_var=1.0, signal_noise_var=1.0,
        master_seed=MASTER_SEED))


def test_criterion_2_oracle_error_containment(containment_report):
    rep = containment_report
    lo, hi = rep.oracle_error_bounds
    ok = rep.delta_hat < 1.0 and rep.oracle_error_ok
    _report(
        "criterion 2 (oracle error bracket)",
        ok,
        f"E||err||^2={rep.oracle_error_mean:.4f} in [{lo:.4f}, {hi:.4f}] "
        f"at exhaustive delta={rep.delta_hat:.3f}",
    )


def test_criterion_3_folded_noise_whiteness(containment_report):
    rep = containment_report
    ok = rep.whiteness_ok
    _report(
        "criterion 3 (folded-noise whiteness)",
        ok,
        f"max diag deviation {rep.folded_var_rel_err*100:.1f}% (<10%), "
        f"max |off-diag| {rep.folded_offdiag_max_rel:.4f}*rho*var (<0.05)",
    )


def test_criterion_4_cosamp_recovery_window():
    B, W = 2048, 4
    rho_max = B / W
    rho_cs = 0.5 * rho_max / np.log(rho_max)  # ~41.0

    def rate(n_meas: int, trials: int = 100) -> float:
        hits = 0
        for t in range(trials):
            c_sig, c_ens = np.random.SeedSequence((MASTER_SEED, n_meas, t)).spawn(2)
            sp = signal_model.generate_bandlimited(B, W, "random", c_sig)
            ens = sensing.generate_ensemble(n_meas, B, "gaussian", c_ens)
            out = recovery.cosamp(ens, ens.apply(sp.coeffs), W)
            hits += bool(np.array_equal(out.support_hat, sp.support))
        return hits / trials

    in_window = {rho: rate(B // rho) for rho in (8, 16, 32)}
    boundary = rate(int(round(B / rho_cs)))
    beyond = rate(int(round(B / (2 * rho_cs))))
    ok = all(r >= 0.99 for r in in_window.values()) and (1.0 - beyond) > 0.5
    _report(
        "criterion 4 (cosamp recovery window)",
        ok,
        f"exact-support rates {in_window} for rho up to rho_cs={rho_cs:.1f} "
        f"(at the boundary itself: {boundary:.2f}); "
        f"failure rate {1.0 - beyond:.2f} at 2*rho_cs (> 0.5)",
    )


def test_criterion_5_quantizer_laws():
    rng = np.random.default_rng(MASTER_SEED)
    floor_ok = True
    for bits in (2, 4, 8, 12):
        q = QuantizerSpec(bits=bits)
        for _ in range(1000):
            v = rng.standard_normal(int(rng.integers(4, 64)))
            beta = 1.0 / np.max(np.abs(v))
            db = 10 * np.log10(sqnr(q, beta * v))
            if db < 6.02 * bits - 20 * np.log10(signal_model.par(v)):
                floor_ok = False

    dr_ok = True
    for _ in range(100):
        bits = int(rng.choice([4, 6, 8, 10, 12]))
        q = QuantizerSpec(bits=bits)
        x = rng.standard_normal(int(rng.integers(8, 64)))
        cmax = (2.0**bits) ** 2 / signal_model.par(x) ** 2
        target = float(np.exp(rng.uniform(np.log(1.5), np.log(0.8 * cmax))))
        emp = dynamic_range_empirical(q, x, target)
        closed = dynamic_range_closed_form(q, x, target)
        if emp.dr_linear < closed.dr_linear:
            dr_ok = False
    _report(
        "criterion 5 (quantizer laws)",
        floor_ok and dr_ok,
        "SQNR >= 6.02b - 20log10(par) on 4x1000 vectors; "
        "empirical dynamic range >= closed form on 100 (x, C, b) triples",
    )


def _gain_at_four_octaves(base_bits: int):
    cfg = SweepConfig(
        ambient_dim=8192,
        band_width=13,
        rho_list=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        isnr_targets_db=(),
        trials_per_point=100,
        methods=("oracle", "cosamp"),
        master_seed=MASTER_SEED,
        quantizer=QuantizerSweepSpec(base_bits=base_bits),
    )
    summaries = aggregate(run_sweep(cfg, n_workers=2).rows)
    oracle = {s.rho: s.mean_rsnr_db for s in summaries if s.method == "oracle"}
    cosamp_curve = {s.rho: s.mean_rsnr_db for s in summaries if s.method == "cosamp"}
    return oracle, cosamp_curve


def test_criterion_6_quantization_trend():
    oracle4, cosamp4 = _gain_at_four_octaves(4)
    oracle8, cosamp8 = _gain_at_four_octaves(8)
    gain4 = oracle4[16] - oracle4[1]
    gain8 = oracle8[16] - oracle8[1]
    cosamp_peak = max(cosamp4.values())
    collapse = cosamp4[256] < cosamp_peak - 10.0
    oracle_keeps_rising = oracle4[256] > oracle4[64] and oracle8[256] > oracle8[64]
    ok = abs(gain4 - 20.0) <= 3.0 and abs(gain8 - 17.0) <= 3.0 and collapse and oracle_keeps_rising
    _report(
        "criterion 6 (quantized-acquisition trend)",
        ok,
        f"gain@4oct base4={gain4:.1f} dB (20 +- 3), base8={gain8:.1f} dB (17 +- 3); "
        f"cosamp collapses ({cosamp4[256]:.1f} dB vs peak {cosamp_peak:.1f}) "
        f"while oracle rises ({oracle4[64]:.1f} -> {oracle4[256]:.1f} dB)",
    )


def test_criterion_7_design_rule_calculator():
    rep = theory.design_rules(1e9, 4e5, kappa0=0.5, base_bits=8)
    rate = 1e9 / rep.rho_cs
    ok = (
        155 <= rep.rho_cs <= 165
        and 21.8 <= rep.noise_figure_db <= 22.2
        and 9 <= rep.bit_gain <= 10
        and abs(rate - 6.25e6) / 6.25e6 < 0.01
    )
    _report(
        "criterion 7 (design rules)",
        ok,
        f"rho_cs={rep.rho_cs:.1f} in [155,165], NF={rep.noise_figure_db:.2f} dB in "
        f"[21.8,22.2], bit gain={rep.bit_gain:.2f} in [9,10], rate={rate/1e6:.2f} MHz (~6.25)",
    )


def test_criterion_8_spectral_property_suites():
    rng = np.random.default_rng(MASTER_SEED)
    eig_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(1, n + 1))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = rng.uniform(0.1, 5.0, size=n)
        A = q @ np.diag(eig) @ q.T
        Bmat = rng.standard_normal((n, m))
        inner = np.linalg.eigvalsh(Bmat.T @ A @ Bmat)
        gram = np.linalg.eigvalsh(Bmat.T @ Bmat)
        if inner[-1] > eig.max() * gram[-1] + 1e-9 or inner[0] < eig.min() * gram[0] - 1e-9:
            eig_ok = False

    ens = sensing.orthogonalize_rows(sensing.generate_ensemble(12, 16, "gaussian", 11))
    delta = sensing.estimate_rip_constant(ens, 2, mode="exhaustive")
    pinv_ok = delta < 1.0
    lo, hi = 1 / np.sqrt(1 + delta), 1 / np.sqrt(1 - delta)
    for sup in itertools.combinations(range(16), 2):
        s = np.linalg.svd(np.linalg.pinv(ens.columns(list(sup))), compute_uv=False)
        if s[-1] < lo - 1e-12 or s[0] > hi + 1e-12:
            pinv_ok = False

    raw = sensing.generate_ensemble(8, 48, "gaussian", MASTER_SEED)
    ortho = sensing.orthogonalize_rows(raw)
    rho = 6.0
    gram_err = np.max(np.abs(ortho.matrix @ ortho.matrix.T - rho * np.eye(8)))
    qr_raw, _ = np.linalg.qr(raw.matrix.T)
    qr_ortho, _ = np.linalg.qr(ortho.matrix.T)
    proj_err = np.linalg.norm(qr_raw @ qr_raw.T - qr_ortho @ qr_ortho.T)
    construction_ok = gram_err < 1e-8 and proj_err < 1e-8

    _report(
        "criterion 8 (spectral property suites)",
        eig_ok and pinv_ok and construction_ok,
        f"congruence eigenvalue inequalities on 100 instances; pseudoinverse "
        f"singular values in [{lo:.3f}, {hi:.3f}] on all 120 supports; "
        f"orthogonalization gram error {gram_err:.1e}, row-space drift {proj_err:.1e}",
    )


def test_criterion_9_determinism_across_workers(tmp_path):
    outputs = {}
    for workers in (1, 4, 8):
        result = run_sweep(_criterion1_config(), n_workers=workers)
        paths = write_results(result, tmp_path / f"w{workers}", config_dict={"criterion": 1})
        outputs[workers] = (paths["rows"].read_bytes(), paths["summary"].read_bytes(),
                            paths["plot"].read_bytes())
    ok = outputs[1] == outputs[4] == outputs[8]
    _report(
        "criterion 9 (determinism)",
        ok,
        "rows/summary/plot outputs byte-identical under 1, 4, and 8 workers",
    )


def test_criterion_11_measurement_noise_does_not_fold():
    # white measurement noise and no signal noise: MSNR rises 3 dB/octave as
    # the fixed-variance noise spreads over fewer measurements, RSNR/MSNR = M/W
    # falls by as much, so the oracle RSNR stays flat
    cfg = SweepConfig(
        ambient_dim=8192,
        band_width=4,
        rho_list=(2, 4, 8, 16, 32, 64),
        isnr_targets_db=(),
        trials_per_point=200,
        methods=("oracle",),
        master_seed=MASTER_SEED,
        measurement_noise_var=1e-4,
    )
    summaries = aggregate(run_sweep(cfg, n_workers=2).rows)
    octaves = np.log2([s.rho for s in summaries])
    rsnr_slope = float(np.polyfit(octaves, [s.mean_rsnr_db for s in summaries], 1)[0])
    msnr_slope = float(np.polyfit(octaves, [s.mean_msnr_db for s in summaries], 1)[0])
    ok = abs(rsnr_slope) <= 0.5 and abs(msnr_slope - 3.01) <= 0.5
    _report(
        "criterion 11 (measurement noise does not fold)",
        ok,
        f"RSNR slope={rsnr_slope:.3f} dB/octave (0 +- 0.5), "
        f"MSNR slope={msnr_slope:.3f} dB/octave (3.01 +- 0.5)",
    )
