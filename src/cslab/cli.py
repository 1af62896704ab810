"""Command-line front end.

Subcommands: noise-folding, quantizer-sweep, dynamic-range, rip-estimate,
design-rules.  noise-folding and quantizer-sweep are one sweep under two
names: the config alone decides which of signal noise, measurement noise and
quantization apply.  Sweeps read a JSON config (see README for the schema),
accept --seed / --trials overrides, and persist rows, summary, plot data,
and a run manifest into --out.  The CSLAB_THREADS environment variable caps
the worker count (0 = one worker per CPU; unset = serial).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import quantization, recovery, sensing, signal_model, theory
from .experiments import _real, run_sweep
from .metrics import rsnr
from .results_io import (
    ConfigFileError,
    ConfigSchemaError,
    _write_atomic,
    build_sweep_config,
    load_config_dict,
    write_results,
)

def _workers_from_env() -> int:
    """Validated CSLAB_THREADS value; the sweeps read 0 as one worker per CPU."""
    raw = os.environ.get("CSLAB_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigSchemaError(f"CSLAB_THREADS must be an integer, got {raw!r}")
    if value < 0:
        raise ConfigSchemaError("CSLAB_THREADS must be >= 0")
    return value


def _write_report(path, report: dict) -> None:
    """Write a subcommand's JSON report atomically, like the sweep outputs."""
    _write_atomic(Path(path), json.dumps(report, indent=1) + "\n")
    print(f"report: {path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cslab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("noise-folding", "run a sweep config (same sweep as quantizer-sweep)"),
        ("quantizer-sweep", "run a sweep config (same sweep as noise-folding)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON sweep config")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--trials", type=int, default=None, help="override trials_per_point")
        p.add_argument("--out", default="cslab_results", help="output directory")
        p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("dynamic-range", help="closed-form and empirical dynamic range")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--target-snr", type=float, required=True, help="linear SNR floor C")
    p.add_argument("--ambient-dim", type=int, default=256)
    p.add_argument("--band-width", type=int, default=4)
    p.add_argument("--rho", type=int, default=4, help="subsampling for the recovery path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--path", choices=["conventional", "cs"], default="conventional")
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(run=_cmd_dynamic_range)

    p = sub.add_parser("rip-estimate", help="empirical restricted-isometry constant")
    p.add_argument("--ambient-dim", type=int, required=True)
    p.add_argument("--measurements", type=int, required=True)
    p.add_argument("--sparsity", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="sampled")
    p.add_argument("--n-supports", type=int, default=200)
    p.add_argument("--distribution", choices=sensing.DISTRIBUTIONS, default="gaussian")
    p.add_argument("--orthogonalize", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(run=_cmd_rip_estimate)

    p = sub.add_parser("design-rules", help="evaluate the receiver design rules")
    p.add_argument("--config", default=None, help="JSON with ambient_dim/band_width/kappa0/base_bits")
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(run=_cmd_design_rules)
    return parser


def _cmd_sweep(args) -> int:
    data = load_config_dict(args.config)
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.trials is not None:
        data["trials_per_point"] = args.trials
    cfg = build_sweep_config(data)
    workers = _workers_from_env()
    Path(args.out).mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the sweep
    result = run_sweep(cfg, n_workers=workers)
    summaries = []
    paths = write_results(result, args.out, config_dict=data, summaries=summaries)
    for point in summaries:
        print(
            f"rho={point.rho:>5} isnr={point.isnr_target_db} method={point.method:<8}"
            f" bits={point.bits} mean_rsnr_db={point.mean_rsnr_db} failed={point.n_failed}"
        )
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_dynamic_range(args) -> int:
    # a path is an oracle sweep's point (conventional: rho 1); its quantizer is one at rho 1
    geometry = dict(ambient_dim=args.ambient_dim, band_width=args.band_width, methods=["oracle"])
    build_sweep_config({**geometry, "rho_list": [args.rho if args.path == "cs" else 1]})
    build_sweep_config({**geometry, "rho_list": [1], "quantizer": {"base_bits": args.bits}})
    spec = quantization.QuantizerSpec(bits=args.bits)
    spectrum = signal_model.generate_bandlimited(
        args.ambient_dim, args.band_width, "random", args.seed)
    x = signal_model.synthesize_vector(spectrum.coeffs)
    report = {"bits": args.bits, "target_snr": args.target_snr, "par": signal_model.par(x),
              "path": args.path}

    closed = quantization.dynamic_range_closed_form(spec, x, args.target_snr)
    report["closed_form"] = asdict(closed)
    if args.path == "conventional":
        emp = quantization.dynamic_range_empirical(spec, x, args.target_snr)
    else:
        ens = sensing.generate_subsampled_dct_ensemble(
            args.ambient_dim // args.rho, args.ambient_dim, args.seed)
        y = ens.apply(spectrum.coeffs)
        alpha = spectrum.coeffs
        support = spectrum.support

        def recovery_snr(beta: float) -> float:
            quantized = quantization.quantize(spec, beta * y)
            out = recovery.oracle_recover(ens, quantized, support)
            return rsnr(beta * alpha, out.coeffs_hat)

        emp = quantization.dynamic_range_empirical(
            spec, x, args.target_snr, snr_fn=recovery_snr,
            anchor=1.0 / float(np.max(np.abs(y))))
    report["empirical"] = asdict(emp)
    print(f"closed-form dynamic range: {closed.dr_db:.2f} dB "
          f"(beta in [{closed.beta_min:.4g}, {closed.beta_max:.4g}])")
    print(f"empirical dynamic range ({args.path}): {emp.dr_db:.2f} dB "
          f"(beta in [{emp.beta_min:.4g}, {emp.beta_max:.4g}])")
    if args.out:
        _write_report(args.out, report)
    return 0


def _cmd_rip_estimate(args) -> int:
    ens = sensing.generate_ensemble(
        args.measurements, args.ambient_dim, args.distribution, args.seed)
    if args.orthogonalize:
        ens = sensing.orthogonalize_rows(ens)
    delta = sensing.estimate_rip_constant(
        ens, args.sparsity, mode=args.mode, n_supports=args.n_supports, rng_seed=args.seed)
    qualifier = "exact" if args.mode == "exhaustive" else "lower bound"
    print(f"delta_hat = {delta:.6f} ({qualifier}, order {args.sparsity})")
    if args.out:
        _write_report(args.out, {
            "ambient_dim": args.ambient_dim, "measurements": args.measurements,
            "sparsity": args.sparsity, "mode": args.mode, "delta_hat": delta,
        })
    return 0


def _cmd_design_rules(args) -> int:
    params = {"ambient_dim": 1e9, "band_width": 4e5, "kappa0": 0.5, "base_bits": 8.0}
    if args.config is not None:
        data = load_config_dict(args.config)
        unknown = set(data) - set(params)
        if unknown:
            raise ConfigSchemaError(f"unknown design-rule keys: {sorted(unknown)}")
        for key, value in data.items():
            try:
                _real(key, value)
            except (TypeError, ValueError) as exc:
                raise ConfigSchemaError(str(exc)) from exc
        params.update(data)
    try:
        report = theory.design_rules(**params)
    except ValueError as exc:
        raise ConfigSchemaError(f"invalid design-rule config: {exc}") from exc
    reduced_rate = params["ambient_dim"] / report.rho_cs
    print(f"rho_max:            {report.rho_max:.6g}")
    print(f"rho_cs:             {report.rho_cs:.6g}")
    print(f"noise_figure_db:    {report.noise_figure_db:.4g}")
    print(f"bit_gain:           {report.bit_gain:.4g}")
    print(f"projected_bits:     {report.projected_bits:.4g}")
    print(f"projected_dr_db:    {report.projected_dr_db:.5g}")
    print(f"nyquist_rate_hz:    {params['ambient_dim']:.6g}")
    print(f"reduced_rate_hz:    {reduced_rate:.6g}")
    if args.out:
        _write_report(args.out, {**params, **asdict(report), "reduced_rate_hz": reduced_rate})
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ConfigFileError, ConfigSchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
