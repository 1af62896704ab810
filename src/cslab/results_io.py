"""Config ingestion and result persistence.

Configs are JSON key-value trees validated strictly (unknown keys rejected):
a sweep config is ``build_sweep_config(load_config_dict(path))``, whose
accepted keys are the fields of ``SweepConfig`` and, under ``quantizer``, of
``QuantizerSweepSpec``.
Row files have one column per ``TrialRow`` field, in declaration order, and
each column is parsed by its field's declared type; numeric fields are
serialized with 6 significant digits in fixed notation.  Summaries are
computed from the serialized (rounded) row values so that re-aggregating a
persisted file reproduces the summary exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    ConfigDivisibilityError,
    ExperimentResult,
    QuantizerSweepSpec,
    SweepConfig,
    TrialRow,
    aggregate,
)

__all__ = [
    "ConfigFileError",
    "ConfigSchemaError",
    "ConfigDivisibilityError",
    "CSV_HEADER",
    "format_number",
    "load_config_dict",
    "build_sweep_config",
    "config_hash",
    "write_results",
    "read_rows_csv",
]


class ConfigFileError(Exception):
    """Config file missing or unreadable (exit code 2)."""

    exit_code = 2


class ConfigSchemaError(Exception):
    """Config violates the schema (exit code 3)."""

    exit_code = 3


_COLUMNS = fields(TrialRow)
CSV_HEADER = ",".join(f.name for f in _COLUMNS)

# one parser per declared TrialRow field type (annotations are strings here)
_PARSERS = {
    "int": int,
    "str": str,
    "bool": lambda text: text == "true",
    "float | None": lambda text: None if text == "" else float(text),
    "int | None": lambda text: None if text == "" else int(text),
}


def format_number(value) -> str:
    """Serialize a field: 6 significant digits, fixed notation; strings as they are."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return np.format_float_positional(float(value), precision=6, unique=False,
                                      fractional=False, trim="-")


def load_config_dict(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigFileError(f"config file not found: {p}")
    try:
        with open(p) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigSchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigSchemaError("config root must be a JSON object")
    return data


def build_sweep_config(data: dict) -> SweepConfig:
    """Validate a config dict strictly and build a SweepConfig."""
    unknown = set(data) - {f.name for f in fields(SweepConfig)}
    if unknown:
        raise ConfigSchemaError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    quantizer = kwargs.pop("quantizer", None)
    if quantizer is not None:
        if not isinstance(quantizer, dict):
            raise ConfigSchemaError("quantizer must be an object")
        bad = set(quantizer) - {f.name for f in fields(QuantizerSweepSpec)}
        if bad:
            raise ConfigSchemaError(f"unknown quantizer keys: {sorted(bad)}")
        try:
            quantizer = QuantizerSweepSpec(**quantizer)
        except (TypeError, ValueError) as exc:
            raise ConfigSchemaError(f"invalid quantizer: {exc}") from exc
    try:
        return SweepConfig(quantizer=quantizer, **kwargs)
    except ConfigDivisibilityError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigSchemaError(str(exc)) from exc


def config_hash(data: dict) -> str:
    """Hex digest of the canonicalized config (stable under key reordering)."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()


def rows_to_csv_text(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(format_number(getattr(r, f.name)) for f in _COLUMNS) for r in rows)
    return "\n".join(lines) + "\n"


def read_rows_csv(path) -> list[TrialRow]:
    """Parse a rows CSV back into TrialRow records."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized rows CSV header")
    parsers = [_PARSERS[f.type] for f in _COLUMNS]
    return [TrialRow(*(parse(cell) for parse, cell in zip(parsers, ln.split(","), strict=True)))
            for ln in lines[1:]]


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory and rename it into
    place, so ``path`` holds either its old content or all of ``text``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_results(result: ExperimentResult, out_dir, config_dict: dict | None = None,
                  summaries: list | None = None) -> dict:
    """Persist a sweep: rows.csv, a JSON summary of per-point means, a
    plot-data CSV of (log2 rho, mean rsnr dB) series per method, and a run
    manifest.  Returns the written paths.

    Rows, summary, and plot data are byte-deterministic for an identical
    result; the manifest carries a wall-clock timestamp and the
    sweep's runtime environment (worker count, BLAS thread settings,
    affinity CPUs, library versions).  Each file is written to a temporary file in
    ``out_dir`` and renamed into place, so a failed run never leaves a partly
    written file.  When ``summaries`` is a list, the per-point summaries
    written to summary.json are appended to it, so a caller can report them
    without reading the file back.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    paths["rows"] = out / "rows.csv"
    _write_atomic(paths["rows"], rows_to_csv_text(result.rows))

    points = aggregate(read_rows_csv(paths["rows"]))
    paths["summary"] = out / "summary.json"
    _write_atomic(paths["summary"], json.dumps(
        {"points": [asdict(s) for s in points]}, indent=1) + "\n")
    if summaries is not None:
        summaries.extend(points)

    plot_lines = ["method,isnr_target_db,log2_rho,mean_rsnr_db"]
    for s in points:
        plot_lines.append(",".join([
            s.method,
            format_number(s.isnr_target_db),
            format_number(float(np.log2(s.rho))),
            format_number(s.mean_rsnr_db),
        ]))
    paths["plot"] = out / "plotdata.csv"
    _write_atomic(paths["plot"], "\n".join(plot_lines) + "\n")

    manifest = {
        "config_hash": config_hash(config_dict) if config_dict is not None else None,
        "tool_version": __version__,
        "master_seed": result.config.master_seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "environment": result.environment,
        "output_paths": {k: str(v) for k, v in paths.items()},
    }
    manifest_path = out / "manifest.json"
    _write_atomic(manifest_path, json.dumps(manifest, indent=1) + "\n")
    paths["manifest"] = manifest_path
    return paths
