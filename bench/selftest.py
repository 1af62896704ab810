#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size; run from the repository root:

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced with ``--seconds 1``,
which measures a single sweep, and asserts, for each run: exit code 0; a last
stdout line holding exactly ``correct``, ``attempted``, ``failed`` and ``metrics``; every
check passed; every end-to-end (untraced) or per-layer (traced) metric present
with its declared unit and nothing else; end-to-end values above 0; and, when
traced, span self times plus the harness self time adding up to the traced
wall time.  Last, it asserts that the benchmark fails without printing a
result when the cslab sources are missing.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "bench/run.py"]
SEED = 7


def run_once(spec: dict, workload: str, trace: int) -> None:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        raise AssertionError(f"{label}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: a check failed\n{done.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int) and result["failed"] == 0, label

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(units), (f"{label}: missing {sorted(set(units) - set(got))}, "
                                    f"undeclared {sorted(set(got) - set(units))}")
    for name, entry in got.items():
        assert entry["unit"] == units[name], f"{label}: {name} unit {entry['unit']!r}"
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}"
        if not trace:
            assert value > 0, f"{label}: {name} is {value}"
    if trace:
        parts = sum(v["value"] for k, v in got.items() if k.endswith(".self_ms"))
        parts += got["experiments.harness_self_ms"]["value"]
        wall = got["trace.wall_ms"]["value"]
        assert math.isclose(parts, wall, rel_tol=1e-9), f"{label}: self times {parts} != {wall}"
    print(f"ok {label}: {len(got)} metrics, {result['attempted']} trials")


def run_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            RUN + ["--workload", "containment", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_out").rmdir()
    assert done.returncode != 0, "the benchmark succeeded without the cslab sources"
    assert "{" not in done.stdout, "the benchmark printed a result without the cslab sources"
    print(f"ok without sources: exit {done.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run_once(spec, workload, trace)
    run_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
