#!/usr/bin/env python3
"""Run the quantization sweep (recovered SNR vs. subsampling with bit depth
growing along the rate/resolution trend); outputs land in ./out_quantizer_sweep.

The repo config anchors at 4 bits; pass --base-bits 8 for the high-resolution
variant.

Usage: python scripts/run_quantizer_sweep.py [--base-bits B] [--trials N] [--seed N]
"""

import argparse
import json
import tempfile
from pathlib import Path

from cslab.cli import main

REPO = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--base-bits", type=int, default=None)
    args, passthrough = parser.parse_known_args()
    config_path = REPO / "configs" / "quantizer_sweep.json"
    with tempfile.TemporaryDirectory() as tmp_dir:
        if args.base_bits is not None:
            data = json.loads(config_path.read_text())
            data["quantizer"]["base_bits"] = args.base_bits
            config_path = Path(tmp_dir) / "quantizer_sweep.json"
            config_path.write_text(json.dumps(data))
        argv = ["quantizer-sweep", "--config", str(config_path),
                "--out", "out_quantizer_sweep", *passthrough]
        code = main(argv)
    raise SystemExit(code)
