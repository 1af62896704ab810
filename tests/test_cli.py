import dataclasses
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslab import __version__, experiments, sensing
from cslab.cli import main
from cslab.experiments import METHODS, ExperimentResult, SweepConfig, TrialRow, aggregate
from cslab.results_io import (
    CSV_HEADER,
    ConfigDivisibilityError,
    ConfigFileError,
    ConfigSchemaError,
    build_sweep_config,
    config_hash,
    format_number,
    load_config_dict,
    read_rows_csv,
    rows_to_csv_text,
    write_results,
)

REPO = Path(__file__).resolve().parent.parent


class TestFormatNumber:
    def test_six_significant_digits_fixed_notation(self):
        assert format_number(3.0103) == "3.0103"
        assert format_number(1234567.89) == "1234570"
        assert format_number(0.000123456789) == "0.000123457"
        assert format_number(60.0) == "60"
        assert format_number(-42.447912345) == "-42.4479"

    def test_special_values(self):
        assert format_number(None) == ""
        assert format_number(True) == "true"
        assert format_number(False) == "false"
        assert format_number(float("inf")) == "inf"
        assert format_number(float("-inf")) == "-inf"
        assert format_number(float("nan")) == "nan"
        assert format_number(np.float64("nan")) == "nan"
        assert format_number(7) == "7"


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ambient_dim": 64, "band_width": 2, "rho_list": [2]}))
        cfg = build_sweep_config(load_config_dict(path))
        assert cfg.trials_per_point == 200
        assert cfg.ensemble == "subsampled_dct"
        assert cfg.methods == ("oracle", "cosamp", "bandpass")
        assert cfg.isnr_targets_db == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigFileError):
            load_config_dict(tmp_path / "absent.json")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigSchemaError):
            build_sweep_config({"ambient_dim": 64, "bandwidth": 2})

    def test_non_divisor_rho(self):
        with pytest.raises(ConfigDivisibilityError):
            build_sweep_config({"ambient_dim": 8192, "rho_list": [3]})

    def test_bad_quantizer_key(self):
        with pytest.raises(ConfigSchemaError):
            build_sweep_config({"quantizer": {"bits": 4}})

    def test_noise_folding_fixture_matches_documented_values(self):
        cfg = build_sweep_config(load_config_dict(REPO / "configs" / "noise_folding.json"))
        assert cfg == SweepConfig(
            ambient_dim=8192,
            band_width=4,
            rho_list=(1, 2, 4, 8, 16, 32, 64, 128),
            isnr_targets_db=(60.0, 40.0, 20.0),
            trials_per_point=200,
            methods=("oracle", "cosamp", "bandpass"),
            master_seed=20260809,
            ensemble="subsampled_dct",
            measurement_noise_var=0.0,
        )

    def test_quantizer_sweep_base8_fixture_is_the_second_geometry(self, tmp_path, monkeypatch):
        # criterion 6's second geometry: the committed quantizer sweep at 8 base bits
        base4 = build_sweep_config(load_config_dict(REPO / "configs" / "quantizer_sweep.json"))
        path = REPO / "configs" / "quantizer_sweep_base8.json"
        base8 = build_sweep_config(load_config_dict(path))
        assert base8 == dataclasses.replace(
            base4, quantizer=dataclasses.replace(base4.quantizer, base_bits=8))
        monkeypatch.setenv("CSLAB_THREADS", "1")
        out = tmp_path / "out"
        assert main(["quantizer-sweep", "--config", str(path), "--trials", "1",
                     "--out", str(out)]) == 0
        points = json.loads((out / "summary.json").read_text())["points"]
        bits = {p["rho"]: p["bits"] for p in points}
        assert bits[1] == 8
        assert bits[256] == 18  # eight octaves at about 1.309 bits each

    def test_config_hash_stable_under_key_order(self):
        a = {"ambient_dim": 64, "rho_list": [2], "band_width": 2}
        b = {"band_width": 2, "ambient_dim": 64, "rho_list": [2]}
        assert config_hash(a) == config_hash(b)


def _tiny_result():
    cfg = SweepConfig(ambient_dim=64, band_width=2, rho_list=(2,), isnr_targets_db=(40.0,),
                      trials_per_point=2, methods=("oracle",), master_seed=1)
    rows = [
        TrialRow(2, 40.0, "oracle", 0, 111, 41.234567, 15.5, 38.7654321, True, None),
        TrialRow(2, 40.0, "oracle", 1, 222, 39.9, None, None, False, None),
    ]
    return ExperimentResult(config=cfg, rows=rows)


_optional_floats = st.none() | st.floats()
_trial_rows = st.builds(
    TrialRow,
    rho=st.integers(1, 2**20),
    isnr_target_db=_optional_floats,
    method=st.sampled_from(METHODS),
    trial=st.integers(0, 2**31),
    seed=st.integers(0, 2**64 - 1),
    isnr_db=_optional_floats,
    msnr_db=_optional_floats,
    rsnr_db=_optional_floats,
    support_exact=st.booleans(),
    bits=st.none() | st.integers(1, 64),
)


class TestRowsCsvFormat:
    def test_header_is_trial_row_fields_in_order(self):
        assert CSV_HEADER == (
            "rho,isnr_target_db,method,trial,seed,isnr_db,msnr_db,rsnr_db,support_exact,bits")

    @given(st.lists(_trial_rows, max_size=4))
    def test_parse_then_serialize_is_byte_identical(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "round_trip_rows.csv"
        text = rows_to_csv_text(rows)
        path.write_text(text)
        parsed = read_rows_csv(path)
        assert rows_to_csv_text(parsed) == text
        for row, back in zip(rows, parsed, strict=True):
            assert (back.rho, back.method, back.trial, back.seed, back.support_exact, back.bits) \
                == (row.rho, row.method, row.trial, row.seed, row.support_exact, row.bits)
            for name in ("isnr_target_db", "isnr_db", "msnr_db", "rsnr_db"):
                assert (getattr(back, name) is None) == (getattr(row, name) is None)

    def test_row_with_an_extra_column_is_an_error(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(CSV_HEADER + "\n2,40,oracle,0,111,41.2346,15.5,38.7654,true,,7\n")
        with pytest.raises(ValueError):
            read_rows_csv(path)


class TestWriteResults:
    def test_empty_result_is_header_only(self, tmp_path):
        res = _tiny_result()
        res.rows = []
        paths = write_results(res, tmp_path)
        assert Path(paths["rows"]).read_text() == CSV_HEADER + "\n"

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        (tmp_path / "rows.csv").write_text("earlier run\n")
        write_text = Path.write_text

        def write_half_then_fail(path, text, *args, **kwargs):
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="No space left"):
            write_results(_tiny_result(), tmp_path)
        monkeypatch.undo()
        assert (tmp_path / "rows.csv").read_text() == "earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]

    def test_round_trip_reproduces_rows(self, tmp_path):
        paths = write_results(_tiny_result(), tmp_path)
        rows = read_rows_csv(paths["rows"])
        assert len(rows) == 2
        assert rows[0].rsnr_db == pytest.approx(38.7654, rel=1e-9)
        assert rows[1].rsnr_db is None and not rows[1].support_exact
        # serializing the parsed rows again is byte-identical
        res2 = _tiny_result()
        res2.rows = rows
        paths2 = write_results(res2, tmp_path / "again")
        assert Path(paths2["rows"]).read_bytes() == Path(paths["rows"]).read_bytes()

    def test_summary_recomputable_from_persisted_rows(self, tmp_path):
        paths = write_results(_tiny_result(), tmp_path)
        recomputed = aggregate(read_rows_csv(paths["rows"]))
        stored = json.loads(Path(paths["summary"]).read_text())["points"]
        assert len(stored) == len(recomputed) == 1
        assert stored[0]["mean_rsnr_db"] == recomputed[0].mean_rsnr_db
        assert stored[0]["n_failed"] == 1

    def test_plot_data_columns(self, tmp_path):
        paths = write_results(_tiny_result(), tmp_path)
        lines = Path(paths["plot"]).read_text().splitlines()
        assert lines[0] == "method,isnr_target_db,log2_rho,mean_rsnr_db"
        assert lines[1].startswith("oracle,40,1,")

    def test_manifest_fields(self, tmp_path):
        paths = write_results(_tiny_result(), tmp_path, config_dict={"ambient_dim": 64})
        manifest = json.loads(Path(paths["manifest"]).read_text())
        assert manifest["tool_version"] == __version__
        assert manifest["master_seed"] == 1
        assert manifest["config_hash"] == config_hash({"ambient_dim": 64})
        assert set(manifest["output_paths"]) == {"rows", "summary", "plot"}


class TestCliMain:
    def test_unknown_subcommand_usage_error(self, capsys):
        code = main(["frobnicate"])
        assert code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_design_rules_prints_published_numbers(self, capsys):
        code = main(["design-rules", "--config",
                     str(REPO / "configs" / "design_rules_example.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "159.764" in out
        assert "22.03" in out
        assert "6.25924e+06" in out

    def test_design_rules_flag_overrides(self, tmp_path, capsys):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"ambient_dim": 64, "band_width": 64}))
        code = main(["design-rules", "--config", str(path)])
        assert code == 0
        assert "rho_cs:             1" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["noise-folding", "--config", str(REPO / "configs" / "noise_folding.json"),
         "--trials", "1", "--format", "json"],
        ["design-rules", "--kappa0", "1"],
    ])
    def test_removed_flags_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        code = main(["noise-folding", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 64, "mystery": 1}))
        assert main(["noise-folding", "--config", str(path)]) == 3

    def test_divisibility_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 8192, "rho_list": [3]}))
        assert main(["noise-folding", "--config", str(path)]) == 4

    def test_oracle_fewer_measurements_than_band_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 64, "band_width": 4, "rho_list": [2, 32],
                                    "methods": ["oracle"]}))
        assert main(["noise-folding", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "oracle" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("rho_list", [4, 4], "rho_list repeats a value"),
        ("isnr_targets_db", [40, 40.0], "isnr_targets_db repeats a value"),
        ("rho_list", [2.7], "every rho_list value must be an integer"),
        ("rho_list", [0], "every rho_list value must be >= 1"),
        ("band_width", 2.5, "band_width must be an integer"),
        ("trials_per_point", 2.5, "trials_per_point must be an integer"),
        ("master_seed", 1.5, "master_seed must be an integer"),
        ("band_width", True, "band_width must be an integer"),
        ("trials_per_point", True, "trials_per_point must be an integer"),
        ("quantizer", {"base_bits": 4.5}, "invalid quantizer: base_bits must be an integer"),
        ("isnr_targets_db", [True], "every isnr_targets_db value must be a real number"),
        ("isnr_targets_db", ["40"], "every isnr_targets_db value must be a real number"),
        ("measurement_noise_var", True, "measurement_noise_var must be a real number"),
        ("measurement_noise_var", "0.1", "measurement_noise_var must be a real number"),
        ("quantizer", {"base_bits": 4, "saturation": True},
         "invalid quantizer: saturation must be a real number"),
        ("quantizer", {"base_bits": 4, "saturation": "1"},
         "invalid quantizer: saturation must be a real number"),
        ("measurement_noise_var", float("nan"), "measurement_noise_var must be finite"),
        ("isnr_targets_db", [40, float("inf")], "every isnr_targets_db value must be finite"),
        ("quantizer", {"base_bits": 4, "saturation": float("nan")},
         "invalid quantizer: saturation must be finite"),
        ("quantizer", {"base_bits": 1100}, "invalid quantizer: base_bits must lie in [1, 53]"),
        ("quantizer", {"base_bits": 4, "saturation": 0.5},
         "invalid quantizer: saturation must be 1"),
        ("rho_list", 4, "rho_list must be a list"),
        ("isnr_targets_db", 60, "isnr_targets_db must be a list"),
        ("methods", "oracle", "methods must be a list"),
        ("methods", ["oracle", "oracle"], "methods repeats a value"),
        ("methods", [["oracle"]], "methods must be a nonempty subset"),
    ], ids=["repeated_rho", "repeated_isnr", "float_rho", "zero_rho", "float_band_width",
            "float_trials", "float_seed", "bool_band_width", "bool_trials", "float_base_bits",
            "bool_isnr", "string_isnr", "bool_noise_var", "string_noise_var",
            "bool_saturation", "string_saturation", "nan_noise_var", "inf_isnr",
            "nan_saturation", "huge_base_bits", "half_saturation", "scalar_rho",
            "scalar_isnr", "string_methods", "repeated_method", "nested_methods"])
    def test_bad_sweep_value_exit_code(self, key, value, message, tmp_path, capsys):
        cfg = {"ambient_dim": 64, "band_width": 2, "rho_list": [2, 4],
               "isnr_targets_db": [20, 40], key: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "o"
        assert main(["noise-folding", "--config", str(path), "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("config", [{"ambient_dim": "1e9"},
                                        {"ambient_dim": 10, "band_width": 20},
                                        {"kappa0": 0}, {"base_bits": 0},
                                        {"band_width": "4e5"}, {"base_bits": True},
                                        {"ambient_dim": float("nan")},
                                        {"kappa0": float("nan")},
                                        {"base_bits": float("inf")}])
    def test_design_rules_bad_config_exit_code(self, config, tmp_path, capsys):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(config))  # json spells the non-finite values NaN, Infinity
        assert main(["design-rules", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(key in err for key in config)

    def test_design_rules_report_keeps_config_values(self, tmp_path, capsys):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"ambient_dim": 64, "band_width": 4, "base_bits": 8}))
        report = tmp_path / "report.json"
        assert main(["design-rules", "--config", str(path), "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert (data["ambient_dim"], data["band_width"], data["base_bits"]) == (64, 4, 8)
        assert all(type(data[key]) is int for key in ("ambient_dim", "band_width", "base_bits"))

    def test_malformed_json_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"ambient_dim": 64,')
        out_dir = tmp_path / "o"
        assert main(["noise-folding", "--config", str(path), "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("value, message", [("abc", "CSLAB_THREADS must be an integer"),
                                                ("-1", "CSLAB_THREADS must be >= 0")])
    def test_bad_worker_count_exit_code(self, value, message, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("cslab.cli.run_sweep", no_sweep)
        monkeypatch.setenv("CSLAB_THREADS", value)
        out_dir = tmp_path / "o"
        code = main(["noise-folding", "--config", str(REPO / "configs" / "noise_folding.json"),
                     "--out", str(out_dir)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_bandpass_with_quantizer_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 64, "band_width": 2, "rho_list": [2],
                                    "methods": ["oracle", "bandpass"],
                                    "quantizer": {"base_bits": 4}}))
        out_dir = tmp_path / "o"
        assert main(["quantizer-sweep", "--config", str(path), "--out", str(out_dir)]) == 3
        assert "bandpass" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unusable_out_fails_before_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("cslab.cli.run_sweep", no_sweep)
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        code = main(["noise-folding", "--config", str(REPO / "configs" / "noise_folding.json"),
                     "--out", str(blocker / "results")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_seed_repeatability_and_env_workers(self, tmp_path, capsys, monkeypatch,
                                                started_workers):
        cfg = {"ambient_dim": 128, "band_width": 2, "rho_list": [2, 4],
               "isnr_targets_db": [40.0], "trials_per_point": 10,
               "methods": ["oracle"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        outputs = []
        for run, workers in (("a", "1"), ("b", "2")):
            monkeypatch.setenv("CSLAB_THREADS", workers)
            out_dir = tmp_path / run
            code = main(["noise-folding", "--config", str(path), "--seed", "9",
                         "--out", str(out_dir)])
            assert code == 0
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("rows.csv", "summary.json", "plotdata.csv")])
            environment = json.loads((out_dir / "manifest.json").read_text())["environment"]
            assert environment == {
                "workers": int(workers),
                "blas_thread_env": {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "1"},
                "affinity_cpus": experiments._affinity_cpus(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            }
        assert len(started_workers()) == 2  # the serial run starts none
        assert outputs[0] == outputs[1]

    def test_trials_override(self, tmp_path, capsys):
        cfg = {"ambient_dim": 128, "band_width": 2, "rho_list": [2],
               "isnr_targets_db": [40.0], "trials_per_point": 50, "methods": ["oracle"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["noise-folding", "--config", str(path), "--trials", "3",
                     "--out", str(out_dir)]) == 0
        assert len(read_rows_csv(out_dir / "rows.csv")) == 3

    def test_rip_estimate_smoke(self, capsys):
        code = main(["rip-estimate", "--ambient-dim", "32", "--measurements", "12",
                     "--sparsity", "2", "--mode", "exhaustive", "--seed", "11"])
        assert code == 0
        assert "delta_hat" in capsys.readouterr().out

    def test_dynamic_range_smoke(self, tmp_path, capsys):
        report = tmp_path / "dr.json"
        code = main(["dynamic-range", "--bits", "8", "--target-snr", "100",
                     "--ambient-dim", "64", "--band-width", "2", "--out", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["empirical"]["dr_linear"] >= data["closed_form"]["dr_linear"]
        assert "saturation" not in data  # the quantizer's full scale is 1

    def test_dynamic_range_cs_path_smoke(self, tmp_path, capsys):
        report = tmp_path / "dr.json"
        code = main(["dynamic-range", "--bits", "8", "--target-snr", "100", "--path", "cs",
                     "--ambient-dim", "64", "--rho", "4", "--out", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["path"] == "cs"
        assert data["empirical"]["beta_min"] < data["empirical"]["beta_max"]

    @pytest.fixture
    def no_compute(self, monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("a spectrum was drawn")

        monkeypatch.setattr("cslab.cli.signal_model.generate_bandlimited", no_compute)

    @pytest.mark.parametrize("rho, exit_code", [(0, 3), (3, 4), (512, 4), (128, 3)])
    def test_dynamic_range_cs_bad_rho_exit_code(self, rho, exit_code, capsys, no_compute):
        code = main(["dynamic-range", "--bits", "8", "--target-snr", "100", "--path", "cs",
                     "--ambient-dim", "256", "--rho", str(rho)])
        assert code == exit_code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("path", ["conventional", "cs"])
    @pytest.mark.parametrize("flags, key", [(["--bits", "0"], "base_bits"),
                                            (["--band-width", "0"], "band_width"),
                                            (["--ambient-dim", "2"], "band_width")])
    def test_dynamic_range_bad_value_exit_code(self, path, flags, key, capsys, no_compute):
        code = main(["dynamic-range", "--bits", "8", "--target-snr", "100", "--path", path,
                     "--rho", "1", *flags])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("path", ["conventional", "cs"])
    @pytest.mark.parametrize("bits", [54, 1100])
    def test_dynamic_range_bits_beyond_float_exit_code(self, path, bits, capsys, no_compute):
        code = main(["dynamic-range", "--bits", str(bits), "--target-snr", "100",
                     "--path", path])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "base_bits" in err

    def test_dynamic_range_cs_path_takes_bits_as_given(self, tmp_path, capsys):
        # a sweep anchored at 52 base bits would need 56 at rho 8; --bits is the depth itself
        report = tmp_path / "dr.json"
        code = main(["dynamic-range", "--bits", "52", "--target-snr", "100", "--path", "cs",
                     "--ambient-dim", "64", "--rho", "8", "--out", str(report)])
        assert code == 0
        assert json.loads(report.read_text())["bits"] == 52

    @pytest.mark.parametrize("flags, build", [
        (["--distribution", "subsampled_dct"],
         lambda: sensing.generate_subsampled_dct_ensemble(12, 32, 11)),
        (["--orthogonalize"],
         lambda: sensing.orthogonalize_rows(sensing.generate_ensemble(12, 32, "gaussian", 11))),
        (["--distribution", "subsampled_dct", "--orthogonalize"],
         lambda: sensing.generate_subsampled_dct_ensemble(12, 32, 11)),
    ], ids=["subsampled_dct", "orthogonalized_gaussian", "orthogonalized_subsampled_dct"])
    def test_rip_estimate_ensembles(self, flags, build, tmp_path, capsys):
        report = tmp_path / "rip.json"
        code = main(["rip-estimate", "--ambient-dim", "32", "--measurements", "12",
                     "--sparsity", "2", "--seed", "11", *flags, "--out", str(report)])
        assert code == 0
        expected = sensing.estimate_rip_constant(build(), 2, mode="sampled", n_supports=200,
                                                 rng_seed=11)
        assert json.loads(report.read_text())["delta_hat"] == expected
        assert f"delta_hat = {expected:.6f} (lower bound, order 2)" in capsys.readouterr().out

    def test_rip_estimate_zero_supports_is_an_error(self, capsys):
        code = main(["rip-estimate", "--ambient-dim", "32", "--measurements", "12",
                     "--sparsity", "2", "--n-supports", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: n_supports must be >= 1\n"

    def test_noise_free_summary_is_strict_json(self, tmp_path):
        # nothing perturbs the measurements, so every MSNR is infinite
        cfg = {"ambient_dim": 64, "band_width": 2, "rho_list": [2, 4], "trials_per_point": 2,
               "methods": ["oracle"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["noise-folding", "--config", str(path), "--out", str(out_dir)]) == 0

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        points = json.loads((out_dir / "summary.json").read_text(), parse_constant=refuse)
        assert [p["mean_msnr_db"] for p in points["points"]] == [None, None]
        assert {r.msnr_db for r in read_rows_csv(out_dir / "rows.csv")} == {math.inf}

    def test_quantizer_sweep_smoke(self, tmp_path, capsys):
        cfg = {"ambient_dim": 128, "band_width": 2, "rho_list": [1, 2], "isnr_targets_db": [],
               "trials_per_point": 3, "methods": ["oracle", "cosamp"],
               "quantizer": {"base_bits": 4}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["quantizer-sweep", "--config", str(path), "--out", str(out_dir)]) == 0
        rows = read_rows_csv(out_dir / "rows.csv")
        bits = {r.rho: r.bits for r in rows}
        assert bits == {1: 4, 2: 5}  # anchor, then one octave along the trend

    def test_quantizer_sweep_past_the_bit_bound_exit_code(self, tmp_path, capsys):
        # 51 base bits is in bounds, but the trend asks for 54 at rho 4
        cfg = {"ambient_dim": 64, "band_width": 2, "rho_list": [1, 2, 4], "trials_per_point": 2,
               "methods": ["oracle"], "quantizer": {"base_bits": 51}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["quantizer-sweep", "--config", str(path), "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err == "error: base_bits=51 needs 54 bits at rho=4; the most is 53\n"
        assert not out_dir.exists()

    def test_sweep_prints_bits_and_the_written_summary(self, tmp_path, capsys, monkeypatch):
        cfg = {"ambient_dim": 128, "band_width": 2, "rho_list": [1, 2], "trials_per_point": 2,
               "methods": ["oracle"], "quantizer": {"base_bits": 4}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        read_back = []
        read_text = Path.read_text

        def recorded(self, *args, **kwargs):
            read_back.append(self.name)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", recorded)
        assert main(["quantizer-sweep", "--config", str(path), "--out", str(out_dir)]) == 0
        assert "summary.json" not in read_back
        monkeypatch.undo()
        lines = capsys.readouterr().out.splitlines()
        (rho_1,) = [line for line in lines if line.startswith("rho=    1 ")]
        assert " bits=4 " in rho_1
        (point,) = [p for p in json.loads((out_dir / "summary.json").read_text())["points"]
                    if p["rho"] == 1]
        assert f"mean_rsnr_db={point['mean_rsnr_db']} " in rho_1

    def test_quantizer_config_without_targets_has_no_signal_noise(self, tmp_path, capsys):
        cfg = {"ambient_dim": 128, "band_width": 2, "rho_list": [1, 2], "trials_per_point": 3,
               "methods": ["oracle"], "quantizer": {"base_bits": 4}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["quantizer-sweep", "--config", str(path), "--out", str(out_dir)]) == 0
        rows = read_rows_csv(out_dir / "rows.csv")
        assert len(rows) == 6
        assert all(r.isnr_target_db is None and r.isnr_db is None for r in rows)

    def test_both_sweep_subcommands_write_identical_outputs(self, tmp_path, capsys):
        cfg = {"ambient_dim": 128, "band_width": 2, "rho_list": [1, 2],
               "isnr_targets_db": [40.0], "trials_per_point": 3, "methods": ["oracle", "cosamp"],
               "quantizer": {"base_bits": 4}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outputs = []
        for command in ("noise-folding", "quantizer-sweep"):
            out_dir = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out_dir)]) == 0
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("rows.csv", "summary.json", "plotdata.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [
        ["dynamic-range", "--bits", "8", "--target-snr", "100", "--ambient-dim", "64",
         "--band-width", "2"],
        ["rip-estimate", "--ambient-dim", "32", "--measurements", "12", "--sparsity", "2"],
        ["design-rules"],
    ])
    def test_failed_report_write_keeps_earlier_report(self, argv, tmp_path, capsys, monkeypatch):
        report = tmp_path / "report.json"
        report.write_text("earlier report\n")
        write_text = Path.write_text

        def write_half_then_fail(path, text, *args, **kwargs):
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        assert main(argv + ["--out", str(report)]) == 1
        monkeypatch.undo()
        assert "No space left" in capsys.readouterr().err
        assert report.read_text() == "earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_design_rules_report_fields(self, tmp_path, capsys):
        report = tmp_path / "rules.json"
        assert main(["design-rules", "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert list(data) == ["ambient_dim", "band_width", "kappa0", "base_bits", "rho_max",
                              "rho_cs", "noise_figure_db", "bit_gain", "projected_bits",
                              "projected_dr_db", "reduced_rate_hz"]
        assert data["reduced_rate_hz"] == pytest.approx(data["ambient_dim"] / data["rho_cs"])
