"""Command-line interface tests: subcommand wiring, artifacts, exit codes."""

import json

import numpy as np
import pytest

from quactrng import __version__, build_device, calibrated_variation
from quactrng.cli import main
from quactrng.config import DeviceConfig
from quactrng.entropy import build_sib_plan, characterize


def run(tmp_path, *argv):
    return main(["--output-dir", str(tmp_path), *argv])


def test_device_build(tmp_path):
    assert run(tmp_path, "device", "build") == 0
    cfg = json.loads((tmp_path / "device.json").read_text())
    assert cfg["variation"]["first_row_weight"] == pytest.approx(3.1526)
    assert {"tool_version", "config_hash", "master_seed"} <= cfg.keys()
    # --config reads the stamped file back to the same configuration
    assert DeviceConfig.from_json(tmp_path / "device.json") == \
        DeviceConfig(variation=calibrated_variation())


def test_model_storage_artifact_stamped(tmp_path):
    assert run(tmp_path, "model", "storage") == 0
    data = json.loads((tmp_path / "storage.json").read_text())
    assert data["total_bits"] == 1316
    assert data["tool_version"] == __version__
    assert "config_hash" in data and "master_seed" in data


def test_model_schedule_and_project(tmp_path):
    assert run(tmp_path, "model", "schedule") == 0
    reports = json.loads(
        (tmp_path / "model_schedule.json").read_text())["reports"]
    by_mode = {r["mode"]: r for r in reports}
    assert by_mode["rc-bgp"]["throughput_gbps"] == pytest.approx(3.44,
                                                                 rel=0.15)
    assert run(tmp_path, "model", "project", "--rates", "2400,12000") == 0
    table = json.loads((tmp_path / "projection.json").read_text())["table"]
    assert table["12000"]["quac_vs_talukder-enhanced"] == pytest.approx(
        2.03, rel=0.2)


def test_characterize_ranks_patterns(tmp_path):
    assert run(tmp_path, "characterize", "--patterns", "0111,1011",
               "--segments", "16", "--trials", "300") == 0
    lines = (tmp_path / "characterize.csv").read_text().splitlines()
    assert lines[1].startswith("0111,")


def test_characterize_profiles_top_ranked_pattern(tmp_path):
    assert run(tmp_path, "characterize", "--patterns", "all", "--spatial",
               "--segments", "64") == 0
    lines = (tmp_path / "characterize.csv").read_text().splitlines()
    top = lines[1].split(",")[0]
    profile = json.loads((tmp_path / "spatial_profile.json").read_text())
    assert profile["pattern"] == top
    device = build_device(variation=calibrated_variation())
    expected = characterize(device, top, range(64)).segment_entropy
    series = (tmp_path / "segment_series.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in series] == \
        [f"{h:.4f}" for h in expected]


def test_generate_and_test_roundtrip(tmp_path):
    device = build_device(variation=calibrated_variation())
    emap = characterize(device, "0111", range(256), trials=1000)
    plan = build_sib_plan([emap], bins=[(30.0, 90.0)])
    (tmp_path / "plan.json").write_text(json.dumps(plan.to_dict()))
    assert run(tmp_path, "generate", "--bits", "100000",
               "--plan", str(tmp_path / "plan.json"), "--ascii") == 0
    assert (tmp_path / "bits.bin").stat().st_size == 12500
    ascii_bits = (tmp_path / "bits.txt").read_text().strip()
    assert set(ascii_bits) <= {"0", "1"} and len(ascii_bits) == 100000
    assert run(tmp_path, "test", "--input", str(tmp_path / "bits.bin")) == 0
    report = json.loads((tmp_path / "sts.json").read_text())
    assert all(r["pass"] for r in report["results"])


def test_generate_loads_stamped_plan(tmp_path):
    assert run(tmp_path, "plan", "--segments", "16", "--bins", "1",
               "--trials", "300") == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert {"tool_version", "config_hash", "master_seed"} <= plan.keys()
    assert run(tmp_path, "generate", "--plan", str(tmp_path / "plan.json"),
               "--bits", "4096") == 0


@pytest.mark.parametrize("bad", [[0, 65537], [512, 512]])
def test_generate_refuses_plan_range_outside_row(tmp_path, bad):
    plan = {"bins": [[30.0, 90.0]],
            "entries": [{"segment": [0, 0, 100],
                         "ranges": [[0, 512, 300.0], [*bad, 300.0]]}]}
    (tmp_path / "bad.json").write_text(json.dumps(plan))
    assert run(tmp_path, "generate", "--plan", str(tmp_path / "bad.json"),
               "--bits", "4096") == 1
    assert not (tmp_path / "bits.bin").exists()


@pytest.mark.parametrize("pattern", ["011", "0121"])
def test_generate_refuses_plan_pattern(tmp_path, pattern):
    plan = {"pattern": pattern, "bins": [[30.0, 90.0]],
            "entries": [{"segment": [0, 0, 100], "ranges": [[0, 512, 300.0]]}]}
    (tmp_path / "bad.json").write_text(json.dumps(plan))
    assert run(tmp_path, "generate", "--plan", str(tmp_path / "bad.json"),
               "--bits", "4096") == 1
    assert not (tmp_path / "bits.bin").exists()


@pytest.mark.parametrize("plan, part", [
    ([], "plan"),
    ({"entries": []}, "plan bins"),
    ({"bins": [[30.0, 90.0]], "entries": []}, "plan entries"),
    ({"bins": [[30.0, 90.0]], "entries": [[0, 0, 100]]}, "plan entries[0]"),
    ({"bins": [[30.0, 90.0]],
      "entries": [{"segment": [0, 100], "ranges": []}]}, "plan entries[0]"),
    ({"bins": [[30.0, 90.0]],
      "entries": [{"segment": [0, 0, 100], "ranges": [[0, 512]]}]},
     "plan entries[0]"),
    ({"bins": [[30.0, 90.0]],
      "entries": [{"segment": [0, 0, 100], "ranges": [[0.5, 100, 300.0]]}]},
     "plan entries[0]"),
    ({"bins": [[90.0, 30.0]],
      "entries": [{"segment": [0, 0, 100], "ranges": [[0, 512, 300.0]]}]},
     "plan bins"),
    ({"pattern": 5, "bins": [[30.0, 90.0]],
      "entries": [{"segment": [0, 0, 100], "ranges": [[0, 512, 300.0]]}]},
     "plan pattern"),
], ids=["list", "no_bins", "entry_count", "entry_list", "short_segment",
        "short_range", "float_range_bound", "inverted_bin", "number_pattern"])
def test_generate_refuses_malformed_plan(tmp_path, capsys, plan, part):
    (tmp_path / "bad.json").write_text(json.dumps(plan))
    assert run(tmp_path, "generate", "--plan", str(tmp_path / "bad.json"),
               "--bits", "4096") == 1
    assert not (tmp_path / "bits.bin").exists()
    assert capsys.readouterr().err.startswith(f"error: {part}:")


def test_generate_reproducible(tmp_path):
    device = build_device(variation=calibrated_variation())
    emap = characterize(device, "0111", range(64), trials=1000)
    plan = build_sib_plan([emap], bins=[(30.0, 90.0)])
    (tmp_path / "plan.json").write_text(json.dumps(plan.to_dict()))
    for name in ("a.bin", "b.bin"):
        assert run(tmp_path, "generate", "--bits", "50000",
                   "--plan", str(tmp_path / "plan.json"),
                   "--out", name) == 0
    assert (tmp_path / "a.bin").read_bytes() == \
        (tmp_path / "b.bin").read_bytes()


def test_test_command_fails_bad_stream(tmp_path):
    (tmp_path / "zeros.bin").write_bytes(bytes(2000))
    assert run(tmp_path, "test", "--input", str(tmp_path / "zeros.bin")) == 1


def test_test_command_one_zero_byte(tmp_path, capsys):
    (tmp_path / "zero.bin").write_bytes(bytes(1))
    assert run(tmp_path, "test", "--input", str(tmp_path / "zero.bin")) == 1
    results = json.loads((tmp_path / "sts.json").read_text())["results"]
    assert {r["test"]: r["p_value"] for r in results}["runs"] == 0.0
    assert "Traceback" not in capsys.readouterr().err


def test_plan_without_bins_is_an_error(tmp_path, capsys):
    assert run(tmp_path, "plan", "--bins", "0", "--segments", "4",
               "--trials", "10") == 1
    assert not (tmp_path / "plan.json").exists()
    assert "need at least one entropy map" in capsys.readouterr().err


def test_plan_with_inverted_temperature_range_is_an_error(tmp_path, capsys):
    assert run(tmp_path, "plan", "--temp-low", "90", "--temp-high", "30",
               "--segments", "4", "--trials", "10") == 1
    assert not (tmp_path / "plan.json").exists()
    assert capsys.readouterr().err.startswith("error: temperature range:")


def test_malformed_config_is_an_error(tmp_path, capsys):
    (tmp_path / "c.json").write_text("[]")
    assert run(tmp_path, "--config", str(tmp_path / "c.json"),
               "device", "build") == 1
    assert not (tmp_path / "device.json").exists()
    assert capsys.readouterr().err.startswith("error: config")
    # a noiseless profile could never be characterized
    (tmp_path / "c.json").write_text(
        '{"variation": {"thermal_noise_sigma": 0.0}}')
    assert run(tmp_path, "--config", str(tmp_path / "c.json"),
               "device", "build") == 1
    assert not (tmp_path / "device.json").exists()
    assert capsys.readouterr().err.startswith(
        "error: thermal_noise_sigma: must be > 0")


@pytest.mark.parametrize("config, argv", [
    (None, ["characterize", "--temperature", "nan"]),
    (None, ["characterize", "--method", "analytic", "--temperature", "nan"]),
    ({"temp_coefficient_per_chip": float("nan")},
     ["characterize", "--method", "analytic"]),
    ({"spatial_wave_amplitude": float("inf")}, ["device", "build"]),
])
def test_non_finite_input_is_an_error(tmp_path, capsys, config, argv):
    if config:      # json writes NaN and Infinity, and reads them back
        (tmp_path / "c.json").write_text(json.dumps({"variation": config}))
        argv = ["--config", str(tmp_path / "c.json"), *argv]
    assert run(tmp_path, *argv) == 1
    assert {p.name for p in tmp_path.iterdir()} <= {"c.json"}
    field = next(iter(config or {"temperature": None}))
    assert capsys.readouterr().err.startswith(f"error: {field}:")


def test_domain_error_exit_code(tmp_path):
    assert run(tmp_path, "test", "--input",
               str(tmp_path / "missing.bin")) == 1


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QUACTRNG_OUTPUT_DIR", str(tmp_path / "envdir"))
    assert main(["model", "storage"]) == 0
    assert (tmp_path / "envdir" / "storage.json").exists()
