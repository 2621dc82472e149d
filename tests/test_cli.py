import csv
import hashlib
import json
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from omegance import reference_trajectory, run_sampler, standard_normal
from omegance.cli import main
from omegance.formats import read_pgm, read_snapshot, write_pgm
from omegance.samplers import NumericAbortError, SamplerConfig


def ddim_sampler(**schedule):
    return {"kind": "ddim", "steps": 5, "schedule": {"num_steps": 50, **schedule}}


def euler_sampler(**schedule):
    return {"kind": "euler", "steps": 5, "schedule": schedule}


# configs that pass the key and type checks but that a constructor rejects
REJECTED_CONFIGS = {
    "beta_start_above_beta_end": ("sample", {"sampler": ddim_sampler(beta_start=0.02, beta_end=0.01)}),
    "one_step_beta_schedule": ("sample", {"sampler": dict(ddim_sampler(num_steps=1), steps=1)}),
    "sigma_min_at_sigma_max": ("sample", {"sampler": euler_sampler(sigma_min=2.0, sigma_max=2.0)}),
    "rho_zero": ("sample", {"sampler": euler_sampler(rho=0.0)}),
    "rho_tiny": ("sample", {"sampler": euler_sampler(rho=1e-4)}),
    "negative_churn": ("sample", {"sampler": euler_sampler(churn=-0.1)}),
    "preset_name_as_list": ("sample", {"omega": {"values": [1.0], "schedule": {"kind": "preset", "name": ["COS2"]}}}),
    "mask_path_as_number": ("sample", {"omega": {"values": [1.0], "mask": {"path": 3}}}),
    "mask_path_is_a_directory": ("sample", {"omega": {"values": [1.0], "mask": {"path": "."}}}),
    "negative_seed": ("sample", {"seeds": [-1]}),
    "spectrum_below_4x4": ("spectrum", {"latent": {"shape": [3, 8]}}),
    "oversize_latent": ("sample", {"latent": {"shape": [10**30, 10**30]}}),
    "oversize_latent_spectrum": ("spectrum", {"latent": {"shape": [100000, 100000]}}),
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def sample_config(tmp_path, **overrides):
    data = {
        "sampler": {
            "kind": "ddim",
            "steps": 5,
            "schedule": {"num_steps": 50},
            "snapshots": [0, 5],
        },
        "omega": {"values": [0.95, 1.0]},
        "oracle": {"kind": "standard_normal"},
        "latent": {"shape": [8, 8]},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    return data


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


@pytest.mark.parametrize("command, overrides", REJECTED_CONFIGS.values(), ids=list(REJECTED_CONFIGS))
def test_rejected_config_exits_2_and_writes_nothing(tmp_path, capsys, command, overrides):
    config = write_config(tmp_path, sample_config(tmp_path, **overrides))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


def check_numeric_abort(tmp_path, monkeypatch, command):
    """Only the (seed 1, omega index 1) cell aborts: exit 3 and an aborted manifest naming it.

    The manifest lists, with checksums, exactly the files the run wrote: those
    of the cells before the abort and, with two threads, of cell (seed 2,
    omega index 0), held in flight until after the abort, but not a file an
    earlier run left in the output directory.
    """
    in_flight = threading.Event()

    def explode(denoiser, config, z_init):
        if config.seed == 1 and config.control.base == 1.0:
            if threads == "2":
                assert in_flight.wait(timeout=10)
            raise NumericAbortError(4, "non-finite latent after step 4")
        if config.seed == 2 and config.control.base == 0.95:
            in_flight.set()
            time.sleep(0.1)
        return run_sampler(denoiser, config, z_init)

    monkeypatch.setattr("omegance.cli.run_sampler", explode)
    config = write_config(tmp_path, sample_config(tmp_path, seeds=[0, 1, 2]))
    stale = "seed9_omega0_final.bin"
    for threads in ("1", "2"):
        in_flight.clear()
        out = tmp_path / f"out{threads}"
        out.mkdir()
        (out / stale).write_bytes(b"left by an earlier run")
        assert main([command, "--config", str(config), "--out", str(out), "--threads", threads]) == 3
        manifest = read_manifest(out)
        assert manifest["command"] == command
        assert manifest["status"] == "aborted"
        assert manifest["aborted_at_step"] == 4
        assert manifest["error"] == "non-finite latent after step 4"
        assert manifest["aborted_cell"] == {"seed": 1, "omega_index": 1}
        written = sorted(path.name for path in out.iterdir() if path.name not in (stale, "manifest.json"))
        assert manifest["artifacts"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written
        }
        if command == "spectrum":
            assert written == []
            continue
        cells = [(0, 0), (0, 1), (1, 0)] + ([(2, 0)] if threads == "2" else [])
        for seed, idx in cells:
            assert {f"seed{seed}_omega{idx}_step0000.bin", f"seed{seed}_omega{idx}_final.bin"} <= set(written)
        if threads == "1":
            assert len(written) == 3 * 3


class TestSampleCommand:
    def test_cell_product_and_manifest(self, tmp_path):
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config)]) == 0
        out = tmp_path / "out"
        manifest = read_manifest(out)
        # 2 seeds x 2 omegas x (2 snapshots + 1 final) trajectory files
        assert len(manifest["artifacts"]) == 12
        assert manifest["status"] == "ok"
        assert manifest["command"] == "sample"
        values, step = read_snapshot(out / "seed0_omega0_final.bin")
        assert step == 5 and values.shape == (8, 8)

    def test_no_snapshots_yields_final_only(self, tmp_path):
        data = sample_config(tmp_path)
        data["sampler"].pop("snapshots")
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert len(manifest["artifacts"]) == 4

    def test_rerun_reproduces_checksums(self, tmp_path):
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        first = read_manifest(tmp_path / "a")["artifacts"]
        second = read_manifest(tmp_path / "b")["artifacts"]
        assert first == second

    def test_threads_record_every_written_file(self, tmp_path):
        # cells on many threads append to one list of written files; a short
        # switch interval makes a lost append show as a missing manifest entry
        data = sample_config(tmp_path, seeds=list(range(12)), latent={"shape": [4, 4]})
        config = write_config(tmp_path, data)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert main(["sample", "--config", str(config), "--threads", "8"]) == 0
        finally:
            sys.setswitchinterval(interval)
        out = tmp_path / "out"
        on_disk = {path.name for path in out.iterdir()} - {"manifest.json"}
        assert len(on_disk) == 12 * 2 * 3
        assert set(read_manifest(out)["artifacts"]) == on_disk

    def test_thread_count_does_not_change_artifacts(self, tmp_path):
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "one")]) == 0
        assert main(
            ["sample", "--config", str(config), "--out", str(tmp_path / "four"), "--threads", "4"]
        ) == 0
        assert (
            read_manifest(tmp_path / "one")["artifacts"]
            == read_manifest(tmp_path / "four")["artifacts"]
        )

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMEGANCE_THREADS", "2")
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config)]) == 0
        monkeypatch.setenv("OMEGANCE_THREADS", "zero")
        assert main(["sample", "--config", str(config)]) == 2

    def test_seeds_override(self, tmp_path):
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config), "--seeds", "7"]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert all(name.startswith("seed7_") for name in manifest["artifacts"])
        assert main(["sample", "--config", str(config), "--seeds", "7,7"]) == 2
        assert main(["sample", "--config", str(config), "--seeds", "-1"]) == 2

    def test_identity_omega_matches_reference_run_bytes(self, tmp_path):
        data = sample_config(tmp_path, omega={"values": [1.0]}, seeds=[3])
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        written, step = read_snapshot(tmp_path / "out" / "seed3_omega0_final.bin")

        from omegance import alpha_bar_from_betas, make_linear_beta

        schedule = alpha_bar_from_betas(make_linear_beta(50))
        init = np.random.default_rng(np.random.SeedSequence(3).spawn(2)[0]).standard_normal((8, 8))
        cfg = SamplerConfig("ddim", 5, schedule, seed=3)
        reference = reference_trajectory(standard_normal(), cfg, init)
        assert step == 5
        assert written.tobytes() == reference.final.values.tobytes()

    def test_csv_snapshot_format(self, tmp_path):
        data = sample_config(tmp_path, snapshot_format="csv", seeds=[0], omega={"values": [1.0]})
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        with open(tmp_path / "out" / "seed0_omega0_final.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["flat_index", "value"]
        assert len(rows) == 1 + 64

    def test_euler_sampler_with_churn(self, tmp_path):
        data = sample_config(
            tmp_path,
            sampler={
                "kind": "euler",
                "steps": 6,
                "schedule": {"sigma_min": 0.1, "sigma_max": 8.0, "churn": 0.4},
                "snapshots": [0, 6],
            },
            seeds=[2],
            omega={"values": [0.95]},
        )
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        initial, _ = read_snapshot(tmp_path / "out" / "seed2_omega0_step0000.bin")
        # variance-exploding runs start at the first sigma level, not unit scale
        assert float(np.std(initial)) > 4.0
        final, step = read_snapshot(tmp_path / "out" / "seed2_omega0_final.bin")
        assert step == 6 and np.all(np.isfinite(final))

    def test_flow_sampler_runs(self, tmp_path):
        data = sample_config(
            tmp_path,
            sampler={"kind": "flow", "steps": 8, "snapshots": [8]},
            seeds=[0],
            omega={"values": [1.2]},
        )
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        final, step = read_snapshot(tmp_path / "out" / "seed0_omega0_final.bin")
        assert step == 8 and final.shape == (8, 8)

    def test_gaussian_field_init(self, tmp_path):
        data = sample_config(
            tmp_path,
            init={"kind": "gaussian_field", "exponent": -2.0},
            seeds=[0],
            omega={"values": [1.0]},
        )
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        initial, _ = read_snapshot(tmp_path / "out" / "seed0_omega0_step0000.bin")
        # the field generator pins the DC amplitude to zero
        assert abs(float(initial.mean())) < 1e-12

    def test_one_dimensional_latent(self, tmp_path):
        data = sample_config(tmp_path, latent={"shape": [32]}, seeds=[0], omega={"values": [0.9]})
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        values, _ = read_snapshot(tmp_path / "out" / "seed0_omega0_final.bin")
        assert values.shape == (1, 32)  # vectors are stored as a single row

    def test_config_error_exit_code(self, tmp_path):
        config = write_config(tmp_path, sample_config(tmp_path, bogus_key=1))
        assert main(["sample", "--config", str(config)]) == 2
        assert main(["sample", "--config", str(tmp_path / "missing.json")]) == 2

    def test_non_finite_config_number_exit_code(self, tmp_path):
        text = json.dumps(sample_config(tmp_path)).replace("[0.95, 1.0]", "[NaN, 1.0]")
        assert "NaN" in text
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main(["sample", "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()

    def test_numeric_abort_exit_code_and_manifest(self, tmp_path, monkeypatch):
        check_numeric_abort(tmp_path, monkeypatch, "sample")

    def test_overflow_abort_emits_no_numpy_warning(self, tmp_path):
        config = write_config(tmp_path, sample_config(tmp_path, omega={"values": [1e300, 1.0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sample", "--config", str(config)]) == 3
        manifest = read_manifest(tmp_path / "out")
        assert manifest["status"] == "aborted"
        assert manifest["aborted_cell"] == {"seed": 0, "omega_index": 0}

    def test_failed_manifest_write_keeps_the_previous_manifest(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config)]) == 0
        out = tmp_path / "out"
        before = (out / "manifest.json").read_bytes()
        on_disk = sorted(path.name for path in out.iterdir())
        write_text = Path.write_text

        def fail_midway(path, data, *args, **kwargs):
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", fail_midway)
        with pytest.raises(OSError, match="no space left"):
            main(["sample", "--config", str(config), "--seeds", "1"])
        assert (out / "manifest.json").read_bytes() == before
        assert sorted(path.name for path in out.iterdir()) == on_disk


class TestSnrCommand:
    def config(self, tmp_path, omegas):
        return write_config(
            tmp_path,
            {
                "sampler": {"kind": "ddim", "steps": 5, "schedule": {"num_steps": 60}},
                "omega": {"values": omegas},
                "oracle": {"kind": "standard_normal"},
                "latent": {"shape": [4, 4]},
                "seeds": [0],
                "output_dir": str(tmp_path / "out"),
            },
        )

    def read_rows(self, tmp_path):
        with open(tmp_path / "out" / "snr.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_unit_omega_deviation_is_tiny(self, tmp_path):
        assert main(["snr", "--config", str(self.config(tmp_path, [1.0]))]) == 0
        rows = self.read_rows(tmp_path)
        assert len(rows) == 59  # steps t = 2..60
        assert all(float(row["rel_deviation"]) <= 1e-12 for row in rows)

    def test_routes_agree_and_orderings_hold(self, tmp_path):
        assert main(["snr", "--config", str(self.config(tmp_path, [0.9, 1.1]))]) == 0
        rows = self.read_rows(tmp_path)
        assert all(float(row["rel_deviation"]) <= 1e-9 for row in rows)
        low = {row["t"]: float(row["snr_analytic"]) for row in rows if row["omega"] == "0.9"}
        high = {row["t"]: float(row["snr_analytic"]) for row in rows if row["omega"] == "1.1"}
        assert low.keys() == high.keys()
        assert all(low[t] < high[t] for t in low)
        manifest = read_manifest(tmp_path / "out")
        assert manifest["max_relative_deviation"] <= 1e-9

    def test_requires_ddim(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sampler": {"kind": "flow", "steps": 5},
                "omega": {"values": [1.0]},
                "oracle": {"kind": "standard_normal"},
                "latent": {"shape": [4, 4]},
                "seeds": [0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["snr", "--config", str(config)]) == 2


class TestSpectrumCommand:
    def test_band_ordering_flagged(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sampler": {"kind": "ddim", "steps": 10, "schedule": {"num_steps": 100}, "snapshots": [10]},
                "omega": {"values": [0.95, 1.0, 1.05]},
                "oracle": {"kind": "standard_normal"},
                "latent": {"shape": [16, 16]},
                "seeds": [0, 1, 2],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["spectrum", "--config", str(config)]) == 0
        out = tmp_path / "out"
        with open(out / "ordering.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["high_band_strictly_decreasing_in_omega"] == "true"
        with open(out / "bands.csv", newline="") as fh:
            bands = list(csv.DictReader(fh))
        assert len(bands) == 3
        manifest = read_manifest(out)
        assert manifest["high_band_ordering_final"] == "pass"
        assert "spectrum.csv" in manifest["artifacts"]

    def test_defaults_to_final_snapshot(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sampler": {"kind": "ddim", "steps": 5, "schedule": {"num_steps": 50}},
                "omega": {"values": [1.0]},
                "oracle": {"kind": "standard_normal"},
                "latent": {"shape": [8, 8]},
                "seeds": [0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["spectrum", "--config", str(config)]) == 0
        with open(tmp_path / "out" / "bands.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["step"] for row in rows] == ["5"]

    def test_requires_2d_latent(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sampler": {"kind": "ddim", "steps": 5, "schedule": {"num_steps": 50}},
                "omega": {"values": [1.0]},
                "oracle": {"kind": "standard_normal"},
                "latent": {"shape": [16]},
                "seeds": [0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["spectrum", "--config", str(config)]) == 2

    def test_numeric_abort_exit_code_and_manifest(self, tmp_path, monkeypatch):
        check_numeric_abort(tmp_path, monkeypatch, "spectrum")


class TestPreviewCommand:
    def test_schedule_two_stage_discontinuity(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sampler": {"kind": "ddim", "steps": 50, "schedule": {"num_steps": 100}},
                "omega": {
                    "values": [1.0],
                    "schedule": {"kind": "two_stage", "switch_step": 10, "early": 0.95, "late": 1.0},
                },
                "oracle": {"kind": "standard_normal"},
                "latent": {"shape": [4, 4]},
                "seeds": [0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["preview", "schedule", "--config", str(config)]) == 0
        with open(tmp_path / "out" / "schedule.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        values = [float(row["omega"]) for row in rows]
        assert values[9] == 0.95 and values[10] == 1.0
        jumps = [k for k in range(49) if values[k] != values[k + 1]]
        assert jumps == [9]

    def test_exp2_preset_crosses_one(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sampler": {"kind": "ddim", "steps": 50, "schedule": {"num_steps": 100}},
                "omega": {"values": [1.0], "schedule": {"kind": "preset", "name": "EXP2"}},
                "oracle": {"kind": "standard_normal"},
                "latent": {"shape": [4, 4]},
                "seeds": [0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["preview", "schedule", "--config", str(config)]) == 0
        with open(tmp_path / "out" / "schedule.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["omega"]) < 1.0
        assert float(rows[-1]["omega"]) > 1.0

    def test_mask_preview_uniform_ones(self, tmp_path):
        pgm = tmp_path / "mask.pgm"
        write_pgm(pgm, np.full((8, 8), 255, dtype=np.uint8))
        config = write_config(
            tmp_path,
            {
                "sampler": {"kind": "ddim", "steps": 5, "schedule": {"num_steps": 50}},
                "omega": {"values": [1.0], "mask": {"path": "mask.pgm", "low": 0.9, "high": 1.0}},
                "oracle": {"kind": "standard_normal"},
                "latent": {"shape": [8, 8]},
                "seeds": [0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["preview", "mask", "--config", str(config)]) == 0
        out = tmp_path / "out"
        with open(out / "mask_omega.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64
        assert all(float(row["omega"]) == 1.0 for row in rows)
        preview = read_pgm(out / "mask_preview.pgm")
        assert preview.shape == (8, 8)

    def test_preview_without_part_is_config_error(self, tmp_path):
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["preview", "mask", "--config", str(config)]) == 2
        assert main(["preview", "schedule", "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()
