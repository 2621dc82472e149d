import csv
import hashlib
import io
import json
import math
import sys
import tempfile
import threading
import time
import tracemalloc
import unittest.mock
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_config import CONFIGS, UNDECODABLE_CONFIGS

from omegance import cli, formats, load_config, oracles, reference_trajectory, run_sampler, standard_normal
from omegance.analysis import SpectrumProfile, radial_spectrum
from omegance.cli import main
from omegance.formats import format_cell, read_pgm, read_snapshot, write_csv, write_pgm, write_snapshot
from omegance.oracles import GaussianMixture
from omegance.samplers import NumericAbortError, SamplerConfig


def ddim_sampler(**schedule):
    return {"kind": "ddim", "steps": 5, "schedule": {"num_steps": 50, **schedule}}


def euler_sampler(**schedule):
    return {"kind": "euler", "steps": 5, "schedule": schedule}


# configs that exit 2 and write nothing: values of a wrong type or outside the
# vocabulary, then values that pass the key and type checks but that a
# constructor rejects
REJECTED_CONFIGS = {
    "snapshot_format_png": ("sample", {"snapshot_format": "png"}),
    "sampler_kind_heun": ("sample", {"sampler": dict(ddim_sampler(), kind="heun")}),
    "empty_omega_values": ("sample", {"omega": {"values": []}}),
    "omega_schedule_as_string": ("sample", {"omega": {"values": [1.0], "schedule": "COS2"}}),
    "oracle_as_string": ("sample", {"oracle": "standard_normal"}),
    "mixture_weights_as_number": (
        "sample",
        {"oracle": {"kind": "gaussian_mixture", "weights": 1.0, "means": [0.0], "variances": [1.0]}},
    ),
    "init_kind_pink": ("sample", {"init": {"kind": "pink"}}),
    # no path can hold a NUL byte: refused before mkdir sees it
    "output_dir_with_nul_byte": ("sample", {"output_dir": "out\u0000dir"}),
    # omega_schedule takes the schedule's own keys only, and finite non-bool numbers
    "omega_schedule_with_total_steps": (
        "sample",
        {"omega": {"values": [1.0], "schedule": {"kind": "constant", "omega": 1.0, "total_steps": 5}}},
    ),
    "omega_schedule_bool_omega": (
        "sample",
        {"omega": {"values": [1.0], "schedule": {"kind": "constant", "omega": True}}},
    ),
    "beta_start_above_beta_end": ("sample", {"sampler": ddim_sampler(beta_start=0.02, beta_end=0.01)}),
    "one_step_beta_schedule": ("sample", {"sampler": dict(ddim_sampler(num_steps=1), steps=1)}),
    "sigma_min_at_sigma_max": ("sample", {"sampler": euler_sampler(sigma_min=2.0, sigma_max=2.0)}),
    "rho_zero": ("sample", {"sampler": euler_sampler(rho=0.0)}),
    "rho_tiny": ("sample", {"sampler": euler_sampler(rho=1e-4)}),
    "rho_subnormal": ("sample", {"sampler": euler_sampler(rho=5e-324)}),
    "negative_churn": ("sample", {"sampler": euler_sampler(churn=-0.1)}),
    "preset_name_as_list": ("sample", {"omega": {"values": [1.0], "schedule": {"kind": "preset", "name": ["COS2"]}}}),
    "mask_path_as_number": ("sample", {"omega": {"values": [1.0], "mask": {"path": 3}}}),
    "mask_path_is_a_directory": ("sample", {"omega": {"values": [1.0], "mask": {"path": "."}}}),
    "negative_seed": ("sample", {"seeds": [-1]}),
    "spectrum_below_4x4": ("spectrum", {"latent": {"shape": [3, 8]}}),
    "oversize_latent": ("sample", {"latent": {"shape": [10**30, 10**30]}}),
    "oversize_latent_spectrum": ("spectrum", {"latent": {"shape": [100000, 100000]}}),
    "ddim_steps_beyond_num_steps": ("sample", {"sampler": dict(ddim_sampler(), steps=51)}),
    # schedules longer than MAX_SCHEDULE_STEPS, refused before any table is allocated
    "flow_steps_beyond_max_schedule": ("sample", {"sampler": {"kind": "flow", "steps": 10**12}}),
    "ddim_num_steps_beyond_max_schedule": ("sample", {"sampler": ddim_sampler(num_steps=10**11)}),
    # its largest squared amplitude times the cell count overflows: every draw would be 0
    "field_exponent_overflows": (
        "sample",
        {"init": {"kind": "gaussian_field", "exponent": 200}, "latent": {"shape": [64, 64]}},
    ),
    "euler_one_step": ("sample", {"sampler": dict(euler_sampler(), steps=1)}),
    "snapshot_beyond_steps": ("sample", {"sampler": dict(ddim_sampler(), snapshots=[0, 6])}),
    "negative_snapshot": ("sample", {"sampler": dict(ddim_sampler(), snapshots=[-1, 5])}),
    "flow_non_uniform_schedule": ("sample", {"sampler": {"kind": "flow", "steps": 5, "schedule": {"kind": "karras"}}}),
    # each latent cell takes a scalar prior: vector (K, d) mixture means are refused
    "vector_mixture_means": (
        "sample",
        {"oracle": {"kind": "gaussian_mixture", "weights": [0.5, 0.5], "means": [[-1.0, 0.0], [1.0, 0.0]],
                    "variances": [[0.5, 0.5], [0.5, 0.5]]}},
    ),
    # a^2 v + b^2 overflows at the first level: the oracle's scale check, and
    # with churn the churn step's sigma_hat**2 too
    "euler_sigma_overflows_the_oracle": ("sample", {"sampler": euler_sampler(sigma_min=1e159, sigma_max=1e160)}),
    "euler_churned_sigma_overflows": (
        "sample",
        {"sampler": euler_sampler(sigma_min=1e159, sigma_max=1e160, churn=0.5)},
    ),
    # a cell's least omega, base * schedule * mask, rounds to 0: the base is a
    # listed value or a rescaled dial, the mask is mask.pgm beside the config
    "omega_times_schedule_underflows": (
        "sample",
        {"omega": {"values": [1e-300], "schedule": {"kind": "constant", "omega": 1e-300}}},
    ),
    "omega_times_mask_underflows": (
        "sample",
        {"omega": {"values": [1e-300], "mask": {"path": "mask.pgm", "low": 1e-300, "high": 1e-300}}},
    ),
    "rescaled_omega_times_schedule_underflows": (
        "sample",
        {"omega": {"varpi": [-10000], "rescale": {"lower": 5e-324}, "schedule": {"kind": "constant", "omega": 0.5}}},
    ),
    # ... and a cell's greatest omega rounds to inf
    "omega_times_schedule_overflows": (
        "sample",
        {"omega": {"values": [1e200], "schedule": {"kind": "constant", "omega": 1e200}}},
    ),
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
    write_pgm(tmp_path / "mask.pgm", np.full((8, 8), 128, dtype=np.uint8))
    config = write_config(tmp_path, sample_config(tmp_path, **overrides))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


def check_numeric_abort(tmp_path, monkeypatch, command):
    """Only the (seed 1, omega index 1) cell aborts: exit 3 and an aborted manifest naming it.

    Every other cell still runs, at one thread as at two, so both manifests
    list, with the same checksums, exactly the files the run wrote: those of
    every other cell, with two threads cell (seed 2, omega index 0) held in
    flight until after the abort, but not a file an earlier run left in the
    output directory.
    """
    in_flight = threading.Event()

    def explode(denoiser, config, z_init, on_snapshot=None):
        if config.seed == 1 and config.control.base == 1.0:
            if threads == "2":
                assert in_flight.wait(timeout=10)
            raise NumericAbortError(4, "non-finite latent after step 4")
        if config.seed == 2 and config.control.base == 0.95:
            in_flight.set()
            time.sleep(0.1)
        return run_sampler(denoiser, config, z_init, on_snapshot=on_snapshot)

    monkeypatch.setattr("omegance.cli.run_sampler", explode)
    config = write_config(tmp_path, sample_config(tmp_path, seeds=[0, 1, 2]))
    stale = "seed9_omega0_final.bin"
    artifacts = {}
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
        artifacts[threads] = manifest["artifacts"]
        if command == "spectrum":
            assert written == []
            continue
        cells = [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]
        ends = ("step0000", "step0005", "final")
        assert written == sorted(f"seed{seed}_omega{idx}_{end}.bin" for seed, idx in cells for end in ends)
    assert artifacts["1"] == artifacts["2"]


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

    def test_underflow_fallback_mid_trajectory(self, tmp_path, monkeypatch):
        # tight components leave late-step cells between centres with an
        # exponent sum that underflows; those cells take the max-shifted route
        # while their neighbours do not, on any thread count, and the run stays
        # within rounding of one in which every cell takes that route
        data = sample_config(
            tmp_path,
            oracle={"kind": "gaussian_mixture", "weights": [0.3, 0.4, 0.3], "means": [-1.5, 0.0, 1.5],
                    "variances": [1e-4, 1e-4, 1e-4]},
            omega={"values": [0.5, 0.8]},
            latent={"shape": [16, 16]},
        )
        data["sampler"] = {"kind": "ddim", "steps": 10, "schedule": {"num_steps": 1000}, "snapshots": [5, 10]}
        config = write_config(tmp_path, data)
        low_cells = []  # per posterior call, in cell order on one thread
        posterior, shifted = GaussianMixture._posterior, GaussianMixture._shifted_exponentials

        def counted_posterior(self, *args, **kwargs):
            low_cells.append(0)
            return posterior(self, *args, **kwargs)

        def counted_shifted(self, diff, *args):
            low_cells[-1] += diff.shape[1]
            return shifted(self, diff, *args)

        with monkeypatch.context() as patch:
            patch.setattr(GaussianMixture, "_posterior", counted_posterior)
            patch.setattr(GaussianMixture, "_shifted_exponentials", counted_shifted)
            assert main(["sample", "--config", str(config), "--out", str(tmp_path / "one"), "--threads", "1"]) == 0
        assert len(low_cells) == 2 * 2 * 10
        assert any(low_cells[call] for call in range(len(low_cells)) if call % 10 < 9)
        assert all(count < 16 * 16 for count in low_cells)
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "two"), "--threads", "2"]) == 0
        manifest = read_manifest(tmp_path / "one")
        assert manifest["status"] == "ok" and len(manifest["artifacts"]) == 2 * 2 * 3
        assert manifest["artifacts"] == read_manifest(tmp_path / "two")["artifacts"]
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "UNDERFLOW_SUM", math.inf)
            assert main(["sample", "--config", str(config), "--out", str(tmp_path / "shifted")]) == 0
        for seed in (0, 1):
            for omega in (0, 1):
                name = f"seed{seed}_omega{omega}_final.bin"
                final, _ = read_snapshot(tmp_path / "one" / name)
                reference, _ = read_snapshot(tmp_path / "shifted" / name)
                rms = math.sqrt(float(np.mean(reference * reference)))
                assert np.max(np.abs(final - reference)) <= 1e-12 * rms

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

    def test_manifest_echoes_the_file_and_the_overrides(self, tmp_path):
        data = sample_config(tmp_path)
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        assert read_manifest(tmp_path / "out")["config"] == data
        out = tmp_path / "o2"
        assert main(["sample", "--config", str(config), "--seeds", "7,8", "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["status"] == "ok"
        assert manifest["config"] == {**data, "seeds": [7, 8], "output_dir": str(out)}
        assert sorted({name.split("_")[0] for name in manifest["artifacts"]}) == ["seed7", "seed8"]

    @pytest.mark.parametrize("seeds", ["7,", "a", "1.5", "0x3", ""])
    def test_unparsable_seeds_override(self, tmp_path, capsys, seeds):
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config), "--seeds", seeds]) == 2
        assert capsys.readouterr().err == f"config error: bad --seeds value {seeds!r}\n"
        assert not (tmp_path / "out").exists()

    def test_empty_out_override(self, tmp_path, capsys, monkeypatch):
        # an empty --out is refused like an empty output_dir, not taken as the working directory
        config = write_config(tmp_path, sample_config(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "--config", str(config), "--out", ""]) == 2
        assert capsys.readouterr().err == "config error: --out must be a non-empty string\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["sample", "spectrum"])
    def test_out_with_a_nul_byte_exits_2(self, tmp_path, capsys, monkeypatch, command):
        config = write_config(tmp_path, sample_config(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", str(config), "--out", "a\x00b"]) == 2
        assert capsys.readouterr().err == "config error: --out must not contain a NUL byte\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["sample", "snr", "spectrum"])
    def test_config_path_with_a_nul_byte_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # the path is named by the rule it breaks, and printed with repr, so
        # no NUL byte reaches stderr
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", "a\x00b"]) == 2
        assert capsys.readouterr().err == "config error: config path 'a\\x00b' must not contain a NUL byte\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, env", [(["--threads", "0"], None), ([], "0")], ids=["flag", "env"])
    def test_zero_threads_exits_2(self, tmp_path, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("OMEGANCE_THREADS", env)
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config), *flag]) == 2
        assert capsys.readouterr().err == "config error: thread count must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_identity_omega_matches_reference_run_bytes(self, tmp_path):
        data = sample_config(tmp_path, omega={"values": [1.0]}, seeds=[3])
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        written, step = read_snapshot(tmp_path / "out" / "seed3_omega0_final.bin")

        from omegance import linear_beta_ladder

        schedule = linear_beta_ladder(50)
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

    def test_csv_snapshot_rows_are_formed_in_chunks(self, tmp_path):
        # the same bytes as one whole-latent row list, for latents across the
        # chunk width and a transposed view, at a traced peak under 1 MiB
        rng = np.random.default_rng(4)
        latents = {
            "full": rng.normal(size=(256, 256)),
            "ragged": rng.normal(size=(7, cli.CSV_CHUNK_CELLS // 7 + 3)),
            "transposed": rng.normal(size=(9, 5000)).T,
            "single": np.array([[-0.0]]),
        }
        latents["full"][0, :4] = (-0.0, 5e-324, 2.0**60, -1e300)
        for stem, values in latents.items():
            rows = cli._LatentRows(values)
            assert len(rows) == values.size
            write_csv(tmp_path / f"{stem}.expected.csv", ["flat_index", "value"], list(enumerate(values.ravel().tolist())))
            if stem == "full":
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    name = cli._write_latent(tmp_path, stem, values, 1, "csv")
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak - base < 2**20
            else:
                name = cli._write_latent(tmp_path, stem, values, 1, "csv")
            assert (tmp_path / name).read_bytes() == (tmp_path / f"{stem}.expected.csv").read_bytes()

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

    def test_euler_mixture_where_2_pi_tv_overflows(self, tmp_path):
        # at sigma_max 1e154 a K = 3 posterior's tv is 1e308, finite, while 2 pi tv is not
        data = sample_config(
            tmp_path,
            sampler={"kind": "euler", "steps": 5, "schedule": {"sigma_min": 1e150, "sigma_max": 1e154}},
            oracle={"kind": "gaussian_mixture", "weights": [0.3, 0.4, 0.3], "means": [-1.5, 0.0, 1.5],
                    "variances": [0.25, 0.5, 0.25]},
        )
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config)]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert manifest["status"] == "ok" and len(manifest["artifacts"]) == 2 * 2
        final, step = read_snapshot(tmp_path / "out" / "seed0_omega0_final.bin")
        assert step == 5 and np.all(np.isfinite(final))

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
        for text in UNDECODABLE_CONFIGS.values():
            config.write_bytes(text)
            assert main(["sample", "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()

    def test_unparsable_argv_returns_2_and_help_returns_0(self, tmp_path, capsys):
        # argparse's own exit becomes main's return code, for a library caller too
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["snr", "--config", str(config), "--threads", "1"]) == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        assert main(["sample"]) == 2
        assert main(["--help"]) == 0
        assert "usage: omegance" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_abort_after_a_snapshot_lists_the_streamed_files(self, tmp_path, threads):
        # omega 1e300 keeps step 1 finite and overflows step 2, so the aborting
        # cells have streamed their step-0 and step-1 snapshots already
        data = sample_config(tmp_path, omega={"values": [1.0, 1e300]})
        data["sampler"]["snapshots"] = [0, 1, 5]
        config = write_config(tmp_path, data)
        assert main(["sample", "--config", str(config), "--threads", threads]) == 3
        out = tmp_path / "out"
        manifest = read_manifest(out)
        assert manifest["status"] == "aborted"
        assert manifest["aborted_at_step"] == 2
        assert manifest["aborted_cell"] == {"seed": 0, "omega_index": 1}
        on_disk = sorted(path.name for path in out.iterdir() if path.name != "manifest.json")
        assert manifest["artifacts"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in on_disk
        }
        expected = []  # every cell runs at every thread count
        for seed in [0, 1]:
            expected += [f"seed{seed}_omega0_{end}.bin" for end in ("final", "step0000", "step0001", "step0005")]
            expected += [f"seed{seed}_omega1_step0000.bin", f"seed{seed}_omega1_step0001.bin"]
        assert on_disk == sorted(expected)
        values, step = read_snapshot(out / "seed0_omega1_step0001.bin")
        assert step == 1 and np.all(np.isfinite(values)) and np.abs(values).max() > 1e200

    def test_traced_peak_does_not_grow_with_the_snapshot_count(self, tmp_path):
        # snapshots are written as their steps finish, so a cell holds none of them
        data = sample_config(
            tmp_path,
            oracle={"kind": "gaussian_mixture", "weights": [0.3, 0.4, 0.3], "means": [-1.5, 0.0, 1.5],
                    "variances": [0.25, 0.5, 0.25]},
            latent={"shape": [128, 128]},
            seeds=[0],
            omega={"values": [0.95]},
        )
        data["sampler"] = {"kind": "ddim", "steps": 10, "schedule": {"num_steps": 100}}
        peaks = []
        for snapshots in ([0, 10], list(range(11))):
            data["sampler"]["snapshots"] = snapshots
            config = write_config(tmp_path, data)
            argv = ["sample", "--config", str(config), "--threads", "1"]
            assert main(argv) == 0  # the first run fills this thread's posterior workspace
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 128 * 128 * 8

    @pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["a_file", "under_a_file"])
    def test_output_dir_that_cannot_be_made_exits_4_with_one_line(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_bytes(b"kept")
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error: ")
        assert (tmp_path / "afile").read_bytes() == b"kept"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "config.json"]

    def test_failed_manifest_write_keeps_the_previous_manifest(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config)]) == 0
        out = tmp_path / "out"
        before = (out / "manifest.json").read_bytes()
        on_disk = sorted(path.name for path in out.iterdir())
        real_open = Path.open

        class HalfWriter:
            """Writes half of the manifest text, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        def flaky_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return HalfWriter(fh) if path.name == "manifest.json.tmp" else fh

        monkeypatch.setattr(Path, "open", flaky_open)
        assert main(["sample", "--config", str(config), "--seeds", "1"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error: ")
        assert (out / "manifest.json").read_bytes() == before
        assert sorted(path.name for path in out.iterdir()) == on_disk

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_artifact_write_exits_4_with_an_error_manifest(self, tmp_path, monkeypatch, capsys, threads):
        config = write_config(tmp_path, sample_config(tmp_path))
        calls = []

        def fail_fourth(path, values, step):
            calls.append(path)
            if len(calls) == 4:
                raise OSError(28, "No space left on device", str(path))
            write_snapshot(path, values, step)

        monkeypatch.setattr("omegance.cli.write_snapshot", fail_fourth)
        assert main(["sample", "--config", str(config), "--threads", threads]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error: ")
        out = tmp_path / "out"
        manifest = read_manifest(out)
        assert manifest["status"] == "error"
        assert "No space left on device" in manifest["error"]
        on_disk = sorted(path.name for path in out.iterdir() if path.name != "manifest.json")
        assert len(on_disk) == len(calls) - 1
        assert manifest["artifacts"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in on_disk
        }

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_write_failing_midway_leaves_no_partial_file(self, tmp_path, monkeypatch, threads):
        config = write_config(tmp_path, sample_config(tmp_path))
        opened = []
        lock = threading.Lock()
        real_open = Path.open

        class HalfWriter:
            """Writes the header, then half of the payload, then fails."""

            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 1:
                    return self.fh.write(data)
                payload = memoryview(data).cast("B")
                self.fh.write(payload[: len(payload) // 2])
                raise OSError(28, "No space left on device")

        def flaky_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if path.name.endswith(".bin.tmp"):
                with lock:
                    opened.append(path.name)
                    if len(opened) == 3:
                        return HalfWriter(fh)
            return fh

        monkeypatch.setattr(Path, "open", flaky_open)
        assert main(["sample", "--config", str(config), "--threads", threads]) == 4
        out = tmp_path / "out"
        manifest = read_manifest(out)
        assert manifest["status"] == "error"
        on_disk = sorted(path.name for path in out.iterdir() if path.name != "manifest.json")
        assert opened[2][: -len(".tmp")] not in on_disk
        assert len(on_disk) == len(opened) - 1
        assert manifest["artifacts"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in on_disk
        }
        for name in on_disk:
            read_snapshot(out / name)  # whole files only


class TestSeedDraws:
    def test_one_draw_per_seed_shared_by_its_omega_cells(self, tmp_path, monkeypatch):
        drawn = []
        draws = []  # weak references to every draw made
        alive_at_draw = []  # how many earlier draws were still alive at each draw
        real = cli._init_latent

        def counted(config, seed):
            alive_at_draw.append(sum(ref() is not None for ref in draws))
            z = real(config, seed)
            drawn.append(seed)
            draws.append(weakref.ref(z))
            return z

        monkeypatch.setattr(cli, "_init_latent", counted)
        seeds = [0, 1, 2, 3, 4, 5]
        config = write_config(tmp_path, sample_config(tmp_path, seeds=seeds, omega={"values": [0.95, 1.0, 1.05]}))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in ("1", "4"):
                drawn.clear()
                draws.clear()
                alive_at_draw.clear()
                out = tmp_path / f"out{threads}"
                assert main(["sample", "--config", str(config), "--out", str(out), "--threads", threads]) == 0
                assert sorted(drawn) == seeds
                # a draw lives only while its seed has cells in flight: with one
                # thread none is left when the next seed is drawn, with four at
                # most one per other worker
                assert max(alive_at_draw) <= int(threads) - 1
        finally:
            sys.setswitchinterval(interval)
        assert read_manifest(tmp_path / "out1")["artifacts"] == read_manifest(tmp_path / "out4")["artifacts"]

    def test_a_draw_does_not_wait_on_another_seeds(self, tmp_path, monkeypatch):
        # three workers: cell (0, 0) draws seed 0 and holds it until seed 1 is
        # drawn, cell (0, 1) waits for seed 0's draw, and cell (1, 0) must
        # still be free to draw seed 1
        seed1_drawn = threading.Event()
        real = cli._init_latent

        def gated(config, seed):
            if seed == 0:
                assert seed1_drawn.wait(timeout=10)
            z = real(config, seed)
            if seed == 1:
                seed1_drawn.set()
            return z

        monkeypatch.setattr(cli, "_init_latent", gated)
        config = write_config(tmp_path, sample_config(tmp_path))
        assert main(["sample", "--config", str(config), "--threads", "3"]) == 0
        assert seed1_drawn.is_set()


class TestRunCells:
    @staticmethod
    def sweep(tmp_path, seeds):
        config = load_config(write_config(tmp_path, sample_config(tmp_path, seeds=seeds)))
        cells = [(seed, idx) for seed in seeds for idx in range(len(config.omegas))]
        return config, config.make_schedule(), cells

    def test_calling_thread_runs_cells_beside_its_helpers(self, tmp_path):
        config, schedule, cells = self.sweep(tmp_path, list(range(8)))
        idents = []

        def cell(seed, idx, draws):
            idents.append(threading.get_ident())
            time.sleep(0.002)
            return seed, idx

        assert cli._run_cells(config, schedule, 3, cell) == cells
        caller = threading.get_ident()
        assert caller in idents
        assert len(set(idents) - {caller}) <= 2
        idents.clear()
        assert cli._run_cells(config, schedule, 1, cell) == cells
        assert set(idents) == {caller}

    def test_no_more_threads_than_cells(self, tmp_path, monkeypatch):
        config, schedule, cells = self.sweep(tmp_path, [0])
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        assert cli._run_cells(config, schedule, 1000, lambda seed, idx, draws: (seed, idx)) == cells
        assert len(started) == len(cells) - 1

    @pytest.mark.parametrize("threads", [2, 3])
    def test_lowest_failing_cell_raises_once_every_cell_has_run(self, tmp_path, threads):
        # cell (0, 1) fails only after the later cell (1, 0) has failed
        config, schedule, cells = self.sweep(tmp_path, [0, 1, 2])
        later_failed = threading.Event()
        ran = []

        def cell(seed, idx, draws):
            ran.append((seed, idx))
            if (seed, idx) == (0, 1):
                assert later_failed.wait(timeout=10)
                raise NumericAbortError(2, "lower cell")
            if (seed, idx) == (1, 0):
                later_failed.set()
                raise NumericAbortError(3, "higher cell")
            return seed, idx

        with pytest.raises(NumericAbortError, match="lower cell") as info:
            cli._run_cells(config, schedule, threads, cell)
        assert info.value.cell == {"seed": 0, "omega_index": 1}
        assert sorted(ran) == cells

    def test_one_thread_runs_every_cell_past_a_failure(self, tmp_path):
        config, schedule, cells = self.sweep(tmp_path, [0, 1, 2])
        ran = []

        def cell(seed, idx, draws):
            ran.append((seed, idx))
            if (seed, idx) in ((0, 1), (1, 0)):
                raise NumericAbortError(2, f"cell {seed} {idx}")
            return seed, idx

        with pytest.raises(NumericAbortError, match="cell 0 1") as info:
            cli._run_cells(config, schedule, 1, cell)
        assert info.value.cell == {"seed": 0, "omega_index": 1}
        assert ran == cells

    def test_an_interrupt_stops_the_thread_it_reaches(self, tmp_path):
        config, schedule, cells = self.sweep(tmp_path, [0, 1])
        ran = []

        def cell(seed, idx, draws):
            ran.append((seed, idx))
            if (seed, idx) == (0, 1):
                raise KeyboardInterrupt
            return seed, idx

        with pytest.raises(KeyboardInterrupt):
            cli._run_cells(config, schedule, 1, cell)
        assert ran == cells[:2]


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

    def test_snr_csv_bytes_are_pinned(self, tmp_path):
        # both routes are Python float arithmetic on the linspace/cumprod
        # ladder that the ddim snapshot pins rest on too
        assert main(["snr", "--config", str(self.config(tmp_path, [0.95, 1.0, 1.05]))]) == 0
        digest = hashlib.sha256((tmp_path / "out" / "snr.csv").read_bytes()).hexdigest()
        assert digest == "ce6f28d86761bf4a59c1411be8947dee3e4ea6b5743f482abc29807d15250523"

    def test_snr_csv_bytes_are_pinned_on_a_short_steep_ladder(self, tmp_path):
        # 20 rungs up to beta 0.3: the ladder falls fast, so the first rungs
        # carry ratios near 900 and the last ones ratios far below 1
        config = write_config(
            tmp_path,
            {
                "sampler": {"kind": "ddim", "steps": 5, "schedule": {"num_steps": 20, "beta_end": 0.3}},
                "omega": {"values": [0.8, 1.2]},
                "oracle": {"kind": "standard_normal"},
                "latent": {"shape": [4, 4]},
                "seeds": [0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["snr", "--config", str(config)]) == 0
        digest = hashlib.sha256((tmp_path / "out" / "snr.csv").read_bytes()).hexdigest()
        assert digest == "f6d4906015f7817d452f405ebccd8e295f9c50cc3055e222b7431ca2140fe408"

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
        assert manifest["status"] == "ok" and list(manifest["artifacts"]) == ["snr.csv"]
        assert manifest["max_relative_deviation"] <= 1e-9

    @pytest.mark.parametrize("omega", [1e200, 1e308])
    def test_unformable_ratio_aborts_with_a_manifest(self, tmp_path, capsys, omega):
        # the squared bracket overflows, so both routes would give a ratio of 0
        config = self.config(tmp_path, [1.0, omega])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["snr", "--config", str(config)]) == 3
        assert capsys.readouterr().err.startswith("numeric abort at step 0: ")
        manifest = read_manifest(tmp_path / "out")
        assert manifest["status"] == "aborted"
        assert manifest["aborted_cell"] == {"omega_index": 1}
        assert "t=2" in manifest["error"]
        assert manifest["artifacts"] == {}
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["manifest.json"]

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_power_of_a_finite_latent_aborts(self, tmp_path, threads):
        # omega 1e300 leaves a finite latent whose |FFT|^2 overflows: exit 3
        # naming the cell, not an infinite spectrum.csv (nor a numpy warning)
        data = sample_config(tmp_path, omega={"values": [1.0, 1e300]}, seeds=[0])
        data["sampler"] = {"kind": "ddim", "steps": 1, "schedule": {"num_steps": 50}}
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", str(config), "--threads", threads]) == 3
        manifest = read_manifest(out)
        assert manifest["status"] == "aborted" and manifest["aborted_at_step"] == 1
        assert manifest["aborted_cell"] == {"seed": 0, "omega_index": 1}
        assert manifest["error"] == "spectrum power overflows at step 1"
        assert manifest["artifacts"] == {}

    def test_seed_sum_that_overflows_aborts_naming_the_omega(self, tmp_path, monkeypatch):
        # every seed's power is finite, their sum is not
        huge = SpectrumProfile(np.full(2, 1e308), np.ones(2, dtype=int), 1.0)
        monkeypatch.setattr("omegance.cli.radial_spectrum", lambda values: huge)
        config = write_config(tmp_path, sample_config(tmp_path, omega={"values": [1.0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", str(config)]) == 3
        manifest = read_manifest(tmp_path / "out")
        assert manifest["aborted_at_step"] == 0 and manifest["aborted_cell"] == {"omega_index": 0}
        assert manifest["artifacts"] == {}

    def test_sample_and_spectrum_stream_their_snapshots(self, tmp_path, monkeypatch):
        sinks = []

        def spy(denoiser, config, z_init, on_snapshot=None):
            sinks.append(on_snapshot)
            return run_sampler(denoiser, config, z_init, on_snapshot=on_snapshot)

        monkeypatch.setattr("omegance.cli.run_sampler", spy)
        config = write_config(tmp_path, sample_config(tmp_path))
        for command in ("sample", "spectrum"):
            sinks.clear()
            assert main([command, "--config", str(config)]) == 0
            assert len(sinks) == 4 and all(callable(sink) for sink in sinks)


def csv_writer_text(rows) -> str:
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


# floats whose repr is an edge case: zeros, the least subnormal and the least
# normal, integral values, and both sides of repr's switch to exponent form
# below 1e-4 and at 1e16
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 2.0, 3.0e15, 1e16, 1e17, 1e308,
    1e-4, float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-4, 1.0)),
    float(np.nextafter(1e16, 0.0)), float(np.nextafter(1e16, 1e17)), 0.1, 1 / 3,
]


class TestSpectrumText:
    """spectrum.csv is formed as text, block by block; its bytes are csv.writer's."""

    def test_header_is_csv_writers(self):
        assert cli.SPECTRUM_HEADER == csv_writer_text([["omega_index", "omega", "step", "bin", "mean_power"]])

    @given(
        idx=st.integers(0, 10**6),
        omega=st.one_of(st.floats(min_value=5e-324, max_value=1e308), st.sampled_from(EDGE_FLOATS[2:])),
        step=st.integers(0, 10**6),
        powers=st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)), max_size=40
        ),
    )
    @settings(deadline=None, max_examples=300)
    def test_block_is_csv_writers_bytes(self, idx, omega, step, powers):
        block = cli._spectrum_block(idx, format_cell(omega), step, powers)
        rows = [[idx, format_cell(omega), step, bin_index, value] for bin_index, value in enumerate(powers)]
        assert block == csv_writer_text(rows)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_csv_parses_back_to_the_seed_mean_of_every_cells_spectrum(self, tmp_path, threads):
        data = sample_config(
            tmp_path,
            sampler={"kind": "flow", "steps": 4, "snapshots": [0, 2, 4]},
            omega={"values": [0.95, 1.0, 1.05]},
            init={"kind": "gaussian_field", "exponent": -1.0},
            latent={"shape": [12, 10]},
            seeds=[3, 1, 4],
        )
        config_path = write_config(tmp_path, data)
        assert main(["spectrum", "--config", str(config_path), "--threads", threads]) == 0
        with open(tmp_path / "out" / "spectrum.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["omega_index", "omega", "step", "bin", "mean_power"]

        # every cell's powers along the cell's own route, summed over the seeds
        # in seed order from 0.0 and divided by the seed count
        config = load_config(config_path)
        draws = cli._SeedDraws(config)
        expected = {}
        for seed in config.seeds:
            for idx in range(len(config.omegas)):

                def add(state, idx=idx):
                    key = (idx, state.step)
                    expected[key] = expected.get(key, 0.0) + radial_spectrum(state.values).mean_power

                cli._cell_trajectory(config, draws, seed, idx, config.sampler.snapshots, add)
        want = [
            [str(idx), format_cell(config.omegas[idx]), str(step), str(bin_index), value]
            for (idx, step), total in sorted(expected.items())
            for bin_index, value in enumerate((total / len(config.seeds)).tolist())
        ]
        assert len(rows) == len(want) == 3 * 3 * radial_spectrum(np.ones((12, 10))).mean_power.size
        got = [[*row[:4], float(row[4])] for row in rows]
        assert got == want


# sha256 of preview schedule's schedule.csv at 17 steps for every kind and
# preset: a formula whose arithmetic changes by one bit changes its digest
PREVIEW_SCHEDULE_SHA256 = {
    "constant": (
        {"kind": "constant", "omega": 1.03},
        "96a9e7e50a170393d61a4ac347c2c744c1bbd38b92c56bdd18b417e88b32509e",
    ),
    "two_stage": (
        {"kind": "two_stage", "switch_step": 5, "early": 0.95, "late": 1.02},
        "77f1fd3728a8590dc226c358fa11b51840a6df7863e256f2d4c4d22e55b013d5",
    ),
    "exp": (
        {"kind": "exp", "amplitude": 0.07, "decay": 2.5, "offset": -0.01},
        "bd97218ad94e44ac0917d55e97a3da6cf56b3f1167b992b0808d26dd68b02150",
    ),
    "cos": (
        {"kind": "cos", "amplitude": 0.04, "offset": 0.01},
        "75dd489545761e9f7967aa9a7d93199fc4a86727994e3743cb9a15ac265f4377",
    ),
    "EXP1": ({"kind": "preset", "name": "EXP1"}, "9cccc063f57cb2a4782699a09cc27e7ab1de1df3012306015837df2aea4ec1df"),
    "EXP2": ({"kind": "preset", "name": "EXP2"}, "b3f8244e3affe59cc49a3630d126b857f3618979d95e4b1b0ce9e7f78d92ba32"),
    "COS1": ({"kind": "preset", "name": "COS1"}, "e8d66486ea0beac49ae4b040ea91369e6e27b6b8111189227469047309b0e23b"),
    "COS2": ({"kind": "preset", "name": "COS2"}, "cb197ad37b2663db6dc92383d79db1a554a0edef3bbddcdec6dd367005123c34"),
}


# sha256 of every sample artifact of three tiny configs at --threads 1 and 2,
# each with the standard_normal oracle, white init, a 4x4 latent and seeds 0
# and 1: ddim, euler with churn, a pgm mask and a two-stage schedule, and
# flow. With K = 1 and no FFT these bytes rest only on IEEE arithmetic and
# numpy's random streams; they were taken from the tree before the config
# held its built SamplerConfig.
SAMPLE_CONFIGS = {
    "ddim": {
        "sampler": {"kind": "ddim", "steps": 6, "schedule": {"num_steps": 40}, "snapshots": [3]},
        "omega": {"values": [0.95, 1.05]},
    },
    "euler": {
        "sampler": {"kind": "euler", "steps": 6, "schedule": {"sigma_max": 8.0, "churn": 0.3}, "snapshots": [3]},
        "omega": {
            "values": [0.97, 1.03],
            "mask": {"path": "mask.pgm", "factor": 2, "low": 0.95, "high": 1.05},
            "schedule": {"kind": "two_stage", "switch_step": 2, "early": 0.96, "late": 1.02},
        },
    },
    "flow": {"sampler": {"kind": "flow", "steps": 5, "snapshots": [2]}, "omega": {"values": [0.9, 1.1]}},
}
SAMPLE_SHA256 = {
    "ddim": {
        "seed0_omega0_final.bin": "c41aaebb85e8b3034feb7f350b55d6efa6b8b32a7b824346e725624ce8eecc25",
        "seed0_omega0_step0003.bin": "557504af78b60d98c791a413ad1f627974615afc599bd6363c3acff4d0eee776",
        "seed0_omega1_final.bin": "ec857fbd5a6a0e27b351d4454a2eb7e454b9f7cc75d22330391048af128fc387",
        "seed0_omega1_step0003.bin": "1483acaa0f5e9b15e04ae7467954866270533e46e41cb3011c9cd081465d0e86",
        "seed1_omega0_final.bin": "23e18275a9d23489f82ab3723f735495195be8505d0a8c53fa1bc44a6f97f1c3",
        "seed1_omega0_step0003.bin": "bb55fc8b22003f028acc2f9f1c296ebbe92758f848176127a3eaf7aa7bd82f64",
        "seed1_omega1_final.bin": "d06ee61dff811d30f6fe77c6f595eb8ca9650627677e4a906c1d7196237b9deb",
        "seed1_omega1_step0003.bin": "4faad0acdb98be77584e14f3ea577c5a2b31425c8e7d323414d31c365adb6f31",
    },
    "euler": {
        "seed0_omega0_final.bin": "36f75403550960e4bc906ddc562e6b0638ea3f647666e3d21b1fe0565ab1a0a7",
        "seed0_omega0_step0003.bin": "0c398bf9d335dcf310460f82f8d0177ff0520c29722356b28f8ba7641e542eb2",
        "seed0_omega1_final.bin": "0f6505d373c91afead97cd864a58ba03cc58d54f890c40a8e5a454a6af9a0c42",
        "seed0_omega1_step0003.bin": "eddebecb87c4eb10da8625efccf346026dc588b54885109a618656529a002079",
        "seed1_omega0_final.bin": "3025d8bd68a80cd5394d0689ac890bb6d70dbf96ff1f95cde224529097f0b7df",
        "seed1_omega0_step0003.bin": "050be32df9085f0c95da45cd05535321368712fe0542f8452019a7c3467a658c",
        "seed1_omega1_final.bin": "9ae6c390dee7251af4dfc94cd95b5b7d434e34e93b515e495e5e438c5bc19160",
        "seed1_omega1_step0003.bin": "9c7ad9a5692a9032a6175b1c86897b2de0e0254e5657c95ecee2a77c82b7fc73",
    },
    "flow": {
        "seed0_omega0_final.bin": "402c310a3859e344e4edf436c68ddcd6b7b6377443d02115903db574c4ffc17f",
        "seed0_omega0_step0002.bin": "8fd6a9d5f23f6f937bcd25ccf29434aa69029557b3e297ba982143f0261a2d16",
        "seed0_omega1_final.bin": "a719f469953374d8aa54f9a9b4ff9d6413ccaf96403c9f95ef21b33997e0e7d2",
        "seed0_omega1_step0002.bin": "2aad23217035a4efb9411c21a50b6456f89251df3f5af74852df99bb550c5c85",
        "seed1_omega0_final.bin": "29cc75f2305c25ac0fb270eef208922cb23e16af88a560fa2495ad2999a9daaf",
        "seed1_omega0_step0002.bin": "e7dc92bd032d524943c8e74b419362d587c803cf744b0381bda0d8699773d98f",
        "seed1_omega1_final.bin": "bbe349b8c1d76214e5125fa34cad1d7128667fb17f006131b579682e9453ad0f",
        "seed1_omega1_step0002.bin": "1583154c98793b89b144dca17c7a1fc1363b6e57d021720eea1c65c7ac23e1f9",
    },
}


# the same runs with snapshot_format "csv", whose rows hold each value's repr
SAMPLE_CSV_SHA256 = {
    "ddim": {
        "seed0_omega0_final.csv": "b6099a0e1e0d62c36993acde5a6acf5b4e49fe040d9458d0c121ea52facbe70e",
        "seed0_omega0_step0003.csv": "e2939286e625dc912b32f28b26c890accd4a05eb1e485fc9e21b38e6c478944e",
        "seed0_omega1_final.csv": "1f6e6dd74cd85b0518189cf68f8421c9aafcf65bbabff98d8b523e4afed98179",
        "seed0_omega1_step0003.csv": "abc51cab44fa9026ce0c24a52a2eca79e7f7efb4b7f83e4d8fbfc495ddb83804",
        "seed1_omega0_final.csv": "3b4618badea187a75911585e9d3ec72c711c9633b16f0c6125ecca5b901506b2",
        "seed1_omega0_step0003.csv": "ca910d8572aec16e2eb0a4e680444bf122c76e482a42fa410ab269ae78346b68",
        "seed1_omega1_final.csv": "b0b2827656e92aa4776f7129f02441bd8eda04c90b7fa81c11942c65daae6e3f",
        "seed1_omega1_step0003.csv": "5c722dbed6a702dc9fcca1fcace3c0c8164b154929a3c8dc5f7d4931a18ed5a4",
    },
    "euler": {
        "seed0_omega0_final.csv": "e3c59252d2120f7acc0a88daf5e635b63dd557db03bcbd0430288482f7f24f9e",
        "seed0_omega0_step0003.csv": "ca590fdecf08c92370ed8e796a4d8dd636128876dcfe80597bb34c219d99d013",
        "seed0_omega1_final.csv": "2dba5362af5b7f80079d75fea1e134b4b41ce82e7f2c5098953997e794392cbb",
        "seed0_omega1_step0003.csv": "8d6a01285cdb9f7cf8a7935166a039063467b7d624e79813a99e3d43d8f56cf2",
        "seed1_omega0_final.csv": "7f233c7fd6a9538222814cdf2dcbf3b58d6e100bd6dc6ef2eb645b44b06e10a2",
        "seed1_omega0_step0003.csv": "e2bf4a5f0e1f740f40f19d924a49e5527c75d7b4995bec1fa2bdf67bbdce0287",
        "seed1_omega1_final.csv": "3dcbd24608eb98452edf4cee6ae716afcb44cba2c1fc2c75c04796f9970c1cf4",
        "seed1_omega1_step0003.csv": "32c3ea0fdf54c30bcfb380d31f89bc5d170fe953af0660147a8a830a2d94c994",
    },
    "flow": {
        "seed0_omega0_final.csv": "9a82b4d7f0d02016bf977313dbc1a256cbf5e1b7d5d21abdb666e13f336357b5",
        "seed0_omega0_step0002.csv": "06aa281d14d82f4a7d824e04a12abdf66286fa0f2c826412a9996eec0e75a3fc",
        "seed0_omega1_final.csv": "5f5b4ffbe8528b562494dcb7391bd0ea2ea926169dd0a1fdecb6e171c27bbe84",
        "seed0_omega1_step0002.csv": "1fa517cfe9b8caf8a413ab2e1952e7bf7268b316bb3559c599f90431a35e36d6",
        "seed1_omega0_final.csv": "e55fffc919191e8eebc8abcb8be541459954f31523b6c059623dae40156c5999",
        "seed1_omega0_step0002.csv": "3c1a5742e2b477e2ec17329ba53aca988c61d3ed7c5fafd78f8f5787fae053e8",
        "seed1_omega1_final.csv": "6ec24849b32b2ee4ca10dfbfe42c84bc286d1b1fd45bc26fd73a70115dae393e",
        "seed1_omega1_step0002.csv": "e8b5dd5ea5c23aca772ee178b5af8a676ef082d67d6533bdaebdcb5ef31f5875",
    },
}


def check_pinned_sample(tmp_path, kind, digests, **overrides):
    write_pgm(tmp_path / "mask.pgm", (np.arange(64).reshape(8, 8) * 4).astype(np.uint8))
    data = sample_config(tmp_path, init={"kind": "white"}, latent={"shape": [4, 4]}, **SAMPLE_CONFIGS[kind])
    data.update(overrides)
    config = write_config(tmp_path, data)
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        assert main(["sample", "--config", str(config), "--out", str(out), "--threads", threads]) == 0
        manifest = read_manifest(out)
        assert manifest["status"] == "ok" and manifest["artifacts"] == digests


@pytest.mark.parametrize("kind", list(SAMPLE_CONFIGS))
def test_sample_artifact_bytes_are_pinned(tmp_path, kind):
    check_pinned_sample(tmp_path, kind, SAMPLE_SHA256[kind])


@pytest.mark.parametrize("kind", list(SAMPLE_CONFIGS))
def test_csv_snapshot_bytes_are_pinned(tmp_path, kind):
    check_pinned_sample(tmp_path, kind, SAMPLE_CSV_SHA256[kind], snapshot_format="csv")


FLOW_FIELD = {
    "sampler": {"kind": "flow", "steps": 4, "snapshots": [2, 4]},
    "init": {"kind": "gaussian_field", "exponent": -1.0},
    "omega": {"values": [0.95, 1.05]},
}
SPECTRUM_FILES = ["bands.csv", "ordering.csv", "spectrum.csv"]
# runs whose exit code, aborted cell and artifact names and sha256 do not
# depend on the thread count: a flow spectrum of a gaussian field, the same
# under a K = 3 mixture (both moments of its blocked softmax route; ddim's
# eps-only route is test_underflow_fallback_mid_trajectory's), and a ddim
# sweep whose omega = 1e300 cells abort after their step-0 snapshot while
# the omega = 1 cells finish
THREAD_RUNS = {
    "flow_field_spectrum": ("spectrum", FLOW_FIELD, 0, None, SPECTRUM_FILES),
    "mixture_spectrum": (
        "spectrum",
        {
            **FLOW_FIELD,
            "oracle": {"kind": "gaussian_mixture", "weights": [0.3, 0.4, 0.3], "means": [-1.5, 0.0, 1.5],
                       "variances": [0.25, 0.5, 0.25]},
        },
        0,
        None,
        SPECTRUM_FILES,
    ),
    "overflow_abort": (
        "sample",
        {
            "sampler": dict(ddim_sampler(num_steps=20), steps=4, snapshots=[0, 2]),
            "omega": {"values": [1e300, 1.0]},
            "latent": {"shape": [4, 4]},
            "seeds": [0, 1, 2],
        },
        3,
        {"seed": 0, "omega_index": 0},
        sorted(
            f"seed{seed}_omega{idx}_{end}.bin"
            for seed in (0, 1, 2)
            for idx, ends in ((0, ["step0000"]), (1, ["step0000", "step0002", "final"]))
            for end in ends
        ),
    ),
}


@pytest.mark.parametrize("command, overrides, code, aborted_cell, files", THREAD_RUNS.values(), ids=list(THREAD_RUNS))
def test_thread_count_does_not_change_the_run(tmp_path, command, overrides, code, aborted_cell, files):
    config = write_config(tmp_path, sample_config(tmp_path, **overrides))
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        assert main([command, "--config", str(config), "--out", str(out), "--threads", threads]) == code
        manifest = read_manifest(out)
        assert manifest["status"] == EXIT_STATUS[code]
        assert manifest.get("aborted_cell") == aborted_cell
        on_disk = sorted(path.name for path in out.iterdir() if path.name != "manifest.json")
        assert sorted(manifest["artifacts"]) == on_disk == files
        artifacts.append(manifest["artifacts"])
    assert artifacts[0] == artifacts[1]


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

    @pytest.mark.parametrize("schedule, digest", PREVIEW_SCHEDULE_SHA256.values(), ids=list(PREVIEW_SCHEDULE_SHA256))
    def test_schedule_csv_bytes_are_pinned(self, tmp_path, schedule, digest):
        data = sample_config(tmp_path, omega={"values": [0.95, 1.05], "schedule": schedule})
        data["sampler"] = {"kind": "ddim", "steps": 17, "schedule": {"num_steps": 100}}
        assert main(["preview", "schedule", "--config", str(write_config(tmp_path, data))]) == 0
        text = (tmp_path / "out" / "schedule.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest
        assert len(text.splitlines()) == 17 + 1
        manifest = read_manifest(tmp_path / "out")
        assert manifest["status"] == "ok" and list(manifest["artifacts"]) == ["schedule.csv"]

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


# ---------------------------------------------------------------------------
# the failure contract end to end: any vocabulary tree through cli.main

# per command, the thread counts it runs at; snr takes no --threads flag, so
# passing one must return argparse's 2
FUZZ_COMMANDS = {"sample": (1, 2), "spectrum": (1, 2), "snr": (None, 1)}
EXIT_STATUS = {0: "ok", 3: "aborted", 4: "error"}


def clamp(tree):
    """The same tree cut down to at most 8 x 8 cells, 5 steps and 2 seeds, wherever it has them."""
    if not isinstance(tree, dict):
        return tree
    tree = dict(tree)
    sampler = tree.get("sampler")
    if isinstance(sampler, dict) and isinstance(sampler.get("steps"), int) and sampler["steps"] > 5:
        tree["sampler"] = dict(sampler, steps=5)
    latent = tree.get("latent")
    shape = latent.get("shape") if isinstance(latent, dict) else None
    if isinstance(shape, list) and all(isinstance(n, int) for n in shape) and math.prod(shape) > 64:
        tree["latent"] = dict(latent, shape=[8, 8])
    if isinstance(tree.get("seeds"), list):
        tree["seeds"] = tree["seeds"][:2]
    return tree


def overflowing(tree):
    """The same tree with a first omega near the float limit, which overflows the latent: exit 3.

    Its cells abort before the omega = 1 cells of the same seed run.
    """
    if not isinstance(tree, dict):
        return tree
    omega = tree.get("omega")
    omega = {k: v for k, v in omega.items() if k not in ("varpi", "rescale")} if isinstance(omega, dict) else {}
    return dict(tree, omega=dict(omega, values=[1e300, 1.0]))


# one tree in four is pushed toward a numeric abort, which plain trees almost never reach
FUZZ_TREES = st.sampled_from(range(4)).flatmap(lambda i: CONFIGS.map(overflowing) if i == 0 else CONFIGS)


class FailingWrites:
    """Stands in for ``formats._replacing``: the n-th artifact write raises OSError before its first byte.

    n = 0 never fails. The manifest is written through ``cli``'s own binding
    of ``_replacing``, so it is unaffected.
    """

    def __init__(self, n: int):
        self.n, self.calls, self.lock = n, 0, threading.Lock()

    def __call__(self, path, *args, **kwargs):
        with self.lock:
            self.calls += 1
            fail = self.calls == self.n
        if fail:
            raise OSError(28, "No space left on device", str(path))
        return REAL_REPLACING(path, *args, **kwargs)

    @property
    def fired(self) -> bool:
        return 0 < self.n <= self.calls


REAL_REPLACING = formats._replacing


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=FUZZ_TREES, failing_write=st.sampled_from([0, 1, 0, 3]))
def test_any_vocabulary_tree_exits_with_a_documented_code_and_a_true_manifest(fuzz_root, data, failing_write):
    # every run returns 0, 2, 3 or 4 and never raises; an exit 2 writes no
    # directory, and every other exit leaves a manifest whose status matches
    # the code and whose artifacts are exactly the files on disk, each with
    # its sha256. Some draws make the first or third artifact write of each
    # run fail: a run that reaches it exits 4, or 3 where a lower cell
    # aborted, since every cell runs at every thread count. Without a failing
    # write, sample and spectrum end alike at one thread and at two
    work = Path(tempfile.mkdtemp(dir=fuzz_root))
    write_pgm(work / "mask.pgm", np.arange(64, dtype=np.uint8).reshape(8, 8) * 4)
    config = write_config(work, clamp(data))
    for command, thread_counts in FUZZ_COMMANDS.items():
        outcomes = []
        for threads in thread_counts:
            out = work / f"{command}-{threads}"
            argv = [command, "--config", str(config), "--out", str(out)]
            writes = FailingWrites(failing_write)
            with unittest.mock.patch.object(formats, "_replacing", writes):
                code = main(argv + ([] if threads is None else ["--threads", str(threads)]))
            assert code in (0, 2, 3, 4)
            if command == "snr" and threads is not None:
                assert code == 2
            if writes.fired:
                assert code in (3, 4)
            else:
                assert code != 4
            if code == 2:
                assert not out.exists()
                outcomes.append(code)
                continue
            manifest = read_manifest(out)
            assert manifest["status"] == EXIT_STATUS[code]
            artifacts = manifest["artifacts"]
            on_disk = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
            assert sorted([*artifacts, "manifest.json"]) == on_disk
            for name, digest in artifacts.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
            outcomes.append((code, manifest["status"], manifest.get("aborted_cell"), artifacts))
        if command != "snr" and failing_write == 0:
            assert outcomes[0] == outcomes[1]
