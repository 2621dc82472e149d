import json

import numpy as np
import pytest

from omegance import ConfigError, load_config, parse_config, rescale
from omegance.formats import write_pgm
from omegance.omega import ExpSchedule, TwoStageSchedule
from omegance.schedules import AlphaBarSchedule, FlowTimesteps, SigmaSchedule


def minimal(**overrides):
    data = {
        "sampler": {"kind": "ddim", "steps": 10, "schedule": {"num_steps": 100}},
        "omega": {"values": [1.0]},
        "oracle": {"kind": "standard_normal"},
        "latent": {"shape": [8, 8]},
        "seeds": [0],
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal_ddim(self):
        config = parse_config(minimal())
        assert config.sampler_kind == "ddim"
        assert config.steps == 10
        assert config.omegas == (1.0,)
        assert config.latent_shape == (8, 8)
        assert config.output_dir == "out"
        assert config.snapshot_format == "binary"
        assert isinstance(config.make_schedule(), AlphaBarSchedule)

    def test_euler_and_flow_schedules(self):
        euler = parse_config(
            minimal(sampler={"kind": "euler", "steps": 8, "schedule": {"sigma_min": 0.1, "sigma_max": 8.0}})
        )
        schedule = euler.make_schedule()
        assert isinstance(schedule, SigmaSchedule)
        assert schedule.num_steps == 8
        flow = parse_config(minimal(sampler={"kind": "flow", "steps": 6}))
        assert isinstance(flow.make_schedule(), FlowTimesteps)

    def test_defaults_applied(self):
        config = parse_config(minimal(sampler={"kind": "ddim", "steps": 10}))
        assert config.schedule_spec == {
            "kind": "linear_beta",
            "num_steps": 1000,
            "beta_start": 1e-4,
            "beta_end": 0.02,
        }

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal()))
        config = load_config(path)
        assert config.steps == 10

    def test_unreadable_and_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(minimal(extra=1))

    def test_unknown_nested_keys(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(minimal(sampler={"kind": "ddim", "steps": 10, "omega": 1.0}))
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(minimal(omega={"values": [1.0], "omga": 0.9}))
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(minimal(oracle={"kind": "standard_normal", "mean": 0.0}))

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_config({"sampler": {"kind": "ddim", "steps": 5}})

    def test_steps_beyond_schedule(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(sampler={"kind": "ddim", "steps": 500, "schedule": {"num_steps": 100}}))

    def test_snapshot_bounds(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(sampler={"kind": "ddim", "steps": 10, "snapshots": [11]}))

    def test_seed_validation(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(seeds=[]))
        with pytest.raises(ConfigError):
            parse_config(minimal(seeds=[1, 1]))
        with pytest.raises(ConfigError):
            parse_config(minimal(seeds=["a"]))

    def test_latent_shape_validation(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(latent={"shape": []}))
        with pytest.raises(ConfigError):
            parse_config(minimal(latent={"shape": [4, 4, 4]}))
        with pytest.raises(ConfigError):
            parse_config(minimal(latent={"shape": [0]}))


class TestOmegaSection:
    def test_exactly_one_input_style(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(omega={}))
        with pytest.raises(ConfigError):
            parse_config(minimal(omega={"values": [1.0], "varpi": [0.0]}))

    def test_varpi_goes_through_rescale(self):
        config = parse_config(minimal(omega={"varpi": [0.0, 10.0]}))
        assert config.omegas == (rescale(0.0), rescale(10.0))
        assert config.omegas[0] == 1.0

    def test_custom_rescale_params(self):
        config = parse_config(
            minimal(omega={"varpi": [0.0], "rescale": {"lower": 0.8, "upper": 1.2}})
        )
        assert config.omegas[0] == pytest.approx(1.0)

    def test_rescale_without_varpi_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(omega={"values": [1.0], "rescale": {"lower": 0.8, "upper": 1.2}}))

    def test_scalar_value_promoted_to_list(self):
        config = parse_config(minimal(omega={"values": 0.95}))
        assert config.omegas == (0.95,)

    def test_non_positive_or_duplicate_values(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(omega={"values": [0.0]}))
        with pytest.raises(ConfigError):
            parse_config(minimal(omega={"values": [1.0, 1.0]}))

    @pytest.mark.parametrize(
        "bad",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e999", "int-1e400"],
    )
    @pytest.mark.parametrize(
        "omega",
        ['{"values": [%s, 1.0]}', '{"varpi": [0.0], "rescale": {"upper": %s}}'],
        ids=["values", "rescale"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, omega, bad):
        # written as JSON text, because json.loads accepts NaN and +-Infinity
        text = json.dumps(minimal(omega="OMEGA")).replace('"OMEGA"', omega % bad)
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)

    def test_schedule_kinds(self):
        config = parse_config(
            minimal(
                omega={
                    "values": [1.0],
                    "schedule": {"kind": "two_stage", "switch_step": 3, "early": 0.95, "late": 1.0},
                }
            )
        )
        assert isinstance(config.omega_schedule, TwoStageSchedule)
        assert config.omega_schedule.total_steps == config.steps
        config = parse_config(
            minimal(omega={"values": [1.0], "schedule": {"kind": "preset", "name": "EXP2"}})
        )
        assert isinstance(config.omega_schedule, ExpSchedule)
        with pytest.raises(ConfigError):
            parse_config(minimal(omega={"values": [1.0], "schedule": {"kind": "linear"}}))

    def test_mask_round_trip(self, tmp_path):
        pgm = tmp_path / "mask.pgm"
        write_pgm(pgm, np.full((8, 8), 255, dtype=np.uint8))
        data = minimal(
            omega={"values": [1.0], "mask": {"path": "mask.pgm", "low": 0.9, "high": 1.0}}
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        config = load_config(config_path)
        assert config.mask is not None
        assert np.all(config.mask.grid == 1.0)

    def test_mask_dims_must_match_latent(self, tmp_path):
        pgm = tmp_path / "mask.pgm"
        write_pgm(pgm, np.zeros((4, 4), dtype=np.uint8))
        data = minimal(omega={"values": [1.0], "mask": {"path": str(pgm)}})
        with pytest.raises(ConfigError, match="does not match latent"):
            parse_config(data, base_dir=tmp_path)

    def test_missing_mask_file(self, tmp_path):
        data = minimal(omega={"values": [1.0], "mask": {"path": "absent.pgm"}})
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(data, base_dir=tmp_path)

    def test_mask_requires_2d_latent(self, tmp_path):
        pgm = tmp_path / "mask.pgm"
        write_pgm(pgm, np.zeros((8, 8), dtype=np.uint8))
        data = minimal(
            latent={"shape": [64]},
            omega={"values": [1.0], "mask": {"path": str(pgm)}},
        )
        with pytest.raises(ConfigError, match="2-D"):
            parse_config(data, base_dir=tmp_path)


class TestOracleSection:
    def test_gaussian_mixture(self):
        config = parse_config(
            minimal(
                oracle={
                    "kind": "gaussian_mixture",
                    "weights": [0.3, 0.7],
                    "means": [-2.0, 3.0],
                    "variances": [1.0, 1.0],
                }
            )
        )
        assert config.oracle.num_components == 2

    def test_bad_mixture_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="mixture"):
            parse_config(
                minimal(
                    oracle={
                        "kind": "gaussian_mixture",
                        "weights": [0.5, 0.6],
                        "means": [0.0, 1.0],
                        "variances": [1.0, 1.0],
                    }
                )
            )

    def test_unknown_oracle(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(oracle={"kind": "unet"}))


class TestInitSection:
    def test_gaussian_field(self):
        config = parse_config(minimal(init={"kind": "gaussian_field", "exponent": -2.0}))
        assert config.init_kind == "gaussian_field"
        assert config.field_exponent == -2.0

    def test_field_requires_2d(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(latent={"shape": [16]}, init={"kind": "gaussian_field"}))

    def test_white_rejects_exponent(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(init={"kind": "white", "exponent": -1.0}))
