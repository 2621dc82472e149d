import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegance import ConfigError, load_config, parse_config, rescale
from omegance.config import MAX_LATENT_BYTES, MAX_SCHEDULE_STEPS
from omegance.formats import write_pgm
from omegance.omega import SCHEDULE_PRESETS, omega_schedule
from omegance.oracles import GaussianFieldSpec
from omegance.schedules import (
    AlphaBarSchedule,
    FlowTimesteps,
    SigmaSchedule,
    alpha_bar_from_betas,
    karras_sigmas,
    make_linear_beta,
)


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


# config files json cannot decode: not UTF-8, an integer literal over the
# interpreter's digit limit (under an unknown key, so an interpreter without
# the limit rejects it too), and arrays nested past the recursion limit
UNDECODABLE_CONFIGS = {
    "not_utf8": b"\xff\xfe{}",
    "huge_integer": b'{"unknown": ' + b"9" * 5000 + b"}",
    "deep_nesting": b"[" * 100000,
}


class TestParsing:
    def test_minimal_ddim(self):
        config = parse_config(minimal())
        assert config.sampler.kind == "ddim"
        assert config.sampler.steps == 10
        assert config.omegas == (1.0,)
        assert config.latent_shape == (8, 8)
        assert config.output_dir == "out"
        assert config.snapshot_format == "binary"
        assert isinstance(config.make_schedule(), AlphaBarSchedule)
        assert config.make_schedule() is config.sampler.schedule

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
        default = alpha_bar_from_betas(make_linear_beta(1000, 1e-4, 0.02))
        assert config.sampler.schedule.alpha_bars.tobytes() == default.alpha_bars.tobytes()
        config = parse_config(minimal(sampler={"kind": "euler", "steps": 10}))
        default = karras_sigmas(10, 0.0292, 14.6146, 7.0, 0.0)
        assert config.sampler.schedule.sigmas.tobytes() == default.sigmas.tobytes()
        assert config.sampler.schedule.churn == 0.0

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal()))
        config = load_config(path)
        assert config.sampler.steps == 10

    def test_unreadable_and_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)
        for text in UNDECODABLE_CONFIGS.values():
            bad.write_bytes(text)
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

    def test_oversize_latent_is_rejected_before_allocation(self):
        # parsing only: nothing of the latent's size is allocated here
        for shape in ([10**30, 10**30], [100000, 100000]):
            with pytest.raises(ConfigError, match="latent.shape"):
                parse_config(minimal(latent={"shape": shape}))
        # 8 bytes per cell for the latent, its prediction and three snapshots
        sampler = {"kind": "ddim", "steps": 10, "schedule": {"num_steps": 100}, "snapshots": [0, 5, 10]}
        largest = MAX_LATENT_BYTES // (8 * 5)
        config = parse_config(minimal(sampler=sampler, latent={"shape": [largest]}))
        assert config.latent_shape == (largest,)
        with pytest.raises(ConfigError, match="latent.shape"):
            parse_config(minimal(sampler=sampler, latent={"shape": [largest + 1]}))
        with pytest.raises(ConfigError, match="latent.shape"):
            parse_config(minimal(sampler={**sampler, "snapshots": [0, 1, 5, 10]}, latent={"shape": [largest]}))

    def test_overlong_schedule_is_rejected_before_allocation(self):
        flow = {"kind": "flow", "steps": MAX_SCHEDULE_STEPS}
        assert parse_config(minimal(sampler=flow)).sampler.schedule.num_steps == MAX_SCHEDULE_STEPS
        with pytest.raises(ConfigError, match="sampler.steps"):
            parse_config(minimal(sampler={**flow, "steps": MAX_SCHEDULE_STEPS + 1}))
        ladder = {"num_steps": MAX_SCHEDULE_STEPS + 1}
        with pytest.raises(ConfigError, match="schedule.num_steps"):
            parse_config(minimal(sampler={"kind": "ddim", "steps": 10, "schedule": ladder}))


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
        two_stage = omega_schedule("two_stage", config.sampler.steps, switch_step=3, early=0.95, late=1.0)
        assert config.sampler.control.schedule.values.tobytes() == two_stage.values.tobytes()
        assert config.sampler.control.schedule.total_steps == config.sampler.steps
        config = parse_config(
            minimal(omega={"values": [1.0], "schedule": {"kind": "preset", "name": "EXP2"}})
        )
        params = dict(SCHEDULE_PRESETS["EXP2"])
        assert params.pop("kind") == "exp"
        exp2 = omega_schedule("exp", config.sampler.steps, **params)
        assert config.sampler.control.schedule.values.tobytes() == exp2.values.tobytes()
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
        assert config.sampler.control.mask is not None
        assert np.all(config.sampler.control.mask.grid == 1.0)

    def test_mask_path_absolute_or_relative_to_the_config(self, tmp_path):
        # an absolute path loads the same file from any config directory; a
        # relative one names the file beside the config
        elsewhere, config_dir = tmp_path / "elsewhere", tmp_path / "configs"
        elsewhere.mkdir()
        config_dir.mkdir()
        write_pgm(elsewhere / "mask.pgm", np.full((8, 8), 255, dtype=np.uint8))
        write_pgm(config_dir / "mask.pgm", np.zeros((8, 8), dtype=np.uint8))
        config_path = config_dir / "config.json"
        for path, omega in ((str(elsewhere / "mask.pgm"), 1.0), ("mask.pgm", 0.9)):
            mask = {"path": path, "low": 0.9, "high": 1.0}
            config_path.write_text(json.dumps(minimal(omega={"values": [1.0], "mask": mask})))
            assert np.all(load_config(config_path).sampler.control.mask.grid == omega)
        absolute = minimal(omega={"values": [1.0], "mask": {"path": str(elsewhere / "mask.pgm")}})
        assert parse_config(absolute, base_dir=tmp_path / "absent").sampler.control.mask is not None

    def test_parsed_configs_compare_without_raising(self, tmp_path):
        write_pgm(tmp_path / "mask.pgm", np.full((8, 8), 255, dtype=np.uint8))
        data = minimal(omega={"values": [1.0], "mask": {"path": "mask.pgm"}})
        first, second = parse_config(data, base_dir=tmp_path), parse_config(data, base_dir=tmp_path)
        assert first == first
        assert (first == second) is False  # the mask and schedule compare by identity
        assert hash(first.sampler) == hash(first.sampler)

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

    def test_parsed_mixtures_compare_and_hash_by_identity(self):
        # a generated == over the (K,) arrays would raise for K > 1, and hash would fail on them
        mixture = {"kind": "gaussian_mixture", "weights": [0.3, 0.7], "means": [-2.0, 3.0], "variances": [1.0, 1.0]}
        first, second = parse_config(minimal(oracle=mixture)).oracle, parse_config(minimal(oracle=mixture)).oracle
        assert first == first
        assert (first == second) is False
        assert hash(first) == hash(first)

    def test_unknown_oracle(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(oracle={"kind": "unet"}))


class TestInitSection:
    def test_gaussian_field(self):
        config = parse_config(minimal(init={"kind": "gaussian_field", "exponent": -2.0}))
        assert config.field == GaussianFieldSpec(8, 8, -2.0)
        assert parse_config(minimal()).field is None

    def test_field_requires_2d(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(latent={"shape": [16]}, init={"kind": "gaussian_field"}))

    def test_white_rejects_exponent(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(init={"kind": "white", "exponent": -1.0}))


# ---------------------------------------------------------------------------
# fuzzing the config boundary with trees built from the config vocabulary

WORDS = st.sampled_from(["ddim", "karras", "two_stage", "COS2", "white", "csv", "mask.pgm", ""])
# small integers only: a valid config with a huge step count would allocate its ladder
INTEGERS = st.sampled_from([3, 5, 8, 1, 2, 10, 100, 0, -1, 10**400]) | st.integers(-2, 12)
NUMBERS = st.sampled_from(
    [1.0, 0.5, 0.97, 1.05, 2, 7.0, 8.0, 0.1, 0.02, 0.01, 1e-4, 0, -0.0, -1, 1e300, 10**400, math.nan, math.inf]
) | st.floats()
JUNK = (
    st.none() | st.booleans() | NUMBERS | WORDS
    | st.lists(NUMBERS | WORDS, max_size=3) | st.dictionaries(WORDS, NUMBERS, max_size=2)
)


def pick(good):
    """Mostly a value of the expected JSON type, one time in twenty a value of any type."""
    return st.sampled_from(range(20)).flatmap(lambda i: JUNK if i == 19 else good)


def section(required, optional=None):
    return st.fixed_dictionaries(
        {key: pick(value) for key, value in required.items()},
        optional={key: pick(value) for key, value in (optional or {}).items()},
    )


SAMPLER_SCHEDULES = {
    "ddim": {
        "kind": st.sampled_from(["linear_beta", "karras"]),
        "num_steps": INTEGERS,
        "beta_start": NUMBERS,
        "beta_end": NUMBERS,
    },
    "euler": {
        "kind": st.sampled_from(["karras", "uniform"]),
        "sigma_min": NUMBERS,
        "sigma_max": NUMBERS,
        "rho": NUMBERS,
        "churn": NUMBERS,
    },
    "flow": {"kind": st.sampled_from(["uniform", "linear_beta"])},
}
SAMPLERS = st.one_of(
    section(
        {"kind": st.just(kind), "steps": INTEGERS},
        {"schedule": section({}, schedule), "snapshots": st.lists(INTEGERS, max_size=3)},
    )
    for kind, schedule in SAMPLER_SCHEDULES.items()
)
OMEGA_SCHEDULES = st.one_of(
    section({"kind": st.just("constant"), "omega": NUMBERS}),
    section({"kind": st.just("two_stage"), "switch_step": INTEGERS, "early": NUMBERS, "late": NUMBERS}),
    section({"kind": st.just("exp"), "amplitude": NUMBERS, "decay": NUMBERS, "offset": NUMBERS}),
    section({"kind": st.just("cos"), "amplitude": NUMBERS, "offset": NUMBERS}),
    section({"kind": st.sampled_from(["preset", "spline"]), "name": st.sampled_from(["COS2", "EXP2", "LINEAR"])}),
)
NUMBER_LISTS = st.lists(NUMBERS, min_size=1, max_size=3)
MASKS = section(
    {"path": st.sampled_from(["mask.pgm", "missing.pgm", ""])},
    {"factor": INTEGERS, "low": NUMBERS, "high": NUMBERS, "mode": st.sampled_from(["average", "nearest", "max"])},
)
OMEGAS = section(
    {"values": NUMBER_LISTS | NUMBERS}, {"mask": MASKS, "schedule": OMEGA_SCHEDULES}
) | section(
    {"varpi": NUMBER_LISTS | NUMBERS},
    {"rescale": section({}, {"steepness": NUMBERS, "lower": NUMBERS, "upper": NUMBERS}), "mask": MASKS},
)
ORACLES = section({"kind": st.just("standard_normal")}) | section(
    {"kind": st.just("gaussian_mixture"), "weights": NUMBER_LISTS, "means": NUMBER_LISTS, "variances": NUMBER_LISTS}
)
# half the trees vary the sampler section alone, so that more of them reach the schedule
CONFIGS = SAMPLERS.map(lambda sampler: minimal(sampler=sampler)) | pick(
    section(
        {
            "sampler": SAMPLERS,
            "omega": OMEGAS,
            "oracle": ORACLES,
            "latent": section({"shape": st.sampled_from([[8, 8], [8, 8], [4, 4], [16], [0, 8]])}),
            "seeds": st.lists(INTEGERS, min_size=1, max_size=3),
        },
        {
            "init": section({"kind": st.sampled_from(["white", "gaussian_field"])}, {"exponent": NUMBERS}),
            "output_dir": WORDS,
            "snapshot_format": st.sampled_from(["binary", "csv", "png"]),
        },
    )
)


@pytest.fixture(scope="module")
def mask_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_pgm(path / "mask.pgm", np.arange(64, dtype=np.uint8).reshape(8, 8) * 4)
    return path


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=CONFIGS)
def test_any_vocabulary_tree_parses_or_raises_config_error(mask_dir, data):
    try:
        config = parse_config(data, base_dir=mask_dir)
    except ConfigError:
        return
    config.make_schedule()
