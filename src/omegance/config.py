"""Experiment configuration: strict JSON parsing and object construction.

Configs are JSON with a fixed vocabulary; unknown keys are rejected anywhere
in the tree so a mistyped omega parameter fails loudly instead of silently
running the default. All validation problems raise ConfigError, which the
command-line layer maps to exit code 2.

Parsing builds the run's objects once: the sampler section, the omega mask
and the omega schedule become one validated ``SamplerConfig`` (its schedule
built, its control at base 1.0), and a gaussian_field init becomes a
``GaussianFieldSpec``. Defaults a config leaves out are those of the
schedule builders' signatures and of ``rescale``. The constructors'
own checks (steps against the schedule length, each cell's least omega, ...)
are the config's checks; their ValueError becomes ConfigError.

Schema sketch (see the README for the full field list):

    {
      "sampler": {"kind": "ddim", "steps": 50,
                  "schedule": {"kind": "linear_beta", ...},
                  "snapshots": [0, 25, 50]},
      "omega":   {"values": [0.95, 1.0, 1.05]},         # or "varpi": [...]
      "oracle":  {"kind": "standard_normal"},
      "init":    {"kind": "white"},
      "latent":  {"shape": [64, 64]},
      "seeds":   [0, 1],
      "output_dir": "runs/demo",
      "snapshot_format": "binary"
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .formats import read_pgm
from .omega import OmegaControl, OmegaSchedule, mask_from_grayscale, omega_schedule, rescale
from .oracles import GaussianFieldSpec, GaussianMixture, standard_normal
from .samplers import SamplerConfig
from .schedules import (
    AlphaBarSchedule,
    FlowTimesteps,
    SigmaSchedule,
    _is_finite_real,
    _is_integer,
    flow_timesteps,
    karras_sigmas,
    linear_beta_ladder,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config"]

# Largest working set of one trajectory a config may ask for: 8 bytes per
# latent cell for the latent, its prediction and each retained snapshot. A
# larger latent is a config error, found before anything is allocated. The
# CLI commands stream their snapshots and retain none, but a library caller
# that collects a trajectory's states holds them all, so the bound keeps the
# snapshot term.
MAX_LATENT_BYTES = 1 << 32

# Longest sampler schedule a config may ask for, as ``sampler.steps`` or a
# ladder's ``num_steps``: the schedule and the omega schedule each hold a few
# tables of 8 bytes per step. A longer one is a config error, found before
# any table is allocated.
MAX_SCHEDULE_STEPS = 1 << 20

# Each sampler kind's schedule kind, that schedule's config keys and its
# builder, called with the sampler's step count and the keys the config gives.
_SAMPLER_SCHEDULES = {
    "ddim": ("linear_beta", ("num_steps", "beta_start", "beta_end"), lambda steps, **keys: linear_beta_ladder(**keys)),
    "euler": ("karras", ("sigma_min", "sigma_max", "rho", "churn"), karras_sigmas),
    "flow": ("uniform", (), flow_timesteps),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 2."""


def _section(data, name: str, required: set[str], optional: set[str] = frozenset()) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(data) - required - set(optional)
    if unknown:
        raise ConfigError(f"{name} has unknown keys: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"{name} is missing required keys: {sorted(missing)}")
    return data


def _number(value, name: str) -> float:
    if not _is_finite_real(value):  # json parses NaN and +-Infinity, and ints beyond the float range
        raise ConfigError(f"{name} must be a finite number")
    return float(value)


def _integer(value, name: str) -> int:
    if not _is_integer(value):
        raise ConfigError(f"{name} must be an integer")
    return value


def _output_dir(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty string")
    if "\0" in value:  # no path can hold one
        raise ConfigError(f"{name} must not contain a NUL byte")
    return value


def _seeds(seeds, name: str) -> tuple[int, ...]:
    """The seeds of a config or of --seeds, checked: a non-empty list of distinct non-negative integers."""
    if not isinstance(seeds, list) or not seeds or not all(_is_integer(s) and s >= 0 for s in seeds):
        raise ConfigError(f"{name} must be a non-empty list of non-negative integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{name} must be distinct")
    return tuple(seeds)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment: resolved objects plus the raw JSON echo for the manifest.

    ``sampler`` is the run's validated SamplerConfig: kind, steps, the built
    schedule, the snapshot steps and an OmegaControl at base 1.0 holding the
    omega mask and schedule. A (seed, omega) cell is this config with its
    seed and the omega as the control's base. ``field`` is the spec of a
    gaussian_field init, and None for white init.
    """

    sampler: SamplerConfig
    omegas: tuple[float, ...]
    oracle: GaussianMixture
    field: GaussianFieldSpec | None
    latent_shape: tuple[int, ...]
    seeds: tuple[int, ...]
    output_dir: str
    snapshot_format: str
    raw: dict

    def make_schedule(self) -> AlphaBarSchedule | SigmaSchedule | FlowTimesteps:
        """The sampler schedule, built once when the config was parsed.

        bench/run.py's setup probe calls this, and bench/spans.py times it by
        its name, so it stays although ``sampler.schedule`` holds the same object.
        """
        return self.sampler.schedule


def load_config(path) -> ExperimentConfig:
    """Parse a config file; relative mask paths resolve against its directory."""
    if "\0" in str(path):  # no path can hold one
        raise ConfigError(f"config path {str(path)!r} must not contain a NUL byte")
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # ValueError: malformed JSON, bytes that are not UTF-8, an integer literal
    # over the interpreter's digit limit; RecursionError: nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)


def parse_config(data: dict, base_dir=".") -> ExperimentConfig:
    """Validate a config tree and build the run's sampler, omega control and init field once."""
    top = _section(
        data,
        "config",
        required={"sampler", "omega", "oracle", "latent", "seeds"},
        optional={"init", "output_dir", "snapshot_format"},
    )

    latent = _section(top["latent"], "latent", required={"shape"})
    shape = latent["shape"]
    if not isinstance(shape, list) or not 1 <= len(shape) <= 2 or not all(_is_integer(v) and v >= 1 for v in shape):
        raise ConfigError("latent.shape must be a list of one or two positive integers")
    latent_shape = tuple(shape)

    kind, steps, schedule_keys, snapshots = _parse_sampler(top["sampler"])
    omegas, control = _parse_omega(top["omega"], steps, latent_shape, Path(base_dir))
    oracle = _parse_oracle(top["oracle"])
    try:
        schedule = _SAMPLER_SCHEDULES[kind][2](steps, **schedule_keys)
        sampler = SamplerConfig(kind, steps, schedule, control, snapshots=tuple(snapshots))
        if kind == "euler":  # the oracle's own scale check at the largest level; only its ValueError counts
            with np.errstate(all="ignore"):
                oracle.epsilon_given(np.zeros(1), 1.0, schedule.sigma_hat(0))
    except ValueError as exc:
        raise ConfigError(f"bad sampler: {exc}") from exc
    if math.prod(latent_shape) * 8 * (len(sampler.snapshots) + 2) > MAX_LATENT_BYTES:
        raise ConfigError(
            f"latent.shape {shape} needs more than {MAX_LATENT_BYTES} bytes per trajectory (8 per cell"
            f" for the latent, its prediction and each of {len(sampler.snapshots)} snapshots)"
        )
    field = _parse_init(top.get("init", {"kind": "white"}), latent_shape)

    seeds = _seeds(top["seeds"], "seeds")
    output_dir = _output_dir(top.get("output_dir", "out"), "output_dir")
    snapshot_format = top.get("snapshot_format", "binary")
    if snapshot_format not in ("binary", "csv"):
        raise ConfigError("snapshot_format must be 'binary' or 'csv'")

    return ExperimentConfig(
        sampler=sampler,
        omegas=omegas,
        oracle=oracle,
        field=field,
        latent_shape=latent_shape,
        seeds=seeds,
        output_dir=output_dir,
        snapshot_format=snapshot_format,
        raw=data,
    )


def _parse_sampler(data) -> tuple[str, int, dict, list]:
    """The sampler's kind, steps, schedule keys and snapshot list; the constructors check the rest."""
    sampler = _section(data, "sampler", required={"kind", "steps"}, optional={"schedule", "snapshots"})
    kind = sampler["kind"]
    if not isinstance(kind, str) or kind not in _SAMPLER_SCHEDULES:
        raise ConfigError(f"sampler.kind must be one of {', '.join(_SAMPLER_SCHEDULES)}")
    steps = _integer(sampler["steps"], "sampler.steps")
    if not 1 <= steps <= MAX_SCHEDULE_STEPS:
        raise ConfigError(f"sampler.steps must lie in [1, {MAX_SCHEDULE_STEPS}]")

    schedule_kind, keys, _ = _SAMPLER_SCHEDULES[kind]
    spec = _section(sampler.get("schedule", {}), "sampler.schedule", required=set(), optional={"kind", *keys})
    if spec.get("kind", schedule_kind) != schedule_kind:
        raise ConfigError(f"{kind} supports the {schedule_kind} schedule only")
    schedule_keys = {
        key: (_integer if key == "num_steps" else _number)(spec[key], f"schedule.{key}") for key in keys if key in spec
    }
    if schedule_keys.get("num_steps", 0) > MAX_SCHEDULE_STEPS:
        raise ConfigError(f"schedule.num_steps must be at most {MAX_SCHEDULE_STEPS}")

    snapshots = sampler.get("snapshots", [])
    if not isinstance(snapshots, list):
        raise ConfigError("sampler.snapshots must be a list of integers")
    return kind, steps, schedule_keys, snapshots


def _parse_omega(data, steps: int, latent_shape, base_dir: Path):
    omega = _section(
        data, "omega", required=set(), optional={"values", "varpi", "rescale", "mask", "schedule"}
    )
    has_values = "values" in omega
    has_varpi = "varpi" in omega
    if has_values == has_varpi:
        raise ConfigError("omega needs exactly one of 'values' (direct) or 'varpi' (rescaled)")
    if "rescale" in omega and not has_varpi:
        raise ConfigError("omega.rescale only applies to varpi input")

    def _as_list(raw, name):
        entries = raw if isinstance(raw, list) else [raw]
        if not entries:
            raise ConfigError(f"{name} must not be empty")
        return [_number(v, name) for v in entries]

    if has_values:
        omegas = _as_list(omega["values"], "omega.values")
    else:
        sec = _section(
            omega.get("rescale", {}), "omega.rescale", required=set(), optional={"steepness", "lower", "upper"}
        )
        params = {key: _number(value, f"rescale.{key}") for key, value in sec.items()}
        varpis = _as_list(omega["varpi"], "omega.varpi")
        try:
            omegas = [rescale(v, **params) for v in varpis]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if len(set(omegas)) != len(omegas):
        raise ConfigError("omega values must be distinct")

    mask = None
    if "mask" in omega:
        sec = _section(
            omega["mask"], "omega.mask", required={"path"}, optional={"factor", "low", "high", "mode"}
        )
        if len(latent_shape) != 2:
            raise ConfigError("omega masks require a 2-D latent")
        if not isinstance(sec["path"], str):
            raise ConfigError("omega.mask.path must be a string")
        pgm_path = base_dir / sec["path"]
        if not pgm_path.exists():
            raise ConfigError(f"mask file {pgm_path} does not exist")
        try:
            pixels = read_pgm(pgm_path)
            mask = mask_from_grayscale(
                pixels,
                factor=_integer(sec.get("factor", 1), "mask.factor"),
                omega_low=_number(sec.get("low", 0.95), "mask.low"),
                omega_high=_number(sec.get("high", 1.05), "mask.high"),
                mode=sec.get("mode", "average"),
            )
        except (OSError, ValueError) as exc:  # a directory, say, or an unreadable file
            raise ConfigError(f"bad mask {pgm_path}: {exc}") from exc
        if mask.grid.shape != latent_shape:
            raise ConfigError(
                f"mask grid {mask.grid.shape} does not match latent shape {latent_shape}"
            )

    schedule = None
    if "schedule" in omega:
        schedule = _parse_omega_schedule(omega["schedule"], steps)
    try:  # the run's control at base 1.0, then each cell's, with its omega as the base
        control = OmegaControl(mask=mask, schedule=schedule)
        for v in omegas:
            replace(control, base=v)
    except ValueError as exc:
        raise ConfigError(f"bad omega: {exc}") from exc
    return tuple(omegas), control


def _parse_omega_schedule(data, steps: int) -> OmegaSchedule:
    """omega_schedule owns the kinds, the presets and each kind's parameter names and values."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("omega.schedule must be an object with a 'kind'")
    params = dict(data)
    try:
        return omega_schedule(params.pop("kind"), steps, **params)
    except ValueError as exc:
        raise ConfigError(f"bad omega schedule: {exc}") from exc


def _parse_oracle(data) -> GaussianMixture:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("oracle must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "standard_normal":
        _section(data, "oracle", required={"kind"})
        return standard_normal()
    if kind == "gaussian_mixture":
        sec = _section(data, "oracle", required={"kind", "weights", "means", "variances"})
        arrays = []
        for name in ("weights", "means", "variances"):
            if not isinstance(sec[name], list):
                raise ConfigError(f"oracle.{name} must be a list of numbers")
            arrays.append(np.array([_number(v, f"oracle.{name}") for v in sec[name]], dtype=float))
        try:
            return GaussianMixture(*arrays)
        except ValueError as exc:
            raise ConfigError(f"bad mixture: {exc}") from exc
    raise ConfigError(f"unknown oracle kind {kind!r}")


def _parse_init(data, latent_shape) -> GaussianFieldSpec | None:
    sec = _section(data, "init", required={"kind"}, optional={"exponent"})
    kind = sec["kind"]
    if kind == "white":
        if "exponent" in sec:
            raise ConfigError("init.exponent only applies to gaussian_field")
        return None
    if kind == "gaussian_field":
        if len(latent_shape) != 2:
            raise ConfigError("gaussian_field init requires a 2-D latent")
        try:
            return GaussianFieldSpec(*latent_shape, _number(sec.get("exponent", 0.0), "init.exponent"))
        except ValueError as exc:
            raise ConfigError(f"bad init: {exc}") from exc
    raise ConfigError(f"unknown init kind {kind!r}")
