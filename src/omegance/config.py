"""Experiment configuration: strict JSON parsing and object construction.

Configs are JSON with a fixed vocabulary; unknown keys are rejected anywhere
in the tree so a mistyped omega parameter fails loudly instead of silently
running the default. All validation problems raise ConfigError, which the
command-line layer maps to exit code 2.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formats import read_pgm
from .omega import (
    SCHEDULE_KINDS,
    OmegaControl,
    OmegaMask,
    OmegaSchedule,
    RescaleParams,
    mask_from_grayscale,
    omega_schedule,
    rescale,
)
from .oracles import GaussianMixture, standard_normal
from .samplers import SAMPLER_KINDS
from .schedules import (
    AlphaBarSchedule,
    FlowTimesteps,
    SigmaSchedule,
    alpha_bar_from_betas,
    flow_timesteps,
    karras_sigmas,
    make_linear_beta,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config"]

# Largest working set of one trajectory a config may ask for: 8 bytes per
# latent cell for the latent, its prediction and each retained snapshot. A
# larger latent is a config error, found before anything is allocated. The
# CLI commands stream their snapshots and retain none, but a library caller
# that collects a trajectory's states holds them all, so the bound keeps the
# snapshot term.
MAX_LATENT_BYTES = 1 << 32


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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        number = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{name} must be a finite number") from exc
    if not math.isfinite(number):  # json parses NaN and +-Infinity
        raise ConfigError(f"{name} must be a finite number")
    return number


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    return value


def _seeds(seeds, name: str) -> tuple[int, ...]:
    """The seeds of a config or of --seeds, checked: a non-empty list of distinct non-negative integers."""
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds
    ):
        raise ConfigError(f"{name} must be a non-empty list of non-negative integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{name} must be distinct")
    return tuple(seeds)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment: resolved objects plus the raw JSON echo for the manifest."""

    sampler_kind: str
    steps: int
    schedule_spec: dict
    snapshots: tuple[int, ...]
    omegas: tuple[float, ...]
    mask: OmegaMask | None
    omega_schedule: OmegaSchedule | None
    oracle: GaussianMixture
    init_kind: str
    field_exponent: float
    latent_shape: tuple[int, ...]
    seeds: tuple[int, ...]
    output_dir: str
    snapshot_format: str
    raw: dict

    def make_schedule(self) -> AlphaBarSchedule | SigmaSchedule | FlowTimesteps:
        """Build the sampler schedule object described by schedule_spec."""
        spec = self.schedule_spec
        if self.sampler_kind == "ddim":
            betas = make_linear_beta(spec["num_steps"], spec["beta_start"], spec["beta_end"])
            return alpha_bar_from_betas(betas)
        if self.sampler_kind == "euler":
            return karras_sigmas(
                self.steps, spec["sigma_min"], spec["sigma_max"], spec["rho"], spec["churn"]
            )
        return flow_timesteps(self.steps)

    def make_control(self, omega: float) -> OmegaControl:
        return OmegaControl(base=omega, mask=self.mask, schedule=self.omega_schedule)


def load_config(path) -> ExperimentConfig:
    """Parse a config file; relative mask paths resolve against its directory."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)


def parse_config(data: dict, base_dir=".") -> ExperimentConfig:
    """Validate a config tree; the sampler schedule it describes is built once as a check."""
    top = _section(
        data,
        "config",
        required={"sampler", "omega", "oracle", "latent", "seeds"},
        optional={"init", "output_dir", "snapshot_format"},
    )

    latent = _section(top["latent"], "latent", required={"shape"})
    shape = latent["shape"]
    if (
        not isinstance(shape, list)
        or not 1 <= len(shape) <= 2
        or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in shape)
    ):
        raise ConfigError("latent.shape must be a list of one or two positive integers")
    latent_shape = tuple(shape)

    sampler_kind, steps, schedule_spec, snapshots = _parse_sampler(top["sampler"])
    if math.prod(latent_shape) * 8 * (len(snapshots) + 2) > MAX_LATENT_BYTES:
        raise ConfigError(
            f"latent.shape {shape} needs more than {MAX_LATENT_BYTES} bytes per trajectory (8 per cell"
            f" for the latent, its prediction and each of {len(snapshots)} snapshots)"
        )
    omegas, mask, omega_schedule = _parse_omega(top["omega"], steps, latent_shape, Path(base_dir))
    oracle = _parse_oracle(top["oracle"])
    init_kind, field_exponent = _parse_init(top.get("init", {"kind": "white"}), latent_shape)

    seeds = _seeds(top["seeds"], "seeds")
    output_dir = top.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a non-empty string")
    snapshot_format = top.get("snapshot_format", "binary")
    if snapshot_format not in ("binary", "csv"):
        raise ConfigError("snapshot_format must be 'binary' or 'csv'")

    config = ExperimentConfig(
        sampler_kind=sampler_kind,
        steps=steps,
        schedule_spec=schedule_spec,
        snapshots=snapshots,
        omegas=omegas,
        mask=mask,
        omega_schedule=omega_schedule,
        oracle=oracle,
        init_kind=init_kind,
        field_exponent=field_exponent,
        latent_shape=latent_shape,
        seeds=seeds,
        output_dir=output_dir,
        snapshot_format=snapshot_format,
        raw=data,
    )
    try:
        config.make_schedule()
    except (OverflowError, ValueError) as exc:  # OverflowError: sigma_max ** (1 / rho) for a tiny rho
        raise ConfigError(f"bad sampler schedule: {exc}") from exc
    return config


def _parse_sampler(data) -> tuple[str, int, dict, tuple[int, ...]]:
    sampler = _section(data, "sampler", required={"kind", "steps"}, optional={"schedule", "snapshots"})
    kind = sampler["kind"]
    if kind not in SAMPLER_KINDS:
        raise ConfigError(f"sampler.kind must be one of {', '.join(SAMPLER_KINDS)}")
    steps = _integer(sampler["steps"], "sampler.steps")
    if steps < 1:
        raise ConfigError("sampler.steps must be >= 1")

    spec = sampler.get("schedule", {})
    if kind == "ddim":
        spec = _section(
            spec, "sampler.schedule", required=set(), optional={"kind", "num_steps", "beta_start", "beta_end"}
        )
        if spec.get("kind", "linear_beta") != "linear_beta":
            raise ConfigError("ddim supports the linear_beta schedule only")
        resolved = {
            "kind": "linear_beta",
            "num_steps": _integer(spec.get("num_steps", 1000), "schedule.num_steps"),
            "beta_start": _number(spec.get("beta_start", 1e-4), "schedule.beta_start"),
            "beta_end": _number(spec.get("beta_end", 0.02), "schedule.beta_end"),
        }
        if steps > resolved["num_steps"]:
            raise ConfigError("sampler.steps exceeds the schedule length")
    elif kind == "euler":
        spec = _section(
            spec, "sampler.schedule", required=set(), optional={"kind", "sigma_min", "sigma_max", "rho", "churn"}
        )
        if spec.get("kind", "karras") != "karras":
            raise ConfigError("euler supports the karras schedule only")
        resolved = {
            "kind": "karras",
            "sigma_min": _number(spec.get("sigma_min", 0.0292), "schedule.sigma_min"),
            "sigma_max": _number(spec.get("sigma_max", 14.6146), "schedule.sigma_max"),
            "rho": _number(spec.get("rho", 7.0), "schedule.rho"),
            "churn": _number(spec.get("churn", 0.0), "schedule.churn"),
        }
        if steps < 2:
            raise ConfigError("euler needs at least 2 steps to form a sigma ladder")
    else:
        spec = _section(spec, "sampler.schedule", required=set(), optional={"kind"})
        if spec.get("kind", "uniform") != "uniform":
            raise ConfigError("flow supports the uniform schedule only")
        resolved = {"kind": "uniform"}

    snapshots = sampler.get("snapshots", [])
    if not isinstance(snapshots, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in snapshots
    ):
        raise ConfigError("sampler.snapshots must be a list of integers")
    if any(s < 0 or s > steps for s in snapshots):
        raise ConfigError(f"snapshot indices must lie in [0, {steps}]")
    return kind, steps, resolved, tuple(sorted(set(snapshots)))


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
        if any(v <= 0.0 for v in omegas):
            raise ConfigError("omega values must be positive")
    else:
        params = RescaleParams()
        if "rescale" in omega:
            sec = _section(
                omega["rescale"], "omega.rescale", required=set(), optional={"steepness", "lower", "upper"}
            )
            try:
                params = RescaleParams(
                    steepness=_number(sec.get("steepness", params.steepness), "rescale.steepness"),
                    lower=_number(sec.get("lower", params.lower), "rescale.lower"),
                    upper=_number(sec.get("upper", params.upper), "rescale.upper"),
                )
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        omegas = [rescale(v, params) for v in _as_list(omega["varpi"], "omega.varpi")]
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
        pgm_path = Path(sec["path"])
        if not pgm_path.is_absolute():
            pgm_path = base_dir / pgm_path
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
    return tuple(omegas), mask, schedule


def _parse_omega_schedule(data, steps: int) -> OmegaSchedule:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("omega.schedule must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "preset":
        names = ("name",)
    elif isinstance(kind, str) and kind in SCHEDULE_KINDS:
        names = SCHEDULE_KINDS[kind][0]
    else:
        raise ConfigError(f"unknown omega schedule kind {kind!r}")
    try:
        sec = _section(data, "omega.schedule", required={"kind", *names})
        if kind == "preset":  # omega_schedule rejects a name that is no preset's, a list say
            return omega_schedule(kind, steps, name=sec["name"])
        params = {
            name: (_integer if name == "switch_step" else _number)(sec[name], f"schedule.{name}") for name in names
        }
        return omega_schedule(kind, steps, **params)
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


def _parse_init(data, latent_shape) -> tuple[str, float]:
    sec = _section(data, "init", required={"kind"}, optional={"exponent"})
    kind = sec["kind"]
    if kind == "white":
        if "exponent" in sec:
            raise ConfigError("init.exponent only applies to gaussian_field")
        return "white", 0.0
    if kind == "gaussian_field":
        if len(latent_shape) != 2:
            raise ConfigError("gaussian_field init requires a 2-D latent")
        return "gaussian_field", _number(sec.get("exponent", 0.0), "init.exponent")
    raise ConfigError(f"unknown init kind {kind!r}")
