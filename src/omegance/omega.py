"""Omega resolution: scalar rescale, spatial masks, temporal schedules.

Omega values are plain positive floats. A value below 1 shrinks the
noise-prediction term of a denoise step (detail enhancement); above 1 grows
it (detail suppression). The composition rules here produce the single omega
used at a given (cell, step): base * schedule_value * mask_cell, with absent
parts contributing an exact factor of 1 so that identity controls leave
sampler arithmetic bit-for-bit unchanged. A schedule is one read-only table
of per-step omegas, built once by omega_schedule from a kind and its
parameters or from a named preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import _frozen_array, _is_finite_real, _is_integer, _is_positive_finite

__all__ = [
    "RescaleParams",
    "DEFAULT_RESCALE",
    "rescale",
    "OmegaMask",
    "mask_from_grayscale",
    "mask_to_grayscale",
    "OmegaSchedule",
    "omega_schedule",
    "OmegaControl",
    "IDENTITY_CONTROL",
]


@dataclass(frozen=True)
class RescaleParams:
    """Sigmoid mapping of the unbounded dial onto the open interval (lower, upper)."""

    steepness: float = 0.1
    lower: float = 0.95
    upper: float = 1.05

    def __post_init__(self):
        values = (self.steepness, self.lower, self.upper)
        if not all(_is_finite_real(v) for v in values):
            raise ValueError("rescale parameters must be finite numbers")
        if self.steepness <= 0.0:
            raise ValueError("steepness must be positive")
        if not 0.0 < self.lower < self.upper:
            raise ValueError("need 0 < lower < upper")


DEFAULT_RESCALE = RescaleParams()


def rescale(varpi: float, params: RescaleParams = DEFAULT_RESCALE) -> float:
    """Map the unbounded dial varpi to lower + (upper - lower) / (1 + exp(-steepness * varpi)).

    Strictly increasing in varpi and bounded in (lower, upper); at varpi = 0
    the result is the midpoint (lower + upper) / 2, which is exactly 1.0 under
    the defaults. Dial values within roughly [-10, 10] cover the visibly
    distinct range; far outside it the sigmoid saturates at the bounds.
    """
    if not _is_finite_real(varpi):
        raise ValueError("varpi must be a finite number")
    exponent = -params.steepness * varpi
    if exponent > 709.0:  # exp would overflow; the sigmoid has saturated
        return params.lower
    return params.lower + (params.upper - params.lower) / (1.0 + math.exp(exponent))


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: == on an array field would raise
class OmegaMask:
    """Per-cell omega grid at latent resolution."""

    grid: np.ndarray

    def __post_init__(self):
        grid = _frozen_array(self.grid, "mask grid", ndim=2)
        if not _is_positive_finite(grid):
            raise ValueError("mask cells must be finite and positive")
        object.__setattr__(self, "grid", grid)

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape  # type: ignore[return-value]


def mask_from_grayscale(
    pixels,
    factor: int,
    omega_low: float,
    omega_high: float,
    mode: str = "average",
) -> OmegaMask:
    """Build an omega mask from an 8-bit intensity image.

    The image is pooled down by ``factor`` (average pooling by default, or
    "nearest" block-centre sampling for hard-edged masks) and the pooled
    intensity v in [0, 255] is mapped linearly onto
    omega_low + (v / 255) * (omega_high - omega_low). Intensity 0 therefore
    lands on omega_low and 255 on omega_high.
    """
    image = np.asarray(pixels, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("pixels must be a non-empty 2-D array")
    if np.any(image < 0.0) or np.any(image > 255.0):
        raise ValueError("pixel intensities must lie in [0, 255]")
    if not _is_integer(factor) or factor < 1:
        raise ValueError("factor must be an integer >= 1")
    height, width = image.shape
    if height % factor or width % factor:
        raise ValueError(f"image dims {image.shape} not divisible by factor {factor}")
    if not (_is_positive_finite(omega_low) and _is_finite_real(omega_high) and omega_low <= omega_high):
        raise ValueError("need 0 < omega_low <= omega_high")
    if mode == "average":
        pooled = image.reshape(height // factor, factor, width // factor, factor).mean(axis=(1, 3))
    elif mode == "nearest":
        pooled = image[factor // 2 :: factor, factor // 2 :: factor]
    else:
        raise ValueError(f"unknown downsampling mode {mode!r}")
    grid = omega_low + (pooled / 255.0) * (omega_high - omega_low)
    return OmegaMask(grid)


def mask_to_grayscale(mask: OmegaMask) -> np.ndarray:
    """Normalise the omega grid onto 0..255 for previews (constant grids map to mid-gray)."""
    grid = mask.grid
    low, high = float(grid.min()), float(grid.max())
    if high - low <= 0.0:
        return np.full(grid.shape, 128, dtype=np.uint8)
    return np.rint((grid - low) / (high - low) * 255.0).astype(np.uint8)


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: == on an array field would raise
class OmegaSchedule:
    """Time-varying omega: one positive value per sampling step, as a read-only table."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, "schedule values")
        if not _is_positive_finite(values):
            raise ValueError("schedule emits a non-positive or non-finite omega")
        object.__setattr__(self, "values", values)

    @property
    def total_steps(self) -> int:
        return self.values.size

    def value_at(self, step: int) -> float:
        """Omega applied at the given 0-based sampling step."""
        if not 0 <= step < self.values.size:
            raise ValueError(f"step {step} outside [0, {self.values.size})")
        return float(self.values[step])


# Each schedule kind's parameter names, which are also its config keys, and
# its omega at step k of n. A two-stage schedule switches from early to late
# at switch_step: early steps settle layout and late steps fine detail, so
# the switch usually sits in the first fifth of the run (step 10 of 50).
SCHEDULE_KINDS = {
    "constant": (("omega",), lambda k, n, omega: omega),
    "two_stage": (
        ("switch_step", "early", "late"),
        lambda k, n, switch_step, early, late: early if k < switch_step else late,
    ),
    "exp": (
        ("amplitude", "decay", "offset"),
        lambda k, n, amplitude, decay, offset: 1.0 + amplitude * math.exp(-decay * k / n) + offset,
    ),
    "cos": (
        ("amplitude", "offset"),
        lambda k, n, amplitude, offset: 1.0 + amplitude * math.cos(math.pi * k / n) + offset,
    ),
}

# Start/end position relative to 1 picks the layout/detail quadrant: below 1
# early -> busier layout, below 1 late -> finer detail, and vice versa.
SCHEDULE_PRESETS: dict[str, dict] = {
    "EXP1": {"kind": "exp", "amplitude": -0.1, "decay": 3.0, "offset": 0.0},
    "EXP2": {"kind": "exp", "amplitude": -0.1, "decay": 3.0, "offset": 0.02},
    "COS1": {"kind": "cos", "amplitude": 0.02, "offset": 0.03},
    "COS2": {"kind": "cos", "amplitude": 0.05, "offset": -0.02},
}


def omega_schedule(kind: str, total_steps: int, /, **params) -> OmegaSchedule:
    """The schedule of a SCHEDULE_KINDS kind and its parameters, or of kind "preset" and a preset name.

    The one check of a schedule's vocabulary: each parameter a finite number (switch_step an integer), no other keyword.
    """
    if not _is_integer(total_steps) or total_steps < 1:
        raise ValueError("total_steps must be an integer >= 1")
    if kind == "preset":
        name = params.get("name")
        if set(params) != {"name"} or not isinstance(name, str) or name not in SCHEDULE_PRESETS:
            raise ValueError(f"a preset schedule takes the name of one of {', '.join(SCHEDULE_PRESETS)}, not {params}")
        params = dict(SCHEDULE_PRESETS[name])
        kind = params.pop("kind")
    if not isinstance(kind, str) or kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown omega schedule kind {kind!r}")
    names, formula = SCHEDULE_KINDS[kind]
    if set(params) != set(names):
        raise ValueError(f"a {kind} schedule takes the parameters {', '.join(names)}, not {sorted(params)}")
    for name, value in params.items():
        if not _is_finite_real(value):
            raise ValueError(f"schedule parameter {name} must be a finite number")
    if kind == "two_stage":
        switch = params["switch_step"]
        if not (_is_integer(switch) and 0 <= switch <= total_steps):
            raise ValueError("switch_step must be an integer in [0, total_steps]")
    try:
        return OmegaSchedule([formula(k, total_steps, **params) for k in range(total_steps)])
    except OverflowError as exc:
        raise ValueError("schedule parameters overflow") from exc


@dataclass(frozen=True)
class OmegaControl:
    """Composition of a base scalar, an optional mask, and an optional schedule.

    Resolution multiplies whichever parts are present. A control with no
    parts set is the exact identity: resolve_field returns the float 1.0 and
    sampler output stays bit-identical to an unscaled run. The least and the
    greatest resolved omega, formed in resolve_field's order, must round to
    neither 0 nor inf.
    """

    base: float = 1.0
    mask: OmegaMask | None = None
    schedule: OmegaSchedule | None = None

    def __post_init__(self):
        if isinstance(self.base, np.ndarray) or not _is_positive_finite(self.base):
            raise ValueError(f"base omega must be a positive finite number, not {self.base!r}")
        least = greatest = self.base
        if self.schedule is not None:
            least = least * float(self.schedule.values.min())
            greatest = greatest * float(self.schedule.values.max())
        if self.mask is not None:
            least = float(self.mask.grid.min()) * least
            greatest = float(self.mask.grid.max()) * greatest
        if not (_is_positive_finite(least) and _is_positive_finite(greatest)):
            omegas = f"the resolved omegas, base {self.base!r} * schedule * mask, span [{least!r}, {greatest!r}]"
            raise ValueError(f"{omegas}: one rounds to 0 or to inf")

    def resolve_field(self, shape: tuple[int, ...], step: int):
        """Omega for every cell of a latent with the given shape at one step.

        Returns a plain float when no mask is present (so scaling by an
        identity control preserves bits); with a mask the grid must match the
        latent shape exactly and an array is returned.
        """
        value = self.base
        if self.schedule is not None:
            value = value * self.schedule.value_at(step)
        if self.mask is None:
            return value
        if tuple(shape) != self.mask.grid.shape:
            raise ValueError(f"mask grid {self.mask.grid.shape} does not match latent shape {tuple(shape)}")
        return self.mask.grid * value


IDENTITY_CONTROL = OmegaControl()
