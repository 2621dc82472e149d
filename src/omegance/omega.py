"""Omega resolution: scalar rescale, spatial masks, temporal schedules.

Omega values are plain positive floats. A value below 1 shrinks the
noise-prediction term of a denoise step (detail enhancement); above 1 grows
it (detail suppression). The composition rules here produce the single omega
used at a given (cell, step): base * schedule_value * mask_cell, with absent
parts contributing an exact factor of 1 so that identity controls leave
sampler arithmetic bit-for-bit unchanged.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RescaleParams",
    "DEFAULT_RESCALE",
    "rescale",
    "OmegaMask",
    "mask_from_grayscale",
    "mask_to_grayscale",
    "OmegaSchedule",
    "ConstantSchedule",
    "TwoStageSchedule",
    "ExpSchedule",
    "CosSchedule",
    "SCHEDULE_PRESETS",
    "preset_schedule",
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
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
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
    if not (isinstance(varpi, (int, float)) and math.isfinite(varpi)):
        raise ValueError("varpi must be a finite number")
    exponent = -params.steepness * varpi
    if exponent > 709.0:  # exp would overflow; the sigmoid has saturated
        return params.lower
    return params.lower + (params.upper - params.lower) / (1.0 + math.exp(exponent))


@dataclass(frozen=True)
class OmegaMask:
    """Per-cell omega grid at latent resolution."""

    grid: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=np.float64)
        if grid.ndim != 2 or grid.size == 0:
            raise ValueError("mask grid must be a non-empty 2-D array")
        if not np.all(np.isfinite(grid)) or np.any(grid <= 0.0):
            raise ValueError("mask cells must be finite and positive")
        grid.setflags(write=False)
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
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError("factor must be an integer >= 1")
    height, width = image.shape
    if height % factor or width % factor:
        raise ValueError(f"image dims {image.shape} not divisible by factor {factor}")
    if not (0.0 < omega_low <= omega_high):
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


class OmegaSchedule(abc.ABC):
    """Time-varying omega: one positive value per sampling step."""

    total_steps: int

    @abc.abstractmethod
    def value_at(self, step: int) -> float:
        """Omega applied at the given 0-based sampling step."""

    def _check_step(self, step: int) -> None:
        if not 0 <= step < self.total_steps:
            raise ValueError(f"step {step} outside [0, {self.total_steps})")

    def values(self) -> np.ndarray:
        return np.array([self.value_at(k) for k in range(self.total_steps)])

    def _check_positive(self) -> None:
        try:
            emitted = self.values()
        except OverflowError as exc:
            raise ValueError("schedule parameters overflow") from exc
        if np.any(emitted <= 0.0) or not np.all(np.isfinite(emitted)):
            raise ValueError("schedule emits a non-positive or non-finite omega")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


@dataclass(frozen=True)
class ConstantSchedule(OmegaSchedule):
    omega: float
    total_steps: int

    def __post_init__(self):
        self._check_positive()

    def value_at(self, step: int) -> float:
        self._check_step(step)
        return self.omega


@dataclass(frozen=True)
class TwoStageSchedule(OmegaSchedule):
    """omega_early until switch_step, omega_late from then on.

    Early steps settle layout and late steps settle fine detail, so the
    switch usually sits in the first fifth of the run (step 10 of 50).
    """

    switch_step: int
    omega_early: float
    omega_late: float
    total_steps: int

    def __post_init__(self):
        if not 0 <= self.switch_step <= self.total_steps:
            raise ValueError("switch_step must lie in [0, total_steps]")
        self._check_positive()

    def value_at(self, step: int) -> float:
        self._check_step(step)
        return self.omega_early if step < self.switch_step else self.omega_late


@dataclass(frozen=True)
class ExpSchedule(OmegaSchedule):
    """1 + amplitude * exp(-decay * step / total_steps) + offset."""

    amplitude: float
    decay: float
    offset: float
    total_steps: int

    def __post_init__(self):
        self._check_positive()

    def value_at(self, step: int) -> float:
        self._check_step(step)
        return 1.0 + self.amplitude * math.exp(-self.decay * step / self.total_steps) + self.offset


@dataclass(frozen=True)
class CosSchedule(OmegaSchedule):
    """1 + amplitude * cos(pi * step / total_steps) + offset."""

    amplitude: float
    offset: float
    total_steps: int

    def __post_init__(self):
        self._check_positive()

    def value_at(self, step: int) -> float:
        self._check_step(step)
        return 1.0 + self.amplitude * math.cos(math.pi * step / self.total_steps) + self.offset


# Start/end position relative to 1 picks the layout/detail quadrant: below 1
# early -> busier layout, below 1 late -> finer detail, and vice versa.
SCHEDULE_PRESETS: dict[str, dict] = {
    "EXP1": {"kind": "exp", "amplitude": -0.1, "decay": 3.0, "offset": 0.0},
    "EXP2": {"kind": "exp", "amplitude": -0.1, "decay": 3.0, "offset": 0.02},
    "COS1": {"kind": "cos", "amplitude": 0.02, "offset": 0.03},
    "COS2": {"kind": "cos", "amplitude": 0.05, "offset": -0.02},
}


def preset_schedule(name: str, total_steps: int) -> OmegaSchedule:
    """Named omega-schedule preset over the given number of steps."""
    try:
        params = dict(SCHEDULE_PRESETS[name])
    except KeyError:
        raise ValueError(f"unknown schedule preset {name!r}") from None
    kind = params.pop("kind")
    if kind == "exp":
        return ExpSchedule(total_steps=total_steps, **params)
    return CosSchedule(total_steps=total_steps, **params)


@dataclass(frozen=True)
class OmegaControl:
    """Composition of a base scalar, an optional mask, and an optional schedule.

    Resolution multiplies whichever parts are present. A control with no
    parts set is the exact identity: resolve_field returns the float 1.0 and
    sampler output stays bit-identical to an unscaled run.
    """

    base: float = 1.0
    mask: OmegaMask | None = None
    schedule: OmegaSchedule | None = None

    def __post_init__(self):
        if not (isinstance(self.base, (int, float)) and math.isfinite(self.base) and self.base > 0):
            raise ValueError("base omega must be a positive finite number")

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
