"""Forward-process noise schedules and signal-to-noise bookkeeping.

The discrete corruption used throughout is

    z_t = sqrt(abar_t) * z0 + sqrt(1 - abar_t) * eps

with ``abar_t`` the running product of ``(1 - beta_i)``. An
:class:`AlphaBarSchedule` stores that ladder with a leading entry of exactly
1.0: the pre-corruption anchor that the final denoising step lands on. SNR
queries against an entry equal to 1 are rejected as divergent rather than
assigned a value.

Scaling the noise-prediction term of a deterministic denoise step by a factor
``omega`` shifts the post-step signal-to-noise ratio; :func:`modified_snr_ddim`
gives the closed form and ``analysis.propagate_coefficients_ddim`` provides
the independent arithmetic route used to verify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalDivergenceError",
    "BetaSchedule",
    "AlphaBarSchedule",
    "SigmaSchedule",
    "FlowTimesteps",
    "make_linear_beta",
    "alpha_bar_from_betas",
    "snr",
    "modified_snr_ddim",
    "karras_sigmas",
    "flow_timesteps",
]


class SignalDivergenceError(ZeroDivisionError):
    """SNR query with no finite positive value: pure-signal entry, zero step bracket or over/underflow."""


# The schedule classes hold these vectors, so they compare and hash by
# identity (eq=False): a generated == over an array field would raise.
def _frozen_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BetaSchedule:
    """Per-step corruption variances beta_t, each strictly inside (0, 1)."""

    betas: np.ndarray

    def __post_init__(self):
        betas = _frozen_vector(self.betas, "betas")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("every beta must lie strictly inside (0, 1)")
        object.__setattr__(self, "betas", betas)

    @property
    def num_steps(self) -> int:
        return int(self.betas.size)


def make_linear_beta(
    num_steps: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02
) -> BetaSchedule:
    """Linearly interpolated beta schedule from beta_start to beta_end.

    Defaults follow the common discrete-diffusion convention (1000 steps over
    [1e-4, 0.02]); both endpoints and the length are configurable.
    """
    if not isinstance(num_steps, (int, np.integer)) or num_steps < 2:
        raise ValueError("num_steps must be an integer >= 2")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return BetaSchedule(np.linspace(beta_start, beta_end, num_steps))


@dataclass(frozen=True, eq=False)
class AlphaBarSchedule:
    """Cumulative signal coefficients with a leading exact-1.0 anchor.

    ``alpha_bars[t]`` is the squared signal fraction after ``t`` corruption
    steps; index 0 holds the pre-corruption anchor that the final denoising
    step references. Entries are strictly decreasing and lie in (0, 1].
    """

    alpha_bars: np.ndarray

    def __post_init__(self):
        bars = _frozen_vector(self.alpha_bars, "alpha_bars")
        if bars.size < 2:
            raise ValueError("alpha_bars needs the anchor plus at least one step")
        if np.any(bars <= 0.0) or np.any(bars > 1.0):
            raise ValueError("alpha_bars must lie in (0, 1]")
        if not np.all(np.diff(bars) < 0.0):
            raise ValueError("alpha_bars must be strictly decreasing")
        object.__setattr__(self, "alpha_bars", bars)

    @property
    def num_steps(self) -> int:
        return int(self.alpha_bars.size - 1)

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t <= self.num_steps:
            raise ValueError(f"step index {t} outside [0, {self.num_steps}]")
        return float(self.alpha_bars[t])

    def subsample(self, num_steps: int) -> "AlphaBarSchedule":
        """Ladder visiting num_steps evenly spaced entries plus the anchor.

        This is the schedule a num_steps-step deterministic run actually
        walks: indices are spread over [1, T] with both ends included, and
        the anchor keeps the final step landing on the clean estimate.
        """
        total = self.num_steps
        if not 1 <= num_steps <= total:
            raise ValueError(f"num_steps must lie in [1, {total}]")
        picks = np.rint(np.linspace(total, 1, num_steps)).astype(int)
        if num_steps > 1 and not np.all(np.diff(picks) < 0):
            raise ValueError("subsampled indices are not strictly decreasing")
        sub = np.concatenate(([self.alpha_bars[0]], self.alpha_bars[picks[::-1]]))
        return AlphaBarSchedule(sub)


def alpha_bar_from_betas(schedule: BetaSchedule) -> AlphaBarSchedule:
    """Running product of (1 - beta_t), prefixed with the exact-1.0 anchor.

    The product is accumulated left to right in float64 so rebuilding a
    schedule reproduces identical bits.
    """
    prods = np.cumprod(1.0 - schedule.betas)
    if prods[-1] <= 0.0:
        raise ValueError("cumulative product underflowed to zero signal")
    return AlphaBarSchedule(np.concatenate(([1.0], prods)))


def snr(schedule: AlphaBarSchedule, t: int) -> float:
    """Signal-to-noise ratio abar_t / (1 - abar_t) at step t.

    The pure-signal anchor (abar == 1) has no finite ratio and raises
    SignalDivergenceError instead of returning a value.
    """
    ab = schedule.alpha_bar(t)
    if ab >= 1.0:
        raise SignalDivergenceError(f"SNR divergent at t={t}: abar={ab} is pure signal")
    return ab / (1.0 - ab)


def modified_snr_ddim(schedule: AlphaBarSchedule, t: int, omega: float) -> float:
    """Post-step SNR when the noise prediction is scaled by omega.

    One deterministic step from t leaves the latent decomposed as
    A*z0 + B*eps with A = sqrt(abar_prev); the returned value is A^2/B^2 in
    the direct bracket form

        abar_prev / [ sqrt(abar_prev)*sqrt(1-abar_t)/sqrt(abar_t)
                      + omega * (sqrt(abar_t)*sqrt(1-abar_prev)
                                 - sqrt(abar_prev)*sqrt(1-abar_t)) / sqrt(abar_t) ]^2

    At omega = 1 this equals snr(schedule, t-1). The parenthesised difference
    is negative for every strictly decreasing schedule, so the ratio grows
    with omega until the bracket crosses zero (rejected as divergent).
    """
    if not 1 <= t <= schedule.num_steps:
        raise ValueError(f"step index {t} outside [1, {schedule.num_steps}]")
    if not (isinstance(omega, (int, float)) and math.isfinite(omega) and omega > 0.0):
        raise ValueError("omega must be a positive finite number")
    ab_prev = schedule.alpha_bar(t - 1)
    ab_t = schedule.alpha_bar(t)
    root_t = math.sqrt(ab_t)
    keep = math.sqrt(ab_prev) * math.sqrt(1.0 - ab_t) / root_t
    swing = (root_t * math.sqrt(1.0 - ab_prev) - math.sqrt(ab_prev) * math.sqrt(1.0 - ab_t)) / root_t
    bracket = keep + omega * swing
    if bracket == 0.0:
        raise SignalDivergenceError(f"omega={omega} zeroes the denoising bracket at t={t}")
    return ab_prev / (bracket * bracket)


@dataclass(frozen=True, eq=False)
class SigmaSchedule:
    """Decreasing noise levels for variance-exploding stepping, ending at 0.

    ``churn`` >= 0 inflates the current level to sigma_hat = sigma_i * (churn + 1)
    before the step direction is formed; churn 0 keeps stepping deterministic.
    """

    sigmas: np.ndarray
    churn: float = 0.0

    def __post_init__(self):
        sig = _frozen_vector(self.sigmas, "sigmas")
        if sig.size < 2:
            raise ValueError("sigmas needs at least one level plus the terminal 0")
        if not np.all(np.diff(sig) < 0.0):
            raise ValueError("sigmas must be strictly decreasing")
        if sig[-1] != 0.0:
            raise ValueError("sigmas must end at exactly 0")
        if not (math.isfinite(self.churn) and self.churn >= 0.0):
            raise ValueError("churn must be finite and >= 0")
        object.__setattr__(self, "sigmas", sig)

    @property
    def num_steps(self) -> int:
        return int(self.sigmas.size - 1)

    def sigma_hat(self, i: int) -> float:
        if not 0 <= i < self.num_steps:
            raise ValueError(f"level index {i} outside [0, {self.num_steps})")
        return float(self.sigmas[i]) * (self.churn + 1.0)


def karras_sigmas(
    num_levels: int,
    sigma_min: float = 0.0292,
    sigma_max: float = 14.6146,
    rho: float = 7.0,
    churn: float = 0.0,
) -> SigmaSchedule:
    """num_levels decreasing levels interpolated in sigma**(1/rho) space, plus a terminal 0."""
    if not isinstance(num_levels, (int, np.integer)) or num_levels < 2:
        raise ValueError("num_levels must be an integer >= 2")
    if not (0.0 < sigma_min < sigma_max):
        raise ValueError("need 0 < sigma_min < sigma_max")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    ramp = np.linspace(0.0, 1.0, num_levels)
    inv = 1.0 / rho
    levels = (sigma_max**inv + ramp * (sigma_min**inv - sigma_max**inv)) ** rho
    return SigmaSchedule(np.concatenate((levels, [0.0])), churn=churn)


@dataclass(frozen=True, eq=False)
class FlowTimesteps:
    """Integration times running from 1 down to 0; every dt is negative."""

    times: np.ndarray

    def __post_init__(self):
        times = _frozen_vector(self.times, "times")
        if times.size < 2:
            raise ValueError("times needs at least a start and an end")
        if not np.all(np.diff(times) < 0.0):
            raise ValueError("times must be strictly decreasing")
        if times[0] != 1.0 or times[-1] != 0.0:
            raise ValueError("times must start at 1 and end at 0")
        object.__setattr__(self, "times", times)

    @property
    def num_steps(self) -> int:
        return int(self.times.size - 1)

    def dt(self, k: int) -> float:
        if not 0 <= k < self.num_steps:
            raise ValueError(f"step index {k} outside [0, {self.num_steps})")
        return float(self.times[k + 1] - self.times[k])


def flow_timesteps(num_steps: int) -> FlowTimesteps:
    """Uniform grid of num_steps integration steps from t=1 to t=0 (dt = -1/num_steps)."""
    if not isinstance(num_steps, (int, np.integer)) or num_steps < 1:
        raise ValueError("num_steps must be an integer >= 1")
    return FlowTimesteps(np.linspace(1.0, 0.0, num_steps + 1))
