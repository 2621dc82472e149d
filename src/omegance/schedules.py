"""Forward-process noise schedules and signal-to-noise bookkeeping.

The discrete corruption used throughout is

    z_t = sqrt(abar_t) * z0 + sqrt(1 - abar_t) * eps

with ``abar_t`` the running product of ``(1 - beta_i)``. An
:class:`AlphaBarSchedule` stores that ladder; :func:`linear_beta_ladder`
builds it with a leading entry of exactly 1.0, the pre-corruption anchor
that the final denoising step lands on. SNR queries against an entry equal
to 1 are rejected as divergent rather than assigned a value.

Scaling the noise-prediction term of a deterministic denoise step by a factor
``omega`` shifts the post-step signal-to-noise ratio. :func:`modified_snr_ddim`
gives it in closed form for every step of a ladder at once, and
``analysis.propagate_coefficients_ddim`` reaches the same values along the
independent arithmetic route used to verify it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalDivergenceError",
    "AlphaBarSchedule",
    "SigmaSchedule",
    "FlowTimesteps",
    "linear_beta_ladder",
    "snr",
    "modified_snr_ddim",
    "karras_sigmas",
    "flow_timesteps",
]


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """The number rule: a real scalar that is not a bool and whose float is finite (no int beyond the float range)."""
    if type(value) is float:  # the per-step case, kept cheap
        return math.isfinite(value)
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_positive_finite(value) -> bool:
    """The omega rule: a finite real in (0, inf), or a non-empty array whose min and max both are."""
    if type(value) is float:  # the per-step case, kept cheap
        return 0.0 < value < math.inf
    if isinstance(value, np.ndarray):  # a NaN cell propagates through min and fails
        return value.size > 0 and _is_positive_finite(value.min()) and _is_positive_finite(value.max())
    return _is_finite_real(value) and value > 0.0


class SignalDivergenceError(ZeroDivisionError):
    """SNR query with no finite positive value: pure-signal entry, zero step bracket or over/underflow."""


# A read-only float64 copy: non-empty, finite, of rank ndim. Its holders compare
# and hash by identity (eq=False): a generated == over an array field would raise.
def _frozen_array(values, name: str, ndim: int = 1) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"{name} must be finite") from exc
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty {ndim}-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AlphaBarSchedule:
    """Cumulative signal coefficients, indexed by corruption step.

    ``alpha_bars[t]`` is the squared signal fraction after ``t`` corruption
    steps. Entries are strictly decreasing and lie in (0, 1]; any such table
    is accepted. :func:`linear_beta_ladder` puts the pre-corruption anchor,
    exactly 1.0, at index 0 and :meth:`subsample` keeps it; a ddim run's
    last step lands on whatever index 0 holds.
    """

    alpha_bars: np.ndarray

    def __post_init__(self):
        bars = _frozen_array(self.alpha_bars, "alpha_bars")
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
        if not (_is_integer(t) and 0 <= t <= self.num_steps):
            raise ValueError(f"step index {t!r} must be an integer in [0, {self.num_steps}]")
        return float(self.alpha_bars[t])

    def subsample(self, num_steps: int) -> "AlphaBarSchedule":
        """Ladder visiting num_steps evenly spaced entries behind index 0.

        This is the schedule a num_steps-step deterministic run actually
        walks: indices are spread over [1, T] with both ends included, and
        index 0 is kept, so the final step lands where this ladder's does.
        """
        total = self.num_steps
        if not (_is_integer(num_steps) and 1 <= num_steps <= total):
            raise ValueError(f"num_steps must be an integer in [1, {total}]")
        # the pick spacing (total - 1) / (num_steps - 1) is at least 1, so
        # the rounded picks strictly decrease
        picks = np.rint(np.linspace(total, 1, num_steps)).astype(int)
        sub = np.concatenate(([self.alpha_bars[0]], self.alpha_bars[picks[::-1]]))
        return AlphaBarSchedule(sub)


def linear_beta_ladder(
    num_steps: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02
) -> AlphaBarSchedule:
    """The ladder of a linear beta schedule, behind the exact-1.0 anchor.

    The betas run linearly from beta_start to beta_end over num_steps
    steps; the defaults follow the common discrete-diffusion convention
    (1000 steps over [1e-4, 0.02]). Entry t is the running product of
    (1 - beta) over the first t betas, accumulated left to right in float64
    so rebuilding a ladder reproduces identical bits.
    """
    if not _is_integer(num_steps) or num_steps < 2:
        raise ValueError("num_steps must be an integer >= 2")
    if not (_is_finite_real(beta_start) and _is_finite_real(beta_end)):
        raise ValueError("beta_start and beta_end must be finite numbers")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    prods = np.cumprod(1.0 - np.linspace(beta_start, beta_end, num_steps, dtype=np.float64))
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


def _scalar_omega(omega) -> float:
    """A scalar omega under the omega rule, as a float; an array is refused."""
    if isinstance(omega, np.ndarray) or not _is_positive_finite(omega):
        raise ValueError("omega must be a positive finite number")
    return float(omega)


def _checked_snr(values: np.ndarray, route: str, omega: float) -> np.ndarray:
    """A route's SNR over t = 2..T, or SignalDivergenceError naming the first t whose value is not in (0, inf)."""
    bad = np.flatnonzero(~((values > 0.0) & (values < math.inf)))
    if bad.size:
        raise SignalDivergenceError(f"{route} SNR at t={bad[0] + 2} is {float(values[bad[0]])!r} for omega={omega!r}")
    return values


def modified_snr_ddim(schedule: AlphaBarSchedule, omega: float) -> np.ndarray:
    """Post-step SNR of each step from t = 2..T when the noise prediction is scaled by omega.

    One deterministic step from t leaves the latent decomposed as
    A*z0 + B*eps with A = sqrt(abar_prev); the value for t is A^2/B^2 in
    the direct bracket form

        abar_prev / [ sqrt(abar_prev)*sqrt(1-abar_t)/sqrt(abar_t)
                      + omega * (sqrt(abar_t)*sqrt(1-abar_prev)
                                 - sqrt(abar_prev)*sqrt(1-abar_t)) / sqrt(abar_t) ]^2

    At omega = 1 this equals snr(schedule, t-1). The parenthesised difference
    is negative for every strictly decreasing schedule, so the ratio grows
    with omega until the bracket crosses zero. The step from t = 1 is left
    out: it references the exact anchor, where the unscaled ratio has no
    finite value. A ratio that is zero or not finite -- a zero bracket, or
    one whose square over- or underflows -- raises SignalDivergenceError
    naming the first such t.
    """
    omega = _scalar_omega(omega)
    ab_prev, ab_t = schedule.alpha_bars[1:-1], schedule.alpha_bars[2:]
    with np.errstate(all="ignore"):
        root_t = np.sqrt(ab_t)
        keep = np.sqrt(ab_prev) * np.sqrt(1.0 - ab_t) / root_t
        swing = (root_t * np.sqrt(1.0 - ab_prev) - np.sqrt(ab_prev) * np.sqrt(1.0 - ab_t)) / root_t
        bracket = keep + omega * swing
        values = ab_prev / (bracket * bracket)
    return _checked_snr(values, "analytic", omega)


@dataclass(frozen=True, eq=False)
class SigmaSchedule:
    """Decreasing noise levels for variance-exploding stepping, ending at 0.

    ``churn`` >= 0 inflates the current level to sigma_hat = sigma_i * (churn + 1)
    before the step direction is formed; churn 0 keeps stepping deterministic.
    """

    sigmas: np.ndarray
    churn: float = 0.0

    def __post_init__(self):
        sig = _frozen_array(self.sigmas, "sigmas")
        if sig.size < 2:
            raise ValueError("sigmas needs at least one level plus the terminal 0")
        if not np.all(np.diff(sig) < 0.0):
            raise ValueError("sigmas must be strictly decreasing")
        if sig[-1] != 0.0:
            raise ValueError("sigmas must end at exactly 0")
        if not (_is_finite_real(self.churn) and self.churn >= 0.0):
            raise ValueError("churn must be finite and >= 0")
        object.__setattr__(self, "sigmas", sig)

    @property
    def num_steps(self) -> int:
        return int(self.sigmas.size - 1)

    def sigma_hat(self, i: int) -> float:
        if not (_is_integer(i) and 0 <= i < self.num_steps):
            raise ValueError(f"level index {i!r} must be an integer in [0, {self.num_steps})")
        return float(self.sigmas[i]) * (self.churn + 1.0)


def karras_sigmas(
    num_levels: int,
    sigma_min: float = 0.0292,
    sigma_max: float = 14.6146,
    rho: float = 7.0,
    churn: float = 0.0,
) -> SigmaSchedule:
    """num_levels decreasing levels interpolated in sigma**(1/rho) space, plus a terminal 0."""
    if not _is_integer(num_levels) or num_levels < 2:
        raise ValueError("num_levels must be an integer >= 2")
    if not all(_is_finite_real(v) for v in (sigma_min, sigma_max, rho)):
        raise ValueError("sigma_min, sigma_max and rho must be finite numbers")
    if not (0.0 < sigma_min < sigma_max):
        raise ValueError("need 0 < sigma_min < sigma_max")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    ramp = np.linspace(0.0, 1.0, num_levels)
    inv = 1.0 / rho
    try:
        top = sigma_max**inv
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):  # a tiny rho
        raise ValueError(f"sigma_max ** (1 / rho) overflows at rho {rho!r}")
    levels = (top + ramp * (sigma_min**inv - top)) ** rho
    return SigmaSchedule(np.concatenate((levels, [0.0])), churn=churn)


@dataclass(frozen=True, eq=False)
class FlowTimesteps:
    """Integration times running from 1 down to 0; every dt is negative."""

    times: np.ndarray

    def __post_init__(self):
        times = _frozen_array(self.times, "times")
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
        if not (_is_integer(k) and 0 <= k < self.num_steps):
            raise ValueError(f"step index {k!r} must be an integer in [0, {self.num_steps})")
        return float(self.times[k + 1] - self.times[k])


def flow_timesteps(num_steps: int) -> FlowTimesteps:
    """Uniform grid of num_steps integration steps from t=1 to t=0 (dt = -1/num_steps)."""
    if not _is_integer(num_steps) or num_steps < 1:
        raise ValueError("num_steps must be an integer >= 1")
    return FlowTimesteps(np.linspace(1.0, 0.0, num_steps + 1))
