"""Independent verification routes for omega-scaled sampling.

Every routine here reaches a quantity the samplers (or the closed-form SNR)
also produce, via a deliberately different arithmetic path: coefficient
propagation for the post-step SNR, scalar recursions for whole unit-normal
oracle trajectories, and annularly averaged FFT power for frequency-band
bookkeeping. Agreement between the routes is what the acceptance suite pins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .samplers import _KINDS
from .schedules import AlphaBarSchedule, _checked_snr, _is_positive_finite, _scalar_omega

__all__ = [
    "propagate_coefficients_ddim",
    "ScalarTrajectory",
    "closed_form_scalar_trajectory",
    "SpectrumProfile",
    "radial_spectrum",
    "band_energy",
]


@dataclass(frozen=True)
class ScalarTrajectory:
    """Per-step multipliers of a unit-normal-oracle trajectory.

    The deviation from the latent mean scales by ``multipliers``, the mean by
    ``mean_multipliers``: equal for ddim and euler, unscaled for recentred flow.
    """

    kind: str
    multipliers: np.ndarray
    mean_multipliers: np.ndarray

    def reconstruct(self, z_init) -> list[np.ndarray]:
        """States after 0..n steps for a concrete starting latent."""
        z0 = np.asarray(z_init, dtype=np.float64)
        deviation = np.concatenate(([1.0], np.cumprod(self.multipliers)))
        mean_track = np.concatenate(([1.0], np.cumprod(self.mean_multipliers)))
        m0 = float(z0.mean())
        return [c * (z0 - m0) + mc * m0 for c, mc in zip(deviation, mean_track)]


def _step_table(kind: str, schedule) -> tuple:
    """Per-step (delta, zeta, gain) of a kind's steps under the unit-normal oracle.

    Step k maps z to delta*z + zeta*omega*pred, and the oracle predicts pred = gain*z:
        ddim   sqrt(abar_prev) / sqrt(abar_t), sqrt(1-abar_prev) - delta * sqrt(1-abar_t), sqrt(1-abar_t)
        euler  1, sigma_next - sigma_hat, sigma_hat / (1 + sigma_hat^2)
        flow   1, dt, (2t - 1) / ((1-t)^2 + t^2)
    """
    if not isinstance(kind, str) or kind not in _KINDS or not isinstance(schedule, _KINDS[kind][0]):
        raise ValueError(f"no closed-form trajectory for kind {kind!r} on a {type(schedule).__name__}")
    if kind == "ddim":
        bars = schedule.alpha_bars[::-1]  # t = T..1 against t - 1
        ab_t, ab_prev = bars[:-1], bars[1:]
        root_t = np.sqrt(ab_t)
        delta = np.sqrt(ab_prev) / root_t
        zeta = -np.sqrt(ab_prev) * np.sqrt(1.0 - ab_t) / root_t + np.sqrt(1.0 - ab_prev)
        return delta, zeta, np.sqrt(1.0 - ab_t)
    if kind == "euler":
        if schedule.churn > 0.0:
            raise ValueError("churned euler has no closed-form trajectory: its noise is drawn, not scaled")
        sigma_hat = schedule.sigmas[:-1]
        return 1.0, schedule.sigmas[1:] - sigma_hat, sigma_hat / (1.0 + sigma_hat**2)
    t = schedule.times[:-1]
    return 1.0, np.diff(schedule.times), (2.0 * t - 1.0) / ((1.0 - t) ** 2 + t**2)


def propagate_coefficients_ddim(schedule: AlphaBarSchedule, omega: float) -> np.ndarray:
    """Post-step SNR of each step from t = 2..T, by propagating the latent's coefficients.

    Each step starts from the forward-process decomposition at t,
    z = sqrt(abar_t) * z0 + sqrt(1 - abar_t) * eps, and assumes the prediction
    equals its noise component, so the step's (delta, zeta) from ``_step_table``
    leave the coefficients

        z0_coeff' = delta * sqrt(abar_t)
        eps_coeff' = delta * sqrt(1 - abar_t) + zeta * omega

    and the value for t is z0_coeff'^2 / eps_coeff'^2. z0_coeff' lands on
    sqrt(abar_prev), and the ratio equals modified_snr_ddim's bracket form;
    the two routes share no arithmetic, which is what makes the comparison a
    real check. A ratio that is zero or not finite raises
    SignalDivergenceError naming the first such t.
    """
    omega = _scalar_omega(omega)
    # the table runs t = T..1; its rows for t = 2..T, ascending
    delta, zeta, _ = (column[-2::-1] for column in _step_table("ddim", schedule))
    ab_t = schedule.alpha_bars[2:]
    with np.errstate(all="ignore"):
        z0_coeff = delta * np.sqrt(ab_t)
        eps_coeff = delta * np.sqrt(1.0 - ab_t) + zeta * omega
        values = (z0_coeff * z0_coeff) / (eps_coeff * eps_coeff)
    return _checked_snr(values, "propagated", omega)


def closed_form_scalar_trajectory(kind: str, schedule, omega) -> ScalarTrajectory:
    """Exact per-step multipliers when the denoiser is the unit-normal oracle.

    Each step scales the deviation from the latent mean by delta + zeta*omega*gain
    (``_step_table``; ddim walks every rung of ``schedule``), and the mean alike,
    but for flow, whose recentred step scales it by delta + zeta*gain. ``omega`` is
    a scalar or one value per step (base times ``OmegaSchedule.values``).
    """
    delta, zeta, gain = _step_table(kind, schedule)
    if isinstance(omega, np.ndarray) and omega.shape != zeta.shape or not _is_positive_finite(omega):
        raise ValueError(f"omega must be a positive finite number, or {zeta.size} of them, one per step")
    mean_omega = 1.0 if kind == "flow" else omega
    return ScalarTrajectory(kind, delta + zeta * omega * gain, delta + zeta * mean_omega * gain)


@dataclass(frozen=True)
class SpectrumProfile:
    """Annularly averaged power of a 2-D latent; bin b collects integer radius b.

    ``mean_power[b] * counts[b]`` summed over all bins equals the latent's
    total energy sum(z**2) (the FFT power is normalised by the cell count).
    ``counts`` is read-only: profiles of one grid shape share it. Bins below
    ``split_radius``, a positive finite number, form the low band.
    """

    mean_power: np.ndarray
    counts: np.ndarray
    split_radius: float

    def __post_init__(self):
        if isinstance(self.split_radius, np.ndarray) or not _is_positive_finite(self.split_radius):
            raise ValueError(f"split_radius must be a positive finite number, not {self.split_radius!r}")
        object.__setattr__(self, "split_radius", float(self.split_radius))

    def total_power(self) -> float:
        return float(np.sum(self.mean_power * self.counts))


@functools.lru_cache(maxsize=8)
def _radial_bins(height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radius bins and weights of the rfft half plane, and full-plane bin counts.

    The half plane holds the W // 2 + 1 columns with kx >= 0. Every other
    cell of the full FFT plane mirrors one of them at (-ky, -kx), with the
    same radius and, for a real latent, the same power, so a half-plane cell
    stands for itself and its mirror: weight 2, except the DC column and (for
    even W) the Nyquist column, which are their own mirror images and weigh
    1. ``counts`` counts full-plane cells per bin. Cached per grid shape and
    shared by every caller, so all three arrays are read-only.
    """
    freq_y = np.fft.fftfreq(height) * height
    freq_x = np.fft.rfftfreq(width) * width
    radii = np.hypot(freq_y[:, None], freq_x[None, :])
    bins = np.rint(radii).astype(int).ravel()
    weights = np.full((height, freq_x.size), 2.0)
    weights[:, 0] = 1.0
    if width % 2 == 0:
        weights[:, -1] = 1.0
    counts = np.bincount(bins, weights=weights.ravel()).astype(int)
    for arr in (bins, weights, counts):
        arr.setflags(write=False)
    return bins, weights, counts


def radial_spectrum(values) -> SpectrumProfile:
    """Radial profile of |FFT|^2 / N with the DC term alone in bin 0.

    Frequencies are binned by rounding the integer-frequency radius
    sqrt(ky^2 + kx^2). The power is read off the real FFT's half plane, each
    cell weighted for its mirrored twin (see ``_radial_bins``). The band
    split is half the Nyquist radius, min(H, W) / 4.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("radial spectrum requires a 2-D latent")
    if min(arr.shape) < 4:
        raise ValueError("latent must be at least 4x4")
    height, width = arr.shape
    bins, weights, counts = _radial_bins(height, width)
    # rfft2's two passes in its order, the second in the first's buffer
    spectrum = np.fft.rfft(arr, axis=-1)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    # |X|^2 = re^2 + im^2: square the buffer's float64 view in place, then add its halves
    parts = spectrum.view(np.float64)
    np.square(parts, out=parts)
    power = np.add(parts[:, 0::2], parts[:, 1::2])
    del spectrum, parts
    power /= arr.size
    power *= weights
    sums = np.bincount(bins, weights=power.ravel())
    mean_power = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return SpectrumProfile(mean_power, counts, min(height, width) / 4.0)


def band_energy(profile: SpectrumProfile, band: str) -> float:
    """Total power in one band: bins strictly below the split radius are 'low'.

    Bin b holds integer radius b, so the low bins are the first ceil(split_radius).
    """
    if band not in ("low", "high"):
        raise ValueError("band must be 'low' or 'high'")
    edge = math.ceil(profile.split_radius)
    selected = slice(None, edge) if band == "low" else slice(edge, None)
    return float(np.add.reduce(profile.mean_power[selected] * profile.counts[selected]))  # np.sum's own reduce
