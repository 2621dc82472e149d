"""Closed-form denoisers for known priors.

A Gaussian-mixture prior pushed through any affine Gaussian corruption
z = a * z0 + b * eps admits exact posterior means for both z0 and eps, so
these oracles stand in for trained prediction networks wherever a sampler
claim needs an exact reference. Scalar mixtures (component means of shape
(K,)) act independently on every latent cell, which makes them the substrate
for locality checks; vector mixtures couple coordinates through the component
responsibilities.

Responsibilities are always formed in log space with max subtraction, so the
normalising total never underflows to zero.

A scalar mixture forms only the moments its caller asks for: eps for
epsilon_predict, z0 for posterior_z0, both for velocity_predict. With K > 1
components it walks the flattened latent in blocks of BLOCK_CELLS cells, so
that its (K, block) temporaries stay in a core's cache instead of being
allocated, faulted in and freed on every call. Each thread keeps one
workspace (a ``threading.local``, keyed by (K, block width)) of three (K,
width) buffers, for the differences, the log responsibilities and the eps
term, and one (1, width) row for the per-cell maximum and total. Every
block runs the same operations in the same order as one pass over the
whole latent would, and sums its moments over k straight into freshly
allocated outputs, so a returned array never aliases the workspace and the
next call cannot change it. A single component has responsibility exactly
1.0, so K = 1 skips the softmax and takes the linear Tweedie form
eps = b * (z - a*mu) / (a^2 v + b^2), z0 = mu + (a*v) * (z - a*mu) / (a^2 v + b^2).
Both give every cell the operations of the general softmax route in the same
order, so their outputs are bitwise identical to it, signed zeros included,
for every cell whose squared distance to some component centre is finite.
A cell farther than about 1.3e154 from every centre, where that route would
give NaN, has its log responsibilities shifted by the nearest component's
instead, which keeps them finite; components without mass get -inf there
directly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianMixture",
    "standard_normal",
    "sample_prior",
    "GaussianFieldSpec",
    "gaussian_field_2d",
]

_WEIGHT_SUM_TOL = 1e-12
# cells per block of the K > 1 scalar posterior: three (3, BLOCK_CELLS)
# float64 buffers take 1.2 MB, within a 2 MiB per-core L2 cache
BLOCK_CELLS = 16384
_workspace = threading.local()


def _scalar_workspace(components: int, width: int) -> tuple[np.ndarray, ...]:
    """This thread's (diff, log_resp, term, row) buffers; one (K, width) set is kept."""
    key = (components, width)
    if getattr(_workspace, "key", None) != key:
        _workspace.buffers = tuple(np.empty((components, width)) for _ in range(3)) + (np.empty((1, width)),)
        _workspace.key = key
    return _workspace.buffers


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture with diagonal covariance; scalar (K,) or vector (K, d) components."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        means = np.array(self.means, dtype=np.float64)
        variances = np.array(self.variances, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D vector")
        if (
            not np.all(np.isfinite(weights))
            or np.any(weights < 0.0)
            or not np.any(weights > 0.0)
            or abs(float(weights.sum()) - 1.0) > _WEIGHT_SUM_TOL
        ):
            raise ValueError("weights must be non-negative with positive total mass summing to 1")
        if means.shape != variances.shape or means.ndim not in (1, 2):
            raise ValueError("means and variances must share a (K,) or (K, d) shape")
        if means.shape[0] != weights.size:
            raise ValueError("component count mismatch between weights and means")
        if np.any(variances <= 0.0) or not np.all(np.isfinite(variances)):
            raise ValueError("variances must be finite and positive")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        for arr, name in ((weights, "weights"), (means, "means"), (variances, "variances")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_components(self) -> int:
        return int(self.weights.size)

    @property
    def is_scalar(self) -> bool:
        return self.means.ndim == 1

    @property
    def dimension(self) -> int:
        return 1 if self.is_scalar else int(self.means.shape[1])

    def _posterior(self, z, signal_scale: float, noise_scale: float, *, want_eps=True, want_z0=True):
        """Posterior means (E[eps | z], E[z0 | z]) under z = a*z0 + b*eps.

        A scalar mixture forms only the wanted moments and returns None for
        the other; a vector mixture always returns both.
        """
        a, b = float(signal_scale), float(noise_scale)
        if not (math.isfinite(a) and math.isfinite(b)) or a < 0.0 or b < 0.0 or a + b == 0.0:
            raise ValueError("corruption scales must be non-negative with a positive sum")
        z = np.asarray(z, dtype=np.float64)
        if not np.all(np.isfinite(z)):
            raise ValueError("latent contains non-finite values")
        if self.is_scalar:
            return self._scalar_posterior(z, a, b, want_eps, want_z0)
        with np.errstate(divide="ignore"):  # zero weights contribute -inf, i.e. no mass
            log_weights = np.log(self.weights)
        if z.shape != (self.dimension,):
            raise ValueError(f"vector mixture expects a latent of shape ({self.dimension},)")
        centers = a * self.means
        total_var = a * a * self.variances + b * b
        diff = z[None, :] - centers
        with np.errstate(over="ignore"):  # a square beyond the float range gives no mass
            log_resp = log_weights - 0.5 * np.sum(
                diff * diff / total_var + np.log(2.0 * np.pi * total_var), axis=1
            )
        if log_resp.max() == -np.inf:  # far from every centre with mass
            gaps = self._far_distance_gaps(diff, centers, total_var, log_weights)
            log_resp = log_weights - 0.5 * (gaps + np.sum(np.log(2.0 * np.pi * total_var), axis=1))
        log_resp -= log_resp.max()
        resp = np.exp(log_resp)
        resp /= resp.sum()
        pull = diff / total_var
        eps_mean = (resp[:, None] * (b * pull)).sum(axis=0)
        z0_mean = (resp[:, None] * (self.means + a * self.variances * pull)).sum(axis=0)
        return eps_mean, z0_mean

    def _scalar_posterior(self, z: np.ndarray, a: float, b: float, want_eps: bool, want_z0: bool):
        """Cellwise posterior moments of a scalar mixture; unwanted ones are None.

        Each cell gets the softmax route's operations in its order: diff =
        z - a*mu, pull = diff / (a^2 v + b^2), eps = sum_k resp * (b * pull)
        and z0 = sum_k resp * (mu + (a*v) * pull), with the sums over k
        starting from +0.0. For K = 1 the responsibility is exactly 1.0, so
        the sum reduces to adding its +0.0 start, which only turns -0.0 into
        +0.0; the softmax is skipped.
        """
        shape = z.shape
        eps_mean = z0_mean = None
        if self.num_components == 1:
            mean, var = float(self.means[0]), float(self.variances[0])
            pull = z.reshape(-1) - a * mean
            pull /= a * a * var + b * b
            if want_z0:
                z0_mean = np.multiply(pull, a * var).reshape(shape)
                z0_mean += mean + 0.0
            if want_eps:
                pull *= b
                pull += 0.0
                eps_mean = pull.reshape(shape)
            return eps_mean, z0_mean
        with np.errstate(divide="ignore"):  # zero weights contribute -inf, i.e. no mass
            log_weights = np.log(self.weights)[:, None]
        total_var = (a * a * self.variances + b * b)[:, None]
        centers = (a * self.means)[:, None]
        log_norm = np.log(2.0 * np.pi * total_var)
        z0_scale = (a * self.variances)[:, None]
        flat = z.reshape(1, -1)
        size = flat.shape[1]
        width = max(1, min(size, BLOCK_CELLS))
        diff_buf, resp_buf, term_buf, row_buf = _scalar_workspace(self.num_components, width)
        eps_flat = np.empty(size) if want_eps else None
        z0_flat = np.empty(size) if want_z0 else None
        for start in range(0, size, width):
            stop = min(start + width, size)
            n = stop - start
            pull, resp, peak = diff_buf[:, :n], resp_buf[:, :n], row_buf[:, :n]
            np.subtract(flat[:, start:stop], centers, out=pull)
            with np.errstate(over="ignore"):  # a square beyond the float range gives no mass
                np.multiply(pull, pull, out=resp)  # log responsibilities until the exp
            resp /= total_var
            resp += log_norm
            resp *= 0.5
            np.subtract(log_weights, resp, out=resp)
            resp.max(axis=0, keepdims=True, out=peak)
            if peak.min() == -np.inf:  # some cell is far from every centre with mass
                far = np.flatnonzero(peak == -np.inf)
                resp[:, far] = self._far_log_responsibilities(pull[:, far], total_var, log_weights)
                peak[:, far] = resp[:, far].max(axis=0)
            resp -= peak
            np.exp(resp, out=resp)
            resp /= resp.sum(axis=0, keepdims=True, out=peak)
            pull /= total_var
            if want_eps:
                term = np.multiply(pull, b, out=term_buf[:, :n] if want_z0 else pull)
                term *= resp
                term.sum(axis=0, out=eps_flat[start:stop])
            if want_z0:
                pull *= z0_scale
                pull += self.means[:, None]
                pull *= resp
                pull.sum(axis=0, out=z0_flat[start:stop])
        if want_eps:
            eps_mean = eps_flat.reshape(shape)
        if want_z0:
            z0_mean = z0_flat.reshape(shape)
        return eps_mean, z0_mean

    def _far_log_responsibilities(self, diff: np.ndarray, total_var: np.ndarray, log_weights: np.ndarray):
        """Log responsibilities, up to a per-cell shift, of cells far from every centre.

        The squared distance of such a cell to every component with mass
        overflows, so each component gets -inf. Shifting by half the squared
        standardised distance q_ref of the nearest component with mass turns
        (q_k^2 - q_ref^2) / 2 into (q_k - q_ref)(q_k / 2 + q_ref / 2), which
        is 0 for that component and overflows only where the responsibility
        would round to 0 anyway; the softmax is shift-invariant. A component
        without mass gets -inf directly: nearer than the reference, its
        spread could overflow to -inf and meet its -inf log weight.
        """
        mass = self.weights > 0.0
        dist = np.abs(diff)
        dist /= np.sqrt(total_var)
        nearest = np.where(mass[:, None], dist, np.inf).min(axis=0)
        spread = dist * 0.5
        spread += 0.5 * nearest
        with np.errstate(over="ignore"):
            spread *= dist - nearest
        spread += 0.5 * np.log(2.0 * np.pi * total_var)
        spread[~mass] = np.inf
        return log_weights - spread

    @staticmethod
    def _far_distance_gaps(diff: np.ndarray, centers: np.ndarray, total_var: np.ndarray, log_weights: np.ndarray):
        """Squared standardised distances of a far vector latent, less that of its nearest component.

        Each q_k^2 overflows, so q_k^2 - q_r^2 is summed per coordinate as
        (s_k - s_r)(s_k + s_r) over the standardised offsets s = diff / sd,
        with r the nearest component with mass. s_k - s_r is formed from the
        centres, diff_r (1/sd_k - 1/sd_r) + (c_r - c_k) / sd_k, since the
        offsets themselves can be equal floats when the latent is far along a
        coordinate; q_r factors out of the sum so that it does not overflow.
        A component without mass gets +inf, so its log responsibility is -inf.
        """
        inv_sd = 1.0 / np.sqrt(total_var)
        offsets = diff * inv_sd
        dist = np.hypot.reduce(np.abs(offsets), axis=1)
        mass = log_weights > -np.inf
        r = int(np.argmin(np.where(mass, dist, np.inf)))
        gap = diff[r] * (inv_sd - inv_sd[r]) + (centers[r] - centers) * inv_sd
        gaps = np.full(mass.shape, np.inf)  # a component without mass gets none
        with np.errstate(over="ignore"):  # a component beyond the float range gives no mass
            gaps[mass] = np.sum(gap[mass] * ((offsets[mass] + offsets[r]) / dist[r]), axis=1) * dist[r]
        return gaps

    def epsilon_given(self, z, signal_scale: float, noise_scale: float) -> np.ndarray:
        """Posterior-mean noise E[eps | a*z0 + b*eps = z]."""
        return self._posterior(z, signal_scale, noise_scale, want_z0=False)[0]

    def posterior_z0(self, z, signal_scale: float, noise_scale: float) -> np.ndarray:
        """Posterior-mean clean latent E[z0 | a*z0 + b*eps = z]."""
        return self._posterior(z, signal_scale, noise_scale, want_eps=False)[1]

    def epsilon_predict(self, z, *, alpha_bar: float | None = None, sigma: float | None = None):
        """Exact noise prediction for one of the two standard corruptions.

        Pass exactly one of ``alpha_bar`` (z = sqrt(abar) z0 + sqrt(1-abar) eps,
        0 < abar < 1) or ``sigma`` (z = z0 + sigma * eps, sigma > 0).
        """
        if (alpha_bar is None) == (sigma is None):
            raise TypeError("pass exactly one of alpha_bar and sigma")
        if alpha_bar is not None:
            if not 0.0 < alpha_bar < 1.0:
                raise ValueError("alpha_bar must lie strictly inside (0, 1)")
            return self.epsilon_given(z, math.sqrt(alpha_bar), math.sqrt(1.0 - alpha_bar))
        if sigma <= 0.0 or not math.isfinite(sigma):
            raise ValueError("sigma must be positive and finite")
        return self.epsilon_given(z, 1.0, float(sigma))

    def velocity_predict(self, z, t: float) -> np.ndarray:
        """Posterior-mean velocity E[eps - z0 | z] under z = (1-t) z0 + t eps."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("flow time must lie in [0, 1]")
        eps_mean, z0_mean = self._posterior(z, 1.0 - float(t), float(t))
        eps_mean -= z0_mean  # a fresh array of this call's own
        return eps_mean


def standard_normal() -> GaussianMixture:
    """Unit-normal prior; its predictions are scalar multiples of the latent."""
    return GaussianMixture(np.array([1.0]), np.array([0.0]), np.array([1.0]))


def sample_prior(mixture: GaussianMixture, seed, n: int) -> np.ndarray:
    """n independent draws from the mixture; deterministic for a fixed seed."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be an integer >= 1")
    rng = np.random.default_rng(seed)
    picks = rng.choice(mixture.num_components, size=n, p=mixture.weights)
    if mixture.is_scalar:
        return mixture.means[picks] + np.sqrt(mixture.variances[picks]) * rng.standard_normal(n)
    noise = rng.standard_normal((n, mixture.dimension))
    return mixture.means[picks] + np.sqrt(mixture.variances[picks]) * noise


@dataclass(frozen=True)
class GaussianFieldSpec:
    """Zero-mean stationary Gaussian grid with radial power proportional to r**spectral_exponent."""

    height: int
    width: int
    spectral_exponent: float = 0.0

    def __post_init__(self):
        for name in ("height", "width"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        if not math.isfinite(self.spectral_exponent):
            raise ValueError("spectral_exponent must be finite")


def gaussian_field_2d(spec: GaussianFieldSpec, seed) -> np.ndarray:
    """Draw one field; exponent 0 is plain white noise (cells independent).

    For nonzero exponents the white draw is shaped in frequency space by the
    radial amplitude r**(exponent/2), normalised to unit mean-square over the
    nonzero frequencies and pinned to zero at DC, so the sample mean is
    exactly zero and the expected radial power profile follows the power law.
    A 1x1 grid degenerates to a single standard-normal draw.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    white = rng.standard_normal((spec.height, spec.width))
    if spec.spectral_exponent == 0.0 or (spec.height == 1 and spec.width == 1):
        return white
    freq_y = np.fft.fftfreq(spec.height) * spec.height
    freq_x = np.fft.fftfreq(spec.width) * spec.width
    radii = np.hypot(freq_y[:, None], freq_x[None, :])
    amplitude = np.zeros_like(radii)
    nonzero = radii > 0.0
    amplitude[nonzero] = radii[nonzero] ** (spec.spectral_exponent / 2.0)
    amplitude[nonzero] /= math.sqrt(float(np.mean(amplitude[nonzero] ** 2)))
    return np.fft.ifft2(np.fft.fft2(white) * amplitude).real
