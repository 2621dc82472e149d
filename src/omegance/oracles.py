"""Closed-form denoisers for known priors.

A Gaussian-mixture prior pushed through any affine Gaussian corruption
z = a * z0 + b * eps admits exact posterior means for both z0 and eps, so
these oracles stand in for trained prediction networks wherever a sampler
claim needs an exact reference. A mixture's components are scalar (means of
shape (K,)), so it acts independently on every latent cell, as a per-cell omega
mask needs, which makes it the substrate for locality checks.

Responsibilities are formed in log space and exponentiated without a
per-cell shift: each call shifts the per-component log constants by their
largest, so no exponent is above 0 and no exp overflows. A cell whose
exponentials sum below UNDERFLOW_SUM (2^-60) takes the max-shifted route
instead, where its log responsibilities are shifted by their per-cell maximum
so that their sum lies in [1, K]. At or above the threshold the unshifted
route loses nothing: the reciprocal of the sum is at most 2^60, and a term
that underflowed to zero or went subnormal carries less than 2^-960 of the
cell's mass. Below it the largest term may itself have lost its digits, or
every term may be 0. Only cells many standard deviations from every centre
fall below, so the per-cell max pass runs for those alone.

A mixture forms only the moments its caller asks for: eps for
epsilon_predict, z0 for posterior_z0, both for a K > 1 velocity_predict.
The public methods refuse a latent with a non-finite cell; the sampling
loop, which checks every latent after each step, calls their twins in
_FINITE_LATENT_TWINS, which do not check it again. With K > 1
components it walks the flattened latent in blocks of BLOCK_CELLS cells, so
that its (K, block) temporaries stay in a core's cache instead of being
allocated, faulted in and freed on every call. Each thread keeps one
workspace (a ``threading.local``, keyed by (K, block width)) of two (K,
width) buffers, for the differences and the log responsibilities, and one
(1, width) row for the per-cell total; a third (K, width) buffer
for the eps term joins them only once a call asks for both moments. Each
buffer starts on a 64-byte boundary, which malloc leaves to chance. Every
block runs the same operations in the same order as one pass over the
whole latent would, and sums its moments over k straight into freshly
allocated outputs, 64-byte aligned like the workspace, so a returned array
never aliases the workspace and the next call cannot change it. Each call
folds every component's constants once, log_const = log w - log(tv) / 2,
half_prec = 0.5 / tv and inv_var = 1 / tv with tv = a^2 v + b^2. The
density's common -log(2 pi) / 2 is left out: every route shifts log_const,
which cancels it, and 2 pi tv overflows once tv passes ~2.9e307. A block
forms its exponents as log_const - diff^2 * half_prec (a square, a multiply
and a subtract, log_const shifted as above), normalises the exponentials by
one reciprocal of their sum per cell, and forms eps as
(sum_k resp * pull) * b, with b applied to the summed row. Every sum over k
is taken row by row, ((r_0 + r_1) + r_2) + ..., and a moment sum ends by
adding +0.0: the bits of numpy's axis-0 sum, which starts from +0.0. A call
that wants eps alone takes pull = diff * inv_var, a multiply where a divide
costs about three; a call that wants z0 keeps pull = diff / tv, because with
the rounded reciprocal
z0 = mu + (a*v) * pull no longer cancels to the cell's value at b = 0 (2.5e-13
of the moment scale for one test mixture). Scales so small that some 1 / tv
overflows, or so large that some tv does, are rejected. Against the unfolded formula,
log w - (diff^2 / tv + log(2 pi tv)) / 2 and eps = sum_k resp * (b * pull),
K > 1 outputs differ only in their last digits: at most 5.3e-14 of a cell's
moment scale (sum_k resp * |term_k|) over the test grids, 1.0e-15 for the
bench mixture. A single component has responsibility exactly 1.0, so K = 1
skips the softmax and takes the linear Tweedie form
eps = (z - a*mu) * (1 / (a^2 v + b^2)) * b, z0 = mu + (a*v) * (z - a*mu) / (a^2 v + b^2);
its eps lies within 4.3e-16 of the moment scale of the divided form, and
its z0 is the divided form bit for bit. Both give every cell the
operations of the max-shifted softmax route in the same order, so their
outputs are bitwise identical to it, signed zeros included (an eps that is
zero because b = 0 or b * pull underflows takes pull's sign), for every cell
whose squared distance to some component centre is finite. The K = 1
velocity folds the two into one multiplier,
eps - z0 = (z - a*mu) * ((b - a*v) / (a^2 v + b^2)) - mu, in one fresh array; at
mu = +0.0 both subtractions are exact identities and are skipped, which
leaves one multiply. It lies within 6.5e-16 of |b * pull| + |mu| + |a*v * pull|,
the magnitudes that eps - z0 adds up, of eps - z0 by the divided form, over 60,000
draws of mu, v, t and the latent scale, and within 1.4e-15 of the RMS on a
256x256 unit-normal draw at t = 0.37.
A cell farther than about 1.3e154 from every centre, where every exponential
is 0 and the max-shifted route would give NaN, has its log responsibilities
shifted by the nearest component's instead, which keeps them finite;
components without mass get -inf there directly.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .schedules import _frozen_array, _is_finite_real, _is_integer, _is_positive_finite

__all__ = [
    "GaussianMixture",
    "standard_normal",
    "GaussianFieldSpec",
    "gaussian_field_2d",
]

_WEIGHT_SUM_TOL = 1e-12
# cells per block of the K > 1 posterior: at most three (3, BLOCK_CELLS)
# float64 buffers take 1.2 MB, within a 2 MiB per-core L2 cache
BLOCK_CELLS = 16384
# workspace buffers start on this boundary: one cache line, one AVX-512 vector
_ALIGN_BYTES = 64
# a cell whose unshifted exponentials sum below this takes the max-shifted
# route; above it an underflowed term carries < 2**-960 of the cell's mass
UNDERFLOW_SUM = 2.0**-60
_workspace = threading.local()


def _fold_rows(ufunc, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = ufunc(...ufunc(ufunc(rows[0], rows[1]), rows[2])..., rows[K-1]) for a (K >= 2, n) array.

    The order of numpy's axis-0 reduction, row by row, without the +0.0 that
    starts an axis-0 sum.
    """
    ufunc(rows[0], rows[1], out=out)
    for row in rows[2:]:
        ufunc(out, row, out=out)
    return out


def _aligned_empty(rows: int, width: int) -> np.ndarray:
    """An uninitialised (rows, width) float64 array whose data starts on an _ALIGN_BYTES boundary.

    malloc aligns to 16 bytes only, so a plain np.empty workspace lands on
    one of four offsets, fixed for the life of its thread; at a 16- or
    48-byte offset the posterior's vector loops ran 10-15% slower.
    """
    count = rows * width
    raw = np.empty(count + _ALIGN_BYTES // 8)
    skip = (-raw.ctypes.data % _ALIGN_BYTES) // 8
    return raw[skip : skip + count].reshape(rows, width)


def _scalar_workspace(components: int, width: int, term: bool) -> list:
    """This thread's [diff, log_resp, row, term] buffers for one (K, width); term is None until asked for."""
    key = (components, width)
    if getattr(_workspace, "key", None) != key:
        _workspace.buffers = [
            _aligned_empty(components, width),
            _aligned_empty(components, width),
            _aligned_empty(1, width),
            None,
        ]
        _workspace.key = key
    buffers = _workspace.buffers
    if term and buffers[3] is None:
        buffers[3] = _aligned_empty(components, width)
    return buffers


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: == on an array field would raise
class GaussianMixture:
    """Mixture of K scalar Gaussian components: weights, means and variances of shape (K,)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name))
        weights, means, variances = self.weights, self.means, self.variances
        if (
            np.any(weights < 0.0)
            or not np.any(weights > 0.0)
            or abs(float(weights.sum()) - 1.0) > _WEIGHT_SUM_TOL
        ):
            raise ValueError("weights must be non-negative with positive total mass summing to 1")
        if not weights.shape == means.shape == variances.shape:
            raise ValueError("weights, means and variances must share one (K,) shape")
        with np.errstate(divide="ignore", over="ignore"):
            if np.any(variances <= 0.0) or not np.all(np.isfinite(1.0 / variances)):
                raise ValueError("variances must be positive, with a finite reciprocal")
        # the least and greatest variance bound every component's tv in _posterior
        object.__setattr__(self, "_variance_range", (float(variances.min()), float(variances.max())))

    @property
    def num_components(self) -> int:
        return int(self.weights.size)

    def _corruption(self, signal_scale, noise_scale) -> tuple[float, float, float]:
        """(a, b, tv of the least variance) for z = a*z0 + b*eps, after the scale rule.

        Raises ValueError unless both scales are finite numbers, non-negative
        with a positive sum, and every component's tv = a^2 v + b^2 and
        1 / tv are finite.
        """
        if not (_is_finite_real(signal_scale) and _is_finite_real(noise_scale)):
            raise ValueError("corruption scales must be finite numbers")
        a, b = float(signal_scale), float(noise_scale)
        if a < 0.0 or b < 0.0 or a + b == 0.0:
            raise ValueError("corruption scales must be non-negative with a positive sum")
        # tv = a^2 v + b^2 grows with v: the least variance has the largest 1 / tv
        # and the greatest variance the largest tv
        least_var, greatest_var = self._variance_range
        least_tv = a * a * least_var + b * b
        if least_tv == 0.0 or not math.isfinite(1.0 / least_tv):
            raise ValueError("corruption scales too small: 1 / (a^2 v + b^2) overflows float64")
        if not math.isfinite(a * a * greatest_var + b * b):
            raise ValueError("corruption scales too large: a^2 v + b^2 overflows float64")
        return a, b, least_tv

    def _posterior(self, z, signal_scale: float, noise_scale: float, *, want_eps=True, want_z0=True):
        """Cellwise posterior means (E[eps | z], E[z0 | z]) under z = a*z0 + b*eps; unwanted ones are None.

        z must be finite: the public methods check it, and the sampling loop
        checks every latent it passes. Each cell gets the softmax route's
        operations in its order: diff =
        z - a*mu, exponentials exp(log_const - (diff * diff) * half_prec) from
        the per-call (K, 1) constants log_const = log w - log(tv) / 2
        less its largest, half_prec = 0.5 / tv and inv_var = 1 / tv,
        normalised before the moment sums by multiplying with 1 / sum_k resp,
        pull = diff * inv_var when eps alone is wanted and diff / tv
        otherwise, eps = (sum_k resp * pull) * b and z0 = sum_k resp *
        (mu + (a*v) * pull), with the moment sums over k row by row and then
        + 0.0. A cell whose sum of exponentials is below UNDERFLOW_SUM takes
        the max-shifted exponentials of _shifted_exponentials instead, before
        the same normalisation. For K = 1 the responsibility is exactly 1.0,
        as after the max shift, so the sum reduces to adding +0.0, which only
        turns -0.0 into +0.0, before the b multiply; the softmax is skipped.
        Raises ValueError when the scales break _corruption's rule.
        """
        a, b, least_tv = self._corruption(signal_scale, noise_scale)
        z = np.asarray(z, dtype=np.float64)
        shape = z.shape
        eps_mean = z0_mean = None
        if self.num_components == 1:
            mean, var = float(self.means[0]), float(self.variances[0])
            pull = z.reshape(-1) - a * mean
            if not want_z0:  # least_tv is the one component's tv
                pull *= 1.0 / least_tv
            else:  # z0 keeps the divide: a reciprocal leaves mu + a*v*pull 2.5e-13 off at b = 0
                pull /= least_tv
                z0_mean = np.multiply(pull, a * var).reshape(shape)
                z0_mean += mean + 0.0
            if want_eps:
                pull += 0.0
                pull *= b
                eps_mean = pull.reshape(shape)
            return eps_mean, z0_mean
        total_var = (a * a * self.variances + b * b)[:, None]
        inv_var = 1.0 / total_var
        with np.errstate(divide="ignore"):  # zero weights contribute -inf, i.e. no mass
            log_const = np.log(self.weights)[:, None] - 0.5 * np.log(total_var)
        shifted_const = log_const - log_const.max()  # at most 0, so no exp below overflows
        half_prec = 0.5 / total_var
        centers = (a * self.means)[:, None]
        z0_scale = (a * self.variances)[:, None]
        flat = z.reshape(1, -1)
        size = flat.shape[1]
        width = max(1, min(size, BLOCK_CELLS))
        diff_buf, resp_buf, row_buf, term_buf = _scalar_workspace(self.num_components, width, want_eps and want_z0)
        eps_flat = _aligned_empty(1, size)[0] if want_eps else None
        z0_flat = _aligned_empty(1, size)[0] if want_z0 else None
        for start in range(0, size, width):
            stop = min(start + width, size)
            n = stop - start
            pull, resp, total = diff_buf[:, :n], resp_buf[:, :n], row_buf[0, :n]
            np.subtract(flat[:, start:stop], centers, out=pull)
            with np.errstate(over="ignore"):  # a square beyond the float range gives no mass
                np.multiply(pull, pull, out=resp)  # exponents until the exp
                resp *= half_prec
            np.subtract(shifted_const, resp, out=resp)
            np.exp(resp, out=resp)
            _fold_rows(np.add, resp, total)
            if total.min() < UNDERFLOW_SUM:  # these cells take the max-shifted route
                low = np.flatnonzero(total < UNDERFLOW_SUM)
                resp[:, low], total[low] = self._shifted_exponentials(pull[:, low], total_var, log_const, half_prec)
            np.divide(1.0, total, out=total)
            resp *= total
            if not want_z0:
                pull *= inv_var
            else:  # z0 keeps the divide: a reciprocal leaves mu + a*v*pull 2.5e-13 off at b = 0
                pull /= total_var
            if want_eps:
                term = np.multiply(pull, resp, out=term_buf[:, :n] if want_z0 else pull)
                eps_row = _fold_rows(np.add, term, eps_flat[start:stop])
                eps_row += 0.0  # the +0.0 start of a sum: an all -0.0 column sums to +0.0
                eps_row *= b
            if want_z0:
                pull *= z0_scale
                pull += self.means[:, None]
                pull *= resp
                z0_row = _fold_rows(np.add, pull, z0_flat[start:stop])
                z0_row += 0.0
        if want_eps:
            eps_mean = eps_flat.reshape(shape)
        if want_z0:
            z0_mean = z0_flat.reshape(shape)
        return eps_mean, z0_mean

    def _shifted_exponentials(self, diff, total_var, log_const, half_prec):
        """Exponentials of max-shifted log responsibilities, and their sum over k, for the (K, m) diffs of m cells.

        The per-cell shift puts the largest exponent at 0, so the sum lies in
        [1, K]. A cell whose every log responsibility is -inf (its squared
        distance to every centre with mass overflows) is shifted by
        _far_log_responsibilities instead.
        """
        with np.errstate(over="ignore"):
            log_resp = diff * diff
            log_resp *= half_prec
        np.subtract(log_const, log_resp, out=log_resp)
        peak = _fold_rows(np.maximum, log_resp, np.empty(diff.shape[1]))
        far = np.flatnonzero(peak == -np.inf)
        if far.size:
            log_resp[:, far] = self._far_log_responsibilities(diff[:, far], total_var, log_const)
            _fold_rows(np.maximum, log_resp, peak)
        log_resp -= peak
        np.exp(log_resp, out=log_resp)
        return log_resp, _fold_rows(np.add, log_resp, peak)

    def _far_log_responsibilities(self, diff: np.ndarray, total_var: np.ndarray, log_const: np.ndarray):
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
        spread[~mass] = np.inf
        return log_const - spread

    def epsilon_given(self, z, signal_scale: float, noise_scale: float) -> np.ndarray:
        """Posterior-mean noise E[eps | a*z0 + b*eps = z]."""
        return self._posterior(_finite_latent(z), signal_scale, noise_scale, want_z0=False)[0]

    def posterior_z0(self, z, signal_scale: float, noise_scale: float) -> np.ndarray:
        """Posterior-mean clean latent E[z0 | a*z0 + b*eps = z]."""
        return self._posterior(_finite_latent(z), signal_scale, noise_scale, want_eps=False)[1]

    def epsilon_predict(self, z, *, alpha_bar: float | None = None, sigma: float | None = None):
        """Exact noise prediction for one of the two standard corruptions.

        Pass exactly one of ``alpha_bar`` (z = sqrt(abar) z0 + sqrt(1-abar) eps,
        0 < abar < 1) or ``sigma`` (z = z0 + sigma * eps, sigma > 0).
        """
        return self._finite_epsilon_predict(_finite_latent(z), alpha_bar=alpha_bar, sigma=sigma)

    def velocity_predict(self, z, t: float) -> np.ndarray:
        """Posterior-mean velocity E[eps - z0 | z] under z = (1-t) z0 + t eps.

        With K = 1 it is the linear Tweedie form (z - a*mu) * ((b - a*v) / tv) - mu,
        a = 1 - t, b = t, tv = a^2 v + b^2, formed in the one array it returns;
        the module docstring gives its deviation from eps - z0.
        """
        return self._finite_velocity_predict(_finite_latent(z), t)

    def _finite_epsilon_predict(self, z, *, alpha_bar=None, sigma=None):
        """epsilon_predict on a float64 latent already known to be finite."""
        if (alpha_bar is None) == (sigma is None):
            raise TypeError("pass exactly one of alpha_bar and sigma")
        if alpha_bar is not None:
            if not 0.0 < alpha_bar < 1.0:
                raise ValueError("alpha_bar must lie strictly inside (0, 1)")
            return self._posterior(z, math.sqrt(alpha_bar), math.sqrt(1.0 - alpha_bar), want_z0=False)[0]
        if isinstance(sigma, np.ndarray) or not _is_positive_finite(sigma):
            raise ValueError("sigma must be positive and finite")
        return self._posterior(z, 1.0, float(sigma), want_z0=False)[0]

    def _finite_velocity_predict(self, z, t):
        """velocity_predict on a float64 latent already known to be finite."""
        if not (_is_finite_real(t) and 0.0 <= t <= 1.0):
            raise ValueError("flow time must be a number in [0, 1]")
        if self.num_components > 1:
            eps_mean, z0_mean = self._posterior(z, 1.0 - float(t), float(t))
            eps_mean -= z0_mean  # a fresh array of this call's own
            return eps_mean
        a, b, total_var = self._corruption(1.0 - float(t), float(t))
        mean, var = float(self.means[0]), float(self.variances[0])
        scale = (b - a * var) / total_var
        flat = z.reshape(-1)  # a 0-d operand would give a numpy scalar, not an array
        if mean == 0.0 and math.copysign(1.0, mean) > 0.0:  # z - a*0.0 and x - 0.0 are x itself
            velocity = np.multiply(flat, scale)
        else:
            velocity = np.subtract(flat, a * mean)
            velocity *= scale
            velocity -= mean
        return velocity.reshape(z.shape)


# each public prediction method of a GaussianMixture and its twin for a latent
# the caller has already checked; a method replaced on the class (a wrapper,
# say) is no key, so its caller keeps the public call
_FINITE_LATENT_TWINS = {
    GaussianMixture.epsilon_predict: GaussianMixture._finite_epsilon_predict,
    GaussianMixture.velocity_predict: GaussianMixture._finite_velocity_predict,
}


def _finite_latent(z) -> np.ndarray:
    """z as a float64 array, or ValueError when some cell is not finite."""
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("latent contains non-finite values")
    return z


def standard_normal() -> GaussianMixture:
    """Unit-normal prior; its predictions are scalar multiples of the latent."""
    return GaussianMixture(np.array([1.0]), np.array([0.0]), np.array([1.0]))


@dataclass(frozen=True)
class GaussianFieldSpec:
    """Zero-mean stationary Gaussian grid with radial power proportional to r**spectral_exponent."""

    height: int
    width: int
    spectral_exponent: float = 0.0

    def __post_init__(self):
        for name in ("height", "width"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        if not _is_finite_real(self.spectral_exponent):
            raise ValueError("spectral_exponent must be a finite number")
        # _field_amplitude normalises by the mean squared amplitude r**exponent, whose
        # sum must stay finite or every draw is 0; the largest is at the largest radius
        if self.spectral_exponent > 0.0:
            h, w = self.height, self.width
            try:
                power = math.hypot(h // 2, w // 2) ** self.spectral_exponent * h * w
            except OverflowError:
                power = math.inf
            if not math.isfinite(power):
                raise ValueError(f"spectral_exponent {self.spectral_exponent} overflows a {h}x{w} grid")


@functools.lru_cache(maxsize=8)
def _field_amplitude(height: int, width: int, exponent: float) -> np.ndarray:
    """Radial amplitude r**(exponent/2) of the full FFT plane, unit mean-square off DC, 0 at DC.

    Cached per (height, width, exponent) and shared by every draw, so it is read-only.
    """
    freq_y = np.fft.fftfreq(height) * height
    freq_x = np.fft.fftfreq(width) * width
    radii = np.hypot(freq_y[:, None], freq_x[None, :])
    amplitude = np.zeros_like(radii)
    nonzero = radii > 0.0
    amplitude[nonzero] = radii[nonzero] ** (exponent / 2.0)
    amplitude[nonzero] /= math.sqrt(float(np.mean(amplitude[nonzero] ** 2)))
    amplitude.setflags(write=False)
    return amplitude


def gaussian_field_2d(spec: GaussianFieldSpec, seed) -> np.ndarray:
    """Draw one field; exponent 0 is plain white noise (cells independent).

    For nonzero exponents the white draw is shaped in frequency space by the
    radial amplitude r**(exponent/2), normalised to unit mean-square over the
    nonzero frequencies and pinned to zero at DC, so the sample mean is
    exactly zero and the expected radial power profile follows the power law.
    A 1x1 grid degenerates to a single standard-normal draw. The white draw
    is converted to one complex buffer and dropped; the forward transform,
    the shaping and the inverse all run in place in that buffer, and the
    field returned is a copy of its real part, so no complex buffer outlives
    the call.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    white = rng.standard_normal((spec.height, spec.width))
    if spec.spectral_exponent == 0.0 or (spec.height == 1 and spec.width == 1):
        return white
    spectrum = white.astype(np.complex128)
    del white
    # fftn / ifftn over both axes are fft2 / ifft2; ifft2 itself ignores out= (numpy 2.4)
    np.fft.fftn(spectrum, out=spectrum)
    spectrum *= _field_amplitude(spec.height, spec.width, spec.spectral_exponent)
    np.fft.ifftn(spectrum, out=spectrum)
    return spectrum.real.copy()
