import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegance import (
    GaussianFieldSpec,
    GaussianMixture,
    gaussian_field_2d,
    radial_spectrum,
    standard_normal,
)
from omegance import oracles
from omegance.oracles import BLOCK_CELLS
from omegance.samplers import Denoiser

# the exponent sum below which a cell takes the max-shifted route, pinned
# here so that the references do not follow a change to the package's own
UNDERFLOW_SUM = 2.0**-60
ASYMMETRIC = GaussianMixture(np.array([0.3, 0.7]), np.array([-2.0, 3.0]), np.array([1.0, 1.0]))


def quadrature_posterior(weights, means, variances, z, signal_scale, noise_scale, moment):
    """Brute-force E[eps | z] or E[z0 | z] by dense trapezoid quadrature over eps.

    Independent of the package's closed forms: only the joint density
    p(eps) * p_prior((z - b*eps) / a) appears, integrated on a wide grid.
    """
    a, b = signal_scale, noise_scale
    eps = np.linspace(-40.0, 40.0, 400001)
    z0 = (z - b * eps) / a
    log_prior = np.logaddexp.reduce(
        [
            math.log(w) - 0.5 * ((z0 - m) ** 2 / v + np.log(2 * np.pi * v))
            for w, m, v in zip(weights, means, variances)
        ],
        axis=0,
    )
    log_weight = -0.5 * eps**2 + log_prior
    log_weight -= log_weight.max()
    weight = np.exp(log_weight)
    target = eps if moment == "eps" else z0
    return float(np.trapezoid(target * weight, eps) / np.trapezoid(weight, eps))


def sum_rows(rows):
    """((rows[0] + rows[1]) + rows[2]) + ... over the first axis, as plain expressions."""
    total = rows[0] + rows[1]
    for row in rows[2:]:
        total = total + row
    return total


def unshifted_exponentials(mixture, z, a, b):
    """(K, N) exp(log_const_k - max_j log_const_j - diff_k^2 * (0.5 / tv_k)), no per-cell shift."""
    flat = np.asarray(z, dtype=np.float64).reshape(1, -1)
    total_var = (a * a * mixture.variances + b * b)[:, None]
    with np.errstate(divide="ignore"):
        log_const = np.log(mixture.weights)[:, None] - 0.5 * np.log(total_var)
    diff = flat - (a * mixture.means)[:, None]
    with np.errstate(over="ignore"):
        return np.exp(log_const - log_const.max() - diff * diff * (0.5 / total_var))


# the moments the package forms; the mirrors below form z0 too, for the velocity guard
MOMENTS = ("eps", "velocity")


def moment_terms(mixture, diff, a, b, moment):
    """(K, N) terms of one moment from diff = z - a*mu: eps diff * (1 / tv), its b applied after the sum, and
    velocity diff * ((b - a*v) / tv) - mu, as the package forms them; z0 mu + (a*v) * (diff / tv), which the
    package does not form, so that eps - z0 is a second route to the velocity."""
    total_var = (a * a * mixture.variances + b * b)[:, None]
    if moment == "eps":
        return diff * (1.0 / total_var)
    if moment == "z0":
        return mixture.means[:, None] + a * mixture.variances[:, None] * (diff / total_var)
    return diff * ((b - a * mixture.variances)[:, None] / total_var) - mixture.means[:, None]


def softmax_posterior(mixture, z, a, b, moment):
    """One scalar-mixture moment by the package's softmax route, over freshly
    allocated (K, N) temporaries: the constants folded once per call,
    log_const = log w - log(tv) / 2 and 0.5 / tv, and shifted by their
    largest; exponentials exp(log_const - max log_const - diff^2 * (0.5 / tv))
    without a per-cell shift, normalised by the reciprocal of their sum; the
    moment sum_k resp * moment_terms, every sum over k taken row by row and
    ended by adding +0.0, times b for eps. A cell whose sum falls below
    UNDERFLOW_SUM takes shifted_softmax_posterior instead, and so does every
    cell of a K = 1 mixture, whose responsibility is 1.0 exactly only after
    the max shift. The package's eps and velocity must match it bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    if mixture.num_components == 1:
        return shifted_softmax_posterior(mixture, z, a, b, moment)
    flat = z.reshape(1, -1)
    exps = unshifted_exponentials(mixture, z, a, b)
    sums = sum_rows(exps)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the low cells are replaced below
        diff = flat - (a * mixture.means)[:, None]
        resp = exps * (1.0 / sums)
        mean = sum_rows(resp * moment_terms(mixture, diff, a, b, moment)) + 0.0
        if moment == "eps":
            mean = mean * b
    low = np.flatnonzero(sums < UNDERFLOW_SUM)
    if low.size:
        mean[low] = shifted_softmax_posterior(mixture, flat[0, low], a, b, moment)
    return mean.reshape(z.shape)


def shifted_softmax_posterior(mixture, z, a, b, moment):
    """One scalar-mixture moment by the max-shifted softmax, over freshly
    allocated (K, N) temporaries, with each component's constants folded
    once: log responsibilities log w - log(tv) / 2 - diff^2 * (0.5 / tv),
    shifted by their per-cell maximum, normalised by the reciprocal of their
    sum, and the moment sum_k resp * moment_terms, numpy's axis-0 sum, times
    b for eps. A K = 1 velocity is its one term: responsibility 1.0 and no
    sum, so not even the sum's +0.0. The package's fallback route, which
    every cell takes when the threshold is +inf, must match it bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    flat = z.reshape(1, -1)
    diff = flat - (a * mixture.means)[:, None]
    terms = moment_terms(mixture, diff, a, b, moment)
    if mixture.num_components == 1 and moment == "velocity":
        return terms[0].reshape(z.shape)
    total_var = (a * a * mixture.variances + b * b)[:, None]
    with np.errstate(divide="ignore"):
        log_const = np.log(mixture.weights)[:, None] - 0.5 * np.log(total_var)
    log_resp = log_const - diff * diff * (0.5 / total_var)
    log_resp -= log_resp.max(axis=0, keepdims=True)
    resp = np.exp(log_resp)
    resp = resp * (1.0 / resp.sum(axis=0, keepdims=True))
    mean = (resp * terms).sum(axis=0)
    if moment == "eps":
        mean = mean * b
    return mean.reshape(z.shape)


def assert_bitwise(actual, expected):
    assert isinstance(actual, np.ndarray) and actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))  # array_equal has -0.0 == 0.0


# the velocity's deviation from eps - z0 formed with the same responsibilities,
# as a fraction of the unfolded formula's velocity scale: at most 8.1e-16 over
# 250,000 draws of one to three components, t and the latent scale (256 cells
# each). At K = 1 every route's responsibility is 1.0, so it bounds the
# deviation from the unfolded formula's eps - z0 too (6.5e-16 over 60,000 draws)
VELOCITY_BOUND = 1e-15


def assert_velocity(actual, mixture, z, t):
    """The velocity of z at flow time t is its formula's mirror bit for bit,
    and within VELOCITY_BOUND of eps - z0 formed with the same responsibilities."""
    a, b = 1.0 - t, t
    assert_bitwise(actual, softmax_posterior(mixture, z, a, b, "velocity"))
    two_moments = softmax_posterior(mixture, z, a, b, "eps") - softmax_posterior(mixture, z, a, b, "z0")
    assert np.all(np.abs(actual - two_moments) <= VELOCITY_BOUND * unfolded_posterior(mixture, z, a, b)[4])


BITWISE_MIXTURES = {
    "standard_normal": standard_normal(),
    "k1_shifted": GaussianMixture(np.array([1.0]), np.array([-1.25]), np.array([0.3])),
    "k1_negative_zero_mean": GaussianMixture(np.array([1.0]), np.array([-0.0]), np.array([2.0])),
    "k3": GaussianMixture(np.array([0.2, 0.5, 0.3]), np.array([-3.0, 0.5, 4.0]), np.array([0.2, 1.5, 0.7])),
    "k3_zero_weight": GaussianMixture(np.array([0.4, 0.0, 0.6]), np.array([-2.0, 1.0, 2.5]), np.array([1.0, 0.5, 0.25])),
    "k2": GaussianMixture(np.array([0.35, 0.65]), np.array([-1.5, 2.0]), np.array([0.5, 0.3])),
    "k4_zero_weights": GaussianMixture(
        np.array([0.0, 0.45, 0.0, 0.55]), np.array([-4.0, -0.5, 1.0, 3.0]), np.array([2.0, 0.4, 0.1, 0.9])
    ),
}
# latent sizes around the posterior's block width, each with a 2-D shape of
# that many cells; 2 * BLOCK_CELLS + 3 = 32771 is prime
BLOCK_SIZES = {
    BLOCK_CELLS - 1: (127, 129),
    BLOCK_CELLS: (128, 128),
    BLOCK_CELLS + 1: (113, 145),
    2 * BLOCK_CELLS + 3: (1, 2 * BLOCK_CELLS + 3),
}


def bitwise_latent(mixture, a):
    """Cells spanning +-40 (so the max subtraction matters), signed zeros and exact centres."""
    spread = np.linspace(-40.0, 40.0, 61)
    special = np.concatenate(([0.0, -0.0], a * mixture.means, -(a * mixture.means)))
    return np.concatenate((spread, special, np.random.default_rng(8).normal(0.0, 3.0, 29))).reshape(2, -1)


@pytest.mark.parametrize("name", sorted(BITWISE_MIXTURES))
class TestPosteriorBitwise:
    def test_epsilon_predict_alpha_bar(self, name):
        gm = BITWISE_MIXTURES[name]
        for alpha_bar in (0.001, 0.3, 0.97):
            a, b = math.sqrt(alpha_bar), math.sqrt(1.0 - alpha_bar)
            z = bitwise_latent(gm, a)
            assert_bitwise(gm.epsilon_predict(z, alpha_bar=alpha_bar), softmax_posterior(gm, z, a, b, "eps"))

    def test_epsilon_predict_sigma(self, name):
        gm = BITWISE_MIXTURES[name]
        for sigma in (0.01, 1.0, 80.0):
            z = bitwise_latent(gm, 1.0)
            assert_bitwise(gm.epsilon_predict(z, sigma=sigma), softmax_posterior(gm, z, 1.0, sigma, "eps"))

    def test_velocity_predict(self, name):
        gm = BITWISE_MIXTURES[name]
        for t in (0.0, 0.3, 1.0):
            z = bitwise_latent(gm, 1.0 - t)
            assert_velocity(gm.velocity_predict(z, t), gm, z, t)

    def test_zero_dimensional_latent(self, name):
        gm = BITWISE_MIXTURES[name]
        z = np.array(-37.5)
        assert_bitwise(gm._posterior(z, 0.6, 0.8, "eps"), softmax_posterior(gm, z, 0.6, 0.8, "eps"))
        assert_velocity(gm.velocity_predict(z, 0.4), gm, z, 0.4)

    @pytest.mark.parametrize("size", sorted(BLOCK_SIZES))
    def test_latents_spanning_blocks(self, name, size):
        # the special cells repeat across block boundaries; every moment the
        # blocked posterior forms must equal the whole-latent softmax
        gm = BITWISE_MIXTURES[name]
        a, b = 0.6, 0.8
        flat = np.resize(bitwise_latent(gm, a).reshape(-1), size)
        for z in (flat, flat.reshape(BLOCK_SIZES[size])):
            for moment in MOMENTS:
                assert_bitwise(gm._posterior(z, a, b, moment), softmax_posterior(gm, z, a, b, moment))
            assert_velocity(gm.velocity_predict(z, 0.3), gm, z, 0.3)


def unfolded_posterior(mixture, z, a, b):
    """The posterior by the formula the constants were folded from, as a second route.

    Log responsibilities log w - (diff^2 / tv + log(2 pi tv)) / 2 and
    eps = sum_k resp * (b * pull), pull = diff / tv. Alongside each moment it
    returns its per-cell scale, sum_k resp * |term_k|, against which rounding
    is measured, and last the velocity's: sum_k resp * (|b * pull_k| + |mu_k|
    + |a*v_k * pull_k|), z0's terms taken term by term, since |mu + a*v*pull|
    alone would hide the cancellation inside z0, which eps - z0 and the
    velocity's one term round differently. Every array has z's shape.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=np.float64).reshape(1, -1)
    with np.errstate(divide="ignore"):
        log_weights = np.log(mixture.weights)[:, None]
    total_var = (a * a * mixture.variances + b * b)[:, None]
    diff = z - (a * mixture.means)[:, None]
    log_resp = log_weights - 0.5 * (diff * diff / total_var + np.log(2.0 * np.pi * total_var))
    resp = np.exp(log_resp - log_resp.max(axis=0, keepdims=True))
    resp /= resp.sum(axis=0, keepdims=True)
    pull = diff / total_var
    eps_terms = b * pull
    z0_terms = mixture.means[:, None] + a * mixture.variances[:, None] * pull
    velocity_terms = np.abs(eps_terms) + np.abs(mixture.means)[:, None] + np.abs(a * mixture.variances[:, None] * pull)
    sums = (eps_terms, z0_terms, np.abs(eps_terms), np.abs(z0_terms), velocity_terms)
    return tuple((resp * terms).sum(axis=0).reshape(shape) for terms in sums)


# the bench workloads' K = 3 mixture beside every bitwise one
ROUTE_MIXTURES = {
    **BITWISE_MIXTURES,
    "bench_k3": GaussianMixture(np.array([0.3, 0.4, 0.3]), np.array([-1.5, 0.0, 1.5]), np.array([0.25, 0.5, 0.25])),
}


@pytest.mark.parametrize("name", sorted(ROUTE_MIXTURES))
def test_folded_constants_within_rounding_of_the_unfolded_formula(name):
    # the folded route differs from the unfolded one only by rounding: within
    # 1e-13 of each cell's moment scale, on the bitwise latents, on draws from
    # the corrupted prior and on wide N(0, 3^2) draws, which hold cells where
    # z0 cancels, across an alpha-bar grid, a sigma grid, the corners of the
    # (a, b) quarter plane and flow times
    gm = ROUTE_MIXTURES[name]
    rng = np.random.default_rng(12)
    component = rng.choice(gm.num_components, 2000, p=gm.weights)
    clean = gm.means[component] + np.sqrt(gm.variances[component]) * rng.standard_normal(2000)
    noise = rng.standard_normal(2000)
    wide = np.random.default_rng(1).normal(0.0, 3.0, 5000)
    cases = [("eps", math.sqrt(ab), math.sqrt(1.0 - ab)) for ab in (1e-4, 0.05, 0.3, 0.5, 0.8, 0.97, 0.9999)]
    cases += [("eps", 1.0, sigma) for sigma in (0.002, 0.3, 1.0, 5.0, 80.0)]
    cases += [("eps", a, b) for a, b in ((0.6, 0.8), (1.0, 0.0), (0.0, 1.0))]
    cases += [("velocity", 1.0 - t, t) for t in (0.02, *(i / 10 for i in range(11)))]
    for moment, a, b in cases:
        for z in (bitwise_latent(gm, a).reshape(-1), a * clean + b * noise, wide):
            eps_mean, z0_mean, eps_scale, _, velocity_scale = unfolded_posterior(gm, z, a, b)
            if moment == "eps":
                actual, expected, scale = gm._posterior(z, a, b, "eps"), eps_mean, eps_scale
            else:
                actual, expected, scale = gm.velocity_predict(z, b), eps_mean - z0_mean, velocity_scale
            assert np.all(np.abs(actual - expected) <= 1e-13 * scale), (moment, a, b)


@given(
    components=st.lists(
        st.tuples(st.just(0.0) | st.floats(1e-3, 1.0), st.just(0.0) | st.floats(-20.0, 20.0), st.floats(-6.0, 6.0)),
        min_size=1,
        max_size=3,
    ).filter(lambda rows: any(weight > 0.0 for weight, _, _ in rows)),
    t=st.floats(0.0, 1.0, exclude_max=True),
    log_scale=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=200)
def test_k1_velocity_within_rounding_of_unfolded_eps_minus_z0(components, t, log_scale, seed):
    # a mixture of one to three components with drawn weights, means and
    # variances, and cells drawn around the components' centres. The
    # velocity's one term per component shares no operation after the
    # responsibilities with the mirror's eps - z0, two sums subtracted: within
    # VELOCITY_BOUND of it. The mirror has the package's responsibilities bit
    # for bit (TestPosteriorBitwise) but none of its code. At K = 1, where
    # every route's responsibility is 1.0, the unfolded formula's eps - z0
    # shares no operation after the diff and is within VELOCITY_BOUND too; at
    # K > 1 the two routes' responsibilities round apart by about |exponent|
    # ulps, which test_folded_constants_within_rounding_of_the_unfolded_formula
    # bounds
    weights, means, log_variances = (np.array(column) for column in zip(*components))
    gm = GaussianMixture(weights / weights.sum(), means, 10.0**log_variances)
    a, b = 1.0 - t, t
    rng = np.random.default_rng(seed)
    z = a * means[rng.choice(means.size, 256, p=gm.weights)] + 10.0**log_scale * rng.standard_normal(256)
    eps_mean, z0_mean, _, _, scale = unfolded_posterior(gm, z, a, b)
    velocity = gm.velocity_predict(z, t)
    two_moments = softmax_posterior(gm, z, a, b, "eps") - softmax_posterior(gm, z, a, b, "z0")
    assert np.all(np.abs(velocity - two_moments) <= VELOCITY_BOUND * scale)
    if gm.num_components == 1:
        assert np.all(np.abs(velocity - (eps_mean - z0_mean)) <= VELOCITY_BOUND * scale)


@pytest.mark.parametrize("variance", [1.0, 0.3])
def test_k1_velocity_at_zero_mean_keeps_the_full_formulas_bits(variance):
    # at mu = +0.0 the subtractions of a*mu and mu are exact identities, so
    # the velocity skips them; signed zeros, subnormal and huge cells keep the
    # full formula's bits (at t = 0.5 with v = 1 the multiplier is 0, so every
    # cell is a signed zero). At mu = -0.0 they are no identities, -0.0 - -0.0
    # being +0.0, and that mixture takes the full formula
    z = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, -3.5, 1e300, -1e300])
    for mean in (0.0, -0.0):
        gm = GaussianMixture(np.array([1.0]), np.array([mean]), np.array([variance]))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            expected = softmax_posterior(gm, z, 1.0 - t, t, "velocity")
            assert_bitwise(gm.velocity_predict(z, t), expected)
            assert_bitwise(gm.velocity_predict(z.reshape(2, 5), t), expected.reshape(2, 5))


@pytest.mark.parametrize("name", ["standard_normal", "k1_shifted", "bench_k3"])
def test_k1_velocity_allocates_one_latent(name):
    # numpy reports its buffers to tracemalloc: the 256x256 latent is 0.5 MiB.
    # The K = 1 velocity is formed in the one array it returns; with K = 3 that
    # array is summed into block by block, through the workspace the first
    # call made, and no second moment is formed
    gm = ROUTE_MIXTURES[name]
    z = np.random.default_rng(4).standard_normal((256, 256))
    gm.velocity_predict(z, 0.37)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gm.velocity_predict(z, 0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 0.6 * 2**20


@pytest.mark.parametrize("name", sorted(BITWISE_MIXTURES))
def test_eps_at_zero_noise_scale_keeps_the_general_routes_signed_zeros(name):
    # with b = 0 every eps term is a zero whose sign follows its pull; K = 1
    # must add the sum's +0.0 before the b multiply, as the general route does
    gm = BITWISE_MIXTURES[name]
    z = bitwise_latent(gm, 1.0)
    for moment in MOMENTS:
        assert_bitwise(gm._posterior(z, 1.0, 0.0, moment), softmax_posterior(gm, z, 1.0, 0.0, moment))


FAR_MIXTURES = {
    "k2_symmetric": GaussianMixture(np.array([0.5, 0.5]), np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
    "k3": BITWISE_MIXTURES["k3"],
    "k3_zero_weight": BITWISE_MIXTURES["k3_zero_weight"],
}
FAR_CELLS = np.array([1e155, -1e155, 3e200, -1.7e307])
NEAR_CELLS = np.array([3.0, -0.5, 0.0, 12.0])


def nearest_component(mixture, z, a, b):
    """The K = 1 mixture of the component with mass whose standardised distance to z is least."""
    distance = np.abs(z - a * mixture.means) / np.sqrt(a * a * mixture.variances + b * b)
    distance[mixture.weights == 0.0] = np.inf
    k = int(np.argmin(distance))
    return GaussianMixture(np.array([1.0]), mixture.means[k : k + 1], mixture.variances[k : k + 1])


@pytest.mark.parametrize("name", sorted(FAR_MIXTURES))
@pytest.mark.parametrize("a, b", [(math.sqrt(0.5), math.sqrt(0.5)), (1.0, 2.0), (0.7, 0.3), (1.0, 0.0)])
def test_cells_far_from_every_centre(name, a, b):
    # every squared distance of a far cell overflows; the posterior must still
    # be the (finite) posterior of its nearest component, without a warning,
    # and the near cells beside it must keep their bitwise values
    gm = FAR_MIXTURES[name]
    z = np.concatenate((FAR_CELLS, NEAR_CELLS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = {moment: gm._posterior(z, a, b, moment) for moment in MOMENTS}
    for moment, actual in moments.items():
        assert_bitwise(actual[FAR_CELLS.size :], softmax_posterior(gm, NEAR_CELLS, a, b, moment))
        for i, cell in enumerate(FAR_CELLS):
            want = nearest_component(gm, cell, a, b)._posterior(np.array([cell]), a, b, moment)
            assert np.isfinite(actual[i])
            assert actual[i] == pytest.approx(float(want[0]), rel=1e-12)


def test_far_cells_near_the_float_limit_and_velocity():
    # twice the standardised distance of a 1.2e308 cell overflows, while its
    # posterior is still finite
    gm = FAR_MIXTURES["k2_symmetric"]
    a = b = math.sqrt(0.5)
    z = np.array([1.2e308, -1.2e308, 1e155, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps_mean = gm._posterior(z, a, b, "eps")
        velocity = gm.velocity_predict(z[2:], 0.3)
    for i, cell in enumerate(z[:3]):
        nearest = nearest_component(gm, cell, a, b)
        assert eps_mean[i] == pytest.approx(float(nearest._posterior(z[i : i + 1], a, b, "eps")[0]), rel=1e-12)
    nearest = nearest_component(gm, z[2], 0.7, 0.3)
    assert np.isfinite(velocity[0])
    assert velocity[0] == pytest.approx(float(nearest.velocity_predict(z[2:3], 0.3)[0]), rel=1e-12)
    assert_velocity(velocity[1:], gm, z[3:], 0.3)


def test_eps_at_a_noise_scale_where_2_pi_tv_overflows():
    # tv = v + sigma^2 is about 3.6e307, so 2 pi tv would overflow; with the
    # mass-weighted means at 0, eps is z / sigma to rounding
    gm = GaussianMixture([0.3, 0.4, 0.3], [-1.5, 0.0, 1.5], [0.25, 0.5, 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps = gm.epsilon_predict(np.array([0.0, 1.0, -3.0]), sigma=6e153)
    assert eps[0] == 0.0
    assert eps[1:] == pytest.approx([1.0 / 6e153, -3.0 / 6e153], rel=1e-15)


@pytest.mark.parametrize("name", ["k3", "k3_zero_weight", "k4_zero_weights"])
def test_far_cells_in_later_blocks(name):
    # far cells inside the second and the last block take the far route of
    # their own block; the near cells of every block keep their bitwise values
    gm = BITWISE_MIXTURES[name]
    a, b = 0.7, 0.3
    z = np.random.default_rng(5).normal(0.0, 3.0, 2 * BLOCK_CELLS + 3)
    far = {BLOCK_CELLS + 7: 1e155, 2 * BLOCK_CELLS + 1: -3e200}
    near = np.ones(z.size, dtype=bool)
    for index, cell in far.items():
        z[index] = cell
        near[index] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = {"eps": gm._posterior(z, a, b, "eps"), "velocity": gm.velocity_predict(z, b)}
    for moment, actual in moments.items():
        assert_bitwise(actual[near], softmax_posterior(gm, z[near], a, b, moment))
        for index, cell in far.items():
            want = nearest_component(gm, cell, a, b)._posterior(np.array([cell]), a, b, moment)
            assert actual[index] == pytest.approx(float(want[0]), rel=1e-12)


FALLBACK_MIXTURES = ["k2", "k3", "k3_zero_weight", "k4_zero_weights"]


def threshold_pair(mixture, a, b, side):
    """Adjacent floats (inner, outer) beyond the outermost centre with mass on one side
    (+1 or -1) whose unshifted exponent sums lie at or above and below UNDERFLOW_SUM."""
    inner = side * max(side * a * mixture.means[mixture.weights > 0.0])
    outer = side * 1e3

    def above(cell):
        return sum_rows(unshifted_exponentials(mixture, np.array([cell]), a, b))[0] >= UNDERFLOW_SUM

    assert above(inner) and not above(outer)
    while True:
        middle = 0.5 * (inner + outer)
        if middle in (inner, outer):
            return inner, outer
        if above(middle):
            inner = middle
        else:
            outer = middle


@pytest.mark.parametrize("name", FALLBACK_MIXTURES)
def test_cells_at_the_underflow_threshold(name):
    # cells whose exponent sum lies one float step either side of the
    # threshold, beside far cells, in the first block and in later ones: each
    # takes its own route, so every moment equals the reference bit for bit
    # and stays within rounding of the unfolded formula
    gm = BITWISE_MIXTURES[name]
    t = 0.3
    a, b = 1.0 - t, t
    boundary = [*threshold_pair(gm, a, b, 1), *threshold_pair(gm, a, b, -1)]
    z = np.random.default_rng(9).normal(0.0, 3.0, 2 * BLOCK_CELLS + 3)
    z[5 : 5 + 4] = boundary
    z[BLOCK_CELLS + 11 : BLOCK_CELLS + 15] = boundary
    z[2 * BLOCK_CELLS - 2 : 2 * BLOCK_CELLS + 2] = boundary  # across the last block boundary
    far = {3: 1e155, BLOCK_CELLS + 7: -3e200, 2 * BLOCK_CELLS + 2: 1.7e307}
    near = np.ones(z.size, dtype=bool)
    for index, cell in far.items():
        z[index] = cell
        near[index] = False
    sums = sum_rows(unshifted_exponentials(gm, z[near], a, b))
    assert np.sum(sums < UNDERFLOW_SUM) >= 6 and np.sum(sums >= UNDERFLOW_SUM) >= 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = {"eps": gm._posterior(z, a, b, "eps"), "velocity": gm.velocity_predict(z, t)}
    for moment, actual in moments.items():
        assert_bitwise(actual[near], softmax_posterior(gm, z[near], a, b, moment))
        for index, cell in far.items():
            want = nearest_component(gm, cell, a, b)._posterior(np.array([cell]), a, b, moment)
            assert actual[index] == pytest.approx(float(want[0]), rel=1e-12)
    eps_mean, velocity = (moments[moment][near] for moment in MOMENTS)
    eps_unfolded, z0_unfolded, eps_scale, z0_scale, _ = unfolded_posterior(gm, z[near], a, b)
    assert np.all(np.abs(eps_mean - eps_unfolded) <= 1e-13 * eps_scale)
    assert np.all(np.abs(velocity - (eps_unfolded - z0_unfolded)) <= 1e-13 * (eps_scale + z0_scale))


@pytest.mark.parametrize("name", FALLBACK_MIXTURES)
def test_an_infinite_threshold_sends_every_cell_down_the_shifted_softmax(name, monkeypatch):
    # the fallback is the max-shifted route, which stays a route of its own
    monkeypatch.setattr(oracles, "UNDERFLOW_SUM", math.inf)
    gm = BITWISE_MIXTURES[name]
    z = np.resize(bitwise_latent(gm, 0.6).reshape(-1), 2 * BLOCK_CELLS + 3)
    for a, b in ((0.6, 0.8), (1.0, 0.0), (0.0, 1.0)):
        assert_bitwise(gm._posterior(z, a, b, "eps"), shifted_softmax_posterior(gm, z, a, b, "eps"))
    for t in (0.0, 0.3, 1.0):
        assert_bitwise(gm.velocity_predict(z, t), shifted_softmax_posterior(gm, z, 1.0 - t, t, "velocity"))


COMPLEX_STEP = 1e-200


def tweedie_epsilon(mixture, z, a, b):
    """E[eps | z] by Tweedie's formula, -b * d/dz log p(z), the derivative by complex step.

    An independent route, sharing no arithmetic with the responsibility sums:
    log p(z + ih) of the corrupted prior sum_k w_k N(a mu_k, a^2 v_k + b^2),
    its terms shifted by their real per-cell maximum, and the score read as
    Im(log p(z + ih)) / h. The common -log(2 pi) / 2 cancels and is dropped.
    Squared distances must stay finite, so cells beyond about 1.3e154 are out.
    """
    z = np.asarray(z, dtype=np.float64).reshape(1, -1)
    total_var = (a * a * mixture.variances + b * b)[:, None]
    with np.errstate(divide="ignore"):
        log_weights = np.log(mixture.weights)[:, None] - 0.5 * np.log(total_var)
    diff = (z + 1j * COMPLEX_STEP) - (a * mixture.means)[:, None]
    log_terms = log_weights - diff * diff / (2.0 * total_var)
    log_terms -= log_terms.real.max(axis=0, keepdims=True)
    return -b * np.log(np.exp(log_terms).sum(axis=0)).imag / COMPLEX_STEP


@pytest.mark.parametrize("name", sorted(BITWISE_MIXTURES))
def test_eps_within_rounding_of_tweedies_score(name):
    # eps from _posterior and epsilon_predict lies within 1e-14 of each
    # cell's moment scale (sum_k resp * |b * pull_k|) of Tweedie's route, over
    # the alpha-bar and sigma grids of the unfolded-formula test, on a +-30
    # sweep, the bitwise latents and, for K > 1, cells either side of
    # UNDERFLOW_SUM. The worst cell read 5.0e-15, at a component's centre,
    # where all of eps comes from a responsibility of about e^-40 whose exp
    # limits every route alike: the unfolded formula is 7.1e-15 off there
    gm = BITWISE_MIXTURES[name]
    alpha_bars = (1e-4, 0.05, 0.3, 0.5, 0.8, 0.97, 0.9999)
    cases = [(math.sqrt(ab), math.sqrt(1.0 - ab), {"alpha_bar": ab}) for ab in alpha_bars]
    cases += [(1.0, sigma, {"sigma": sigma}) for sigma in (0.002, 0.3, 1.0, 5.0, 80.0)]
    for a, b, level in cases:
        cells = [np.linspace(-30.0, 30.0, 5001), bitwise_latent(gm, a).reshape(-1)]
        if gm.num_components > 1:
            cells.append(np.array([*threshold_pair(gm, a, b, 1), *threshold_pair(gm, a, b, -1)]))
            sums = sum_rows(unshifted_exponentials(gm, np.concatenate(cells), a, b))
            assert np.any(sums < UNDERFLOW_SUM) and np.any(sums >= UNDERFLOW_SUM)
        z = np.concatenate(cells)
        expected = tweedie_epsilon(gm, z, a, b)
        scale = unfolded_posterior(gm, z, a, b)[2]
        for actual in (gm._posterior(z, a, b, "eps"), gm.epsilon_predict(z, **level)):
            assert np.all(np.abs(actual - expected) <= 1e-14 * scale), (a, b)


def drop_massless(mixture):
    keep = mixture.weights > 0.0
    return GaussianMixture(mixture.weights[keep], mixture.means[keep], mixture.variances[keep])


def test_zero_weight_wider_component_leaves_far_cells_finite():
    # a component without mass, wider than those with mass, is nearer to a far
    # cell in standardised distance; it must not turn the cell into NaN
    scalar = GaussianMixture(np.array([0.5, 0.0, 0.5]), np.array([-1.0, 0.0, 1.0]), np.array([0.25, 4.0, 0.25]))
    z = np.array([1e155, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar_eps = scalar.epsilon_predict(z, alpha_bar=0.5)
        expected_eps = drop_massless(scalar).epsilon_predict(z, alpha_bar=0.5)
        velocity = scalar._posterior(z, math.sqrt(0.5), math.sqrt(0.5), "velocity")
        assert_bitwise(velocity, drop_massless(scalar)._posterior(z, math.sqrt(0.5), math.sqrt(0.5), "velocity"))
    assert np.all(np.isfinite(scalar_eps))
    assert_bitwise(scalar_eps, expected_eps)


def test_results_never_alias_the_workspace():
    # a caller may overwrite what it got back; the next call is unaffected
    gm = BITWISE_MIXTURES["k3"]
    z = np.random.default_rng(6).normal(0.0, 3.0, (3, BLOCK_CELLS // 2 + 1))
    calls = (
        lambda: gm._posterior(z, 0.6, 0.8, "eps"),
        lambda: gm.velocity_predict(z, 0.4),
        lambda: gm._posterior(z, 0.6, 0.8, "velocity"),
    )
    for call in calls:
        first = call()
        expected = first.copy()
        first[...] = np.nan
        second = call()
        assert_bitwise(second, expected)
        for buffer in oracles._workspace.buffers:
            assert not np.shares_memory(second, buffer)
        assert not np.shares_memory(first, second)


@pytest.mark.parametrize("width", [1, 77, BLOCK_CELLS])
def test_workspace_buffers_start_on_cache_lines(width):
    # the posterior's vector loops ran 10-15% slower over a workspace at a
    # 16- or 48-byte offset, which a plain np.empty leaves to chance; the
    # returned moments are summed into block by block, so they are aligned too
    gm = BITWISE_MIXTURES["k3"]
    z = np.linspace(-4.0, 4.0, width)
    outputs = [gm._posterior(z, 0.6, 0.8, "eps"), gm.velocity_predict(z, 0.4)]
    buffers = oracles._workspace.buffers
    assert [buffer.shape for buffer in buffers] == [(3, width), (3, width), (1, width)]
    assert all(array.ctypes.data % 64 == 0 and array.flags.c_contiguous for array in buffers + outputs)


def test_threads_with_different_mixtures_and_shapes_match_serial():
    # each thread keeps its own workspace, so concurrent calls of different K
    # and width cannot disturb each other; more threads than cores, switching often
    rng = np.random.default_rng(7)
    jobs = [
        (BITWISE_MIXTURES["k2"], rng.normal(0.0, 3.0, 2 * BLOCK_CELLS + 3)),
        (BITWISE_MIXTURES["k4_zero_weights"], rng.normal(0.0, 3.0, (130, 130))),
        (BITWISE_MIXTURES["k3"], rng.normal(0.0, 3.0, 77)),
        (BITWISE_MIXTURES["k3_zero_weight"], rng.normal(0.0, 3.0, (40, 500))),
    ]
    def moments(gm, z):
        return [gm._posterior(z, 0.6, 0.8, moment) for moment in MOMENTS]

    serial = [moments(gm, z) for gm, z in jobs]
    orders = ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1])
    barrier = threading.Barrier(len(orders), timeout=30)
    results = {slot: [] for slot in range(len(orders))}

    def work(slot):
        barrier.wait()
        for _ in range(3):
            for i in orders[slot]:
                results[slot].append((i, moments(*jobs[i])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for slot in results:
        assert len(results[slot]) == 3 * len(jobs)
        for i, moments in results[slot]:
            for actual, reference in zip(moments, serial[i]):
                assert_bitwise(actual, reference)


def test_the_mixtures_surface_is_the_denoiser_protocol():
    # a sampler reads eps or the velocity; the mixture exports exactly those
    # two predictions and its component count, and the sampling loop finds a
    # finite-latent twin for each prediction and for nothing else
    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    assert public(Denoiser) == {"epsilon_predict", "velocity_predict"}
    assert public(GaussianMixture) == public(Denoiser) | {"num_components"}
    assert isinstance(GaussianMixture.num_components, property)
    assert set(oracles._FINITE_LATENT_TWINS) == {GaussianMixture.epsilon_predict, GaussianMixture.velocity_predict}


class TestEpsilonOracle:
    def test_standard_normal_closed_form(self):
        gm = standard_normal()
        z = np.array([[-1.3, 0.2], [2.4, 0.0]])
        for alpha_bar in (0.1, 0.5, 0.9):
            expected = math.sqrt(1.0 - alpha_bar) * z
            assert np.allclose(gm.epsilon_predict(z, alpha_bar=alpha_bar), expected, rtol=1e-14, atol=1e-15)

    def test_symmetric_mixture_vanishes_at_origin(self):
        gm = GaussianMixture(np.array([0.5, 0.5]), np.array([-1.5, 1.5]), np.array([0.7, 0.7]))
        assert float(gm.epsilon_predict(np.array(0.0), alpha_bar=0.5)) == 0.0

    def test_asymmetric_mixture_against_quadrature(self):
        closed = float(ASYMMETRIC.epsilon_predict(np.array(0.5), alpha_bar=0.5))
        quad = quadrature_posterior([0.3, 0.7], [-2.0, 3.0], [1.0, 1.0], 0.5, math.sqrt(0.5), math.sqrt(0.5), "eps")
        assert closed == pytest.approx(quad, abs=1e-8)
        assert closed == pytest.approx(-0.6379006834208596, rel=1e-12)

    def test_tweedie_identity(self):
        # (z - sqrt(1-abar) * eps*) / sqrt(abar) must equal E[z0 | z]
        for z in (-1.0, 0.5, 2.5):
            for alpha_bar in (0.2, 0.5, 0.8):
                a, b = math.sqrt(alpha_bar), math.sqrt(1.0 - alpha_bar)
                eps_star = float(ASYMMETRIC.epsilon_predict(np.array(z), alpha_bar=alpha_bar))
                tweedie = (z - b * eps_star) / a
                quad = quadrature_posterior([0.3, 0.7], [-2.0, 3.0], [1.0, 1.0], z, a, b, "z0")
                assert tweedie == pytest.approx(quad, abs=1e-8)

    def test_monte_carlo_posterior_consistency(self):
        # paired (z0, eps) draws binned around z; closed form within 3 standard errors
        rng = np.random.default_rng(99)
        n = 10**5
        z0s = rng.standard_normal(n)
        epss = rng.standard_normal(n)
        alpha_bar = 0.6
        a, b = math.sqrt(alpha_bar), math.sqrt(1.0 - alpha_bar)
        zts = a * z0s + b * epss
        selected = np.abs(zts - 0.4) < 0.05
        assert selected.sum() > 1000
        mc_mean = epss[selected].mean()
        stderr = epss[selected].std(ddof=1) / math.sqrt(selected.sum())
        predicted = float(standard_normal().epsilon_predict(np.array(0.4), alpha_bar=alpha_bar))
        assert abs(mc_mean - predicted) < 3.0 * stderr

    def test_pixelwise_locality(self):
        gm = GaussianMixture(np.array([0.5, 0.5]), np.array([-1.5, 1.5]), np.array([0.5, 0.5]))
        z = np.random.default_rng(3).standard_normal((6, 6))
        base = gm.epsilon_predict(z, alpha_bar=0.4)
        bumped_input = z.copy()
        bumped_input[2, 3] += 0.75
        bumped = gm.epsilon_predict(bumped_input, alpha_bar=0.4)
        changed = bumped != base
        assert changed[2, 3]
        assert changed.sum() == 1

    def test_predict_argument_contract(self):
        gm = standard_normal()
        z = np.zeros(3)
        with pytest.raises(TypeError):
            gm.epsilon_predict(z)
        with pytest.raises(TypeError):
            gm.epsilon_predict(z, alpha_bar=0.5, sigma=1.0)
        with pytest.raises(ValueError):
            gm.epsilon_predict(z, alpha_bar=1.0)
        with pytest.raises(ValueError):
            gm.epsilon_predict(z, sigma=0.0)
        for level in ("0.5", np.array([0.5])):  # a number or nothing, as for sigma and t
            for name in ("alpha_bar", "sigma"):
                with pytest.raises(ValueError):
                    gm.epsilon_predict(z, **{name: level})

    def test_variance_exploding_form(self):
        # z = z0 + sigma * eps with a unit-normal prior: eps* = sigma / (1 + sigma^2) * z
        gm = standard_normal()
        z = np.array([0.7, -1.1])
        for sigma in (0.3, 1.0, 5.0):
            expected = sigma / (1.0 + sigma**2) * z
            assert np.allclose(gm.epsilon_predict(z, sigma=sigma), expected, rtol=1e-13)

    def test_rejects_non_finite_latent(self):
        with pytest.raises(ValueError):
            standard_normal().epsilon_predict(np.array([np.nan]), alpha_bar=0.5)

    @pytest.mark.parametrize("name", ["standard_normal", "bench_k3"])
    def test_rejects_scales_whose_reciprocal_variance_overflows(self, name):
        # at (1e-160, 0) every a^2 v + b^2 is subnormal and its reciprocal
        # overflows, which would turn each moment into NaN; 1e-150 still
        # works. Neither warns
        gm = ROUTE_MIXTURES[name]
        z = np.array([0.5, -0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for moment in MOMENTS:
                with pytest.raises(ValueError, match="too small"):
                    gm._posterior(z, 1e-160, 0.0, moment)
                for b in (0.0, 1e-150):
                    assert np.all(np.isfinite(gm._posterior(z, 1e-150, b, moment)))

    @pytest.mark.parametrize("name", ["standard_normal", "bench_k3"])
    def test_rejects_scales_whose_variance_overflows(self, name):
        # at sigma = 1e160 every a^2 v + b^2 overflows to inf, which would make
        # eps 0.0 for K = 1 (the exact value is about 1e-10) and NaN for K = 3;
        # at 1e150 it stays finite. Neither warns
        gm = ROUTE_MIXTURES[name]
        z = np.array([1e150, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large"):
                gm.epsilon_predict(z, sigma=1e160)
            # every moment, at either scale overflowing
            for moment in MOMENTS:
                for a, b in ((1.0, 1e160), (1e160, 1.0)):
                    with pytest.raises(ValueError, match="too large"):
                        gm._posterior(z, a, b, moment)
                assert np.all(np.isfinite(gm._posterior(z, 1.0, 1e150, moment)))
            eps = gm.epsilon_predict(z, sigma=1e150)
            assert eps[0] == pytest.approx(1.0, rel=1e-12)


class TestVelocityOracle:
    def test_standard_normal_closed_form(self):
        gm = standard_normal()
        z = np.array([0.9, -0.4])
        for t in (0.25, 0.5, 0.7):
            expected = (2.0 * t - 1.0) / ((1.0 - t) ** 2 + t**2) * z
            assert np.allclose(gm.velocity_predict(z, t), expected, rtol=1e-13)

    def test_quadrature_cross_check(self):
        closed = float(standard_normal().velocity_predict(np.array(0.9), 0.7))
        eps_q = quadrature_posterior([1.0], [0.0], [1.0], 0.9, 0.3, 0.7, "eps")
        z0_q = quadrature_posterior([1.0], [0.0], [1.0], 0.9, 0.3, 0.7, "z0")
        assert closed == pytest.approx(eps_q - z0_q, abs=1e-8)

    def test_endpoints(self):
        gm = GaussianMixture(np.array([0.5, 0.5]), np.array([-2.0, 2.0]), np.array([1.0, 1.0]))
        z = np.array([1.7, -0.3])
        # t=1: latent is pure noise, so v = z - E[z0] = z for this zero-mean prior
        assert np.allclose(gm.velocity_predict(z, 1.0), z, rtol=1e-13)
        # t=0: latent is the clean sample, so v = E[eps] - z = -z
        assert np.allclose(gm.velocity_predict(z, 0.0), -z, rtol=1e-13)

    def test_rejects_time_outside_unit_interval(self):
        with pytest.raises(ValueError):
            standard_normal().velocity_predict(np.zeros(2), 1.5)


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([0.5, 0.6]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([1.5, -0.5]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([np.nan, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_variances_positive(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([1.0]), np.array([0.0]), np.array([0.0]))

    def test_variances_with_an_overflowing_reciprocal_rejected(self):
        # a subnormal variance would let a tiny sigma overflow 1 / (v + sigma^2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="reciprocal"):
                GaussianMixture(np.array([0.5, 0.5]), np.array([0.0, 1.0]), np.array([1.0, 1e-320]))
            GaussianMixture(np.array([1.0]), np.array([0.0]), np.array([np.finfo(float).tiny]))

    def test_shape_mismatch(self):
        cases = [
            ([1.0], [0.0, 1.0], [1.0, 1.0]),
            # vector (K, d) and 0-d components: a mixture acts on each latent cell alone
            ([0.4, 0.6], [[-1.0, 0.5], [2.0, -0.5]], [[1.0, 0.5], [0.5, 1.0]]),
            ([1.0], 0.0, 1.0),
        ]
        for weights, means, variances in cases:
            with pytest.raises(ValueError):
                GaussianMixture(np.array(weights), np.array(means), np.array(variances))


class TestGaussianField:
    def test_exponent_zero_is_white_noise(self):
        spec = GaussianFieldSpec(16, 16, 0.0)
        field = gaussian_field_2d(spec, 42)
        assert np.array_equal(field, np.random.default_rng(42).standard_normal((16, 16)))

    def test_single_cell_is_standard_normal_draw(self):
        spec = GaussianFieldSpec(1, 1, -2.0)
        field = gaussian_field_2d(spec, 9)
        assert field.shape == (1, 1)
        assert float(field[0, 0]) == float(np.random.default_rng(9).standard_normal((1, 1))[0, 0])

    def test_nonzero_exponent_has_exactly_zero_mean(self):
        field = gaussian_field_2d(GaussianFieldSpec(32, 32, -2.0), 5)
        assert abs(field.mean()) < 1e-12

    def test_power_law_slope(self):
        # regression over 100 seed-averaged radial spectra
        spec = GaussianFieldSpec(64, 64, -2.0)
        total = None
        for seed in range(100):
            profile = radial_spectrum(gaussian_field_2d(spec, seed))
            total = profile.mean_power if total is None else total + profile.mean_power
        averaged = total / 100.0
        radii = np.arange(averaged.size)
        inside = (radii >= 1) & (radii <= 22)
        slope = np.polyfit(np.log(radii[inside]), np.log(averaged[inside]), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GaussianFieldSpec(0, 4)
        with pytest.raises(ValueError):
            GaussianFieldSpec(4, 4, float("inf"))

    def test_exponent_whose_power_overflows_is_refused(self):
        # at 64x64 the largest radius is hypot(32, 32): 4096 * 45.25**183 is
        # finite and 4096 * 45.25**184 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = gaussian_field_2d(GaussianFieldSpec(64, 64, 183.0), 0)
        assert np.all(np.isfinite(field)) and np.abs(field).max() > 0.1
        for exponent in (184.0, 200.0, 1000.0):
            with pytest.raises(ValueError, match="overflows"):
                GaussianFieldSpec(64, 64, exponent)
        GaussianFieldSpec(64, 64, -1000.0)  # its largest squared amplitude is 1, at radius 1

    @staticmethod
    def allocating_draw(spec, seed):
        """The draw as one out-of-place expression, amplitude formed per call."""
        white = np.random.default_rng(seed).standard_normal((spec.height, spec.width))
        freq_y = np.fft.fftfreq(spec.height) * spec.height
        freq_x = np.fft.fftfreq(spec.width) * spec.width
        radii = np.hypot(freq_y[:, None], freq_x[None, :])
        amplitude = np.zeros_like(radii)
        nonzero = radii > 0.0
        amplitude[nonzero] = radii[nonzero] ** (spec.spectral_exponent / 2.0)
        amplitude[nonzero] /= math.sqrt(float(np.mean(amplitude[nonzero] ** 2)))
        return np.fft.ifft2(np.fft.fft2(white) * amplitude).real

    @pytest.mark.parametrize("exponent", [-1.0, -2.0, 1.5])
    @pytest.mark.parametrize("shape", [(256, 256), (7, 9), (64, 33), (1, 8), (8, 1)])
    def test_in_place_draw_is_bitwise_the_allocating_one(self, shape, exponent):
        spec = GaussianFieldSpec(*shape, exponent)
        for seed in (0, 1):  # the second draw reads the cached amplitude
            field = gaussian_field_2d(spec, seed)
            expected = self.allocating_draw(spec, seed)
            assert field.dtype == expected.dtype and field.shape == expected.shape
            assert field.tobytes() == expected.tobytes()

    def test_field_owns_its_data_and_the_amplitude_is_read_only(self):
        field = gaussian_field_2d(GaussianFieldSpec(16, 12, -1.0), 3)
        assert field.flags.c_contiguous and field.flags.owndata and field.flags.writeable
        amplitude = oracles._field_amplitude(16, 12, -1.0)
        assert amplitude is oracles._field_amplitude(16, 12, -1.0)
        assert not amplitude.flags.writeable
        with pytest.raises(ValueError):
            amplitude[0, 1] = 0.0

    def test_draw_peak_and_held_memory(self):
        # numpy reports its buffers to tracemalloc: a 256x256 float64 latent
        # is 0.5 MiB and its complex spectrum 1 MiB
        spec = GaussianFieldSpec(256, 256, -1.0)
        gaussian_field_2d(spec, 0)  # fill the amplitude cache first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            field = gaussian_field_2d(spec, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.nbytes == 2**19
        assert peak - base <= 1.75 * 2**20
        assert held - base <= 0.6 * 2**20
