import math
import sys
import threading
import warnings

import numpy as np
import pytest

from omegance import (
    GaussianFieldSpec,
    GaussianMixture,
    gaussian_field_2d,
    radial_spectrum,
    sample_prior,
    standard_normal,
)
from omegance import oracles
from omegance.oracles import BLOCK_CELLS

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


def softmax_posterior(mixture, z, a, b):
    """Scalar-mixture posterior by the general route: both moments through the
    log-space softmax over freshly allocated (K, N) temporaries, for every K.
    The package's posterior must match it bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_weights = np.log(mixture.weights)
    flat = z.reshape(1, -1)
    centers = (a * mixture.means)[:, None]
    total_var = (a * a * mixture.variances + b * b)[:, None]
    diff = flat - centers
    log_resp = log_weights[:, None] - 0.5 * (diff * diff / total_var + np.log(2.0 * np.pi * total_var))
    log_resp -= log_resp.max(axis=0, keepdims=True)
    resp = np.exp(log_resp)
    resp /= resp.sum(axis=0, keepdims=True)
    pull = diff / total_var
    eps_mean = (resp * (b * pull)).sum(axis=0).reshape(z.shape)
    z0_mean = (resp * (mixture.means[:, None] + a * mixture.variances[:, None] * pull)).sum(axis=0).reshape(z.shape)
    return eps_mean, z0_mean


def assert_bitwise(actual, expected):
    assert isinstance(actual, np.ndarray) and actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))  # array_equal has -0.0 == 0.0


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
            assert_bitwise(gm.epsilon_predict(z, alpha_bar=alpha_bar), softmax_posterior(gm, z, a, b)[0])

    def test_epsilon_predict_sigma(self, name):
        gm = BITWISE_MIXTURES[name]
        for sigma in (0.01, 1.0, 80.0):
            z = bitwise_latent(gm, 1.0)
            assert_bitwise(gm.epsilon_predict(z, sigma=sigma), softmax_posterior(gm, z, 1.0, sigma)[0])

    def test_posterior_z0(self, name):
        gm = BITWISE_MIXTURES[name]
        for a, b in ((0.6, 0.8), (1.0, 0.0), (0.0, 1.0)):
            z = bitwise_latent(gm, a)
            assert_bitwise(gm.posterior_z0(z, a, b), softmax_posterior(gm, z, a, b)[1])

    def test_velocity_predict(self, name):
        gm = BITWISE_MIXTURES[name]
        for t in (0.0, 0.3, 1.0):
            z = bitwise_latent(gm, 1.0 - t)
            eps_mean, z0_mean = softmax_posterior(gm, z, 1.0 - t, t)
            assert_bitwise(gm.velocity_predict(z, t), eps_mean - z0_mean)

    def test_zero_dimensional_latent(self, name):
        gm = BITWISE_MIXTURES[name]
        z = np.array(-37.5)
        assert_bitwise(gm.epsilon_given(z, 0.6, 0.8), softmax_posterior(gm, z, 0.6, 0.8)[0])

    @pytest.mark.parametrize("size", sorted(BLOCK_SIZES))
    def test_latents_spanning_blocks(self, name, size):
        # the special cells repeat across block boundaries; every moment the
        # blocked posterior forms must equal the whole-latent softmax
        gm = BITWISE_MIXTURES[name]
        a, b = 0.6, 0.8
        flat = np.resize(bitwise_latent(gm, a).reshape(-1), size)
        for z in (flat, flat.reshape(BLOCK_SIZES[size])):
            eps_ref, z0_ref = softmax_posterior(gm, z, a, b)
            assert_bitwise(gm.epsilon_given(z, a, b), eps_ref)
            assert_bitwise(gm.posterior_z0(z, a, b), z0_ref)
            for actual, reference in zip(gm._posterior(z, a, b), (eps_ref, z0_ref)):
                assert_bitwise(actual, reference)
            eps_ref, z0_ref = softmax_posterior(gm, z, 1.0 - 0.3, 0.3)
            assert_bitwise(gm.velocity_predict(z, 0.3), eps_ref - z0_ref)


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
        eps_mean = gm.epsilon_given(z, a, b)
        z0_mean = gm.posterior_z0(z, a, b)
        eps_both, z0_both = gm._posterior(z, a, b)
    velocity = eps_both - z0_both
    for moments in ((eps_mean, z0_mean), (eps_both, z0_both)):
        for actual, reference in zip(moments, softmax_posterior(gm, NEAR_CELLS, a, b)):
            assert_bitwise(actual[FAR_CELLS.size :], reference)
    for i, cell in enumerate(FAR_CELLS):
        nearest = nearest_component(gm, cell, a, b)
        want_eps, want_z0 = nearest._posterior(np.array([cell]), a, b)
        for actual, want in ((eps_mean, want_eps), (z0_mean, want_z0), (velocity, want_eps - want_z0)):
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
        eps_mean, z0_mean = gm._posterior(z, a, b)
        velocity = gm.velocity_predict(z[2:], 0.3)
    for i, cell in enumerate(z[:3]):
        want_eps, want_z0 = nearest_component(gm, cell, a, b)._posterior(z[i : i + 1], a, b)
        assert eps_mean[i] == pytest.approx(float(want_eps[0]), rel=1e-12)
        assert z0_mean[i] == pytest.approx(float(want_z0[0]), rel=1e-12)
    nearest = nearest_component(gm, z[2], 0.7, 0.3)
    assert np.isfinite(velocity[0])
    assert velocity[0] == pytest.approx(float(nearest.velocity_predict(z[2:3], 0.3)[0]), rel=1e-12)
    eps_ref, z0_ref = softmax_posterior(gm, z[3:], 0.7, 0.3)
    assert_bitwise(velocity[1:], eps_ref - z0_ref)


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
        eps_mean = gm.epsilon_given(z, a, b)
        z0_mean = gm.posterior_z0(z, a, b)
        eps_both, z0_both = gm._posterior(z, a, b)
    eps_ref, z0_ref = softmax_posterior(gm, z[near], a, b)
    for actual, reference in ((eps_mean, eps_ref), (z0_mean, z0_ref), (eps_both, eps_ref), (z0_both, z0_ref)):
        assert_bitwise(actual[near], reference)
    for index, cell in far.items():
        want_eps, want_z0 = nearest_component(gm, cell, a, b)._posterior(np.array([cell]), a, b)
        for actual, want in ((eps_mean, want_eps), (z0_mean, want_z0), (eps_both, want_eps), (z0_both, want_z0)):
            assert actual[index] == pytest.approx(float(want[0]), rel=1e-12)


def drop_massless(mixture):
    keep = mixture.weights > 0.0
    return GaussianMixture(mixture.weights[keep], mixture.means[keep], mixture.variances[keep])


def test_zero_weight_wider_component_leaves_far_cells_finite():
    # a component without mass, wider than those with mass, is nearer to a far
    # cell in standardised distance; it must not turn the cell into NaN
    scalar = GaussianMixture(np.array([0.5, 0.0, 0.5]), np.array([-1.0, 0.0, 1.0]), np.array([0.25, 4.0, 0.25]))
    vector = GaussianMixture(
        np.array([0.5, 0.0, 0.5]),
        np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
        np.array([[0.5, 0.5], [4.0, 4.0], [0.5, 0.5]]),
    )
    z = np.array([1e155, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar_eps = scalar.epsilon_predict(z, alpha_bar=0.5)
        scalar_both = scalar._posterior(z, math.sqrt(0.5), math.sqrt(0.5))
        vector_eps = vector.epsilon_given(z, 0.7, 0.7)
        vector_both = vector._posterior(z, 0.7, 0.7)
        expected = (
            drop_massless(scalar).epsilon_predict(z, alpha_bar=0.5),
            drop_massless(scalar)._posterior(z, math.sqrt(0.5), math.sqrt(0.5)),
            drop_massless(vector).epsilon_given(z, 0.7, 0.7),
            drop_massless(vector)._posterior(z, 0.7, 0.7),
        )
    assert np.all(np.isfinite(scalar_eps)) and np.all(np.isfinite(vector_eps))
    assert_bitwise(scalar_eps, expected[0])
    assert_bitwise(vector_eps, expected[2])
    for actual, reference in zip(scalar_both + vector_both, expected[1] + expected[3]):
        assert_bitwise(actual, reference)


def test_results_never_alias_the_workspace():
    # a caller may overwrite what it got back; the next call is unaffected
    gm = BITWISE_MIXTURES["k3"]
    z = np.random.default_rng(6).normal(0.0, 3.0, (3, BLOCK_CELLS // 2 + 1))
    calls = (
        lambda: gm.epsilon_given(z, 0.6, 0.8),
        lambda: gm.posterior_z0(z, 0.6, 0.8),
        lambda: gm.velocity_predict(z, 0.4),
        lambda: gm._posterior(z, 0.6, 0.8)[0],
        lambda: gm._posterior(z, 0.6, 0.8)[1],
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
    serial = [gm._posterior(z, 0.6, 0.8) for gm, z in jobs]
    orders = ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1])
    barrier = threading.Barrier(len(orders), timeout=30)
    results = {slot: [] for slot in range(len(orders))}

    def work(slot):
        barrier.wait()
        for _ in range(3):
            for i in orders[slot]:
                results[slot].append((i, jobs[i][0]._posterior(jobs[i][1], 0.6, 0.8)))

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


def vector_softmax_posterior(mixture, z, a, b):
    """Vector-mixture posterior by the plain log-space softmax over components."""
    log_weights = np.log(mixture.weights)
    total_var = a * a * mixture.variances + b * b
    diff = z[None, :] - a * mixture.means
    log_resp = log_weights - 0.5 * np.sum(diff * diff / total_var + np.log(2.0 * np.pi * total_var), axis=1)
    log_resp -= log_resp.max()
    resp = np.exp(log_resp)
    resp /= resp.sum()
    pull = diff / total_var
    eps_mean = (resp[:, None] * (b * pull)).sum(axis=0)
    z0_mean = (resp[:, None] * (mixture.means + a * mixture.variances * pull)).sum(axis=0)
    return eps_mean, z0_mean


def test_vector_latent_far_from_every_centre():
    # every squared distance overflows; the posterior must stay finite and
    # silent, and the latents near the centres keep their bitwise values
    a = b = 0.7
    means = np.array([[-1.0, 0.0], [1.0, 0.0]])
    even = GaussianMixture(np.array([0.5, 0.5]), means, np.full((2, 2), 0.5))
    uneven = GaussianMixture(np.array([0.5, 0.5]), means, np.array([[0.5, 0.5], [0.5, 2.0]]))
    cases = [(even, [1e155, 3.0]), (even, [1e300, 1e300]), (uneven, [-3.0, -2e200]), (uneven, [2e200, 1e200])]
    for gm, z in cases:
        z = np.array(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps_mean = gm.epsilon_given(z, a, b)
        # the nearest component takes all the mass
        total_var = a * a * gm.variances + b * b
        k = int(np.argmin([math.hypot(*((z - a * gm.means[k]) / np.sqrt(total_var[k]))) for k in range(2)]))
        np.testing.assert_allclose(eps_mean, b * (z - a * gm.means[k]) / total_var[k], rtol=1e-12, atol=0.0)
    # far along y, where both centres agree: the x posterior is that of the
    # scalar mixture of the x marginals, although both offsets in y are one float
    z = np.array([-3.0, -2e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps_mean = even.epsilon_given(z, a, b)
    marginal = GaussianMixture(np.array([0.5, 0.5]), means[:, 0], np.full(2, 0.5))
    np.testing.assert_allclose(eps_mean[0], marginal.epsilon_given(z[:1], a, b)[0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(eps_mean[1], b * z[1] / (a * a * 0.5 + b * b), rtol=1e-12, atol=0.0)
    for z in (np.array([0.3, -0.2]), np.array([-0.7, 0.0]), np.array([40.0, -25.0])):
        for gm in (even, uneven):
            for actual, reference in zip(gm._posterior(z, a, b), vector_softmax_posterior(gm, z, a, b)):
                assert_bitwise(actual, reference)


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
                assert float(ASYMMETRIC.posterior_z0(np.array(z), a, b)) == pytest.approx(quad, abs=1e-8)

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

    def test_vector_mixture(self):
        gm = GaussianMixture(
            np.array([0.4, 0.6]),
            np.array([[-1.0, 0.5], [2.0, -0.5]]),
            np.array([[1.0, 0.5], [0.5, 1.0]]),
        )
        z = np.array([0.3, -0.2])
        out = gm.epsilon_predict(z, alpha_bar=0.5)
        assert out.shape == (2,)
        with pytest.raises(ValueError):
            gm.epsilon_predict(np.array([0.3, -0.2, 1.0]), alpha_bar=0.5)

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


class TestSamplePrior:
    def test_law_of_large_numbers(self):
        draws = sample_prior(standard_normal(), 11, 10**6)
        assert abs(draws.mean()) < 4.0 / math.sqrt(10**6)

    def test_degenerate_weights(self):
        gm = GaussianMixture(np.array([1.0, 0.0]), np.array([5.0, -5.0]), np.array([1e-6, 1e-6]))
        draws = sample_prior(gm, 0, 1000)
        assert np.all(np.abs(draws - 5.0) < 1.0)

    def test_component_frequencies_within_binomial_bound(self):
        weights = np.array([0.3, 0.7])
        gm = GaussianMixture(weights, np.array([-50.0, 50.0]), np.array([1.0, 1.0]))
        n = 20000
        draws = sample_prior(gm, 123, n)
        count_high = int((draws > 0).sum())
        stddev = math.sqrt(n * 0.7 * 0.3)
        assert abs(count_high - n * 0.7) < 4.0 * stddev

    def test_deterministic_given_seed(self):
        gm = ASYMMETRIC
        assert np.array_equal(sample_prior(gm, 7, 100), sample_prior(gm, 7, 100))

    def test_vector_draws(self):
        gm = GaussianMixture(np.array([1.0]), np.array([[1.0, -1.0]]), np.array([[0.5, 0.5]]))
        draws = sample_prior(gm, 5, 50)
        assert draws.shape == (50, 2)


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

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))


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
