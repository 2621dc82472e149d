import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegance import (
    AlphaBarSchedule,
    FlowTimesteps,
    GaussianFieldSpec,
    GaussianMixture,
    OmegaMask,
    OmegaSchedule,
    SigmaSchedule,
    SignalDivergenceError,
    flow_step,
    flow_step_reference,
    flow_timesteps,
    karras_sigmas,
    linear_beta_ladder,
    mask_from_grayscale,
    modified_snr_ddim,
    omega_schedule,
    rescale,
    snr,
    standard_normal,
)
from omegance.analysis import _step_table


# every count the package takes follows one integer rule, in which a bool is
# no integer, even where its value, 1, would be a valid count
BOOL_COUNTS = {
    "linear_beta_ladder": lambda: linear_beta_ladder(True),
    "subsample": lambda: linear_beta_ladder(20).subsample(True),
    "karras_sigmas": lambda: karras_sigmas(True),
    "flow_timesteps": lambda: flow_timesteps(True),
    "field_height": lambda: GaussianFieldSpec(True, 4),
    "field_width": lambda: GaussianFieldSpec(4, True),
    "mask_factor": lambda: mask_from_grayscale(np.full((4, 4), 128), True, 0.9, 1.1),
}


@pytest.mark.parametrize("build", BOOL_COUNTS.values(), ids=list(BOOL_COUNTS))
def test_a_bool_is_no_count(build):
    with pytest.raises(ValueError, match="integer"):
        build()


# the step-index accessors, which every sampling step reads, follow the same rule
STEP_INDEX_READS = {
    "alpha_bar": lambda i: linear_beta_ladder(10).alpha_bar(i),
    "snr": lambda i: snr(linear_beta_ladder(10), i),
    "sigma_hat": lambda i: karras_sigmas(4).sigma_hat(i),
    "dt": lambda i: flow_timesteps(4).dt(i),
}


@pytest.mark.parametrize("index", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("read", STEP_INDEX_READS.values(), ids=list(STEP_INDEX_READS))
def test_a_step_index_that_is_no_integer_is_refused(read, index):
    with pytest.raises(ValueError, match="integer"):
        read(index)


@pytest.mark.parametrize("read", STEP_INDEX_READS.values(), ids=list(STEP_INDEX_READS))
def test_a_numpy_integer_step_index_is_an_integer(read):
    assert read(np.int64(2)) == read(2)


# every other number the package takes follows one rule too: a real scalar
# that is not a bool and whose float is finite, so an int beyond the float
# range is refused with ValueError, not an OverflowError from float()
NUMBER_SITES = {
    "linear_beta_ladder.beta_start": lambda x: linear_beta_ladder(10, beta_start=x),
    "linear_beta_ladder.beta_end": lambda x: linear_beta_ladder(10, beta_end=x),
    "rescale.steepness": lambda x: rescale(0.0, steepness=x),
    "rescale.lower": lambda x: rescale(0.0, lower=x),
    "rescale.upper": lambda x: rescale(0.0, upper=x),
    "rescale": rescale,
    "karras_sigmas.sigma_min": lambda x: karras_sigmas(3, sigma_min=x),
    "karras_sigmas.sigma_max": lambda x: karras_sigmas(3, sigma_max=x),
    "karras_sigmas.rho": lambda x: karras_sigmas(3, rho=x),
    "karras_sigmas.churn": lambda x: karras_sigmas(3, churn=x),
    "GaussianFieldSpec.exponent": lambda x: GaussianFieldSpec(8, 8, x),
    "flow_step.dt": lambda x: flow_step(np.ones(4), x, np.ones(4)),
    "flow_step_reference.dt": lambda x: flow_step_reference(np.ones(4), x, np.ones(4)),
    "mask_from_grayscale.omega_high": lambda x: mask_from_grayscale(np.zeros((2, 2)), 1, 0.9, x),
    "omega_schedule.omega": lambda x: omega_schedule("constant", 4, omega=x),
    "omega_schedule.amplitude": lambda x: omega_schedule("exp", 4, amplitude=x, decay=1.0, offset=0.0),
    "epsilon_given.signal_scale": lambda x: standard_normal().epsilon_given(np.ones(4), x, 1.0),
    "epsilon_given.noise_scale": lambda x: standard_normal().epsilon_given(np.ones(4), 1.0, x),
    "posterior_z0.noise_scale": lambda x: standard_normal().posterior_z0(np.ones(4), 1.0, x),
    "velocity_predict.t": lambda x: standard_normal().velocity_predict(np.ones(4), x),
}
# the read-only arrays convert their cells to float64, in which True is 1.0
ARRAY_SITES = {
    "AlphaBarSchedule": lambda x: AlphaBarSchedule([1.0, x]),
    "SigmaSchedule.sigmas": lambda x: SigmaSchedule([x, 0.0]),
    "FlowTimesteps": lambda x: FlowTimesteps([1.0, x, 0.0]),
    "GaussianMixture.means": lambda x: GaussianMixture([1.0], [x], [1.0]),
    "OmegaMask": lambda x: OmegaMask([[1.0, x]]),
    "OmegaSchedule": lambda x: OmegaSchedule([1.0, x]),
}
BAD_NUMBERS = {"True": True, "nan": math.nan, "inf": math.inf, "int_beyond_float": 10**400}


@pytest.mark.parametrize(
    "site, number",
    [(site, number) for site in NUMBER_SITES for number in BAD_NUMBERS]
    + [(site, number) for site in ARRAY_SITES for number in BAD_NUMBERS if number != "True"],
)
def test_one_number_rule(site, number):
    build = NUMBER_SITES.get(site) or ARRAY_SITES[site]
    with pytest.raises(ValueError):
        build(BAD_NUMBERS[number])


class TestLinearBeta:
    def test_two_step_endpoints(self):
        bars = linear_beta_ladder(2, 0.1, 0.3)
        assert bars.alpha_bars.tolist() == [1.0, 1.0 - 0.1, (1.0 - 0.1) * (1.0 - 0.3)]

    def test_degenerate_constant(self):
        bars = linear_beta_ladder(3, 0.2, 0.2)
        keep = 1.0 - 0.2
        assert bars.alpha_bars.tolist() == [1.0, keep, keep * keep, keep * keep * keep]

    def test_midpoint_matches_exact_interpolation(self, linear_bars):
        # oracle: exact rational interpolation beta_start + i/(T-1) * (beta_end - beta_start),
        # read back from the ladder as beta_i = 1 - abar_{i+1} / abar_i
        beta = 1.0 - float(linear_bars.alpha_bars[501] / linear_bars.alpha_bars[500])
        exact = Fraction(1e-4) + Fraction(500, 999) * (Fraction(0.02) - Fraction(1e-4))
        assert beta == pytest.approx(float(exact), rel=1e-13)
        assert beta == pytest.approx(0.01005995995995996, rel=1e-13)

    @pytest.mark.parametrize(
        "args",
        [
            (1, 0.1, 0.2),
            (0, 0.1, 0.2),
            (10, 0.0, 0.2),
            (10, 0.3, 0.2),
            (10, 0.1, 1.0),
            (10, -0.1, 0.2),
            (10, "0.1", 0.2),
            (10, 0.1, None),
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            linear_beta_ladder(*args)

    @given(
        num_steps=st.integers(2, 200),
        start=st.floats(1e-6, 0.4),
        width=st.floats(0.0, 0.4),
    )
    def test_bounds_and_monotonicity(self, num_steps, start, width):
        # each step keeps 1 - beta_t of the signal, and the betas rise from start to start + width
        bars = linear_beta_ladder(num_steps, start, start + width).alpha_bars
        keeps = bars[1:] / bars[:-1]
        assert np.all(keeps >= 1.0 - (start + width) - 1e-15) and np.all(keeps <= 1.0 - start + 1e-15)
        assert np.all(np.diff(keeps) <= 1e-15)

    def test_underflow_is_refused(self):
        with pytest.raises(ValueError, match="underflowed to zero signal"):
            linear_beta_ladder(2000, 0.5, 0.5)


class TestAlphaBar:
    def test_single_product_term(self):
        bars = linear_beta_ladder(2, 0.5, 0.5)
        assert bars.alpha_bar(0) == 1.0
        assert bars.alpha_bar(1) == 0.5

    def test_two_equal_betas_by_hand(self):
        bars = AlphaBarSchedule(np.concatenate(([1.0], np.cumprod([0.9, 0.9]))))
        assert bars.alpha_bar(2) == pytest.approx(0.81, rel=1e-12)

    def test_long_tail_against_exact_product(self, linear_bars):
        # oracle: exact rational cumulative product of the exactly interpolated
        # betas, converted to float at the end
        low, high = Fraction(1e-4), Fraction(0.02)
        product = Fraction(1)
        for i in range(1000):
            product *= 1 - (low + Fraction(i, 999) * (high - low))
        tail = linear_bars.alpha_bar(1000)
        assert tail == pytest.approx(float(product), rel=1e-12)
        assert tail == pytest.approx(4.035829765375676e-05, rel=1e-12)
        assert tail > 0.0

    @given(num_steps=st.integers(2, 300), start=st.floats(1e-4, 0.5), width=st.floats(0.0, 0.4))
    def test_strictly_decreasing_and_positive(self, num_steps, start, width):
        bars = linear_beta_ladder(num_steps, start, start + width)
        assert np.all(bars.alpha_bars > 0.0)
        assert np.all(np.diff(bars.alpha_bars) < 0.0)

    def test_subsample_hits_both_ends(self, linear_bars):
        sub = linear_bars.subsample(10)
        assert sub.num_steps == 10
        assert sub.alpha_bar(0) == 1.0
        assert sub.alpha_bar(10) == linear_bars.alpha_bar(1000)
        assert sub.alpha_bar(1) == linear_bars.alpha_bar(1)

    def test_subsample_full_length_is_identity(self, linear_bars):
        sub = linear_bars.subsample(1000)
        assert np.array_equal(sub.alpha_bars, linear_bars.alpha_bars)

    def test_subsample_rejects_overlong(self, linear_bars):
        with pytest.raises(ValueError):
            linear_bars.subsample(1001)

    @pytest.mark.parametrize("count", [2.5, 3.0, "3"])
    def test_subsample_refuses_a_count_that_is_no_integer(self, linear_bars, count):
        with pytest.raises(ValueError, match="integer"):
            linear_bars.subsample(count)

    @given(data=st.data(), total=st.integers(1, 3000))
    @settings(deadline=None)
    def test_subsample_walks_n_strictly_decreasing_rungs(self, data, total):
        ladder = AlphaBarSchedule(np.linspace(1.0, 0.5, total + 1))
        n = data.draw(st.integers(1, total), label="n")
        sub = ladder.subsample(n).alpha_bars
        assert sub.size == n + 1
        assert sub[0] == ladder.alpha_bars[0] and sub[-1] == ladder.alpha_bars[-1]
        assert sub[1] == ladder.alpha_bars[1] or n == 1
        assert np.all(np.diff(sub) < 0.0)

    @pytest.mark.parametrize(
        "values",
        [[1.0], [1.0, 0.5, 0.5], [1.0, 0.5, 0.6], [1.0, 1.1], [1.0, 0.0], [1.0, -0.2]],
    )
    def test_rejects_bad_ladders(self, values):
        with pytest.raises(ValueError):
            AlphaBarSchedule(np.array(values))


class TestSnr:
    def test_equal_signal_and_noise(self):
        bars = AlphaBarSchedule(np.array([1.0, 0.5]))
        assert snr(bars, 1) == 1.0

    def test_direct_ratio(self):
        bars = AlphaBarSchedule(np.array([1.0, 0.9]))
        assert snr(bars, 1) == pytest.approx(9.0, rel=1e-12)

    def test_pure_signal_diverges(self):
        bars = AlphaBarSchedule(np.array([1.0, 0.5]))
        with pytest.raises(SignalDivergenceError):
            snr(bars, 0)


class TestModifiedSnr:
    def test_unit_omega_recovers_previous_snr(self, linear_bars):
        values = modified_snr_ddim(linear_bars, 1.0)
        assert values.shape == (linear_bars.num_steps - 1,)  # t = 2..T
        for t, value in enumerate(values, start=2):
            assert value == pytest.approx(snr(linear_bars, t - 1), rel=1e-12)

    def test_larger_omega_is_strictly_larger(self, linear_bars):
        assert np.all(modified_snr_ddim(linear_bars, 1.1) > modified_snr_ddim(linear_bars, 1.0))

    def test_frozen_value_halfway(self, linear_bars):
        # cross-checked against the coefficient-propagation route in test_analysis
        assert modified_snr_ddim(linear_bars, 0.9)[500 - 2] == pytest.approx(0.08613487636148472, rel=1e-12)

    def test_zero_bracket_is_divergent(self):
        # on this ladder sqrt(0.9) = 3 sqrt(0.1), so omega = 1.5 zeroes the
        # t = 2 bracket exactly, in float64 too
        with pytest.raises(SignalDivergenceError, match="analytic SNR at t=2 is inf for omega=1.5"):
            modified_snr_ddim(AlphaBarSchedule([1.0, 0.9, 0.5]), 1.5)

    @pytest.mark.parametrize("omega", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_bad_omega(self, linear_bars, omega):
        with pytest.raises(ValueError):
            modified_snr_ddim(linear_bars, omega)

    @given(
        num_steps=st.integers(2, 80),
        start=st.floats(1e-5, 0.05),
        width=st.floats(0.0, 0.1),
    )
    @settings(deadline=None)
    def test_negative_swing_term(self, num_steps, start, width):
        bars = linear_beta_ladder(num_steps, start, start + width)
        for t in range(1, num_steps + 1):
            ab_prev, ab_t = bars.alpha_bar(t - 1), bars.alpha_bar(t)
            swing = math.sqrt(ab_t) * math.sqrt(1 - ab_prev) - math.sqrt(ab_prev) * math.sqrt(1 - ab_t)
            assert swing < 0.0


class TestKarras:
    def test_linear_rho_endpoints(self):
        sig = karras_sigmas(2, 1.0, 10.0, rho=1.0)
        assert sig.sigmas.tolist() == [10.0, 1.0, 0.0]

    def test_linear_rho_midpoint(self):
        sig = karras_sigmas(3, 1.0, 9.0, rho=1.0)
        assert sig.sigmas.tolist() == [9.0, 5.0, 1.0, 0.0]

    def test_frozen_middle_entries(self):
        # oracle: the interpolation formula evaluated term by term
        sig = karras_sigmas(10, 0.0292, 14.6146, rho=7.0)
        inv = 1.0 / 7.0
        lo, hi = 0.0292**inv, 14.6146**inv
        for i in (4, 5):
            expected = (hi + (i / 9.0) * (lo - hi)) ** 7.0
            assert float(sig.sigmas[i]) == pytest.approx(expected, rel=1e-12)
        assert float(sig.sigmas[4]) == pytest.approx(1.7499009612035363, rel=1e-12)
        assert float(sig.sigmas[5]) == pytest.approx(0.9144200047253521, rel=1e-12)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            karras_sigmas(10, 5.0, 1.0)

    @pytest.mark.parametrize("rho", [1e-4, 5e-324])
    def test_rho_so_small_that_the_top_level_overflows_is_refused(self, rho):
        # sigma_max ** (1 / rho) overflows at 1e-4; at 5e-324 1 / rho is inf,
        # and the levels would be inf - inf, a NaN with a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rho"):
                karras_sigmas(10, rho=rho)

    def test_sigma_hat_with_churn(self):
        sig = karras_sigmas(4, 1.0, 8.0, rho=1.0, churn=0.5)
        assert sig.sigma_hat(0) == pytest.approx(12.0)
        assert sig.sigma_hat(0) >= float(sig.sigmas[0])

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SigmaSchedule(np.array([3.0, 1.0]))  # missing terminal zero
        with pytest.raises(ValueError):
            SigmaSchedule(np.array([1.0, 3.0, 0.0]))  # not decreasing
        with pytest.raises(ValueError):
            SigmaSchedule(np.array([3.0, 1.0, 0.0]), churn=-0.1)

    @pytest.mark.parametrize("churn", [True, False, float("nan"), float("inf")])
    def test_churn_refuses_a_bool_and_a_non_finite_value(self, churn):
        with pytest.raises(ValueError, match="churn"):
            SigmaSchedule([2.0, 1.0, 0.0], churn=churn)


class TestFlowTimesteps:
    def test_single_step(self):
        ft = flow_timesteps(1)
        assert ft.times.tolist() == [1.0, 0.0]
        assert ft.dt(0) == -1.0

    def test_uniform_grid(self):
        ft = flow_timesteps(4)
        assert ft.times.tolist() == [1.0, 0.75, 0.5, 0.25, 0.0]

    def test_reciprocal_dt(self):
        ft = flow_timesteps(50)
        for k in range(50):
            assert ft.dt(k) == pytest.approx(-0.02, rel=1e-12)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            flow_timesteps(0)


class TestStepCoefficients:
    @given(
        ab_t=st.floats(0.01, 0.98),
        gap=st.floats(1e-6, 0.02),
        z0=st.floats(-5, 5),
        eps=st.floats(-5, 5),
    )
    def test_generic_step_identity(self, ab_t, gap, z0, eps):
        # one unit-omega step of delta * z_t + zeta * eps from a forward-form
        # latent must re-land on the forward form at t-1
        ab_prev = ab_t + gap
        (delta,), (zeta,), _ = _step_table("ddim", AlphaBarSchedule([ab_prev, ab_t]))
        stepped = delta * math.sqrt(ab_t) * z0 + (delta * math.sqrt(1 - ab_t) + zeta) * eps
        expected = math.sqrt(ab_prev) * z0 + math.sqrt(1 - ab_prev) * eps
        assert stepped == pytest.approx(expected, rel=1e-12, abs=1e-12)
