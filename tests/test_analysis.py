import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegance import (
    AlphaBarSchedule,
    OmegaControl,
    SamplerConfig,
    SignalDivergenceError,
    band_energy,
    closed_form_scalar_trajectory,
    flow_timesteps,
    karras_sigmas,
    modified_snr_ddim,
    omega_schedule,
    propagate_coefficients_ddim,
    radial_spectrum,
    run_sampler,
    snr,
    standard_normal,
)
from omegance.analysis import SpectrumProfile, _radial_bins, _step_table


def one_step_coefficients(bars, omega):
    """(z0_coeff', eps_coeff') one omega-scaled step leaves from the forward form, for t = T..1."""
    delta, zeta, _ = _step_table("ddim", bars)
    ab_t = bars.alpha_bars[:0:-1]
    return delta * np.sqrt(ab_t), delta * np.sqrt(1.0 - ab_t) + zeta * omega


# the two SNR routes over t = 2..T, under the names their errors give them
SNR_ROUTES = {"analytic": modified_snr_ddim, "propagated": propagate_coefficients_ddim}


class TestCoefficientPropagation:
    def test_unit_omega_relands_on_forward_form(self, linear_bars):
        z0_coeffs, eps_coeffs = one_step_coefficients(linear_bars, 1.0)
        for t in (2, 500, 1000):
            ab_prev = linear_bars.alpha_bar(t - 1)
            assert z0_coeffs[1000 - t] == pytest.approx(math.sqrt(ab_prev), rel=1e-12)
            assert eps_coeffs[1000 - t] == pytest.approx(math.sqrt(1.0 - ab_prev), rel=1e-12)

    def test_squared_ratio_matches_bracket_form(self, linear_bars):
        # the two routes share no arithmetic; this is the frozen halfway case
        ratio = propagate_coefficients_ddim(linear_bars, 0.9)[500 - 2]
        assert ratio == pytest.approx(0.08613487636148472, rel=1e-12)
        assert ratio == pytest.approx(modified_snr_ddim(linear_bars, 0.9)[500 - 2], rel=1e-9)

    def test_coefficient_bounds(self, linear_bars):
        # unit-omega steps from t = T..2 follow the schedule: the clean
        # coefficient climbs through [0, 1] and the noise coefficient stays
        # positive all the way down
        z0_coeffs, eps_coeffs = (c[:-1] for c in one_step_coefficients(linear_bars, 1.0))
        assert np.all((z0_coeffs >= 0.0) & (z0_coeffs <= 1.0))
        assert np.all(eps_coeffs > 0.0)
        assert np.all(np.diff(z0_coeffs) > 0.0)  # signal grows as noise is removed
        # scaled steps from the forward form keep the noise coefficient
        # positive across the whole working omega range
        for omega in (0.8, 0.9, 1.1, 1.2):
            z0_coeffs, eps_coeffs = (c[:-1] for c in one_step_coefficients(linear_bars, omega))
            assert np.all(eps_coeffs > 0.0)
            assert np.all((z0_coeffs >= 0.0) & (z0_coeffs <= 1.0))


class TestSnrTrajectory:
    def test_unit_omega_matches_plain_snr(self, linear_bars):
        for route in SNR_ROUTES.values():
            values = route(linear_bars, 1.0)
            assert values.shape == (linear_bars.num_steps - 1,)  # t = 2..T
            for t, value in enumerate(values, start=2):
                assert value == pytest.approx(snr(linear_bars, t - 1), rel=1e-12)

    def test_modes_agree(self, linear_bars):
        analytic = modified_snr_ddim(linear_bars, 1.1)
        propagated = propagate_coefficients_ddim(linear_bars, 1.1)
        rel = np.abs(analytic - propagated) / analytic
        assert float(rel.max()) <= 1e-9

    @pytest.mark.parametrize("omega", [0.8, 1.2])
    def test_routes_follow_the_scalar_formulas_bit_for_bit(self, linear_bars, omega):
        # each route is array arithmetic in the scalar order of operations
        # written out here per step
        ladder = linear_bars.subsample(37)
        analytic, propagated = modified_snr_ddim(ladder, omega), propagate_coefficients_ddim(ladder, omega)
        for t in range(2, 38):
            ab_t, ab_prev = ladder.alpha_bar(t), ladder.alpha_bar(t - 1)
            root_t = math.sqrt(ab_t)
            keep = math.sqrt(ab_prev) * math.sqrt(1.0 - ab_t) / root_t
            swing = (root_t * math.sqrt(1.0 - ab_prev) - math.sqrt(ab_prev) * math.sqrt(1.0 - ab_t)) / root_t
            bracket = keep + omega * swing
            assert analytic[t - 2] == ab_prev / (bracket * bracket)
            delta = math.sqrt(ab_prev) / root_t
            zeta = -math.sqrt(ab_prev) * math.sqrt(1.0 - ab_t) / root_t + math.sqrt(1.0 - ab_prev)
            z0_coeff = delta * root_t
            eps_coeff = delta * math.sqrt(1.0 - ab_t) + zeta * omega
            assert propagated[t - 2] == (z0_coeff * z0_coeff) / (eps_coeff * eps_coeff)

    def test_smaller_omega_is_pointwise_below(self, linear_bars):
        assert np.all(modified_snr_ddim(linear_bars, 0.9) < modified_snr_ddim(linear_bars, 1.0))

    @pytest.mark.parametrize("mode", SNR_ROUTES)
    def test_unformable_ratio_names_its_step(self, mode):
        # the squared bracket (or noise coefficient) overflows, so the ratio
        # would round to 0, which is no SNR at all
        bars = AlphaBarSchedule([1.0, 0.9, 0.5])
        with pytest.raises(SignalDivergenceError, match=f"{mode} SNR at t=2 is 0.0"):
            SNR_ROUTES[mode](bars, 1e200)

    @pytest.mark.parametrize("mode", SNR_ROUTES)
    def test_names_the_first_unformable_step(self, mode):
        # omega = 1.5 zeroes the t = 3 bracket, and the noise coefficient,
        # exactly; at t = 2 the bracket is negative, and its square finite
        bars = AlphaBarSchedule([1.0, 0.99, 0.9, 0.5])
        with pytest.raises(SignalDivergenceError, match=f"{mode} SNR at t=3 is inf for omega=1.5"):
            SNR_ROUTES[mode](bars, 1.5)


class TestClosedFormTrajectory:
    def test_unit_omega_multiplier_by_hand(self):
        # c = sqrt(abar_prev*abar_t) + sqrt((1-abar_prev)(1-abar_t)) at omega=1
        ladder = AlphaBarSchedule(np.array([1.0, 0.6, 0.5]))
        trajectory = closed_form_scalar_trajectory("ddim", ladder, 1.0)
        expected_first = math.sqrt(0.3) + math.sqrt(0.2)
        assert float(trajectory.multipliers[0]) == pytest.approx(expected_first, rel=1e-12)
        assert trajectory.multipliers.shape == (2,)
        assert np.array_equal(trajectory.mean_multipliers, trajectory.multipliers)

    def test_ddim_rows_follow_the_scalar_formula_bit_for_bit(self, linear_bars):
        # the table is built in array arithmetic; each row keeps the scalar
        # order of operations, so ddim_step's multipliers and the snr.csv
        # pins see the same bits
        ladder = linear_bars.subsample(37)
        rows = zip(*_step_table("ddim", ladder))
        for t, row in zip(range(37, 0, -1), rows, strict=True):
            ab_t, ab_prev = ladder.alpha_bar(t), ladder.alpha_bar(t - 1)
            root_t = math.sqrt(ab_t)
            delta = math.sqrt(ab_prev) / root_t
            zeta = -math.sqrt(ab_prev) * math.sqrt(1.0 - ab_t) / root_t + math.sqrt(1.0 - ab_prev)
            assert row == (delta, zeta, math.sqrt(1.0 - ab_t))

    def test_ddim_matches_sampler(self, linear_bars):
        gm = standard_normal()
        z0 = np.random.default_rng(42).standard_normal((16, 16))
        steps = 20
        cfg = SamplerConfig(
            "ddim", steps, linear_bars, control=OmegaControl(base=1.1), snapshots=tuple(range(steps + 1))
        )
        sampled = run_sampler(gm, cfg, z0)
        closed = closed_form_scalar_trajectory("ddim", linear_bars.subsample(steps), 1.1)
        states = closed.reconstruct(z0)
        for state in sampled.states:
            assert np.allclose(state.values, states[state.step], rtol=1e-10, atol=0)

    def test_flow_matches_sampler(self):
        gm = standard_normal()
        z0 = np.random.default_rng(43).standard_normal((16, 16))
        timesteps = flow_timesteps(15)
        cfg = SamplerConfig(
            "flow", 15, timesteps, control=OmegaControl(base=0.9), snapshots=tuple(range(16))
        )
        sampled = run_sampler(gm, cfg, z0)
        closed = closed_form_scalar_trajectory("flow", timesteps, 0.9)
        states = closed.reconstruct(z0)
        for state in sampled.states:
            assert np.allclose(state.values, states[state.step], rtol=1e-10, atol=1e-13)

    def test_flow_slope_endpoints(self):
        trajectory = closed_form_scalar_trajectory("flow", flow_timesteps(4), 1.0)
        # first step sits at t=1 where the velocity slope is exactly 1
        assert float(trajectory.multipliers[0]) == pytest.approx(1.0 - 0.25, rel=1e-12)
        assert np.array_equal(trajectory.multipliers, trajectory.mean_multipliers)

    def test_euler_multiplier_by_hand(self):
        sigmas = karras_sigmas(3, 0.5, 2.0)
        trajectory = closed_form_scalar_trajectory("euler", sigmas, 1.1)
        sigma, sigma_next = float(sigmas.sigmas[0]), float(sigmas.sigmas[1])
        expected_first = 1.0 + (sigma_next - sigma) * 1.1 * sigma / (1.0 + sigma**2)
        assert float(trajectory.multipliers[0]) == pytest.approx(expected_first, rel=1e-12)
        assert np.array_equal(trajectory.mean_multipliers, trajectory.multipliers)

    def test_per_step_omega_is_one_value_per_step(self):
        timesteps = flow_timesteps(4)
        omega = np.array([0.9, 1.0, 1.1, 1.2])
        trajectory = closed_form_scalar_trajectory("flow", timesteps, omega)
        for k, w in enumerate(omega):
            assert trajectory.multipliers[k] == closed_form_scalar_trajectory("flow", timesteps, w).multipliers[k]
        unscaled = closed_form_scalar_trajectory("flow", timesteps, 1.0)
        assert np.array_equal(trajectory.mean_multipliers, unscaled.multipliers)
        for bad in (omega[:3], omega.reshape(2, 2), np.array([0.9, 1.0, 0.0, 1.1])):
            with pytest.raises(ValueError):
                closed_form_scalar_trajectory("flow", timesteps, bad)

    def test_unknown_kind(self):
        for kind, schedule in [
            ("heun", flow_timesteps(4)),
            ("euler", flow_timesteps(4)),
            ("flow", karras_sigmas(4)),
            ("euler", karras_sigmas(4, churn=0.5)),  # its noise is drawn, so no scalar follows it
        ]:
            with pytest.raises(ValueError):
                closed_form_scalar_trajectory(kind, schedule, 1.0)

    # From 10 steps on no step multiplier of these draws comes near 0. At 4
    # ddim steps the first one crosses 0 near omega = 1.06: the latent then
    # all but vanishes and both routes lose digits relative to its RMS.
    @given(
        kind=st.sampled_from(["ddim", "euler", "flow"]),
        steps=st.integers(10, 60),
        base=st.floats(0.8, 1.2),
        stages=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.8, 1.2), st.floats(0.8, 1.2)),
        shape=st.sampled_from([(16,), (5, 12), (64, 64)]),
        mean=st.floats(0.05, 2.0) | st.floats(-2.0, -0.05),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_sampler_for_every_kind(self, linear_bars, kind, steps, base, stages, shape, mean, seed):
        control, omega = OmegaControl(base=base), base
        if stages is not None:  # a two-stage omega, switching at a drawn fraction of the run
            switch, early, late = stages
            two_stage = omega_schedule("two_stage", steps, switch_step=round(switch * steps), early=early, late=late)
            control, omega = OmegaControl(base=base, schedule=two_stage), base * two_stage.values
        schedule = {"ddim": linear_bars, "euler": karras_sigmas(steps), "flow": flow_timesteps(steps)}[kind]
        z0 = np.random.default_rng(seed).standard_normal(shape) + mean
        cfg = SamplerConfig(kind, steps, schedule, control=control, snapshots=tuple(range(steps + 1)))
        stepped = linear_bars.subsample(steps) if kind == "ddim" else schedule
        states = closed_form_scalar_trajectory(kind, stepped, omega).reconstruct(z0)
        for state in run_sampler(standard_normal(), cfg, z0).states:
            closed = states[state.step]
            rms = math.sqrt(float(np.mean(closed**2)))
            # worst of 4,000 such draws: 1.1e-14 of the RMS
            assert float(np.max(np.abs(state.values - closed))) <= 1e-13 * rms


def full_plane_spectrum(image):
    """Per-bin power sums and cell counts over the whole complex FFT plane.

    The independent reference for the half-plane route: every cell of fft2
    is binned by its own radius, nothing is mirrored or weighted.
    """
    height, width = image.shape
    freq_y = np.fft.fftfreq(height) * height
    freq_x = np.fft.fftfreq(width) * width
    bins = np.rint(np.hypot(freq_y[:, None], freq_x[None, :])).astype(int).ravel()
    power = np.abs(np.fft.fft2(image)) ** 2 / image.size
    return np.bincount(bins, weights=power.ravel()), np.bincount(bins)


HALF_PLANE_SHAPES = ((4, 4), (7, 9), (9, 6), (6, 9), (255, 256), (256, 255), (256, 256))


class TestHalfPlaneSpectrum:
    @pytest.mark.parametrize("shape", HALF_PLANE_SHAPES)
    def test_bins_match_full_plane(self, shape):
        # one cell per mirror pair at most 64 eps of the total energy away;
        # the tolerance follows from the dtype, not from the observed error
        tolerance = 64.0 * np.finfo(np.float64).eps
        rng = np.random.default_rng(sum(shape))
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for offset in (0.0, 2.5):
                image = scale * (rng.standard_normal(shape) + offset)
                sums, counts = full_plane_spectrum(image)
                profile = radial_spectrum(image)
                assert profile.counts.dtype == counts.dtype
                assert np.array_equal(profile.counts, counts)
                energy = float(np.sum(image**2))
                deviation = np.abs(profile.mean_power * profile.counts - sums)
                assert float(deviation.max()) <= tolerance * energy

    @pytest.mark.parametrize("shape", HALF_PLANE_SHAPES)
    def test_cached_arrays_are_read_only(self, shape):
        for array in _radial_bins(*shape):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert radial_spectrum(np.ones(shape)).counts is _radial_bins(*shape)[2]


def rfft2_profile(image: np.ndarray) -> np.ndarray:
    """The mean power radial_spectrum formed with one np.fft.rfft2 call, its power as re^2 + im^2."""
    bins, weights, counts = _radial_bins(*image.shape)
    spectrum = np.fft.rfft2(image)
    power = spectrum.real**2 + spectrum.imag**2
    power /= image.size
    power *= weights
    sums = np.bincount(bins, weights=power.ravel())
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


class TestRadialSpectrum:
    @pytest.mark.parametrize("shape", [(256, 256), (7, 9), (64, 33), (9, 8), (4, 4)])
    def test_two_pass_transform_is_bitwise_rfft2(self, shape):
        rng = np.random.default_rng(sum(shape))
        signed_zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        sparse = np.where(rng.random(shape) < 0.3, rng.standard_normal(shape), signed_zeros)
        for image in (
            rng.standard_normal(shape),
            1e6 * (rng.standard_normal(shape) + 2.5),
            np.full(shape, -0.0),
            signed_zeros,
            sparse,
        ):
            profile = radial_spectrum(image)
            assert profile.mean_power.tobytes() == rfft2_profile(image).tobytes()

    def test_peak_memory(self):
        # numpy reports its buffers to tracemalloc: the 256x129 half-plane
        # spectrum is 0.5 MiB and its power 0.25 MiB
        image = np.random.default_rng(4).standard_normal((256, 256))
        radial_spectrum(image)  # fill the bin cache first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            radial_spectrum(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 0.85 * 2**20

    def test_constant_image_is_dc_only(self):
        profile = radial_spectrum(np.full((16, 16), 3.25))
        total = profile.total_power()
        assert band_energy(profile, "high") <= 1e-18 * total
        assert profile.mean_power[0] == pytest.approx(total, rel=1e-12)

    def test_pure_sinusoid_hits_single_bin(self):
        x = np.arange(32)
        image = np.cos(2.0 * np.pi * 5.0 * x / 32.0)[None, :] * np.ones((32, 1))
        profile = radial_spectrum(image)
        dominant = int(np.argmax(profile.mean_power[1:])) + 1
        assert dominant == 5
        others = np.delete(profile.mean_power, [5])
        assert float(others.max()) <= 1e-12 * float(profile.mean_power[5])

    def test_parseval_consistency(self):
        rng = np.random.default_rng(1)
        for shape in ((8, 8), (16, 24), (64, 64)):
            image = rng.standard_normal(shape)
            profile = radial_spectrum(image)
            energy = float(np.sum(image**2))
            assert profile.total_power() == pytest.approx(energy, rel=1e-9)

    def test_band_partition(self):
        image = np.random.default_rng(2).standard_normal((32, 32))
        profile = radial_spectrum(image)
        low, high = band_energy(profile, "low"), band_energy(profile, "high")
        assert low + high == pytest.approx(profile.total_power(), rel=1e-12)
        assert profile.split_radius == 8.0

    def test_white_noise_profile_is_flat(self):
        # complete annuli only: beyond the Nyquist radius an annulus keeps just
        # its corner fragment (a handful of samples), too few for a 100-seed mean
        rng_seeds = range(100)
        total = None
        for seed in rng_seeds:
            noise = np.random.default_rng(seed).standard_normal((64, 64))
            profile = radial_spectrum(noise)
            total = profile.mean_power if total is None else total + profile.mean_power
        averaged = total / 100.0
        nyquist = 32
        inside = averaged[: nyquist + 1]
        deviation = np.abs(inside - inside.mean()) / inside.mean()
        assert float(deviation.max()) <= 0.10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            radial_spectrum(np.zeros(16))
        with pytest.raises(ValueError):
            radial_spectrum(np.zeros((2, 8)))
        with pytest.raises(ValueError):
            band_energy(radial_spectrum(np.zeros((8, 8))), "mid")

    def test_custom_split_radius(self):
        image = np.random.default_rng(3).standard_normal((16, 16))
        base = radial_spectrum(image)
        profile = SpectrumProfile(base.mean_power, base.counts, 2.0)
        assert profile.split_radius == 2.0
        low = band_energy(profile, "low")
        assert low == pytest.approx(
            float(np.sum(profile.mean_power[:2] * profile.counts[:2])), rel=1e-12
        )


def mask_band_energy(profile, band: str) -> float:
    """A band's power by the boolean mask of the bin radii: the route band_energy's slice replaced."""
    radii = np.arange(profile.mean_power.size)
    selected = radii < profile.split_radius if band == "low" else radii >= profile.split_radius
    return float(np.sum(profile.mean_power[selected] * profile.counts[selected]))


class TestSplitRadius:
    @pytest.mark.parametrize("split", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, True, np.array(2.0)])
    def test_profile_refuses_a_split_that_is_no_positive_finite_number(self, split):
        profile = radial_spectrum(np.random.default_rng(5).standard_normal((8, 8)))
        with pytest.raises(ValueError, match="split_radius must be a positive finite number"):
            SpectrumProfile(profile.mean_power, profile.counts, split)

    def test_split_is_held_as_a_float(self):
        base = radial_spectrum(np.ones((8, 8)))
        profile = SpectrumProfile(base.mean_power, base.counts, np.float32(1.5))
        assert type(profile.split_radius) is float and profile.split_radius == 1.5
        assert type(SpectrumProfile(base.mean_power, base.counts, 3).split_radius) is float
        # a spectrum splits at a quarter of its shorter side
        assert radial_spectrum(np.ones((9, 7))).split_radius == 1.75

    @pytest.mark.parametrize("shape", [(16, 16), (9, 7), (256, 256)])
    def test_slice_equals_the_boolean_mask_bit_for_bit(self, shape):
        image = np.random.default_rng(sum(shape)).standard_normal(shape)
        base = radial_spectrum(image)
        bins = base.mean_power.size
        # integral, half-integral, below 1, at the last bin, beyond it, and near the edges
        splits = [1.0, 2.0, 3.5, 0.25, 0.5, 1e-300, float(bins - 1), bins - 0.5, float(bins), bins + 0.5, 1e300]
        splits += [np.nextafter(4.0, 0.0), np.nextafter(4.0, 5.0), 5e-324]
        for split in splits:
            profile = SpectrumProfile(base.mean_power, base.counts, split)
            for band in ("low", "high"):
                got, want = band_energy(profile, band), mask_band_energy(profile, band)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (split, band)
