import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits_equal
from omegance import (
    IDENTITY_CONTROL,
    GaussianFieldSpec,
    GaussianMixture,
    LatentState,
    NumericAbortError,
    OmegaControl,
    OmegaMask,
    SamplerConfig,
    SigmaSchedule,
    band_energy,
    ddim_step,
    ddim_step_reference,
    euler_step,
    euler_step_reference,
    flow_step,
    flow_step_reference,
    flow_timesteps,
    gaussian_field_2d,
    karras_sigmas,
    linear_beta_ladder,
    omega_schedule,
    radial_spectrum,
    reference_trajectory,
    run_sampler,
    standard_normal,
)
from omegance import samplers

RNG = np.random.default_rng(20240521)


class TestDdimStep:
    def test_unit_omega_is_bitwise_reference(self, linear_bars):
        z = RNG.standard_normal((8, 8))
        eps = RNG.standard_normal((8, 8))
        scaled = ddim_step(z, linear_bars, 700, eps, 1.0)
        reference = ddim_step_reference(z, linear_bars, 700, eps)
        assert bits_equal(scaled, reference)

    def test_zero_fixed_point(self, linear_bars):
        z = np.zeros((3, 3))
        out = ddim_step(z, linear_bars, 500, np.zeros((3, 3)), 0.9)
        assert np.all(out == 0.0)

    def test_affinity_in_omega(self, linear_bars):
        # z'(0.9) must equal z'(0) + 0.9 * (z'(1) - z'(0)); checked with an
        # explicit omega=0 evaluation of the update formula
        z = RNG.standard_normal((5, 5))
        eps = RNG.standard_normal((5, 5))
        t = 300
        ab_t = linear_bars.alpha_bar(t)
        ab_prev = linear_bars.alpha_bar(t - 1)
        at_zero = math.sqrt(ab_prev) * z / math.sqrt(ab_t)  # omega -> 0 limit of the step
        at_one = ddim_step(z, linear_bars, t, eps, 1.0)
        at_nine = ddim_step(z, linear_bars, t, eps, 0.9)
        assert np.allclose(at_nine, at_zero + 0.9 * (at_one - at_zero), rtol=1e-12, atol=1e-12)
        at_eleven = ddim_step(z, linear_bars, t, eps, 1.1)
        assert np.allclose(at_one, 0.5 * (at_nine + at_eleven), rtol=1e-12, atol=1e-12)

    def test_rejects_bad_omega_field(self, linear_bars):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError):
            ddim_step(z, linear_bars, 10, np.zeros((2, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            ddim_step(z, linear_bars, 10, np.zeros((2, 2)), -1.0)

    def test_rejects_step_zero(self, linear_bars):
        with pytest.raises(ValueError):
            ddim_step(np.zeros(2), linear_bars, 0, np.zeros(2), 1.0)


class TestEulerStep:
    def test_zero_prediction_is_identity(self):
        sig = karras_sigmas(4, 0.1, 8.0)
        z = RNG.standard_normal(10)
        assert np.array_equal(euler_step(z, sig, 1, np.zeros(10), 1.3), z)

    def test_churn_free_reduction(self):
        sig = karras_sigmas(4, 0.1, 8.0)
        z = RNG.standard_normal(10)
        eps = RNG.standard_normal(10)
        expected = z + (float(sig.sigmas[2]) - float(sig.sigmas[1])) * eps
        assert np.allclose(euler_step(z, sig, 1, eps, 1.0), expected, rtol=0, atol=0)

    def test_hand_churn_example(self):
        # sigma_hat = 2 * 1.5 = 3, update = (1 - 3) * 1 * 1.05 = -2.1
        sig = SigmaSchedule(np.array([2.0, 1.0, 0.0]), churn=0.5)
        z = np.array([4.0])
        out = euler_step(z, sig, 0, np.array([1.0]), 1.05)
        assert float(out[0]) == pytest.approx(4.0 - 2.1, rel=1e-12)

    def test_unit_omega_is_bitwise_reference(self):
        sig = karras_sigmas(6, 0.1, 8.0, churn=0.3)
        z = RNG.standard_normal((4, 4))
        eps = RNG.standard_normal((4, 4))
        assert bits_equal(euler_step(z, sig, 2, eps, 1.0), euler_step_reference(z, sig, 2, eps))

    def test_affinity_three_point_collinearity(self):
        sig = karras_sigmas(5, 0.1, 8.0)
        z = RNG.standard_normal((6, 6))
        eps = RNG.standard_normal((6, 6))
        lo = euler_step(z, sig, 2, eps, 0.9)
        mid = euler_step(z, sig, 2, eps, 1.0)
        hi = euler_step(z, sig, 2, eps, 1.1)
        assert np.allclose(mid, 0.5 * (lo + hi), rtol=1e-12, atol=1e-12)

    def test_index_out_of_range(self):
        sig = karras_sigmas(3, 0.1, 8.0)
        with pytest.raises(ValueError):
            euler_step(np.zeros(2), sig, 3, np.zeros(2), 1.0)


class TestFlowStep:
    def test_unit_omega_is_bitwise_plain_update(self):
        z = RNG.standard_normal((8, 8))
        v = RNG.standard_normal((8, 8))
        assert bits_equal(flow_step(z, -0.02, v, 1.0), flow_step_reference(z, -0.02, v))

    def test_constant_velocity_is_omega_invariant(self):
        # power-of-two cell count keeps the mean of identical values exact
        z = RNG.standard_normal((4, 4))
        v = np.full((4, 4), 1.7)
        plain = flow_step_reference(z, -0.1, v)
        for omega in (0.8, 1.0, 1.2):
            assert np.array_equal(flow_step(z, -0.1, v, omega), plain)

    def test_hand_example(self):
        z = np.zeros(2)
        out = flow_step(z, -0.02, np.array([1.0, -1.0]), 1.1)
        assert np.allclose(out, [-0.022, 0.022], rtol=1e-12)

    @given(
        omega=st.floats(0.5, 1.5),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(deadline=None, max_examples=50)
    def test_mean_preservation(self, omega, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((16, 16))
        v = rng.standard_normal((16, 16))
        scaled_mean = float(np.mean(flow_step(z, -0.02, v, omega)))
        plain_mean = float(np.mean(flow_step(z, -0.02, v, 1.0)))
        assert abs(scaled_mean - plain_mean) <= 1e-12

    def test_affinity_three_point_collinearity(self):
        z = RNG.standard_normal((6, 6))
        v = RNG.standard_normal((6, 6))
        lo = flow_step(z, -0.05, v, 0.9)
        mid = flow_step(z, -0.05, v, 1.0)
        hi = flow_step(z, -0.05, v, 1.1)
        assert np.allclose(mid, 0.5 * (lo + hi), rtol=1e-12, atol=1e-12)

    def test_rejects_bad_dt_and_empty(self):
        with pytest.raises(ValueError):
            flow_step(np.zeros(2), 0.0, np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            flow_step(np.zeros((0,)), -0.1, np.zeros((0,)), 1.0)


def expression_ddim(z, schedule, t, eps_pred, omega):
    """The scaled kernels as plain expressions, one fresh array per operation."""
    ab_t = schedule.alpha_bar(t)
    ab_prev = schedule.alpha_bar(t - 1)
    scaled = eps_pred * omega
    delta = math.sqrt(ab_prev) / math.sqrt(ab_t)
    return delta * (z - math.sqrt(1.0 - ab_t) * scaled) + math.sqrt(1.0 - ab_prev) * scaled


def expression_euler(z, schedule, i, eps_pred, omega):
    return z + (float(schedule.sigmas[i + 1]) - schedule.sigma_hat(i)) * (eps_pred * omega)


def expression_flow(z, dt, v_pred, omega):
    update = dt * v_pred
    if np.all(omega == 1.0):
        return z + update
    m = float(np.mean(update))
    return z + ((update - m) * omega + m)


def kernel_inputs(shape):
    """A latent and a prediction with signed zeros, tiny and large cells among normal ones.

    The large cells stay small enough that the flow update's mean does not
    swamp the latent, so an operation order that rounds differently shows.
    """
    z = RNG.standard_normal(shape)
    pred = RNG.standard_normal(shape)
    flat_z, flat_pred = z.reshape(-1), pred.reshape(-1)
    flat_z[:6] = [0.0, -0.0, 0.0, -0.0, 1e-300, -250.0]
    flat_pred[:6] = [0.0, 0.0, -0.0, -0.0, -1e-300, 40.0]
    return z, pred


@pytest.mark.parametrize("omega_kind", ["scalar", "field", "one"])
@pytest.mark.parametrize("shape", [(7,), (9, 13)])
def test_scaled_kernels_match_their_expressions_and_keep_inputs(linear_bars, omega_kind, shape):
    # the kernels build their result in place; every bit must equal the plain
    # expressions, and z, the prediction and the omega field stay as they were
    z, pred = kernel_inputs(shape)
    omega = {"scalar": 1.05, "field": RNG.uniform(0.9, 1.1, shape), "one": 1.0}[omega_kind]
    sig = karras_sigmas(6, 0.1, 8.0, churn=0.3)
    cases = [
        (ddim_step, expression_ddim, (linear_bars, 700)),
        (euler_step, expression_euler, (sig, 2)),
        (flow_step, expression_flow, (-0.02,)),
    ]
    for kernel, expression, args in cases:
        inputs = [z, pred] + ([omega] if omega_kind == "field" else [])
        kept = [array.copy() for array in inputs]
        actual, expected = kernel(z, *args, pred, omega), expression(z, *args, pred, omega)
        assert bits_equal(actual, expected), kernel.__name__
        for array, copy in zip(inputs, kept):
            assert bits_equal(array, copy), kernel.__name__
            assert not np.shares_memory(actual, array)


def test_folded_ddim_step_within_rounding_of_the_predicted_z0_form(linear_bars):
    # the kernel multiplies by delta = sqrt(abar_prev) / sqrt(abar_t) once; the
    # textbook form divides by sqrt(abar_t) into the predicted z0, then
    # multiplies by sqrt(abar_prev). Over the whole ladder and an omega grid
    # they differ by at most 4.2e-16 of each cell's term scale with these
    # inputs (4.4e-16 over 4,096 normal draws); the bound is 1e-15
    z, pred = kernel_inputs((257,))
    z *= 3.0
    for t in range(1, linear_bars.num_steps + 1):
        ab_t, ab_prev = linear_bars.alpha_bar(t), linear_bars.alpha_bar(t - 1)
        for omega in (0.5, 0.9, 1.0, 1.1, 2.0, RNG.uniform(0.5, 2.0, z.shape)):
            scaled = pred * omega
            noise = math.sqrt(1.0 - ab_t) * scaled
            predicted_z0 = (z - noise) / math.sqrt(ab_t)
            expected = math.sqrt(ab_prev) * predicted_z0 + math.sqrt(1.0 - ab_prev) * scaled
            delta = math.sqrt(ab_prev) / math.sqrt(ab_t)
            scale = delta * (np.abs(z) + np.abs(noise)) + math.sqrt(1.0 - ab_prev) * np.abs(scaled)
            actual = ddim_step(z, linear_bars, t, pred, omega)
            assert np.all(np.abs(actual - expected) <= 1e-15 * scale), t


# each sampler kind's schedule builder, called with a step count
SCHEDULE_BUILDERS = {
    "ddim": lambda n: linear_beta_ladder(n, 1e-4, 0.02),
    "euler": karras_sigmas,
    "flow": flow_timesteps,
}
# (kind, schedule kind, steps, schedule steps) for every other kind's schedule
# and for every step count its own schedule does not fit: ddim may take fewer
# steps than its ladder has, euler and flow take exactly theirs
MISMATCHES = [(kind, other, 10, 10) for kind in SCHEDULE_BUILDERS for other in SCHEDULE_BUILDERS if other != kind]
MISMATCHES += [("ddim", "ddim", 11, 10), ("euler", "euler", 9, 10), ("euler", "euler", 11, 10)]
MISMATCHES += [("flow", "flow", 9, 10), ("flow", "flow", 11, 10)]


class TestSamplerConfig:
    @pytest.mark.parametrize("kind, schedule_kind, steps, schedule_steps", MISMATCHES)
    def test_kind_schedule_agreement(self, kind, schedule_kind, steps, schedule_steps):
        schedule = SCHEDULE_BUILDERS[schedule_kind](schedule_steps)
        with pytest.raises(ValueError, match="requires" if kind != schedule_kind else "do not fit"):
            SamplerConfig(kind, steps, schedule)
        assert SamplerConfig(schedule_kind, schedule_steps, schedule).steps == schedule_steps
        with pytest.raises(ValueError, match="kind must be one of"):
            SamplerConfig("heun", steps, schedule)

    def test_snapshot_bounds(self, linear_bars):
        with pytest.raises(ValueError):
            SamplerConfig("ddim", 10, linear_bars, snapshots=(11,))
        cfg = SamplerConfig("ddim", 10, linear_bars, snapshots=(5, 0, 5, 10))
        assert cfg.snapshots == (0, 5, 10)

    @pytest.mark.parametrize("snapshots", [(2.7,), (True,), (1, 2.0), (np.float64(2.0),), ("2",)])
    def test_snapshot_steps_must_be_integers(self, snapshots):
        # int() would truncate 2.7 to 2 and take True for step 1
        with pytest.raises(ValueError, match="integers"):
            SamplerConfig("flow", 4, flow_timesteps(4), snapshots=snapshots)
        assert SamplerConfig("flow", 4, flow_timesteps(4), snapshots=(np.int64(2), 1)).snapshots == (1, 2)

    def test_steps_must_be_an_integer_not_a_bool(self, linear_bars):
        with pytest.raises(ValueError, match="steps must be an integer"):
            SamplerConfig("flow", True, flow_timesteps(1))
        with pytest.raises(ValueError, match="steps must be an integer"):
            SamplerConfig("ddim", 2.0, linear_bars)
        assert SamplerConfig("ddim", np.int64(2), linear_bars).steps == 2

    def test_control_schedule_length_must_match(self, linear_bars):
        control = OmegaControl(schedule=omega_schedule("constant", 20, omega=1.0))
        with pytest.raises(ValueError):
            SamplerConfig("ddim", 10, linear_bars, control=control)


KERNELS = {
    "ddim": ("ddim_step", "ddim_step_reference"),
    "euler": ("euler_step", "euler_step_reference"),
    "flow": ("flow_step", "flow_step_reference"),
}


def driver_config(kind, linear_bars, steps, **kwargs):
    """A ``kind`` run of ``steps`` steps; the euler run uses churn."""
    schedule = {
        "ddim": linear_bars,
        "euler": karras_sigmas(steps, 0.1, 8.0, churn=0.4),
        "flow": flow_timesteps(steps),
    }[kind]
    return SamplerConfig(kind, steps, schedule, seed=3, **kwargs)


@pytest.mark.parametrize("kind", sorted(KERNELS))
class TestTrajectoryDriver:
    def test_kernels_called_by_module_name(self, kind, linear_bars, monkeypatch):
        # span tracing rebinds these names in omegance.samplers, so the driver
        # must look every kernel up there at call time
        calls = {name: 0 for pair in KERNELS.values() for name in pair}
        for name in calls:

            def counted(*args, _name=name, _kernel=getattr(samplers, name), **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(samplers, name, counted)
        cfg = driver_config(kind, linear_bars, 7)
        z0 = np.random.default_rng(4).standard_normal((8, 8))
        scaled, reference = KERNELS[kind]
        run_sampler(standard_normal(), cfg, z0)
        assert calls == {**dict.fromkeys(calls, 0), scaled: 7}
        calls.update(dict.fromkeys(calls, 0))
        reference_trajectory(standard_normal(), cfg, z0)
        assert calls == {**dict.fromkeys(calls, 0), reference: 7}

    def test_reference_ignores_the_control(self, kind, linear_bars):
        steps = 12
        grid = np.linspace(0.9, 1.1, 64).reshape(8, 8)
        schedule = omega_schedule("two_stage", steps, switch_step=4, early=0.95, late=1.02)
        control = OmegaControl(base=0.97, mask=OmegaMask(grid), schedule=schedule)
        mixture = GaussianMixture(np.array([0.4, 0.6]), np.array([-1.0, 1.5]), np.array([0.5, 0.8]))
        z0 = np.random.default_rng(5).standard_normal((8, 8))
        snapshots = (0, 4, 12)
        controlled = reference_trajectory(
            mixture, driver_config(kind, linear_bars, steps, control=control, snapshots=snapshots), z0
        )
        identity = reference_trajectory(
            mixture, driver_config(kind, linear_bars, steps, control=IDENTITY_CONTROL, snapshots=snapshots), z0
        )
        assert [state.step for state in controlled.states] == list(snapshots)
        for a, b in zip(controlled.states + (controlled.final,), identity.states + (identity.final,)):
            assert a.step == b.step
            assert bits_equal(a.values, b.values)
        scaled = run_sampler(
            mixture, driver_config(kind, linear_bars, steps, control=control, snapshots=snapshots), z0
        )
        assert not bits_equal(scaled.final.values, controlled.final.values)

    def test_sink_gets_the_collected_states_in_step_order(self, kind, linear_bars):
        cfg = driver_config(kind, linear_bars, 9, snapshots=(0, 3, 4, 9))
        mixture = GaussianMixture(np.array([0.4, 0.6]), np.array([-1.0, 1.5]), np.array([0.5, 0.8]))
        z0 = np.random.default_rng(6).standard_normal((8, 8))
        collected = run_sampler(mixture, cfg, z0)
        seen = []
        streamed = run_sampler(mixture, cfg, z0, on_snapshot=seen.append)
        assert streamed.states == ()
        assert [state.step for state in seen] == [0, 3, 4, 9]
        for a, b in zip(seen, collected.states + (collected.final,)):
            assert a.step == b.step
            assert bits_equal(a.values, b.values)
        assert streamed.final.step == collected.final.step
        assert bits_equal(streamed.final.values, collected.final.values)

    def test_sink_states_do_not_alias_the_live_latent(self, kind, linear_bars):
        class Recording:
            def __init__(self):
                self.inputs = []

            def epsilon_predict(self, z, **levels):
                self.inputs.append(z)
                return standard_normal().epsilon_predict(z, **levels)

            def velocity_predict(self, z, t):
                self.inputs.append(z)
                return standard_normal().velocity_predict(z, t)

        cfg = driver_config(kind, linear_bars, 6, snapshots=tuple(range(7)))
        z0 = np.random.default_rng(7).standard_normal((8, 8))
        denoiser = Recording()
        kept = []

        def scribble(state):
            kept.append(state.values)
            state.values.fill(np.nan)  # the run must not see this

        streamed = run_sampler(denoiser, cfg, z0, on_snapshot=scribble)
        assert len(kept) == 7
        for values in kept:
            assert not np.shares_memory(values, z0)
            assert not np.shares_memory(values, streamed.final.values)
            assert not any(np.shares_memory(values, z) for z in denoiser.inputs)
        assert bits_equal(streamed.final.values, run_sampler(standard_normal(), cfg, z0).final.values)

    def test_sink_exception_propagates_unchanged(self, kind, linear_bars):
        class Stop(Exception):
            pass

        raised = Stop("enough")

        def sink(state):
            if state.step == 4:
                raise raised

        cfg = driver_config(kind, linear_bars, 9, snapshots=(0, 4, 9))
        with pytest.raises(Stop) as info:
            run_sampler(standard_normal(), cfg, np.ones((4, 4)), on_snapshot=sink)
        assert info.value is raised

    def test_sink_warnings_are_not_silenced(self, kind, linear_bars):
        # the loop ignores overflow only around its own steps
        def overflowing(state):
            np.exp(np.abs(state.values) + 1000.0)

        cfg = driver_config(kind, linear_bars, 5, snapshots=(5,))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                run_sampler(standard_normal(), cfg, np.ones((4, 4)), on_snapshot=overflowing)


class TestRunSampler:
    def test_spectrum_sink_run_peak_memory(self):
        # numpy reports its buffers to tracemalloc. Beside its own latent and a
        # snapshot copy the loop holds no prediction past its step, so a run
        # that reduces every snapshot to a spectrum peaks below four latents.
        z0 = gaussian_field_2d(GaussianFieldSpec(256, 256, -1.0), 0)
        cfg = SamplerConfig("flow", 50, flow_timesteps(50), snapshots=tuple(range(2, 51, 2)))

        def reduce(state):
            profile = radial_spectrum(state.values)
            band_energy(profile, "low")
            band_energy(profile, "high")

        run_sampler(standard_normal(), cfg, z0, on_snapshot=reduce)  # fill the bin cache first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_sampler(standard_normal(), cfg, z0, on_snapshot=reduce)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3.75 * z0.nbytes

    def test_identity_control_matches_reference_loop(self, linear_bars):
        gm = standard_normal()
        cfg = SamplerConfig("ddim", 25, linear_bars, snapshots=tuple(range(26)))
        z0 = RNG.standard_normal((8, 8))
        scaled = run_sampler(gm, cfg, z0)
        reference = reference_trajectory(gm, cfg, z0)
        assert len(scaled.states) == 26
        for a, b in zip(scaled.states, reference.states):
            assert a.step == b.step
            assert bits_equal(a.values, b.values)
        assert bits_equal(scaled.final.values, reference.final.values)

    def test_scalar_base_equals_constant_schedule(self, linear_bars):
        gm = standard_normal()
        z0 = RNG.standard_normal((4, 4))
        by_base = run_sampler(
            gm, SamplerConfig("ddim", 10, linear_bars, control=OmegaControl(base=0.93)), z0
        )
        by_schedule = run_sampler(
            gm,
            SamplerConfig(
                "ddim", 10, linear_bars, control=OmegaControl(schedule=omega_schedule("constant", 10, omega=0.93))
            ),
            z0,
        )
        assert bits_equal(by_base.final.values, by_schedule.final.values)

    def test_all_ones_mask_matches_unmasked_run(self, linear_bars):
        gm = standard_normal()
        z0 = RNG.standard_normal((8, 8))
        schedules = {
            "ddim": linear_bars,
            "euler": karras_sigmas(20, 0.1, 8.0),
            "flow": flow_timesteps(20),
        }
        for kind, schedule in schedules.items():
            masked = run_sampler(
                gm,
                SamplerConfig(
                    kind, 20, schedule, control=OmegaControl(mask=OmegaMask(np.ones((8, 8))))
                ),
                z0,
            )
            plain = run_sampler(gm, SamplerConfig(kind, 20, schedule), z0)
            assert bits_equal(masked.final.values, plain.final.values)

    def test_mask_locality_half_plane(self, linear_bars):
        from omegance import GaussianMixture

        mixture = GaussianMixture(
            np.array([0.5, 0.5]), np.array([-1.5, 1.5]), np.array([0.5, 0.5])
        )
        grid = np.ones((8, 8))
        grid[:, :4] = 0.9
        z0 = RNG.standard_normal((8, 8))
        snapshots = tuple(range(13))
        masked = run_sampler(
            mixture,
            SamplerConfig(
                "ddim", 12, linear_bars, control=OmegaControl(mask=OmegaMask(grid)), snapshots=snapshots
            ),
            z0,
        )
        plain = run_sampler(
            mixture, SamplerConfig("ddim", 12, linear_bars, snapshots=snapshots), z0
        )
        for a, b in zip(masked.states, plain.states):
            assert bits_equal(a.values[:, 4:], b.values[:, 4:])
        assert np.any(masked.final.values[:, :4] != plain.final.values[:, :4])

    def test_schedule_and_mask_compose_per_step(self, linear_bars):
        # hand-rolled loop with explicitly assembled per-step fields must
        # reproduce the runner's composition bit for bit
        gm = standard_normal()
        steps = 12
        grid = np.linspace(0.9, 1.1, 64).reshape(8, 8)
        schedule = omega_schedule("two_stage", steps, switch_step=4, early=0.95, late=1.02)
        control = OmegaControl(base=1.01, mask=OmegaMask(grid), schedule=schedule)
        z0 = RNG.standard_normal((8, 8))

        ran = run_sampler(
            gm, SamplerConfig("ddim", steps, linear_bars, control=control), z0
        )

        ladder = linear_bars.subsample(steps)
        z = z0.copy()
        for k in range(steps):
            stage = 0.95 if k < 4 else 1.02
            field = grid * (1.01 * stage)
            t = steps - k
            eps = gm.epsilon_predict(z, alpha_bar=ladder.alpha_bar(t))
            z = ddim_step(z, ladder, t, eps, field)
        assert bits_equal(ran.final.values, z)

    def test_euler_churn_is_seed_deterministic(self):
        gm = standard_normal()
        sig = karras_sigmas(15, 0.1, 8.0, churn=0.4)
        z0 = RNG.standard_normal((6, 6)) * float(sig.sigmas[0])
        cfg = SamplerConfig("euler", 15, sig, seed=5)
        first = run_sampler(gm, cfg, z0)
        second = run_sampler(gm, cfg, z0)
        assert bits_equal(first.final.values, second.final.values)
        other_seed = run_sampler(gm, SamplerConfig("euler", 15, sig, seed=6), z0)
        assert not bits_equal(first.final.values, other_seed.final.values)

    def test_flow_run_and_latent_state_input(self):
        gm = standard_normal()
        cfg = SamplerConfig("flow", 10, flow_timesteps(10), snapshots=(0, 10))
        z0 = RNG.standard_normal((4, 4))
        out = run_sampler(gm, cfg, LatentState(z0))
        assert out.states[0].step == 0
        assert out.final.step == 10
        assert np.array_equal(out.states[0].values, z0)

    def test_capability_mismatch(self, linear_bars):
        class EpsilonOnly:
            def epsilon_predict(self, z, *, alpha_bar=None, sigma=None):
                return np.zeros_like(z)

        with pytest.raises(TypeError):
            run_sampler(EpsilonOnly(), SamplerConfig("flow", 4, flow_timesteps(4)), np.zeros(4))
        with pytest.raises(TypeError):
            run_sampler(object(), SamplerConfig("ddim", 4, linear_bars), np.zeros(4))

    def test_non_finite_initial_state_aborts(self, linear_bars):
        gm = standard_normal()
        bad = np.array([1.0, np.nan])
        with pytest.raises(NumericAbortError) as err:
            run_sampler(gm, SamplerConfig("ddim", 4, linear_bars), bad)
        assert err.value.step == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_mid_run_abort_reports_step(self, linear_bars):
        class Explodes:
            def __init__(self):
                self.calls = 0

            def epsilon_predict(self, z, *, alpha_bar=None, sigma=None):
                self.calls += 1
                if self.calls == 3:
                    return np.full_like(z, 1e308)
                return np.zeros_like(z)

        with pytest.raises(NumericAbortError) as err:
            run_sampler(Explodes(), SamplerConfig("ddim", 10, linear_bars), np.ones(4))
        assert err.value.step == 3

    @pytest.mark.parametrize("kind", ["ddim", "euler", "flow"])
    def test_prediction_shape_checked(self, kind):
        # the step kernel's operand check is the only one the loop makes
        class WrongShape:
            def epsilon_predict(self, z, *, alpha_bar=None, sigma=None):
                return np.zeros(z.size + 1)

            def velocity_predict(self, z, t):
                return np.zeros(z.size + 1)

        config = SamplerConfig(kind, 4, SCHEDULE_BUILDERS[kind](4))
        for run in (run_sampler, reference_trajectory):
            with pytest.raises(ValueError, match=r"_pred shape \(5,\) does not match latent shape \(4,\)"):
                run(WrongShape(), config, np.zeros(4))

    def test_variance_scaling_of_scaled_noise(self):
        # scaling a unit-normal draw by omega leaves the mean at 0 and moves
        # the variance to omega^2 (smaller Monte Carlo twin of the acceptance run)
        draws = np.random.default_rng(77).standard_normal(200000)
        for omega in (0.9, 1.1):
            scaled = omega * draws
            assert abs(float(scaled.mean())) < 0.01
            assert abs(float(scaled.var()) - omega**2) < 0.01
