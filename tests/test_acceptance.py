"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces both the stated tolerance and the stated runtime budget.
"""

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from conftest import bits_equal
from omegance import (
    GaussianMixture,
    OmegaControl,
    OmegaMask,
    SamplerConfig,
    band_energy,
    closed_form_scalar_trajectory,
    flow_step,
    flow_timesteps,
    karras_sigmas,
    linear_beta_ladder,
    modified_snr_ddim,
    propagate_coefficients_ddim,
    radial_spectrum,
    reference_trajectory,
    rescale,
    run_sampler,
    standard_normal,
)
from omegance.cli import main


@contextmanager
def criterion(number, description, budget_s):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s < {budget_s}s)")


@pytest.fixture(scope="module")
def bars():
    return linear_beta_ladder(1000, 1e-4, 0.02)


def test_criterion_1_identity_recovery(bars):
    """omega = 1 trajectories are bitwise identical to the reference sampler."""
    with criterion(1, "identity recovery, 3 samplers x 100 inputs x 50 steps", 5.0):
        gm = standard_normal()
        schedules = {
            "ddim": bars,
            "euler": karras_sigmas(50, 0.0292, 14.6146),
            "flow": flow_timesteps(50),
        }
        rng = np.random.default_rng(1)
        for kind, schedule in schedules.items():
            cfg = SamplerConfig(kind, 50, schedule, snapshots=tuple(range(51)))
            for _ in range(100):
                z0 = rng.standard_normal((8, 8))
                scaled = run_sampler(gm, cfg, z0)
                reference = reference_trajectory(gm, cfg, z0)
                assert bits_equal(scaled.final.values, reference.final.values)
                for a, b in zip(scaled.states, reference.states):
                    assert a.step == b.step and bits_equal(a.values, b.values)


def test_criterion_2_modified_snr_against_coefficients(bars):
    """|A^2/B^2 - bracket form| <= 1e-9 relative over all steps and omegas.

    Steps run over t = 2..1000: the t = 1 step references the exact
    pre-corruption anchor, where the omega = 1 ratio has no finite value.
    """
    with criterion(2, "coefficient route matches bracket form to 1e-9", 1.0):
        for omega in (0.8, 0.9, 1.0, 1.1, 1.2):
            bracket = modified_snr_ddim(bars, omega)
            ratio = propagate_coefficients_ddim(bars, omega)
            assert bracket.shape == ratio.shape == (999,)
            assert np.all(np.abs(ratio - bracket) <= 1e-9 * bracket)


def test_criterion_3_snr_monotone_in_omega(bars):
    """Post-step SNR strictly increases over a 20-point omega grid in [0.8, 1.2]."""
    with criterion(3, "modified SNR strictly increasing in omega", 1.0):
        grid = np.linspace(0.8, 1.2, 20)
        values = np.array([modified_snr_ddim(bars, float(w)) for w in grid])  # one row per omega, t = 2..1000
        assert values.shape == (20, 999)
        assert np.all(np.diff(values, axis=0) > 0.0)


def test_criterion_4_negative_swing_lemma():
    """sqrt(abar_t)sqrt(1-abar_prev) - sqrt(abar_prev)sqrt(1-abar_t) < 0 everywhere."""
    with criterion(4, "swing term negative across 5 schedule parameterisations", 1.0):
        parameterisations = [
            (1000, 1e-4, 0.02),
            (500, 1e-4, 0.02),
            (1000, 5e-5, 0.01),
            (100, 1e-3, 0.05),
            (50, 0.01, 0.01),
        ]
        for num_steps, start, end in parameterisations:
            ladder = linear_beta_ladder(num_steps, start, end).alpha_bars
            prev, cur = ladder[:-1], ladder[1:]
            swing = np.sqrt(cur) * np.sqrt(1.0 - prev) - np.sqrt(prev) * np.sqrt(1.0 - cur)
            assert np.all(swing < 0.0)


def test_criterion_5_variance_scaling():
    """Scaling unit-normal draws by omega moves the variance to omega^2, mean stays 0."""
    with criterion(5, "variance of omega*eps within 5e-3 of omega^2 over 1e6 draws", 5.0):
        draws = np.random.default_rng(2024).standard_normal(10**6)
        for omega in (0.9, 1.0, 1.1):
            scaled = omega * draws
            assert abs(float(scaled.var()) - omega**2) <= 5e-3
            assert abs(float(scaled.mean())) <= 4e-3


def test_criterion_6_flow_mean_preservation():
    """Every scaled flow update has the same mean as the unscaled one, to 1e-12."""
    with criterion(6, "flow update mean preserved to 1e-12 over 50 steps", 5.0):
        gm = standard_normal()
        timesteps = flow_timesteps(50)
        for omega in (0.8, 1.2):
            z = np.random.default_rng(5).standard_normal((64, 64))
            for k in range(50):
                v = gm.velocity_predict(z, float(timesteps.times[k]))
                dt = timesteps.dt(k)
                scaled_mean = float(np.mean(flow_step(z, dt, v, omega) - z))
                plain_mean = float(np.mean(flow_step(z, dt, v, 1.0) - z))
                assert abs(scaled_mean - plain_mean) <= 1e-12
                z = flow_step(z, dt, v, omega)


def test_criterion_7_closed_form_equivalence(bars):
    """Unit-normal-oracle trajectories match the scalar recursions to 1e-10 relative."""
    with criterion(7, "closed-form scalar recursions match sampled trajectories", 10.0):
        gm = standard_normal()
        z0 = np.random.default_rng(123).standard_normal((64, 64))
        for steps in (10, 50, 200):
            snapshots = tuple(range(steps + 1))
            # (sampler schedule, ladder stepped): ddim walks `steps` rungs of the
            # 1000-step ladder, euler (without churn) and flow every level
            routes = {
                "ddim": (bars, bars.subsample(steps)),
                "euler": (karras_sigmas(steps),) * 2,
                "flow": (flow_timesteps(steps),) * 2,
            }
            for kind, (schedule, stepped) in routes.items():
                for omega in (0.9, 1.0, 1.1):
                    cfg = SamplerConfig(
                        kind, steps, schedule, control=OmegaControl(base=omega), snapshots=snapshots
                    )
                    states = closed_form_scalar_trajectory(kind, stepped, omega).reconstruct(z0)
                    for state in run_sampler(gm, cfg, z0).states:
                        rel = np.abs(state.values - states[state.step]) / np.abs(states[state.step])
                        assert float(rel.max()) <= 1e-10


def test_criterion_8_mask_locality(bars):
    """Cells under mask value 1 are bitwise equal to the unmasked run, every step."""
    with criterion(8, "half-plane mask leaves the omega=1 half bitwise untouched", 5.0):
        mixture = GaussianMixture(
            np.array([0.5, 0.5]), np.array([-1.5, 1.5]), np.array([0.5, 0.5])
        )
        grid = np.ones((16, 16))
        grid[:, :8] = 0.9
        z0 = np.random.default_rng(11).standard_normal((16, 16))
        snapshots = tuple(range(51))
        masked = run_sampler(
            mixture,
            SamplerConfig(
                "ddim", 50, bars, control=OmegaControl(mask=OmegaMask(grid)), snapshots=snapshots
            ),
            z0,
        )
        plain = run_sampler(mixture, SamplerConfig("ddim", 50, bars, snapshots=snapshots), z0)
        for a, b in zip(masked.states, plain.states):
            assert bits_equal(a.values[:, 8:], b.values[:, 8:])
        assert np.any(masked.final.values[:, :8] != plain.final.values[:, :8])


def test_criterion_9_spectrum_ordering(bars):
    """Paired seeds: high-band energy ordered E(0.95) > E(1.0) > E(1.05); decay monotone."""
    with criterion(9, "high-band ordering and late-stage monotone decay, 20 seeds", 60.0):
        gm = standard_normal()
        omegas = (0.95, 1.0, 1.05)
        steps = 50
        snapshots = tuple(range(steps + 1))
        totals = {omega: np.zeros(steps + 1) for omega in omegas}
        for seed in range(20):
            z0 = np.random.default_rng(seed).standard_normal((64, 64))
            for omega in omegas:
                cfg = SamplerConfig(
                    "ddim", steps, bars, control=OmegaControl(base=omega), snapshots=snapshots
                )
                trajectory = run_sampler(gm, cfg, z0)
                for state in trajectory.states:
                    profile = radial_spectrum(state.values)
                    totals[omega][state.step] += band_energy(profile, "high")
        averaged = {omega: totals[omega] / 20.0 for omega in omegas}
        final = {omega: averaged[omega][-1] for omega in omegas}
        assert final[0.95] > final[1.0] > final[1.05]
        late = averaged[1.0][steps - int(0.8 * steps) :]
        assert np.all(np.diff(late) < 0.0)


def test_criterion_10_rescale_contract():
    """R(0) = 1 exactly; monotone and strictly inside (0.95, 1.05) on [-10, 10]."""
    with criterion(10, "rescale midpoint, monotonicity and bounds", 1.0):
        assert rescale(0.0) == 1.0
        grid = np.linspace(-10.0, 10.0, 1000)
        values = np.array([rescale(float(v)) for v in grid])
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values > 0.95)
        assert np.all(values < 1.05)


def test_criterion_11_cli_determinism(tmp_path):
    """Re-running a config with the same seeds reproduces identical checksums."""
    with criterion(11, "repeated CLI runs write identical artifact checksums", 30.0):
        config = {
            "sampler": {
                "kind": "ddim",
                "steps": 10,
                "schedule": {"num_steps": 100},
                "snapshots": [0, 5, 10],
            },
            "omega": {"values": [0.95, 1.05]},
            "oracle": {"kind": "standard_normal"},
            "latent": {"shape": [16, 16]},
            "seeds": [0, 1],
            "output_dir": str(tmp_path / "unused"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        manifests = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["sample", "--config", str(config_path), "--out", str(out)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"]
        assert len(manifests[0]["artifacts"]) == 2 * 2 * 4
