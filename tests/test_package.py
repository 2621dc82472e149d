import omegance

# every name the package exports; a name added to or dropped from the
# public surface has to be added to or dropped from this list as well.
# Submodules are reached as attributes (omegance.formats) but not exported.
PUBLIC_NAMES = [
    "AlphaBarSchedule",
    "BetaSchedule",
    "ConfigError",
    "DEFAULT_RESCALE",
    "Denoiser",
    "ExperimentConfig",
    "FlowTimesteps",
    "GaussianFieldSpec",
    "GaussianMixture",
    "IDENTITY_CONTROL",
    "LatentState",
    "NumericAbortError",
    "OmegaControl",
    "OmegaMask",
    "OmegaSchedule",
    "RescaleParams",
    "SamplerConfig",
    "ScalarTrajectory",
    "SigmaSchedule",
    "SignalDivergenceError",
    "SpectrumProfile",
    "Trajectory",
    "alpha_bar_from_betas",
    "band_energy",
    "closed_form_scalar_trajectory",
    "ddim_step",
    "ddim_step_reference",
    "euler_step",
    "euler_step_reference",
    "flow_step",
    "flow_step_reference",
    "flow_timesteps",
    "gaussian_field_2d",
    "karras_sigmas",
    "load_config",
    "make_linear_beta",
    "mask_from_grayscale",
    "mask_to_grayscale",
    "modified_snr_ddim",
    "omega_schedule",
    "parse_config",
    "propagate_coefficients_ddim",
    "radial_spectrum",
    "reference_trajectory",
    "rescale",
    "run_sampler",
    "snr",
    "standard_normal",
]


def test_public_surface_is_pinned():
    assert sorted(omegance.__all__) == PUBLIC_NAMES
    assert [name for name in omegance.__all__ if not hasattr(omegance, name)] == []

