"""Omegance: a verification lab for single-parameter granularity control.

One positive scalar, omega, multiplies the noise-prediction term of each
reverse-diffusion step. Values below 1 leave more residual high-frequency
content (finer detail); values above 1 remove more of it (smoother output).
The package provides omega-scaled deterministic, variance-exploding and
flow-matching samplers, spatial omega masks and temporal omega schedules,
closed-form Gaussian-mixture oracle denoisers standing in for trained
networks, and an analysis suite that verifies the scaling's SNR, variance,
mean-preservation and frequency-spectrum behaviour against independent
arithmetic routes.
"""

__version__ = "0.1.0"

from .analysis import (
    CoefficientState,
    ScalarTrajectory,
    SnrTrajectory,
    SpectrumProfile,
    band_energy,
    closed_form_scalar_trajectory,
    propagate_coefficients_ddim,
    radial_spectrum,
    snr_trajectory,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .omega import (
    DEFAULT_RESCALE,
    IDENTITY_CONTROL,
    OmegaControl,
    OmegaMask,
    OmegaSchedule,
    RescaleParams,
    mask_from_grayscale,
    mask_to_grayscale,
    omega_schedule,
    rescale,
)
from .oracles import (
    GaussianFieldSpec,
    GaussianMixture,
    gaussian_field_2d,
    standard_normal,
)
from .samplers import (
    Denoiser,
    LatentState,
    NumericAbortError,
    SamplerConfig,
    Trajectory,
    ddim_step,
    ddim_step_reference,
    euler_step,
    euler_step_reference,
    flow_step,
    flow_step_reference,
    reference_trajectory,
    run_sampler,
)
from .schedules import (
    AlphaBarSchedule,
    BetaSchedule,
    FlowTimesteps,
    SigmaSchedule,
    SignalDivergenceError,
    alpha_bar_from_betas,
    flow_timesteps,
    karras_sigmas,
    make_linear_beta,
    modified_snr_ddim,
    snr,
)

__all__ = [
    "CoefficientState",
    "ScalarTrajectory",
    "SnrTrajectory",
    "SpectrumProfile",
    "band_energy",
    "closed_form_scalar_trajectory",
    "propagate_coefficients_ddim",
    "radial_spectrum",
    "snr_trajectory",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "DEFAULT_RESCALE",
    "IDENTITY_CONTROL",
    "OmegaControl",
    "OmegaMask",
    "OmegaSchedule",
    "RescaleParams",
    "mask_from_grayscale",
    "mask_to_grayscale",
    "omega_schedule",
    "rescale",
    "GaussianFieldSpec",
    "GaussianMixture",
    "gaussian_field_2d",
    "standard_normal",
    "Denoiser",
    "LatentState",
    "NumericAbortError",
    "SamplerConfig",
    "Trajectory",
    "ddim_step",
    "ddim_step_reference",
    "euler_step",
    "euler_step_reference",
    "flow_step",
    "flow_step_reference",
    "reference_trajectory",
    "run_sampler",
    "AlphaBarSchedule",
    "BetaSchedule",
    "FlowTimesteps",
    "SigmaSchedule",
    "SignalDivergenceError",
    "alpha_bar_from_betas",
    "flow_timesteps",
    "karras_sigmas",
    "make_linear_beta",
    "modified_snr_ddim",
    "snr",
]
