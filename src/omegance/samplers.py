"""Omega-scaled reverse-process steps and trajectory execution.

Three step families share one pattern: a prediction is formed at the current
noise level and its contribution is multiplied by omega (a scalar or a
per-cell field). Each scaled step has an unscaled reference twin; at
omega = 1 the scaled code path multiplies by the float 1.0 and reproduces the
reference bit for bit, which is the identity contract the test-suite pins.

The flow-matching step additionally recentres its update: the raw update
dt * v is not zero-mean, and scaling it directly would drift the latent mean
(visible as a colour shift once such latents are decoded). Only the
deviation from the mean is scaled,

    m  = mean(v)
    z' = (v - m) * (dt * omega) + dt * m + z

so mean(z') matches the unscaled step for every scalar omega. At a scalar
omega that is five passes over the latent (the mean, a subtract, a
multiply and two adds); an omega field scales by omega and then by dt,
(v - m) * omega * dt, one pass more but no field-sized temporary. The older
form z + (dt * v - mean(dt * v)) * omega + mean(dt * v) took six passes at
either and differs from these only by rounding.

The scaled kernels build their result in one or two fresh arrays with
in-place operations, in the order of the formulas above; the only change of
order is swapping the two operands of a single + or *, which is exact in
IEEE arithmetic. They never write into z, the prediction or the omega field.
The reference twins keep the plain expressions, an independent route. The
loop drops each prediction and omega field as soon as its step has used
them, so the next denoiser call and the snapshot sink run beside the latent
alone; this changes what the loop holds, not the kernels or their contract.

Snapshot sink: ``run_sampler(..., on_snapshot=sink)`` calls ``sink(state)``
with each requested ``LatentState`` right after its step (step 0 before the
first), in step order, on the caller's thread. The state holds a private copy
of the latent, so the sink may keep or change it freely. The returned
``Trajectory`` then has ``states == ()``; ``final`` is the same. An exception
raised by the sink ends the run and propagates unchanged. A consumer that
reduces each snapshot as it arrives holds one snapshot at a time instead of
all of them.

Warnings: the loop silences numpy's overflow and invalid-operation warnings
for the denoiser call and the step, one step at a time, because a
non-finite latent is caught by the finiteness check and raised as
``NumericAbortError``. The sink runs outside that scope, so its own numpy
warnings follow the caller's settings.

Randomness: a trajectory consumes random numbers only for the churn
perturbation of the variance-exploding sampler, drawn from stream 1 of
``numpy.random.SeedSequence(config.seed).spawn(2)``. Stream 0 is reserved for
callers drawing the initial latent, so trajectory noise and prior draws never
share a stream.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .omega import IDENTITY_CONTROL, OmegaControl
from .oracles import _FINITE_LATENT_TWINS
from .schedules import AlphaBarSchedule, FlowTimesteps, SigmaSchedule, _is_finite_real, _is_integer, _is_positive_finite

__all__ = [
    "NumericAbortError",
    "Denoiser",
    "LatentState",
    "SamplerConfig",
    "Trajectory",
    "ddim_step",
    "ddim_step_reference",
    "euler_step",
    "euler_step_reference",
    "flow_step",
    "flow_step_reference",
    "run_sampler",
    "reference_trajectory",
]

# each sampler kind's schedule type and the denoiser method its steps call
_KINDS = {
    "ddim": (AlphaBarSchedule, "epsilon_predict"),
    "euler": (SigmaSchedule, "epsilon_predict"),
    "flow": (FlowTimesteps, "velocity_predict"),
}


class NumericAbortError(ArithmeticError):
    """Non-finite value during sampling; ``step`` counts completed steps.

    ``cell`` starts as None; a runner that knows which cell aborted sets it.
    """

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step
        self.cell = None


class Denoiser(Protocol):
    """Prediction interface: output shape equals input shape, deterministic in (z, level)."""

    def epsilon_predict(
        self, z: np.ndarray, *, alpha_bar: float | None = None, sigma: float | None = None
    ) -> np.ndarray: ...

    def velocity_predict(self, z: np.ndarray, t: float) -> np.ndarray: ...


@dataclass(frozen=True)
class LatentState:
    """Latent values plus the number of sampling steps already applied."""

    values: np.ndarray
    step: int = 0


def _check_omega_field(omega, shape) -> None:
    if isinstance(omega, np.ndarray) and omega.shape != tuple(shape):
        raise ValueError(f"omega field {omega.shape} does not match latent shape {tuple(shape)}")
    if not _is_positive_finite(omega):
        raise ValueError("omega must be a positive finite number, or a field of them")


def _operands(z, pred, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The latent and a prediction as float64 arrays, checked to share one shape."""
    z = np.asarray(z, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape != z.shape:
        raise ValueError(f"{name} shape {pred.shape} does not match latent shape {z.shape}")
    return z, pred


def ddim_step(z, schedule: AlphaBarSchedule, t: int, eps_pred, omega=1.0) -> np.ndarray:
    """One deterministic step from ladder index t with the prediction scaled by omega.

    Per cell: z' = delta * (z - sqrt(1-abar_t) * eps * omega) + sqrt(1-abar_prev) * eps * omega,
    with delta = sqrt(abar_prev) / sqrt(abar_t), the multiplier of the ddim
    rows of analysis._step_table, which analysis.propagate_coefficients_ddim reads.
    """
    z, eps_pred = _operands(z, eps_pred, "eps_pred")
    if t < 1:
        raise ValueError("ddim steps start at ladder index 1")
    _check_omega_field(omega, z.shape)
    ab_t = schedule.alpha_bar(t)
    ab_prev = schedule.alpha_bar(t - 1)
    scaled = np.multiply(eps_pred, omega)
    out = np.multiply(scaled, math.sqrt(1.0 - ab_t))
    np.subtract(z, out, out=out)
    out *= math.sqrt(ab_prev) / math.sqrt(ab_t)
    scaled *= math.sqrt(1.0 - ab_prev)
    out += scaled
    return out


def ddim_step_reference(z, schedule: AlphaBarSchedule, t: int, eps_pred) -> np.ndarray:
    """Unscaled deterministic step; the baseline the omega path is checked against."""
    z, eps_pred = _operands(z, eps_pred, "eps_pred")
    if t < 1:
        raise ValueError("ddim steps start at ladder index 1")
    ab_t = schedule.alpha_bar(t)
    ab_prev = schedule.alpha_bar(t - 1)
    delta = math.sqrt(ab_prev) / math.sqrt(ab_t)
    return delta * (z - math.sqrt(1.0 - ab_t) * eps_pred) + math.sqrt(1.0 - ab_prev) * eps_pred


def euler_step(z, schedule: SigmaSchedule, i: int, eps_pred, omega=1.0) -> np.ndarray:
    """One variance-exploding step: z + (sigma_next - sigma_hat) * eps * omega."""
    z, eps_pred = _operands(z, eps_pred, "eps_pred")
    _check_omega_field(omega, z.shape)
    sigma_hat = schedule.sigma_hat(i)
    sigma_next = float(schedule.sigmas[i + 1])
    out = np.multiply(eps_pred, omega)
    out *= sigma_next - sigma_hat
    out += z
    return out


def euler_step_reference(z, schedule: SigmaSchedule, i: int, eps_pred) -> np.ndarray:
    """Unscaled variance-exploding step."""
    z, eps_pred = _operands(z, eps_pred, "eps_pred")
    sigma_hat = schedule.sigma_hat(i)
    sigma_next = float(schedule.sigmas[i + 1])
    return z + (sigma_next - sigma_hat) * eps_pred


def flow_step(z, dt: float, v_pred, omega=1.0) -> np.ndarray:
    """One mean-preserving flow step: scale only the zero-mean part of dt * v.

    At omega = 1 the recentring detour is skipped so the result is
    bit-identical to the plain update z + dt * v.
    """
    z, v_pred = _operands(z, v_pred, "v_pred")
    if z.size == 0:
        raise ValueError("empty latent")
    if not _is_finite_real(dt) or dt == 0.0:
        raise ValueError("dt must be a finite nonzero number")
    _check_omega_field(omega, z.shape)
    if (omega == 1.0) if isinstance(omega, float) else np.all(omega == 1.0):
        update = np.multiply(v_pred, dt)
        update += z
        return update
    # np.mean's own sum and divide, without its Python-level wrapper
    m = float(np.add.reduce(v_pred, axis=None)) / v_pred.size
    update = np.subtract(v_pred, m)
    if isinstance(omega, np.ndarray):  # dt * omega would be one more latent-sized array
        update *= omega
        update *= dt
    else:
        update *= dt * omega
    update += dt * m
    update += z
    return update


def flow_step_reference(z, dt: float, v_pred) -> np.ndarray:
    """Plain integration step z + dt * v."""
    z, v_pred = _operands(z, v_pred, "v_pred")
    if z.size == 0:
        raise ValueError("empty latent")
    if not _is_finite_real(dt) or dt == 0.0:
        raise ValueError("dt must be a finite nonzero number")
    update = dt * v_pred
    return z + update


@dataclass(frozen=True)
class SamplerConfig:
    """Everything a trajectory needs besides the denoiser and the initial latent."""

    kind: str
    steps: int
    schedule: AlphaBarSchedule | SigmaSchedule | FlowTimesteps
    control: OmegaControl = field(default=IDENTITY_CONTROL)
    seed: int = 0
    snapshots: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {tuple(_KINDS)}")
        if not _is_integer(self.steps) or self.steps < 1:
            raise ValueError("steps must be an integer >= 1")
        schedule_type = _KINDS[self.kind][0]
        if not isinstance(self.schedule, schedule_type):
            raise ValueError(f"{self.kind} requires a {schedule_type.__name__}")
        # ddim takes `steps` rungs of a longer ladder; euler and flow take every level
        if self.steps > self.schedule.num_steps or (self.kind != "ddim" and self.steps < self.schedule.num_steps):
            raise ValueError(f"{self.steps} steps do not fit a {self.schedule.num_steps}-step {self.kind} schedule")
        if not all(_is_integer(s) for s in self.snapshots):
            raise ValueError("snapshot steps must be integers")
        snaps = tuple(sorted(set(int(s) for s in self.snapshots)))
        if snaps and not (0 <= snaps[0] and snaps[-1] <= self.steps):
            raise ValueError(f"snapshot indices must lie in [0, {self.steps}]")
        object.__setattr__(self, "snapshots", snaps)
        sched = self.control.schedule
        if sched is not None and sched.total_steps != self.steps:
            raise ValueError("omega schedule length must equal the sampler step count")


@dataclass(frozen=True)
class Trajectory:
    """Requested intermediate states (ordered by step) plus the final clean estimate."""

    states: tuple[LatentState, ...]
    final: LatentState


def _prepare_latent(z_init) -> np.ndarray:
    values = z_init.values if isinstance(z_init, LatentState) else z_init
    z = np.array(values, dtype=np.float64)
    if z.ndim not in (1, 2) or z.size == 0:
        raise ValueError("latent must be a non-empty 1-D or 2-D array")
    if not np.all(np.isfinite(z)):
        raise NumericAbortError(0, "initial latent contains non-finite values")
    return z


def _predictor(denoiser, kind: str):
    """The denoiser's prediction method for kind, as the loop calls it.

    A GaussianMixture's own method becomes its twin that skips the latent's
    finiteness check, since the loop checks every latent it passes. Any other
    denoiser, or a mixture whose method was replaced, gets its public method.
    """
    needed = _KINDS[kind][1]
    method = getattr(denoiser, needed, None)
    if not callable(method):
        raise TypeError(f"denoiser lacks the {needed} capability required by {kind!r}")
    twin = _FINITE_LATENT_TWINS.get(method.__func__) if isinstance(method, types.MethodType) else None
    return method if twin is None else types.MethodType(twin, denoiser)


def _churn_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])


def _trajectory(denoiser, config: SamplerConfig, z_init, scaled: bool, on_snapshot=None) -> Trajectory:
    """The reverse-process loop shared by the scaled run and its reference twin.

    The two differ only in the step kernel: scaled runs call ``ddim_step``,
    ``euler_step`` or ``flow_step`` with the control's omega, reference runs
    call the ``*_step_reference`` twin and never read the control. Kernels are
    looked up by module-global name at every step so that wrappers installed
    on those names see every call; the denoiser's method is looked up once,
    by ``_predictor``. Every latent is checked for finiteness once per step,
    after the step, which covers the next prediction's input. Requested
    snapshots go to ``on_snapshot`` when one is given, else into the returned
    ``states``.
    """
    predict = _predictor(denoiser, config.kind)
    z = _prepare_latent(z_init)
    wanted = set(config.snapshots)
    states: list[LatentState] = []
    keep = states.append if on_snapshot is None else on_snapshot
    if 0 in wanted:
        keep(LatentState(z.copy(), 0))

    if config.kind == "ddim":
        ladder = config.schedule.subsample(config.steps)
    elif config.kind == "euler" and config.schedule.churn > 0.0:
        rng = _churn_rng(config.seed)

    for k in range(config.steps):
        # an overflow or 0 * inf shows as a non-finite latent, which the check
        # below turns into NumericAbortError; numpy need not warn about it too.
        # The scope is one step, so a snapshot sink's own warnings still fire.
        with np.errstate(over="ignore", invalid="ignore"):
            omega = (config.control.resolve_field(z.shape, k),) if scaled else ()
            if config.kind == "ddim":
                t = config.steps - k
                pred = predict(z, alpha_bar=ladder.alpha_bar(t))
                z = (ddim_step if scaled else ddim_step_reference)(z, ladder, t, pred, *omega)
            elif config.kind == "euler":
                sched = config.schedule
                sigma = float(sched.sigmas[k])
                if sched.churn > 0.0:
                    sigma_hat = sched.sigma_hat(k)
                    z = z + math.sqrt(sigma_hat**2 - sigma**2) * rng.standard_normal(z.shape)
                    sigma = sigma_hat
                pred = predict(z, sigma=sigma)
                z = (euler_step if scaled else euler_step_reference)(z, sched, k, pred, *omega)
            else:
                pred = predict(z, float(config.schedule.times[k]))
                z = (flow_step if scaled else flow_step_reference)(z, config.schedule.dt(k), pred, *omega)
            # the next denoiser call and the snapshot sink need neither
            del pred, omega
        if not np.isfinite(z).all():
            raise NumericAbortError(k + 1, f"non-finite latent after step {k + 1}")
        if (k + 1) in wanted:
            keep(LatentState(z.copy(), k + 1))

    return Trajectory(tuple(states), LatentState(z, config.steps))


def run_sampler(denoiser, config: SamplerConfig, z_init, on_snapshot=None) -> Trajectory:
    """Run the configured reverse process and collect the requested snapshots.

    The trajectory is strictly sequential and fully determined by
    (config, z_init); non-finite values abort with the offending step index.
    With ``on_snapshot``, each requested state is handed to it as soon as its
    step is done instead of being collected, and ``states`` comes back empty.
    """
    return _trajectory(denoiser, config, z_init, scaled=True, on_snapshot=on_snapshot)


def reference_trajectory(denoiser, config: SamplerConfig, z_init) -> Trajectory:
    """Run the unscaled reference steps with the same schedule and randomness.

    The omega control on the config is ignored; this is the vanilla twin that
    omega = 1 runs must reproduce bit for bit.
    """
    return _trajectory(denoiser, config, z_init, scaled=False)
