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

The public names are declared once, in each module's ``__all__``; the
package exports their union, pinned in ``tests/test_package.py``.
"""

__version__ = "0.1.0"

from . import analysis, config, omega, oracles, samplers, schedules
from .analysis import *
from .config import *
from .omega import *
from .oracles import *
from .samplers import *
from .schedules import *

__all__ = [
    *analysis.__all__, *config.__all__, *omega.__all__, *oracles.__all__, *samplers.__all__, *schedules.__all__
]
