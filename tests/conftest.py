import numpy as np
import pytest

from omegance import linear_beta_ladder


@pytest.fixture(scope="session")
def linear_bars():
    """The default 1000-step linear-beta ladder shared across test modules."""
    return linear_beta_ladder(1000, 1e-4, 0.02)


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality of two float arrays."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()
