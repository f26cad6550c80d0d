import numpy as np
import pytest
from hypothesis import settings

# every run draws the same examples, so two runs of the suite compare like for like
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def random_hermitian_nsd(rng, n, scale=1.0):
    """Random Hermitian negative semi-definite matrix with eigenvalues in [-scale, 0]."""
    w = -rng.uniform(0.0, scale, size=n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * w) @ q.conj().T


def random_contraction(rng, n, norm=1.0):
    """Random complex matrix rescaled to the requested spectral norm."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a * (norm / np.linalg.norm(a, 2))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
