import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from gnsflow import operators, spectral

# every property test draws the same examples on every run and keeps no
# example database; each test bounds its own number of examples
settings.register_profile("gnsflow", derandomize=True, database=None)
settings.load_profile("gnsflow")


@pytest.fixture(autouse=True)
def no_oracle_thread_left():
    """Fails any test that leaves an ETD oracle worker thread alive."""
    yield
    leaked = [t.name for t in threading.enumerate()
              if t.name.startswith("gnsflow-etd-oracle")]
    assert not leaked, f"oracle threads left alive: {leaked}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.fixture
def grid8() -> spectral.Grid:
    return spectral.build_grid(8)


@pytest.fixture
def grid16() -> spectral.Grid:
    return spectral.build_grid(16)


@pytest.fixture
def small_linspace(monkeypatch):
    """numpy.linspace that fails fast beyond 10^6 points: a config with a huge
    solver.n_times must never build its time lattice while it is parsed."""
    real = np.linspace

    def bounded(start, stop, num=50, **kwargs):
        if num > 10**6:
            raise AssertionError(f"linspace over {num} points")
        return real(start, stop, num, **kwargs)
    monkeypatch.setattr(np, "linspace", bounded)


def random_hermitian_coeffs(grid: spectral.Grid, rng: np.random.Generator,
                            scale: float = 1.0) -> np.ndarray:
    """Random Hermitian-symmetric coefficients (via a real physical field)."""
    phys = rng.standard_normal(grid.shape) * scale
    return spectral.fftn(phys)


def leray_full(grid: spectral.Grid, stack: np.ndarray) -> np.ndarray:
    """operators.leray_project_stack of a full (3, n, n, n) stack, taken on
    its half spectrum and mirrored back to the full lattice."""
    return spectral.to_full(grid, operators.leray_project_stack(grid, spectral.to_half(stack)))
