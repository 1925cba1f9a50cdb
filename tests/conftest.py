import numpy as np
import pytest

from neumann_rigidity import Domain, build_grid
from neumann_rigidity.grid import Grid


@pytest.fixture(scope="session")
def interval256():
    return build_grid(Domain.box(1.0), 256)


@pytest.fixture(scope="session")
def interval128():
    return build_grid(Domain.box(1.0), 128)


@pytest.fixture(scope="session")
def square64():
    return build_grid(Domain.box(1.0, 1.0), 64)


@pytest.fixture(scope="session")
def square32():
    return build_grid(Domain.box(1.0, 1.0), 32)


@pytest.fixture(scope="session")
def ball256():
    return build_grid(Domain.ball(2, 1.0), 256)


def _weighted_stiffness_reference(grid, coeff, u, out=None):
    # K_c u written per axis on the n-d array: the np.diff slices of each
    # axis and the flux 0.5 * (c_lo + c_hi) * fw * du of every face; takes
    # the place of Grid.weighted_stiffness_apply when monkeypatched in
    ku = np.zeros_like(u, dtype=float)
    for a, fw in enumerate(grid.face_weights):
        lo = [slice(None)] * u.ndim
        hi = [slice(None)] * u.ndim
        lo[a], hi[a] = slice(None, -1), slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        flux = 0.5 * (coeff[lo] + coeff[hi]) * fw * (u[hi] - u[lo])
        ku[lo] -= flux
        ku[hi] += flux
    if out is None:
        return ku
    out[...] = ku
    return out


@pytest.fixture(scope="session")
def weighted_stiffness_reference():
    return _weighted_stiffness_reference


@pytest.fixture
def full_grid_subspace(monkeypatch):
    # calling it patches Grid.subspace to collapse no axis for the rest of
    # the test, so the branch trace and both flows run on every node
    return lambda: monkeypatch.setattr(
        Grid, "subspace", lambda grid, u: (grid, grid.shape,
                                           u.reshape(grid.shape)))
