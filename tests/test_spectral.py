import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import jn_zeros

from neumann_rigidity import grid as gmod
from neumann_rigidity import spectral

from neumann_rigidity import (Domain, Field, RangeError, build_grid,
                              check_lin_interp_inequality, constant_field,
                              schrodinger_ground_state, spectral_gap)

PI2 = math.pi**2


def test_interval_gap(interval256):
    pair = spectral_gap(interval256)
    assert abs(pair.eigenvalue - PI2) / PI2 < 0.002
    assert pair.residual <= 1e-8
    # eigenfunction is the first cosine mode, orthogonal to constants
    g = interval256
    u = pair.eigenfunction.values
    assert abs(g.integrate(u)) < 1e-8
    assert g.integrate(u * u) == pytest.approx(1.0, abs=1e-10)
    mode = np.cos(np.pi * g.axes[0])
    corr = abs(g.integrate(u * mode)) / math.sqrt(g.integrate(mode * mode))
    assert corr == pytest.approx(1.0, abs=1e-4)


def test_square_gap(square64):
    pair = spectral_gap(square64)
    assert abs(pair.eigenvalue - PI2) / PI2 < 0.01


def test_radial_gap(ball256):
    pair = spectral_gap(ball256)
    target = math.pi * jn_zeros(1, 1)[0] ** 2
    assert abs(pair.eigenvalue - target) / target < 0.005


_DENSE_GRIDS = {
    "interval64": lambda: build_grid(Domain.box(1.0), 64),
    "square16": lambda: build_grid(Domain.box(1.0, 1.0), 16),
    "rect1.5x1_16": lambda: build_grid(Domain.box(1.5, 1.0), 16),
    "box10x9x8": lambda: build_grid(Domain.box(1.5, 1.0, 0.75), (10, 9, 8)),
    "ball3_64": lambda: build_grid(Domain.ball(3, 1.0), 64),
}


@pytest.mark.parametrize("name", sorted(_DENSE_GRIDS))
def test_gap_matches_dense_pencil(name):
    g = _DENSE_GRIDS[name]()
    modes = [c.copy() for _, c in g.heat_modes()]
    pair = spectral_gap(g)
    # the cached axis modes are left as they were
    assert all(np.array_equal(c, m) for (_, c), m in zip(g.heat_modes(),
                                                          modes))
    dense = scipy.linalg.eigh(g.sparse_stiffness().toarray(),
                              np.diag(g.mass_vector()), eigvals_only=True)
    lam2 = dense[1]
    assert pair.eigenvalue == pytest.approx(lam2, rel=1e-12)
    assert pair.residual <= 1e-10 * lam2
    assert pair.iterations == 0
    u = pair.eigenfunction.values
    # the eigenvalue is the Rayleigh quotient in the grid's face form
    flat = u.ravel()
    assert pair.eigenvalue == g.energy(u)
    assert abs(g.integrate(u)) <= 1e-12
    assert g.integrate(u * u) == pytest.approx(1.0, abs=1e-12)
    # oriented by the first node, an extremum of the mode, not by a tie
    assert flat[0] == pytest.approx(np.abs(flat).max(), rel=1e-9)
    if name == "square16":
        # a double gap: the first axis's mode, exactly constant along y
        assert np.ptp(u, axis=1).max() == 0.0
    if name == "rect1.5x1_16":
        # the long side carries the simple gap
        assert np.ptp(u, axis=1).max() == 0.0
        assert np.ptp(u, axis=0).min() > 1.0


@pytest.mark.parametrize("aspect, n", [
    (None, 1024), (1.0, 64), (0.5, 40), (0.01, 32), (1e-6, 32), (1e-300, 8)],
    ids=["interval1024", "square64", "rect0.5x1_40", "rect0.01x1_32",
         "rect1e-6x1_32", "rect1e-300x1_8"])
def test_gap_is_the_closed_form_on_any_aspect(aspect, n):
    # the trapezoid pencil is the mirror-ghost difference operator, so
    # the gap is (4/h^2) sin^2(pi h/(2L)) on the longest side L, however
    # small the short side's share of a node's stiffness. The residual is
    # bounded by 1e-10 lambda2 plus the round-off floor of the axis
    # operator, whose spectrum reaches 4/h^2 (on interval1024 the
    # residual is 2.6e-10 lambda2)
    g = build_grid(Domain.box(1.0) if aspect is None
                   else Domain.box(aspect, 1.0), n)
    L = max(g.domain.extents)
    h = L / (n - 1)
    exact = 4.0 / h**2 * math.sin(math.pi * h / (2.0 * L)) ** 2
    pair = spectral_gap(g)
    assert pair.eigenvalue > 0.0
    assert abs(pair.eigenvalue - exact) <= 2e-15 * exact
    assert pair.residual <= 1e-10 * exact + 1e-14 * 4.0 / h**2


def test_cube_gap_within_one_percent_of_pi_squared():
    # the unit cube's lambda2 = pi^2 is triply degenerate; the box grid
    # needs no cube-specific code (measured 0.99845 pi^2 at n = 24)
    g = build_grid(Domain.box(1.0, 1.0, 1.0), 24)
    assert g.shape == (24, 24, 24)
    pair = spectral_gap(g)
    assert abs(pair.eigenvalue - PI2) / PI2 < 0.01
    assert pair.residual <= 1e-10 * pair.eigenvalue
    # the first axis carries the mode, constant along the other two
    u = pair.eigenfunction.values
    assert np.ptp(u, axis=(1, 2)).max() == 0.0


def test_gap_needs_no_factor_and_no_randomness(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("spectral_gap must not call this")

    monkeypatch.setattr(spectral, "splu", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    # nor a band factor, nor the assembled K: the gap is a face product
    monkeypatch.setattr(gmod, "dgttrf", forbidden)
    for name in ("shifted_factor", "sparse_stiffness"):
        monkeypatch.setattr(gmod.Grid, name, forbidden)
    g = build_grid(Domain.box(1.2, 1.0), 24)
    pair = spectral_gap(g)
    assert spectral_gap(g) is pair


def test_gap_second_order_convergence():
    errs = []
    for n in (64, 128):
        g = build_grid(Domain.box(1.0), n)
        errs.append(abs(spectral_gap(g).eigenvalue - PI2))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_lin_interp_equality_on_eigenfunction(interval256, square64):
    for g in (interval256, square64):
        pair = spectral_gap(g)
        lhs, rhs = check_lin_interp_inequality(pair.eigenfunction)
        assert abs(lhs - rhs) / rhs < 1e-8


def test_lin_interp_inequality_random(square32):
    g = square32
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = Field(g, rng.standard_normal(g.shape))
        lhs, rhs = check_lin_interp_inequality(f)
        assert lhs <= rhs * (1.0 + 1e-12)
    lhs, rhs = check_lin_interp_inequality(constant_field(g, 2.0))
    assert lhs == 0.0 and rhs == 0.0


def test_mean_zero_operator_inequality(interval128):
    # int |lap u|^2 >= lambda2 int |grad u|^2 on mean-zero fields
    g = interval128
    lam2 = spectral_gap(g).eigenvalue
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = rng.standard_normal(g.shape)
        u -= g.integrate(u)
        lap = g.laplacian(u)
        assert g.integrate(lap * lap) >= lam2 * g.energy(u) * (1.0 - 1e-10)


def test_schrodinger_zero_potential(interval128):
    pair = schrodinger_ground_state(interval128, constant_field(interval128, 0.0),
                                    sign=-1)
    assert abs(pair.eigenvalue) < 1e-10
    u = pair.eigenfunction.values
    assert u.std() < 1e-6 and u.mean() > 0.0


def test_schrodinger_constant_shift(interval128):
    g = interval128
    pair = schrodinger_ground_state(g, constant_field(g, 3.0), sign=-1)
    assert pair.eigenvalue == pytest.approx(-3.0, abs=1e-9)
    pair = schrodinger_ground_state(g, constant_field(g, 3.0), sign=+1)
    assert pair.eigenvalue == pytest.approx(3.0, abs=1e-9)


def test_schrodinger_small_cosine_second_order(interval256):
    # mean-zero potential: first order vanishes, the shift is second order
    g = interval256
    phi = Field(g, 0.1 * np.cos(np.pi * g.axes[0]))
    pair = schrodinger_ground_state(g, phi, sign=-1)
    assert -1e-3 < pair.eigenvalue < 0.0
    assert pair.eigenfunction.values.min() > 0.0


def test_schrodinger_residual_meets_its_documented_bound(interval128):
    # the relative operator residual is at most 1e-10, recomputed here with
    # the assembled K: it reads 1.9e-10 against a bound of 5.2e-10
    g = interval128
    gap = spectral_gap(g)
    phi = 0.5 * gap.eigenvalue * (1.0 + 0.3 * gap.eigenfunction.values)
    pair = schrodinger_ground_state(g, phi, -1)
    w = g.mass_vector()
    u = pair.eigenfunction.values.ravel()
    r = ((g.sparse_stiffness() @ u - w * phi.ravel() * u) / w
         - pair.eigenvalue * u)
    assert math.sqrt(np.dot(w, r * r)) <= 1e-10 * max(abs(pair.eigenvalue),
                                                      1.0)


def test_schrodinger_guards(interval128):
    with pytest.raises(RangeError):
        schrodinger_ground_state(interval128,
                                 constant_field(interval128, 1.0), sign=2)
    bad = np.full(interval128.shape, np.nan)
    with pytest.raises(RangeError):
        schrodinger_ground_state(interval128, bad, sign=1)
