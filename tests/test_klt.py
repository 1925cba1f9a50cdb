
import numpy as np
import pytest

from neumann_rigidity import (Field, PositivityError, RangeError,
                              constant_field, holder_pairing_check,
                              klt_duality_check, minimize_quotient,
                              optimal_potential, spectral_gap)
from neumann_rigidity.rng import SplitMix64
from neumann_rigidity.grid import smooth_random_field


def test_optimal_potential_constant(interval128):
    phi = optimal_potential(constant_field(interval128, 3.0), 2.5, 2.0)
    assert np.allclose(phi.values, 2.5)


def test_optimal_potential_norm_and_invariance(interval256):
    g = interval256
    lam = 4.0 * spectral_gap(g).eigenvalue
    u = minimize_quotient(g, lam, 2.0).minimizer
    mu = 2.0
    phi = optimal_potential(u, mu, 2.0)
    assert g.lp_norm(phi.values, 3.0) == pytest.approx(mu, abs=1e-8)
    phi2 = optimal_potential(Field(g, 5.0 * u.values), mu, 2.0)
    assert np.abs(phi.values - phi2.values).max() < 1e-10
    with pytest.raises(RangeError):
        optimal_potential(constant_field(g, 0.0), mu, 2.0)


def test_duality_gap_at_roundoff_far_past_the_threshold():
    # p < 1 at about 10 lambda2/|p-1|: the plain solve's starts used to run
    # to the iteration cap and leave a gap near 4e-8
    from neumann_rigidity import Domain, build_grid
    g = build_grid(Domain.interval(1.0), 64)
    res = klt_duality_check(g, 0.5, 200.0)
    assert res.relative_gap <= 1e-10


def test_duality_constant_regime(interval256):
    g = interval256
    lam2 = spectral_gap(g).eigenvalue
    for mu in (0.3 * lam2, 0.7 * lam2):
        res = klt_duality_check(g, 2.0, mu)
        assert abs(res.nu - mu) / mu < 1e-6
        assert res.relative_gap < 1e-4
        assert abs(res.holder_norm - mu) < 1e-8


def test_duality_breaking_regime_p2(interval256):
    g = interval256
    lam2 = spectral_gap(g).eigenvalue
    res = klt_duality_check(g, 2.0, 3.0 * lam2)
    assert res.relative_gap < 1e-4
    # past the threshold the ground-state bound leaves the diagonal from
    # above for p > 1 (constant potentials give nu = mu, optimizers beat it)
    assert res.nu > 3.0 * lam2
    assert res.potential.values.min() >= 0.0


def test_duality_p_below_one(interval256):
    g = interval256
    lam2 = spectral_gap(g).eigenvalue
    for mu in (0.5 * lam2, 3.0 * lam2):
        res = klt_duality_check(g, 0.5, mu)
        assert res.relative_gap < 1e-4
        # reciprocal admissibility: ||phi^-1||_q carries 1/mu
        assert res.holder_norm * mu == pytest.approx(1.0, abs=1e-8)
    assert klt_duality_check(g, 0.5, 3.0 * lam2).nu < 3.0 * lam2


def test_duality_monotone_in_mu(interval128):
    g = interval128
    lam2 = spectral_gap(g).eigenvalue
    mus = np.geomspace(0.3 * lam2, 3.0 * lam2, 6)
    nus = [klt_duality_check(g, 2.0, float(m)).nu for m in mus]
    assert all(b >= a * (1.0 - 1e-9) for a, b in zip(nus, nus[1:]))


def test_holder_pairing_constants_and_random(interval128):
    g = interval128
    lhs, rhs = holder_pairing_check(constant_field(g, 2.0),
                                    constant_field(g, 3.0), 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    rng = SplitMix64(3)
    for k in range(20):
        phi = Field(g, smooth_random_field(g, rng.spawn(2 * k), amp=0.7))
        u = Field(g, smooth_random_field(g, rng.spawn(2 * k + 1), amp=0.7))
        lhs, rhs = holder_pairing_check(phi, u, 2.0)
        assert lhs <= rhs * (1.0 + 1e-12)
        lhs, rhs = holder_pairing_check(phi, u, 0.5)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_holder_pairing_saturation(interval256):
    g = interval256
    lam = 4.0 * spectral_gap(g).eigenvalue
    u = minimize_quotient(g, lam, 2.0).minimizer
    phi = optimal_potential(u, 2.0, 2.0)
    lhs, rhs = holder_pairing_check(phi, u, 2.0)
    assert abs(lhs - rhs) / rhs < 1e-8
    # p < 1 saturation with the same closed form
    u = minimize_quotient(g, 2.0 * spectral_gap(g).eigenvalue, 0.5).minimizer
    phi = optimal_potential(u, 2.0, 0.5)
    lhs, rhs = holder_pairing_check(phi, u, 0.5)
    assert abs(lhs - rhs) / rhs < 1e-8


def test_holder_pairing_guards(interval128):
    with pytest.raises(PositivityError):
        holder_pairing_check(constant_field(interval128, -1.0),
                             constant_field(interval128, 1.0), 2.0)
