import math

import numpy as np
import pytest

from neumann_rigidity import (Domain, NoRealRootsError, RangeError,
                              beckner_bound, beta_roots, build_grid,
                              constant_field, constant_solution,
                              el_normalization, estimate_mu2,
                              fit_scaling_exponent, holder_pairing_check,
                              improvement_phi, j_lambda, lambda_of_mu,
                              make_exponents, minimize_quotient,
                              newton_solve, nonlinear_flow_run,
                              optimal_potential, r_coefficient,
                              rigidity_bounds, scaling_exponent, theta_star,
                              trace_branch, vartheta)
from neumann_rigidity.constants import delta_exponent, epsilon, p_sharp


def test_theta_star_hand_values():
    assert theta_star(1.0, 3) == pytest.approx(0.25, abs=1e-15)
    assert theta_star(2.0, 2) == pytest.approx(0.2, abs=1e-15)
    assert theta_star(2.0, 3) == pytest.approx(8.0 / 17.0, abs=1e-15)


def test_theta_star_endpoint_identity():
    # 1 - theta_star(1, d) collapses to 4d/(d+1)^2 algebraically
    for d in range(2, 7):
        assert abs((1.0 - theta_star(1.0, d)) - 4.0 * d / (d + 1) ** 2) < 1e-14


def test_theta_star_range_and_critical_limit():
    for d in (2, 3, 4):
        for p in (0.1, 0.5, 1.0, 2.0):
            assert 0.0 < theta_star(p, d) < 1.0
    # approaches 1 at the critical exponent for d >= 3
    d = 3
    p_crit = (d + 2.0) / (d - 2.0)
    assert theta_star(p_crit, d) == pytest.approx(1.0, abs=1e-12)
    assert theta_star(p_crit - 1e-6, d) < 1.0


def test_make_exponents_fields():
    ex = make_exponents(2.0, 3, beta=5.0 / 3.0)
    assert ex.epsilon == 1
    assert ex.kappa_flow == pytest.approx(8.0 / 3.0, abs=1e-14)
    assert ex.delta == pytest.approx(0.4, abs=1e-14)
    assert ex.q_holder == pytest.approx(3.0, abs=1e-14)
    assert ex.two_star == pytest.approx(6.0)
    sub = make_exponents(0.5, 2)
    assert sub.epsilon == -1
    assert sub.q_holder == pytest.approx(1.5 / 0.5)


def test_make_exponents_guards():
    with pytest.raises(RangeError):
        make_exponents(1.0, 3)
    ex = make_exponents(1.0, 3, log_sobolev=True)
    assert ex.epsilon is None and ex.q_holder is None
    with pytest.raises(RangeError):
        make_exponents(5.0, 3)          # critical for d = 3
    with pytest.raises(RangeError):
        make_exponents(-2.0, 2)
    # delta needs beta > 1: marked absent, not an error
    assert make_exponents(2.0, 3, beta=0.5).delta is None
    assert make_exponents(2.0, 3, beta=0.0).kappa_flow == 1.0


def test_epsilon_and_delta_exponent():
    assert (epsilon(2.0), epsilon(0.5)) == (1, -1)
    with pytest.raises(RangeError):
        epsilon(1.0)
    # (p+1+beta(p-3)) / (2 beta (p-1)) at p=2, beta=5/3 is 2/5
    assert delta_exponent(2.0, 5.0 / 3.0) == pytest.approx(0.4, abs=1e-14)
    assert make_exponents(0.5, 2, beta=1.5).delta == delta_exponent(0.5, 1.5)


def test_r_coefficient_hand_substitution():
    # theta = 1, beta = 1 collapses to p d/(d+2) - p^2 ((d-1)/(d+2))^2
    for p, d in ((2.0, 3), (0.5, 2), (2.3, 4)):
        want = p * d / (d + 2.0) - p**2 * ((d - 1.0) / (d + 2.0)) ** 2
        assert r_coefficient(1.0, 1.0, p, d) == pytest.approx(want, abs=1e-14)
    with pytest.raises(RangeError):
        r_coefficient(0.0, 1.0, 2.0, 3)


@pytest.mark.parametrize("p,d", [(0.5, 2), (2.0, 2), (3.0, 2),
                                 (0.5, 3), (2.0, 3), (3.0, 3), (2.0, 4)])
def test_double_root_at_threshold(p, d):
    ts = theta_star(p, d)
    roots = beta_roots(ts * (1.0 + 1e-10), p, d)
    want = (d + 2.0) / (d + 2.0 - p)
    assert roots.beta_minus == pytest.approx(want, rel=1e-4)
    assert roots.beta_plus == pytest.approx(want, rel=1e-4)
    # R vanishes at the threshold double root itself
    assert abs(r_coefficient(ts, want, p, d)) < 1e-10


def test_roots_zero_r_and_ordering():
    for theta, p, d in ((0.9, 2.0, 3), (0.6, 2.0, 3), (0.5, 0.5, 2)):
        roots = beta_roots(theta, p, d)
        assert roots.beta_minus <= roots.beta_plus
        assert abs(r_coefficient(theta, roots.beta_minus, p, d)) < 1e-10
        assert abs(r_coefficient(theta, roots.beta_plus, p, d)) < 1e-10


def test_no_real_roots_below_threshold():
    with pytest.raises(NoRealRootsError):
        beta_roots(0.1, 2.0, 3)
    with pytest.raises(RangeError):
        beta_roots(1.0, 2.0, 3)


def test_midpoint_positive_r_near_threshold():
    # just above the threshold the leading coefficient is positive and R > 0
    # strictly between the roots
    p, d = 2.0, 3
    theta = theta_star(p, d) + 0.05
    roots = beta_roots(theta, p, d)
    mid = 0.5 * (roots.beta_minus + roots.beta_plus)
    assert r_coefficient(theta, mid, p, d) > 0.0


def test_degenerate_leading_coefficient():
    # theta where the quadratic degenerates to a linear equation
    p, d = 2.0, 3
    theta_a = ((d - 1.0) / (d + 2.0)) ** 2 * p**2 / (p - 1.0)
    roots = beta_roots(theta_a, p, d)
    assert roots.degenerate
    assert roots.beta_minus == roots.beta_plus
    assert abs(r_coefficient(theta_a, roots.beta_minus, p, d)) < 1e-10


def test_rigidity_bounds_log_sobolev():
    rep = rigidity_bounds(1.0, 2, 1.0, log_sobolev=True)
    assert rep.lower_nonlinear == pytest.approx(8.0 / 9.0, abs=1e-14)
    assert rep.upper == 1.0
    assert rep.best_lower == pytest.approx(8.0 / 9.0, abs=1e-14)


def test_rigidity_bounds_sublinear_and_continuity():
    rep = rigidity_bounds(0.5, 2, math.pi**2)
    # the heat-flow route contributes (1-p) lambda2 on this scale
    assert rep.lower_heat == pytest.approx(0.5 * math.pi**2, rel=1e-14)
    assert rep.lower_heat_traceless == pytest.approx(
        0.5 * (1.0 - vartheta(0.5, 2)) * math.pi**2, rel=1e-14)
    # approaching the log-Sobolev endpoint reproduces 4d/(d+1)^2
    rep = rigidity_bounds(0.999, 3, 1.0)
    assert abs(rep.best_lower - 0.75) < 1e-3
    rep = rigidity_bounds(1.001, 3, 1.0)
    assert abs(rep.best_lower - 0.75) < 1e-3


def test_rigidity_bounds_absent_markers():
    rep = rigidity_bounds(2.0, 1, 1.0)
    assert rep.lower_nonlinear is None       # needs d >= 2
    assert rep.lower_heat is None            # needs p < 1
    assert rep.best_lower is None
    lo, hi = rep.threshold_window()
    assert lo is None and hi == pytest.approx(1.0)
    # heat route applies in d = 1 for p < 1
    assert rigidity_bounds(0.5, 1, 1.0).best_lower == pytest.approx(0.5)


def test_rigidity_bounds_best_below_upper_grid():
    for d in (2, 3, 4):
        cap = 0.9 * ((d + 2.0) / (d - 2.0) - 1.0) if d >= 3 else 6.0
        for p in np.linspace(0.05, cap, 23):
            if abs(p - 1.0) < 1e-9:
                continue
            rep = rigidity_bounds(float(p), d, 2.7)
            assert rep.best_lower <= rep.upper + 1e-12


@pytest.mark.parametrize("p, d, log_sobolev", [
    (2.0, 0, False), (2.0, 2.5, False), (0.5, 2, True), (1.0, 2, False),
    (5.0, 3, False), (-0.5, 2, False)])
def test_exponents_and_bounds_reject_the_same_inputs(p, d, log_sobolev):
    with pytest.raises(RangeError):
        make_exponents(p, d, log_sobolev=log_sobolev)
    with pytest.raises(RangeError):
        rigidity_bounds(p, d, 1.0, log_sobolev=log_sobolev)


def _ones(grid):
    return constant_field(grid, 1.0)


# every solver that takes p, called with valid arguments besides p
_EXPONENT_ENTRY_POINTS = {
    "minimize_quotient": lambda g, p: minimize_quotient(g, 2.0, p),
    "lambda_of_mu": lambda g, p: lambda_of_mu(g, 2.0, p),
    "estimate_mu2": lambda g, p: estimate_mu2(g, p),
    "fit_scaling_exponent": lambda g, p: fit_scaling_exponent(
        g, p, [1.0, 10.0, 100.0]),
    "j_lambda": lambda g, p: j_lambda(_ones(g), 1.0, p),
    "trace_branch": lambda g, p: trace_branch(g, p, 1.0),
    "newton_solve": lambda g, p: newton_solve(g, p, 1.0, _ones(g)),
    "constant_solution": lambda g, p: constant_solution(g, p, 1.0),
    "el_normalization": lambda g, p: el_normalization(_ones(g), p),
    "optimal_potential": lambda g, p: optimal_potential(_ones(g), 1.0, p),
    "holder_pairing_check": lambda g, p: holder_pairing_check(
        _ones(g), _ones(g), p),
    "nonlinear_flow_run": lambda g, p: nonlinear_flow_run(
        g, p, 1.2, 0.5, _ones(g), 0.01),
}


@pytest.fixture(scope="module")
def ball3_32():
    return build_grid(Domain.ball(3), 32)


@pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 5.5])
@pytest.mark.parametrize("entry", sorted(_EXPONENT_ENTRY_POINTS))
def test_every_solver_applies_the_exponent_rule(ball3_32, entry, p):
    # p <= 0, p = 1 and the super-critical p = 5.5 >= 2* - 1 = 5 of the
    # 3-ball are refused by the one rule, before any solve
    call = _EXPONENT_ENTRY_POINTS[entry]
    if entry == "j_lambda" and p == 1.0:
        # the deficit's log-Sobolev form, which vanishes at the constants
        assert call(ball3_32, p) == pytest.approx(0.0, abs=1e-12)
        return
    with pytest.raises(RangeError, match="p must be positive|"
                       "p = 1 is the log-Sobolev case|not sub-critical"):
        call(ball3_32, p)


def test_rigidity_bounds_guards():
    with pytest.raises(RangeError):
        rigidity_bounds(1.0, 2, 1.0)
    for lam2 in (-1.0, math.inf, math.nan):
        with pytest.raises(RangeError):
            rigidity_bounds(2.0, 2, lam2)
    with pytest.raises(RangeError):
        rigidity_bounds(5.0, 3, 1.0)


def test_beckner_bound_endpoints_and_shape():
    lam2 = 9.87
    # alpha = 1 collapses the ratio to lambda2 for every p
    for p in (0.1, 0.5, 0.9):
        assert beckner_bound(p, lam2, lam2) == pytest.approx(lam2, rel=1e-12)
    lsi = 6.0
    assert beckner_bound(1e-9, lam2, lsi) == pytest.approx(lam2, rel=1e-6)
    assert beckner_bound(1.0 - 1e-9, lam2, lsi) == pytest.approx(lsi, rel=1e-6)
    vals = [beckner_bound(p, lam2, lsi) for p in np.linspace(0.05, 0.95, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v <= lam2 for v in vals)
    with pytest.raises(RangeError):
        beckner_bound(0.5, lam2, lam2 * 1.01)
    with pytest.raises(RangeError):
        beckner_bound(1.5, lam2, lsi)


def test_improvement_phi_zero_and_flat():
    ex = make_exponents(2.0, 3, beta=5.0 / 3.0)
    res = improvement_phi(0.0, ex, 0.9)
    assert res == (0.0, 0.0, 0.0)
    # vanishing dissipation coefficient freezes phi at the identity
    theta0 = theta_star(2.0, 3) * (1.0 + 1e-12)
    for s in (0.05, 0.2, 0.4):
        res = improvement_phi(s, ex, theta0)
        assert res.phi_ode == pytest.approx(s, abs=1e-10)
        assert res.Phi == pytest.approx(s, abs=1e-10)


def test_improvement_phi_strict_gain():
    ex = make_exponents(2.0, 3, beta=5.0 / 3.0)
    assert r_coefficient(0.9, ex.beta, 2.0, 3) > 0.0
    last = 0.0
    for s in np.linspace(0.05, 0.5, 6):
        res = improvement_phi(float(s), ex, 0.9)
        assert res.Phi > s
        assert res.phi_ode > last  # monotone in s
        last = res.phi_ode
        # evidence, not an assertion: the two phi routes are both reported
        assert math.isfinite(res.phi_closed)


def test_improvement_phi_domain_errors():
    ex = make_exponents(2.0, 3, beta=5.0 / 3.0)
    with pytest.raises(RangeError):
        improvement_phi(1.5, ex, 0.9)     # 1 - (p-1)s <= 0
    with pytest.raises(RangeError):
        improvement_phi(0.1, ex, 0.2)     # theta below threshold
    with pytest.raises(RangeError):
        improvement_phi(0.1, make_exponents(2.0, 3, beta=0.5), 0.9)


def test_scaling_exponent_hand_values():
    assert scaling_exponent(3.0, 2) == pytest.approx(0.5, abs=1e-15)
    assert scaling_exponent(3.0, 1) == pytest.approx(0.75, abs=1e-15)
    assert scaling_exponent(5.0, 3) == pytest.approx(0.0, abs=1e-15)
    assert scaling_exponent(1.0 + 1e-12, 5) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(RangeError):
        scaling_exponent(0.5, 2)


def test_p_sharp_and_vartheta():
    for d in (2, 3, 4):
        ps = p_sharp(d)
        assert vartheta(ps - 1e-9, d) < 1.0
        assert vartheta(ps + 1e-9, d) > 1.0
    assert p_sharp(1) == math.inf
