"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
per criterion. Tolerances are fixed here, not calibrated at run time.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import jn_zeros

from neumann_rigidity import (Field, accumulated_dissipation_bound,
                              beckner_bound, check_lin_interp_inequality,
                              constant_field, demange_check,
                              entropy_production_inequality_check,
                              estimate_lambda_star, estimate_mu1,
                              estimate_mu2, fit_scaling_exponent,
                              fitted_decay_rate, heat_flow_run,
                              improvement_phi, klt_duality_check,
                              make_exponents, minimize_quotient, newton_solve,
                              nonlinear_flow_run, r_coefficient,
                              smooth_random_field, spectral_gap, theta_star,
                              trace_branch)
from neumann_rigidity.cli import main as cli_main
from neumann_rigidity.constants import beta_roots
from neumann_rigidity.rng import SplitMix64

PI2 = math.pi**2


@contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {label}")


def test_criterion_01_closed_form_identities():
    with verdict(1, "closed-form identities"):
        for d in range(2, 7):
            assert abs((1.0 - theta_star(1.0, d)) - 4.0 * d / (d + 1) ** 2) \
                <= 1e-14
            crit = (d + 2.0) / (d - 2.0) - 1.0 if d >= 3 else math.inf
            for p in (0.5, 2.0, 3.0):
                if p >= crit:
                    continue
                ts = theta_star(p, d)
                a = ((d - 1.0) / (d + 2.0)) ** 2 * p**2 / ts - p + 1.0
                b = 1.0 - p / (d + 2.0)
                assert abs(b * b - a) <= 1e-10
                root = b / a
                assert abs(root - (d + 2.0) / (d + 2.0 - p)) <= \
                    1e-10 * (d + 2.0) / (d + 2.0 - p)


def test_criterion_02_spectral_gap(interval256, square64, ball256):
    with verdict(2, "spectral gap accuracy and operator equality"):
        gi = spectral_gap(interval256)
        assert abs(gi.eigenvalue - PI2) / PI2 < 0.002
        gs = spectral_gap(square64)
        assert abs(gs.eigenvalue - PI2) / PI2 < 0.01
        gb = spectral_gap(ball256)
        target = math.pi * jn_zeros(1, 1)[0] ** 2
        assert abs(gb.eigenvalue - target) / target < 0.005
        for pair in (gi, gs, gb):
            lhs, rhs = check_lin_interp_inequality(pair.eigenfunction)
            assert abs(lhs - rhs) / rhs < 1e-8


def test_criterion_03_rigidity_regime(square64):
    with verdict(3, "rigidity regime on the square"):
        g = square64
        lam2 = spectral_gap(g).eigenvalue
        lam = 0.5 * (1.0 - theta_star(2.0, 2)) * lam2 / (2.0 - 1.0)
        sol = minimize_quotient(g, lam, 2.0)
        assert abs(sol.mu_out - lam) <= 1e-6 * lam
        assert sol.constant_deviation < 1e-6
        c = lam ** (1.0 / (2.0 - 1.0))
        rng = SplitMix64(2026)
        for k in range(10):
            u0 = Field(g, c * smooth_random_field(g, rng.spawn(k), amp=0.35))
            bp = newton_solve(g, 2.0, lam, u0)
            assert bp.deviation < 1e-6


def test_criterion_04_symmetry_breaking(interval256):
    with verdict(4, "symmetry breaking on the interval"):
        g = interval256
        lam2 = spectral_gap(g).eigenvalue
        tr = trace_branch(g, 2.0, 0.8 * lam2, direction=1)
        assert tr.bifurcation_lambda is not None
        assert abs(tr.bifurcation_lambda - PI2) / PI2 < 0.02
        lam = 4.0 * lam2
        sol = minimize_quotient(g, lam, 2.0)
        assert sol.mu_out < lam - 1e-3 * lam
        assert sol.constant_deviation > 1e-3


def test_criterion_05_mu_ordering(square64):
    with verdict(5, "threshold ordering and two-sided bracket"):
        g = square64
        lam2 = spectral_gap(g).eigenvalue
        for p in (0.5, 2.0):
            s = abs(p - 1.0)
            bracket = estimate_mu2(g, p, tol=0.01)
            assert not bracket.open_upper
            lo_win = (1.0 - theta_star(p, 2)) * lam2 / s * 0.98
            hi_win = lam2 / s * 1.02
            assert bracket.mu2_lo >= lo_win
            assert bracket.mu2_hi <= hi_win
            trace = trace_branch(g, p, 0.8 * lam2 / s, direction=1, n_max=120)
            mu1 = estimate_mu1(trace)
            assert mu1 is not None
            mu2_est = 0.5 * (bracket.mu2_lo + bracket.mu2_hi)
            assert mu1 <= mu2_est * 1.02


def test_criterion_06_heat_flow_decay(square64):
    with verdict(6, "heat-flow decay and deficit monotonicity"):
        g = square64
        lam2 = spectral_gap(g).eigenvalue
        x = g.axes[0][:, None] + 0.0 * g.axes[1][None, :]
        v0 = Field(g, (1.0 + 0.1 * np.cos(np.pi * x)) ** 2)
        tr = heat_flow_run(g, 0.5, v0, t_end=0.35)
        rate = fitted_decay_rate(tr)
        assert rate >= lam2 * (1.0 - 0.05)
        dj = np.diff(tr.j_lambda)
        assert np.all(dj <= 1e-10 * np.abs(tr.j_lambda[:-1]) + 1e-12)


def test_criterion_07_nonlinear_flow_ledger(square64):
    with verdict(7, "nonlinear-flow conservation and dissipation ledger"):
        g = square64
        p, theta = 2.0, 0.9
        lam2 = spectral_gap(g).eigenvalue
        roots = beta_roots(theta, p, 2)
        beta = 0.5 * (roots.beta_minus + roots.beta_plus)
        u2 = spectral_gap(g).eigenfunction.values
        v0 = Field(g, np.maximum(1.0 + 0.2 * u2, 1e-3))
        tr = nonlinear_flow_run(g, p, beta, theta, v0, t_end=0.25)
        drift = np.abs(tr.mass - tr.mass[0]).max() / tr.mass[0]
        assert drift < 1e-6
        dj = np.diff(tr.j_lambda)
        assert np.all(dj <= 1e-10 * np.abs(tr.j_lambda[:-1]) + 1e-12)
        lhs, rhs = accumulated_dissipation_bound(tr)
        assert lhs <= rhs + 1e-4 * abs(rhs) + 1e-12
        ex = make_exponents(p, 2, beta=beta)
        rep = entropy_production_inequality_check(tr, ex, theta, lam2)
        assert rep.fraction_satisfied >= 0.99


def test_criterion_08_klt_duality(interval256):
    with verdict(8, "ground-state duality on the interval"):
        g = interval256
        bracket = estimate_mu2(g, 2.0, tol=0.01)
        mid = 0.5 * (bracket.mu2_lo + bracket.mu2_hi)
        for mu in np.geomspace(0.3 * mid, 3.0 * mid, 8):
            res = klt_duality_check(g, 2.0, float(mu))
            assert res.relative_gap < 1e-4
            if mu < bracket.mu2_lo:
                assert abs(res.nu - mu) / mu < 1e-6


def test_criterion_09_beckner_consistency(interval256):
    with verdict(9, "interpolated lower bound consistency"):
        g = interval256
        lam2 = spectral_gap(g).eigenvalue
        lsi = min(estimate_lambda_star(g, 1.0), lam2)
        for p in (0.25, 0.5, 0.75):
            est = estimate_lambda_star(g, p)
            assert beckner_bound(p, lam2, lsi) <= est * 1.01
        assert abs(beckner_bound(1e-9, lam2, lsi) - lam2) / lam2 < 1e-3
        assert abs(beckner_bound(1.0 - 1e-9, lam2, lsi) - lsi) / lsi < 1e-3


def test_criterion_10_improvement_function(interval128):
    with verdict(10, "improvement function and quartic interpolation"):
        ex = make_exponents(2.0, 3, beta=5.0 / 3.0)
        theta = 0.9
        assert r_coefficient(theta, ex.beta, 2.0, 3) > 0.0
        assert improvement_phi(0.0, ex, theta).Phi == 0.0
        for s in np.linspace(0.05, 0.5, 10):
            assert improvement_phi(float(s), ex, theta).Phi > s
        theta0 = theta_star(2.0, 3) * (1.0 + 1e-12)
        for s in (0.1, 0.3, 0.5):
            assert abs(improvement_phi(s, ex, theta0).Phi - s) <= 1e-10
        rng = SplitMix64(77)
        for k in range(100):
            v = Field(interval128,
                      smooth_random_field(interval128, rng.spawn(k),
                                          amp=0.6, modes=4))
            lhs, rhs = demange_check(v, 5.0 / 3.0, 2.0)
            assert lhs >= rhs - 1e-10


def test_criterion_11_scaling_exponent():
    with verdict(11, "large-parameter scaling exponent"):
        from neumann_rigidity import Domain, build_grid
        g = build_grid(Domain.box(1.0), 512)
        slope = fit_scaling_exponent(g, 3.0, np.geomspace(1e2, 10**3.5, 8))
        assert abs(slope - 0.75) / 0.75 < 0.10


def test_criterion_12_determinism(tmp_path):
    with verdict(12, "byte-identical reruns"):
        for args, name in (
            (["quotient", "--domain", "interval", "--n", "64", "--p", "2",
              "--lambda", "2:40:4", "--seed", "11"], "q"),
            (["klt", "--domain", "interval", "--n", "64", "--p", "2",
              "--mu", "3:30:3", "--seed", "11"], "k"),
        ):
            a = tmp_path / f"{name}_a.csv"
            b = tmp_path / f"{name}_b.csv"
            assert cli_main(args + ["--out", str(a)]) == 0
            assert cli_main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
