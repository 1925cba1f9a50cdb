
import numpy as np
import pytest

from neumann_rigidity import flow
from neumann_rigidity import (Field, PositivityError, RangeError,
                              accumulated_dissipation_bound, constant_field,
                              demange_check,
                              entropy_production_inequality_check,
                              fitted_decay_rate, heat_flow_run,
                              make_exponents, nonlinear_flow_run,
                              smooth_random_field, spectral_gap)
from neumann_rigidity.constants import beta_roots, r_coefficient, theta_star
from neumann_rigidity.rng import SplitMix64


def _perturbed(grid, amp=0.1, squared=False):
    u2 = spectral_gap(grid).eigenfunction.values
    base = np.maximum(1.0 + amp * u2, 1e-3)
    return Field(grid, base**2 if squared else base)


def test_heat_flow_constant_is_stationary(square32):
    tr = heat_flow_run(square32, 0.5, constant_field(square32, 2.0), 0.02)
    assert np.allclose(tr.entropy_e, 0.0, atol=1e-13)
    assert np.allclose(tr.production_i, 0.0, atol=1e-13)
    assert np.allclose(tr.j_lambda, 0.0, atol=1e-13)
    assert np.allclose(tr.mass, tr.mass[0], rtol=1e-14)


def test_heat_flow_square(square64):
    g = square64
    lam2 = spectral_gap(g).eigenvalue
    tr = heat_flow_run(g, 0.5, _perturbed(g, 0.1, squared=True), 0.35)
    # exact mass conservation of the explicit scheme
    assert np.abs(tr.mass - tr.mass[0]).max() / tr.mass[0] < 1e-10
    # deficit functional nonincreasing at every stored step
    dj = np.diff(tr.j_lambda)
    assert np.all(dj <= 1e-10 * np.abs(tr.j_lambda[:-1]) + 1e-12)
    # measured exponential rate of the Dirichlet energy
    rate = fitted_decay_rate(tr)
    assert rate >= lam2 * 0.95
    # long-time limit: entropy nearly gone, decaying monotonically
    assert tr.entropy_e[-1] < 1e-2 * tr.entropy_e[0]
    assert np.all(np.diff(tr.entropy_e) <= 1e-12 * tr.entropy_e[0])
    assert tr.min_v.min() > 0.0
    assert np.all(np.diff(tr.times) > 0.0)


def test_heat_flow_rate_second_exponent(square32):
    # p = 0.3: the guaranteed rate is 4(r-1)/r * lambda2 with r = 2/(p+1)
    g = square32
    lam2 = spectral_gap(g).eigenvalue
    p = 0.3
    r = 2.0 / (p + 1.0)
    tr = heat_flow_run(g, p, _perturbed(g, 0.1, squared=True), 0.3)
    assert fitted_decay_rate(tr) >= 4.0 * (r - 1.0) / r * lam2 * 0.95


def test_heat_flow_guards(square32):
    with pytest.raises(RangeError):
        heat_flow_run(square32, 1.5, constant_field(square32, 1.0), 0.01)
    with pytest.raises(PositivityError):
        heat_flow_run(square32, 0.5, constant_field(square32, -1.0), 0.01)


def test_nonlinear_flow_constant_is_stationary(square32):
    p, theta = 2.0, 0.9
    roots = beta_roots(theta, p, 2)
    beta = 0.5 * (roots.beta_minus + roots.beta_plus)
    tr = nonlinear_flow_run(square32, p, beta, theta,
                            constant_field(square32, 1.3), 0.01)
    assert np.allclose(tr.mass, tr.mass[0], rtol=1e-14)
    assert np.allclose(tr.j_lambda, 0.0, atol=1e-12)


def test_nonlinear_flow_square_midpoint(square64):
    g = square64
    p, theta = 2.0, 0.9
    lam2 = spectral_gap(g).eigenvalue
    roots = beta_roots(theta, p, 2)
    beta = 0.5 * (roots.beta_minus + roots.beta_plus)
    tr = nonlinear_flow_run(g, p, beta, theta, _perturbed(g, 0.2), 0.25)
    drift = np.abs(tr.mass - tr.mass[0]).max() / tr.mass[0]
    assert drift < 1e-6
    dj = np.diff(tr.j_lambda)
    assert np.all(dj <= 1e-10 * np.abs(tr.j_lambda[:-1]) + 1e-12)
    # deviation decays while positive
    assert tr.j_lambda[-1] < 0.05 * tr.j_lambda[0]
    lhs, rhs = accumulated_dissipation_bound(tr)
    assert lhs <= rhs + 1e-4 * abs(rhs) + 1e-12
    ex = make_exponents(p, 2, beta=beta)
    rep = entropy_production_inequality_check(tr, ex, theta, lam2)
    assert rep.fraction_satisfied >= 0.99


def test_nonlinear_flow_admissible_window(square64):
    # theta close to the threshold puts the midpoint inside the R > 0 window
    g = square64
    p, theta = 2.0, 0.22
    roots = beta_roots(theta, p, 2)
    beta = 0.5 * (roots.beta_minus + roots.beta_plus)
    assert r_coefficient(theta, beta, p, 2) > 0.0
    tr = nonlinear_flow_run(g, p, beta, theta, _perturbed(g, 0.2), 0.08)
    assert np.abs(tr.mass - tr.mass[0]).max() / tr.mass[0] < 1e-6
    dj = np.diff(tr.j_lambda)
    assert np.all(dj <= 1e-10 * np.abs(tr.j_lambda[:-1]) + 1e-12)
    lhs, rhs = accumulated_dissipation_bound(tr)
    assert lhs >= 0.0
    assert lhs <= rhs + 1e-4 * abs(rhs)


def test_nonlinear_flow_guards(square32):
    with pytest.raises(RangeError):
        nonlinear_flow_run(square32, 2.0, 0.5, 0.1,
                           constant_field(square32, 1.0), 0.01)
    with pytest.raises(PositivityError):
        nonlinear_flow_run(square32, 2.0, 0.5, 0.9,
                           constant_field(square32, -1.0), 0.01)
    with pytest.raises(RangeError):
        nonlinear_flow_run(square32, 2.0, 0.0, 0.9,
                           constant_field(square32, 1.0), 0.01)


def test_demange_constant_and_random(interval128, square32):
    lhs, rhs = demange_check(constant_field(interval128, 2.0), 5.0 / 3.0, 2.0)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)
    for g in (interval128, square32):
        rng = SplitMix64(7)
        for k in range(50):
            v = Field(g, smooth_random_field(g, rng.spawn(k), amp=0.6, modes=4))
            lhs, rhs = demange_check(v, 5.0 / 3.0, 2.0)
            assert lhs >= rhs - 1e-10


def test_demange_near_constant_ratio(interval256):
    g = interval256
    u2 = spectral_gap(g).eigenfunction.values
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        v = Field(g, 1.0 + eps * u2)
        lhs, rhs = demange_check(v, 5.0 / 3.0, 2.0)
        ratios.append(lhs / rhs)
    # both sides vanish at the same quartic order; the ratio stays bounded
    assert all(1.0 <= r < 10.0 for r in ratios)


def test_demange_range_guards(interval128):
    v = constant_field(interval128, 1.0)
    with pytest.raises(RangeError):
        demange_check(v, 1.0, 2.0)        # needs beta > 1
    with pytest.raises(RangeError):
        demange_check(v, 2.5, 2.0)        # beta <= 2/(3-p) for p < 3
    with pytest.raises(PositivityError):
        demange_check(constant_field(interval128, -1.0), 5.0 / 3.0, 2.0)


def test_entropy_production_r_zero_collapse(square64):
    # at the threshold double root the inequality reduces to i' <= Lam e'
    g = square64
    p = 2.0
    theta = theta_star(p, 2) * (1.0 + 1e-9)
    beta = (2.0 + 2.0) / (2.0 + 2.0 - p)
    lam2 = spectral_gap(g).eigenvalue
    tr = nonlinear_flow_run(g, p, beta, theta, _perturbed(g, 0.15), 0.1)
    ex = make_exponents(p, 2, beta=beta)
    rep = entropy_production_inequality_check(tr, ex, theta, lam2)
    assert rep.fraction_satisfied >= 0.99


def test_entropy_production_short_trace_guard(square32):
    p, theta = 2.0, 0.9
    roots = beta_roots(theta, p, 2)
    beta = 0.5 * (roots.beta_minus + roots.beta_plus)
    tr = nonlinear_flow_run(square32, p, beta, theta, _perturbed(square32), 0.01,
                            n_store=4)
    ex = make_exponents(p, 2, beta=beta)
    with pytest.raises(RangeError):
        entropy_production_inequality_check(tr, ex, theta, 1.0)


def _checkerboard(grid):
    i, j = np.indices(grid.shape)
    return (-1.0) ** (i + j)


def test_rkl2_checkerboard_stability_edge(square32):
    # the checkerboard is an exact eigenvector of the Neumann Laplacian with
    # eigenvalue -8/h^2, where forward Euler is stable up to dt = h^2/4;
    # s stages are stable up to (s^2+s-2)/4 of that step and no further
    g = square32
    h2 = g.h_min**2
    y0 = _checkerboard(g)
    assert np.allclose(g.laplacian(y0), -8.0 / h2 * y0, rtol=1e-12)
    for s in range(2, 16):
        dt = (s * s + s - 2) / 4.0 * h2 / 4.0
        edge = np.abs(flow._rkl2_step(g.laplacian, y0, dt, s)).max()
        assert edge <= 1.0 + 1e-12
        beyond = np.abs(flow._rkl2_step(g.laplacian, y0, 1.05 * dt, s)).max()
        if s % 2 == 0:
            assert beyond > 1.0


def test_rkl2_stage_count_is_least():
    for ratio in (0.3, 1.0, 1.0001, 7.5, 36.7, 1e4):
        s = flow._rkl2_stages(ratio, 1.0)
        assert (s * s + s - 2) / 4.0 >= ratio
        assert s == 2 or ((s - 1) ** 2 + (s - 1) - 2) / 4.0 < ratio


def _max_rel_dev(a, b):
    return max(float(np.abs(x - y).max() / np.abs(y).max())
               for x, y in zip(a, b))


def _heat_series(tr, every=1):
    return [tr.production_i[::every], tr.entropy_e[::every],
            tr.j_lambda[::every]]


def test_heat_flow_second_order(square32):
    g = square32
    v0 = _perturbed(g, 0.1, squared=True)
    t_end = 0.05
    ref = heat_flow_run(g, 0.5, v0, t_end, n_store=640)
    coarse = heat_flow_run(g, 0.5, v0, t_end, n_store=10)
    fine = heat_flow_run(g, 0.5, v0, t_end, n_store=20)
    dev_coarse = _max_rel_dev(_heat_series(coarse), _heat_series(ref, 64))
    dev_fine = _max_rel_dev(_heat_series(fine, 2), _heat_series(ref, 64))
    assert dev_fine * 3.0 <= dev_coarse


def test_flows_store_each_sample_time(square32):
    g = square32
    p, theta = 2.0, 0.9
    roots = beta_roots(theta, p, 2)
    beta = 0.5 * (roots.beta_minus + roots.beta_plus)
    t_end, n = 0.03, 37
    expected = np.arange(n + 1) * t_end / n
    heat = heat_flow_run(g, 0.5, _perturbed(g, 0.2, squared=True), t_end,
                         n_store=n)
    nonlin = nonlinear_flow_run(g, p, beta, theta, _perturbed(g, 0.2), t_end,
                                n_store=n)
    for tr in (heat, nonlin):
        assert np.array_equal(tr.times, expected)
        assert tr.steps == n and tr.halvings == 0
        assert np.abs(tr.mass - tr.mass[0]).max() / tr.mass[0] <= 1e-12


def test_nonlinear_flow_matches_forward_euler(square32):
    g = square32
    p, theta = 2.0, 0.9
    roots = beta_roots(theta, p, 2)
    beta = 0.5 * (roots.beta_minus + roots.beta_plus)
    v0 = _perturbed(g, 0.2)
    t_end, n = 0.04, 40
    tr = nonlinear_flow_run(g, p, beta, theta, v0, t_end, n_store=n)

    # forward Euler in the same density at a tenth of the default stage bound
    kappa, m_exp = beta * (p - 1.0) + 1.0, beta * (p + 1.0)
    lam = (1.0 - theta) * spectral_gap(g).eigenvalue
    m = v0.values**m_exp
    rows, t = [], 0.0
    for k in range(n + 1):
        t_k = k * t_end / n
        while t < t_k:
            v = m ** (1.0 / m_exp)
            left = t_k - t
            dt = min(left, 0.05 * g.h_min**2
                     * (v ** (2.0 * beta - 2.0)).min() / (2.0 * g.dim))
            m = m - dt * m_exp * g.weighted_stiffness_apply(v**kappa, v) / g.weights
            t = t_k if dt == left else t + dt
        u = (m ** (1.0 / m_exp)) ** beta
        e, i = flow._entropy_pair(g, u, p)
        rows.append((i, e, i - lam * e))
    ref = np.asarray(rows).T
    got = [tr.production_i, tr.entropy_e, tr.j_lambda]
    assert _max_rel_dev(got, ref) <= 1e-5


def test_work_record_on_benchmark_configs(square64, monkeypatch):
    # the flow-square64 benchmark ops, with every step's stage count logged
    g = square64
    stages = []
    step = flow._rkl2_step

    def logged(rhs, y, dt, s):
        stages.append(s)
        return step(rhs, y, dt, s)

    monkeypatch.setattr(flow, "_rkl2_step", logged)
    runs = [nonlinear_flow_run(g, 2.0, -0.6923, 0.9, _perturbed(g, 0.1),
                               0.25),
            heat_flow_run(g, 0.5, _perturbed(g, 0.1, squared=True), 0.35)]
    counted = 0
    for tr in runs:
        assert tr.halvings == 0
        assert tr.steps == 400 and tr.times.size == 401
        assert tr.rhs_evals == sum(stages[counted:counted + tr.steps])
        counted += tr.steps
    assert counted == len(stages)


def test_flow_failure_carries_time_and_step(square32, monkeypatch):
    step = flow._rkl2_step
    calls = []

    def failing_after_three(rhs, y, dt, s):
        calls.append(dt)
        return step(rhs, y, dt, s) if len(calls) <= 3 else -np.abs(y)

    monkeypatch.setattr(flow, "_rkl2_step", failing_after_three)
    t_end, n = 0.02, 10
    with pytest.raises(PositivityError) as info:
        heat_flow_run(square32, 0.5, _perturbed(square32, 0.1, squared=True),
                      t_end, n_store=n)
    assert info.value.t == 3 * t_end / n
    assert info.value.dt == calls[-1]
    assert info.value.dt == pytest.approx(t_end / n / 2**39, rel=1e-12)
