
import dataclasses

import numpy as np
import pytest

from neumann_rigidity import flow
from neumann_rigidity import grid as gmod
from neumann_rigidity import (Domain, Field, PositivityError, RangeError,
                              accumulated_dissipation_bound, build_grid,
                              constant_field,
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
    with pytest.raises(RangeError):
        heat_flow_run(square32, 0.5, constant_field(square32, 1.0), 0.01,
                      n_store=0)


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
    with pytest.raises(RangeError):
        nonlinear_flow_run(square32, 2.0, 0.5, 0.9,
                           constant_field(square32, 1.0), 0.01, n_store=0)


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


def _rkl2_step_reference(rhs, y0, dt, s):
    # the stage recursion written with a fresh array per term
    w1 = 4.0 / (s * s + s - 2.0)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2.0) / (2.0 * j * (j + 1.0))
                           for j in range(3, s + 1)]
    f0 = dt * rhs(y0)
    d_prev2 = np.zeros_like(y0)
    d_prev = (b[1] * w1) * f0
    for j in range(2, s + 1):
        mu = (2.0 * j - 1.0) / j * b[j] / b[j - 1]
        nu = -(j - 1.0) / j * b[j] / b[j - 2]
        mu_t = mu * w1
        gamma_t = -(1.0 - b[j - 1]) * mu_t
        d = (mu * d_prev + nu * d_prev2 + (mu_t * dt) * rhs(y0 + d_prev)
             + gamma_t * f0)
        d_prev2, d_prev = d_prev, d
    return y0 + d_prev


def test_rkl2_step_buffers_keep_the_arithmetic(square32):
    # the in-place stage combination rounds exactly as the plain one, also
    # when rhs hands back one shared buffer (as the nonlinear flow's does)
    g = square32
    y0 = _perturbed(g, 0.2).values
    shared = np.empty_like(y0)

    def rhs_shared(y):
        out = g.weighted_stiffness_apply(y**0.3, y, out=shared)
        out /= g.weights
        return out

    def rhs_fresh(y):
        return g.weighted_stiffness_apply(y**0.3, y) / g.weights

    for s in (2, 3, 7, 12):
        dt = 0.1 * s * s * g.h_min**2
        ref = _rkl2_step_reference(rhs_fresh, y0, dt, s)
        assert np.array_equal(flow._rkl2_step(rhs_shared, y0, dt, s), ref)
        assert np.array_equal(flow._rkl2_step(rhs_fresh, y0, dt, s), ref)


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


def _rkl2_heat_series(g, p, v0, t_end, n_store):
    # the heat flow integrated with one RKL2 step on the Laplacian per
    # stored sample, recorded as heat_flow_run records it
    lam = (1.0 - p) * spectral_gap(g).eigenvalue
    dt_stage = flow._CFL * g.h_min**2 / (2.0 * g.dim)
    v, t, rows = v0.values.copy(), 0.0, []
    for k in range(n_store + 1):
        t_k = k * t_end / n_store
        if k:
            s = flow._rkl2_stages(t_k - t, dt_stage)
            v, t = flow._rkl2_step(g.laplacian, v, t_k - t, s), t_k
        u = v ** (1.0 / (p + 1.0))
        e, i = flow._entropy_pair(g, u, p, g.lp_norm(u, p + 1.0) ** (p + 1.0))
        rows.append((i, e, i - lam * e))
    return [np.asarray(c) for c in zip(*rows)]


# an interval, a non-square rectangle, a 3-box and a radial 3-ball
_MODAL_GRIDS = [lambda: build_grid(Domain.box(1.0), 96),
                lambda: build_grid(Domain.box(1.0, 1.7), (24, 40)),
                lambda: build_grid(Domain.box(1.5, 1.0, 0.75), (10, 9, 8)),
                lambda: build_grid(Domain.ball(3, 1.0), 128)]
_MODAL_IDS = ["interval", "rectangle24x40", "box10x9x8", "ball3"]


def test_heat_flow_second_order(square32):
    # RKL2 on the heat flow converges at second order to the exact trace
    g = square32
    v0 = _perturbed(g, 0.1, squared=True)
    t_end = 0.05
    ref = heat_flow_run(g, 0.5, v0, t_end, n_store=640)
    coarse = _rkl2_heat_series(g, 0.5, v0, t_end, 10)
    fine = _rkl2_heat_series(g, 0.5, v0, t_end, 20)
    dev_coarse = _max_rel_dev(coarse, _heat_series(ref, 64))
    dev_fine = _max_rel_dev([c[::2] for c in fine], _heat_series(ref, 64))
    assert dev_fine * 3.0 <= dev_coarse


@pytest.mark.parametrize("make", _MODAL_GRIDS, ids=_MODAL_IDS)
def test_heat_modes_solve_each_axis_pencil(make):
    g = make()
    modes = g.heat_modes()
    assert g.heat_modes() is modes
    assert len(modes) == g.ndim_data
    for a, (lam, c) in enumerate(modes):
        if g.domain.kind == "box":
            n, h = g.shape[a], g.spacing[a]
            k = g._axis_tridiag(np.full(n - 1, 1.0 / h), n)
            w = np.full(n, h)
            w[[0, -1]] = 0.5 * h
        else:
            k, w = g.sparse_stiffness(), g.weights
        k = k.toarray()
        assert c.shape == k.shape
        assert lam[0] == 0.0
        assert np.all(np.diff(lam) > 0.0)
        resid = k @ c - (w[:, None] * c) * lam[None, :]
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(k)
        assert np.abs(c.T @ (w[:, None] * c) - np.eye(lam.size)).max() <= 1e-12
    # the products of the axis modes are modes of the grid's own K and M
    rng = np.random.default_rng(3)
    for _ in range(5):
        picks = [int(rng.integers(lam.size)) for lam, _ in modes]
        vec = np.ones(g.shape)
        lam_sum = 0.0
        for a, ((lam, c), j) in enumerate(zip(modes, picks)):
            shape = [1] * g.ndim_data
            shape[a] = -1
            vec = vec * c[:, j].reshape(shape)
            lam_sum += lam[j]
        lhs = g.stiffness_apply(vec)
        assert np.abs(lhs - lam_sum * g.weights * vec).max() <= (
            1e-10 * np.abs(lhs).max() + 1e-12 * lam_sum)


@pytest.mark.parametrize("make", _MODAL_GRIDS, ids=_MODAL_IDS)
def test_heat_flow_exact_in_time(make):
    # the modal propagator conserves mass to round-off and its samples do
    # not depend on how many of them are stored
    g = make()
    v0 = _perturbed(g, 0.1, squared=True)
    dense = heat_flow_run(g, 0.5, v0, 0.05, n_store=400)
    sparse_tr = heat_flow_run(g, 0.5, v0, 0.05, n_store=10)
    for tr in (dense, sparse_tr):
        assert np.abs(tr.mass - tr.mass[0]).max() / tr.mass[0] <= 1e-12
    assert np.allclose(dense.times[::40], sparse_tr.times, rtol=1e-15, atol=0.0)
    assert _max_rel_dev(_heat_series(sparse_tr),
                        _heat_series(dense, 40)) <= 1e-12
    assert (dense.steps, dense.rhs_evals, dense.halvings) == (400, 0, 0)


def test_heat_flow_matches_fine_rkl2(square32):
    g = square32
    v0 = _perturbed(g, 0.1, squared=True)
    t_end, n = 0.05, 640
    ref = _rkl2_heat_series(g, 0.5, v0, t_end, n)
    tr = heat_flow_run(g, 0.5, v0, t_end, n_store=n)
    assert _max_rel_dev(_heat_series(tr), ref) <= 1e-5


def test_heat_flow_failure_carries_time_and_step(square32, monkeypatch):
    # call 1 maps v0 to modal coefficients, call k + 1 maps sample k back
    products = gmod._axis_products
    calls = []

    def negative_after_three(mats, x):
        calls.append(1)
        out = products(mats, x)
        return out if len(calls) <= 4 else -np.abs(out)

    monkeypatch.setattr(gmod, "_axis_products", negative_after_three)
    t_end, n = 0.02, 10
    with pytest.raises(PositivityError) as info:
        heat_flow_run(square32, 0.5, _perturbed(square32, 0.1, squared=True),
                      t_end, n_store=n)
    assert info.value.t == 3 * t_end / n
    assert info.value.dt == t_end / n


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

    # forward Euler in the same density, with steps small enough that its
    # own first-order error stays well below the tolerance
    kappa, m_exp = beta * (p - 1.0) + 1.0, beta * (p + 1.0)
    lam = (1.0 - theta) * spectral_gap(g).eigenvalue
    m = v0.values**m_exp
    rows, t = [], 0.0
    for k in range(n + 1):
        t_k = k * t_end / n
        while t < t_k:
            v = m ** (1.0 / m_exp)
            left = t_k - t
            dt = min(left, 0.0125 * g.h_min**2
                     * (v ** (2.0 * beta - 2.0)).min() / (2.0 * g.dim))
            m = m - dt * m_exp * g.weighted_stiffness_apply(v**kappa, v) / g.weights
            t = t_k if dt == left else t + dt
        u = (m ** (1.0 / m_exp)) ** beta
        e, i = flow._entropy_pair(g, u, p, g.lp_norm(u, p + 1.0) ** (p + 1.0))
        rows.append((i, e, i - lam * e))
    ref = np.asarray(rows).T
    got = [tr.production_i, tr.entropy_e, tr.j_lambda]
    assert _max_rel_dev(got, ref) <= 1e-5


def test_work_record_on_benchmark_configs(square64, monkeypatch):
    # the flow-square64 benchmark ops, with every RKL2 step's stage count
    # logged; the heat flow is exact in time and takes no RKL2 step
    g = square64
    stages = []
    step = flow._rkl2_step

    def logged(rhs, y, dt, s):
        stages.append(s)
        return step(rhs, y, dt, s)

    monkeypatch.setattr(flow, "_rkl2_step", logged)
    nonlin = nonlinear_flow_run(g, 2.0, -0.6923, 0.9, _perturbed(g, 0.1),
                                0.25)
    assert nonlin.halvings == 0
    assert nonlin.steps == 400 and nonlin.times.size == 401
    assert nonlin.rhs_evals == sum(stages)
    assert len(stages) == nonlin.steps
    heat = heat_flow_run(g, 0.5, _perturbed(g, 0.1, squared=True), 0.35)
    assert (heat.steps, heat.rhs_evals, heat.halvings) == (400, 0, 0)
    assert heat.times.size == 401
    assert len(stages) == nonlin.steps


def test_nonlinear_flow_same_with_per_axis_stiffness_loop(
        square32, monkeypatch, weighted_stiffness_reference):
    # the flat face kernel and the one v per accepted state leave every
    # stored series and the work record as the plain per-axis loop gives;
    # the reference steps from a copy of each state, so its first stage
    # computes v afresh
    g = square32
    p, theta = 2.0, 0.9
    roots = beta_roots(theta, p, 2)
    beta = 0.5 * (roots.beta_minus + roots.beta_plus)
    v0 = _perturbed(g, 0.2)
    fast = nonlinear_flow_run(g, p, beta, theta, v0, 0.01, n_store=40)
    step = flow._rkl2_step
    monkeypatch.setattr(flow, "_rkl2_step",
                        lambda rhs, y, dt, s: step(rhs, y.copy(), dt, s))
    monkeypatch.setattr(gmod.Grid, "weighted_stiffness_apply",
                        weighted_stiffness_reference)
    ref = nonlinear_flow_run(g, p, beta, theta, v0, 0.01, n_store=40)
    for f in dataclasses.fields(flow.FlowTrace):
        a, b = getattr(fast, f.name), getattr(ref, f.name)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), f.name
    assert ((fast.steps, fast.rhs_evals, fast.halvings)
            == (ref.steps, ref.rhs_evals, ref.halvings))
    assert fast.rhs_evals > 2 * fast.steps


@pytest.mark.parametrize("kind", ["nonlinear_square32", "heat_ball3"])
def test_samples_take_the_conserved_mass(kind, square32, monkeypatch):
    # each stored mass is the quadrature mass of the advanced density, and
    # each e, taken from it, matches e with ||u||_{p+1} from lp_norm
    states = []
    if kind == "nonlinear_square32":
        g, p, beta = square32, 2.0, -0.6923
        v0 = _perturbed(g)
        # the initial density, then each accepted RKL2 step's state: with
        # no rejected trial and one step per sample, these are the samples
        states.append(v0.values ** (beta * (p + 1.0)))
        step = flow._rkl2_step

        def logged_step(rhs, y, dt, s):
            states.append(step(rhs, y, dt, s))
            return states[-1]

        monkeypatch.setattr(flow, "_rkl2_step", logged_step)
        tr = nonlinear_flow_run(g, p, beta, 0.9, v0, 0.05)
        assert tr.halvings == 0

        def u_of(m):
            return (m ** (1.0 / (beta * (p + 1.0)))) ** beta
    else:
        g, p = build_grid(Domain.ball(3, 1.0), 64), 0.5
        v0 = _perturbed(g, squared=True)
        states.append(v0.values)
        from_modes = g.from_modes

        def logged_from_modes(coeffs):
            states.append(from_modes(coeffs))
            return states[-1]

        monkeypatch.setattr(g, "from_modes", logged_from_modes)
        tr = heat_flow_run(g, p, v0, 0.05)

        def u_of(v):
            return v ** (1.0 / (p + 1.0))
    assert len(states) == tr.times.size
    for k, y in enumerate(states):
        assert tr.mass[k] == g.integrate(y)
        u = u_of(y)
        e = (g.lp_norm(u, p + 1.0) ** 2 - g.integrate(u * u)) / (p - 1.0)
        assert tr.entropy_e[k] == pytest.approx(e, rel=1e-10, abs=0.0)


def test_exp_log_powers_match_array_powers(square64):
    # the powers of the nonlinear benchmark op's initial state, and of
    # states whose v spans the range the flow accepts, down to its
    # positivity floor 1e-10 max v, where |a log m| is largest
    p, beta = 2.0, -0.6923
    kappa, m_exp = beta * (p - 1.0) + 1.0, beta * (p + 1.0)
    v0 = _perturbed(square64).values
    vmax = float(v0.max())
    spread = vmax * np.geomspace(1e-10, 1.0, v0.size)
    spaced = vmax * 10.0 ** np.random.default_rng(3).uniform(-10.0, 0.0,
                                                            v0.size)
    for v in (v0, spread, spaced):
        m = v ** m_exp
        log_m = np.log(m)
        for a in (kappa / m_exp, 1.0 / m_exp):
            ref = m ** a
            got = flow._exp_power(log_m, a)
            err = np.abs(got - ref)
            assert np.all(err <= 1e-14 * np.abs(ref))
            assert np.all(
                err <= (np.abs(a * log_m) + 2.0) * 2.0**-52 * np.abs(ref))


def test_flow_failure_carries_time_and_step(square32, monkeypatch):
    step = flow._rkl2_step
    calls = []

    def failing_after_three(rhs, y, dt, s):
        calls.append(dt)
        return step(rhs, y, dt, s) if len(calls) <= 3 else -np.abs(y)

    monkeypatch.setattr(flow, "_rkl2_step", failing_after_three)
    p, theta = 2.0, 0.9
    roots = beta_roots(theta, p, 2)
    beta = 0.5 * (roots.beta_minus + roots.beta_plus)
    t_end, n = 0.02, 10
    with pytest.raises(PositivityError) as info:
        nonlinear_flow_run(square32, p, beta, theta, _perturbed(square32, 0.1),
                           t_end, n_store=n)
    assert info.value.t == 3 * t_end / n
    assert info.value.dt == calls[-1]
    assert info.value.dt == pytest.approx(t_end / n / 2**39, rel=1e-12)


def test_flow_recovers_after_a_rejected_trial(square32, monkeypatch):
    # the 4th trial (from t_3 to t_4) leaves m non-positive; the step is
    # halved, reaches t_4 in two half steps and the flow runs on
    p, theta = 2.0, 0.9
    roots = beta_roots(theta, p, 2)
    beta = 0.5 * (roots.beta_minus + roots.beta_plus)
    v0 = _perturbed(square32, 0.1)
    t_end, n = 0.02, 10
    plain = nonlinear_flow_run(square32, p, beta, theta, v0, t_end, n_store=n)
    step = flow._rkl2_step
    calls = []

    def failing_fourth(rhs, y, dt, s):
        calls.append(dt)
        return -np.abs(y) if len(calls) == 4 else step(rhs, y, dt, s)

    monkeypatch.setattr(flow, "_rkl2_step", failing_fourth)
    tr = nonlinear_flow_run(square32, p, beta, theta, v0, t_end, n_store=n)
    assert tr.halvings == 1 and tr.steps == n + 1
    assert tr.rhs_evals > plain.rhs_evals
    assert np.array_equal(tr.times, plain.times)
    for f in ("entropy_e", "production_i", "j_lambda", "mass", "min_v",
              "dt_used", "quartic"):
        a, b = getattr(tr, f), getattr(plain, f)
        assert a[:4].tobytes() == b[:4].tobytes(), f
    assert tr.dt_used[4] == pytest.approx(0.5 * t_end / n, rel=1e-12)
    assert np.abs(tr.mass - tr.mass[0]).max() / tr.mass[0] <= 1e-14
