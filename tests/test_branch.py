import math
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from neumann_rigidity import branch as bmod
from neumann_rigidity import (Domain, Field, PositivityError, build_grid,
                              constant_field,
                              constant_solution, el_normalization,
                              estimate_mu1, lambda_of_mu, newton_solve,
                              smooth_random_field, spectral_gap, trace_branch)
from neumann_rigidity.rng import SplitMix64

PI2 = math.pi**2


def test_constant_branch_exactness(interval128):
    for p in (2.0, 3.0, 0.5):
        for lam in (0.3, 1.0, 7.7, 25.0):
            bp = constant_solution(interval128, p, lam)
            assert bp.newton_residual <= 1e-12
            assert bp.deviation == 0.0


def test_newton_from_constant(interval128):
    bp = newton_solve(interval128, 2.0, 5.0, constant_field(interval128, 5.0))
    assert bp.deviation < 1e-10
    assert bp.newton_residual <= 1e-9


def test_newton_rigid_regime_random_starts(interval256):
    g = interval256
    lam = 0.5 * spectral_gap(g).eigenvalue
    c = lam ** (1.0 / (2.0 - 1.0))
    rng = SplitMix64(41)
    for k in range(5):
        u0 = Field(g, c * smooth_random_field(g, rng.spawn(k), amp=0.4))
        bp = newton_solve(g, 2.0, lam, u0)
        assert bp.deviation < 1e-7


def test_rigidity_sweep_square(square32):
    # below the explicit bound every positive start lands on the constant
    from neumann_rigidity import rigidity_bounds
    g = square32
    lam2 = spectral_gap(g).eigenvalue
    p = 2.0
    cap = 0.9 * rigidity_bounds(p, 2, lam2).best_lower / abs(p - 1.0)
    rng = SplitMix64(314)
    for frac in (0.3, 0.65, 1.0):
        lam = frac * cap
        c = lam ** (1.0 / (p - 1.0))
        for k in range(10):
            u0 = Field(g, c * smooth_random_field(g, rng.spawn(k), amp=0.25))
            bp = newton_solve(g, p, lam, u0)
            assert bp.deviation < 1e-6
            # the root is the constant itself, not the zero field
            assert np.abs(bp.solution.values - c).max() / c < 1e-6


def test_newton_nonconstant_past_bifurcation(interval256):
    g = interval256
    lam2 = spectral_gap(g).eigenvalue
    u2 = spectral_gap(g).eigenfunction.values
    lam = 1.2 * lam2
    u0 = Field(g, np.maximum(lam * (1.0 + 0.3 * u2), 1e-3))
    bp = newton_solve(g, 2.0, lam, u0)
    assert bp.deviation > 1e-3
    assert bp.solution.values.min() > 0.0


@pytest.mark.parametrize("p", [2.0, 0.5])
def test_newton_converges_at_the_bifurcation(interval128, p):
    # the constant's Jacobian is singular along u2 at lambda2/|p-1|, but
    # starts off the constant still converge to a positive root
    g = interval128
    gap = spectral_gap(g)
    lam = gap.eigenvalue / abs(p - 1.0)
    c = lam ** (1.0 / (p - 1.0))
    for a in (1e-6, 1e-3, 0.1, 0.5):
        u0 = Field(g, c * (1.0 + a * gap.eigenfunction.values))
        bp = newton_solve(g, p, lam, u0)
        assert bp.lam == lam
        assert bp.newton_residual <= 1e-9
        assert bp.solution.values.min() > 0.0


def test_newton_guards(interval128):
    with pytest.raises(PositivityError):
        newton_solve(interval128, 2.0, 1.0,
                     constant_field(interval128, -1.0))


def test_trace_branch_interval(interval256):
    g = interval256
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, 2.0, 0.8 * lam2, direction=1)
    assert tr.bifurcation_lambda is not None
    assert abs(tr.bifurcation_lambda - PI2) / PI2 < 0.02
    devs = [pt.deviation for pt in tr.points]
    assert max(devs) > 1e-2
    # consecutive points stay within the arclength step budget
    nontrivial = [pt for pt in tr.points if pt.deviation > 0]
    for a, b in zip(nontrivial, nontrivial[1:]):
        d = a.solution.values - b.solution.values
        assert math.sqrt(g.integrate(d * d)) <= 2.0 * 0.5 * max(PI2, 1.0)
    lams = [pt.arclength for pt in nontrivial]
    assert all(s2 >= s1 for s1, s2 in zip(lams, lams[1:]))


def test_trace_branch_degenerate_walk(interval128):
    g = interval128
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, 2.0, 0.5 * lam2, direction=-1)
    assert tr.bifurcation_lambda is None
    assert all(pt.deviation <= 1e-8 for pt in tr.points)


def test_estimate_mu1_interval(interval256):
    g = interval256
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, 2.0, 0.8 * lam2, direction=1)
    mu1 = estimate_mu1(tr)
    assert mu1 is not None
    assert mu1 <= PI2 * 1.02
    assert estimate_mu1([]) is None


def test_trace_branch_radial_ball(ball256):
    g = ball256
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, 2.0, 0.8 * lam2, direction=1, n_max=120)
    mu1 = estimate_mu1(tr)
    assert mu1 is not None
    # a non-constant radial branch exists; its smallest lam is recorded
    assert mu1 <= tr.bifurcation_lambda * 1.01
    assert max(pt.deviation for pt in tr.points) > 1e-2


def _nonconstant_state(g, p):
    # a positive, non-constant u past the bifurcation value
    lam = 1.3 * spectral_gap(g).eigenvalue / abs(p - 1.0)
    u2 = spectral_gap(g).eigenfunction.values
    u = lam ** (1.0 / (p - 1.0)) * (1.0 + 0.2 * u2 / np.abs(u2).max())
    return lam, u


@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("grid_name", ["interval256", "square32", "ball256"])
def test_jacobian_factor_backward_error(grid_name, p, request):
    g = request.getfixturevalue(grid_name)
    lam, u = _nonconstant_state(g, p)
    jac = bmod._Jacobian(g, p)
    jac.refresh(lam, u)
    w = g.mass_vector()
    sign = 1.0 if p > 1.0 else -1.0
    A = sign * g.sparse_stiffness() + sparse.diags(
        w * (lam - p * u.ravel() ** (p - 1.0)))
    rhs = np.random.default_rng(7).standard_normal(g.shape)
    x = jac.solve(rhs)
    assert x.shape == g.shape
    Mrhs = w * rhs.ravel()
    res = np.abs(A @ x.ravel() - Mrhs).max()
    scale = abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(Mrhs).max()
    assert res <= 1e-12 * scale


def test_jacobian_ordering_computed_once_per_grid(monkeypatch):
    g = build_grid(Domain.box(1.0, 1.0), 16)
    specs = []

    def counting_splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(bmod, "splu", counting_splu)
    perms = []
    for p, lam_scale in ((2.0, 1.0), (0.5, 1.0), (2.0, 3.0)):
        lam, u = _nonconstant_state(g, p)
        jac = bmod._Jacobian(g, p)
        jac.refresh(lam_scale * lam, u)
        perms.append(jac.perm)
    assert specs == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL", "NATURAL"]
    assert all(perm is perms[0] for perm in perms)
    assert np.array_equal(np.sort(perms[0]), np.arange(g.n_nodes))
    # the gap mode's subspace has an ordering of its own, probed once and
    # reused across p and lam; the full grid's stays cached beside it
    orbits = bmod._subspace(g, spectral_gap(g).eigenfunction.values)
    reduced = []
    for p, lam_scale in ((2.0, 1.0), (0.5, 1.0), (2.0, 3.0)):
        lam, u = _nonconstant_state(g, p)
        jac = bmod._Jacobian(g, p, orbits)
        jac.refresh(lam_scale * lam, u)
        reduced.append(jac.perm)
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 3 + [
        "MMD_AT_PLUS_A"] + ["NATURAL"] * 3
    assert all(perm is reduced[0] for perm in reduced)
    assert np.array_equal(np.sort(reduced[0]), np.arange(16))
    assert bmod._Jacobian(g, 2.0).perm is perms[0]
    assert len(specs) == 8


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_reduced_jacobian_solve_is_the_full_solve(square32, p):
    # on the gap mode's subspace, P^T A P x_r = P^T M rhs gives the full
    # solution whenever u and rhs lie in the subspace
    g = square32
    lam, u = _nonconstant_state(g, p)
    orbits = bmod._subspace(g, spectral_gap(g).eigenfunction.values)
    assert np.array_equal(orbits, np.repeat(np.arange(32), 32))
    rhs = np.random.default_rng(3).standard_normal(32)[orbits].reshape(
        g.shape)
    full, red = bmod._Jacobian(g, p), bmod._Jacobian(g, p, orbits)
    full.refresh(lam, u)
    red.refresh(lam, u)
    assert (full.unknowns, red.unknowns) == (g.n_nodes, 32)
    x_full, x_red = full.solve(rhs), red.solve(rhs)
    assert np.all(np.ptp(x_red, axis=1) == 0.0)
    assert np.abs(x_red - x_full).max() <= 1e-10 * np.abs(x_full).max()


# (points, first non-constant lam, last lam) of trace_branch on square32
# from 0.8 * lambda2/|p-1|. The first non-constant lam comes from the
# branch switch alone; the point counts and last lam record the step
# sequence of the continuation in the scaled metric (u/c*, ell) under the
# Newton-chord corrector and its growth thresholds
# _SQUARE32_TRACE is the trace on the full grid, _SQUARE32_REDUCED_TRACE
# the default one on the gap mode's subspace. At p = 0.5 the two agree
# for 15 points and then sample the dead-core end differently
_SQUARE32_TRACE = {0.5: (74, 19.72232663250131, 26.92893908967355),
                   2.0: (49, 9.861176864763076, 102.42052485915306)}
_SQUARE32_REDUCED_TRACE = {0.5: (84, 19.72232663250131, 43.89143330327887),
                           2.0: (49, 9.861176864763076, 102.42052485719286)}


def _full_grid(monkeypatch):
    # trace_branch's corrector on every node: the identity subspace
    monkeypatch.setattr(bmod, "_subspace",
                        lambda grid, mode: np.arange(grid.n_nodes))


def _check_square32_pins(g, p, pins):
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    n_points, first_lam, last_lam = pins[p]
    assert len(tr.points) == n_points
    first = next(pt for pt in tr.points if pt.deviation > 0.0)
    assert first.lam == pytest.approx(first_lam, rel=1e-10)
    assert tr.points[-1].lam == pytest.approx(last_lam, rel=1e-10)


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_trace_branch_square32_pins(square32, monkeypatch, p):
    _full_grid(monkeypatch)
    _check_square32_pins(square32, p, _SQUARE32_TRACE)


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_trace_branch_square32_reduced_pins(square32, p):
    _check_square32_pins(square32, p, _SQUARE32_REDUCED_TRACE)


@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("grid_name, collapsed, unknowns", [
    ("square32", 1, 32), ("square64", 1, 64), ("rect16x40", 0, 40)])
def test_reduced_trace_matches_full_trace(grid_name, collapsed, unknowns, p,
                                          request, monkeypatch):
    # the rectangle's gap mode varies along its long axis 1, so axis 0
    # collapses, on a non-square index layout
    g = (build_grid(Domain.box(0.5, 2.0), (16, 40))
         if grid_name == "rect16x40" else request.getfixturevalue(grid_name))
    lam0 = 0.8 * spectral_gap(g).eigenvalue / abs(p - 1.0)
    red = trace_branch(g, p, lam0, direction=1)
    _full_grid(monkeypatch)
    full = trace_branch(g, p, lam0, direction=1)
    assert (red.unknowns, full.unknowns) == (unknowns, g.n_nodes)
    assert estimate_mu1(red) == pytest.approx(estimate_mu1(full), rel=1e-12)
    first_red, first_full = (next(pt.lam for pt in tr.points
                                  if pt.deviation > 0.0)
                             for tr in (red, full))
    assert first_red == pytest.approx(first_full, rel=1e-12)
    if p == 2.0:
        assert len(red.points) == len(full.points)
        assert [pt.lam for pt in red.points] == pytest.approx(
            [pt.lam for pt in full.points], rel=1e-9)
    for pt in red.points:
        u = pt.solution.values
        assert np.all(np.ptp(u, axis=collapsed) == 0.0)
        F = bmod._residual(g, p, pt.lam, u)
        assert bmod._scaled_norm(g, p, pt.lam, u, F) <= 1e-9


def _counting_splu(monkeypatch):
    # every splu call made through the name bound in the branch module
    specs = []

    def counting_splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(bmod, "splu", counting_splu)
    return specs


@pytest.mark.parametrize("p, budget", [(2.0, 50), (0.5, 90)])
def test_trace_branch_square32_factor_budget(square32, monkeypatch, p,
                                             budget):
    specs = _counting_splu(monkeypatch)
    lam2 = spectral_gap(square32).eigenvalue
    tr = trace_branch(square32, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    assert len(specs) <= budget
    assert specs.count("NATURAL") == tr.factorizations
    assert 0 < tr.refactorizations < tr.factorizations


def test_trace_branch_square64_stays_on_axis_branch(square64):
    # lambda2 of the square is double; the trace follows the supercritical
    # axis branch that the gap eigenfunction picks, so lam rises at every
    # point and mu1 is the first non-constant lam. A corrector that drifts
    # along the second eigenfunction lands on the diagonal branch, where
    # lam first falls below that value
    lam2 = spectral_gap(square64).eigenvalue
    tr = trace_branch(square64, 2.0, 0.8 * lam2, direction=1)
    pts = [pt for pt in tr.points if pt.deviation > 0.0]
    assert all(b.lam > a.lam for a, b in zip(pts, pts[1:]))
    assert estimate_mu1(tr) == pts[0].lam


def _corrector_problem(g, p, k=10):
    # the arguments of a half-length continuation step from the k-th
    # non-constant point of the square32 trace, as trace_branch makes them
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    bif = tr.bifurcation_lambda
    scale = bif ** (1.0 / (p - 1.0))
    pts = [pt for pt in tr.points if pt.deviation > 0.0]
    u, ell = pts[k].solution.values, pts[k].lam / bif
    dm = (u - pts[k - 1].solution.values) / scale
    dl = ell - pts[k - 1].lam / bif
    nrm = math.sqrt(g.integrate(dm * dm) + dl * dl)
    tu, tl = dm / nrm, dl / nrm
    ds = 0.5 * nrm
    return (bmod._Jacobian(g, p), u + ds * scale * tu, ell + ds * tl,
            tu / scale, tl, ds, bif, u, ell)


def test_arc_correct_refreshes_stale_factor(square32):
    # at p = 2 such a factor still contracts 4x per step; at p = 0.5 the
    # monitor has to refresh it
    jac, u0, ell0, *rest = _corrector_problem(square32, 0.5)
    lam_ref = rest[3]
    fresh = bmod.BranchTrace([], None)
    _, ell_fresh, res_fresh, _ = bmod._arc_correct(jac, u0, ell0, *rest,
                                                   work=fresh)
    # a factor built at a lam 20% away from the predictor's
    jac = bmod._Jacobian(jac.grid, jac.p)
    jac.refresh(1.2 * lam_ref * ell0, u0)
    stale = bmod.BranchTrace([], None)
    _, ell_stale, res_stale, _ = bmod._arc_correct(jac, u0, ell0, *rest,
                                                   work=stale)
    assert ell_stale == pytest.approx(ell_fresh, rel=1e-8)
    assert max(res_fresh, res_stale) <= 1e-9
    assert stale.refactorizations >= 1
    assert jac.lu is not None


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_trace_branch_keeps_one_factor_alive(square32, monkeypatch, p):
    refs = []
    alive_at_build = []

    class TrackedLU:
        # SuperLU objects take no weak references; this one wraps a factor
        def __init__(self, lu):
            self.solve = lu.solve

    def tracked_splu(A, permc_spec=None, **kwargs):
        if permc_spec != "NATURAL":  # the grid's ordering probe
            return splu(A, permc_spec=permc_spec, **kwargs)
        alive_at_build.append(sum(r() is not None for r in refs))
        out = TrackedLU(splu(A, permc_spec=permc_spec, **kwargs))
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(bmod, "splu", tracked_splu)
    lam2 = spectral_gap(square32).eigenvalue
    tr = trace_branch(square32, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    assert len(refs) == tr.factorizations > 0
    assert alive_at_build == [0] * tr.factorizations


def _scaled_steps(g, tr, p):
    # sqrt(||du||^2/c*^2 + dell^2) between consecutive non-constant points
    bif = tr.bifurcation_lambda
    c_star = bif ** (1.0 / (p - 1.0))
    pts = [pt for pt in tr.points if pt.deviation > 0.0]
    out = []
    for a, b in zip(pts, pts[1:]):
        d = (b.solution.values - a.solution.values) / c_star
        out.append(math.sqrt(g.integrate(d * d) + ((b.lam - a.lam) / bif)**2))
    return out


def test_trace_branch_sublinear_reaches_dead_core(square32, monkeypatch):
    g = square32
    specs = []

    def counting_splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(bmod, "splu", counting_splu)
    p = 0.5
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    assert tr.stop == "step_failures"
    assert tr.truncated
    assert tr.rejected_steps == 41
    last = tr.points[-1].solution.values
    assert last.min() / last.max() < 1e-10
    assert len(specs) <= 200
    assert specs.count("NATURAL") == tr.factorizations
    assert tr.corrector_iterations > tr.factorizations
    assert all(pt.newton_residual <= 1e-9 for pt in tr.points)


def test_trace_branch_sublinear_interval_passes_budget_cap(interval256):
    g = interval256
    p = 0.5
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    assert max(pt.lam for pt in tr.points) > 35.0
    assert len(tr.points) < 400
    assert all(pt.newton_residual <= 1e-9 for pt in tr.points)


@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("grid_name", ["interval256", "square32"])
def test_trace_branch_scaled_step_budget(grid_name, p, request):
    g = request.getfixturevalue(grid_name)
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    steps = _scaled_steps(g, tr, p)
    assert len(steps) > 10
    assert max(steps) <= 2.0 * 0.5


def test_trace_branch_stop_reasons(interval128):
    g = interval128
    lam2 = spectral_gap(g).eigenvalue
    walk = trace_branch(g, 2.0, 0.5 * lam2, direction=-1)
    assert (walk.stop, walk.truncated, walk.factorizations) == (
        "no_crossing", False, 0)
    tr = trace_branch(g, 2.0, 0.8 * lam2, direction=1)
    assert (tr.stop, tr.truncated, tr.rejected_steps) == ("lam_cap", False, 0)
    assert tr.points[-1].lam > 10.0 * tr.bifurcation_lambda
    budget = trace_branch(g, 2.0, 0.8 * lam2, direction=1, n_max=30)
    assert (budget.stop, len(budget.points)) == ("n_max", 30)


def test_el_normalization_examples(interval256):
    g = interval256
    # constants: mu is the (p-1)-th power of the value
    mu, resc = el_normalization(constant_field(g, 2.5), 2.0)
    assert mu == pytest.approx(2.5)
    assert np.allclose(resc.values, 2.5)

    # an optimizer of the two-parameter inequality maps to an exact root
    lam2 = spectral_gap(g).eigenvalue
    mu_param = 3.0 * lam2
    sol = lambda_of_mu(g, mu_param, 2.0)
    _, w = el_normalization(sol.minimizer, 2.0, mu=mu_param)
    res = -g.laplacian(w.values) + sol.mu_out * w.values - w.values**2
    rel = math.sqrt(g.integrate(res * res)) / max(
        1.0, sol.mu_out * math.sqrt(g.integrate(w.values**2)))
    assert rel <= 1e-6

    # 1-homogeneity: doubling u doubles^(p-1) mu, leaves the map invariant
    mu1_, w1 = el_normalization(sol.minimizer, 2.0, mu=mu_param)
    mu2_, w2 = el_normalization(Field(g, 2.0 * sol.minimizer.values), 2.0,
                                mu=mu_param)
    assert mu2_ / mu1_ == pytest.approx(2.0 ** (2.0 - 1.0), rel=1e-10)
    assert np.abs(w1.values - w2.values).max() < 1e-10
