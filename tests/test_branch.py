import math
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu

from neumann_rigidity import branch as bmod
from neumann_rigidity import grid as gmod
from neumann_rigidity import spectral as smod
from neumann_rigidity import (Domain, Field, PositivityError, build_grid,
                              constant_field,
                              constant_solution, el_normalization,
                              estimate_mu1, lambda_of_mu, newton_solve,
                              schrodinger_ground_state, smooth_random_field,
                              spectral_gap, trace_branch)
from neumann_rigidity.errors import DampingError, SingularJacobianError
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


@pytest.mark.parametrize("domain, n", [(Domain.box(1.0, 1.0), 32),
                                       (Domain.ball(2, 1.0), 256)],
                         ids=["square32", "ball256"])
def test_ground_state_factors_in_the_jacobian_layout(domain, n, monkeypatch):
    # the Schrodinger ground state factors K + diag(w (v - sigma)) as the
    # branch Jacobian is factored: as a band on the ball's one axis, and
    # on the square in the order the grid probes once; the grid is fresh,
    # so no order is cached yet
    g = build_grid(domain, n)
    specs, factors = [], []

    def counting_splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    def keeping_splu(A, **kwargs):
        factors.append(counting_splu(A, **kwargs))
        return factors[-1]

    def keeping_dgttrf(*args, **kwargs):
        specs.append("band")
        factors.append(dgttrf(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(gmod, "splu", counting_splu)
    monkeypatch.setattr(bmod, "splu", counting_splu)
    monkeypatch.setattr(smod, "splu", keeping_splu)
    monkeypatch.setattr(gmod, "dgttrf", keeping_dgttrf)
    lam, u = _nonconstant_state(g, 2.0)
    jac = bmod._Jacobian(g, 2.0)
    jac.refresh(lam, u)
    phi = 20.0 * smooth_random_field(g, SplitMix64(5))
    pair = schrodinger_ground_state(g, phi, sign=-1)
    assert pair.eigenfunction.min() > 0.0
    w = g.mass_vector()
    v = -phi.ravel()
    A = g.sparse_stiffness() + sparse.diags(w * (v - (v.min() - 1.0)))
    rhs = np.random.default_rng(7).standard_normal(g.n_nodes)
    if g.ndim_data == 1:
        assert specs == ["band", "band"]
        x = dgttrs(*factors[1][:5], rhs)[0]
    else:
        assert specs == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]
        x = np.empty_like(rhs)
        x[jac.lu.perm] = factors[0].solve(rhs[jac.lu.perm])
    res = np.abs(A @ x - rhs).max()
    scale = abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()
    assert res <= 1e-12 * scale


def _restrict(u, ext):
    # the subspace grid's values of a field constant along collapsed axes
    return u[tuple(slice(None) if n > 1 else 0 for n in ext)]


def test_jacobian_ordering_computed_once_per_grid(monkeypatch):
    g = build_grid(Domain.box(1.0, 1.0), 16)
    specs = []

    def counting_splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    def counting_dgttrf(*args, **kwargs):
        specs.append("band")
        return dgttrf(*args, **kwargs)

    # the grid probes its ordering, the Jacobian factors
    monkeypatch.setattr(gmod, "splu", counting_splu)
    monkeypatch.setattr(bmod, "splu", counting_splu)
    monkeypatch.setattr(gmod, "dgttrf", counting_dgttrf)
    perms = []
    for p, lam_scale in ((2.0, 1.0), (0.5, 1.0), (2.0, 3.0)):
        lam, u = _nonconstant_state(g, p)
        jac = bmod._Jacobian(g, p)
        jac.refresh(lam_scale * lam, u)
        perms.append(jac.lu.perm)
    assert specs == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL", "NATURAL"]
    assert all(perm is perms[0] for perm in perms)
    assert np.array_equal(np.sort(perms[0]), np.arange(g.n_nodes))
    # the gap mode's subspace grid has one data axis: its Jacobians are
    # factored as bands, with no ordering probed; the full grid's order
    # stays cached beside it
    mode = spectral_gap(g).eigenfunction.values
    sub, ext, _ = g.subspace(mode)
    assert g.subspace(mode)[0] is sub
    for p, lam_scale in ((2.0, 1.0), (0.5, 1.0), (2.0, 3.0)):
        lam, u = _nonconstant_state(g, p)
        jac = bmod._Jacobian(sub, p)
        jac.refresh(lam_scale * lam, _restrict(u, ext))
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 3 + ["band"] * 3
    assert "ordering" not in sub._cache
    assert len(specs) == 7
    # a Jacobian reads its order when it is refreshed
    jac = bmod._Jacobian(g, 2.0)
    jac.refresh(lam, u)
    assert jac.lu.perm is perms[0]
    assert specs[7:] == ["NATURAL"]


def _band_cases(g, operator):
    # (factor, sign, c) of the matrices sign K + diag(w c) that the branch
    # and the ground state factor on the one-axis subspace grid of g's gap
    # mode
    gap = spectral_gap(g)
    sub, ext, _ = g.subspace(gap.eigenfunction.values)
    if operator == "schrodinger":
        phi = 20.0 * smooth_random_field(sub, SplitMix64(5)).ravel()
        c = -phi - ((-phi).min() - 1.0)
        return sub, [(sub.shifted_factor(1.0, c, splu), 1.0, c)]
    cases = []
    for p in (2.0, 0.5):
        bif = gap.eigenvalue / abs(p - 1.0)
        if operator == "branch_point":
            tr = trace_branch(g, p, 0.8 * bif, direction=1, n_max=40)
            lam, u = tr.points[-1].lam, tr.points[-1].solution.values
            assert tr.points[-1].deviation > 0.0
            u = _restrict(u, ext)
        else:  # the constant at the bifurcation, where A is singular
            lam, u = bif, np.full(sub.shape, bif ** (1.0 / (p - 1.0)))
        jac = bmod._Jacobian(sub, p)
        jac.refresh(lam, u)
        cases.append((jac.lu, 1.0 if p > 1.0 else -1.0,
                      lam - p * u.ravel() ** (p - 1.0)))
    return sub, cases


@pytest.mark.parametrize("operator",
                         ["branch_point", "bifurcation", "schrodinger"])
@pytest.mark.parametrize("grid_name", ["interval256", "ball256", "square64"])
def test_band_factor_backward_error(grid_name, operator, request):
    # a one-axis grid factors sign K + diag(w c) as a LAPACK band, in
    # node order; its solve is backward stable against the matrix built
    # from the assembled sparse stiffness
    g = request.getfixturevalue(grid_name)
    sub, cases = _band_cases(g, operator)
    assert sub.ndim_data == 1
    rng = np.random.default_rng(11)
    for factor, sign, c in cases:
        assert isinstance(factor, gmod._BandFactor)
        A = sign * sub.sparse_stiffness() + sparse.diags(
            sub.mass_vector() * c)
        b = rng.standard_normal(sub.n_nodes)
        x = factor.solve(b)
        res = np.abs(A @ x - b).max()
        scale = abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        assert res <= 1e-12 * scale


def test_band_factor_zero_pivot_raises():
    # K itself on a uniform interval: elimination leaves the last pivot
    # exactly 0, as K annihilates constants
    g = build_grid(Domain.box(1.0), 16)
    with pytest.raises(SingularJacobianError):
        g.shifted_factor(1.0, np.zeros(g.n_nodes), splu)
    # the Jacobian at u = 1, lam = p = 2 is K too
    jac = bmod._Jacobian(g, 2.0)
    with pytest.raises(SingularJacobianError):
        jac.refresh(2.0, np.ones(g.shape))
    assert jac.lu is None


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_reduced_jacobian_solve_is_the_full_solve(square32, p):
    # on the gap mode's subspace grid, A_sub x = M_sub rhs extends to the
    # full solution whenever u and rhs lie in the subspace
    g = square32
    lam, u = _nonconstant_state(g, p)
    sub, ext, _ = g.subspace(spectral_gap(g).eigenfunction.values)
    assert (ext, sub.shape) == ((32, 1), (32,))
    rhs = np.broadcast_to(
        np.random.default_rng(3).standard_normal(32).reshape(ext), g.shape)
    full, red = bmod._Jacobian(g, p), bmod._Jacobian(sub, p)
    full.refresh(lam, u)
    red.refresh(lam, _restrict(u, ext))
    assert (full.grid.n_nodes, red.grid.n_nodes) == (g.n_nodes, 32)
    x_full, x_red = full.solve(rhs), red.solve(_restrict(rhs, ext))
    assert x_red.shape == sub.shape
    x_ext = np.broadcast_to(x_red.reshape(ext), g.shape)
    assert np.abs(x_ext - x_full).max() <= 1e-10 * np.abs(x_full).max()


# boxes built in the tests that use them: (extents, nodes per axis)
_BOXES = {"rect16x40": ((0.5, 2.0), (16, 40)),
          "box10x9x8": ((1.5, 1.0, 0.75), (10, 9, 8))}


def _grid(name, request):
    if name in _BOXES:
        extents, n = _BOXES[name]
        return build_grid(Domain.box(*extents), n)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("grid_name, unknowns", [
    ("square32", 32), ("rect16x40", 40), ("box10x9x8", 10)])
def test_subspace_grid_is_its_extension(grid_name, unknowns, request):
    # a field constant along the collapsed axes has the same integral,
    # energy, deviation and Laplacian on the subspace grid as extended
    g = _grid(grid_name, request)
    sub, ext, _ = g.subspace(spectral_gap(g).eigenfunction.values)
    assert sub.n_nodes == unknowns
    assert math.fsum(sub.weights.ravel()) == pytest.approx(1.0, rel=1e-13)
    u = 2.0 + np.random.default_rng(5).standard_normal(sub.shape)
    full = np.broadcast_to(u.reshape(ext), g.shape)
    for name in ("integrate", "energy", "deviation"):
        assert getattr(sub, name)(u) == pytest.approx(
            getattr(g, name)(full), rel=1e-13), name
    lap_full = g.laplacian(full)
    lap_sub = np.broadcast_to(sub.laplacian(u).reshape(ext), g.shape)
    assert np.abs(lap_sub - lap_full).max() <= 1e-13 * np.abs(lap_full).max()


@pytest.mark.parametrize("grid_name", ["interval128", "ball256"])
def test_subspace_of_a_one_axis_grid_is_the_grid(grid_name, request):
    g = request.getfixturevalue(grid_name)
    sub, ext, _ = g.subspace(spectral_gap(g).eigenfunction.values)
    assert sub is g and ext == g.shape


# (points, first non-constant lam, last lam) of trace_branch on square32
# from 0.8 * lambda2/|p-1|. The first non-constant lam comes from the
# branch switch alone; the point counts and last lam record the step
# sequence of the continuation in the scaled metric (u/c*, ell) under the
# full Newton corrector and its growth thresholds
# _SQUARE32_TRACE is the trace on the full grid, _SQUARE32_REDUCED_TRACE
# the default one on the gap mode's subspace. The two take the same steps
# and end 2e-14 apart at p = 0.5
_SQUARE32_TRACE = {0.5: (60, 19.72232663250131, 41.954926538884756),
                   2.0: (41, 9.861176864763076, 98.92867954648024)}
_SQUARE32_REDUCED_TRACE = {0.5: (60, 19.72232663250131, 41.95492653888396),
                           2.0: (41, 9.861176864763076, 98.92867954648024)}


def _check_square32_pins(g, p, pins):
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    n_points, first_lam, last_lam = pins[p]
    assert len(tr.points) == n_points
    first = next(pt for pt in tr.points if pt.deviation > 0.0)
    assert first.lam == pytest.approx(first_lam, rel=1e-10)
    assert tr.points[-1].lam == pytest.approx(last_lam, rel=1e-10)


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_trace_branch_square32_pins(square32, p, full_grid_subspace):
    full_grid_subspace()
    _check_square32_pins(square32, p, _SQUARE32_TRACE)


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_trace_branch_square32_reduced_pins(square32, p):
    _check_square32_pins(square32, p, _SQUARE32_REDUCED_TRACE)


@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("grid_name, collapsed, unknowns", [
    ("square32", (1,), 32), ("square64", (1,), 64), ("rect16x40", (0,), 40),
    ("box10x9x8", (1, 2), 10)],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else None)
def test_reduced_trace_matches_full_trace(grid_name, collapsed, unknowns, p,
                                          request, full_grid_subspace):
    # the rectangle's gap mode varies along its long axis 1, so axis 0
    # collapses, on a non-square index layout; the box's varies along its
    # long axis 0, so two axes collapse
    g = _grid(grid_name, request)
    lam0 = 0.8 * spectral_gap(g).eigenvalue / abs(p - 1.0)
    red = trace_branch(g, p, lam0, direction=1)
    full_grid_subspace()
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
        assert bmod._scaled_norm(g, pt.lam, u, F) <= 1e-9


def _counting_factors(monkeypatch):
    # every band factor (the name bound in the grid module) and every splu
    # call made through the name bound in the branch module
    specs = []

    def counting_dgttrf(*args, **kwargs):
        specs.append("band")
        return dgttrf(*args, **kwargs)

    def counting_splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(gmod, "dgttrf", counting_dgttrf)
    monkeypatch.setattr(bmod, "splu", counting_splu)
    return specs


def _counting_converged(monkeypatch):
    # the corrector calls that return a converged point
    calls = []
    correct = bmod._arc_correct

    def counting(*args, **kwargs):
        out = correct(*args, **kwargs)
        calls.append(out[3])
        return out

    monkeypatch.setattr(bmod, "_arc_correct", counting)
    return calls


@pytest.mark.parametrize("p, budget", [(2.0, 100), (0.5, 190)])
@pytest.mark.parametrize("grid_name", ["square32", "square64"])
def test_trace_branch_corrector_iteration_budget(grid_name, p, budget,
                                                 monkeypatch, request,
                                                 full_grid_subspace):
    # the corrector's iterations are the trace's cost (94 at p = 2 and
    # 176-177 at p = 0.5 on both squares); each iteration that does not
    # converge builds one factor: a band on the gap mode's subspace grid,
    # a sparse matrix through splu on the full grid (square32 only)
    g = request.getfixturevalue(grid_name)
    lam2 = spectral_gap(g).eigenvalue
    kinds = ("band", "NATURAL") if grid_name == "square32" else ("band",)
    for kind in kinds:
        if kind == "NATURAL":
            full_grid_subspace()
        specs = _counting_factors(monkeypatch)
        converged = _counting_converged(monkeypatch)
        tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
        assert tr.corrector_iterations <= budget
        assert specs.count(kind) == len(specs) == tr.factorizations
        assert tr.factorizations + len(converged) == tr.corrector_iterations
        assert not hasattr(tr, "refactorizations")
        assert tr.folds == []


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
    return (g, p, u + ds * scale * tu, ell + ds * tl, tu / scale, tl, ds,
            bif, u, ell)


def test_arc_correct_converges_quadratically(square32, monkeypatch):
    # from a half-length step of the p = 0.5 trace, every iteration after
    # the first at least squares the scaled residual, up to a constant:
    # the observed order is 2 (1.95 and 2.0 here, from 2.1e-4 to 3.5e-13
    # in four residuals); the iterations each build one factor
    residuals = []
    scaled_norm = bmod._scaled_norm

    def recording(*args):
        residuals.append(scaled_norm(*args))
        return residuals[-1]

    problem = _corrector_problem(square32, 0.5)
    monkeypatch.setattr(bmod, "_scaled_norm", recording)
    work = bmod.BranchTrace([], None)
    _, _, res, n_iter = bmod._arc_correct(*problem, work=work)
    assert residuals[-1] == res <= 1e-9
    assert n_iter == len(residuals) >= 4
    assert (work.corrector_iterations, work.factorizations) == (
        n_iter, n_iter - 1)
    logs = np.log(residuals)
    orders = np.diff(logs)[1:] / np.diff(logs)[:-1]
    assert np.all(orders >= 1.8)


def test_arc_correct_meets_its_constraint(interval128):
    # from a converged branch point whose constraint is off by ds = 1e-6 at
    # entry, the corrector returns only once it holds to 1e-10 max(1, |ds|)
    # (1.4e-17 here, after 2 iterations), not at entry
    g = interval128
    tr = trace_branch(g, 2.0, 0.8 * spectral_gap(g).eigenvalue, direction=1)
    pt = [pt for pt in tr.points if pt.deviation > 0.0][5]
    u = pt.solution.values
    tu = u / math.sqrt(g.integrate(u * u))
    ds = 1e-6
    u1, _, res, _ = bmod._arc_correct(g, 2.0, u, 1.0, tu, 0.0, ds, pt.lam,
                                      u, 1.0)
    assert res <= 1e-9
    con = g.integrate(tu * (u1 - u)) - ds
    assert abs(con) <= 1e-10 * max(1.0, abs(ds))


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_trace_branch_keeps_one_factor_alive(square32, monkeypatch, p,
                                             full_grid_subspace):
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

    def tracked_dgttrf(*args, **kwargs):
        # a band factor holds the pivot array dgttrf returns
        alive_at_build.append(sum(r() is not None for r in refs))
        out = dgttrf(*args, **kwargs)
        refs.append(weakref.ref(out[4]))
        return out

    correct = bmod._arc_correct
    alive_after_call = []

    def checked(*args, **kwargs):
        # no factor outlives a converged corrector call
        out = correct(*args, **kwargs)
        alive_after_call.append(sum(r() is not None for r in refs))
        return out

    monkeypatch.setattr(gmod, "dgttrf", tracked_dgttrf)
    monkeypatch.setattr(bmod, "splu", tracked_splu)
    monkeypatch.setattr(bmod, "_arc_correct", checked)
    lam2 = spectral_gap(square32).eigenvalue
    # on the gap mode's subspace grid (bands), then on the full grid
    for full in (False, True):
        if full:
            full_grid_subspace()
        refs.clear()
        alive_at_build.clear()
        alive_after_call.clear()
        tr = trace_branch(square32, p, 0.8 * lam2 / abs(p - 1.0),
                          direction=1)
        assert tr.unknowns == (square32.n_nodes if full else 32)
        assert len(refs) == tr.factorizations > 0
        assert alive_at_build == [0] * tr.factorizations
        assert len(alive_after_call) > 10
        assert alive_after_call == [0] * len(alive_after_call)


def _dense_fold(g, p, lam, u):
    # the fold of F = 0 from (lam, u) by Newton on the Moore-Spence system
    # M F(u, lam) = 0, A(u, lam) phi = 0, <l, phi> = 1 in dense matrices,
    # A = K + diag(w (lam - p u^(p-1))) with K the assembled stiffness;
    # phi starts as the eigenvector of A with the least |eigenvalue|
    K = g.sparse_stiffness().toarray()
    w = g.mass_vector()
    n = w.size
    u = u.ravel().copy()
    A = K + np.diag(w * (lam - p * u ** (p - 1.0)))
    vals, vecs = np.linalg.eigh(A)
    phi = vecs[:, np.argmin(np.abs(vals))]
    ell = phi / (phi @ phi)
    for _ in range(30):
        A = K + np.diag(w * (lam - p * u ** (p - 1.0)))
        G = np.concatenate([K @ u + w * (lam * u - u**p), A @ phi,
                            [ell @ phi - 1.0]])
        D = np.zeros((2 * n + 1, 2 * n + 1))
        D[:n, :n] = A
        D[:n, n] = w * u
        D[n:2 * n, :n] = np.diag(-w * p * (p - 1.0) * u ** (p - 2.0) * phi)
        D[n:2 * n, n] = w * phi
        D[n:2 * n, n + 1:] = A
        D[2 * n, n + 1:] = ell
        dx = np.linalg.solve(D, -G)
        u, lam, phi = u + dx[:n], lam + dx[n], phi + dx[n + 1:]
        if abs(dx[n]) <= 1e-12 * lam:
            return lam
    raise AssertionError("the dense fold did not converge")


@pytest.mark.parametrize("d, n, p", [(2, 64, 2.0), (2, 64, 3.0),
                                     (3, 64, 2.0)],
                         ids=["disk64-2", "disk64-3", "ball3_64-2"])
def test_mu1_is_the_located_fold(d, n, p, monkeypatch):
    # the radial branch leaves the bifurcation subcritically and turns
    # back: mu1 is its fold, located between accepted points, not the
    # least sampled lam (which lay 4.5e-4 above it on the disk and 1.4e-2
    # on the 3-ball); the location's calls are corrector calls like any
    g = build_grid(Domain.ball(d, 1.0), n)
    lam2 = spectral_gap(g).eigenvalue
    converged = _counting_converged(monkeypatch)
    tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    assert tr.factorizations + len(converged) == tr.corrector_iterations
    assert len(tr.folds) == 1
    fold = tr.folds[0]
    sampled = [pt for pt in tr.points if pt.deviation > 0.0]
    least = min(sampled, key=lambda pt: pt.lam)
    assert fold.point.lam < least.lam
    assert 0 < fold.corrector_calls <= 20
    assert fold.point.newton_residual <= 1e-9
    reference = _dense_fold(g, p, least.lam, least.solution.values)
    assert estimate_mu1(tr) == fold.point.lam
    assert fold.point.lam == pytest.approx(reference, rel=1e-8)


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


def test_trace_branch_sublinear_reaches_dead_core(square32, monkeypatch,
                                                  full_grid_subspace):
    g = square32
    p = 0.5
    lam2 = spectral_gap(g).eigenvalue
    # on the gap mode's subspace grid (bands), then on the full grid
    for kind in ("band", "NATURAL"):
        if kind == "NATURAL":
            full_grid_subspace()
        specs = _counting_factors(monkeypatch)
        tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
        assert tr.stop == "step_failures"
        assert tr.truncated
        assert tr.rejected_steps == 41
        last = tr.points[-1].solution.values
        assert last.min() / last.max() < 1e-10
        assert len(specs) <= 200
        assert specs.count(kind) == tr.factorizations
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


def test_trace_branch_steps_in_the_scaled_metric(monkeypatch):
    # the switch and every continuation step hand the corrector a unit
    # tangent of the scaled metric, (tu c*, tl), and a dimensionless length
    g = build_grid(Domain.box(1.0), 64)
    calls = []
    correct = bmod._arc_correct

    def recording(sub, p, u0, ell0, tu, tl, ds, *args, **kwargs):
        calls.append((tu, tl, ds))
        return correct(sub, p, u0, ell0, tu, tl, ds, *args, **kwargs)

    monkeypatch.setattr(bmod, "_arc_correct", recording)
    p = 0.5
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, p, 0.8 * lam2 / abs(p - 1.0), direction=1)
    c_star = tr.bifurcation_lambda ** (1.0 / (p - 1.0))
    assert c_star == pytest.approx(2.6e-3, rel=0.02)
    assert len(calls) > 10
    for tu, tl, ds in calls:
        scaled = tu * c_star
        assert g.integrate(scaled * scaled) + tl * tl == pytest.approx(
            1.0, abs=1e-12)
        assert 0.0 < ds <= 0.5


def test_trace_branch_no_first_point(interval128, monkeypatch):
    def failing(*args, **kwargs):
        raise DampingError("predictor left the positive cone")

    monkeypatch.setattr(bmod, "_arc_correct", failing)
    g = interval128
    lam2 = spectral_gap(g).eigenvalue
    tr = trace_branch(g, 2.0, 0.8 * lam2, direction=1)
    assert (tr.stop, tr.truncated, tr.rejected_steps) == (
        "no_first_point", True, 0)
    assert tr.bifurcation_lambda == pytest.approx(lam2)
    for pt in tr.points:
        assert pt.deviation == 0.0
        assert np.ptp(pt.solution.values) == 0.0


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
