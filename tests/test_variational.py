import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sla

from neumann_rigidity import branch, spectral
from neumann_rigidity import grid as gmod
from neumann_rigidity import (ConvergenceError, Domain, Field,
                              PositivityError, RangeError, build_grid,
                              constant_field, estimate_lambda_star,
                              estimate_mu2, fit_scaling_exponent, j_lambda,
                              lambda_of_mu, minimize_quotient, spectral_gap,
                              theta_star)
from neumann_rigidity import variational as vmod

PI2 = math.pi**2


def test_j_lambda_constant_is_zero(interval128):
    for p in (0.5, 2.0, 3.0):
        for lam in (0.1, 5.0):
            assert j_lambda(constant_field(interval128, 2.0), lam, p) == \
                pytest.approx(0.0, abs=1e-12)
    assert j_lambda(constant_field(interval128, 2.0), 3.0, 1.0) == \
        pytest.approx(0.0, abs=1e-12)


def test_j_lambda_near_constant_asymptotics(interval256):
    g = interval256
    lam2 = spectral_gap(g).eigenvalue
    u2 = spectral_gap(g).eigenfunction.values
    eps = 1e-3
    u = Field(g, 1.0 + eps * u2)
    val = j_lambda(u, lam2 / 2.0, 2.0)
    pred = eps**2 * (lam2 - lam2 / 2.0)
    assert val == pytest.approx(pred, rel=0.05)
    assert j_lambda(u, 2.0 * lam2, 2.0) < 0.0


def test_j_lambda_log_case_needs_positive(interval128):
    g = interval128
    with pytest.raises(PositivityError):
        j_lambda(Field(g, np.cos(np.pi * g.axes[0])), 1.0, 1.0)
    # entropy deficit of a positive near-constant field is ~ (lam2 - Lam) eps^2
    u2 = spectral_gap(g).eigenfunction.values
    val = j_lambda(Field(g, 1.0 + 1e-3 * u2), 1.0, 1.0)
    assert val > 0.0


def test_quotient_rigid_regime(interval256):
    g = interval256
    lam = 0.25 * spectral_gap(g).eigenvalue
    sol = minimize_quotient(g, lam, 2.0)
    assert abs(sol.mu_out - lam) <= 1e-6 * lam
    assert sol.constant_deviation < 1e-6
    assert sol.minimizer.values.min() > 0.0
    assert sol.mu_out <= sol.lambda_in + 1e-9


def test_quotient_symmetry_breaking(interval256):
    g = interval256
    lam = 4.0 * spectral_gap(g).eigenvalue
    sol = minimize_quotient(g, lam, 2.0)
    assert sol.mu_out < lam - 1e-3 * lam
    assert sol.constant_deviation > 1e-3
    assert sol.minimizer.values.min() > 0.0


def test_quotient_small_lambda_ratio(interval128):
    sol = minimize_quotient(interval128, 1e-3, 2.0)
    assert sol.mu_out / 1e-3 == pytest.approx(1.0, abs=1e-6)


def test_quotient_monotone_concave_p2(interval128):
    g = interval128
    lam2 = spectral_gap(g).eigenvalue
    lams = np.linspace(0.5 * lam2, 3.0 * lam2, 7)
    mus = [minimize_quotient(g, float(x), 2.0).mu_out for x in lams]
    for lam, mu in zip(lams, mus):
        assert mu <= lam + 1e-9
    assert all(b >= a - 1e-9 for a, b in zip(mus, mus[1:]))
    # midpoint concavity with a small slack
    for k in range(len(mus) - 2):
        assert mus[k + 1] >= 0.5 * (mus[k] + mus[k + 2]) - 1e-6


def test_quotient_p_below_one_monotone_concave(interval128):
    g = interval128
    lam2 = spectral_gap(g).eigenvalue
    p = 0.5
    mus_in = np.linspace(0.5 * lam2, 5.0 * lam2, 7)
    lams = [minimize_quotient(g, float(x), p).mu_out for x in mus_in]
    for mu, lam in zip(mus_in, lams):
        assert lam <= mu + 1e-9
    assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))
    for k in range(len(lams) - 2):
        assert lams[k + 1] >= 0.5 * (lams[k] + lams[k + 2]) - 1e-6


def test_quotient_guards(interval128):
    with pytest.raises(RangeError):
        minimize_quotient(interval128, -1.0, 2.0)
    with pytest.raises(RangeError):
        minimize_quotient(interval128, 1.0, 1.0)


def test_lambda_of_mu_both_signs(interval256):
    g = interval256
    lam2 = spectral_gap(g).eigenvalue
    # p > 1: identity below the threshold, above the diagonal past it
    sol = lambda_of_mu(g, 0.3 * lam2, 2.0)
    assert sol.mu_out == pytest.approx(0.3 * lam2, rel=1e-9)
    sol = lambda_of_mu(g, 3.0 * lam2, 2.0)
    assert sol.mu_out > 3.0 * lam2
    # p < 1: the quotient itself, below the diagonal past the threshold
    sol = lambda_of_mu(g, 3.0 * lam2, 0.5)
    assert sol.mu_out < 3.0 * lam2


def test_estimate_mu2_interval(interval256):
    g = interval256
    br = estimate_mu2(g, 2.0, tol=0.01)
    assert not br.open_upper
    assert br.mu2_hi <= PI2 * 1.02
    assert br.mu2_hi - br.mu2_lo <= 0.01 * spectral_gap(g).eigenvalue * 1.01
    assert br.mu2_lo <= br.mu2_hi


def test_estimate_mu2_open_bracket(monkeypatch, interval128):
    # if the quotient never leaves the diagonal the upper end is flagged
    def never_breaks(grid, lam, p, seed=0, below=None):
        return vmod.QuotientSolve(lam, lam, constant_field(grid, 1.0),
                                  0.0, 1, True, 1)
    monkeypatch.setattr(vmod, "minimize_quotient", never_breaks)
    br = vmod.estimate_mu2(interval128, 2.0, tol=0.02)
    assert br.open_upper


def test_estimate_mu2_ends_at_adjacent_floats(monkeypatch):
    # a tol below the float spacing of the bracket ends the halving when
    # lo and hi are adjacent floats, whose midpoint rounds onto an end
    g = build_grid(Domain.box(1.0), 16)
    solve, solves = vmod.minimize_quotient, []

    def counting(*args, **kwargs):
        solves.append(args[1])
        if len(solves) > 60:
            raise AssertionError("the bisection did not end")
        return solve(*args, **kwargs)

    monkeypatch.setattr(vmod, "minimize_quotient", counting)
    br = vmod.estimate_mu2(g, 2.0, tol=1e-300)
    assert not br.open_upper
    assert np.nextafter(br.mu2_lo, math.inf) == br.mu2_hi
    assert len(solves) == len(set(solves))


@pytest.mark.parametrize("grid_name,p,bracket", [
    ("interval256", 2.0, (9.85405850446222, 9.938874344484978)),
    ("interval256", 0.5, (19.70811700892444, 19.877748688969955)),
    ("square32", 2.0, (9.85345640918321, 9.903532614546533)),
    ("square32", 0.5, (19.637123355688125, 19.815675617345587)),
])
def test_estimate_mu2_brackets_unchanged_by_witness_exit(grid_name, p,
                                                        bracket, request):
    # brackets of the bisection whose solves ran every start to the end:
    # stopping a solve at its first witness must not move a verdict
    br = estimate_mu2(request.getfixturevalue(grid_name), p, seed=0)
    assert not br.open_upper
    assert (br.mu2_lo, br.mu2_hi) == pytest.approx(bracket, rel=1e-12)


def _objective(g, x, p):
    return (vmod._quotient_p_gt1(g, x, p) if p > 1.0
            else vmod._quotient_l2(g, x, p))


@pytest.mark.parametrize("p", [2.0, 0.5])
def test_witness_exit_stops_at_first_start_below(interval128, p):
    g = interval128
    scale = spectral_gap(g).eigenvalue / abs(p - 1.0)
    # past the threshold: a perturbed start point is itself below, and the
    # descent checks before its first step
    x = 1.05 * scale
    below = x * (1.0 - 1e-6)
    sol = minimize_quotient(g, x, p, below=below)
    assert sol.mu_out < below
    assert len(sol.starts) == sol.restarts_used <= 2
    assert sol.starts[-1].witness and sol.starts[-1].value == sol.mu_out
    assert sol.starts[-1].iterations == 1
    assert not any(rec.witness for rec in sol.starts[:-1])
    assert not sol.converged and sol.iterations == sol.starts[-1].iterations
    # below the explicit bound no start gets there: the full solve's result
    x = 0.5 * (1.0 - theta_star(p, g.dim)) * scale
    sol = minimize_quotient(g, x, p, below=x * (1.0 - 1e-6))
    full = minimize_quotient(g, x, p)
    assert sol.restarts_used == len(sol.starts) == 3
    assert not any(rec.witness for rec in sol.starts)
    assert np.array_equal(sol.minimizer.values, full.minimizer.values)
    for field in ("mu_out", "constant_deviation", "iterations", "converged",
                  "restarts_used", "starts"):
        assert getattr(sol, field) == getattr(full, field)


def _full_search(u, f, d, gd, normalize, value):
    # the line search that, if it fails, always makes its 60 trials
    a = 1.0
    for _ in range(60):
        trial = normalize(u - a * d)
        ftrial = value(trial)
        if ftrial < f and ftrial <= f - 1e-4 * a * gd:
            return a, trial, ftrial
        a *= 0.5
    return None


def _descend_full_searches(grid, u0, objective, scale, metric,
                           max_iter=vmod._MAX_ITER):
    # the descent loop whose failed line search always makes 60 trials
    normalize, value, grad = objective
    riesz, dual_sq = metric
    alpha = 1.0
    w = grid.weights
    u = normalize(u0)
    f = value(u)
    g = grad(u, f)
    pairs = vmod.deque(maxlen=vmod._MEMORY)
    converged = stalled = False
    it = 0
    for it in range(1, max_iter + 1):
        grg = dual_sq(g)
        if grg <= vmod._GRAD_TOL**2 * scale or grg <= vmod._FLOOR * abs(f):
            converged = True
            break
        found = None
        if pairs:
            d = vmod._lbfgs_direction(g, w, pairs, alpha, riesz)
            gd = vmod._inner(w, g, d)
            if gd > 0.0:
                found = _full_search(u, f, d, gd, normalize, value)
            if found is None:
                pairs.clear()
        if found is None:
            d = alpha * riesz(g)
            found = _full_search(u, f, d, vmod._inner(w, g, d), normalize,
                                 value)
        if found is None:
            stalled = True
            break
        a, trial, ftrial = found
        gnew = grad(trial, ftrial)
        s = trial - u
        y = gnew - g
        sy = vmod._inner(w, s, y)
        if sy > 1e-300:
            alpha = sy / dual_sq(y)
            pairs.append((s, y, 1.0 / sy))
        else:
            alpha *= 2.0 * a
        alpha = min(max(alpha, 1e-10 * grid.h_min**2), 1e10)
        u, f, g = trial, ftrial, gnew
    return u, vmod.StartRecord(it, converged, stalled, f)


@pytest.mark.parametrize("p", [2.0, 0.5])
def test_rounding_floor_exit_gives_up_only_rounding_noise(interval128, p,
                                                          monkeypatch):
    # a search that ends early, at a rejected trial whose predicted
    # decrease a0 <g, d> is at most 2^-52 |f|, gives up nothing but noise:
    # every shorter step predicts at most half of that, so a plain search
    # re-run from it can only add the rounding of the two values compared,
    # value(u) and value(trial). Each is a sum of positive terms rounded to
    # a few ulp; 8 * 2^-52 |f| bounds the total (0.62 is the most found
    # here). A failed search is a stall, so the exit fires only in stalled
    # starts: at p = 0.5 and 3 times the scale, where the dead core stalls
    # every non-constant start, and nowhere at p = 2
    g = interval128
    scale = spectral_gap(g).eigenvalue / abs(p - 1.0)
    starts = vmod._starts(g, 0)
    calls = {"cut": 0, "full": 0}
    ended_early = []
    search = vmod._line_search

    def recording(u, f, d, gd, normalize, value):
        before = calls["cut"]
        found = search(u, f, d, gd, normalize, value)
        if found is None and calls["cut"] - before < 60:
            ended_early.append((u, f, d, gd, normalize, value))
        return found

    def counted(objective, key):
        normalize, value, grad = objective

        def count(u):
            calls[key] += 1
            return value(u)
        return normalize, count, grad

    monkeypatch.setattr(vmod, "_line_search", recording)
    for x in (0.5 * scale, 1.05 * scale, 2.0 * scale, 3.0 * scale):
        objective = _objective(g, x, p)
        metric = vmod._metric(g, max(1.0, x))
        for u0 in starts:
            before = len(ended_early)
            _, rec = vmod._descend(g, u0, counted(objective, "cut"),
                                   max(1.0, x), metric)
            _, rec_ref = _descend_full_searches(
                g, u0, counted(objective, "full"), max(1.0, x), metric)
            assert (rec.converged, rec.stalled) == (rec_ref.converged,
                                                    rec_ref.stalled)
            assert rec.stalled or len(ended_early) == before
    assert bool(ended_early) == (calls["cut"] < calls["full"]) == (p < 1.0)
    for u, f, d, gd, normalize, value in ended_early:
        found = _full_search(u, f, d, gd, normalize, value)
        assert found is None or f - found[2] <= 8.0 * 2.0**-52 * abs(f)
    # the constant start has a zero gradient: it converges before any
    # search, on the one value its start point needs
    calls["cut"] = 0
    _, rec = vmod._descend(g, starts[0],
                           counted(_objective(g, 1.05 * scale, p), "cut"),
                           1.05 * scale, vmod._metric(g, 1.05 * scale))
    assert calls["cut"] == 1
    assert rec.converged and not rec.stalled and rec.iterations == 1


@pytest.mark.parametrize("grid_name,x,ks,converged", [
    ("interval256", 0.5, (2,), True),
    ("square64", 2.0, (1, 3), True),
    ("interval128", 3.0, (1, 2), False),
], ids=["rounding_floor", "gap_modes", "dead_core"])
def test_one_stopping_rule_in_the_dual_norm(grid_name, x, ks, converged,
                                            request):
    # p = 0.5 at x times the scale. A start converges once <g, R g> is at
    # most 16 ulp of f: the random interval256 start ends there with an L2
    # gradient norm above the old 100x cut, and the gap-mode start on
    # square64 and its mirror image, the datum with -0.2 that the ladder
    # leaves out (index 3 here), read 11 and 17 ulp one step before and end
    # on the same value. A start whose search fails in the Riesz direction
    # stalls: past the dead-core onset its <g, R g> is thousands of times
    # the floor
    g = request.getfixturevalue(grid_name)
    lam = x * spectral_gap(g).eigenvalue / 0.5
    objective = _objective(g, lam, 0.5)
    metric = vmod._metric(g, lam)
    starts = [*vmod._starts(g, 0), spectral._gap_datum(g, -0.2)]
    values = []
    for k in ks:
        u, rec = vmod._descend(g, starts[k], objective, lam, metric)
        assert (rec.converged, rec.stalled) == (converged, not converged)
        values.append(rec.value)
        if not converged:
            assert np.mean(u < 1e-6 * u.max()) >= 0.05
            grg = metric[1](objective[2](u, rec.value))
            assert grg >= 1e3 * vmod._FLOOR * abs(rec.value)
    if converged:
        assert max(values) - min(values) <= 1e-14 * min(values)


def test_line_search_halves_on_while_a_stuck_trial_is_lower(interval128):
    # u - a d rounds to u, but the trial normalize(u) is lower than f: a
    # shorter step can still pass Armijo, so the search must go on
    g = interval128

    def normalize(u):
        return np.nextafter(u, 0.0)   # one ulp down on every node

    def value(u):
        return float(u[0])

    def grad(u, f):
        return np.full(g.shape, 1e10)

    objective = (normalize, value, grad)
    metric = (lambda g_: np.full(g.shape, 1e-20), lambda s: 1.0)
    u0 = np.ones(g.shape)
    u, rec = vmod._descend(g, u0, objective, 1.0, metric, max_iter=1)
    u_ref, rec_ref = _descend_full_searches(g, u0, objective, 1.0, metric,
                                           max_iter=1)
    assert not rec.stalled and rec.value < 1.0 - 1e-16
    assert rec == rec_ref and np.array_equal(u, u_ref)


def test_lbfgs_direction_is_the_bfgs_inverse_update():
    # H+ = (I - rho s y^T W) H (I - rho y s^T W) + rho s s^T W with
    # rho = 1/(s^T W y), W the quadrature weights, from H0 = alpha * riesz
    g = build_grid(Domain.box(1.0), 16)
    n, w = g.shape[0], g.weights
    riesz, _ = vmod._metric(g, 3.0)
    alpha = 0.7
    H = alpha * np.column_stack([riesz(e) for e in np.eye(n)])
    rng = np.random.default_rng(0)
    spd = rng.standard_normal((n, n))
    spd = spd @ spd.T + n * np.eye(n)
    pairs = []
    for _ in range(3):
        s_ = rng.standard_normal(n)
        y = spd @ s_
        rho = 1.0 / vmod._inner(w, s_, y)
        H = ((np.eye(n) - rho * np.outer(s_, y * w)) @ H
             @ (np.eye(n) - rho * np.outer(y, s_ * w))
             + rho * np.outer(s_, s_ * w))
        pairs.append((s_, y, rho))
    gr = rng.standard_normal(n)
    d = vmod._lbfgs_direction(gr, w, pairs, alpha, riesz)
    assert np.allclose(d, H @ gr, rtol=1e-12, atol=1e-12 * np.abs(d).max())
    s_, y, _ = pairs[-1]
    assert np.allclose(vmod._lbfgs_direction(y, w, pairs, alpha, riesz), s_,
                       rtol=1e-12, atol=1e-12 * np.abs(s_).max())


def test_rejected_quasi_newton_steps_fall_back_to_scaled_riesz_steps(
        interval128, monkeypatch):
    # with every L-BFGS direction rejected, as no descent direction or by
    # its line search, each step is the one the descent takes without memory
    g = interval128
    x = 1.05 * spectral_gap(g).eigenvalue
    objective = _objective(g, x, 2.0)
    metric = vmod._metric(g, x)
    u0 = vmod._starts(g, 0)[1]
    with monkeypatch.context() as m:
        m.setattr(vmod, "_MEMORY", 0)
        u_ref, rec_ref = vmod._descend(g, u0, objective, x, metric)
    assert rec_ref.converged and rec_ref.iterations > 2

    with monkeypatch.context() as m:
        m.setattr(vmod, "_lbfgs_direction",
                  lambda gr, w, pairs, alpha, riesz: -alpha * riesz(gr))
        u, rec = vmod._descend(g, u0, objective, x, metric)
    assert rec == rec_ref and np.array_equal(u, u_ref)

    direction, search = vmod._lbfgs_direction, vmod._line_search
    last = []

    def remember(*args):
        last[:] = [direction(*args)]
        return last[0]

    def fail_on_it(u_, f, d, *rest):
        return None if last and d is last[0] else search(u_, f, d, *rest)

    with monkeypatch.context() as m:
        m.setattr(vmod, "_lbfgs_direction", remember)
        m.setattr(vmod, "_line_search", fail_on_it)
        u, rec = vmod._descend(g, u0, objective, x, metric)
    assert rec == rec_ref and np.array_equal(u, u_ref)


def test_descent_converges_quickly_just_below_the_threshold(interval256):
    # the constant's curvature along u2 nearly vanishes here; scalar
    # Barzilai-Borwein steps took 170-370 iterations a start
    g = interval256
    lam = 0.9984375 * spectral_gap(g).eigenvalue
    sol = minimize_quotient(g, lam, 2.0, seed=0)
    assert len(sol.starts) == 3
    for rec in sol.starts[1:]:
        assert rec.converged and not rec.stalled
        assert rec.iterations <= 100


@pytest.mark.parametrize("p", [2.0, 0.5])
def test_descent_budget_just_below_the_threshold(interval256, p):
    # with the initial operator scaled by <s, y>/<y, R y> the unit step is
    # mostly accepted, and a search at the rounding floor of f gives up at
    # once: each start converges in about 20 iterations and 30 values,
    # where the Barzilai-Borwein scale took about 44 and 280
    g = interval256
    x = 0.9984375 * spectral_gap(g).eigenvalue / abs(p - 1.0)
    normalize, value, grad = _objective(g, x, p)
    metric = vmod._metric(g, max(1.0, x))
    for u0 in vmod._starts(g, 0)[1:]:
        calls = [0]

        def count(u):
            calls[0] += 1
            return value(u)
        _, rec = vmod._descend(g, u0, (normalize, count, grad), max(1.0, x),
                               metric)
        assert rec.converged and not rec.stalled
        assert rec.iterations <= 30 and calls[0] <= 40


def test_fit_scaling_exponent_guards(interval128):
    with pytest.raises(RangeError):
        fit_scaling_exponent(interval128, 0.5, [10, 100, 1000])
    with pytest.raises(RangeError):
        fit_scaling_exponent(interval128, 3.0, [10.0, 20.0, 40.0])


def test_fit_scaling_exponent_interval():
    g = build_grid(Domain.box(1.0), 512)
    lams = np.geomspace(1e2, 10**3.5, 8)
    slope = fit_scaling_exponent(g, 3.0, lams)
    assert abs(slope - 0.75) / 0.75 < 0.10


def _lsi_deficit_min(g, c):
    return vmod._solve(g, c, vmod._lsi_deficit(g, c), 1.0, 0).mu_out


def test_estimate_lambda_star_interval(interval256, monkeypatch):
    # lam* = |p-1| mu2 for p != 1, so the estimate is the witnessed upper
    # end of the mu2 bracket; at p = 1 it is the upper end of a bisection
    # on the sign of min(energy - c Ent), and the minimizer found there
    # witnesses it
    g = interval256
    lam2 = spectral_gap(g).eigenvalue
    solve, starts = vmod._solve, []

    def recording_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        starts.extend(sol.starts)
        return sol

    monkeypatch.setattr(vmod, "_solve", recording_solve)
    est1 = estimate_lambda_star(g, 1.0)
    monkeypatch.undo()
    assert 0.99 * lam2 <= est1 <= 1.02 * lam2
    # no start of the p = 1 bisection runs to the iteration cap
    assert starts and all(rec.iterations < vmod._MAX_ITER for rec in starts)
    assert _lsi_deficit_min(g, 0.95 * lam2) >= -1e-12
    assert _lsi_deficit_min(g, est1) < 0.0
    for p in (0.25, 0.75):
        est = estimate_lambda_star(g, p)
        assert 0.99 * lam2 <= est <= 1.03 * lam2
        assert est == abs(p - 1.0) * estimate_mu2(g, p).mu2_hi


def test_lambda_star_bracket_is_a_hundredth_of_the_gap(monkeypatch):
    # at p = 1 the bisection narrows to 0.01 lambda2 (0.0086 lambda2 here),
    # and the estimate is the bracket's witnessed upper end
    g = build_grid(Domain.box(1.0), 64)
    bracket, brackets = vmod._threshold_bracket, []

    def recording(*args, **kwargs):
        brackets.append(bracket(*args, **kwargs))
        return brackets[-1]

    monkeypatch.setattr(vmod, "_threshold_bracket", recording)
    est = estimate_lambda_star(g, 1.0)
    (lo, hi, open_upper), = brackets
    assert not open_upper and hi == est
    assert hi - lo <= 0.01 * spectral_gap(g).eigenvalue


def test_lsi_floor_only_keeps_the_logarithm_finite(interval128):
    # the floor at 1e-12 of the maximum leaves a field whose least value is
    # 1e-6 of its largest as it is: normalize is the plain sphere projection
    g = interval128
    u = np.linspace(1e-6, 1.0, g.shape[0])
    normalize = vmod._lsi_deficit(g, 5.0)[0]
    assert np.array_equal(normalize(u), vmod._sphere(g)(u))


def test_estimate_lambda_star_open_bracket(monkeypatch, interval128):
    # an open mu2 bracket has no witness at its cap, so there is no estimate
    def open_bracket(grid, p, seed=0):
        return vmod.Mu2Bracket(1.0, 30.0, open_upper=True)
    monkeypatch.setattr(vmod, "estimate_mu2", open_bracket)
    with pytest.raises(ConvergenceError) as info:
        estimate_lambda_star(interval128, 0.5)
    assert (info.value.stage, info.value.lam) == ("lambda_star bracket", 30.0)


@pytest.mark.parametrize("dom,n", [(Domain.ball(2), 128),
                                   (Domain.ball(3), 64)],
                         ids=["disk128", "ball3_64"])
def test_mirrored_gap_mode_start_never_ends_below_the_kept_starts(dom, n):
    # the ladder runs one start per symmetry orbit and leaves out the datum
    # max(1 - 0.2 u2, 1e-3), on a box the mirror image of the +0.2 start.
    # On a ball the radial mode is not odd, so that datum is no mirror
    # image; its descent still ends above the least kept start (0.8% to
    # 2.5x above it here), never below
    g = build_grid(dom, n)
    u0 = spectral._gap_datum(g, -0.2)
    for p in (0.5, 2.0, 3.0):
        scale = spectral_gap(g).eigenvalue / abs(p - 1.0)
        for x in (1.02, 1.05, 1.5, 2.0, 4.0):
            lam = x * scale
            sol = minimize_quotient(g, lam, p)
            assert len(sol.starts) == 3
            _, rec = vmod._descend(g, u0, _objective(g, lam, p), lam,
                                   vmod._metric(g, lam))
            kept = min(r.value for r in sol.starts)
            assert rec.value >= kept * (1.0 - 1e-12)


@pytest.mark.parametrize("grid_name", ["interval256", "square32", "ball256"])
def test_riesz_map_solves_shifted_system(grid_name, request):
    # d = (K + sigma M)^-1 M g, checked by its normwise backward error
    g = request.getfixturevalue(grid_name)
    grad = 1.0 + np.random.default_rng(5).standard_normal(g.shape)
    rhs = (g.weights * grad).ravel()
    for sigma in (1.0, 12.5):
        riesz, _ = vmod._metric(g, sigma)
        d = riesz(grad)
        assert d.shape == g.shape
        A = g.sparse_stiffness() + sigma * sparse.diags(g.mass_vector())
        res = np.abs(A @ d.ravel() - rhs).max()
        scale = abs(A).sum(axis=1).max() * np.abs(d).max() + np.abs(rhs).max()
        assert res <= 1e-12 * scale


@pytest.mark.parametrize("dom,n", [
    (Domain.box(1.0), 64),
    (Domain.box(1.0, 1.0), 16),
    (Domain.box(1.5, 1.0), (24, 17)),
    (Domain.ball(3), 64),
], ids=["interval64", "square16", "rect24x17", "ball3_64"])
def test_dual_norm_is_the_riesz_pairing(dom, n):
    # <y, R y> from one modal transform, sum yhat^2 / (Lambda + sigma),
    # equals the quadrature pairing of y with its Riesz image
    g = build_grid(dom, n)
    y = np.random.default_rng(3).standard_normal(g.shape)
    for sigma in (1.0, 12.5):
        riesz, dual_sq = vmod._metric(g, sigma)
        ref = vmod._inner(g.weights, y, riesz(y))
        assert dual_sq(y) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("grid_name", ["interval256", "square32"])
def test_quotient_solve_makes_no_sparse_factorization(grid_name, request,
                                                     monkeypatch):
    # the Riesz map is applied in the grid's modes, so no name a solve
    # could factor through may be called
    def forbidden(*args, **kwargs):
        raise AssertionError("a quotient solve must not factor a matrix")

    for mod in (sla, gmod, spectral, branch):
        monkeypatch.setattr(mod, "splu", forbidden, raising=False)
    monkeypatch.setattr(gmod, "dgttrf", forbidden)
    monkeypatch.setattr(gmod.Grid, "shifted_factor", forbidden)
    g = request.getfixturevalue(grid_name)
    lam2 = spectral_gap(g).eigenvalue
    for p, lam in ((2.0, 1.05 * lam2), (0.5, 0.9 * lam2 / 0.5)):
        assert minimize_quotient(g, lam, p).converged


def test_descent_values_come_from_value(square32):
    # the line search compares value(trial) with the f the descent holds,
    # so that f, the reported one included, is value(u) exactly
    g = square32
    u0 = 1.0 + 0.3 * spectral_gap(g).eigenfunction.values
    u0 += 0.01 * np.cos(3.0 * np.pi * g.coordinates()[:, 1]).reshape(g.shape)
    metric = vmod._metric(g, 10.0)
    objectives = [vmod._quotient_p_gt1(g, 10.0, 2.0),
                  vmod._quotient_l2(g, 25.0, 0.5),
                  vmod._quotient_l2(g, -25.0, 2.0),
                  vmod._lsi_deficit(g, 9.0)]
    for objective in objectives:
        value = objective[1]
        for max_iter in (1, 2, 7):
            u, rec = vmod._descend(g, u0, objective, 10.0, metric,
                                   max_iter=max_iter)
            assert rec.value == value(u)


def test_sobolev_descent_converges_past_threshold(interval256):
    # 10.355994998230598: best value of the L2 descent, capped at 4000 steps
    g = interval256
    lam = 1.05 * spectral_gap(g).eigenvalue
    sol = minimize_quotient(g, lam, 2.0)
    assert sol.converged
    assert sol.mu_out <= 10.355994998230598 * (1.0 + 1e-12)
    # one record per start; the best one is what the solve reports
    assert len(sol.starts) == sol.restarts_used == 3
    best = min(sol.starts, key=lambda rec: rec.value)
    assert best.value == sol.mu_out
    assert (best.iterations, best.converged) == (sol.iterations, True)
    assert all(rec.iterations < vmod._MAX_ITER for rec in sol.starts)
