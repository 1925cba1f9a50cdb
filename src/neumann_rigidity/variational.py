"""Interpolation quotients, thresholds and the scaling-exponent fit.

For p > 1 the basic object is

    mu(lam) = inf_u (||grad u||_2^2 + lam ||u||_2^2) / ||u||_{p+1}^2,

for p < 1 the companion quotient

    lam(mu) = inf_u (||grad u||_2^2 + mu ||u||_{p+1}^2) / ||u||_2^2.

Every objective is minimized by one engine, projected quasi-Newton
descent on a norm sphere in one metric (Neuberger, LNM 1670): the L2
gradient g goes through the L-BFGS two-loop recursion (Nocedal, Math. Comp.
35 (1980) 773-782; Liu & Nocedal, Math. Program. 45 (1989) 503-528) whose
initial operator is the Riesz map R = (K + sigma M)^-1 M, sigma = max(1,
parameter), applied in the grid's modes without a factorization (see
``_metric``) and scaled by the standard L-BFGS factor <s, y>/<y, R y> of
the newest pair (Shanno & Phua, Math. Program. 14 (1978) 149-160; Nocedal
& Wright, Numerical Optimization, eq. 7.20), so that the unit step is
mostly accepted. Armijo backtracking from the unit step and a small
multi-start ladder (constant, one gap-mode perturbation, one seeded
random field) complete it. Near the threshold the constant's curvature
along the gap mode tends to 0, and the scalar step alone needs hundreds of
iterations a start; the curvature pairs bring that to tens. Each objective
is a triple (normalize, value, grad): the descent takes every objective
value from ``value``, so the line search compares like with like, and
``grad(u, f)`` takes the value f = value(u) the descent already holds.
Since the objectives are invariant under u -> |u|, iterates are folded
positive at every step, which also realizes the positivity of the
returned minimizers. A start has converged once <g, R g>, the decrease
the Riesz step predicts, is at most 1e-16 times the scale or 16 ulp of f,
and has stalled when a line search in the Riesz direction fails. A line
search gives up once a rejected trial's predicted decrease a <g, d> is
below the rounding of f, 2^-52 |f|: a shorter step could then only win by
rounding noise.

Thresholds come from one bisection on the parameter. A parameter counts
as broken when a positive function beats the constants there, so the
upper end of each bracket is witnessed by the function that broke it.
Every accepted step lowers the objective, so a solve that only has to
decide "broken" stops at the first iterate below the threshold (its
``below``), a witness, and skips the starts after it. A start ends below
the threshold exactly when it crosses it, so the verdict is the full
solve's wherever that solve keeps its least value. The optimal
interpolation constant is lam* = |p-1| mu2 for p != 1; at p = 1
(log-Sobolev) the bisection runs on c with the objective energy - c Ent,
which vanishes at the constants.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .constants import _check_exponents, theta_star
from .errors import ConvergenceError, PositivityError, RangeError
from .grid import Field, Grid, _inner
from .rng import SplitMix64
from .spectral import _gap_datum, _threshold_scale, spectral_gap

_MAX_ITER = 4000
_GRAD_TOL = 1e-8
_FLOOR = 16 * 2.0**-52   # <g, R g> at most this times |f| is rounding
_MEMORY = 5          # L-BFGS pairs kept by the descent


class StartRecord(NamedTuple):
    """One start of a multistart solve; ``value`` is the objective reached.

    ``converged`` marks a start whose gradient met the stopping rule
    (``_descend``), ``stalled`` one whose line search failed in the Riesz
    direction before it did. ``witness`` marks a start that stopped early
    because its value fell below the solve's ``below``; such a start is
    neither converged nor stalled, and neither is one that ran to the
    iteration cap.
    """

    iterations: int
    converged: bool
    stalled: bool
    value: float
    witness: bool = False


@dataclass
class QuotientSolve:
    """Outcome of one quotient minimization.

    ``lambda_in`` is the input parameter (lam for p > 1, mu for p < 1) and
    ``mu_out`` the quotient value at the minimizer; the constant test
    function forces mu_out <= lambda_in up to solver tolerance.
    ``iterations`` and ``converged`` belong to the best start; ``starts``
    records every start that ran, so one that hit the iteration cap stays
    visible, and ``restarts_used`` counts them. A solve that found a
    witness below its ``below`` ends at that start, which it returns
    unconverged.
    """

    lambda_in: float
    mu_out: float
    minimizer: Field
    constant_deviation: float
    iterations: int
    converged: bool
    restarts_used: int
    starts: Tuple[StartRecord, ...] = ()


class Mu2Bracket(NamedTuple):
    mu2_lo: float
    mu2_hi: float
    open_upper: bool = False


def j_lambda(u: Field, Lambda: float, p: float) -> float:
    """Deficit functional of the interpolation inequality at constant Lambda.

    For p != 1 this is ||grad u||^2 - Lambda/(p-1) (||u||_{p+1}^2 - ||u||_2^2);
    at p = 1 the entropy form with the logarithmic term is used, which
    requires a positive field.
    """
    grid = u.grid
    _check_exponents(p, grid.dim, p == 1.0)
    vals = u.values
    energy = grid.energy(vals)
    if p == 1.0:
        if vals.min() <= 0.0:
            raise PositivityError("the p = 1 deficit needs a positive field")
        sq = grid.integrate(vals * vals)
        ent = 0.5 * grid.integrate(vals * vals * np.log(vals * vals / sq))
        return energy - Lambda * ent
    np1 = grid.lp_norm(np.abs(vals), p + 1.0) ** 2
    n2 = grid.integrate(vals * vals)
    return energy - Lambda / (p - 1.0) * (np1 - n2)


# ----------------------------------------------------------------------
# descent engine
def _metric(grid: Grid, sigma: float):
    """Riesz map and dual squared norm of the descent metric.

    The metric is K + sigma*M with Riesz map R: g -> (K + sigma*M)^-1 M g,
    whose conditioning, unlike that of L2, does not degrade as the grid is
    refined. R is the descent's initial inverse-Hessian operator, and the
    dual squared norm <y, R y> of a gradient change y sets its scale
    (``_descend``). The grid's modes C diagonalize the pencil,
    K C = M C Lambda with C^T M C = I, so R g = C (Lambda + sigma)^-1 C^T M g:
    two small dense products per data axis and no factorization (fast
    diagonalization; Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185-199),
    and <y, R y> = sum_k yhat_k^2 / (Lambda_k + sigma) with yhat = C^T M y,
    one modal transform.
    """
    inv = 1.0 / (grid.mode_eigenvalues() + sigma)

    def riesz(g):
        return grid.from_modes(inv * grid.to_modes(g))

    def dual_sq(y):
        yhat = grid.to_modes(y)
        return float(np.add.reduce(inv * yhat * yhat, axis=None))

    return riesz, dual_sq


def _lbfgs_direction(g: np.ndarray, w: np.ndarray, pairs, alpha: float,
                     riesz) -> np.ndarray:
    """L-BFGS two-loop recursion on the L2 gradient g.

    ``pairs`` holds (s, y, 1/<s, y>), oldest first, every pairing in the
    quadrature inner product; the initial operator is the scaled Riesz map
    alpha * riesz (Nocedal, Math. Comp. 35 (1980) 773-782), alpha set by
    ``_descend``.
    """
    q = g
    coef = []
    for s, y, rho in reversed(pairs):
        c = rho * _inner(w, s, q)
        coef.append(c)
        q = q - c * y
    d = alpha * riesz(q)
    for (s, y, rho), c in zip(pairs, reversed(coef)):
        d = d + (c - rho * _inner(w, y, d)) * s
    return d


def _line_search(u: np.ndarray, f: float, d: np.ndarray, gd: float,
                 normalize, value):
    """Armijo backtracking from a = 1: (a, trial, f(trial)), or None.

    A trial must also lower f: below the rounding of f a step that leaves
    f unchanged is no progress. The search fails after 60 halvings, or at
    a rejected trial whose predicted decrease a <g, d> is at most the
    rounding of f, 2^-52 |f|: every shorter step predicts less, so it could
    only pass by rounding noise. This covers a step that no longer moves u,
    whose rejected trial every shorter step would repeat. A failed search
    in the Riesz direction is a stall (``_descend``), so the exit serves
    stalled starts: it spares them most of the 60 trials.
    """
    a = 1.0
    floor = 2.0**-52 * abs(f)
    for _ in range(60):
        trial = normalize(u - a * d)
        ftrial = value(trial)
        if ftrial < f and ftrial <= f - 1e-4 * a * gd:
            return a, trial, ftrial
        if ftrial >= f and a * gd <= floor:
            return None
        a *= 0.5
    return None


def _descend(grid: Grid, u0: np.ndarray, objective, scale: float, metric,
             max_iter: int = _MAX_ITER, below: Optional[float] = None
             ) -> Tuple[np.ndarray, StartRecord]:
    """One start of the descent: the last iterate and its record.

    The direction is L-BFGS (``_lbfgs_direction``) over the last
    ``_MEMORY`` pairs s = trial - u, y = grad(trial) - grad(u); pairs with
    <s, y> <= 1e-300 are skipped. Its initial operator is the metric's
    Riesz map R scaled by alpha = <s, y>/<y, R y> of the newest pair
    (Nocedal & Wright, eq. 7.20), the alpha for which alpha R y is closest
    to s in the metric's norm. Where the direction is not a descent
    direction, or its line search (``_line_search``) fails, the memory is
    cleared and the scaled Riesz direction is used; a failed search in that
    direction ends the start as a stall. The start converges where <g, R g>
    is at most _GRAD_TOL^2 ``scale`` or _FLOOR |f|, one modal transform an
    iteration (Nocedal & Wright, sections 6.1 and 7.2); unlike the L2 norm
    it does not weigh the high modes that f cannot resolve.

    With ``below`` set the start ends at the first iterate whose value is
    below it, the start point included (a witness).
    """
    normalize, value, grad = objective
    riesz, dual_sq = metric
    alpha = 1.0
    w = grid.weights
    u = normalize(u0)
    f = value(u)
    g = grad(u, f)
    pairs = deque(maxlen=_MEMORY)
    converged = stalled = witness = False
    it = 0
    for it in range(1, max_iter + 1):
        if below is not None and f < below:
            witness = True
            break
        grg = dual_sq(g)
        if grg <= _GRAD_TOL**2 * scale or grg <= _FLOOR * abs(f):
            converged = True
            break
        found = None
        if pairs:
            d = _lbfgs_direction(g, w, pairs, alpha, riesz)
            gd = _inner(w, g, d)
            if gd > 0.0:
                found = _line_search(u, f, d, gd, normalize, value)
            if found is None:
                pairs.clear()
        if found is None:
            d = alpha * riesz(g)
            gd = _inner(w, g, d)
            found = _line_search(u, f, d, gd, normalize, value)
        if found is None:
            stalled = True
            break
        a, trial, ftrial = found
        gnew = grad(trial, ftrial)
        s = trial - u
        y = gnew - g
        sy = _inner(w, s, y)
        if sy > 1e-300:
            alpha = sy / dual_sq(y)
            pairs.append((s, y, 1.0 / sy))
        else:
            # no positive curvature: twice the Riesz step length just taken
            alpha *= 2.0 * a
        alpha = min(max(alpha, 1e-10 * grid.h_min**2), 1e10)
        u, f, g = trial, ftrial, gnew
    return u, StartRecord(it, converged, stalled, f, witness)


def _starts(grid: Grid, seed: int) -> List[np.ndarray]:
    """One start per symmetry orbit: the constant, max(1 + 0.2 u2, 1e-3)
    and a seeded random field (on a box, -0.2 would mirror the +0.2 one)."""
    rng = SplitMix64(seed).spawn(17)
    return [np.ones(grid.shape), _gap_datum(grid, 0.2),
            0.3 + rng.uniforms(grid.shape)]


# objective factories ---------------------------------------------------
def _sphere(grid: Grid, exp: float = 2.0):
    """Projection onto the unit ||.||_exp sphere, folded to |u|."""
    def normalize(u):
        u = np.abs(u)
        nrm = (math.sqrt(grid.integrate(u * u)) if exp == 2.0
               else grid.lp_norm(u, exp))
        if nrm == 0.0:
            raise ConvergenceError("iterate collapsed to zero")
        return u / nrm

    return normalize


def _quotient_p_gt1(grid: Grid, lam: float, p: float):
    """mu(lam) objective on the unit ||.||_{p+1} sphere."""
    w = grid.weights

    def value(u):
        return grid.energy(u) + lam * grid.integrate(u * u)

    def grad(u, f):
        return 2.0 * (grid.stiffness_apply(u) / w + lam * u - f * u**p)

    return _sphere(grid, p + 1.0), value, grad


def _quotient_l2(grid: Grid, c: float, p: float):
    """energy + c ||u||_{p+1}^2 on the unit L2 sphere.

    With c = mu (p < 1) this is the lam(mu) quotient. With c = -mu (p > 1)
    it is minus the concave-side quotient (mu ||u||_{p+1}^2 - energy) /
    ||u||_2^2, whose maximum is lam(mu).
    """
    w = grid.weights

    def value(u):
        return grid.energy(u) + c * grid.lp_norm(u, p + 1.0) ** 2

    def grad(u, f):
        np1 = grid.lp_norm(u, p + 1.0)
        return 2.0 * (grid.stiffness_apply(u) / w
                      + c * np1 ** (1.0 - p) * u**p - f * u)

    return _sphere(grid), value, grad


def _run_multistart(grid: Grid, objective, starts: Sequence[np.ndarray],
                    param: float, below: Optional[float] = None):
    """Best iterate, its record and the records of the starts that ran.

    The starts share the metric K + max(1, param) M (see ``_metric``),
    whose shift is also the scale of the gradient tolerance; it tracks the
    objective's zeroth-order term, without which the descent slows down at
    large parameters. The starts run in order; with ``below`` set, the
    first one that reaches a value below it is returned at once, and the
    starts after it do not run. Otherwise the start of least value is
    returned, the first one at a tie, whether it converged or stalled; its
    record says how it ended. If every start stalled, ConvergenceError is
    raised.
    """
    scale = max(1.0, param)
    metric = _metric(grid, scale)
    runs = []
    for u0 in starts:
        runs.append(_descend(grid, u0, objective, scale, metric, below=below))
        if runs[-1][1].witness:
            break
    records = tuple(rec for _, rec in runs)
    if records[-1].witness:
        return (*runs[-1], records)
    if all(rec.stalled for rec in records):
        raise ConvergenceError("every start failed its line search")
    u, best = min(runs, key=lambda run: run[1].value)
    return u, best, records


def _solve(grid: Grid, param: float, objective, sign: float, seed: int,
           below: Optional[float] = None) -> QuotientSolve:
    """Multistart solve at parameter ``param``; ``sign`` maps the minimum
    to ``mu_out``. ``below`` is a witness threshold on the objective's
    value, before ``sign`` (see ``_run_multistart``).
    """
    u, best, records = _run_multistart(grid, objective, _starts(grid, seed),
                                       param, below=below)
    u = np.maximum(u, 1e-300)
    return QuotientSolve(
        lambda_in=param, mu_out=sign * best.value, minimizer=Field(grid, u),
        constant_deviation=grid.deviation(u), iterations=best.iterations,
        converged=best.converged, restarts_used=len(records),
        starts=records)


def minimize_quotient(grid: Grid, lam: float, p: float,
                      seed: int = 0, below: Optional[float] = None
                      ) -> QuotientSolve:
    """Minimize the interpolation quotient at parameter ``lam``.

    For p > 1 this returns mu(lam); for p < 1 the argument is read as mu
    and the value is lam(mu). Multi-start, best value kept.

    With ``below`` set, the solve stops at the first iterate whose quotient
    is below it, and the starts after that one do not run. ``mu_out`` is
    then a witness value, an upper bound on the minimum rather than the
    minimum, and the solve is marked unconverged with its last start
    flagged ``witness``. If no iterate gets below ``below``, the result is
    the one the solve without it gives.
    """
    _check_exponents(p, grid.dim, False)
    if not lam > 0.0:
        raise RangeError("the quotient parameter must be positive")
    objective = (_quotient_p_gt1(grid, lam, p) if p > 1.0
                 else _quotient_l2(grid, lam, p))
    return _solve(grid, lam, objective, 1.0, seed, below=below)


def lambda_of_mu(grid: Grid, mu: float, p: float, seed: int = 0
                 ) -> QuotientSolve:
    """Best constant lam(mu) of the two-parameter inequality at mu.

    For p < 1 this is the quotient minimization itself; for p > 1 it is
    the concave-side optimization sup_u (mu ||u||_{p+1}^2 - energy)/||u||_2^2,
    whose optimizers solve the same Euler-Lagrange equation.
    """
    _check_exponents(p, grid.dim, False)
    if not mu > 0.0:
        raise RangeError("mu must be positive")
    if p < 1.0:
        return minimize_quotient(grid, mu, p, seed=seed)
    return _solve(grid, mu, _quotient_l2(grid, -mu, p), -1.0, seed)


def _threshold_bracket(grid: Grid, p: float, scale: float, tol: float,
                       broken, stage: str) -> Tuple[float, float, bool]:
    """Bisection bracket (lo, hi, open_upper) of the parameter where
    ``broken`` starts to hold.

    ``broken(x)`` runs one solve, which may stop at its first witness
    since only the verdict is read. The search starts from half the
    explicit rigidity bound, 0.5 (1 - theta*) ``scale``, which must not be
    broken, and from 1.05 ``scale``; the upper end grows 1.25x until
    ``broken`` holds, and is flagged open at the cap 3 ``scale``. Halving
    then narrows the bracket to width ``tol * scale``, or until lo and hi
    are adjacent floats, whose midpoint rounds onto one of them (a
    ``tol * scale`` below their spacing). A ConvergenceError
    raised here carries ``stage``, the parameter of the failed solve and
    its step: the number of solves of the search before it (0 is the
    lower end).
    """
    solves = 0

    def check(x: float) -> bool:
        nonlocal solves
        try:
            out = broken(x)
        except ConvergenceError as exc:
            exc.stage, exc.lam, exc.step = stage, x, solves
            raise
        solves += 1
        return out

    lo = 0.5 * (1.0 - theta_star(p, grid.dim)) * scale
    if check(lo):
        raise ConvergenceError(
            "symmetry breaking below the explicit rigidity bound: "
            "the discretization is too coarse", stage=stage, lam=lo, step=0)
    hi = 1.05 * scale
    cap = 3.0 * scale
    while not check(hi):
        hi *= 1.25
        if hi > cap:
            return lo, cap, True
    while hi - lo > tol * scale:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if check(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi, False


def estimate_mu2(grid: Grid, p: float, tol: float = 0.01,
                 seed: int = 0) -> Mu2Bracket:
    """Bisection bracket for the threshold where the quotient leaves y = x.

    The predicate "quotient value < parameter * (1 - 1e-6)" is bisected
    over the parameter; the returned bracket has width at most
    ``tol`` times the spectral-gap scale. If the predicate never fires
    below three times that scale, the upper end is flagged open. The
    departure from the diagonal is quadratic in the parameter, so the
    detection tolerance must sit well below the target bracket accuracy;
    1e-6 keeps the systematic overshoot of the detected threshold near
    0.3% while staying far above the solver's 1e-10 resolution. Each
    solve stops at the first iterate below that threshold (``below`` of
    ``minimize_quotient``), which witnesses the break.

    A ConvergenceError raised here carries the stage ``"mu2 bisection"``
    (see ``_threshold_bracket``).
    """
    _check_exponents(p, grid.dim, False)
    if not tol > 0.0:
        raise RangeError("tol must be positive")
    scale = _threshold_scale(grid, p)

    def broken(x: float) -> bool:
        thr = x * (1.0 - 1e-6)
        sol = minimize_quotient(grid, x, p, seed=seed, below=thr)
        return sol.mu_out < thr

    return Mu2Bracket(*_threshold_bracket(grid, p, scale, tol, broken,
                                          "mu2 bisection"))


def fit_scaling_exponent(grid: Grid, p: float,
                         lambda_list: Sequence[float], seed: int = 0) -> float:
    """Least-squares slope of log mu(lam) against log lam.

    Requires p > 1 and a lam range spanning at least 1.5 decades. The
    sweep runs in increasing lam order and warm-starts each minimization
    from the previous minimizer, which keeps the localized optimizers on
    track at large lam.
    """
    _check_exponents(p, grid.dim, False)
    if not p > 1.0:
        raise RangeError("the scaling fit needs p > 1")
    lams = np.sort(np.asarray([float(x) for x in lambda_list]))
    if lams.size < 3:
        raise RangeError("need at least three lam values")
    if lams[-1] / lams[0] < 10.0**1.5 * (1.0 - 1e-12):
        raise RangeError("lam values must span at least 1.5 decades")
    mus = []
    prev: Optional[np.ndarray] = None
    base = _starts(grid, seed)
    for lam in lams:
        starts = base if prev is None else [prev] + base
        prev, best, _ = _run_multistart(
            grid, _quotient_p_gt1(grid, lam, p), starts, lam)
        mus.append(best.value)
    slope = np.polyfit(np.log(lams), np.log(np.asarray(mus)), 1)[0]
    return float(slope)


# ----------------------------------------------------------------------
# the optimal interpolation constant
def _lsi_deficit(grid: Grid, c: float):
    """The p = 1 deficit energy - c Ent (``j_lambda``) on the unit L2 sphere.

    The constants give 0. Iterates are floored at 1e-12 of their maximum,
    which keeps the logarithm finite.
    """
    w = grid.weights
    sphere = _sphere(grid)

    def normalize(u):
        u = np.abs(u)
        return sphere(np.maximum(u, 1e-12 * u.max()))

    def value(u):
        return j_lambda(Field(grid, u), c, 1.0)

    def grad(u, f):
        dent = u * np.log(u * u / grid.integrate(u * u))  # L2 gradient of Ent
        return 2.0 * (grid.stiffness_apply(u) / w - f * u) - c * dent

    return normalize, value, grad


def estimate_lambda_star(grid: Grid, p: float, seed: int = 0) -> float:
    """Witnessed upper bound on the optimal interpolation constant.

    For p != 1 the constant is lam* = |p-1| mu2, and the estimate is |p-1|
    times the upper end of the ``estimate_mu2`` bracket. p = 1 estimates
    the logarithmic Sobolev constant: c is bisected on the sign of the
    minimum of energy - c Ent over the unit L2 sphere, broken meaning a
    value below -1e-6 c (each solve stops at the first such iterate), and
    the estimate is the upper end of the bracket. Either way a positive function beats the inequality at the
    returned constant, and the bracket is 0.01 lambda2 wide. Both descend
    in the Sobolev metric of the quotient solves.

    A bracket left open at its cap holds no witness and raises
    ConvergenceError with the stage ``"lambda_star bracket"``.
    """
    if p == 1.0:
        lam2 = spectral_gap(grid).eigenvalue

        def broken(c: float) -> bool:
            thr = -1e-6 * c
            sol = _solve(grid, c, _lsi_deficit(grid, c), 1.0, seed, below=thr)
            return sol.mu_out < thr

        _, hi, open_upper = _threshold_bracket(
            grid, p, lam2, 0.01, broken, "lambda_star bisection")
        factor = 1.0
    else:
        bracket = estimate_mu2(grid, p, seed=seed)
        hi, open_upper = bracket.mu2_hi, bracket.open_upper
        factor = abs(p - 1.0)
    if open_upper:
        raise ConvergenceError(
            f"no positive function breaks the inequality below {hi:g}",
            stage="lambda_star bracket", lam=hi)
    return factor * hi
