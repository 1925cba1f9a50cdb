"""Positive solutions of the semilinear Neumann problem and their branches.

The equation solved nodewise is

    -eps(p) lap u + lam u - u^p = 0,    du/dn = 0,

with eps(p) the sign of p - 1. Constants u = lam^(1/(p-1)) solve it for
every lam; non-constant solutions branch off at lam = lambda2/|p-1| where
the linearization around the constant loses definiteness on the gap mode.
One damped Newton core (``_arc_correct``) does both jobs: bordered with
the arclength constraint it traces the non-constant branch after
switching along the gap eigenfunction, and without the border it is the
single solve at fixed lam (``newton_solve``).

The continuation measures the branch in the dimensionless pair
(u/c*, ell), with c* = lam_bif^(1/(p-1)) the constant at the bifurcation
and ell = lam/lam_bif, so one step length serves every p: for p < 1 the
constant c* is tiny while ell stays of order one. The switch off the
bifurcation is the first continuation step in this metric, along the gap
mode. The step grows 2x after a corrector that needed at most four
iterations, 1.3x after five or six, and halves after each rejected step.
The trace allows 40 rejected steps in all, not 40 in a row, and ends at
the next one or once the step falls below 1e-8.

The corrector is full Newton (Deuflhard, *Newton Methods for Nonlinear
Problems*, 2004, sec. 2.1): every iteration factors the Jacobian at its
own iterate and solves the (bordered) step with that factor, so it
converges quadratically once close. On the one-axis subspace grid of
every trace the factor is a tridiagonal band that costs about as much as
a solve, so reusing one factor over several iterations would save
almost nothing and would converge only linearly.

Where the branch turns back in lam it has a fold, and the least lam of a
subcritical branch is that fold, not a sampled point. A fold is located
when the lam component of the secant changes sign between two accepted
steps, P0 -> P1 -> P2. The three points lie on the hyperplanes
<t, x - P1> = s of the secant t from P0 to P1, at s = -|P1 - P0|, 0 and
the step length, and ell(s) has its extreme inside. Successive parabolic
interpolation finds the zero of dell/ds there: each new s is the vertex
of the parabola through the three samples of most extreme lam, and one
corrector call puts a branch point on that hyperplane (``_fold``). ell
is quadratic in s at the fold, so s to 1e-7 gives ell to round-off. The
fold is kept in ``BranchTrace.folds``, not among the points, and the
trace goes on from P2. A trace whose lam never turns makes no extra
corrector call.

The equation commutes with the grid's symmetries, so a branch that
leaves the constant along the gap eigenfunction stays in the fixed-point
subspace of that mode (Golubitsky, Stewart & Schaeffer, *Singularities
and Groups in Bifurcation Theory II*, 1988): the fields that are constant
along every axis on which the eigenfunction is exactly constant. They
are the fields of a grid of the other axes (``Grid.subspace``), and the
whole trace runs on it: on the square the axis branch cos(pi x) has one
unknown per x node, 64 and not 4,096 on square64. Only emitted points
are extended to the caller's grid; where no axis collapses (intervals,
balls) the subspace grid is that grid. A trace on the subspace says
nothing about stability off it, so a Morse index of its points has to
be taken on the full grid, where ``newton_solve`` solves.

Each corrector call owns one ``_Jacobian``, whose ``refresh`` drops the
held factor before it builds the next, so only one is alive at a time
and none outlives the call. ``Grid.shifted_factor`` builds it: a LAPACK
tridiagonal factor on a grid with one data axis, as the gap mode's
subspace grid of every trace is, and a SuperLU factor in the grid's
cached order on a grid with more (``newton_solve`` on a rectangle or a
cuboid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.sparse.linalg import splu

from .constants import _check_exponents, epsilon
from .errors import (ConvergenceError, DampingError, PositivityError,
                     RangeError, SingularJacobianError)
from .grid import Field, Grid, _inner
from .spectral import _threshold_scale, spectral_gap

_NEWTON_TOL = 1e-9
_LAM_CAP_FACTOR = 10.0
_FOLD_TOL = 1e-7
_FOLD_CALLS = 20


@dataclass
class BranchPoint:
    lam: float
    solution: Field
    deviation: float
    newton_residual: float
    arclength: float


@dataclass
class Fold:
    """A turning point of lam on a traced branch, and the corrector
    calls its location took."""

    point: BranchPoint
    corrector_calls: int


@dataclass
class BranchTrace:
    """Ordered branch points, located folds, bookkeeping flags and the
    work of the trace.

    ``factorizations`` counts every Jacobian factor the arclength
    corrector built, tridiagonal or sparse (a multi-axis grid's one
    ordering probe is not among them), ``corrector_iterations`` its
    iterations over all calls, accepted or not, and ``rejected_steps``
    the continuation steps it rejected. Every iteration that does not
    converge builds one factor, so the iterations are the factors plus
    the corrector calls that converged.
    ``folds`` holds the turning points of lam located between accepted
    points (module docstring), in trace order; they are not in
    ``points``.
    ``stop`` names why the trace ended: ``"no_crossing"`` (the constant
    walk never crossed lambda2/|p-1|), ``"no_first_point"`` (no
    non-constant point found off the bifurcation), ``"lam_cap"``,
    ``"n_max"`` (the point budget) or ``"step_failures"``.
    ``unknowns`` is the number of nodes of the subspace grid the trace
    ran on (the size of the gap mode's fixed-point subspace), 0 when the
    walk never crossed.
    """

    points: List[BranchPoint]
    bifurcation_lambda: Optional[float]
    truncated: bool = False
    factorizations: int = 0
    corrector_iterations: int = 0
    rejected_steps: int = 0
    stop: str = ""
    unknowns: int = 0
    folds: List[Fold] = field(default_factory=list)


def _residual(grid: Grid, p: float, lam: float, u: np.ndarray) -> np.ndarray:
    return -epsilon(p) * grid.laplacian(u) + lam * u - u**p


def _scaled_norm(grid: Grid, lam: float, u: np.ndarray,
                 F: np.ndarray) -> float:
    scale = max(1.0, abs(lam) * math.sqrt(grid.integrate(u * u)))
    return math.sqrt(grid.integrate(F * F)) / scale


class _Jacobian:
    """A = M dF/du = eps K + diag(w (lam - p u^(p-1))) of ``grid``, and
    ``lu``, its factor of the last ``refresh`` or None.
    """

    def __init__(self, grid: Grid, p: float):
        self.grid, self.p, self.lu = grid, p, None

    def refresh(self, lam: float, u: np.ndarray) -> None:
        """Factor A at (lam, u) by ``Grid.shifted_factor``, dropping the
        held factor first. A failed factorization raises
        SingularJacobianError."""
        self.lu = None
        p = self.p
        self.lu = self.grid.shifted_factor(
            epsilon(p), lam - p * u.ravel() ** (p - 1.0), splu)

    def solve(self, rhs_field: np.ndarray) -> np.ndarray:
        """x with A x = M rhs, in the grid's shape."""
        out = self.lu.solve(self.grid.mass_vector() * rhs_field.ravel())
        if not np.all(np.isfinite(out)):
            raise SingularJacobianError(
                "Jacobian solve produced non-finite step")
        return out.reshape(self.grid.shape)


def newton_solve(grid: Grid, p: float, lam: float,
                 initial: Field) -> BranchPoint:
    """Damped Newton iteration for F(u) = 0 at fixed lam from a positive
    field.

    This is the arclength corrector ``_arc_correct`` without its bordering
    row: each iteration factors the Jacobian at its iterate and solves,
    and a step that would leave the positive cone is halved until it
    stays inside. Converges when the scaled residual is at most 1e-9.

    At a bifurcation point the Jacobian of the constant is singular, yet
    starts off the constant still converge (on interval128 at
    lambda2/|p-1|, p = 2 and 0.5, from c (1 + a u2) with a in [1e-6, 0.5]).

    Raises RangeError for lam <= 0, PositivityError for a non-positive
    initial field, DampingError when halving cannot keep a step positive,
    SingularJacobianError when a factorization fails or a solve is not
    finite, and ConvergenceError after 60 iterations.
    """
    _check_exponents(p, grid.dim, False)
    if not lam > 0.0:
        raise RangeError("lam must be positive")
    u = np.asarray(initial.values, dtype=float)
    if u.min() <= 0.0:
        raise PositivityError("the initial field must be positive")
    u, _, res, _ = _arc_correct(grid, p, u, 1.0, tu=None, tl=0.0, ds=0.0,
                                lam_ref=lam, base_u=u, base_ell=1.0,
                                max_iter=60)
    return BranchPoint(lam, Field(grid, u), grid.deviation(u), res, 0.0)


def constant_solution(grid: Grid, p: float, lam: float) -> BranchPoint:
    _check_exponents(p, grid.dim, False)
    c = lam ** (1.0 / (p - 1.0))
    u = np.full(grid.shape, c)
    F = _residual(grid, p, lam, u)
    return BranchPoint(lam, Field(grid, u), 0.0,
                       _scaled_norm(grid, lam, u, F), 0.0)


# ----------------------------------------------------------------------
# pseudo-arclength machinery
def _arc_correct(grid: Grid, p: float, u0: np.ndarray, ell0: float,
                 tu: Optional[np.ndarray], tl: float, ds: float,
                 lam_ref: float, base_u: np.ndarray, base_ell: float,
                 max_iter: int = 30, work: Optional[BranchTrace] = None):
    """Correct a predictor onto the branch under an arclength constraint.

    Unknowns are (u, ell) with lam = lam_ref * ell; the constraint is
    <tu, u - base_u> + tl (ell - base_ell) = ds in the quadrature metric.
    With ``tu`` None there is no bordering row: ell stays at ell0 and the
    iteration solves F(u) = 0 alone (``newton_solve``).
    The iteration is full Newton on ``grid`` at exponent p: each
    iteration that has not converged factors the Jacobian at its iterate,
    dropping the factor of the iteration before, and solves the bordered
    step with it; a step that would leave the positive cone is halved
    until it stays inside. No factor outlives the call. Converges when
    the scaled residual is at most 1e-9 and the constraint holds to
    1e-10 max(1, ds). Returns (u, ell, residual, n_iter) or raises.
    Iterations and factors built are added to the counts of ``work``
    when given.
    """
    w = grid.weights
    jac = _Jacobian(grid, p)
    u = u0.copy()
    if u.min() <= 0.0:
        raise DampingError("predictor left the positive cone")
    ell = ell0
    for it in range(1, max_iter + 1):
        lam = lam_ref * ell
        if lam <= 0.0:
            raise DampingError("corrector left lam > 0")
        if work is not None:
            work.corrector_iterations += 1
        F = _residual(grid, p, lam, u)
        res = _scaled_norm(grid, lam, u, F)
        con = 0.0 if tu is None else (
            _inner(w, tu, u - base_u) + tl * (ell - base_ell) - ds)
        if res <= _NEWTON_TOL and abs(con) <= 1e-10 * max(1.0, abs(ds)):
            return u, ell, res, it
        if work is not None:
            work.factorizations += 1
        jac.refresh(lam, u)
        x1 = jac.solve(F)
        if tu is None:
            dell, du = 0.0, -x1
        else:
            x2 = jac.solve(lam_ref * u)  # dF/d(ell)
            denom = tl - _inner(w, tu, x2)
            if abs(denom) < 1e-14:
                raise SingularJacobianError("bordered system singular")
            dell = (-con + _inner(w, tu, x1)) / denom
            du = -x1 - dell * x2
        alpha = 1.0
        while alpha >= 1e-10 and (u + alpha * du).min() <= 0.0:
            alpha *= 0.5
        if alpha < 1e-10:
            raise DampingError("positivity lost in Newton corrector")
        u = u + alpha * du
        ell = ell + alpha * dell
    raise ConvergenceError("Newton corrector did not converge", res,
                           max_iter)


def _fold(at, s, f, best):
    """The least f between three samples, by successive parabolic
    interpolation.

    ``s`` are arclengths s0 < s1 < s2 along one direction and ``f`` the
    values there, f1 below both ends; ``best`` belongs to s1. ``at(x)``
    corrects onto the branch at arclength x and returns (f, data), or
    None when the corrector fails. Each new x is the vertex of the
    parabola through the three least samples, where its derivative
    vanishes, or the midpoint of the wider side of the least sample when
    that vertex falls outside its neighbours. The search ends once x lies
    within 1e-7 of the least sample, at a failed call or after 20 calls.
    Returns (data of the least sample, calls made).
    """
    samples = dict(zip(s, f))
    calls = 0
    while calls < _FOLD_CALLS:
        (fb, b), (fv, v), (fw, w) = sorted(
            (fx, x) for x, fx in samples.items())[:3]
        lo = max(x for x in samples if x < b)
        hi = min(x for x in samples if x > b)
        r, q = (b - v) * (fb - fw), (b - w) * (fb - fv)
        x = b - 0.5 * ((b - v) * r - (b - w) * q) / (r - q) if r != q else lo
        if not lo < x < hi:
            x = 0.5 * (b + (lo if b - lo > hi - b else hi))
        if abs(x - b) <= _FOLD_TOL:
            break
        calls += 1
        out = at(x)
        if out is None:
            break
        samples[x] = out[0]
        if out[0] < fb:
            best = out[1]
    return best, calls


def trace_branch(grid: Grid, p: float, lambda_start: float,
                 direction: int = 1, n_max: int = 400) -> BranchTrace:
    """Walk the constant branch, switch at the bifurcation and continue.

    Constant points are emitted while walking from ``lambda_start`` in the
    given direction. When the gap-mode eigenvalue of the linearization
    changes sign the bifurcation value lambda2/|p-1| is recorded and
    pseudo-arclength continuation switches onto the non-constant branch
    and follows it until lam passes the cap 10 lambda2/|p-1| (which ends
    the constant walk too), the point budget, or repeated step failures
    (flagged as truncated).

    Steps are measured in the scaled metric sqrt(||du||^2/c*^2 + dell^2)
    of the module docstring, and each is one predictor-corrector step
    along a unit tangent of it. The switch is the first: from c* at
    ell = 1 along (u2/||u2||, 0) it tries the lengths 1e-3 ... 0.4 and
    keeps the first point deviating by more than 0.3 c* times the length.
    Later steps follow the secant from the switch's length, at most 0.5;
    a step grows 2x after a corrector that needed at most four iterations
    and 1.3x after five or six. Each rejected step halves it, and the 41st
    rejection overall (not the 41st in a row) or a step below 1e-8 ends
    the trace. ``arclength`` accumulates the steps times c*, in u's units.

    The corrector is full Newton (see ``_arc_correct``), and each call
    builds and drops its own factors. When an accepted step reverses the
    sign of the secant's lam component, the fold between the last three
    points is located (module docstring) and added to ``folds`` before
    the trace goes on; its ``arclength`` is that of the middle point plus
    its offset along the secant. Everything after the constant walk runs
    on the gap mode's subspace grid (module docstring), of ``unknowns``
    nodes; stability off the subspace is not tested.
    """
    _check_exponents(p, grid.dim, False)
    if direction not in (-1, 1):
        raise RangeError("direction must be +1 or -1")
    u2 = spectral_gap(grid).eigenfunction.values
    bif = _threshold_scale(grid, p)
    lam_cap = _LAM_CAP_FACTOR * bif

    points: List[BranchPoint] = []
    trace = BranchTrace(points, None, stop="no_crossing")
    lam = float(lambda_start)
    dlam = 0.02 * bif * direction
    for _ in range(25):
        if lam <= 0.0 or lam > lam_cap:
            return trace
        points.append(constant_solution(grid, p, lam))
        nxt = lam + dlam
        if (lam - bif) * (nxt - bif) <= 0.0 and lam != bif:
            break
        lam = nxt
    else:
        return trace

    # gap-mode eigenvalue of the constant-branch Jacobian vanishes here
    trace.bifurcation_lambda = bif
    points.append(constant_solution(grid, p, bif))

    c_star = bif ** (1.0 / (p - 1.0))
    scale = max(c_star, 1e-6)
    sub, ext, u2 = grid.subspace(u2)
    trace.unknowns = sub.n_nodes

    def point(ell, u, res, arclen):
        full = np.broadcast_to(u.reshape(ext), grid.shape).copy()
        return BranchPoint(bif * ell, Field(grid, full), sub.deviation(u),
                           res, arclen)

    def step(u, ell, tu, tl, ds):
        try:
            return _arc_correct(sub, p, u + ds * scale * tu, ell + ds * tl,
                                tu / scale, tl, ds, bif, u, ell, work=trace)
        except (ConvergenceError, DampingError, SingularJacobianError):
            return None

    # the switch: the first step off the constant, along the gap mode
    u = np.full(sub.shape, c_star)
    tu = u2 / math.sqrt(sub.integrate(u2 * u2))
    for ds in (1e-3, 5e-3, 0.02, 0.05, 0.1, 0.2, 0.4):
        out = step(u, 1.0, tu, 0.0, ds)
        if out is not None and sub.deviation(out[0]) > 0.3 * (ds * scale):
            break
    else:
        trace.truncated, trace.stop = True, "no_first_point"
        return trace

    prev_u, prev_ell = u, 1.0
    u, ell, res, _ = out
    arclen = ds * scale
    points.append(point(ell, u, res, arclen))
    trace.stop = "n_max"
    while len(points) < n_max:
        lam = bif * ell
        if not 0.0 < lam <= lam_cap:
            trace.stop = "lam_cap"
            break
        dm = (u - prev_u) / scale
        dl = ell - prev_ell
        nrm = math.sqrt(sub.integrate(dm * dm) + dl * dl)
        if nrm == 0.0:
            trace.truncated, trace.stop = True, "step_failures"
            break
        tu, tl = dm / nrm, dl / nrm
        out = step(u, ell, tu, tl, ds)
        if out is None:
            ds *= 0.5
            trace.rejected_steps += 1
            if ds < 1e-8 or trace.rejected_steps > 40:
                trace.truncated, trace.stop = True, "step_failures"
                break
            continue
        sign = math.copysign(1.0, out[1] - ell)
        if sign * dl < 0.0:
            # lam turned between the last three points: sign * ell is
            # least at the middle one, the point at (u, ell)
            def at(x):
                got = step(u, ell, tu, tl, x)
                return None if got is None else (sign * got[1], point(
                    got[1], got[0], got[2], arclen + x * scale))

            trace.folds.append(Fold(*_fold(
                at, (-nrm, 0.0, ds),
                (sign * prev_ell, sign * ell, sign * out[1]), points[-1])))
        prev_u, prev_ell = u, ell
        u, ell, res, nit = out
        arclen += ds * scale
        points.append(point(ell, u, res, arclen))
        if nit <= 4:
            ds = min(2.0 * ds, 0.5)
        elif nit <= 6:
            ds = min(1.3 * ds, 0.5)
    return trace


def estimate_mu1(branches: Union[BranchTrace, Sequence]) -> Optional[float]:
    """Smallest lam carrying a genuinely non-constant branch point.

    A trace contributes its points and its located folds, so on a branch
    that turns back the answer is the fold's lam, wherever the steps fell
    around it; a plain sequence contributes its points. Points count as
    non-constant when their deviation exceeds 1e-4 times the solution
    norm. Returns None when no trace contains such a point.
    """
    if isinstance(branches, BranchTrace):
        branches = [branches]
    best: Optional[float] = None
    for trace in branches:
        pts = trace.points + [f.point for f in trace.folds] if isinstance(
            trace, BranchTrace) else trace
        for pt in pts:
            norm = math.sqrt(pt.solution.grid.integrate(pt.solution.values**2))
            if pt.deviation > 1e-4 * max(norm, 1e-300):
                if best is None or pt.lam < best:
                    best = pt.lam
    return best


def el_normalization(u: Field, p: float,
                     mu: Optional[float] = None):
    """Map a 1-homogeneous Euler-Lagrange solution to the autonomous equation.

    Returns (||u||_{p+1}^(p-1), rescaled) where the rescaled field carries
    the normalization that turns the quotient's Euler-Lagrange equation
    into -eps lap w + lam w - w^p = 0. When the quotient parameter ``mu``
    is not supplied it defaults to the field's own ||u||_{p+1}^(p-1), the
    convention under which the input is already normalized.
    """
    grid = u.grid
    _check_exponents(p, grid.dim, False)
    vals = u.values
    norm = grid.lp_norm(np.abs(vals), p + 1.0)
    if norm == 0.0:
        raise RangeError("cannot normalize the zero field")
    mu_out = norm ** (p - 1.0)
    mu_param = mu_out if mu is None else float(mu)
    factor = mu_param ** (1.0 / (p - 1.0)) / norm
    return mu_out, Field(grid, factor * vals)
