"""Positive solutions of the semilinear Neumann problem and their branches.

The equation solved nodewise is

    -eps(p) lap u + lam u - u^p = 0,    du/dn = 0,

with eps(p) the sign of p - 1. Constants u = lam^(1/(p-1)) solve it for
every lam; non-constant solutions branch off at lam = lambda2/|p-1| where
the linearization around the constant loses definiteness on the gap mode.
One Newton-chord core (``_arc_correct``) does both jobs: bordered with the
arclength constraint it traces the non-constant branch after switching
along the gap eigenfunction, and without the border it is the single
solve at fixed lam (``newton_solve``).

The continuation measures the branch in the dimensionless pair
(u/c*, ell), with c* = lam_bif^(1/(p-1)) the constant at the bifurcation
and ell = lam/lam_bif, so one step length serves every p: for p < 1 the
constant c* is tiny while ell stays of order one. The switch off the
bifurcation is the first continuation step in this metric, along the gap
mode. The step grows 2x after a corrector that needed at most four
iterations, 1.3x after five or six, and halves after each rejected step.
The trace allows 40 rejected steps in all, not 40 in a row, and ends at
the next one or once the step falls below 1e-8.

The corrector is a Newton-chord (simplified Newton) iteration: it
solves every (bordered) step with the Jacobian factor it holds, and a
contraction monitor decides when that factor is too old. After a step
taken with a factor built at an earlier iterate, the scaled residual must
have fallen at least 4x; otherwise the step is taken back and the factor
rebuilt at the iterate the step started from. The step right after a
fresh factor is a full Newton step and is not judged. Taking a failed
chord step back keeps the corrector on the branch it was following: at
the double lambda2 of the square, a chord step kept in place drifted
along the second eigenfunction onto the diagonal branch. The factor of
each accepted point is handed to the next corrector call, and a rejected
step drops it. Chord iterations converge linearly, hence the growth
thresholds above count more iterations than a full Newton corrector
would need.

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

One ``_Jacobian`` per trace (or per ``newton_solve``) holds the factor,
and its ``refresh`` drops the held one before it builds the next, so
only one is alive at a time. ``Grid.shifted_factor`` builds it: a LAPACK
tridiagonal factor on a grid with one data axis, as the gap mode's
subspace grid of every trace is, and a SuperLU factor in the grid's
cached order on a grid with more (``newton_solve`` on a rectangle or a
cuboid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass
class BranchPoint:
    lam: float
    solution: Field
    deviation: float
    newton_residual: float
    arclength: float


@dataclass
class BranchTrace:
    """Ordered branch points, bookkeeping flags and the work of the trace.

    ``factorizations`` counts every Jacobian factor the arclength
    corrector built, fresh or refreshed, tridiagonal or sparse (a
    multi-axis grid's one ordering probe is not among them),
    ``refactorizations`` those of them forced by its
    contraction monitor, ``corrector_iterations`` its iterations over all
    calls, accepted or not, and ``rejected_steps`` the continuation steps
    it rejected.
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
    refactorizations: int = 0
    unknowns: int = 0


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
    """Newton-chord iteration for F(u) = 0 at fixed lam from a positive field.

    This is the arclength corrector ``_arc_correct`` without its bordering
    row: each step solves with the Jacobian factor it holds, and a step
    taken with a factor built at an earlier iterate must cut the scaled
    residual at least 4x, or it is taken back and the factor rebuilt
    there. A step that would leave the positive cone is halved until it
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
    u, _, res, _ = _arc_correct(_Jacobian(grid, p), u, 1.0, tu=None, tl=0.0,
                                ds=0.0, lam_ref=lam, base_u=u, base_ell=1.0,
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
def _arc_correct(jac: _Jacobian, u0: np.ndarray, ell0: float,
                 tu: Optional[np.ndarray], tl: float, ds: float,
                 lam_ref: float, base_u: np.ndarray, base_ell: float,
                 max_iter: int = 30, work: Optional[BranchTrace] = None):
    """Correct a predictor onto the branch under an arclength constraint.

    Unknowns are (u, ell) with lam = lam_ref * ell; the constraint is
    <tu, u - base_u> + tl (ell - base_ell) = ds in the quadrature metric.
    With ``tu`` None there is no bordering row: ell stays at ell0 and the
    iteration solves F(u) = 0 alone (``newton_solve``).
    The iteration is Newton-chord on the grid and p of ``jac``: each
    bordered step solves with the factor ``jac`` holds, built fresh at the
    current iterate when it holds none. After a step taken with a factor
    built at an earlier iterate, a scaled residual above 1/4 of the one
    before the step takes the step back and refreshes the factor where it
    started; the step after a fresh factor is not judged. The factor left
    in ``jac`` is the one the last step used. Converges when the scaled
    residual is at most 1e-9 and the constraint holds to 1e-10 max(1, ds).
    Returns (u, ell, residual, n_iter) or raises. Iterations, factors
    built and the refreshes among them are added to the counts of
    ``work`` when given.
    """
    grid, p = jac.grid, jac.p
    w = grid.weights
    u = u0.copy()
    if u.min() <= 0.0:
        raise DampingError("predictor left the positive cone")
    ell = ell0
    judge = False
    last = None
    for it in range(1, max_iter + 1):
        if work is not None:
            work.corrector_iterations += 1
        lam = lam_ref * ell
        if lam <= 0.0:
            raise DampingError("corrector left lam > 0")
        F = _residual(grid, p, lam, u)
        res = _scaled_norm(grid, lam, u, F)
        con = 0.0 if tu is None else (
            _inner(w, tu, u - base_u) + tl * (ell - base_ell) - ds)
        if res <= _NEWTON_TOL and abs(con) <= 1e-10 * max(1.0, abs(ds)):
            return u, ell, res, it
        stale = judge and res > 0.25 * last[3]
        if stale:
            # too little contraction: take the chord step back and refresh
            # the factor at the iterate it started from
            u, ell, F, res, con = last
            lam = lam_ref * ell
        refresh = stale or jac.lu is None
        if refresh:
            if work is not None:
                work.factorizations += 1
                work.refactorizations += stale
            jac.refresh(lam, u)
        judge, last = not refresh, (u, ell, F, res, con)
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
            raise DampingError("positivity lost in Newton-chord corrector")
        u = u + alpha * du
        ell = ell + alpha * dell
    raise ConvergenceError("Newton-chord corrector did not converge", res,
                           max_iter)


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

    The corrector is Newton-chord (see ``_arc_correct``). One
    ``_Jacobian`` is carried through the trace: the first corrector call
    starts without a factor, each accepted point hands its factor to the
    next call, and a failed call drops it, so no two factors are ever
    alive together. Everything after the constant walk runs on the gap
    mode's subspace grid (module docstring), of ``unknowns`` nodes;
    stability off the subspace is not tested.
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
    jac = _Jacobian(sub, p)
    trace.unknowns = sub.n_nodes

    def point(ell, u, res, arclen):
        full = np.broadcast_to(u.reshape(ext), grid.shape).copy()
        return BranchPoint(bif * ell, Field(grid, full), sub.deviation(u),
                           res, arclen)

    def step(u, ell, tu, tl, ds):
        try:
            return _arc_correct(jac, u + ds * scale * tu, ell + ds * tl,
                                tu / scale, tl, ds, bif, u, ell, work=trace)
        except (ConvergenceError, DampingError, SingularJacobianError):
            jac.lu = None
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
        out = step(u, ell, dm / nrm, dl / nrm, ds)
        if out is None:
            ds *= 0.5
            trace.rejected_steps += 1
            if ds < 1e-8 or trace.rejected_steps > 40:
                trace.truncated, trace.stop = True, "step_failures"
                break
            continue
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

    Points count as non-constant when their deviation exceeds 1e-4 times
    the solution norm. Returns None when no trace contains such a point.
    """
    if isinstance(branches, BranchTrace):
        branches = [branches]
    best: Optional[float] = None
    for trace in branches:
        pts = trace.points if isinstance(trace, BranchTrace) else trace
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
