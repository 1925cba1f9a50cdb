"""Neumann spectral gap and Schrodinger ground states on grid operators.

The eigenproblems are the symmetric pencils K u = lambda M u (stiffness /
mass) and (K + s*M_phi) u = lambda M u. The first is a Kronecker sum of
1-D tridiagonal pencils (``Grid.heat_modes``), so its gap mode is the
second mode of one axis times constants on the others, and its gap is
the mode's face energy (``Grid.energy``). The Schrodinger pencil does
not separate and is solved by shifted inverse iteration on one factor
of the shifted matrix from ``Grid.shifted_factor``, as the branch
Jacobian's is: LAPACK's tridiagonal factor on a grid with one data axis,
SuperLU in the grid's cached order on one with more. Its Rayleigh
quotient and residual take K u from ``Grid.stiffness_apply``.

The rules built on the gap live here too: the threshold scale
lambda2/|p-1| (``_threshold_scale``) and the positive gap-mode datum
max(1 + a u2, 1e-3) of the descent starts and the flows (``_gap_datum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, RangeError
from .grid import Field, Grid, outer_product


@dataclass
class EigenPair:
    eigenvalue: float
    eigenfunction: Field
    residual: float
    iterations: int


def _m_norm(w: np.ndarray, u: np.ndarray) -> float:
    return math.sqrt(float(np.dot(w, u * u)))


def spectral_gap(grid: Grid) -> EigenPair:
    """Smallest nonzero Neumann eigenvalue with its eigenfunction.

    The gap is the least second eigenvalue of the per-axis pencils. At a
    multiple gap (equal axes) the mode of the first such axis is taken:
    it varies along that axis only. The eigenfunction is M-orthogonal to
    constants with ||u||_2 = 1 and is positive at the first node; the
    eigenvalue is its energy E(u, u), a sum of squares over the faces
    that no box aspect rounds away. Results are cached on the grid.

    On a radial ball this is the second radial eigenvalue, not the
    ball's gap: that belongs to the l = 1 harmonic and is 4.3-4.7 times
    smaller (46.12 against 10.65 on the disk at n = 256).
    """
    if "gap" in grid._cache:
        return grid._cache["gap"]

    modes = grid.heat_modes()
    axis = min(range(len(modes)), key=lambda a: modes[a][0][1])
    factors = [c[:, 1] if a == axis else np.ones(c.shape[0])
               for a, (_, c) in enumerate(modes)]
    u = outer_product(factors).ravel()
    w = grid.mass_vector()
    # unit measure: M-projection onto mean zero; out of place, since in
    # 1-D u may be a view of the cached modes
    u = u - np.dot(w, u)
    u /= _m_norm(w, u)
    # the first node is an extremum of every axis's second mode, so this
    # orientation never rests on a round-off tie
    if u[0] < 0.0:
        u = -u
    u = u.reshape(grid.shape)
    lam = grid.energy(u)  # the Rayleigh quotient, as u is M-normalised
    res = _m_norm(w, (grid.laplacian(u) + lam * u).ravel())

    pair = EigenPair(lam, Field(grid, u), res, 0)
    grid._cache["gap"] = pair
    return pair


def _threshold_scale(grid: Grid, p: float) -> float:
    """The rigidity threshold scale lambda2/|p-1| of the grid."""
    if p == 1.0:
        raise RangeError("p = 1 has no threshold scale lambda2/|p-1|")
    return spectral_gap(grid).eigenvalue / abs(p - 1.0)


def _gap_datum(grid: Grid, amp: float) -> np.ndarray:
    """The positive datum max(1 + amp u2, 1e-3), u2 the gap eigenfunction."""
    u2 = spectral_gap(grid).eigenfunction.values
    return np.maximum(1.0 + amp * u2, 1e-3)


def schrodinger_ground_state(grid: Grid, potential, sign: int) -> EigenPair:
    """Lowest eigenvalue of -lap + sign*phi with Neumann conditions.

    ``sign=-1`` gives the attractive operator -lap - phi, ``sign=+1`` the
    repulsive -lap + phi. The ground state is returned with positive sign
    and unit L2 norm; the relative operator residual is at most 1e-10.
    ConvergenceError is raised if 500 inverse iterations do not reach it.
    The iteration solves with one factor of K + diag(w (sign phi -
    sigma)), sigma below the spectrum, from ``Grid.shifted_factor``: a
    LAPACK tridiagonal factor on a grid with one data axis, SuperLU on
    one with more.
    """
    if sign not in (-1, 1):
        raise RangeError("sign must be +1 or -1")
    phi = potential.values if isinstance(potential, Field) else np.asarray(potential)
    if phi.shape != grid.shape:
        raise RangeError("potential shape does not match the grid")
    if not np.all(np.isfinite(phi)):
        raise RangeError("potential must be finite")

    w = grid.mass_vector()
    v = sign * phi.ravel()
    # -lap >= 0, so the spectrum is bounded below by min(sign*phi)
    sigma = float(v.min()) - 1.0
    lu = grid.shifted_factor(1.0, v - sigma, splu)
    # shifted inverse iteration, started from the constant
    u = np.full(w.size, 1.0)
    u /= _m_norm(w, u)
    res, iters = math.inf, 0
    for iters in range(1, 501):
        u = lu.solve(w * u)
        nrm = _m_norm(w, u)
        if nrm == 0.0:
            raise ConvergenceError("inverse iteration collapsed", res, iters)
        u /= nrm
        Au = grid.stiffness_apply(u) + w * v * u
        lam = float(np.dot(u, Au))
        res = _m_norm(w, Au / w - lam * u)
        if res <= 1e-10 * max(abs(lam), 1.0):
            break
    else:
        raise ConvergenceError(
            "ground-state iteration did not reach tol=1e-10", res, iters)

    if grid.integrate(u.reshape(grid.shape)) < 0.0:
        u = -u
    return EigenPair(lam, Field(grid, u.reshape(grid.shape)), res, iters)


def check_lin_interp_inequality(f: Field):
    """Both sides of (int |grad u|^2)^2 <= int |lap u|^2 * int u^2.

    With the summation-by-parts pair the discrete inequality is an exact
    Cauchy-Schwarz estimate; equality holds for eigenfunctions.
    """
    grid = f.grid
    u = f.values
    lhs = grid.energy(u) ** 2
    lap = grid.laplacian(u)
    rhs = grid.integrate(lap * lap) * grid.integrate(u * u)
    return lhs, rhs
