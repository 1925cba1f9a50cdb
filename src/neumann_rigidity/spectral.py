"""Neumann spectral gap and Schrodinger ground states on grid operators.

The eigenproblems are the symmetric pencils K u = lambda M u (stiffness /
mass) and (K + s*M_phi) u = lambda M u. Both are solved by shifted inverse
iteration with the constant mode removed by explicit projection where
needed; inner solves reuse one sparse factorization of the shifted matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, RangeError
from .grid import Field, Grid

_MAX_OUTER = 500


@dataclass
class EigenPair:
    eigenvalue: float
    eigenfunction: Field
    residual: float
    iterations: int


def _m_norm(w: np.ndarray, u: np.ndarray) -> float:
    return math.sqrt(float(np.dot(w, u * u)))


def _fix_sign(u: np.ndarray) -> np.ndarray:
    # deterministic orientation: largest-magnitude entry is positive
    k = int(np.argmax(np.abs(u)))
    return -u if u[k] < 0.0 else u


def _inverse_iteration(lu, A, w: np.ndarray, u: np.ndarray, tol: float,
                       max_iter: int, project: bool, what: str):
    """Shifted inverse iteration for A u = lambda M u from the start ``u``.

    ``lu`` factors the shifted pencil. With ``project`` every iterate is
    M-projected onto mean zero, which removes the constant mode. Returns
    (lambda, u, residual, iterations); the relative operator residual is
    at most ``tol``.
    """
    res = math.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        u = lu.solve(w * u)
        if project:
            u -= np.dot(w, u)
        nrm = _m_norm(w, u)
        if nrm == 0.0:
            raise ConvergenceError("inverse iteration collapsed", res, iters)
        u /= nrm
        Au = A @ u
        lam = float(np.dot(u, Au))
        res = _m_norm(w, Au / w - lam * u)
        if res <= tol * max(abs(lam), 1.0):
            return lam, u, res, iters
    raise ConvergenceError(
        f"{what} iteration did not reach tol={tol:g}", res, iters)


def spectral_gap(grid: Grid, tol: float = 1e-10,
                 max_iter: int = _MAX_OUTER) -> EigenPair:
    """Smallest nonzero Neumann eigenvalue with its eigenfunction.

    The eigenfunction is normalized to ||u||_2 = 1, is orthogonal to
    constants, and the relative operator residual is at most ``tol``.
    Results are cached on the grid.
    """
    key = ("gap", tol)
    if key in grid._cache:
        return grid._cache[key]

    w = grid.mass_vector()
    # K + M is positive definite; the constant mode is projected away in
    # the M inner product, so the iteration converges to the gap mode.
    rng = np.random.default_rng(12345)
    u = rng.standard_normal(w.size)
    u -= np.dot(w, u)  # unit measure: M-projection onto mean zero
    u /= _m_norm(w, u)
    lam, u, res, iters = _inverse_iteration(
        grid.shifted_factor(1.0), grid.sparse_stiffness(), w, u, tol,
        max_iter, True, "spectral gap")

    u = _fix_sign(u)
    pair = EigenPair(lam, Field(grid, u.reshape(grid.shape)), res, iters)
    grid._cache[key] = pair
    return pair


def schrodinger_ground_state(grid: Grid, potential, sign: int,
                             tol: float = 1e-10,
                             max_iter: int = _MAX_OUTER) -> EigenPair:
    """Lowest eigenvalue of -lap + sign*phi with Neumann conditions.

    ``sign=-1`` gives the attractive operator -lap - phi, ``sign=+1`` the
    repulsive -lap + phi. The ground state is returned with positive sign
    and unit L2 norm.
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
    A = grid.sparse_stiffness() + sparse.diags(w * v)
    # -lap >= 0, so the spectrum is bounded below by min(sign*phi)
    sigma = float(v.min()) - 1.0
    lu = splu((A - sigma * sparse.diags(w)).tocsc())
    u = np.full(w.size, 1.0)
    u /= _m_norm(w, u)
    lam, u, res, iters = _inverse_iteration(lu, A, w, u, tol, max_iter,
                                            False, "ground-state")

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
