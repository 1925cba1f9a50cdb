"""Schrodinger ground-state duality for the interpolation quotients.

For p > 1 the ground state of -lap - phi with the potential built from a
quotient optimizer u,

    phi = mu * u^(p-1) / ||u||_{p+1}^(p-1),

is u itself with eigenvalue -lam(mu), so the optimal ground-state bound
nu(mu) coincides with the variational lam(mu). For p < 1 the same closed
form makes u the ground state of -lap + phi with eigenvalue +lam(mu); its
admissibility is the reciprocal pairing ||phi^(-1)||_q = 1/mu, which is
the normalization under which the duality nu(mu) = lam(mu) holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import _check_exponents, _q_holder, epsilon
from .errors import PositivityError, RangeError
from .grid import Field, Grid
from .spectral import schrodinger_ground_state
from .variational import QuotientSolve, lambda_of_mu


@dataclass
class KltResult:
    mu: float
    nu: float
    lambda_of_mu: float
    potential: Field
    q: float
    holder_norm: float          # ||phi^(eps)||_q, equals mu^(eps)

    @property
    def relative_gap(self) -> float:
        return abs(self.nu - self.lambda_of_mu) / abs(self.lambda_of_mu)


def _holder_norm(grid: Grid, phi: np.ndarray, p: float):
    """q = (p+1)/|p-1| and ||phi^eps||_q, eps the sign of p - 1."""
    q = _q_holder(p)
    return q, grid.lp_norm(phi if p > 1.0 else 1.0 / phi, q)


def optimal_potential(u: Field, mu: float, p: float) -> Field:
    """Saturating potential mu * u^(p-1) / ||u||_{p+1}^(p-1) (both signs of p-1).

    Scale-invariant in u; for p > 1 its L^q norm equals mu exactly by
    construction (q = (p+1)/(p-1)), for p < 1 the reciprocal carries the
    norm: ||phi^(-1)||_q = 1/mu.
    """
    grid = u.grid
    _check_exponents(p, grid.dim, False)
    if not mu > 0.0:
        raise RangeError("mu must be positive")
    vals = np.asarray(u.values, dtype=float)
    norm = grid.lp_norm(np.abs(vals), p + 1.0)
    if norm == 0.0:
        raise RangeError("cannot build a potential from the zero field")
    if p < 1.0 and vals.min() <= 0.0:
        raise PositivityError("the p < 1 potential needs a positive field")
    phi = mu * np.abs(vals) ** (p - 1.0) / norm ** (p - 1.0)
    return Field(grid, phi)


def klt_duality_check(grid: Grid, p: float, mu: float,
                      seed: int = 0) -> KltResult:
    """Compare the variational lam(mu) with the dual ground-state value.

    The two sides come from independent solvers: the multistart quotient
    descent of ``lambda_of_mu`` versus inverse iteration on the discrete
    Schrodinger operator with the constructed optimal potential.

    A small gap checks that the returned iterate is critical on its
    support, not that it is the minimizer: on square64 at p = 0.5 and
    mu = 3 lambda2 / |p - 1| every non-constant descent start stalls,
    yet the gap is 2.6e-13. So the gap is no convergence certificate;
    the ``QuotientSolve`` of ``lambda_of_mu`` records whether the descent
    converged.
    """
    sol: QuotientSolve = lambda_of_mu(grid, mu, p, seed=seed)
    eps = epsilon(p)
    u = sol.minimizer
    phi = optimal_potential(u, mu, p)
    pair = schrodinger_ground_state(grid, phi, sign=-eps)
    nu = -eps * pair.eigenvalue
    q, holder = _holder_norm(grid, phi.values, p)
    return KltResult(mu=mu, nu=nu, lambda_of_mu=sol.mu_out,
                     potential=phi, q=q, holder_norm=holder)


def holder_pairing_check(phi: Field, u: Field, p: float):
    """Both sides of the Holder pairing that drives the duality.

    p > 1:  int phi u^2 <= ||phi||_q ||u||_{p+1}^2,
    p < 1:  int u^(p+1) <= (int phi u^2)^((p+1)/2) ||phi^(-1)||_q^((p+1)/2),

    with q = (p+1)/|p-1|. Equality holds exactly for the saturating
    potential built from u.
    """
    grid = u.grid
    _check_exponents(p, grid.dim, False)
    uv, pv = np.abs(u.values), phi.values
    if pv.min() < 0.0:
        raise PositivityError("the potential must be nonnegative")
    if p < 1.0 and pv.min() <= 0.0:
        raise PositivityError("the p < 1 pairing needs a positive potential")
    paired = grid.integrate(pv * uv * uv)
    _, holder = _holder_norm(grid, pv, p)
    if p > 1.0:
        return paired, holder * grid.lp_norm(uv, p + 1.0) ** 2
    half = (p + 1.0) / 2.0
    return grid.integrate(uv ** (p + 1.0)), paired ** half * holder ** half
