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

import math
from dataclasses import dataclass

import numpy as np

from .constants import epsilon
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


def optimal_potential(u: Field, mu: float, p: float) -> Field:
    """Saturating potential mu * u^(p-1) / ||u||_{p+1}^(p-1) (both signs of p-1).

    Scale-invariant in u; for p > 1 its L^q norm equals mu exactly by
    construction (q = (p+1)/(p-1)), for p < 1 the reciprocal carries the
    norm: ||phi^(-1)||_q = 1/mu.
    """
    epsilon(p)
    if not mu > 0.0:
        raise RangeError("mu must be positive")
    grid = u.grid
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
    eps = epsilon(p)
    sol: QuotientSolve = lambda_of_mu(grid, mu, p, seed=seed)
    u = sol.minimizer
    phi = optimal_potential(u, mu, p)
    pair = schrodinger_ground_state(grid, phi, sign=-eps)
    nu = -eps * pair.eigenvalue
    q = (p + 1.0) / abs(p - 1.0)
    if eps > 0:
        holder = grid.lp_norm(phi.values, q)
    else:
        holder = grid.lp_norm(1.0 / phi.values, q)
    return KltResult(mu=mu, nu=nu, lambda_of_mu=sol.mu_out,
                     potential=phi, q=q, holder_norm=holder)


def holder_pairing_check(phi: Field, u: Field, p: float):
    """Both sides of the Holder pairing that drives the duality.

    p > 1:  int phi u^2 <= ||phi||_q ||u||_{p+1}^2,
    p < 1:  int u^(p+1) <= (int phi u^2)^((p+1)/2) ||phi^(-1)||_q^((p+1)/2),

    with q = (p+1)/|p-1|. Equality holds exactly for the saturating
    potential built from u.
    """
    eps = epsilon(p)
    if phi.values.min() < 0.0:
        raise PositivityError("the potential must be nonnegative")
    grid = u.grid
    q = (p + 1.0) / abs(p - 1.0)
    uv = np.abs(u.values)
    pv = phi.values
    if eps > 0:
        lhs = grid.integrate(pv * uv * uv)
        rhs = grid.lp_norm(pv, q) * grid.lp_norm(uv, p + 1.0) ** 2
        return lhs, rhs
    if pv.min() <= 0.0:
        raise PositivityError("the p < 1 pairing needs a positive potential")
    lhs = grid.integrate(uv ** (p + 1.0))
    paired = grid.integrate(pv * uv * uv)
    rhs = paired ** ((p + 1.0) / 2.0) * \
        grid.lp_norm(1.0 / pv, q) ** ((p + 1.0) / 2.0)
    return lhs, rhs
