"""Closed-form exponents, root functions and rigidity bounds.

Everything here is an explicit function of the nonlinearity exponent p,
the dimension d and the auxiliary flow exponents (beta, theta). The
quantities parameterize:

* the interpolation inequality
  ||grad u||_2^2 >= Lambda/(p-1) * (||u||_{p+1}^2 - ||u||_2^2)
  on a convex domain of unit measure, whose optimal constant is bracketed
  by explicit multiples of the Neumann spectral gap lambda2;
* the admissible exponent window (beta_minus, beta_plus) of the nonlinear
  diffusion flow and its dissipation coefficient R;
* the improvement function Phi built from R along the flow.

The p=1 endpoint is the logarithmic Sobolev case and is only reachable
through an explicit flag, since the sign epsilon(p) = (p-1)/|p-1| is
undefined there.

``scipy.integrate`` is imported inside ``improvement_phi``, the only
function that integrates. At module level it would also load
``scipy.special`` and ``scipy.optimize``, the largest part of the
package's import time and memory, in every CLI process, although no CLI
command integrates phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import ConvergenceError, NoRealRootsError, RangeError


def critical_exponent(d: int) -> float:
    """Sobolev critical exponent 2* (infinite for d = 1, 2)."""
    return 2.0 * d / (d - 2.0) if d >= 3 else math.inf


def theta_star(p: float, d: int) -> float:
    """Rigidity threshold exponent (d-1)^2 p / (d(d+2) + p)."""
    return (d - 1.0) ** 2 * p / (d * (d + 2.0) + p)


def vartheta(p: float, d: int) -> float:
    """Traceless heat-flow exponent p (d-1)^2 / (d(d+2))."""
    return p * (d - 1.0) ** 2 / (d * (d + 2.0))


def p_sharp(d: int) -> float:
    """Largest p with vartheta(p, d) < 1, i.e. d(d+2)/(d-1)^2."""
    if d == 1:
        return math.inf
    return d * (d + 2.0) / (d - 1.0) ** 2


def epsilon(p: float) -> int:
    """The sign epsilon(p) = (p-1)/|p-1|; p = 1 has none."""
    if p == 1.0:
        raise RangeError("p = 1 has no sign epsilon(p) (the log-Sobolev case)")
    return 1 if p > 1.0 else -1


def delta_exponent(p: float, beta: float) -> float:
    """Flow exponent delta = (p+1+beta(p-3)) / (2 beta (p-1))."""
    return (p + 1.0 + beta * (p - 3.0)) / (2.0 * beta * (p - 1.0))


def _kappa(p: float, beta: float) -> float:
    """The nonlinear-flow exponent kappa = beta(p-1)+1."""
    return beta * (p - 1.0) + 1.0


def _q_holder(p: float) -> float:
    """The Holder exponent q = (p+1)/|p-1| of the duality (p != 1)."""
    return (p + 1.0) / abs(p - 1.0)


def _check_exponents(p: float, d: int, log_sobolev: bool) -> int:
    """Validate (p, d) and the log-Sobolev flag; return d as an int.

    The one admissibility rule of the package: d is an integer >= 1, the
    flag fixes p = 1, p = 1 needs the flag, and any other p is positive
    and sub-critical (p < 2* - 1 when d >= 3). The quotient, threshold,
    branch, nonlinear-flow and KLT entry points call it, with
    ``log_sobolev`` False where p = 1 has no meaning.
    """
    if d < 1 or int(d) != d:
        raise RangeError("d must be an integer >= 1")
    d = int(d)
    if log_sobolev:
        if p != 1.0:
            raise RangeError("the log-Sobolev flag fixes p = 1")
    elif p == 1.0:
        raise RangeError("p = 1 is the log-Sobolev case, taken only by a "
                         "call with log_sobolev=True")
    elif not p > 0.0:
        raise RangeError("p must be positive")
    elif d >= 3 and p >= critical_exponent(d) - 1.0:
        raise RangeError(f"p={p:g} is not sub-critical for d={d} "
                         f"(needs p < {critical_exponent(d) - 1.0:g})")
    return d


@dataclass(frozen=True)
class ExponentSet:
    """All closed-form constants derived from (p, d, beta)."""

    p: float
    d: int
    epsilon: Optional[int]          # sign of p-1; None in the log-Sobolev case
    two_star: float
    theta_star: float
    vartheta: float
    p_sharp: float
    beta: float
    kappa_flow: float               # beta*(p-1) + 1
    delta: Optional[float]          # defined for beta > 1, p != 1
    q_holder: Optional[float]       # (p+1)/|p-1|; None at p = 1
    log_sobolev: bool = False


def make_exponents(p: float, d: int, beta: float = 0.0,
                   log_sobolev: bool = False) -> ExponentSet:
    """Populate an ExponentSet, validating the (p, d) range.

    p = 1 is rejected unless ``log_sobolev`` is set; for d >= 3 the
    exponent must stay below the critical value 2* - 1. ``delta`` is
    marked absent (None) unless beta > 1 and p != 1.
    """
    d = _check_exponents(p, d, log_sobolev)
    eps = None if log_sobolev else epsilon(p)
    delta = delta_exponent(p, beta) if beta > 1.0 and p != 1.0 else None
    q = None if p == 1.0 else _q_holder(p)
    return ExponentSet(
        p=float(p), d=d, epsilon=eps, two_star=critical_exponent(d),
        theta_star=theta_star(p, d), vartheta=vartheta(p, d),
        p_sharp=p_sharp(d), beta=float(beta), kappa_flow=_kappa(p, beta),
        delta=delta, q_holder=q, log_sobolev=log_sobolev)


# ----------------------------------------------------------------------
# dissipation coefficient of the nonlinear flow and its root window
def r_coefficient(theta: float, beta: float, p: float, d: int) -> float:
    """Dissipation coefficient R of the nonlinear-flow ledger.

    R = -(1/theta)((d-1)/(d+2))^2 (kappa+beta-1)^2 + kappa(beta-1)
        + (kappa+beta-1) d/(d+2),   kappa = beta(p-1)+1.
    """
    if theta <= 0.0:
        raise RangeError("theta must be positive (theta = 0 divides by zero)")
    if theta > 1.0:
        raise RangeError("theta must lie in (0, 1]")
    kappa = _kappa(p, beta)
    s = kappa + beta - 1.0      # equals beta*p
    ratio = (d - 1.0) / (d + 2.0)
    return (-(ratio**2) * s**2 / theta + kappa * (beta - 1.0)
            + s * d / (d + 2.0))


class BetaRoots(NamedTuple):
    beta_minus: float
    beta_plus: float
    degenerate: bool = False


def beta_roots(theta: float, p: float, d: int) -> BetaRoots:
    """Roots of R(beta) = 0, i.e. of A beta^2 - 2B beta + 1 = 0 with

        A = ((d-1)/(d+2))^2 p^2/theta - p + 1,   B = 1 - p/(d+2).

    Real roots exist exactly for theta in (theta_star, 1); at theta_star
    the discriminant vanishes and the double root is (d+2)/(d+2-p). When
    the leading coefficient A degenerates to zero the single root of the
    linear remainder is returned with the ``degenerate`` flag set. Note
    that R > 0 between the roots only when A > 0; for A < 0 the R > 0
    region lies outside them (use :func:`r_coefficient` to test).
    """
    ts = theta_star(p, d)
    if theta >= 1.0:
        raise RangeError("theta must be < 1 for the root window")
    if theta <= ts:
        raise NoRealRootsError(
            f"no real roots: theta={theta:g} <= theta_star={ts:g}")
    ratio = (d - 1.0) / (d + 2.0)
    a = ratio**2 * p**2 / theta - p + 1.0
    b = 1.0 - p / (d + 2.0)
    disc = b * b - a
    if disc < 0.0:
        # theta > theta_star guarantees disc >= 0 analytically
        disc = 0.0
    if abs(a) <= 1e-14 * max(1.0, b * b):
        root = 1.0 / (2.0 * b)
        return BetaRoots(root, root, degenerate=True)
    sq = math.sqrt(disc)
    if b >= 0.0:
        r1 = (b + sq) / a
    else:
        r1 = (b - sq) / a
    r2 = 1.0 / (a * r1) if r1 != 0.0 else (b - sq) / a
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return BetaRoots(lo, hi)


# ----------------------------------------------------------------------
# rigidity bounds
@dataclass(frozen=True)
class BoundsReport:
    """Bounds on the optimal interpolation constant for given (p, d, lambda2).

    All entries live on the interpolation-constant scale (the same scale
    as lambda2); divide a bound by |p-1| to move to the rigidity-threshold
    scale (see :meth:`threshold_window`). Bounds that do not apply for the
    given (p, d) are None, never zero.
    """

    p: float
    d: int
    lambda2: float
    lower_nonlinear: Optional[float]
    upper: float
    lower_heat: Optional[float]
    lower_heat_traceless: Optional[float]
    lower_beckner: Optional[float]
    best_lower: Optional[float]
    log_sobolev: bool = False

    def threshold_window(self):
        """(best_lower, upper) divided by |p-1|: bounds on the threshold."""
        if self.p == 1.0:
            raise RangeError("the threshold scale needs p != 1")
        s = abs(self.p - 1.0)
        lo = None if self.best_lower is None else self.best_lower / s
        return lo, self.upper / s


def rigidity_bounds(p: float, d: int, lambda2: float,
                    log_sobolev: bool = False,
                    lsi_constant: Optional[float] = None) -> BoundsReport:
    """Assemble every applicable explicit bound for (p, d, lambda2).

    lower_nonlinear      (1 - theta_star) lambda2          (convex, d >= 2)
    lower_heat           (1 - p) lambda2                   (0 < p < 1)
    lower_heat_traceless (1 - vartheta)/2 * lambda2        (d >= 2, p < p#)
    lower_beckner        (1-p)/(1-p^alpha) lambda2         (p < 1, needs the
                          log-Sobolev constant as input)
    upper                lambda2 always.
    """
    if not 0.0 < lambda2 < math.inf:
        raise RangeError("lambda2 must be positive and finite")
    d = _check_exponents(p, d, log_sobolev)
    lower_nonlinear = None
    if d >= 2:
        lower_nonlinear = (1.0 - theta_star(p, d)) * lambda2
    lower_heat = (1.0 - p) * lambda2 if 0.0 < p < 1.0 else None
    lower_traceless = None
    if d >= 2 and p < p_sharp(d):
        lower_traceless = 0.5 * (1.0 - vartheta(p, d)) * lambda2
    lower_beckner = None
    if 0.0 < p < 1.0 and lsi_constant is not None:
        lower_beckner = beckner_bound(p, lambda2, lsi_constant)

    candidates = [b for b in (lower_nonlinear, lower_heat,
                              lower_traceless, lower_beckner)
                  if b is not None]
    best = max(candidates) if candidates else None
    return BoundsReport(
        p=float(p), d=d, lambda2=float(lambda2),
        lower_nonlinear=lower_nonlinear, upper=float(lambda2),
        lower_heat=lower_heat, lower_heat_traceless=lower_traceless,
        lower_beckner=lower_beckner, best_lower=best,
        log_sobolev=log_sobolev)


def beckner_bound(p: float, lambda2: float, lsi_constant: float) -> float:
    """Interpolated lower bound (1-p)/(1-p^alpha) lambda2, alpha = lambda2/LSI.

    Interpolates between the Poincare constant (p -> 0) and the
    logarithmic Sobolev constant (p -> 1); requires the log-Sobolev
    constant, which can never exceed lambda2.
    """
    if not 0.0 < p < 1.0:
        raise RangeError("the interpolated bound needs p in (0, 1)")
    if not lambda2 > 0.0:
        raise RangeError("lambda2 must be positive")
    if not 0.0 < lsi_constant <= lambda2:
        raise RangeError("the log-Sobolev constant must lie in (0, lambda2]")
    alpha = lambda2 / lsi_constant
    return (1.0 - p) / (1.0 - p**alpha) * lambda2


# ----------------------------------------------------------------------
# improvement function of the nonlinear flow
class PhiResult(NamedTuple):
    phi_closed: float
    phi_ode: float
    Phi: float


def improvement_phi(s: float, exponents: ExponentSet,
                    theta: float) -> PhiResult:
    """Improvement functions phi (two routes) and Phi at entropy level s.

    phi_closed integrates the closed-form kernel

        phi(s) = int_0^s exp[k ((1-(p-1)z)^(1-delta) - (1-(p-1)s)^(1-delta))] dz,
        k = R / (beta (beta-1) (p+1)),

    by adaptive quadrature; phi_ode integrates the equivalent linear ODE

        phi' = 1 + phi * R/(2 beta^2) * (1-(p-1)e)^(-delta),  phi(0) = 0,

    with an adaptive embedded 4(5) pair. Both values are returned so their
    discrepancy can be reported; they are never asserted equal here. Phi is
    built from the ODE route:

        Phi(s) = (1+(p-1)s) * phi(s / (1+(p-1)s)).
    """
    p, d, beta = exponents.p, exponents.d, exponents.beta
    if exponents.delta is None:
        raise RangeError("improvement needs beta > 1 and p != 1 (delta absent)")
    delta = exponents.delta
    if not theta_star(p, d) < theta < 1.0:
        raise RangeError("theta must lie in (theta_star, 1)")
    if s < 0.0:
        raise RangeError("the entropy argument must be nonnegative")
    if s == 0.0:
        return PhiResult(0.0, 0.0, 0.0)
    pref = 1.0 + (p - 1.0) * s
    if pref <= 0.0:
        raise RangeError("1 + (p-1) s must stay positive for Phi")
    if 1.0 - (p - 1.0) * s <= 0.0:
        raise RangeError("integration path leaves the domain 1-(p-1)z > 0")

    from scipy.integrate import quad, solve_ivp

    R = r_coefficient(theta, beta, p, d)
    k_closed = R / (beta * (beta - 1.0) * (p + 1.0))

    def edge(z: float) -> float:
        return (1.0 - (p - 1.0) * z) ** (1.0 - delta)

    tail = edge(s)

    def integrand(z: float) -> float:
        return math.exp(k_closed * (edge(z) - tail))

    val, err = quad(integrand, 0.0, s, epsabs=1e-10, epsrel=1e-10, limit=200)
    if err > 1e-8 * max(1.0, abs(val)):
        raise ConvergenceError("quadrature for phi did not converge", err)

    c_ode = R / (2.0 * beta**2)

    def rhs(e, y):
        return [1.0 + y[0] * c_ode * (1.0 - (p - 1.0) * e) ** (-delta)]

    def solve_ode(target: float) -> float:
        if target == 0.0:
            return 0.0
        sol = solve_ivp(rhs, (0.0, target), [0.0], method="RK45",
                        rtol=1e-10, atol=1e-14)
        if not sol.success:
            raise ConvergenceError("ODE integration for phi failed")
        return float(sol.y[0, -1])

    phi_ode = solve_ode(s)
    inner = s / pref
    Phi = pref * solve_ode(inner)
    return PhiResult(float(val), phi_ode, Phi)


def scaling_exponent(p: float, d: int) -> float:
    """Large-parameter growth exponent 1 - (d/2)(p-1)/(p+1) of the quotient."""
    if not p > 1.0:
        raise RangeError("the scaling exponent is defined for p > 1")
    return 1.0 - 0.5 * d * (p - 1.0) / (p + 1.0)
