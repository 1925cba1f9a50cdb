"""Diffusion flows and the monotone quantities they carry.

Heat flow: v_t = lap v with Neumann conditions, monitored through
u = v^(1/(p+1)) for p in (0, 1). The quadrature mass of v is conserved to
round-off (the stiffness annihilates constants), the Dirichlet energy of u
decays exponentially, and the spectral-gap deficit

    ||grad u||^2 - lambda2 (||u||_2^2 - ||u||_{p+1}^2)

is nonincreasing.

Nonlinear flow: v_t = v^(2-2beta) (lap v + kappa |grad v|^2 / v) with
kappa = beta(p-1)+1. The scheme advances the conserved density
m = v^(beta(p+1)), whose equation is the divergence form

    m_t = beta(p+1) div(v^kappa grad v),

so the quadrature mass of m is conserved to round-off for every step
size. The deficit functional of u = v^beta with constant (1-theta) times
the discrete spectral gap is nonincreasing along the flow.

Along both flows ||u||_{p+1}^{p+1} is the conserved mass, int v for the
heat flow and int m for the nonlinear flow, so each sample takes it from
that mass and computes no power of u for it. The nonlinear flow takes one
log m per state and forms both powers of m it needs, the face coefficient
c = v^kappa and v itself, from one multiply of log m by the two exponents
and one exp.

Both flows record their samples a block at a time: the stored states of
up to 64 samples (fewer where 64 states would exceed 2^18 node values)
are stacked, and mass, e, i, J, min v and the quartic are computed once
per block by the grid kernels, which take a leading sample axis and give
each field the bits of its own call. Scalar powers of a sample, such as
mass^(2/(p+1)), stay Python-float powers: numpy's array power differs
from libm's pow in the last bit for some inputs, so an array power would
move the series.

The heat flow is exact in time. Its semi-discrete system v' = -M^-1 K v
is linear with constant coefficients, and the (K, M) pencil of every grid
is a Kronecker sum of 1-D tridiagonal pencils (``Grid.heat_modes``). So
v is moved into the M-orthonormal modal basis once (``Grid.to_modes``),
each stored time t_k = k t_end / n_store multiplies the modal
coefficients by exp(-(t_end / n_store) Lambda), and the result is mapped
back to node values. The constant mode has eigenvalue exactly 0.

The nonlinear flow takes one second-order Runge-Kutta-Legendre
super-time-step (RKL2; Meyer, Balsara & Aslam, J. Comput. Phys. 257
(2014) 594-626) from each stored time to the next. A step of s stages is
stable up to (s^2+s-2)/4 forward-Euler steps; s is the least stage count
that keeps every stage within cfl times the forward-Euler bound. Every
stage adds multiples of the divergence-form right-hand side to an affine
combination of earlier stages, so mass stays exact to round-off. The
step carries its two latest increments, the stage right-hand side and
the first stage's as the rows of one stack, so a stage is one broadcast
multiply by a row of coefficients cached per stage count and one sum
over the rows, in the order of the plain recursion. There is
no generic integrator: ``nonlinear_flow_run`` owns its step loop, and the
v = m^(1/(beta(p+1))) it computes for each trial state, when it checks
the trial, serves that state's record, stage bound and first stage.

Both semi-discrete flows keep a field that is exactly constant along a
grid axis constant along that axis: no flux crosses that axis's faces,
and every face weight is a product of per-axis factors, so each slice
along the axis moves alike. Each flow therefore runs
wholly on the subspace grid of its initial datum (``Grid.subspace``), the
grid of the axes along which the datum varies: the modal propagator, the
RKL2 stages, the positivity checks and the samples. On the square the
gap-mode datum max(1 + a cos(pi x), 1e-3) has 64 unknowns on square64,
not 4,096. Every parameter still comes from the caller's grid: lambda2,
the stage bound, d, theta_star and the positivity floor, so stage counts
and sample times are those of the full grid and the series agree with
it to round-off. ``FlowTrace.unknowns`` records the subspace grid's node
count; a datum that varies along every axis (intervals, balls) runs on
the grid itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .constants import (_check_exponents, _kappa, delta_exponent,
                        r_coefficient, theta_star)
from .errors import ConvergenceError, PositivityError, RangeError
from .grid import Field, Grid
from .spectral import spectral_gap

_STORE_TARGET = 400
_CFL = 0.5           # each stage's share of the forward-Euler step bound
_MAX_HALVINGS = 40   # consecutive rejected trials before a step gives up
_BLOCK = 64          # samples recorded together, at most
_BLOCK_VALUES = 1 << 18  # node values in a block of states, at most
# RKL2 stages in one step, at most. A step of s stages evaluates s
# right-hand sides, and s grows as the square root of the step over the
# stage bound: 10,000 stages are 4 million evaluations over 400 samples,
# where the test suite's runs take at most 200 stages a step. A longer
# sample interval t_end / n_store is refused, not counted out (at
# t_end = 1e300 the count would run to about 1e150).
_MAX_STAGES = 10_000
# the forward-Euler steps that one step of _MAX_STAGES stages spans
_MAX_STAGE_SPAN = (_MAX_STAGES**2 + _MAX_STAGES - 2) / 4.0


@dataclass
class FlowTrace:
    """Time series along a flow; all arrays share one length."""

    times: np.ndarray
    entropy_e: np.ndarray
    production_i: np.ndarray
    j_lambda: np.ndarray
    mass: np.ndarray
    min_v: np.ndarray
    dt_used: np.ndarray
    # run metadata (not part of the per-step series)
    p: float = 0.0
    beta: Optional[float] = None
    theta: Optional[float] = None
    lambda2: float = 0.0
    Lambda: float = 0.0
    dim: int = 0
    # nonlinear runs also record int |grad v|^4 / v^2 per stored step
    quartic: Optional[np.ndarray] = None
    # work record: accepted steps (RKL2 steps of the nonlinear flow, one
    # exact modal propagation per sample of the heat flow), right-hand-side
    # evaluations of accepted and rejected trials (0 for the heat flow) and
    # rejected trials (0 for the heat flow)
    steps: int = 0
    rhs_evals: int = 0
    halvings: int = 0
    # nodes of the grid the flow ran on: the initial datum's subspace grid
    unknowns: int = 0


def _entropy_pair(grid: Grid, u: np.ndarray, p: float, mass):
    """(e, i) of u, where ``mass`` is int u^(p+1); for a stack u of fields
    (leading sample axis) and the array of their masses, arrays (e, i).

    Along both flows int u^(p+1) is the conserved mass of the advanced
    density (v in the heat flow, m in the nonlinear flow), so the caller
    already holds it and ||u||_{p+1}^2 = mass^(2/(p+1)) costs no power of
    u. That power is a Python-float power for each mass: numpy's array
    power rounds differently from libm's ``pow`` in the last bit for some
    inputs.
    """
    ex = 2.0 / (p + 1.0)
    if np.ndim(mass):
        np1 = np.array([x ** ex for x in mass.tolist()])
    else:
        np1 = mass ** ex
    n2 = grid.integrate(u * u)
    e = (np1 - n2) / (p - 1.0)
    i = grid.energy(u)
    return e, i


def _exp_power(log_m: np.ndarray, a, out: Optional[np.ndarray] = None
               ) -> np.ndarray:
    """m^a as exp(a log m) from log m, into ``out`` when given.

    An array ``a`` of exponents, shaped to broadcast against log m, gives
    the power for each exponent in one multiply and one exp; each is the
    same to the bit as its own call.

    Rounding log m and the product a log m moves the result by about
    |a log m| ulp, so it lies within (|a log m| + 2) 2^-52 relative of
    ``m ** a``: below 1e-14 while |a log m| <= 43. In the nonlinear flow
    a log m is log v or kappa log v; above its positivity floor
    v >= 1e-10 max v, with max v near 1, |log v| is at most about 23.
    """
    prod = np.multiply(log_m, a, out=out)
    return np.exp(prod, out=prod)


def _rkl2_stages(dt: float, dt_stage: float) -> int:
    """Least s >= 2 with (s^2+s-2)/4 * dt_stage >= dt."""
    s = 2
    while (s * s + s - 2) * dt_stage < 4.0 * dt:
        s += 1
    return s


@functools.lru_cache(maxsize=None)
def _rkl2_table(s: int):
    """(b_1 w_1, table) of the s-stage RKL2 step, cached per s.

    Row j - 2 of the read-only (s - 1, 4) table holds the weights of the
    stack rows (two increments, stage rhs, f0) in stage j: mu~_j and
    gamma~_j in columns 2 and 3, and mu_j and nu_j in columns 0 and 1 on
    even j, 1 and 0 on odd j, where the increments have swapped rows.
    """
    w1 = 4.0 / (s * s + s - 2.0)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2.0) / (2.0 * j * (j + 1.0))
                           for j in range(3, s + 1)]
    rows = []
    for j in range(2, s + 1):
        mu = (2.0 * j - 1.0) / j * b[j] / b[j - 1]
        nu = -(j - 1.0) / j * b[j] / b[j - 2]
        mu_t = mu * w1
        gamma_t = -(1.0 - b[j - 1]) * mu_t
        rows.append((mu, nu, mu_t, gamma_t) if j % 2 == 0
                    else (nu, mu, mu_t, gamma_t))
    table = np.array(rows)
    table.flags.writeable = False
    return b[1] * w1, table


def _rkl2_step(rhs, y0: np.ndarray, dt: float, s: int) -> np.ndarray:
    """One s-stage RKL2 step of y' = rhs(y); s evaluations of rhs.

    Stage j is Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + (1-mu_j-nu_j) Y_0
    + mu~_j dt rhs(Y_{j-1}) + gamma~_j dt rhs(Y_0). It is carried as the
    increment D_j = Y_j - Y_0, which keeps a constant state exactly fixed.
    D_{j-1}, D_{j-2}, the stage rhs and f0 = dt rhs(Y_0) are the rows of
    one stack, so a stage is one broadcast multiply by its row of
    ``_rkl2_table`` (times dt in the rhs column) and one sum over the
    rows, taken in order: D_j = mu D_{j-1} + nu D_{j-2} + mu~ dt rhs
    + gamma~ f0 left to right, the first two terms swapped on odd j
    (exact, as a + b == b + a). D_j overwrites D_{j-2}, so the two
    increment rows take turns. ``rhs`` may return the same buffer at
    every call; its result is copied into the stack.
    """
    d1, table = _rkl2_table(s)
    coefs = table * np.array([1.0, 1.0, dt, 1.0])
    coefs.shape += (1,) * y0.ndim
    stack = np.zeros((4,) + y0.shape)
    prod = np.empty_like(stack)
    stage = np.empty_like(y0)
    inc = (stack[0], stack[1])
    np.multiply(rhs(y0), dt, out=stack[3])
    np.multiply(stack[3], d1, out=inc[0])
    for j, c in enumerate(coefs):
        # stage j + 2 reads D_{j+1} from row j % 2
        np.add(y0, inc[j % 2], out=stage)
        stack[2] = rhs(stage)
        np.multiply(stack, c, out=prod)
        np.add.reduce(prod, axis=0, out=inc[1 - j % 2])
    return np.add(y0, inc[(s - 1) % 2])


def _flow_data(grid: Grid, v0: Field, t_end: float, n_store: int):
    """(sub, v): the subspace grid of v0 on ``grid`` and v0's values on it
    as floats, after the checks that both flows make."""
    if not t_end > 0.0:
        raise RangeError("t_end must be positive")
    if n_store < 1:
        raise RangeError("n_store must be at least 1")
    v = np.asarray(v0.values, dtype=float)
    if v.min() <= 0.0:
        raise PositivityError("initial data must be strictly positive")
    sub, _, v = grid.subspace(v)
    return sub, v


def _block_size(n_nodes: int) -> int:
    """Samples recorded together: at most 64, and at most 2^18 node
    values in a block of states."""
    return max(1, min(_BLOCK, _BLOCK_VALUES // n_nodes))


def _columns(blocks) -> List[np.ndarray]:
    """Each column of the per-block record tuples, joined over the blocks."""
    return [np.concatenate(c) for c in zip(*blocks)]


def heat_flow_run(grid: Grid, p: float, v0: Field, t_end: float,
                  n_store: int = _STORE_TARGET) -> FlowTrace:
    """Solve the semi-discrete Neumann heat equation; record the u-quantities.

    Requires p in (0, 1) and strictly positive data. The solution is exact
    in time: the modal coefficients of v0 on its subspace grid sub
    (``sub.to_modes``, module docstring) are multiplied by
    exp(-dt Lambda), dt = t_end / n_store, once per stored sample and
    mapped back to node values. The heat flow preserves positivity, so a
    sample that loses it means the modal transform C = W^-1/2 Q lost
    precision, as it does where a weight is tiny (9.4e-148 next to the
    70-ball's origin at n = 64). The error names the smallest weight of
    sub and carries the start and length of that sample interval. The
    samples are recorded, and checked, a block at a time.
    """
    if not 0.0 < p < 1.0:
        raise RangeError("the heat-flow estimate needs p in (0, 1)")
    sub, v = _flow_data(grid, v0, t_end, n_store)

    lam2 = spectral_gap(grid).eigenvalue
    Lam = (1.0 - p) * lam2

    dt = t_end / n_store
    decay = np.exp(-dt * sub.mode_eigenvalues())
    coeffs = sub.to_modes(v)
    block, nodes = _block_size(sub.n_nodes), tuple(range(1, v.ndim + 1))
    states, blocks = [], []
    for k in range(n_store + 1):
        if k:
            coeffs *= decay
            v = sub.from_modes(coeffs)
        states.append(v)
        if len(states) < block and k < n_store:
            continue
        first = k + 1 - len(states)
        vs, states = np.stack(states), []
        min_v = vs.min(axis=nodes)
        # sample 0 is v0, which _flow_data has checked
        for j, low in enumerate(min_v.tolist(), first):
            if j and not low > 0.0:
                t = (j - 1) * t_end / n_store
                raise PositivityError(
                    f"heat flow lost positivity at t={t:.6e} with "
                    f"dt={dt:.3e}: the modal transform lost precision "
                    f"(smallest grid weight {sub.weights.min():.1e})",
                    t=t, dt=dt)
        mass = sub.integrate(vs)
        e, i = _entropy_pair(sub, vs ** (1.0 / (p + 1.0)), p, mass)
        blocks.append((e, i, i - Lam * e, mass, min_v))
    dts = np.full(n_store + 1, dt)
    dts[0] = 0.0
    return FlowTrace(np.arange(n_store + 1) * t_end / n_store,
                     *_columns(blocks), dts, p=p, beta=None, theta=None,
                     lambda2=lam2, Lambda=Lam, dim=grid.dim,
                     steps=n_store, rhs_evals=0, halvings=0,
                     unknowns=sub.n_nodes)


def nonlinear_flow_run(grid: Grid, p: float, beta: float, theta: float,
                       v0: Field, t_end: float,
                       n_store: int = _STORE_TARGET) -> FlowTrace:
    """Integrate the nonlinear flow in its conserved density.

    The density m = v^(beta(p+1)) is advanced with face-averaged
    coefficients v^kappa, conserving the quadrature mass of m to round-off.
    Each sample interval t_end / n_store is one RKL2 step, each of its
    stages bounded by 0.5 * h^2 * min(v^(2 beta - 2)) / (2 d), taken at
    the start of the step, with h the least spacing of ``grid``, not of
    the subspace grid the step runs on (module docstring). A trial that
    leaves m non-positive or v below 1e-10 of the initial maximum is
    halved and sub-stepped to the same sample time; forty halvings in a
    row abort with the time and step. A step that would need more than
    10,000 stages raises RangeError naming t_end / n_store.
    The step loop is written out here and keeps the accepted m, its
    powers (c, v) = (m^(kappa/beta(p+1)), m^(1/beta(p+1))) and the least
    and largest v as locals. They are computed once per state, when its
    trial is checked, and serve its record, the stage bound of the next
    step and that step's first stage.
    """
    _check_exponents(p, grid.dim, False)
    if not theta_star(p, grid.dim) < theta < 1.0:
        raise RangeError("theta must lie in (theta_star, 1)")
    if abs(beta) < 1e-12:
        raise RangeError("beta must be nonzero")
    sub, v0 = _flow_data(grid, v0, t_end, n_store)

    kappa = _kappa(p, beta)
    m_exp = beta * (p + 1.0)
    lam2 = spectral_gap(grid).eigenvalue
    Lam = (1.0 - theta) * lam2
    bound = _CFL * grid.h_min**2 / (2.0 * grid.dim)
    floor = 1e-10 * float(v0.max())

    # the exponents of c = m^(kappa/m_exp) and v = m^(1/m_exp), one row
    # each: every power of a state is _exp_power of its log m, so a v that
    # rhs computes afresh equals the accepted state's v to the bit
    exps = np.array([kappa / m_exp, 1.0 / m_exp]).reshape(
        (2,) + (1,) * v0.ndim)
    log_m, rhs_buf = np.empty_like(v0), np.empty_like(v0)
    stage_cv = np.empty((2,) + v0.shape)
    rhs_scale = -m_exp / sub.weights

    def rhs(y):
        # the first stage of a step starts from the accepted state m
        c, w = cv if y is m else _exp_power(np.log(y, out=log_m), exps,
                                            stage_cv)
        out = sub.weighted_stiffness_apply(c, w, out=rhs_buf)
        out *= rhs_scale
        return out

    m = v0**m_exp
    cv = _exp_power(np.log(m, out=log_m), exps)
    v_lo, v_hi = float(cv[1].min()), float(cv[1].max())
    block, nodes = _block_size(sub.n_nodes), tuple(range(1, v0.ndim + 1))
    ms, vs, dts, blocks = [], [], [], []
    steps = rhs_evals = halvings = failed = 0
    t = dt = 0.0
    # k = 0 takes no step: it records the initial state with dt = 0
    for k in range(n_store + 1):
        t_k = k * t_end / n_store
        dt_try = t_k - t
        while t < t_k:
            left = t_k - t
            dt = left if left <= dt_try * (1.0 + 1e-9) else dt_try
            # v^(2 beta - 2) is monotone in v, so its least value is that
            # power of max v (beta < 1) or of min v
            end = v_hi if beta < 1.0 else v_lo
            dt_stage = bound * end ** (2.0 * beta - 2.0)
            if not dt <= _MAX_STAGE_SPAN * dt_stage:
                raise RangeError(
                    f"t_end/n_store = {t_end / n_store:.6e} needs more "
                    f"than {_MAX_STAGES} RKL2 stages a step at t={t:.6e} "
                    f"(stage bound {dt_stage:.3e}); lower t_end or raise "
                    f"n_store")
            s = _rkl2_stages(dt, dt_stage)
            with np.errstate(invalid="ignore", divide="ignore",
                             over="ignore"):
                m_new = _rkl2_step(rhs, m, dt, s)
                cv_new = _exp_power(np.log(m_new, out=log_m), exps)
                # min and max are NaN where any value is
                m_lo, m_hi = float(m_new.min()), float(m_new.max())
                nv_lo = float(cv_new[1].min())
                nv_hi = float(cv_new[1].max())
            if not (math.isfinite(m_lo) and math.isfinite(m_hi)):
                fault = ConvergenceError, "step produced non-finite values"
            elif not m_lo > 0.0:
                fault = PositivityError, "flow lost positivity"
            elif not (math.isfinite(nv_lo) and math.isfinite(nv_hi)):
                fault = ConvergenceError, "step produced non-finite values"
            elif not nv_lo > floor:
                fault = PositivityError, "flow hit the positivity floor"
            else:
                fault = None
            rhs_evals += s
            if fault is not None:
                halvings += 1
                failed += 1
                if failed == _MAX_HALVINGS:
                    kind, message = fault
                    raise kind(f"{message} at t={t:.6e} with dt={dt:.3e}",
                               t=t, dt=dt)
                dt_try = 0.5 * dt
                continue
            failed = 0
            m, cv, v_lo, v_hi = m_new, cv_new, nv_lo, nv_hi
            t = t_k if dt == left else t + dt
            steps += 1
        ms.append(m)
        vs.append(cv[1])
        dts.append(dt)
        if len(ms) < block and k < n_store:
            continue
        mb, vb, ms, vs = np.stack(ms), np.stack(vs), [], []
        # int u^(p+1) = int m, the conserved mass
        mass = sub.integrate(mb)
        e, i = _entropy_pair(sub, vb**beta, p, mass)
        g = sub.nodal_grad_sq(vb)
        blocks.append((e, i, i - Lam * e, mass, vb.min(axis=nodes),
                       sub.integrate(g * g / (vb * vb))))
    e, i, j, mass, min_v, quartic = _columns(blocks)
    return FlowTrace(np.arange(n_store + 1) * t_end / n_store, e, i, j,
                     mass, min_v, np.array(dts), p=p, beta=beta,
                     theta=theta, lambda2=lam2, Lambda=Lam, dim=grid.dim,
                     quartic=quartic, steps=steps, rhs_evals=rhs_evals,
                     halvings=halvings, unknowns=sub.n_nodes)


def accumulated_dissipation_bound(trace: FlowTrace):
    """Both sides of the integrated dissipation estimate.

    Returns (R beta^2 int_0^T int |grad v|^4/v^2 dt, J(0) - J(T)); the
    left side never exceeds the right along the flow when theta and beta
    are admissible (trapezoid rule in time on the stored samples).
    """
    if trace.quartic is None or trace.beta is None or trace.theta is None:
        raise RangeError("dissipation bound needs a nonlinear-flow trace")
    R = r_coefficient(trace.theta, trace.beta, trace.p, trace.dim)
    lhs = R * trace.beta**2 * float(np.trapezoid(trace.quartic, trace.times))
    rhs = float(trace.j_lambda[0] - trace.j_lambda[-1])
    return lhs, rhs


def fitted_decay_rate(trace: FlowTrace) -> float:
    """Exponential rate of the Dirichlet energy: minus the log-linear slope
    over the samples above 1e-12 of the initial energy."""
    i0 = trace.production_i[0]
    mask = trace.production_i > 1e-12 * max(i0, 1e-300)
    if int(mask.sum()) < 3:
        raise RangeError("trace has too few usable samples for a rate fit")
    slope = np.polyfit(trace.times[mask],
                       np.log(trace.production_i[mask]), 1)[0]
    return -float(slope)


def demange_check(v: Field, beta: float, p: float):
    """Both sides of the gradient-quartic interpolation inequality.

    With u = v^beta rescaled to ||u||_{p+1} = 1,

        int |grad v|^4 / v^2  >=  (1/beta^2) int|grad u|^2 int|grad v|^2
                                   / (int u^2)^delta.

    All three gradient integrals are built from one nodal |grad v|^2 so
    the two Holder steps of the estimate are exact finite sums; violations
    can only be round-off.
    """
    if not beta > 1.0:
        raise RangeError("the interpolation needs beta > 1")
    if p < 3.0 and beta > 2.0 / (3.0 - p) + 1e-14:
        raise RangeError("for p < 3 the admissible range is beta <= 2/(3-p)")
    grid = v.grid
    vals = np.asarray(v.values, dtype=float)
    if vals.min() <= 0.0:
        raise PositivityError("field must be strictly positive")
    scale = grid.integrate(vals ** (beta * (p + 1.0))) ** (1.0 / (beta * (p + 1.0)))
    vv = vals / scale
    g = grid.nodal_grad_sq(vv)
    lhs = grid.integrate(g * g / (vv * vv))
    grad_u_sq = beta**2 * grid.integrate(vv ** (2.0 * beta - 2.0) * g)
    grad_v_sq = grid.integrate(g)
    u_sq = grid.integrate(vv ** (2.0 * beta))
    delta = delta_exponent(p, beta)
    rhs = grad_u_sq * grad_v_sq / (beta**2 * u_sq**delta)
    return lhs, rhs


@dataclass
class ProductionReport:
    """Stepwise verdicts for the entropy-production differential inequality."""

    n_intervals: int
    n_satisfied: int
    max_violation: float
    tolerance: float
    violations: List[int] = field(default_factory=list)

    @property
    def fraction_satisfied(self) -> float:
        return self.n_satisfied / self.n_intervals if self.n_intervals else 1.0


def entropy_production_inequality_check(trace: FlowTrace, exponents,
                                        theta: float, lambda2: float
                                        ) -> ProductionReport:
    """Check i' - Lam e' - R/(2 beta^2) * i e' / (1-(p-1)e)^delta <= 0.

    Derivatives are finite differences between stored samples, with i and
    e taken at interval midpoints; the tolerance scales with the largest
    |i'| so discretization noise on a desk grid does not count as a
    violation. The delta exponent is evaluated from its formula even for
    beta outside the certified interpolation range (where R < 0 makes the
    extra term a slack bonus).
    """
    if trace.times.size < 10:
        raise RangeError("trace too short (need at least 10 stored steps)")
    p, beta, d = exponents.p, exponents.beta, exponents.d
    if beta in (0.0, 1.0) or p == 1.0:
        raise RangeError("the inequality needs beta not in {0,1} and p != 1")
    R = r_coefficient(theta, beta, p, d)
    delta = delta_exponent(p, beta)
    Lam = (1.0 - theta) * lambda2

    t, e, i = trace.times, trace.entropy_e, trace.production_i
    dt = np.diff(t)
    if np.any(dt <= 0.0):
        raise RangeError("trace times must be strictly increasing")
    di = np.diff(i) / dt
    de = np.diff(e) / dt
    emid = 0.5 * (e[1:] + e[:-1])
    imid = 0.5 * (i[1:] + i[:-1])
    basis = 1.0 - (p - 1.0) * emid
    if np.any(basis <= 0.0):
        raise RangeError("entropy left the admissible domain 1-(p-1)e > 0")
    lhs = di - Lam * de - R / (2.0 * beta**2) * imid * de * basis ** (-delta)
    tol = 1e-6 * float(np.max(np.abs(di))) if di.size else 0.0
    bad = np.nonzero(lhs > tol)[0]
    return ProductionReport(
        n_intervals=int(lhs.size), n_satisfied=int(lhs.size - bad.size),
        max_violation=float(lhs.max(initial=-math.inf)), tolerance=tol,
        violations=[int(k) for k in bad])
