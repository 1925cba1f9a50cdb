"""Convex computational domains of unit measure and their discrete calculus.

Supported domains are boxes with one to three sides (intervals, rectangles
and cuboids: tensor-product finite differences) and balls reduced to their
radial coordinate (finite volumes with the r^(d-1) weight). Every domain is
rescaled at construction so its measure is exactly 1; the applied scale
factor is recorded.

A grid's data are its per-axis 1-D pencils (face coefficients, weights):
1/h and trapezoid weights on a box axis, r^(d-1) face areas over h and
exact cell volumes on the ball's radial axis. Quadrature and face weights,
the sparse stiffness and the Neumann modes are products or Kronecker sums
of the pencils, built one way for any number of axes.

The discrete operators form a summation-by-parts pair: the stiffness form
E(u, v) = sum over faces of face_weight * du * dv satisfies

    E(u, v) = <u, -lap v> = <-lap u, v>

exactly in floating point, where <.,.> is the quadrature inner product and
``lap`` the Neumann Laplacian (mirror ghost nodes at the boundary). As a
consequence discrete Cauchy-Schwarz chains such as

    E(u, u)^2 <= <u, u> * <lap u, lap u>

hold in exact arithmetic, mirroring their continuum counterparts.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import IO, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal

from .errors import PositivityError, RangeError

BOX = "box"
RADIAL_BALL = "radial_ball"

_MIN_RESOLUTION = 8
# field_to_csv names the box coordinates x, y and z
_BOX_AXES = ("x", "y", "z")


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 for d=1, 2*pi for d=2, ...)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def outer_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The tensor product of 1-D factors, one data axis each."""
    return functools.reduce(np.multiply.outer, factors)


@dataclass(frozen=True)
class Domain:
    """A convex domain: only convex kinds are constructible.

    ``extents`` holds the side lengths of a box and the radius of a radial
    ball. ``scale_factor`` is the multiplicative rescale that was applied
    to reach unit measure (1.0 before normalization).
    """

    kind: str
    dimension: int
    extents: Tuple[float, ...]
    scale_factor: float = 1.0

    def __post_init__(self):
        if not all(0.0 < e < math.inf for e in self.extents):
            raise RangeError("domain extents must be finite and positive")

    @staticmethod
    def box(*extents: float) -> "Domain":
        """An interval, a rectangle or a cuboid with these side lengths."""
        if not 1 <= len(extents) <= len(_BOX_AXES):
            raise RangeError(f"a box has 1 to {len(_BOX_AXES)} sides")
        return Domain(BOX, len(extents), tuple(map(float, extents)))

    @staticmethod
    def ball(dimension: int, radius: float = 1.0) -> "Domain":
        if not (isinstance(dimension, numbers.Integral) and dimension >= 2):
            raise RangeError("radial balls need an integer dimension >= 2")
        return Domain(RADIAL_BALL, int(dimension), (float(radius),))

    def measure(self) -> float:
        if self.kind == RADIAL_BALL:
            d = self.dimension
            return sphere_surface(d) * self.extents[0] ** d / d
        return math.prod(self.extents)

    def normalized(self) -> "Domain":
        """Rescale all extents by a common factor so the measure is 1."""
        m = self.measure()
        if not m > 0.0:
            raise RangeError("domain measure underflows to zero")
        s = m ** (-1.0 / self.dimension)
        return Domain(self.kind, self.dimension,
                      tuple(s * e for e in self.extents), self.scale_factor * s)


class Grid:
    """Nodes, quadrature weights and difference operators on a Domain.

    Construct through :func:`build_grid`. Grids are immutable from the
    caller's perspective; all operators return new arrays unless given an
    ``out`` buffer. ``_cache`` holds only memoized results, so clearing it
    never loses grid data: the sparse stiffness ``K``, the axis modes and
    their eigenvalues, the spectral gap, the branch Jacobian's ordering,
    and the per-axis flat face tables of the stiffness kernels
    (``_flat_faces``). It holds no scratch buffers.
    """

    def __init__(self, domain: Domain, axes: List[np.ndarray],
                 pencils: List[Tuple[np.ndarray, np.ndarray]],
                 spacing: Tuple[float, ...]):
        self.domain = domain
        self.axes = axes
        # (face coefficients, weights) of each data axis's 1-D pencil
        self.pencils = pencils
        self.weights = outer_product([w for _, w in pencils])
        # axis a: its own face coefficients times the others' weights
        self.face_weights = [
            outer_product([f if b == a else w
                           for b, (f, w) in enumerate(pencils)])
            for a in range(len(pencils))]
        self.spacing = spacing
        self.shape = self.weights.shape
        self.n_nodes = int(self.weights.size)
        self._cache: dict = {}

    # ------------------------------------------------------------------
    # basic geometry
    @property
    def dim(self) -> int:
        """Ambient dimension (a radial grid is 1-d data for a d-ball)."""
        return self.domain.dimension

    @property
    def ndim_data(self) -> int:
        return len(self.shape)

    @property
    def h_min(self) -> float:
        return min(self.spacing)

    def coordinates(self) -> np.ndarray:
        """(n_nodes, ndim_data) array of node coordinates, C order."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    # ------------------------------------------------------------------
    # quadrature
    def integrate(self, u: np.ndarray) -> float:
        return float(np.add.reduce(self.weights * u, axis=None))

    def lp_norm(self, u: np.ndarray, exp: float) -> float:
        if not exp > 0.0:
            raise RangeError("Lp exponent must be positive")
        if exp != round(exp) and (u < 0.0).any():
            raise PositivityError(
                "fractional power of a negative value in Lp norm")
        return float(np.add.reduce(self.weights * np.abs(u) ** exp, axis=None)
                     ** (1.0 / exp))

    def mean(self, u: np.ndarray) -> float:
        return self.integrate(u)  # unit measure

    def deviation(self, u: np.ndarray) -> float:
        """L2 distance from the own mean, ||u - int u||_2."""
        return math.sqrt(max(self.integrate((u - self.mean(u)) ** 2), 0.0))

    # ------------------------------------------------------------------
    # first-order calculus
    def energy(self, u: np.ndarray) -> float:
        """Dirichlet energy int |grad u|^2 (face-based stiffness form)."""
        total = 0.0
        for a, fw in enumerate(self.face_weights):
            lo, hi = _along(u.ndim, a, "faces")
            d = u[hi] - u[lo]
            total += float(np.add.reduce(fw * d * d, axis=None))
        return total

    def stiffness_apply(self, u: np.ndarray) -> np.ndarray:
        """K u with E(u, v) = sum(v * K u); K is symmetric PSD, K 1 = 0.

        Works on the flat node array (``_flat_faces``): each axis's face
        fluxes are one contiguous product, and the flux of every slot that
        joins a row end to the next row's start is set to +0.0 before it
        is scattered, so no value crosses a row end. Every node receives
        the same updates in the same order as on the n-d array, so the
        result is the same to the bit.
        """
        x = u.reshape(-1)
        out = np.zeros(x.size)
        for off, fw, _, pads in self._flat_faces():
            g = fw * (x[off:] - x[:-off])
            if pads is not None:
                g[pads] = 0.0
            out[:-off] -= g
            out[off:] += g
        return out.reshape(u.shape)

    def weighted_stiffness_apply(self, coeff: np.ndarray, u: np.ndarray,
                                 out: Optional[np.ndarray] = None
                                 ) -> np.ndarray:
        """K_c u for the form sum over faces of face_weight * mean(c) * du dv.

        The result goes into ``out`` when given (it is overwritten; it
        must be C-contiguous). Works on the flat node array like
        ``stiffness_apply``, with 0.5 * face_weight from ``_flat_faces``
        (halving is exact) and the row-end slots set to +0.0, so the
        result is the same to the bit as on the n-d array, and a
        non-finite value never crosses a row end.
        """
        if out is None:
            out = np.zeros(u.shape)
        elif out.flags.c_contiguous:
            out.fill(0.0)
        else:
            raise RangeError("out must be C-contiguous")
        x, c, flat = u.reshape(-1), coeff.reshape(-1), out.reshape(-1)
        for off, _, half_fw, pads in self._flat_faces():
            # g = (c_lo + c_hi) * (0.5 fw) * (u_hi - u_lo), in place
            g = np.add(c[:-off], c[off:])
            g *= half_fw
            g *= np.subtract(x[off:], x[:-off])
            if pads is not None:
                g[pads] = 0.0
            flat[:-off] -= g
            flat[off:] += g
        return out

    def _flat_faces(self) -> Tuple[tuple, ...]:
        """Each axis's faces over the C-order flat node array, memoized.

        Face k of axis a joins flat node k and node k + off, off the
        axis's stride, so both ends of all faces are the contiguous slices
        x[:-off] and x[off:]. One entry per axis: (off, face weights,
        half the face weights, pads). pads indexes the slots that join a
        row end to the next row's start (None if there is none); their
        face weights are 0. On 1-D data the tables are the face weights.
        """
        if "flat_faces" not in self._cache:
            tables, nd = [], len(self.shape)
            for a, fw in enumerate(self.face_weights):
                off = math.prod(self.shape[a + 1:])
                full = np.zeros(self.shape)
                full[_along(nd, a, "faces")[0]] = fw
                ends = np.zeros(self.shape, dtype=bool)
                ends[tuple(-1 if b == a else slice(None)
                           for b in range(nd))] = True
                fw_flat = full.reshape(-1)[:-off]
                pads = np.flatnonzero(ends.reshape(-1)[:-off])
                half = 0.5 * fw_flat
                for t in (fw_flat, half, pads):
                    t.flags.writeable = False
                tables.append((off, fw_flat, half,
                               pads if pads.size else None))
            self._cache["flat_faces"] = tuple(tables)
        return self._cache["flat_faces"]

    def laplacian(self, u: np.ndarray) -> np.ndarray:
        """Neumann Laplacian, the negative of stiffness over quadrature weights."""
        return -self.stiffness_apply(u) / self.weights

    def nodal_grad_sq(self, u: np.ndarray) -> np.ndarray:
        """Nodal |grad u|^2: centered differences inside, one-sided at faces."""
        out = np.zeros_like(u, dtype=float)
        for a, h in enumerate(self.spacing):
            g = np.empty_like(u, dtype=float)
            mid, up, dn, first, second, last, prev = _along(
                u.ndim, a, "stencil")
            g[mid] = (u[up] - u[dn]) / (2.0 * h)
            g[first] = (u[second] - u[first]) / h
            g[last] = (u[last] - u[prev]) / h
            out += g * g
        return out

    # ------------------------------------------------------------------
    # second-order calculus
    def _second_diff(self, u: np.ndarray, a: int) -> np.ndarray:
        """Mirrored second difference along axis a (ghost u[-1] = u[1])."""
        h = self.spacing[a]
        out = np.empty_like(u, dtype=float)
        mid, up, dn, first, second, last, prev = _along(u.ndim, a, "stencil")
        out[mid] = (u[up] - 2.0 * u[mid] + u[dn]) / h**2
        out[first] = 2.0 * (u[second] - u[first]) / h**2
        out[last] = 2.0 * (u[prev] - u[last]) / h**2
        return out

    def _first_diff_odd(self, u: np.ndarray, a: int) -> np.ndarray:
        """Centered first difference, zero at faces (odd mirror reflection)."""
        h = self.spacing[a]
        out = np.zeros_like(u, dtype=float)
        mid, up, dn = _along(u.ndim, a, "stencil")[:3]
        out[mid] = (u[up] - u[dn]) / (2.0 * h)
        return out

    def hessian_frobenius(self, u: np.ndarray) -> float:
        """int |Hess u|^2 from mirrored second and mixed differences."""
        if self.domain.kind == RADIAL_BALL:
            r = self.axes[0]
            upp = self._second_diff(u, 0)
            up = self._first_diff_odd(u, 0)
            ratio = np.empty_like(up)
            ratio[1:] = up[1:] / r[1:]
            ratio[0] = upp[0]  # u'(r)/r -> u''(0) at the origin
            dens = upp**2 + (self.dim - 1) * ratio**2
            return self.integrate(dens)
        dens = np.zeros_like(u, dtype=float)
        nd = u.ndim
        for a in range(nd):
            dens += self._second_diff(u, a) ** 2
        for a in range(nd):
            for b in range(a + 1, nd):
                mixed = self._first_diff_odd(self._first_diff_odd(u, a), b)
                dens += 2.0 * mixed**2
        return self.integrate(dens)

    # ------------------------------------------------------------------
    # sparse operators for eigen/Newton solves
    def sparse_stiffness(self) -> sparse.csr_matrix:
        if "K" not in self._cache:
            self._cache["K"] = self._assemble_stiffness()
        return self._cache["K"]

    def mass_vector(self) -> np.ndarray:
        return self.weights.ravel()

    def heat_modes(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Generalized eigenpairs (lam_a, C_a) of each data axis's pencil.

        Axis a carries the 1-D pencil (k_a, diag w_a) of ``pencils[a]``:
        the radial stiffness and cell volumes of a ball, or the per-axis
        stiffness with face weight 1/h_a and trapezoid weights of a box.
        Their Kronecker sum is the grid's (K, M), so the products of the
        columns of the C_a are the grid's Neumann modes, with eigenvalue
        the sum of the lam_a. Each C_a is n_a x n_a with
        k_a C_a = diag(w_a) C_a diag(lam_a) and C_a^T diag(w_a) C_a = I;
        lam_a is ascending and the constant mode's lam_a[0] is exactly 0.
        """
        if "heat_modes" not in self._cache:
            self._cache["heat_modes"] = tuple(
                _pencil_modes(fc, w) for fc, w in self.pencils)
        return self._cache["heat_modes"]

    def mode_eigenvalues(self) -> np.ndarray:
        """Eigenvalue of every grid mode, the sum of its axis eigenvalues.

        Indexed like the coefficients of ``to_modes``; cached, read-only.
        """
        if "mode_eigenvalues" not in self._cache:
            eig = functools.reduce(np.add.outer,
                                   [lam for lam, _ in self.heat_modes()])
            eig.flags.writeable = False
            self._cache["mode_eigenvalues"] = eig
        return self._cache["mode_eigenvalues"]

    def to_modes(self, v: np.ndarray) -> np.ndarray:
        """Modal coefficients C^T M v of node values v (C the axis modes)."""
        return _axis_products([c.T for _, c in self.heat_modes()],
                              self.weights * v)

    def from_modes(self, coeffs: np.ndarray) -> np.ndarray:
        """Node values C x of modal coefficients x; inverts ``to_modes``."""
        return _axis_products([c for _, c in self.heat_modes()], coeffs)

    def _axis_tridiag(self, fc: np.ndarray, n: int) -> sparse.csr_matrix:
        main = _tridiag_main(fc, n)
        return sparse.diags([-fc, main, -fc], offsets=(-1, 0, 1),
                            format="csr")

    def _assemble_stiffness(self) -> sparse.csr_matrix:
        """The Kronecker sum of the axis stiffnesses: axis a's tridiagonal
        matrix, Kronecker-multiplied by the weight diagonals of the others."""
        terms = [functools.reduce(sparse.kron, [
            self._axis_tridiag(f, w.size) if b == a else sparse.diags(w)
            for b, (f, w) in enumerate(self.pencils)])
            for a in range(len(self.pencils))]
        return functools.reduce(operator.add, terms).tocsr()


_PICKS = {
    # the lower and upper node of every face
    "faces": (slice(None, -1), slice(1, None)),
    # three-point stencil: interior nodes, their upper and lower neighbours,
    # then each boundary node followed by its inner neighbour
    "stencil": (slice(1, -1), slice(2, None), slice(None, -2), 0, 1, -1, -2),
}


def _tridiag_main(fc: np.ndarray, n: int) -> np.ndarray:
    """Diagonal of the 1-D stiffness with face weights fc on n nodes."""
    main = np.zeros(n)
    main[:-1] += fc
    main[1:] += fc
    return main


def _pencil_modes(fc: np.ndarray, w: np.ndarray):
    """(lam, C) of the tridiagonal pencil (k, diag w), k built from fc.

    Solves the symmetric tridiagonal problem W^-1/2 k W^-1/2 q = lam q
    and maps back, C = W^-1/2 Q, so C^T W C = I.
    """
    s = 1.0 / np.sqrt(w)
    main = _tridiag_main(fc, w.size) * s * s
    off = -fc * s[:-1] * s[1:]
    lam, q = eigh_tridiagonal(main, off)
    lam[0] = 0.0  # k annihilates constants
    return lam, s[:, None] * q


def _axis_products(mats, x: np.ndarray) -> np.ndarray:
    """x multiplied by the matrix mats[a] along each data axis a.

    Axis a is moved to the front and the others are flattened into the
    columns of one matrix product; on 2-D data both reshapes are no-ops.
    """
    if len(mats) == 1:
        return mats[0] @ x
    for a, mat in enumerate(mats):
        front = np.moveaxis(x, a, 0)
        prod = mat @ front.reshape(front.shape[0], -1)
        x = np.moveaxis(prod.reshape(front.shape), 0, a)
    return x


@functools.lru_cache(maxsize=None)
def _along(ndim: int, a: int, which: str) -> Tuple[tuple, ...]:
    """Index tuples of the ``which`` picks along axis a, whole other axes."""
    return tuple(tuple(pick if b == a else slice(None) for b in range(ndim))
                 for pick in _PICKS[which])


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def build_grid(domain: Domain, resolution) -> Grid:
    """Discretize a domain normalized to unit measure.

    ``resolution`` is the node count per data axis (int, or per-axis tuple
    for boxes); at least 8 nodes per axis are required.
    """
    dom = domain.normalized()
    res = ((int(resolution),) * len(dom.extents) if np.isscalar(resolution)
           else tuple(int(r) for r in resolution))
    if len(res) != len(dom.extents) or min(res) < _MIN_RESOLUTION:
        raise RangeError(f"resolution must be one count >= {_MIN_RESOLUTION}"
                         f" per axis of the domain")
    axes = [np.linspace(0.0, ext, n) for n, ext in zip(res, dom.extents)]
    spacing = tuple(ext / (n - 1) for n, ext in zip(res, dom.extents))
    if dom.kind == RADIAL_BALL:
        (r,), (h,), d = axes, spacing, dom.dimension
        surf = sphere_surface(d)
        # exact cell volumes: positive at the origin, summing to |ball| = 1
        r_face = np.minimum(r + 0.5 * h, dom.extents[0])
        r_face_lo = np.maximum(r - 0.5 * h, 0.0)
        pencils = [(surf * (r[:-1] + 0.5 * h) ** (d - 1) / h,
                    surf * (r_face**d - r_face_lo**d) / d)]
    else:
        pencils = [(np.full(n - 1, 1.0 / h), _trapezoid_weights(n, h))
                   for n, h in zip(res, spacing)]
    return Grid(dom, axes, pencils, spacing)


# ----------------------------------------------------------------------
# fields
@dataclass
class Field:
    """A real grid function (one value per node)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise RangeError("field shape does not match its grid")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def _check_finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise RangeError("operation produced non-finite field values")
    return values


def integrate(f: Field) -> float:
    return f.grid.integrate(f.values)


def lp_norm(f: Field, exp: float) -> float:
    return f.grid.lp_norm(f.values, exp)


def dirichlet_energy(f: Field) -> float:
    return f.grid.energy(f.values)


def neumann_laplacian_apply(f: Field) -> Field:
    return Field(f.grid, _check_finite(f.grid.laplacian(f.values)))


def hessian_frobenius_integral(f: Field) -> float:
    return f.grid.hessian_frobenius(f.values)


def smooth_random_field(grid: Grid, rng, amp: float = 0.3,
                        modes: int = 3) -> np.ndarray:
    """Positive random field exp(amp * low-frequency cosine noise).

    Coefficients are drawn from the supplied splitmix stream, one per
    cosine mode per axis, so fields are reproducible from the seed.
    """
    s = np.zeros(grid.shape)
    for a, x in enumerate(grid.axes):
        length = x[-1] - x[0] if x[-1] > x[0] else 1.0
        for k in range(1, modes + 1):
            c = 2.0 * rng.uniform() - 1.0
            mode = np.cos(k * math.pi * x / length)
            shape = [1] * len(grid.shape)
            shape[a] = x.size
            s = s + c * mode.reshape(shape)
    return np.exp(amp * s)


def field_to_csv(f: Field, stream: IO[str], value_name: str = "value") -> None:
    """Write node coordinates and values as CSV rows (C-order nodes)."""
    coords = f.grid.coordinates()
    names = (list(_BOX_AXES[: coords.shape[1]])
             if f.grid.domain.kind == BOX else ["r"])
    stream.write(",".join(names + [value_name]) + "\n")
    flat = f.values.ravel()
    for i in range(coords.shape[0]):
        cols = [repr(float(c)) for c in coords[i]] + [repr(float(flat[i]))]
        stream.write(",".join(cols) + "\n")
