import io
import math

import numpy as np
import pytest
from scipy import sparse

from neumann_rigidity import (Domain, Field, PositivityError, RangeError,
                              build_grid, constant_field, dirichlet_energy,
                              hessian_frobenius_integral, integrate, lp_norm,
                              neumann_laplacian_apply, smooth_random_field)
from neumann_rigidity.grid import field_to_csv
from neumann_rigidity.rng import SplitMix64


def test_interval_rescaled_to_unit_length():
    g = build_grid(Domain.box(2.0), 64)
    assert g.domain.extents[0] == pytest.approx(1.0)
    assert g.domain.scale_factor == pytest.approx(0.5)
    assert abs(g.weights.sum() - 1.0) < 1e-10


def test_rectangle_node_count_and_measure():
    g = build_grid(Domain.box(1.0, 1.0), 32)
    assert g.n_nodes == 1024
    assert abs(g.weights.sum() - 1.0) < 1e-10
    # anisotropic rectangles keep their aspect ratio under normalization
    g2 = build_grid(Domain.box(2.0, 1.0), (32, 16))
    lx, ly = g2.domain.extents
    assert lx / ly == pytest.approx(2.0)
    assert lx * ly == pytest.approx(1.0)


def test_radial_ball_weights():
    g = build_grid(Domain.ball(2), 128)
    assert abs(g.weights.sum() - 1.0) < 1e-10
    assert g.weights.min() > 0.0
    # area element grows linearly in r away from the origin
    w = g.weights
    assert w[64] > w[16]


def test_build_grid_guards():
    with pytest.raises(RangeError):
        build_grid(Domain.box(1.0), 4)
    with pytest.raises(RangeError):
        build_grid(Domain.box(-1.0), 64)
    with pytest.raises(RangeError):
        Domain.ball(1)
    # every extent finite and positive, an integer ball dimension, a box
    # of 1 to 3 sides, and one resolution count per axis
    for bad in (lambda: Domain.ball(2, -1.0), lambda: Domain.ball(2, 0.0),
                lambda: Domain.ball(2, math.inf), lambda: Domain.ball(2.7),
                lambda: Domain.box(-1, -2), lambda: Domain.box(math.inf, 1.0),
                lambda: Domain.box(math.nan, 1.0), lambda: Domain.box(0.0),
                lambda: Domain.box(), lambda: Domain.box(1, 1, 1, 1)):
        with pytest.raises(RangeError):
            bad()
    for dom, n in ((Domain.box(1e300, 1e300, 1e300), 8),
                   (Domain.box(1e-200, 1e-200), 8),
                   (Domain.box(1.0, 1.0), (16, 16, 16)),
                   (Domain.box(1.0, 1.0, 1.0), (16, 16)),
                   (Domain.box(1.0, 1.0), (16, 7)),
                   (Domain.ball(3), (16, 16))):
        with pytest.raises(RangeError):
            build_grid(dom, n)


def test_unit_measure_quadrature():
    for dom, n in ((Domain.box(3.0), 77), (Domain.box(2.0, 0.5), 24),
                   (Domain.box(1.5, 1.0, 0.75), (10, 9, 8)),
                   (Domain.ball(2), 96), (Domain.ball(3), 96)):
        g = build_grid(dom, n)
        assert abs(g.integrate(np.ones(g.shape)) - 1.0) < 1e-10


def test_constant_norms():
    g = build_grid(Domain.box(1, 1), 16)
    f = constant_field(g, -2.5)
    for q in (0.5, 1.0, 2.0, 3.7):
        if q != round(q):
            with pytest.raises(PositivityError):
                lp_norm(f, q)
            assert lp_norm(constant_field(g, 2.5), q) == pytest.approx(2.5)
        else:
            assert lp_norm(f, q) == pytest.approx(2.5)


def test_cosine_energy_and_norm(interval256):
    g = interval256
    f = Field(g, np.cos(np.pi * g.axes[0]))
    assert dirichlet_energy(f) == pytest.approx(np.pi**2 / 2.0, rel=5e-3)
    assert lp_norm(f, 2.0) ** 2 == pytest.approx(0.5, rel=5e-3)
    assert integrate(f) == pytest.approx(0.0, abs=1e-12)


def test_laplacian_examples(interval256, ball256):
    g = interval256
    lap = neumann_laplacian_apply(constant_field(g, 3.0))
    assert np.abs(lap.values).max() < 1e-12
    f = Field(g, np.cos(np.pi * g.axes[0]))
    lap = neumann_laplacian_apply(f)
    err = np.abs(lap.values + np.pi**2 * f.values).max()
    assert err < 10.0 * (np.pi * g.h_min) ** 2
    lap = neumann_laplacian_apply(constant_field(ball256, 1.7))
    assert np.abs(lap.values).max() < 1e-12


def test_summation_by_parts_is_exact(square32):
    g = square32
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.standard_normal(g.shape)
        gap = abs(g.integrate(u * (-g.laplacian(u))) - g.energy(u))
        assert gap <= 1e-10 * max(1.0, g.energy(u))


def test_hessian_one_dimensional_identity(interval128):
    g = interval128
    f = Field(g, np.cos(2 * np.pi * g.axes[0]) + 0.3 * np.sin(3.0 * g.axes[0]))
    lap = g.laplacian(f.values)
    assert abs(hessian_frobenius_integral(f) - g.integrate(lap**2)) < 1e-12 * \
        max(1.0, g.integrate(lap**2))
    assert hessian_frobenius_integral(constant_field(g, 4.0)) == 0.0


def test_hessian_eigenfunction_equality(square64):
    g = square64
    x, y = g.axes
    f = np.cos(np.pi * x)[:, None] * np.cos(np.pi * y)[None, :]
    lap2 = g.integrate(g.laplacian(f) ** 2)
    hess = g.hessian_frobenius(f)
    # analytic computation gives equality of the two integrals here
    assert lap2 - hess >= -1e-6
    assert lap2 == pytest.approx(np.pi**4, rel=2e-2)


def test_discrete_convexity_inequality(square32):
    g = square32
    rng = SplitMix64(2024)
    for k in range(12):
        u = smooth_random_field(g, rng.spawn(k), amp=0.7, modes=4)
        gap = g.integrate(g.laplacian(u) ** 2) - g.hessian_frobenius(u)
        assert gap >= -1e-8


def test_radial_hessian_nonnegative_gap(ball256):
    g = ball256
    r = g.axes[0]
    u = 1.0 + 0.3 * np.cos(np.pi * r / r[-1])
    gap = g.integrate(g.laplacian(u) ** 2) - g.hessian_frobenius(u)
    assert gap >= -1e-8


def test_field_shape_validation(interval128):
    with pytest.raises(RangeError):
        Field(interval128, np.zeros(7))


def test_smooth_random_field_positive(square32):
    u = smooth_random_field(square32, SplitMix64(1), amp=0.8, modes=5)
    assert u.min() > 0.0


def test_field_csv(interval128):
    g = interval128
    f = Field(g, np.linspace(0.0, 1.0, g.n_nodes).reshape(g.shape))
    buf = io.StringIO()
    field_to_csv(f, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == g.n_nodes + 1
    x0, v0 = lines[1].split(",")
    assert float(x0) == 0.0 and float(v0) == 0.0


def test_box_csv_names_every_axis():
    for dom, n, head in ((Domain.box(1.0, 1.0), 8, "x,y,u"),
                         (Domain.box(1.0, 1.0, 1.0), 8, "x,y,z,u"),
                         (Domain.ball(3), 8, "r,u")):
        g = build_grid(dom, n)
        buf = io.StringIO()
        field_to_csv(constant_field(g, 1.0), buf, value_name="u")
        lines = buf.getvalue().splitlines()
        assert lines[0] == head and len(lines) == g.n_nodes + 1


def test_weighted_stiffness_consistency(square32):
    # unit coefficients reduce the weighted form to the plain stiffness
    g = square32
    rng = np.random.default_rng(11)
    u = rng.standard_normal(g.shape)
    ones = np.ones(g.shape)
    gap = np.abs(g.weighted_stiffness_apply(ones, u) - g.stiffness_apply(u))
    assert gap.max() < 1e-12
    # an out buffer is overwritten, not accumulated into
    coeff = np.exp(rng.standard_normal(g.shape))
    buf = np.full(g.shape, np.nan)
    got = g.weighted_stiffness_apply(coeff, u, out=buf)
    assert got is buf
    assert np.array_equal(buf, g.weighted_stiffness_apply(coeff, u))


def test_nodal_grad_sq_matches_energy_for_smooth(interval256):
    # nodal gradient squares integrate to the Dirichlet energy up to O(h^2)
    g = interval256
    f = np.cos(np.pi * g.axes[0])
    nodal = g.integrate(g.nodal_grad_sq(f))
    assert nodal == pytest.approx(g.energy(f), rel=1e-3)


def test_cache_clear_keeps_grid_data():
    # the cache holds memoized results only, so every operator rebuilds
    for dom, n in ((Domain.box(1.0), 32), (Domain.box(2.0, 1.0), 16),
                   (Domain.ball(2), 32)):
        g = build_grid(dom, n)
        K = g.sparse_stiffness().toarray()
        b = np.arange(g.n_nodes, dtype=float).reshape(g.shape)
        eig, coeffs, nodes = (g.mode_eigenvalues().copy(), g.to_modes(b),
                              g.from_modes(b))
        faces, kb = g._flat_faces(), g.stiffness_apply(b)
        kcb = g.weighted_stiffness_apply(b + 1.0, b)
        if g.ndim_data == 1:
            # 1-D data keeps its own layout: the table is the face weights
            assert np.array_equal(faces[0][1], g.face_weights[0])
            assert faces[0][3] is None
        g._cache.clear()
        assert np.array_equal(g.sparse_stiffness().toarray(), K)
        assert np.array_equal(g.mode_eigenvalues(), eig)
        assert np.array_equal(g.to_modes(b), coeffs)
        assert np.array_equal(g.from_modes(b), nodes)
        rebuilt = g._flat_faces()
        assert rebuilt is not faces and len(rebuilt) == len(faces)
        for old, new in zip(faces, rebuilt):
            assert old[0] == new[0]
            for x, y in zip(old[1:], new[1:]):
                assert (x is None and y is None) or np.array_equal(x, y)
        assert np.array_equal(g.stiffness_apply(b), kb)
        assert np.array_equal(g.weighted_stiffness_apply(b + 1.0, b), kcb)


@pytest.mark.parametrize("dom,n", [
    (Domain.box(1.0), 64),
    (Domain.box(1.0, 1.0), 16),
    (Domain.box(1.5, 1.0), (24, 17)),
    (Domain.box(1.5, 1.0, 0.75), (10, 9, 8)),
    (Domain.ball(3), 64),
], ids=["interval64", "square16", "rect24x17", "box10x9x8", "ball3_64"])
def test_grid_kernels_match_numpy_reference_bit_for_bit(
        dom, n, weighted_stiffness_reference):
    # the kernels reduce with np.add.reduce and difference by slicing; both
    # must round exactly as the np.sum / np.diff forms they stand for. The
    # stiffness kernels run on the flat node array; every node must receive
    # the same face fluxes in the same order as the per-axis n-d loop
    g = build_grid(dom, n)
    w = g.weights
    u = smooth_random_field(g, SplitMix64(7), amp=0.8, modes=4)
    signed = u - g.mean(u)
    coeff = smooth_random_field(g, SplitMix64(8), amp=0.8, modes=4)
    buf = np.full(g.shape, np.nan)
    assert g.integrate(u) == float(np.sum(w * u))
    assert g.integrate(signed) == float(np.sum(w * signed))
    for exp in (2.0, 3.0, 1.5):
        ref = float(np.sum(w * np.abs(u) ** exp) ** (1.0 / exp))
        assert g.lp_norm(u, exp) == ref
    for exp in (2.0, 3.0):
        ref = float(np.sum(w * np.abs(signed) ** exp) ** (1.0 / exp))
        assert g.lp_norm(signed, exp) == ref
    with pytest.raises(PositivityError):
        g.lp_norm(signed, 1.5)
    for v in (u, signed):
        energy = 0.0
        ku = np.zeros_like(v)
        for a, fw in enumerate(g.face_weights):
            d = np.diff(v, axis=a)
            energy += float(np.sum(fw * d * d))
            lo = [slice(None)] * v.ndim
            hi = [slice(None)] * v.ndim
            lo[a], hi[a] = slice(None, -1), slice(1, None)
            flux = fw * d
            ku[tuple(lo)] -= flux
            ku[tuple(hi)] += flux
        assert g.energy(v) == energy
        assert g.stiffness_apply(v).tobytes() == ku.tobytes()
        assert g.stiffness_apply(np.asfortranarray(v)).tobytes() == \
            ku.tobytes()
        kcu = weighted_stiffness_reference(g, coeff, v).tobytes()
        assert g.weighted_stiffness_apply(coeff, v).tobytes() == kcu
        assert g.weighted_stiffness_apply(coeff, v, out=buf) is buf
        assert buf.tobytes() == kcu
        assert g.weighted_stiffness_apply(
            np.asfortranarray(coeff), np.asfortranarray(v)).tobytes() == kcu
        # the modal transform: one product per axis, moved to the front
        coeffs, nodes = w * v, v
        for a, (_, c) in enumerate(g.heat_modes()):
            coeffs = np.moveaxis(np.tensordot(c.T, coeffs, (1, a)), 0, a)
            nodes = np.moveaxis(np.tensordot(c, nodes, (1, a)), 0, a)
        assert (g.to_modes(v) == coeffs).all()
        assert (g.from_modes(v) == nodes).all()
    if g.ndim_data > 1:
        # the weighted kernel writes through a flat view of out
        with pytest.raises(RangeError):
            g.weighted_stiffness_apply(coeff, u,
                                       out=np.empty(g.shape, order="F"))


def test_face_kernels_keep_non_finite_values_inside_their_rows(
        weighted_stiffness_reference):
    # on the flat array a row's last node sits next to the next row's
    # first node, but no face joins them: an inf at either end must not
    # reach the other, in either stiffness kernel
    g = build_grid(Domain.box(1.5, 1.0), (24, 17))
    u = smooth_random_field(g, SplitMix64(7), amp=0.8, modes=4)
    coeff = smooth_random_field(g, SplitMix64(8), amp=0.8, modes=4)
    row, last = 5, g.shape[1] - 1
    for node, across in (((row, last), (row + 1, 0)),
                         ((row + 1, 0), (row, last))):
        bad = u.copy()
        bad[node] = np.inf
        bad_c = coeff.copy()
        bad_c[node] = np.inf
        with np.errstate(invalid="ignore"):
            got = (g.stiffness_apply(bad),
                   g.weighted_stiffness_apply(coeff, bad),
                   g.weighted_stiffness_apply(bad_c, u))
            # unit coefficients make the weighted loop the plain one
            refs = (weighted_stiffness_reference(g, np.ones(g.shape), bad),
                    weighted_stiffness_reference(g, coeff, bad),
                    weighted_stiffness_reference(g, bad_c, u))
        for out, ref in zip(got, refs):
            assert not np.isfinite(out[node])
            assert np.isfinite(out[across])
            # every other node is hit exactly as in the per-axis loop
            assert np.array_equal(out, ref, equal_nan=True)


@pytest.mark.parametrize("dom,n", [
    (Domain.box(1.0), 64),
    (Domain.box(1.5, 1.0), (24, 17)),
    (Domain.box(1.5, 1.0, 0.75), (10, 9, 8)),
    (Domain.ball(3), 64),
], ids=["interval64", "rect24x17", "box10x9x8", "ball3_64"])
def test_face_kernels_annihilate_constants_exactly(dom, n):
    # every face difference of a constant is exactly zero, so the face
    # kernels give exact zeros. A product with the assembled sparse K sums
    # its stored entries instead: 3.4e-12 for the energy on ball3_64
    g = build_grid(dom, n)
    for c in (1.0, 3.0, 1.7e5):
        u = np.full(g.shape, c)
        assert (g.stiffness_apply(u) == 0.0).all()
        assert g.energy(u) == 0.0


def _trapezoid(n, h):
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _tridiag(fc, n):
    main = np.zeros(n)
    main[:-1] += fc
    main[1:] += fc
    return sparse.diags([-fc, main, -fc], offsets=(-1, 0, 1), format="csr")


@pytest.mark.parametrize("dom,n", [
    (Domain.box(1.0), 64),
    (Domain.box(1.5, 1.0), (24, 17)),
], ids=["interval64", "rect24x17"])
def test_box_products_equal_the_explicit_formulas_bit_for_bit(dom, n):
    # the grid builds every box from its per-axis pencils in one code path;
    # the reference writes the interval's and the rectangle's weights,
    # face weights and stiffness out by hand
    g = build_grid(dom, n)
    h = g.spacing
    axis_w = [_trapezoid(m, hh) for m, hh in zip(g.shape, h)]
    fc = [np.full(m - 1, 1.0 / hh) for m, hh in zip(g.shape, h)]
    if g.ndim_data == 1:
        weights, faces = axis_w[0].copy(), [fc[0]]
        K = _tridiag(fc[0], g.shape[0])
    else:
        weights = np.outer(axis_w[0], axis_w[1])
        faces = [np.outer(fc[0], axis_w[1]), np.outer(axis_w[0], fc[1])]
        kx, ky = (_tridiag(f, m) for f, m in zip(fc, g.shape))
        K = (sparse.kron(kx, sparse.diags(axis_w[1])) +
             sparse.kron(sparse.diags(axis_w[0]), ky)).tocsr()
    assert np.array_equal(g.weights, weights)
    assert len(g.face_weights) == len(faces)
    for got, ref in zip(g.face_weights, faces):
        assert np.array_equal(got, ref)
    assert np.array_equal(g.sparse_stiffness().toarray(), K.toarray())


def test_ball_pencil_equals_the_explicit_formulas_bit_for_bit():
    g = build_grid(Domain.ball(3), 64)
    d, (r,), (h,) = 3, g.axes, g.spacing
    radius = g.domain.extents[0]
    surf = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    r_hi = np.minimum(r + 0.5 * h, radius)
    r_lo = np.maximum(r - 0.5 * h, 0.0)
    weights = surf * (r_hi**d - r_lo**d) / d
    fc = surf * (r[:-1] + 0.5 * h) ** (d - 1) / h
    assert np.array_equal(g.weights, weights)
    assert np.array_equal(g.face_weights[0], fc)
    assert len(g.pencils) == 1
    assert np.array_equal(g.pencils[0][0], fc)
    assert np.array_equal(g.pencils[0][1], weights)
    K = _tridiag(fc, r.size)
    assert np.array_equal(g.sparse_stiffness().toarray(), K.toarray())
