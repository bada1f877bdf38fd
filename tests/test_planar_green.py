import cmath
import gc
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import potflow
from potflow import elliptic, equilibrium, hadamard, numkit, planar_green as pg, schottky
from potflow.errors import ConditioningError, DomainError, ParameterError, PoleError

DISK = pg.DomainDescriptor.disk(1.0)


def test_disk_green_value():
    assert abs(pg.green(DISK, 0.5, 0.0) - math.log(2) / (2 * math.pi)) < 1e-14


def test_disk_green_boundary_and_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(200):
        th = rng.uniform(0, 2 * math.pi)
        z = 0.999999999 * cmath.exp(1j * th)
        assert pg.green(DISK, z, 0.3) < 1e-8
    assert pg.green(DISK, 0.3 + 0.1j, 0.5) == pg.green(DISK, 0.5, 0.3 + 0.1j)


def test_green_positive_interior():
    rng = np.random.default_rng(8)
    for dom in (DISK, pg.DomainDescriptor.half_plane(),
                pg.DomainDescriptor.slit_plane()):
        for _ in range(50):
            z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if dom.kind == "half_plane":
                z = complex(z.real, abs(z.imag) + 0.01)
            if not dom.contains(z) or abs(z - 0.3j - 0.2) < 1e-3:
                continue
            a = 0.2 + 0.3j if dom.contains(0.2 + 0.3j) else 0.2 + 0.5j
            assert pg.green(dom, z, a) > 0


def test_green_pole_and_domain_errors():
    with pytest.raises(PoleError):
        pg.green(DISK, 0.5, 0.5)
    with pytest.raises(DomainError):
        pg.green(DISK, 1.5, 0.0)


def test_robin_disk_values():
    rd0 = pg.robin_data(DISK, 0.0)
    assert rd0.h0 == 0.0 and rd0.h1 == 0.0
    rd = pg.robin_data(DISK, 0.5)
    assert abs(rd.h0 - math.log(0.75)) < 1e-14
    assert abs(rd.h1 - (-2.0 / 3.0)) < 1e-14


def test_robin_half_plane():
    rd = pg.robin_data(pg.DomainDescriptor.half_plane(), 1j)
    assert abs(rd.h0 - math.log(2)) < 1e-14
    assert abs(rd.h1 - (-0.5j)) < 1e-14


def test_robin_slit_plane_tip_axis():
    rd = pg.robin_data(pg.DomainDescriptor.slit_plane(), -0.7)
    assert abs(rd.h0 - math.log(4 * 0.7)) < 1e-12


def test_robin_h1_is_h0_gradient():
    # GreenExpansion invariant: h1 = dh0/da by finite differences
    h = 1e-5
    for dom, a in ((DISK, 0.3 + 0.2j),
                   (pg.DomainDescriptor.half_plane(), 0.4 + 0.8j),
                   (pg.DomainDescriptor.slit_plane(), 0.3 + 0.9j)):
        h0 = lambda p: pg.robin_data(dom, p).h0
        fd = 0.5 * ((h0(a + h) - h0(a - h)) / (2 * h)
                    - 1j * (h0(a + 1j * h) - h0(a - 1j * h)) / (2 * h))
        assert abs(pg.robin_data(dom, a).h1 - fd) < 1e-6


def test_robin_boundary_conditioning():
    with pytest.raises(ConditioningError):
        pg.robin_data(DISK, 1.0 - 1e-12)


def test_h1_contour_disk():
    assert abs(pg.h1_contour(DISK, 0.0, 128)) < 1e-12
    assert abs(pg.h1_contour(DISK, 0.5, 256) - (-2.0 / 3.0)) < 1e-10
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = 0.85 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        assert abs(pg.h1_contour(DISK, a, 512) - pg.robin_data(DISK, a).h1) < 1e-8


def test_h1_contour_half_plane_truncated():
    val = pg.h1_contour(pg.DomainDescriptor.half_plane(), 1j, 512)
    assert abs(val - (-0.5j)) < 1e-4


def test_poisson_values():
    assert abs(pg.poisson_value(lambda z: 1.0, 0.4 + 0.1j, 128) - 1) < 1e-13
    assert abs(pg.poisson_value(lambda z: z.real, 0.3, 128) - 0.3) < 1e-13
    val = pg.poisson_value(lambda z: (z * z).real, 0.3 + 0.2j, 256)
    assert abs(val - 0.05) < 1e-13


@pytest.mark.parametrize("R", [1.0, 1.7])
def test_disk_record_broadcasts_like_the_scalar_functions(R):
    # One evaluation on arrays against the public scalar functions, element
    # by element.  numpy's complex abs, multiply and divide differ from
    # Python's by 1 ulp on about a third of inputs, and the subtractions
    # R^2 - |a|^2 and R^2 - z conj(a) amplify that, so each quantity is held
    # to 4 ulp of its condition scale: its magnitude times R^2 / (R^2 - |a|^2)
    # for h1 and the density, plus the cancelling terms' size for G, dG/dz, h0.
    rng = np.random.default_rng(7)
    n = 500
    def interior():
        return R * np.sqrt(rng.uniform(0, 0.99, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    D, spec = pg.DomainDescriptor.disk(R), pg._KINDS["disk"]
    z, a = interior(), interior()
    b = R * np.exp(2j * np.pi * rng.uniform(size=n))
    h0, h1, _ = spec.robin(D, a)
    arrays = {"green": spec.green(D, z, a), "dgdz": spec.green_z_derivative(D, z, a),
              "h0": h0, "h1": h1, "poisson": pg._disk_poisson(R, a, b)}
    amp = R * R / (R * R - np.abs(a) ** 2)
    image = np.abs(R * R - z * a.conj())
    scales = {"green": np.abs(arrays["green"]) + (1 + R * R / image) / (2 * np.pi),
              "dgdz": (1 / np.abs(z - a) + np.abs(a) * R * R / image ** 2) / (4 * np.pi),
              "h0": np.abs(h0) + amp, "h1": np.abs(h1) * amp,
              "poisson": arrays["poisson"] * (amp + 2)}
    for k in range(n):
        exp = pg.robin_data(D, a[k])
        scalars = {"green": pg.green(D, z[k], a[k]),
                   "dgdz": pg.green_z_derivative(D, z[k], a[k]),
                   "h0": exp.h0, "h1": exp.h1,
                   "poisson": pg._disk_poisson(R, complex(a[k]), complex(b[k]))}
        for name, value in scalars.items():
            assert abs(arrays[name][k] - value) <= 4 * np.finfo(float).eps * scales[name][k]
    # the density is -dG/dn = -2 Re(dG/dz z/R) on the circle
    dgdn = np.array([2 * (pg.green_z_derivative(D, bk, ak) * bk / R).real
                     for ak, bk in zip(a, b)])
    assert np.allclose(-dgdn, arrays["poisson"], rtol=1e-12, atol=0)


def test_one_disk_poisson_density():
    # hadamard's boundary integrals and the disk's harmonic measure read the
    # one disk rule and the one density function, not copies of their formulas
    R, a, b, c = 1.3, 0.4 - 0.7j, 0.2j, -0.5 + 0.1j
    theta, zs, ds = pg._disk_rule(R, 64)
    assert np.array_equal(pg._disk_harmonic(pg.DomainDescriptor.disk(R), a, 64)[1],
                          pg._disk_poisson(R, a, zs) * ds)
    theta, zs, ds = pg._disk_rule(R, hadamard._BOUNDARY_N)
    var = hadamard.BoundaryVariation(pg.DomainDescriptor.disk(R), math.cos)
    pa, pb = (pg._disk_poisson(R, p, zs) for p in (a, b))
    dn = np.array([math.cos(t) for t in theta.tolist()])
    assert hadamard.hadamard_delta_green(var, a, b)[1] == float((dn * (ds * pa * pb)).sum())
    _, zs, ds = pg._disk_rule(1.0, hadamard._BOUNDARY_N)
    pa, pb, pc = (pg._disk_poisson(1.0, p, zs) for p in (a, b, c))
    assert hadamard.triple_green(a, b, c) == -float(ds @ (pa * pb * pc))


def _same_bits(got, want):
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("R", [1.0, 2.0, 1.3])
@pytest.mark.parametrize("n", [128, 256, 512])
def test_disk_rule_is_the_angle_rule_bit_for_bit(R, n):
    # the oracle: the angle form poisson_value and hadamard built by hand,
    # theta = 2 pi k / n, nodes R e^{i theta}, arc length R 2 pi / n; at a
    # power of two n, 2 pi (k / n) rounds as (2 pi k) / n does
    a = 0.4 - 0.7j
    theta, w = numkit.trapezoid_rule(n, 2 * math.pi)
    z, ds = R * np.exp(1j * theta), R * w
    assert _same_bits(pg._disk_rule(R, n), (theta, z, ds))
    assert _same_bits(pg._disk_harmonic(pg.DomainDescriptor.disk(R), a, n),
                      (z, ds * pg._disk_poisson(R, a, z)))


@pytest.mark.parametrize("n", [100, 128, 257])
def test_disk_harmonic_is_its_parameter_form_at_any_n(n):
    R, a = 1.3, 0.4 - 0.7j
    t, w = numkit.trapezoid_rule(n)
    zs = R * np.exp(2j * math.pi * t)
    assert _same_bits(pg._disk_harmonic(pg.DomainDescriptor.disk(R), a, n),
                      (zs, pg._disk_poisson(R, a, zs) * (2 * math.pi * R * w)))


@pytest.mark.parametrize("n", [128, 256, 512])
def test_poisson_value_integrates_over_the_disk_rule(n):
    f = lambda z: (z ** 3).real + np.exp(z.real)
    a = 0.3 - 0.5j
    theta, w = numkit.trapezoid_rule(n, 2 * math.pi)
    z = np.exp(1j * theta)
    angle_form = float(numkit.integrate(f, z, w * pg._disk_poisson(1.0, a, z)))
    shared = float(numkit.integrate(f, *pg._disk_harmonic(pg.UNIT_DISK, a, n)))
    assert pg.poisson_value(f, a, n) == shared == angle_form


def test_poisson_domain_error():
    with pytest.raises(DomainError):
        pg.poisson_value(lambda z: 1.0, 1.2)


def test_conformal_transport_identity():
    src = pg.robin_data(DISK, 0.4)
    out = pg.conformal_transport(src, 1.0, 0.0)
    assert out == src


def test_conformal_transport_scaling():
    # f(z) = cz maps disk R=1 to disk R=|c|; h0 gains log|c|
    c = 2.5
    src = pg.robin_data(DISK, 0.3)
    out = pg.conformal_transport(src, c, 0.0)
    target = pg.robin_data(pg.DomainDescriptor.disk(c), c * 0.3)
    assert abs(out.h0 - target.h0) < 1e-14
    assert abs(out.h1 - target.h1) < 1e-14


def test_conformal_transport_automorphism():
    b = 0.3
    at = 0.2 + 0.4j
    fp = (1 - b * b) / (1 - b * at) ** 2
    fs = 2 * b * (1 - b * b) / (1 - b * at) ** 3
    out = pg.conformal_transport(pg.robin_data(DISK, at), fp, fs)
    target = pg.robin_data(DISK, (at - b) / (1 - b * at))
    assert abs(out.h1 - target.h1) < 1e-10
    assert abs(out.h0 - target.h0) < 1e-10
    assert out.curvature == target.curvature


def test_conformal_transport_singular_map():
    with pytest.raises(ParameterError):
        pg.conformal_transport(pg.robin_data(DISK, 0.0), 0.0, 1.0)


def test_curvature_liouville():
    kappa = pg.curvature_of_metric(
        lambda w: pg.robin_data(DISK, w).h0, 0.5)
    assert abs(kappa + 4.0) < 1e-5


def test_curvature_sphere_metric():
    gamma = lambda z: -0.5 * math.log(4 / (1 + abs(z) ** 2) ** 2)
    assert abs(pg.curvature_of_metric(gamma, 0.2) - 1.0) < 1e-6


def test_curvature_flat():
    assert abs(pg.curvature_of_metric(lambda z: 1.7, 0.3 + 0.1j)) < 1e-12


def test_bergman_disk_values():
    assert abs(pg.bergman_disk(0, 0) - 1 / math.pi) < 1e-15
    z, a = 0.3 + 0.2j, -0.1 + 0.4j
    assert abs(pg.bergman_disk(a, z) - pg.bergman_disk(z, a).conjugate()) < 1e-15


def test_bergman_reproduces_monomial():
    # int_D f conj(K(., a)) dA = f(a), by Stokes (i/2) oint F conj(K dz)
    # on the unit circle, for F' = f: f = z^2 at 0.4, and f = 1 at 0
    z, dz = numkit.circle_rule(0j, 1.0, 64)
    for F, a, fa in ((lambda w: w ** 3 / 3, 0.4, 0.16), (lambda w: w, 0j, 1.0)):
        val = 0.5j * numkit.integrate(
            lambda w: pg.bergman_disk(w, a).conjugate() * F(w), z, dz.conjugate())
        assert abs(val - fa) < 1e-10


def test_fd_green_matches_series_oracle():
    dom = pg.DomainDescriptor.rectangle(1.0, 1.0, 128)
    grid = pg.RectangleGreenSolver(dom).solve(0.5 + 0.5j)
    oracle = pg.rectangle_green_series(dom, 0.25 + 0.5j, 0.5 + 0.5j)
    assert abs(grid.value(0.25 + 0.5j) - oracle) < 2e-4


def test_fd_green_symmetry_and_boundary():
    dom = pg.DomainDescriptor.rectangle(1.0, 1.0, 64)
    solver = pg.RectangleGreenSolver(dom)
    a1, a2 = complex(0.5, 0.5), complex(0.25, 0.375)
    g1, g2 = solver.solve(a1), solver.solve(a2)
    assert abs(g1.value(a2) - g2.value(a1)) < 1e-8
    assert np.all(g1.values[0, :] == 0) and np.all(g1.values[-1, :] == 0)
    assert np.all(g1.values[:, 0] == 0) and np.all(g1.values[:, -1] == 0)


def _dense_fd_green(solver, sources):
    """The grid Green functions of the source nodes (i, j) from the 5-point
    matrix assembled densely and solved with np.linalg.solve, on the
    interior nodes."""
    ix, iy = solver.nx - 1, solver.ny - 1

    def second_difference(m, h):
        return (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h ** 2

    lap = (np.kron(second_difference(ix, solver.hx), np.eye(iy))
           + np.kron(np.eye(ix), second_difference(iy, solver.hy)))
    rhs = np.zeros((ix * iy, len(sources)))
    for col, (i, j) in enumerate(sources):
        rhs[(i - 1) * iy + (j - 1), col] = 1.0 / (solver.hx * solver.hy)
    return np.linalg.solve(lap, rhs).T.reshape(len(sources), ix, iy)


# the coarsest grids the spacing rule (h <= min(w, h)/32) allows: w > h and w < h
@pytest.mark.parametrize("w, h, grid", [(2.0, 1.0, 64), (1.0, 1.5, 32)])
def test_sine_basis_solver_matches_dense_solve(w, h, grid):
    solver = pg.RectangleGreenSolver(pg.DomainDescriptor.rectangle(w, h, grid))
    sources = [(1, 1), (solver.nx // 2, solver.ny // 3), (solver.nx - 2, solver.ny - 1)]
    oracle = _dense_fd_green(solver, sources)
    p, q = np.meshgrid(np.arange(1, solver.nx), np.arange(1, solver.ny), indexing="ij")
    nodes = p * solver.hx + 1j * q * solver.hy
    for (i, j), expected in zip(sources, oracle):
        a = complex(i * solver.hx, j * solver.hy)
        scale = np.abs(expected).max()
        grid_fn = solver.solve(a)
        full = grid_fn.values
        assert full.shape == (solver.nx + 1, solver.ny + 1)
        assert np.all(full[[0, -1], :] == 0) and np.all(full[:, [0, -1]] == 0)
        assert np.abs(full[1:-1, 1:-1] - expected).max() < 1e-12 * scale
        # the interpolant is exact at the nodes
        assert np.abs(np.vectorize(grid_fn.value)(nodes) - expected).max() < 1e-12 * scale


def test_fd_green_requires_grid_node():
    dom = pg.DomainDescriptor.rectangle(1.0, 1.0, 64)
    with pytest.raises(DomainError):
        pg.RectangleGreenSolver(dom).solve(0.5 + 0.5001j)


def test_tall_rectangle_solves_the_five_point_system():
    # 31 x 3199 interior nodes: too many for a dense solve, so check the
    # 5-point residual of the grid Green function instead
    solver = pg.RectangleGreenSolver(pg.DomainDescriptor.rectangle(1.0, 100.0, 32))
    assert (solver.nx, solver.ny) == (32, 3200)
    i, j, hx, hy = 16, 1600, solver.hx, solver.hy
    a = complex(i * hx, j * hy)
    g = solver.solve(a).values
    assert np.all(g[[0, -1], :] == 0) and np.all(g[:, [0, -1]] == 0)
    inner = g[1:-1, 1:-1]
    lap = ((2 * inner - g[2:, 1:-1] - g[:-2, 1:-1]) / hx ** 2
           + (2 * inner - g[1:-1, 2:] - g[1:-1, :-2]) / hy ** 2)
    source = np.zeros_like(lap)
    source[i - 1, j - 1] = 1 / (hx * hy)
    assert np.abs(lap - source).max() < 1e-14 / (hx * hy)
    # far from the ends of a 1 x 8.1 rectangle h0 is that of the unit-width
    # strip, up to the images in the ends, ~exp(-8.1 pi)
    rd = pg.robin_data(pg.DomainDescriptor.rectangle(1.0, 8.1, 128), 0.5 + 4.05j)
    assert abs(rd.h0 - math.log(2 / math.pi)) < 1e-9


def test_rectangle_robin_center():
    # Schwarz-Christoffel: h0(centre of the unit square) = -log K(1/sqrt 2)
    dom = pg.DomainDescriptor.rectangle(1.0, 1.0, 96)
    rd = pg.robin_data(dom, 0.5 + 0.5j)
    assert abs(rd.h0 - math.log(4 * math.sqrt(math.pi) / math.gamma(0.25) ** 2)) < 1e-13
    assert abs(rd.h1) < 1e-13  # symmetry


RECT = pg._KINDS["rectangle"]


def _rectangle_pairs(dom, count, seed):
    """count random (z, a) pairs in the rectangle, at least 0.1 of the
    shorter side apart."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        z, a = (complex(rng.uniform(0, dom.w), rng.uniform(0, dom.h)) for _ in range(2))
        if abs(z - a) > 0.1 * min(dom.w, dom.h):
            pairs.append((z, a))
    return pairs


@pytest.mark.parametrize("w, h", [(1.0, 1.0), (2.0, 1.0), (1.0, 8.0)])
def test_rectangle_green_matches_series(w, h):
    dom = pg.DomainDescriptor.rectangle(w, h)
    for z, a in _rectangle_pairs(dom, 20, 5):
        assert abs(pg.green(dom, z, a) - pg.rectangle_green_series(dom, z, a)) < 1e-13


def _theta_green_mpmath(dom, z, a):
    """The theta1 image quotient at 40 digits on the lattice (1, i h/w) as
    given, without the reflection of wide rectangles."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q = mpmath.exp(-mpmath.pi * mpmath.mpf(dom.h) / dom.w)

        def th(s):
            return mpmath.jtheta(1, mpmath.pi * mpmath.mpc(s) / (2 * dom.w), q)

        ac = a.conjugate()
        quotient = th(z - a) * th(z + a) / (th(z - ac) * th(z + ac))
        return float(-mpmath.log(abs(quotient)) / (2 * mpmath.pi))


@pytest.mark.parametrize("w, h", [(16.0, 1.0), (1.0, 50.0)])
def test_rectangle_green_and_series_match_mpmath_theta(w, h):
    dom = pg.DomainDescriptor.rectangle(w, h)
    for z, a in _rectangle_pairs(dom, 8, 6):
        exact = _theta_green_mpmath(dom, z, a)
        assert abs(pg.green(dom, z, a) - exact) < 1e-13
        assert abs(pg.rectangle_green_series(dom, z, a) - exact) < 1e-13


@pytest.mark.parametrize("w, h", [(1.0, 1.0), (3.0, 1.0), (1.0, 2.5)])
def test_rectangle_green_vanishes_on_the_sides_and_is_symmetric(w, h):
    dom = pg.DomainDescriptor.rectangle(w, h)
    s = np.linspace(0, 1, 41)
    sides = np.concatenate([w * s, w * s + 1j * h, 1j * h * s, w + 1j * h * s])
    for z, a in _rectangle_pairs(dom, 10, 7):
        assert np.all(RECT.green(dom, sides, a) == 0.0)     # exactly, by the folding
        assert abs(pg.green(dom, z, a) - pg.green(dom, a, z)) < 1e-15
        # the array path agrees with the scalar one
        assert RECT.green(dom, np.array([z]), a)[0] == pg.green(dom, z, a)


@pytest.mark.parametrize("w, h, a", [(1.0, 1.0, 0.3 + 0.6j), (2.0, 1.0, 0.7 + 0.35j),
                                     (1.0, 3.0, 0.6 + 2.1j)])
def test_rectangle_derivatives_match_difference_quotients(w, h, a):
    dom, e = pg.DomainDescriptor.rectangle(w, h), 1e-5
    rd = pg.robin_data(dom, a)

    def h0(p):
        return pg.robin_data(dom, p).h0

    fd = 0.5 * ((h0(a + e) - h0(a - e)) - 1j * (h0(a + 1j * e) - h0(a - 1j * e))) / (2 * e)
    assert abs(rd.h1 - fd) < 1e-8 and rd.curvature == -4.0
    z = np.array([0.2 * w + 0.3j * h, 0.8 * w + 0.9j * h, 0.5 * w + 0.1j * h])
    g = RECT.green
    fd = 0.5 * ((g(dom, z + e, a) - g(dom, z - e, a))
                - 1j * (g(dom, z + 1j * e, a) - g(dom, z - 1j * e, a))) / (2 * e)
    assert np.abs(pg.green_z_derivative(dom, z, a) - fd).max() < 1e-8


def test_rectangle_aspect_cap_raises_at_query_time():
    for w, h in ((1.0, 61.0), (61.0, 1.0)):
        dom = pg.DomainDescriptor.rectangle(w, h, 8)     # constructs
        with pytest.raises(ParameterError, match="aspect ratio"):
            pg.robin_data(dom, complex(w, h) / 2)
    # the finite-difference solver still takes 1 x 100
    assert pg.RectangleGreenSolver(pg.DomainDescriptor.rectangle(1.0, 100.0, 32)).ny == 3200


def test_robin_sandwich_bounds():
    rng = np.random.default_rng(44)
    for dom, factor in ((DISK, 2.0),
                        (pg.DomainDescriptor.half_plane(), 2.0),
                        (pg.DomainDescriptor.slit_plane(), 4.0)):
        for _ in range(50):
            if dom.kind == "disk":
                p = 0.95 * math.sqrt(rng.uniform()) \
                    * cmath.exp(2j * math.pi * rng.uniform())
            elif dom.kind == "half_plane":
                p = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            else:
                p = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if dom.boundary_distance(p) < 0.02:
                    continue
            h0 = pg.robin_data(dom, p).h0
            d = dom.boundary_distance(p)
            assert math.log(d) - 1e-9 <= h0 <= math.log(factor * d) + 1e-9


def test_monotonicity_under_inclusion():
    h_small = pg.robin_data(DISK, 0.4).h0
    h_big = pg.robin_data(pg.DomainDescriptor.disk(2.0), 0.4).h0
    assert h_small < h_big


ALL_KINDS = (DISK, pg.DomainDescriptor.half_plane(), pg.DomainDescriptor.slit_plane(),
             pg.DomainDescriptor.rectangle(2.0, 1.0, 64),
             pg.DomainDescriptor.periodic_strip(2j))


def test_domain_descriptor_json_roundtrip():
    for dom in ALL_KINDS:
        again = pg.DomainDescriptor.from_dict(json.loads(dom.to_json()))
        assert again == dom
    CS = equilibrium.CompactSet
    for K in (CS.circle(1.5), CS.disk(2.0), CS.segment(3.0),
              CS.domain_boundary(DISK), CS.domain_boundary(ALL_KINDS[3])):
        again = CS.from_dict(json.loads(json.dumps(K.to_dict())))
        assert again == K


_EDGES = st.sampled_from([0.0, -0.0, -0.5, 0.5, 1.0, 2.0, -1.0])
_COORD = st.one_of(_EDGES, st.floats(-3.0, 3.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_KINDS), _COORD, _COORD)
def test_contains_iff_positive_boundary_distance(dom, x, y):
    z = complex(x, y)
    assert dom.contains(z) == (dom.boundary_distance(z) > 0)


def test_periodic_strip_delegates():
    dom = pg.DomainDescriptor.periodic_strip(2j)
    val = pg.green(dom, -0.2 + 0.3j, -0.25 + 0.5j)
    assert val > 0
    rd = pg.robin_data(dom, -0.25 + 0.5j)
    d = dom.boundary_distance(-0.25 + 0.5j)
    assert rd.h0 >= math.log(d) - 1e-9


@pytest.mark.parametrize("far", [-0.3 + 1e300j, complex(-0.3, math.inf),
                                 complex(-0.3, -math.inf), complex(-0.3, math.nan),
                                 complex(math.nan, 0.1), -0.3 + 4.1e8j])
def test_strip_points_far_out_rejected(far):
    dom = pg.DomainDescriptor.periodic_strip(2j)
    with pytest.raises(DomainError, match=r"\|Im z\| <= 2\^26 Im tau"):
        pg.green(dom, -0.2 + 0.1j, far)
    with pytest.raises(DomainError, match=r"\|Im z\| <= 2\^26 Im tau"):
        pg.green(dom, far, -0.2 + 0.1j)
    with pytest.raises(DomainError, match=r"\|Im z\| <= 2\^26 Im tau"):
        pg.robin_data(dom, far)
    edge = -0.3 + pg.STRIP_IM_MAX * 2j      # the bound itself is inside
    assert math.isfinite(pg.green(dom, -0.2 + 0.1j, edge))


def _count_calls(monkeypatch, cls, name):
    """Patch cls.name to count its calls; returns the one-element counter."""
    count = [0]
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        count[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return count


def _equal_rectangles(grid):
    dom = pg.DomainDescriptor.rectangle(1.0, 1.0, grid)
    return (dom, pg.DomainDescriptor.rectangle(1, 1, grid),
            pg.DomainDescriptor("rectangle", w=1.0, h=1.0, grid=grid),
            pg.DomainDescriptor.from_dict(json.loads(dom.to_json())))


def test_rectangle_factors_once_per_grid(monkeypatch):
    built = _count_calls(monkeypatch, pg.RectangleGreenSolver, "__init__")
    doms = _equal_rectangles(48)
    robins = [pg.robin_data(d, 0.4 + 0.55j) for d in doms[:3]]
    values = [pg.green(d, 0.3 + 0.6j, 0.5 + 0.5j) for d in doms]
    assert built[0] == 0                 # the closed forms build no solver
    assert robins[0] == robins[1] == robins[2]
    assert len(set(values)) == 1


def test_rectangle_queries_import_no_scipy():
    code = """if True:
        import sys
        from potflow import equilibrium, planar_green as pg
        dom = pg.DomainDescriptor.rectangle(2.0, 1.0, 128)
        pg.green(dom, 0.7 + 0.3j, 1.0 + 0.5j)
        pg.robin_data(dom, 0.9 + 0.4j)
        equilibrium.harmonic_measure(dom, 0.9 + 0.4j)
        assert "scipy" not in sys.modules, sorted(sys.modules)
    """
    package_root = os.path.dirname(os.path.dirname(potflow.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_strip_queries_build_no_double_and_one_lattice_per_tau(monkeypatch):
    built = _count_calls(monkeypatch, schottky.StripDouble, "__post_init__")
    misses = elliptic.lattice_constants.cache_info().misses
    for tau in (2.0417j, 3.0417j):   # moduli no other test builds
        dom = pg.DomainDescriptor.periodic_strip(tau)
        again = pg.DomainDescriptor.from_dict(json.loads(dom.to_json()))
        for d in (dom, again):
            pg.green(d, -0.2 + 0.3j, -0.25 + 0.5j)
            pg.robin_data(d, -0.3 + 0.1j)
    assert built[0] == 0
    assert elliptic.lattice_constants.cache_info().misses == misses + 2


def test_planar_green_and_schottky_keep_no_cache():
    # every per-modulus constant lives in elliptic.lattice_constants
    cached = [f"{module.__name__}.{name}" for module in (pg, schottky)
              for name, obj in vars(module).items()
              if callable(obj) and hasattr(obj, "cache_info")]
    assert cached == []


def _python_calls(query) -> list[str]:
    """The Python functions one warm call of query() enters, by name, from
    the profiler's "call" events (query's own frame not counted).  The
    garbage collector is off meanwhile: a collection would run the
    finalizers of other tests' objects inside the profiled call."""
    query()
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        query()
    finally:
        sys.setprofile(None)
        gc.enable()
    return names[1:]


@pytest.mark.parametrize("what, budget", [("strip green", 12), ("strip robin", 14),
                                          ("rectangle green", 24)])
def test_scalar_point_query_call_budget(what, budget):
    # a scalar query runs straight-line code: the kind's interior rule, one
    # reduction and one sum per series, no array helpers on the way; each
    # extra Python call costs about as much as a series term
    strip = pg.DomainDescriptor.periodic_strip(2j)
    rect = pg.DomainDescriptor.rectangle(2.0, 1.0, 64)
    query = {"strip green": lambda: pg.green(strip, -0.2 + 0.3j, -0.35 + 1.7j),
             "strip robin": lambda: pg.robin_data(strip, -0.3 + 0.4j),
             "rectangle green": lambda: pg.green(rect, 0.7 + 0.3j, 1.0 + 0.5j)}[what]
    calls = _python_calls(query)
    assert len(calls) <= budget, calls
    assert not {"first_where", "as_points", "reduce_to_cell", "_off_lattice",
                "_require_interior"} & set(calls), calls


_STRIP_BOUNDS = " (-1/2 < Re z < 0, |Im z| <= 2^26 Im tau)"
_HALF_BOUNDS = " (Im z > 0, |z| < 1e+100)"
_SLIT_BOUNDS = " (z off [0, inf), |z| < 1e+100)"
_OUTSIDE = {   # domain, an interior point, two points outside with their messages
    "disk": (pg.DomainDescriptor.disk(2.0), 0.5 + 0.5j,
             (2.5 + 0j, "(2.5+0j) is not interior to disk"),
             (-3j, "(-0-3j) is not interior to disk")),
    "half_plane": (pg.DomainDescriptor.half_plane(), 1 + 1j,
                   (2 - 0.5j, "(2-0.5j) is not interior to half_plane" + _HALF_BOUNDS),
                   (3 + 0j, "(3+0j) is not interior to half_plane" + _HALF_BOUNDS)),
    "slit_plane": (pg.DomainDescriptor.slit_plane(), -1 + 1j,
                   (2 + 0j, "(2+0j) is not interior to slit_plane" + _SLIT_BOUNDS),
                   (0j, "0j is not interior to slit_plane" + _SLIT_BOUNDS)),
    "rectangle": (pg.DomainDescriptor.rectangle(2.0, 1.0), 0.5 + 0.5j,
                  (2 + 0.5j, "(2+0.5j) is not interior to rectangle"),
                  (-0.1 + 0.5j, "(-0.1+0.5j) is not interior to rectangle")),
    "periodic_strip": (pg.DomainDescriptor.periodic_strip(2j), -0.25 + 0.5j,
                       (0.1 + 0.5j, "(0.1+0.5j) is not interior to periodic_strip"
                        + _STRIP_BOUNDS),
                       (-0.5 + 0j, "(-0.5+0j) is not interior to periodic_strip"
                        + _STRIP_BOUNDS)),
}


@pytest.mark.parametrize("kind", sorted(_OUTSIDE))
def test_queries_name_the_first_point_outside(kind):
    # green checks z before a; the messages are the queries' recorded ones,
    # byte for byte
    dom, inside, (out1, said1), (out2, said2) = _OUTSIDE[kind]
    for call, said in ((lambda: pg.green(dom, out1, out2), said1),
                       (lambda: pg.green(dom, inside, out2), said2),
                       (lambda: pg.green(dom, out1, inside), said1),
                       (lambda: pg.robin_data(dom, out2), said2)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == said


_NON_FINITE = [complex(math.nan, 1.0), complex(math.nan, 0.0), complex(0.0, math.inf),
               complex(math.inf, 1.0)]


@pytest.mark.parametrize("point", _NON_FINITE, ids=str)
@pytest.mark.parametrize("kind", sorted(_OUTSIDE))
def test_queries_reject_non_finite_points(kind, point):
    dom, inside, _, _ = _OUTSIDE[kind]
    for call in (lambda: pg.green(dom, point, inside), lambda: pg.green(dom, inside, point),
                 lambda: pg.robin_data(dom, point)):
        with pytest.raises(DomainError, match=f"is not interior to {kind}"):
            call()


@pytest.mark.parametrize("point", _NON_FINITE, ids=str)
def test_disk_functions_and_measures_reject_non_finite_input(point):
    for call, error in ((lambda: pg.poisson_value(np.real, point), DomainError),
                        (lambda: hadamard.triple_green(0.1, point, 0.2j), DomainError),
                        (lambda: schottky.ahlfors_map_disk(0.5, point), DomainError),
                        (lambda: schottky.ahlfors_map_disk(point, 0.5), DomainError),
                        # a weight of nan or inf
                        (lambda: equilibrium.WeightedMeasure([1, -1], [abs(point), 0.0]),
                         ParameterError)):
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("R", [1e-20, 1e20])
def test_disk_pole_and_wall_bounds_are_relative_to_the_radius(R):
    disk = pg.DomainDescriptor.disk(R)
    z, a = 0.1 + 0.5j, 0.3 + 0.2j
    assert abs(pg.robin_data(disk, 0j).h0 - math.log(R)) <= 1e-15 * abs(math.log(R))
    assert abs(pg.robin_data(disk, R * a).h1 * R - pg.robin_data(DISK, a).h1) < 1e-15
    assert abs(pg.green(disk, R * z, R * a) - pg.green(DISK, z, a)) < 1e-15
    with pytest.raises(ConditioningError, match="too close to the boundary"):
        pg.robin_data(disk, R * (1 - 1e-12))
    with pytest.raises(PoleError):
        pg.green(disk, R * a, R * (a + 1e-15))


@pytest.mark.parametrize("s", [1e-20, 1e20, 1e-90])
def test_scale_free_kinds_bound_poles_and_walls_relative_to_the_point(s):
    # the half-plane and the slit plane have no length of their own, so
    # their bounds scale with |a|, as the disk's scale with R
    for dom, z, a in ((pg.DomainDescriptor.half_plane(), 0.1 + 0.5j, 0.3 + 0.2j),
                      (pg.DomainDescriptor.slit_plane(), -0.4 + 0.5j, -1.0 + 0.3j)):
        unit, rd = pg.robin_data(dom, a), pg.robin_data(dom, s * a)
        assert abs(rd.h0 - math.log(s) - unit.h0) <= 1e-15 * abs(math.log(s))
        assert abs(rd.h1 * s - unit.h1) <= 1e-15 * abs(unit.h1)
        assert abs(pg.green(dom, s * z, s * a) - pg.green(dom, z, a)) < 1e-15
        with pytest.raises(ConditioningError, match="too close to the boundary"):
            pg.robin_data(dom, s * (1 + 1e-12j))
        with pytest.raises(PoleError):
            pg.green(dom, s * a, s * (a + 1e-15))


def test_scale_free_kinds_answer_at_small_points_in_closed_form():
    half, slit = pg.DomainDescriptor.half_plane(), pg.DomainDescriptor.slit_plane()
    rd = pg.robin_data(half, 1e-20j)
    assert rd.h0 == math.log(2e-20) and rd.h1 == -0.5j / 1e-20
    assert pg.robin_data(slit, -1e-12).h0 == math.log(4e-12)
    assert pg.green(half, 1e-20j, 3e-20j) == math.log(2) / (2 * math.pi)
    with pytest.raises(ConditioningError, match="too close to the boundary"):
        pg.robin_data(half, 1 + 1e-12j)
    # below the least disk radius the bounds stop shrinking: h1 = -i / (2 Im a)
    # would overflow from Im a ~ 3e-309 on
    with pytest.raises(ConditioningError, match="too close to the boundary"):
        pg.robin_data(half, 1e-320j)


def test_rectangle_wall_bound_is_relative_to_the_shorter_side():
    s, unit = 1e-12, pg.DomainDescriptor.rectangle(1.0, 1.0)
    square = pg.DomainDescriptor.rectangle(s, s)
    c, a = 0.5 + 0.5j, 0.2 + 0.3j
    assert abs(pg.robin_data(square, s * c).h0 - math.log(s)
               - pg.robin_data(unit, c).h0) < 1e-13
    assert abs(pg.green(square, s * c, s * a) - pg.green(unit, c, a)) < 1e-13
    with pytest.raises(ConditioningError, match="too close to the boundary"):
        pg.robin_data(square, s * (0.5 + 1e-10j))


def _polar(rng, r, shape):
    return r * np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape))


def _box(rng, x, y, shape):
    return rng.uniform(*x, shape) + 1j * rng.uniform(*y, shape)


# domain, interior points of a shape (a tenth of the domain's size from
# its boundary), a point within 1e-9 of the size from the wall, and the
# tolerance of array values against point values (0.0: the same path)
_ARRAYS = {
    "disk": (pg.DomainDescriptor.disk(2.0), lambda rng, s: _polar(rng, 1.8, s),
             2 - 1e-12 + 0j, 1e-12),
    "half_plane": (pg.DomainDescriptor.half_plane(),
                   lambda rng, s: _box(rng, (-3, 3), (0.1, 3), s), 1 + 1e-12j, 1e-12),
    "slit_plane": (pg.DomainDescriptor.slit_plane(),
                   lambda rng, s: 0.2 + _polar(rng, 2.5, s) * (0.95 + 0.2j) - 1.5j,
                   2 - 1e-12j, 1e-12),
    "rectangle": (pg.DomainDescriptor.rectangle(2.0, 1.0),
                  lambda rng, s: _box(rng, (0.1, 1.9), (0.1, 0.9), s), 0.5 + 1e-12j, 1e-12),
    "periodic_strip": (pg.DomainDescriptor.periodic_strip(2j),
                       lambda rng, s: _box(rng, (-0.45, -0.05), (-3, 3), s),
                       -1e-12 + 0.5j, 1e-12),
}


def _close(array, points, tol):
    points = np.array(points).reshape(array.shape)
    if tol == 0.0:
        return array.tobytes() == points.tobytes()
    return bool(np.all(abs(array - points) <= tol * np.maximum(1.0, abs(points))))


@pytest.mark.parametrize("shape", [(7,), (3, 4), ()], ids=str)
@pytest.mark.parametrize("kind", sorted(_ARRAYS))
def test_array_queries_match_point_queries(kind, shape):
    dom, draw, _, tol = _ARRAYS[kind]
    rng = np.random.default_rng(len(kind) + len(shape))
    z, a = draw(rng, shape), draw(rng, shape)
    assert np.all(dom.contains(z)) and np.all(dom.contains(a))
    pairs = list(zip(np.ravel(z).tolist(), np.ravel(a).tolist()))
    g, rd = pg.green(dom, z, a), pg.robin_data(dom, a)
    point_g = [pg.green(dom, p, q) for p, q in pairs]
    point_rd = [pg.robin_data(dom, q) for _, q in pairs]
    if not shape:
        # a 0-d array is a point: the point call's types and bits
        assert type(g) is float and g == point_g[0]
        assert (type(rd.h0), type(rd.h1), type(rd.curvature)) == (float, complex, float)
        assert rd == point_rd[0]
        return
    assert g.shape == rd.h0.shape == rd.h1.shape == rd.curvature.shape == shape
    assert (g.dtype, rd.h0.dtype, rd.h1.dtype, rd.curvature.dtype) == (
        np.float64, np.float64, np.complex128, np.float64)
    assert _close(g, point_g, tol)
    # the rectangle's h0 sums the same theta series for a point and an array
    assert _close(rd.h0, [r.h0 for r in point_rd], 0.0 if kind == "rectangle" else tol)
    assert _close(rd.h1, [r.h1 for r in point_rd], tol)
    assert _close(rd.curvature, [r.curvature for r in point_rd], tol)
    # one point against an array broadcasts, for z and for a
    assert _close(pg.green(dom, z, complex(a.flat[0])),
                  [pg.green(dom, p, complex(a.flat[0])) for p, _ in pairs], tol)
    assert _close(pg.green_z_derivative(dom, complex(z.flat[0]), a),
                  [pg.green_z_derivative(dom, complex(z.flat[0]), q) for _, q in pairs], tol)
    if kind in ("disk", "half_plane"):
        # one (..., n) table, summed along its last axis as each point's row
        h1 = pg.h1_contour(dom, a, 128)
        assert h1.shape == shape and h1.dtype == np.complex128
        assert _close(h1, [pg.h1_contour(dom, q, 128) for _, q in pairs], 0.0)
    else:
        with pytest.raises(ParameterError, match="no boundary curve"):
            pg.h1_contour(dom, a, 128)


@pytest.mark.parametrize("kind", sorted(_ARRAYS))
def test_array_queries_name_the_first_bad_point(kind):
    dom, draw, near, _ = _ARRAYS[kind]
    _, inside, (out1, said1), (out2, said2) = _OUTSIDE[kind]
    other = complex(draw(np.random.default_rng(3), ()))
    for call, said in ((lambda: pg.green(dom, np.array([inside, out2, out1]), other), said2),
                       (lambda: pg.green(dom, other, np.array([inside, out1])), said1),
                       (lambda: pg.robin_data(dom, np.array([[inside, out2], [out1, out1]])),
                        said2)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == said
    with pytest.raises(ConditioningError, match="too close to the boundary") as err:
        pg.robin_data(dom, np.array([inside, near, near / 2]))
    assert str(err.value).endswith(str(near))
    with pytest.raises(PoleError) as err:
        pg.green(dom, np.array([inside, other]), np.array([other, other]))
    assert str(err.value).endswith(str(other))
