import cmath
import collections
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from potflow import elliptic, numkit, planar_green as pg, schottky as sk, surface as sf
from potflow.errors import (
    AdmissibilityError,
    DomainError,
    ParameterError,
    PoleError,
)


@pytest.fixture(scope="module")
def dbl():
    return sk.StripDouble(2j)


A = -0.25 + 0.5j
Z = -0.2 + 0.3j
B = -0.35 + 1.1j


def test_schwarz_circle():
    z = cmath.exp(0.7j)
    assert abs(sk.schwarz_circle(z) - z.conjugate()) < 1e-15
    w = 0.3 + 0.4j
    refl = sk.schwarz_circle(sk.schwarz_circle(w).conjugate()).conjugate()
    assert abs(refl - w) < 1e-15
    # S'(z) T(z)^2 = 1 with T the positively oriented unit tangent
    th = 0.7
    tangent = 1j * cmath.exp(1j * th)
    s_prime = -1.0 / cmath.exp(2j * th)
    assert abs(s_prime * tangent ** 2 - 1) < 1e-15
    with pytest.raises(PoleError):
        sk.schwarz_circle(0.0)


def test_involution_and_harmonic_measure(dbl):
    assert sk.StripDouble.involution(sk.StripDouble.involution(Z)) == Z
    assert sk.StripDouble.u1(0.3j) == 0.0
    assert sk.StripDouble.u1(-0.5 + 0.9j) == 1.0
    assert abs(dbl.p11_quadrature() - dbl.T) < 1e-10


def test_strip_parameter_validation():
    with pytest.raises(ParameterError):
        sk.StripDouble(1 + 2j)
    # a real part within roundoff is dropped: the quadratures need Re tau = 0
    dbl = sk.StripDouble(1e-15 + 2j)
    assert dbl.tau == dbl.lattice.tau == 2j
    assert abs(sk.orthogonality_integral(B, dbl)) < 1e-8


def test_kkh_identity_exact(dbl):
    ke, kh, kd = sk.strip_bergman_kernels(Z, A, dbl)
    assert ke - kh - 2 * kd == 0
    assert abs(kd - 0.5) < 1e-15


def test_kernel_hermitean_symmetry(dbl):
    ke, kh, kd = sk.strip_bergman_kernels(Z, A, dbl)
    ke2, kh2, kd2 = sk.strip_bergman_kernels(A, Z, dbl)
    assert abs(ke2 - ke.conjugate()) < 1e-12
    assert abs(kh2 - kh.conjugate()) < 1e-12


@pytest.mark.parametrize("tau", (1.5j, 2j, 3j))
def test_kernel_periods(tau):
    dbl = sk.StripDouble(tau)
    a = complex(-0.25, 0.4 * tau.imag)
    n = 192
    xs = -0.5 + np.arange(n) / n
    ys = tau.imag * np.arange(n) / n
    pa_e = sum(sk.strip_bergman_kernels(complex(x, 0), a, dbl)[0] for x in xs) / n
    pb_e = sum(sk.strip_bergman_kernels(complex(0, y), a, dbl)[0]
               for y in ys) * 1j * tau.imag / n
    pa_h = sum(sk.strip_bergman_kernels(complex(x, 0), a, dbl)[1] for x in xs) / n
    pb_h = sum(sk.strip_bergman_kernels(complex(0, y), a, dbl)[1]
               for y in ys) * 1j * tau.imag / n
    assert abs(pa_e) < 1e-8
    assert abs(pb_e - 2j) < 1e-8
    assert abs(pa_h + 2 / tau.imag) < 1e-8
    assert abs(pb_h) < 1e-8


def test_kkl_combinations(dbl):
    r1, r2 = sk.kkl_combinations(Z, A, dbl)
    assert r1 < 1e-12 and r2 < 1e-12
    ke, kh, kd = sk.strip_bergman_kernels(Z, A, dbl)
    _, ld = sf.torus_kernels(Z, sk.StripDouble.involution(A), dbl.lattice)
    assert abs(ld - 0.5 * (ke + kh)) < 1e-12       # sum form
    assert abs(kd - 0.5 * (ke - kh)) < 1e-15       # difference form, exact


def test_g_electro_boundary_symmetry_positive(dbl):
    for y in (0.2, 0.9, 1.7):
        assert abs(sk.g_electro_strip(complex(-1e-11, y), A, dbl)) < 1e-10
    assert abs(sk.g_electro_strip(Z, A, dbl)
               - sk.g_electro_strip(A, Z, dbl)) < 1e-12
    rng = np.random.default_rng(4)
    for _ in range(64):
        p = complex(rng.uniform(-0.48, -0.02), rng.uniform(0, 2))
        if abs(p - A) > 1e-3:
            assert sk.g_electro_strip(p, A, dbl) > 0


def test_g_electro_unit_flux(dbl):
    n, h = 96, 1e-6
    total = 0.0
    for y in dbl.T * np.arange(n) / n:
        d0 = (sk._g_hydro_extended(complex(h, y), A, dbl, 0.0)
              - sk._g_hydro_extended(complex(-h, y), A, dbl, 0.0)) / (2 * h)
        d1 = (sk._g_hydro_extended(complex(-0.5 + h, y), A, dbl, 0.0)
              - sk._g_hydro_extended(complex(-0.5 - h, y), A, dbl, 0.0)) / (2 * h)
        total += -d0 + d1
    assert abs(total * dbl.T / n - 1.0) < 1e-6


def test_g_hydro_boundary_and_circulation(dbl):
    h = 1e-5
    for x0 in (0.0, -0.5):
        tang = (sk._g_hydro_extended(complex(x0, 0.4 + h), A, dbl, 0.7)
                - sk._g_hydro_extended(complex(x0, 0.4 - h), A, dbl, 0.7)) / (2 * h)
        assert abs(tang) < 1e-8
    for p in (0.0, 0.7):
        assert abs(sk.hydro_circulation(A, dbl, p) - p) < 1e-8


def _richardson_dz(f, z: complex, h: float) -> complex:
    """d/dz of f at z from central differences of steps h and h/2, with one
    Richardson step (error O(h^4))."""
    def central(k):
        dx = (f(z + k) - f(z - k)) / (2 * k)
        dy = (f(z + 1j * k) - f(z - 1j * k)) / (2 * k)
        return 0.5 * (dx - 1j * dy)
    return (4 * central(h / 2) - central(h)) / 3


@pytest.mark.parametrize("T", [0.5, 2.0])
def test_strip_green_z_derivative_matches_richardson_differences(T):
    dom = pg.DomainDescriptor.periodic_strip(1j * T)
    rng = np.random.default_rng(32)
    pairs = [(complex(rng.uniform(-0.45, -0.05), rng.uniform(0, T)),
              complex(rng.uniform(-0.45, -0.05), rng.uniform(0, T))) for _ in range(6)]
    # z - a = -0.011 + (T + 0.01)i lies 0.015 from the pole's image at a + tau;
    # there a plain central difference of step 5e-5 is off by 3.8e-6 relative
    pairs.append((complex(-0.261, T + 0.11), -0.25 + 0.1j))
    for z, a in pairs:
        want = _richardson_dz(lambda w: pg.green(dom, w, a), z, 1e-4)
        got = pg.green_z_derivative(dom, z, a)
        assert type(got) is complex and abs(got - want) <= 1e-9 * abs(want), (z, a)


def test_strip_green_z_derivative_of_an_array_equals_scalar_calls_bit_for_bit():
    dom = pg.DomainDescriptor.periodic_strip(2j)
    rng = np.random.default_rng(78)
    z = rng.uniform(-0.499, -0.001, 2000) + 1j * rng.uniform(-4, 4, 2000)
    got = pg.green_z_derivative(dom, z.reshape(40, 50), A)
    assert got.shape == (40, 50)
    assert _bits(*got.ravel()) == _bits(*(pg.green_z_derivative(dom, complex(w), A)
                                         for w in z))


@pytest.mark.parametrize("z", [A, A + 2j, A - 6j, np.array([Z, A + 2j])], ids=str)
def test_strip_green_z_derivative_raises_at_the_pole_and_its_images(z):
    with pytest.raises(PoleError):
        pg.green_z_derivative(pg.DomainDescriptor.periodic_strip(2j), z, A)


@pytest.mark.parametrize("p", [0.0, 0.7])
def test_closed_form_hydro_dx_matches_a_central_difference(dbl, p):
    # an oracle independent of theta1'/theta1: a step-1e-6 central
    # difference of G_hydro, good to its roundoff at these p
    ys = dbl.T * np.arange(96) / 96
    rng = np.random.default_rng(5)
    z = np.concatenate([1j * ys, -0.5 + 1j * ys,
                        rng.uniform(-0.45, -0.05, 50) + 1j * rng.uniform(0, dbl.T, 50)])
    h = 1e-6
    for a in (A, B):
        fd = (sk._g_hydro_extended(z + h, a, dbl, p)
              - sk._g_hydro_extended(z - h, a, dbl, p)) / (2 * h)
        assert np.abs(sk._g_hydro_dx(z, a, dbl, p) - fd).max() < 1e-9


def test_hydrohydro_pairing(dbl):
    n, h, p = 128, 1e-6, 0.7
    total = 0.0
    for y in dbl.T * np.arange(n) / n:
        for x0, orient in ((0.0, +1), (-0.5, -1)):
            gval = sk._g_hydro_extended(complex(x0, y), A, dbl, p)
            dgb = (sk._g_hydro_extended(complex(x0 + h, y), B, dbl, p)
                   - sk._g_hydro_extended(complex(x0 - h, y), B, dbl, p)) / (2 * h)
            total += gval * dgb * orient
    assert abs(total * dbl.T / n) < 1e-8


def test_neumann_function(dbl):
    h = 1e-6
    dn = (sk.neumann_strip(complex(h, 0.3), A, dbl)
          - sk.neumann_strip(complex(-h, 0.3), A, dbl)) / (2 * h)
    assert abs(dn) < 1e-6
    val = numkit.wirtinger_derivative(
        lambda w: sk.neumann_strip(w, A, dbl), Z, "dzdzbar", 1e-4)
    assert abs(val - 1 / (2 * dbl.T)) < 1e-5


def test_neumann_hydro_relation_p_independent(dbl):
    def richardson(f2, h=2e-4):
        c = numkit.mixed_second_derivative(f2, Z, A, h)
        f = numkit.mixed_second_derivative(f2, Z, A, h / 2)
        return (4 * f - c) / 3

    m1 = richardson(lambda u, v: sk.neumann_strip(u, v, dbl))
    for p in (0.0, 0.7):
        m2 = richardson(lambda u, v: sk.g_hydro_strip(u, v, dbl, p))
        assert abs(m1 + m2) < 1e-6


def test_kernels_and_green_on_arrays_match_scalar_calls(dbl):
    rng = np.random.default_rng(17)
    z = (rng.uniform(-0.48, -0.02, 12) + 1j * rng.uniform(0, 2, 12)).reshape(3, 4)
    kernels = sk.strip_bergman_kernels(z, A, dbl)
    g = sk._g_hydro_extended(z, A, dbl, 0.7)
    ups = sk.upsilon_third_kind(z, A, B, dbl)
    for idx in np.ndindex(z.shape):
        scalar = sk.strip_bergman_kernels(complex(z[idx]), A, dbl)
        for arr, val in zip(kernels, scalar):
            assert arr.shape == z.shape and abs(arr[idx] - val) <= 1e-13 * abs(val)
        assert g[idx] == sk._g_hydro_extended(complex(z[idx]), A, dbl, 0.7)
        val = sk.upsilon_third_kind(complex(z[idx]), A, B, dbl)
        assert abs(ups[idx] - val) <= 1e-13 * abs(val)
    assert type(sk.strip_bergman_kernels(np.array(Z), A, dbl)[2]) is complex


def test_reproducing_electro_constant(dbl):
    val = sk.reproducing_check("electro", lambda w: 1.0 + 0j, A, dbl)
    assert abs(val - 1.0) < 1e-6


def test_reproducing_hydro_exponential(dbl):
    tau = dbl.tau
    f = lambda w: (2j * math.pi / tau) * np.exp(2j * math.pi * w / tau)
    for pt in (A, -0.15 + 0.35j, -0.4 + 1.4j):
        val = sk.reproducing_check("hydro", f, pt, dbl)
        assert abs(val - f(pt)) < 1e-6


def test_reproducing_hydro_admissibility(dbl):
    # K_electro(., a0) has the full strip period 2i: not an exact differential
    a0 = -0.3 + 0.7j
    f = lambda w: sk.strip_bergman_kernels(w, a0, dbl)[0]
    with pytest.raises(AdmissibilityError):
        sk.reproducing_check("hydro", f, A, dbl)


def test_orthogonality(dbl):
    assert abs(sk.orthogonality_integral(B, dbl)) < 1e-8


def _full_grid_quadrature(integrand, a, dbl, resolution=12):
    """The reference strip quadrature: kernels from wp on every node."""
    nodes, weights = numkit.product_rule(*(
        numkit.gauss_legendre_rule(np.linspace(lo, hi, resolution + 1))
        for lo, hi in ((-0.5, 0.0), (0.0, dbl.T))))
    return numkit.integrate(
        lambda z: integrand(z, *sk.strip_bergman_kernels(z, a, dbl)), nodes, weights)


def test_strip_quadratures_equal_the_full_grid_formula_bit_for_bit(dbl):
    tau = dbl.tau
    fexp = lambda w: (2j * math.pi / tau) * np.exp(2j * math.pi * w / tau)
    one = lambda w: 1.0 + 0j
    assert sk.reproducing_check("electro", one, A, dbl) == _full_grid_quadrature(
        lambda z, ke, kh, kd: one(z) * ke.conjugate(), A, dbl)
    for pt in (A, -0.15 + 0.35j, -0.4 + 1.4j):
        assert sk.reproducing_check("hydro", fexp, pt, dbl) == _full_grid_quadrature(
            lambda z, ke, kh, kd: kh.conjugate() * fexp(z), pt, dbl)
    assert sk.orthogonality_integral(B, dbl) == _full_grid_quadrature(
        lambda z, ke, kh, kd: kd * kh.conjugate(), B, dbl)


def test_reproducing_check_on_an_array_of_points_equals_the_scalar_calls(dbl):
    tau = dbl.tau
    fexp = lambda w: (2j * math.pi / tau) * np.exp(2j * math.pi * w / tau)
    pts = np.array([A, -0.15 + 0.35j, -0.4 + 1.4j])
    for kernel, f in (("hydro", fexp), ("electro", lambda w: 1.0 + 0j)):
        vals = sk.reproducing_check(kernel, f, pts, dbl)
        assert vals.shape == pts.shape
        assert _bits(*vals) == _bits(*(sk.reproducing_check(kernel, f, complex(p), dbl)
                                       for p in pts))


def test_schottky_suite_never_evaluates_wp_on_a_full_grid(monkeypatch):
    from potflow import verify
    wp = elliptic.wp

    def small_wp(z, L):
        if np.size(z) > 1000:
            raise AssertionError(f"wp called on {np.size(z)} points")
        return wp(z, L)

    monkeypatch.setattr(elliptic, "wp", small_wp)
    assert all(check.passed for check in verify.run_suite("schottky"))


def _bits(*values) -> bytes:
    """The values' IEEE bits, so that == also tells -0.0 from 0.0."""
    return struct.pack(f"<{2 * len(values)}d", *(
        part for v in values for part in (complex(v).real, complex(v).imag)))


def _torus_green_reference(z, a, spec):
    """torus_monopole_green from public primitives, each reducing its own
    argument, with theta1'(0) summed afresh."""
    L = spec
    wr = elliptic.reduce_to_cell(z - a, L.tau)[0]
    val = -(elliptic.log_abs_theta1(wr, L)
            - math.log(abs(elliptic.theta1_prime(0.0, L)))) / (2 * math.pi)
    return val + wr.imag * wr.imag / (2 * spec.volume) + sf.torus_green_constant(L.tau)


def _strip_robin_reference(a, dbl):
    L, w = dbl.lattice, 2 * a.real
    h0 = (elliptic.log_abs_theta1(w, L)
          - math.log(abs(elliptic.theta1_prime(0.0, L))))
    h1 = elliptic.theta1_prime(w, L) / elliptic.theta1(w, L)
    kappa = (-4 * math.pi * sk.strip_bergman_kernels(a, a, dbl)[0].real
             * math.exp(2 * h0))
    return h0, h1, kappa


@pytest.mark.parametrize("T, cells, seed", [
    pytest.param(1.0, 3, 1, id="1.0"), pytest.param(2.0, 3, 2, id="2.0"),
    (1.0, 50, 3), (2.0, 50, 4), (0.3, 50, 5), (17.0, 50, 6)])
def test_strip_green_and_robin_equal_the_reference_bit_for_bit(T, cells, seed):
    dom = pg.DomainDescriptor.periodic_strip(1j * T)
    dbl = sk.StripDouble(1j * T)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.499, -0.001, (500, 2)) + 1j * rng.uniform(
        -cells * T, cells * T, (500, 2))
    for z, a in pts:
        want = (_torus_green_reference(z, a, dbl.lattice)
                - _torus_green_reference(z, sk.StripDouble.involution(a), dbl.lattice))
        assert _bits(pg.green(dom, z, a)) == _bits(want), (z, a)
        r = pg.robin_data(dom, a)
        assert _bits(r.h0, r.h1, r.curvature) == _bits(*_strip_robin_reference(a, dbl)), a


@pytest.mark.parametrize("tau", [0.5j, 2j, 0.3 + 2j, 1.3j, 0.3 + 1.1j])
def test_torus_green_equals_the_reference_bit_for_bit(tau):
    spec = elliptic.lattice_constants(tau)
    a = 0.23 - 0.17j
    # the half periods (lattice points excluded) over several cells
    zs = [a + 0.5 * k + 0.5 * j * tau for k in range(-6, 7) for j in range(-6, 7)
          if k % 2 or j % 2]
    rng = np.random.default_rng(5)
    zs += list(rng.uniform(-5, 5, 300) + 1j * tau.imag * rng.uniform(-5, 5, 300))
    # within a few ulp of a horizontal cell edge far out, where the rounded
    # reduction can leave |Im(z - a)| just above Im tau / 2 (when n Im tau
    # rounds, so not for Im tau 0.5 or 2)
    y = (rng.integers(-10 ** 6, 10 ** 6, 2000) + 0.5) * tau.imag
    y += rng.integers(-4, 5, y.size) * np.spacing(y)
    zs += list(a + rng.uniform(-0.5, 0.5, y.size) + 1j * y)
    for z in zs:
        assert _bits(sf.torus_monopole_green(z, a, spec)) == _bits(
            _torus_green_reference(z, a, spec)), z
    z = np.array(zs).reshape(-1, 4)
    assert _bits(*sf.torus_monopole_green(z, a, spec).ravel()) == _bits(
        *_torus_green_reference(z, a, spec).ravel())


def _scalar_calls(fn, z, a, *args):
    return [fn(zz, aa, *args) for zz, aa in zip(z.tolist(), a.tolist())]


def test_torus_green_squares_im_w_alike_on_both_paths(dbl):
    # Im(z - a) = y where Python's y ** 2 (the C library's pow) is one ulp
    # off y * y, as it is for about 0.1% of arguments on glibc
    y = np.random.default_rng(1).uniform(-0.99, 0.99, 200_000).tolist()
    y = [v for v in y if v ** 2 != v * v] + y[:50]
    z = 0.1 + 1j * np.array(y)
    a = np.zeros(z.size, complex)
    assert _bits(*sf.torus_monopole_green(z, 0j, dbl.lattice)) == _bits(
        *_scalar_calls(sf.torus_monopole_green, z, a, dbl.lattice))


def test_strip_green_arrays_equal_scalar_calls_bit_for_bit(dbl):
    rng = np.random.default_rng(77)
    z, a = (rng.uniform(-0.499, -0.001, 2000) + 1j * rng.uniform(-4, 4, 2000)
            for _ in range(2))
    for fn, args in ((sf.torus_monopole_green, (dbl.lattice,)),
                     (sk.g_electro_strip, (dbl,)), (sk.neumann_strip, (dbl,)),
                     (sk.g_hydro_strip, (dbl, 0.7))):
        got = fn(z.reshape(40, 50), a.reshape(40, 50), *args)
        assert got.shape == (40, 50)
        assert _bits(*got.ravel()) == _bits(*_scalar_calls(fn, z, a, *args)), fn
        # a scalar a broadcasts against an array z, and the reverse
        assert _bits(*fn(z[:50], A, *args)) == _bits(
            *_scalar_calls(fn, z[:50], np.full(50, A), *args))
        assert _bits(*fn(Z, a[:50], *args)) == _bits(
            *_scalar_calls(fn, np.full(50, Z), a[:50], *args))
    with pytest.raises(DomainError):
        sk.g_electro_strip(np.array([Z, 0.1 + 0.2j]), A, dbl)
    with pytest.raises(DomainError):
        sk.g_hydro_strip(Z, np.array([A, -0.6 + 0.2j]), dbl)


def test_ng_stencils_equal_scalar_calls_bit_for_bit(monkeypatch, dbl):
    from potflow import verify
    calls = []

    def recording(fn):
        def wrapped(z, a, *args):
            if isinstance(z, np.ndarray):
                calls.append((fn, z, a, args))
            return fn(z, a, *args)
        return wrapped

    for name in ("neumann_strip", "g_hydro_strip"):
        monkeypatch.setattr(sk, name, recording(getattr(sk, name)))
    verify.schottky_checks()
    # 10 (z, a) pairs, two steps each, 16 stencil points per step
    assert len(calls) == 40 and all(z.shape == (16,) for _, z, _, _ in calls)
    for fn, z, a, args in calls:
        assert _bits(*fn(z, a, *args)) == _bits(*_scalar_calls(fn, z, a, *args))
        for b in (a, sk.StripDouble.involution(a)):
            assert _bits(*sf.torus_monopole_green(z, b, dbl.lattice)) == _bits(
                *_scalar_calls(sf.torus_monopole_green, z, b, dbl.lattice))


@pytest.mark.parametrize("p", [0.0, 0.7])
def test_tabulated_mixed_richardson_equals_the_scalar_one(dbl, p):
    from potflow import verify

    def scalar_richardson(f2, z, a, h=2e-4):
        coarse = numkit.mixed_second_derivative(f2, z, a, h)
        fine = numkit.mixed_second_derivative(f2, z, a, h / 2)
        return (4 * fine - coarse) / 3

    rng = np.random.default_rng(3)
    for _ in range(4):
        z, a = (complex(rng.uniform(-0.42, -0.08), rng.uniform(0.1, 1.9))
                for _ in range(2))
        for fn in (lambda u, v: sk.neumann_strip(u, v, dbl),
                   lambda u, v: sk.g_hydro_strip(u, v, dbl, p)):
            assert _bits(verify._mixed_richardson(fn, z, a)) == _bits(
                scalar_richardson(fn, z, a))


@pytest.mark.parametrize("tau", [0.05j, 0.5j, 1j, 2j, 0.3 + 2j, -0.45 + 0.9j, 60j])
def test_cached_theta1_prime0_is_theta1_prime_at_zero(tau):
    L = elliptic.lattice_constants(tau)
    assert _bits(L.theta1_prime0) == _bits(elliptic.theta1_prime(0.0, L))


def test_strip_green_sums_no_theta_prime_series_once_built(monkeypatch):
    dom = pg.DomainDescriptor.periodic_strip(2j)
    pg.green(dom, Z, A)
    counts = collections.Counter()
    summed = elliptic._sum

    def counting_sum(name, *args):
        counts[name] += 1
        return summed(name, *args)

    monkeypatch.setattr(elliptic, "_sum", counting_sum)
    for k in range(100):
        pg.green(dom, Z + 0.01j * k, A)
    # one theta series per torus monopole term, two terms per strip green
    assert counts == {"theta": 200}


def test_upsilon_residues_and_periods(dbl):
    ups = lambda w: sk.upsilon_third_kind(w, A, B, dbl)
    for c, expected in ((A, 1.0), (B, -1.0)):
        n, r = 64, 0.01
        residue = sum(ups(c + r * cmath.exp(2j * math.pi * k / n))
                      * r * cmath.exp(2j * math.pi * k / n) * 2j * math.pi / n
                      for k in range(n)) / (2j * math.pi)
        assert abs(residue - expected) < 1e-8
    pa = sum(ups(complex(-0.49, 0.25) + k / 256) for k in range(256)) / 256
    pb = sum(ups(complex(0.1, 0) + dbl.tau * k / 256) * dbl.tau
             for k in range(256)) / 256
    assert abs(pa.real) < 1e-8 and abs(pb.real) < 1e-8


def test_upsilon_matches_electro_differential(dbl):
    ups = sk.upsilon_third_kind(Z, A, sk.StripDouble.involution(A), dbl)
    h = 1e-6
    ge = lambda w: sk.g_electro_strip(w, A, dbl)
    grad = ((ge(Z + h) - ge(Z - h)) / (2 * h)
            - 1j * (ge(Z + 1j * h) - ge(Z - 1j * h)) / (2 * h))
    assert abs(ups + 2 * math.pi * grad) < 1e-8


def test_szego_singularity_and_boundary(dbl):
    r = 1e-5
    L, kdiag = sk.szego_genus1(A + r, A, dbl)
    assert abs(r * L - 1 / (2 * math.pi)) < 1e-8
    assert kdiag > 0
    e2 = dbl.lattice.e2
    expected = math.sqrt((elliptic.wp(2 * A.real, dbl.lattice) - e2).real) \
        / (2 * math.pi)
    assert abs(kdiag - expected) < 1e-12
    for y in (0.1, 0.7, 1.3):
        zz = complex(0.0, y)
        Lv, _ = sk.szego_genus1(zz, A, dbl)
        Kv = sk.szego_kernel(zz, A, dbl)
        assert abs(abs(Lv) - abs(Kv)) < 1e-8


def test_szego_sandwich(dbl):
    ke, kh, _ = sk.strip_bergman_kernels(A, A, dbl)
    ksz = sk.szego_kernel(A, A, dbl).real
    assert math.pi * kh.real < 4 * math.pi ** 2 * ksz ** 2 < math.pi * ke.real


def test_capacity_chain_strict(dbl):
    for p in (-0.25 + 0.5j, -0.1 + 0.3j, -0.37 + 1.7j, -0.3 + 1.0j, -0.2 + 0.05j):
        cf = sk.capacity_functions(p, dbl)
        chain = cf.chain()
        assert all(m > 0 for m in cf.margins()), (p, chain)


def test_capacity_disk_degenerate():
    cf = sk.disk_capacity_functions(0.3)
    chain = cf.chain()
    assert max(chain) - min(chain) < 1e-8
    assert abs(chain[0] - 1 / (1 - 0.09)) < 1e-12


def test_capacity_curvature_bound(dbl):
    for p in (-0.25 + 0.5j, -0.3 + 1.0j):
        kappa = pg.curvature_of_metric(
            lambda w: sk.gamma_electro(w, dbl), p)
        assert kappa <= -4 + 1e-3


def test_gamma_electro_gradient(dbl):
    h = 1e-6
    ge = lambda w: sk.gamma_electro(w, dbl)
    fd = 0.5 * ((ge(A + h) - ge(A - h)) / (2 * h)
                - 1j * (ge(A + 1j * h) - ge(A - 1j * h)) / (2 * h))
    assert abs(sk.gamma_electro_gradient(A, dbl) - fd) < 1e-8


@pytest.mark.parametrize("a", [0.3 + 0.1j, 0.0, -0.5 + 0.2j, -0.2 + 1e9j, complex("nan")])
def test_gamma_electro_gradient_rejects_points_outside_the_strip(dbl, a):
    for robin in (sk.gamma_electro, sk.gamma_electro_gradient):
        with pytest.raises(DomainError, match="is not interior to periodic_strip"):
            robin(a, dbl)


@pytest.mark.parametrize("x", [-1e-13, -0.5 + 1e-13])
def test_gamma_electro_holds_within_1e_12_of_a_wall(dbl, x):
    # Robin data's curvature reads wp(2 Re a), which rejects points this near
    # the lattice; gamma_electro and its gradient need no wp
    a, w = complex(x, 0.1), 2 * x - round(2 * x)
    assert math.isfinite(sk.gamma_electro(a, dbl))
    assert abs(sk.gamma_electro_gradient(a, dbl) * w - 1) < 1e-6


@pytest.mark.parametrize("T, seed", [(0.3, 1), (2.0, 2), (17.0, 3)])
def test_strip_robin_data_is_gamma_electro_and_its_gradient_bit_for_bit(T, seed):
    dom = pg.DomainDescriptor.periodic_strip(1j * T)
    dbl = sk.StripDouble(1j * T)
    rng = np.random.default_rng(seed)
    for a in rng.uniform(-0.499, -0.001, 200) + 1j * rng.uniform(-3 * T, 3 * T, 200):
        r = pg.robin_data(dom, a)
        assert _bits(r.h0, r.h1) == _bits(sk.gamma_electro(a, dbl),
                                          sk.gamma_electro_gradient(a, dbl)), a


@pytest.mark.parametrize("tau", [2j, 1e-15 + 1.3j, -1e-15 + 0.7j])
def test_strip_queries_equal_the_double_evaluators_bit_for_bit(tau):
    # green and robin_data read the lattice cache at i Im tau; a StripDouble
    # of the same tau holds that lattice, before and after the lattice cache
    # has dropped it
    dom = pg.DomainDescriptor.periodic_strip(tau)
    z, a = -0.2 + 0.3j, -0.35 + 0.9j

    def queries_equal_the_double():
        dbl = sk.StripDouble(tau)
        assert dbl.lattice is elliptic.lattice_constants(1j * tau.imag)
        r = pg.robin_data(dom, a)
        assert _bits(pg.green(dom, z, a), r.h0, r.h1) == _bits(
            sk.g_electro_strip(z, a, dbl), sk.gamma_electro(a, dbl),
            sk.gamma_electro_gradient(a, dbl))
        return dbl.lattice

    first = queries_equal_the_double()
    for k in range(64):   # as many other moduli as the lattice cache holds
        elliptic.lattice_constants(1j * (4.0 + 0.01 * k))
    assert queries_equal_the_double() is not first


def test_gamma_hydro_matches_kernel_laplacian(dbl):
    lap = numkit.laplacian_at(lambda w: sk.gamma_hydro(w, dbl, 0.0), A, 1e-4)
    kh = sk.strip_bergman_kernels(A, A, dbl)[1].real
    assert abs(-lap - 4 * math.pi * kh) < 1e-5


def test_ahlfors_map():
    assert sk.ahlfors_map_disk(0.37 + 0.2j, 0.0) == 0.37 + 0.2j
    for th in (0.3, 2.1, 4.4):
        assert abs(abs(sk.ahlfors_map_disk(cmath.exp(1j * th), 0.5)) - 1) < 1e-12
    a = 0.5
    fp = (sk.ahlfors_map_disk(a + 1e-6, a) - sk.ahlfors_map_disk(a - 1e-6, a)) / 2e-6
    assert abs(fp - 1 / (1 - a * a)) < 1e-8
    assert abs(fp - 2 * math.pi * pg.szego_disk(a, a).real) < 1e-8
    assert sk.ahlfors_map_disk(a, a) == 0


def test_circular_slit_map():
    a = 0.3
    assert sk.circular_slit_map(a, a) == 0
    for th in (0.0, 1.0, 2.5):
        f = sk.circular_slit_map(cmath.exp(1j * th), a)
        assert abs(abs(f) - (1 - a * a)) < 1e-8
    # c1 normalization: f'(a) = 1 (circle-average derivative probe)
    r, m = 0.05, 16
    deriv = sum(sk.circular_slit_map(a + r * cmath.exp(2j * math.pi * k / m), a)
                * cmath.exp(-2j * math.pi * k / m) for k in range(m)) / (m * r)
    assert abs(deriv - 1.0) < 1e-8
    # a = 0: the map is a rotation-normalized identity
    assert abs(sk.circular_slit_map(0.3 + 0.2j, 0.0) - (0.3 + 0.2j)) < 1e-12


@pytest.mark.parametrize("a", [0.3, 0.0, -0.2 + 0.45j])
def test_circular_slit_map_of_an_array_equals_scalar_calls_bit_for_bit(a):
    z = np.array([a, 0.5 - 0.1j, cmath.exp(1.3j), a + 0.01, -0.7j, 0.0]).reshape(2, 3)
    f = sk.circular_slit_map(z, a)
    assert f.shape == (2, 3) and f[0, 0] == 0
    assert _bits(*f.ravel()) == _bits(
        *(sk.circular_slit_map(w, a) for w in z.ravel().tolist()))


@pytest.mark.parametrize("a, bound", [
    (0.0, 1e-13), (0.3, 1e-13), (0.6 + 0.3j, 1e-13), (0.9, 1e-13), (0.95, 1e-11)])
def test_circular_slit_map_equals_the_mobius_form(a, bound):
    rng = np.random.default_rng(2101)
    z = np.concatenate([np.exp(2j * math.pi * rng.uniform(size=200)),
                        np.sqrt(rng.uniform(size=200))
                        * np.exp(2j * math.pi * rng.uniform(size=200))])
    scale = 1 - abs(a) ** 2
    mobius = scale * (z - a) / (1 - np.conj(a) * z)
    assert np.max(np.abs(sk.circular_slit_map(z, a) - mobius)) / scale < bound


def test_circular_slit_map_rejects_points_outside_the_disk():
    with pytest.raises(DomainError, match=r"\(2\+0j\) lies outside"):
        sk.circular_slit_map(2.0, 0.3)
    z = np.array([0.1, 0.5j, 1.5, -3.0, np.nan])
    with pytest.raises(DomainError, match=r"\(1\.5\+0j\) lies outside"):
        sk.circular_slit_map(z, 0.3)
    with pytest.raises(DomainError, match="nan"):
        sk.circular_slit_map(z[[0, 4]], 0.3)
    # the circle itself, up to roundoff, is in
    f = sk.circular_slit_map(cmath.exp(0.4j) * (1 + 1e-13), 0.3)
    assert abs(abs(f) - (1 - 0.3 ** 2)) < 1e-8


def test_interior_requirements(dbl):
    with pytest.raises(DomainError):
        sk.g_electro_strip(0.3 + 0.1j, A, dbl)
    with pytest.raises(DomainError):
        sk.capacity_functions(0.2 + 0.1j, dbl)


@pytest.mark.parametrize("far", [-0.3 + 1e300j, complex(-0.3, math.inf),
                                 complex(-0.3, math.nan)])
def test_strip_helpers_reject_points_far_out(dbl, far):
    helpers = (sk.g_electro_strip, sk.g_hydro_strip, sk.neumann_strip)
    for fn in helpers:
        for z, a in ((far, A), (A, far), (np.array([Z, far]), A), (Z, np.array([A, far]))):
            with pytest.raises(DomainError, match=r"\|Im z\| <= 2\^26 Im tau"):
                fn(z, a, dbl)
    assert not dbl.contains(far) and not dbl.resolves(far)
    # the bound itself is inside
    edge = -0.3 + pg.STRIP_IM_MAX * 2j
    assert dbl.contains(edge) and dbl.resolves(edge)
    for fn in helpers:
        assert math.isfinite(fn(edge, A, dbl))


GOLDEN = json.loads((Path(__file__).parent / "data" / "strip_green_robin.json").read_text())


@pytest.mark.parametrize("T", sorted(GOLDEN))
def test_strip_green_and_robin_equal_the_recorded_values_bit_for_bit(T):
    # recorded from the code before the scalar strip path, on pairs up to 50
    # cells apart, z - a within a few ulp of a half-cell edge (the far-edge
    # second reduction) and 2 Re a about -1/2; the reference tests above
    # build their values from the same series sums, so only this one would
    # see a change inside elliptic._sum
    dom = pg.DomainDescriptor.periodic_strip(complex(0, float(T)))
    for zr, zi, ar, ai, g in GOLDEN[T]["green"]:
        z, a = complex(zr, zi), complex(ar, ai)
        assert _bits(pg.green(dom, z, a)) == _bits(g), (z, a)
    for ar, ai, h0, h1r, h1i, kappa in GOLDEN[T]["robin"]:
        r = pg.robin_data(dom, complex(ar, ai))
        assert _bits(r.h0, r.h1, r.curvature) == _bits(h0, complex(h1r, h1i), kappa), (ar, ai)


def test_strip_robin_sums_each_series_once(monkeypatch):
    dom = pg.DomainDescriptor.periodic_strip(2j)
    pg.robin_data(dom, A)
    counts = collections.Counter()
    summed = elliptic._sum

    def counting_sum(name, *args):
        counts[name] += 1
        return summed(name, *args)

    monkeypatch.setattr(elliptic, "_sum", counting_sum)
    pg.robin_data(dom, B)
    assert counts == {"theta": 1, "theta_prime": 1, "wp": 1}


def test_one_lattice_serves_every_consumer_of_a_modulus():
    T = 1.7731   # a tau no other test builds, so its first lattice is a miss
    tau = 1j * T
    info = elliptic.lattice_constants.cache_info
    misses = info().misses
    L = elliptic.lattice_constants(tau)
    assert L is elliptic.lattice_constants(tau)
    assert sk.StripDouble(tau).lattice is L
    assert pg._rectangle_frame(pg.DomainDescriptor.rectangle(1.0, T))[1] is L
    dom = pg.DomainDescriptor.periodic_strip(tau)
    sf.torus_monopole_green(0.1 + 0.2j, 0.3j, L)
    pg.green(dom, -0.2 + 0.3j, -0.3 + 0.5j)
    pg.robin_data(dom, -0.3 + 0.5j)
    c = sf.torus_green_constant(tau)
    assert info().misses == misses + 1
    # c(tau) and log|theta1'(0)| to the bit from their formulas
    th0 = elliptic.theta1_prime(0.0, L)
    assert type(c) is type(L.green_constant) is np.float64
    assert _bits(c) == _bits(L.green_constant) == _bits(np.float64(
        -(math.log(2 * math.pi) + 2 * math.log(abs(th0))) / (6 * math.pi)))
    assert _bits(L.log_abs_theta1_prime0) == _bits(math.log(abs(th0)))
