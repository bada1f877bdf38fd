import cmath
import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from potflow import equilibrium as eq, planar_green as pg
from potflow.errors import ParameterError, SingularConfigurationError


def test_discrete_energy_values():
    assert eq.discrete_energy([0, 1], [1, 1]) == 0.0
    assert abs(eq.discrete_energy([0, math.e], [1, 1]) + 1 / (2 * math.pi)) < 1e-15
    assert abs(eq.discrete_energy([0, math.e], [1, -1]) - 1 / (2 * math.pi)) < 1e-15


def test_discrete_energy_coincident():
    with pytest.raises(SingularConfigurationError):
        eq.discrete_energy([0.3, 0.3], [1, 1])


def brute_force_circle_delta(n, samples=720):
    """Independent oracle: exhaustive search over rotated regular and
    irregular 1-parameter families is global for n = 2; for n = 3 the
    optimum over the 2-parameter family is found by grid search."""
    best = 0.0
    if n == 2:
        for k in range(samples):
            t = math.pi * k / samples
            z = [cmath.exp(1j * 0), cmath.exp(1j * t)]
            best = max(best, abs(z[0] - z[1]))
        return best  # exponent 2/(n(n-1)) = 1
    if n == 3:
        m = 180
        for i in range(m):
            for j in range(i + 1, m):
                t1, t2 = 2 * math.pi * i / m, 2 * math.pi * j / m
                z = [1.0, cmath.exp(1j * t1), cmath.exp(1j * t2)]
                p = (abs(z[0] - z[1]) * abs(z[0] - z[2]) * abs(z[1] - z[2]))
                best = max(best, p)
        return best ** (1.0 / 3.0)
    raise ValueError


def test_fekete_circle_small_n_vs_brute_force():
    K = eq.CompactSet.circle(1.0)
    _, d2 = eq.fekete_points(K, 2)
    assert abs(d2 - brute_force_circle_delta(2)) < 1e-4
    assert abs(d2 - 2.0) < 1e-6
    pts, d3 = eq.fekete_points(K, 3)
    assert abs(d3 - brute_force_circle_delta(3)) < 1e-3
    assert abs(d3 - math.sqrt(3)) < 1e-6
    # equilateral: all pairwise distances equal
    dists = sorted([abs(pts[0] - pts[1]), abs(pts[0] - pts[2]), abs(pts[1] - pts[2])])
    assert dists[-1] - dists[0] < 1e-4


def test_fekete_segment_endpoints():
    K = eq.CompactSet.segment(2.0)
    pts, d2 = eq.fekete_points(K, 2)
    assert abs(d2 - 2.0) < 1e-9
    assert sorted(p.real for p in pts) == pytest.approx([-1.0, 1.0], abs=1e-9)


def stieltjes_points(n):
    """Fekete points of [-1, 1]: the end points and the zeros of P'_{n-1}."""
    c = np.zeros(n)
    c[-1] = 1.0
    inner = legendre.legroots(legendre.legder(c))
    return np.sort(np.concatenate([[-1.0, 1.0], inner]))


def delta_of(x):
    n = len(x)
    d = np.abs(np.subtract.outer(x, x))[np.triu_indices(n, 1)]
    return math.exp(2 * np.sum(np.log(d)) / (n * (n - 1)))


def test_segment_rungs_are_the_stieltjes_points():
    rep = eq.transfinite_diameter(eq.CompactSet.segment(2.0), n_max=64)
    assert rep.n_values == [4, 6, 8, 12, 16, 24, 32, 48, 64]
    for n, dn in zip(rep.n_values, rep.delta_n):
        exact = stieltjes_points(n)
        assert abs(dn / delta_of(exact) - 1) < 1e-12, n
        assert np.max(np.abs(np.sort(rep.points[n].real) - exact)) < 1e-8, n
    assert all(k < 100 for k in rep.newton_iterations)


@pytest.mark.parametrize("pole", [None, 0j])
def test_circle_rungs_are_regular_polygons(pole):
    rep = eq.transfinite_diameter(eq.CompactSet.circle(1.0), pole=pole, n_max=64)
    for n, dn in zip(rep.n_values, rep.delta_n):
        assert abs(dn / n ** (1 / (n - 1)) - 1) < 1e-12, n


@pytest.mark.slow
def test_rungs_at_n128():
    _, dn = eq.fekete_points(eq.CompactSet.segment(2.0), 128)
    assert abs(dn / delta_of(stieltjes_points(128)) - 1) < 1e-12
    for pole in (None, 0j):
        _, dn = eq.fekete_points(eq.CompactSet.circle(1.0), 128, pole)
        assert abs(dn / 128 ** (1 / 127) - 1) < 1e-12


def rectangle_arclength(z, w, h):
    """Arclength position of a boundary point, counterclockwise from 0."""
    if z.imag == 0.0:
        return z.real
    if z.real == w:
        return w + z.imag
    if z.imag == h:
        return w + h + (w - z.real)
    return 2 * w + h + (h - z.imag)


def rectangle_point(s, w, h):
    s %= 2 * (w + h)
    if s <= w:
        return complex(s, 0.0)
    if s <= w + h:
        return complex(w, s - w)
    if s <= 2 * w + h:
        return complex(w - (s - w - h), h)
    return complex(0.0, h - (s - 2 * w - h))


@pytest.mark.parametrize("w,h", [(1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_rectangle_fekete_points_are_locally_optimal(w, h, n):
    # nudging any point by +-1e-6 in t along the boundary (round a corner
    # when it sits on one) does not raise the log product
    K = eq.CompactSet.domain_boundary(pg.DomainDescriptor.rectangle(w, h, 64))
    zs, _ = eq.fekete_points(K, n)

    def logprod(z):
        return np.sum(np.log(np.abs(np.subtract.outer(z, z))[np.triu_indices(n, 1)]))

    base, ds = logprod(zs), 1e-6 * 2 * (w + h)
    for i, z in enumerate(zs):
        s = rectangle_arclength(z, w, h)
        for sign in (1, -1):
            moved = zs.copy()
            moved[i] = rectangle_point(s + sign * ds, w, h)
            assert logprod(moved) <= base + 1e-13 * abs(base), (i, sign)


def test_fekete_points_stay_on_carrier():
    K = eq.CompactSet.circle(1.5)
    pts, _ = eq.fekete_points(K, 12)
    assert np.max(np.abs(np.abs(pts) - 1.5)) < 1e-12


def test_fekete_pole_on_carrier_rejected():
    rect = eq.CompactSet.domain_boundary(pg.DomainDescriptor.rectangle(1, 1, 64))
    for K, pole in ((eq.CompactSet.circle(1.0), 1.0 + 0j), (rect, 0.5 + 0j)):
        with pytest.raises(ParameterError):
            eq.fekete_points(K, 8, pole=pole)


def test_ladder_monotone_and_capacity_circle():
    rep = eq.transfinite_diameter(eq.CompactSet.circle(1.0), n_max=64)
    logs = np.log(rep.delta_n)
    assert np.all(np.diff(logs) < 1e-6)
    assert abs(rep.delta - 1.0) < 5e-3
    assert abs(rep.logcap - math.exp(-rep.gamma)) < 1e-12
    assert abs(rep.logcap - rep.delta) < 1e-12
    assert abs(rep.logcap - math.exp(-4 * math.pi * rep.energy)) < 1e-2


def test_capacity_segment():
    rep = eq.transfinite_diameter(eq.CompactSet.segment(2.0), n_max=64)
    assert abs(rep.delta - 0.5) < 1e-2
    assert abs(rep.logcap - math.exp(-4 * math.pi * rep.energy)) < 1e-2


def test_capacity_monotone_under_inclusion():
    d1 = eq.transfinite_diameter(eq.CompactSet.circle(1.0), n_max=32).delta
    d15 = eq.transfinite_diameter(eq.CompactSet.circle(1.5), n_max=32).delta
    assert d15 - d1 > 0.4


def test_finite_pole_unit_disk_complement():
    # K = complement of the unit disk seen from a = 0: delta(K, 0) = exp(-h0(0)) = 1
    rep = eq.transfinite_diameter(eq.CompactSet.circle(1.0), pole=0j, n_max=64)
    assert abs(rep.delta - 1.0) < 5e-3


def test_equilibrium_measure_circle_uniform():
    mu, gamma = eq.equilibrium_measure(eq.CompactSet.circle(1.0), 256)
    assert np.max(np.abs(mu.weights - 1 / 256)) < 1e-12
    assert abs(gamma) < 1e-12
    E = eq.equilibrium_energy(mu, eq.CompactSet.circle(1.0))
    assert abs(E - gamma / (4 * math.pi)) < 1e-8


def test_equilibrium_measure_radius_two():
    _, gamma = eq.equilibrium_measure(eq.CompactSet.circle(2.0), 256)
    assert abs(gamma + math.log(2)) < 1e-10


def test_equilibrium_potential_dominated_by_level():
    K = eq.CompactSet.circle(1.0)
    mu, gamma = eq.equilibrium_measure(K, 128)
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(abs(z) - 1) < 0.05:
            continue
        assert mu.potential(z) <= gamma / (2 * math.pi) + 1e-10


def test_equilibrium_requires_enough_nodes():
    with pytest.raises(ParameterError):
        eq.equilibrium_measure(eq.CompactSet.circle(1.0), 8)


def test_harmonic_measure_disk_uniform_at_center():
    D = pg.DomainDescriptor.disk(1.0)
    eta = eq.harmonic_measure(D, 0j, 128)
    assert np.max(np.abs(eta.weights - 1 / 128)) < 1e-14


def test_harmonic_measure_reproduces_harmonics():
    D = pg.DomainDescriptor.disk(1.0)
    eta = eq.harmonic_measure(D, 0.3, 512)
    assert abs(eta.integrate(lambda z: z.real) - 0.3) < 1e-10
    for a in (0.25 + 0.35j, -0.4 + 0.1j, 0.6j, 0.55 - 0.2j, -0.15 - 0.45j):
        eta = eq.harmonic_measure(D, a, 512)
        assert np.all(eta.weights >= 0)
        assert abs(eta.weights.sum() - 1.0) < 1e-12
        for f in (lambda z: 1.0, lambda z: z.real, lambda z: z.imag,
                  lambda z: (z * z).real, lambda z: (z ** 3).imag):
            assert abs(eta.integrate(f) - f(a)) < 1e-8


def test_equilibrium_near_coincident_nodes_rejected():
    from potflow.errors import ConditioningError
    with pytest.raises(ConditioningError):
        eq.equilibrium_measure(eq.CompactSet.circle(1e-15), 64)


def test_harmonic_measure_balayage():
    D = pg.DomainDescriptor.disk(1.0)
    a = 0.3
    eta = eq.harmonic_measure(D, a, 512)
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = (1.5 + 2 * rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        direct = math.log(1 / abs(z - a)) / (2 * math.pi)
        assert abs(eta.potential(z) - direct) < 1e-6


def test_harmonic_measure_rectangle_mass():
    dom = pg.DomainDescriptor.rectangle(1.0, 1.0, 128)
    eta = eq.harmonic_measure(dom, 0.5 + 0.5j, 128)
    assert np.all(eta.weights >= 0)
    assert abs(eta.weights.sum() - 1.0) < 1e-12  # normalized after 1e-4 raw check


def test_condenser_capacity():
    assert abs(eq.condenser_capacity(1.0, math.e, 2) - 2 * math.pi) < 1e-14
    assert abs(eq.condenser_capacity(1.0, 1e9, 3) - 4 * math.pi) < 1e-7
    c1 = eq.condenser_capacity(0.7, 1.9, 2)
    c2 = eq.condenser_capacity(3 * 0.7, 3 * 1.9, 2)
    assert abs(c1 - c2) < 1e-14
    with pytest.raises(ParameterError):
        eq.condenser_capacity(2.0, 1.0, 2)


def test_weighted_measure_validation():
    with pytest.raises(ParameterError):
        eq.WeightedMeasure(np.array([1.0 + 0j]), np.array([0.5]))
    with pytest.raises(ParameterError):
        eq.WeightedMeasure(np.array([1.0 + 0j, 2.0 + 0j]), np.array([1.5, -0.5]))
