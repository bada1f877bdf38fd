import cmath
import json
import math
from pathlib import Path

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


def test_carrier_sizes_outside_the_range_rejected():
    # fekete at n = 64 runs warning-free from about 1e-150 to 1e153; the
    # accepted range [1e-100, 1e100] keeps a factor 1e50 to spare
    lo, hi = pg.SIZE_RANGE
    for size in (lo, 1.0, hi):
        eq.CompactSet.circle(size), eq.CompactSet.segment(size)
        eq.CompactSet.domain_boundary(pg.DomainDescriptor.rectangle(size, 1.0, 8))
    for size in (1e300, 1e154, 1e-300, 5e-324, 1e-101):
        with pytest.raises(ParameterError, match="must lie in"):
            eq.CompactSet.circle(size)
        with pytest.raises(ParameterError, match="must lie in"):
            eq.CompactSet.segment(size)
        with pytest.raises(ParameterError, match="must lie in"):
            pg.DomainDescriptor.disk(size)
        with pytest.raises(ParameterError, match="must lie in"):
            pg.DomainDescriptor.rectangle(1.0, size)


@pytest.mark.parametrize("size", [1e-100, 1e100])
def test_fekete_at_the_ends_of_the_size_range(size):
    # capacity scales with the size: R for a circle, length / 4 for a segment,
    # and the ladder of the unit size scales with it to roundoff
    for K, unit in ((eq.CompactSet.circle, 1.0), (eq.CompactSet.segment, 0.25)):
        rep = eq.transfinite_diameter(K(size), n_max=64)
        ref = eq.transfinite_diameter(K(1.0), n_max=64)
        assert abs(rep.delta / size - unit) < 1e-3 * unit
        assert np.allclose(np.array(rep.delta_n) / size, ref.delta_n, rtol=1e-12, atol=0)


def test_fekete_pole_too_far_rejected():
    with pytest.raises(ParameterError, match="floating-point range"):
        eq.fekete_points(eq.CompactSet.circle(1.0), 8, pole=1e300 + 0j)


def test_fekete_pole_on_carrier_rejected():
    rect = eq.CompactSet.domain_boundary(pg.DomainDescriptor.rectangle(1, 1, 64))
    for K, pole in ((eq.CompactSet.circle(1.0), 1.0 + 0j), (rect, 0.5 + 0j)):
        with pytest.raises(ParameterError):
            eq.fekete_points(K, 8, pole=pole)


_RECTANGLE = eq.CompactSet.domain_boundary(pg.DomainDescriptor.rectangle(2.0, 1.0))


@pytest.mark.parametrize("K, pole", [
    (eq.CompactSet.circle(1.0), None), (eq.CompactSet.circle(1.0), 2.5 + 0.5j),
    (eq.CompactSet.segment(2.0), None), (eq.CompactSet.segment(2.0), 0.3 + 1.2j),
    (_RECTANGLE, None), (_RECTANGLE, 3.0 + 2.0j)])
def test_leja_starts_are_nested(K, pole):
    full = eq._leja_start(K, 64, pole)
    for n in (2, 4, 7, 12, 33, 48, 64):
        assert eq._leja_start(K, n, pole).tobytes() == full[:n].tobytes()


def test_ladder_chooses_its_leja_start_once(monkeypatch):
    calls, leja = [], eq._leja_start

    def counted(K, n, pole):
        calls.append(n)
        return leja(K, n, pole)

    monkeypatch.setattr(eq, "_leja_start", counted)
    eq.transfinite_diameter(eq.CompactSet.circle(1.0), n_max=48)
    assert calls == [48]


def test_ladder_start_is_read_only(monkeypatch):
    starts, refine = [], eq._newton_refine

    def recording(K, ts, pole):
        starts.append(ts)
        return refine(K, ts, pole)

    monkeypatch.setattr(eq, "_newton_refine", recording)
    eq.transfinite_diameter(eq.CompactSet.segment(2.0), n_max=16)
    assert [len(ts) for ts in starts] == [4, 6, 8, 12, 16]
    for ts in starts:
        with pytest.raises(ValueError):
            ts[0] = 0.5


def test_ladder_checks_the_pole_once_before_any_rung(monkeypatch):
    monkeypatch.setattr(eq, "_leja_start", None)     # never reached
    with pytest.raises(ParameterError, match="off the carrier"):
        eq.transfinite_diameter(eq.CompactSet.circle(1.0), pole=1.0 + 0j, n_max=16)


# The ladders of the eigenvalue-floored Newton step that the Cholesky step
# replaced, at n_max = 64 on the six carriers and poles whose CLI outputs
# test_cli pins by sha256.
_FLOORED_LADDERS = json.loads(
    (Path(__file__).parent / "data" / "fekete_floored_step.json").read_text())


@pytest.mark.parametrize("case", _FLOORED_LADDERS,
                         ids=lambda c: f"{c['carrier']['kind']}-{c['pole']}")
def test_ladder_reproduces_the_floored_step_ladder(case):
    pole = None if case["pole"] is None else complex(*case["pole"])
    rep = eq.transfinite_diameter(eq.CompactSet.from_dict(case["carrier"]), pole, 64)
    assert rep.newton_iterations == case["newton_iterations"]
    np.testing.assert_allclose(rep.delta_n, case["delta_n"], rtol=1e-13, atol=0)
    assert rep.delta == pytest.approx(case["delta"], rel=1e-13, abs=0)
    # 1e-12 is the roundoff floor of the gradient sum at n = 64: the circle's
    # n = 64 rung starts at its optimum and reads 9.8e-13 in both solvers
    assert all(new <= old + 1e-12 for new, old in zip(rep.grad_norm, case["grad_norm"]))


def _floored_step(A, g):
    """The Newton step with |eigenvalues| of A floored at 1e-8 of the largest."""
    lam, V = np.linalg.eigh(A)
    lam = np.maximum(np.abs(lam), 1e-8 * np.max(np.abs(lam)))
    return V @ ((V.T @ g) / lam)


def test_cholesky_step_equals_the_floored_step_on_a_random_spd_matrix():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((40, 40))
    A, g = B @ B.T + 0.1 * np.eye(40), rng.standard_normal(40)
    expected = _floored_step(A, g)
    np.testing.assert_allclose(eq._newton_step(A, g), expected, rtol=0,
                               atol=1e-12 * np.max(np.abs(expected)))


def test_cholesky_step_equals_the_floored_step_on_deflated_circle_rungs(monkeypatch):
    systems, step = [], eq._newton_step

    def recording(A, g):
        systems.append((A.copy(), g.copy()))
        return step(A, g)

    monkeypatch.setattr(eq, "_newton_step", recording)
    eq.transfinite_diameter(eq.CompactSet.circle(1.0), n_max=16)
    # the 3 + 3 accepted steps, and one per rung that stops on the decrement
    assert len(systems) == 11
    for A, g in systems:
        ones = np.ones(len(g)) / math.sqrt(len(g))
        # the rotation null mode, ones, is deflated to a positive eigenvalue
        lam = ones @ A @ ones
        assert lam > 0
        np.testing.assert_allclose(A @ ones, lam * ones, rtol=0, atol=1e-12 * lam)
        expected = _floored_step(A, g)
        np.testing.assert_allclose(step(A, g), expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))


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


@pytest.mark.parametrize("K", [eq.CompactSet.segment(2.0),
                               eq.CompactSet.domain_boundary(pg.DomainDescriptor.rectangle(1, 1))])
def test_equilibrium_measure_levels_the_potential(K):
    # the bordered solve: positive unit-mass weights whose discrete
    # potential is gamma / 2 pi at every node
    mu, gamma = eq.equilibrium_measure(K, 128)
    _, Kmat = eq._log_kernel(K, 128)
    assert np.all(mu.weights > 0) and abs(mu.weights.sum() - 1.0) < 1e-12
    assert np.abs(Kmat @ mu.weights - gamma / (2 * math.pi)).max() < 1e-12


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
    assert abs(eta.weights.sum() - 1.0) < 1e-12  # the raw quadrature, not normalized


@pytest.mark.parametrize("w, h, grid, a", [(1.0, 1.0, 128, 0.3 + 0.65j),
                                           (2.0, 1.0, 64, 0.55 + 0.3j),
                                           (1.0, 3.0, 128, 0.7 + 1.1j),
                                           # 0.1 and 0.02 from a side
                                           (1.0, 3.0, 128, 0.1 + 2.4j),
                                           (1.0, 1.0, 128, 0.02 + 0.5j)])
def test_harmonic_measure_rectangle_reproduces_harmonics(w, h, grid, a):
    dom = pg.DomainDescriptor.rectangle(w, h, grid)
    eta = eq.harmonic_measure(dom, a)
    assert np.all(eta.weights > 0) and abs(eta.weights.sum() - 1.0) < 1e-12
    for f in (lambda z: z.real, lambda z: (z * z).real, lambda z: (z ** 3).real,
              lambda z: (z ** 3).imag):
        assert abs(eta.integrate(f) - f(a)) < 1e-10


def test_harmonic_measure_rectangle_refuses_an_unresolved_rule():
    from potflow.errors import ConditioningError
    dom = pg.DomainDescriptor.rectangle(1.0, 1.0)
    with pytest.raises(ConditioningError, match="mass"):
        eq.harmonic_measure(dom, 0.02 + 0.5j, 64)


def test_harmonic_measure_disk_refuses_an_unresolved_rule():
    # 256 nodes do not resolve the Poisson density 0.01 from the circle: its
    # raw mass is 1.165, which was normalized away
    from potflow.errors import ConditioningError
    with pytest.raises(ConditioningError, match="mass"):
        eq.harmonic_measure(pg.DomainDescriptor.disk(1.0), 0.99, 256)


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
