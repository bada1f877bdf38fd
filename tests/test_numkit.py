import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potflow import numkit, planar_green, surface
from potflow.errors import (
    CollisionError,
    EvaluationError,
    ParameterError,
)


def test_contour_residue_theorem():
    val = numkit.contour_integral(lambda z: 1 / z, numkit.circle(), n=64)
    assert abs(val - 2j * math.pi) < 1e-12


def test_contour_analytic_integrand_vanishes():
    val = numkit.contour_integral(lambda z: z, numkit.circle(), n=64)
    assert abs(val) < 1e-13


def test_contour_green_derivative_squared_matches_h1():
    # oint (dG/dz)^2 dz = h1/(4 pi i) with h1 = -2/3 at a = 0.5
    disk = planar_green.DomainDescriptor.disk(1.0)
    val = numkit.contour_integral(
        lambda z: planar_green.green_z_derivative(disk, z, 0.5) ** 2,
        numkit.circle(), n=256)
    expected = (-2.0 / 3.0) / (4j * math.pi)
    assert abs(val - expected) < 1e-12


def test_contour_requires_min_nodes():
    with pytest.raises(ParameterError):
        numkit.contour_integral(lambda z: z, numkit.circle(), n=8)


def test_contour_nonfinite_sample_names_node():
    node = np.exp(2j * np.pi * 0.25)  # hit exactly by the n = 64 grid

    def bad(z):
        return float("nan") if abs(z - node) < 1e-12 else 1.0

    with pytest.raises(EvaluationError) as err:
        numkit.contour_integral(bad, numkit.circle(), n=64)
    assert err.value.node is not None


def test_exact_differential_integrates_to_zero():
    # df for f = exp(z): integrand f'(gamma) gamma'
    val = numkit.contour_integral(lambda z: np.exp(z), numkit.circle(), n=64)
    assert abs(val) < 1e-10


def test_doubling_n_reduces_error_quadratically():
    # smooth but non-analytic integrand (C^2 kinks off the sample grid,
    # parity broken by the factor z); doubling n must reduce the error 4x
    f = lambda z: z * abs((z * np.exp(-0.37j)).imag) ** 3
    exact = numkit.contour_integral(f, numkit.circle(), n=8192)
    errs = [abs(numkit.contour_integral(f, numkit.circle(), n=n) - exact)
            for n in (16, 32, 64)]
    assert errs[1] < errs[0] / 4
    assert errs[2] < errs[1] / 4


def test_spectral_convergence_for_analytic():
    f = lambda z: 1 / (z - 1.5)
    exact = 0.0
    e1 = abs(numkit.contour_integral(f, numkit.circle(), n=32) - exact)
    e2 = abs(numkit.contour_integral(f, numkit.circle(), n=64) - exact)
    assert e2 < max(e1 / 100, 1e-15)


def test_gauss_legendre_rule_exact_to_degree_31_per_panel():
    edges = [-1.0, -0.3, 0.2, 1.5]
    x, w = numkit.gauss_legendre_rule(edges, 16)
    x, w = x.reshape(3, 16), w.reshape(3, 16)
    for (a, b), xp, wp in zip(zip(edges[:-1], edges[1:]), x, w):
        assert np.all((a < xp) & (xp < b))
        for k in range(32):
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert abs(wp @ xp ** k - exact) < 1e-13 * max(1.0, abs(a), abs(b)) ** (k + 1)


def test_trapezoid_rule_exact_for_low_fourier_modes():
    n = 16
    t, w = numkit.trapezoid_rule(n)
    for k in range(-n + 1, n):
        assert abs(w @ np.exp(2j * np.pi * k * t) - (1.0 if k == 0 else 0.0)) < 1e-14
    theta, wt = numkit.trapezoid_rule(n, 2 * np.pi)
    assert abs(wt @ np.cos(theta) ** 2 - np.pi) < 1e-14


def test_midpoint_and_product_rules_exact_on_a_rectangle():
    # midpoint is exact for degree 1, Gauss-Legendre (16 nodes) to degree 31
    w_, h_, origin = 1.5, 0.75, 0.25 - 0.5j
    f = lambda z: 2.0 + 3.0 * (z - origin).real * (z - origin).imag
    exact = 2.0 * w_ * h_ + 3.0 * (w_ ** 2 / 2) * (h_ ** 2 / 2)
    nodes, weights = numkit.product_rule(numkit.midpoint_rule(7), numkit.midpoint_rule(5),
                                         origin, w_, 1j * h_)
    assert abs(numkit.integrate(f, nodes, weights) - exact) < 1e-14
    nodes, weights = numkit.product_rule(numkit.gauss_legendre_rule([0.0, w_]),
                                         numkit.gauss_legendre_rule([0.0, h_]))
    val = numkit.integrate(lambda z: z.real ** 3 * z.imag ** 5, nodes, weights)
    assert abs(val - (w_ ** 4 / 4) * (h_ ** 6 / 6)) < 1e-15
    # a parallelogram cell along 1 and tau has area Im tau
    tau = 0.3 + 1.7j
    _, weights = numkit.product_rule(numkit.midpoint_rule(4), numkit.midpoint_rule(4),
                                     0j, 1.0, tau)
    assert abs(weights.sum() - tau.imag) < 1e-15


@pytest.mark.parametrize("band", [0.0, 0.5, 2.0])
def test_polar_rule_disk_area(band):
    R = 2.0
    angular = numkit.midpoint_rule(32, 2 * np.pi)
    nodes, weights = numkit.polar_rule(0.3 + 0.1j, angular, R, 24, band=band)
    assert np.all(np.abs(nodes - (0.3 + 0.1j)) < R)
    assert abs(weights.sum() - np.pi * R ** 2) < 1e-12
    val = numkit.integrate(lambda z: abs(z - (0.3 + 0.1j)) ** 2, nodes, weights)
    assert abs(val - np.pi * R ** 4 / 2) < 1e-12


def test_polar_rule_annulus_by_excision():
    angular = numkit.trapezoid_rule(16, 2 * np.pi)
    nodes, weights = numkit.polar_rule(0j, angular, 1.0, 48, inner=0.1)
    assert np.all(np.abs(nodes) > 0.1)
    assert abs(weights.sum() - np.pi * (1.0 - 0.01)) < 1e-12


@pytest.mark.parametrize("cluster, r_inner", [(0.0, 0.0), (0.2, 0.0), (0.0, 0.05)])
def test_polar_rule_centred_rectangle_area(cluster, r_inner):
    hw, hh = 0.5, 0.8
    val = surface._centered_rect_polar(lambda w: 1.0, hw, hh, 48, 32, r_inner, cluster)
    assert abs(val - (4 * hw * hh - np.pi * r_inner ** 2)) < 1e-12


def test_integrate_nonfinite_value_names_node():
    nodes, weights = numkit.trapezoid_rule(16)
    bad = nodes[5]
    with pytest.raises(EvaluationError) as err:
        numkit.integrate(lambda t: float("nan") if t == bad else t, nodes, weights)
    assert err.value.node == bad


def test_integrate_vector_valued_integrand():
    nodes, weights = numkit.gauss_legendre_rule([0.0, 0.5, 1.0], 8)
    val = numkit.integrate(lambda t: (t ** 3, t ** 15 - t), nodes, weights)
    assert val.shape == (2,)
    assert abs(val[0] - 0.25) < 1e-15 and abs(val[1] - (1 / 16 - 0.5)) < 1e-15
    # NaNs in the second component at node 5 and the first at node 9: the
    # error names node 5, not the node of a flattened (node, component) index
    with pytest.raises(EvaluationError) as err:
        numkit.integrate(lambda t: (math.nan if t == nodes[9] else t,
                                    math.nan if t == nodes[5] else t), nodes, weights)
    assert err.value.node == nodes[5]
    # past the first block of INTEGRATE_BLOCK nodes the error still names its
    # node (block offset included), and a rule of several blocks sums whole
    nodes, weights = numkit.trapezoid_rule(3 * numkit.INTEGRATE_BLOCK + 5)
    bad = numkit.INTEGRATE_BLOCK + 17
    with pytest.raises(EvaluationError) as err:
        numkit.integrate(lambda t: (t, math.nan if t == nodes[bad] else 1.0),
                         nodes, weights)
    assert err.value.node == nodes[bad]
    val = numkit.integrate(lambda t: (t, math.cos(2 * math.pi * t)), nodes, weights)
    assert val[0] == weights @ nodes and abs(val[1]) < 1e-15


def test_wirtinger_conjugate():
    val = numkit.wirtinger_derivative(lambda z: z.conjugate(), 0.3 + 0.7j, "dzbar")
    assert abs(val - 1.0) < 1e-9


def test_wirtinger_modulus_squared_mixed():
    val = numkit.wirtinger_derivative(lambda z: abs(z) ** 2, 0.2 - 0.4j, "dzdzbar")
    assert abs(val - 1.0) < 1e-7


def test_wirtinger_two_point_mixed_on_disk_regular_part():
    # d^2 H /dz dabar at z = a = 0 equals -(pi/2) K(0,0) = -1/2
    def H(z, a):
        return math.log(abs(1 - z * a.conjugate())) \
            if (z or a) else 0.0

    val = numkit.mixed_second_derivative(H, 0j, 0j, 1e-4)
    assert abs(val - (-0.5)) < 1e-7


@settings(max_examples=25, deadline=None)
@given(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_wirtinger_holomorphic_dzbar_vanishes(z0):
    val = numkit.wirtinger_derivative(lambda z: z ** 3 + 2 * z, z0, "dzbar", 1e-4)
    assert abs(val) <= 1e-6


def test_wirtinger_step_validation():
    with pytest.raises(ParameterError):
        numkit.wirtinger_derivative(lambda z: z, 0j, "dz", 1.0)


def test_fd_laplacian_modulus_squared():
    f = lambda z: abs(z) ** 2
    z0, h = 0.4 + 0.2j, 1e-4
    samples = [f(z0), f(z0 + h), f(z0 - h), f(z0 + 1j * h), f(z0 - 1j * h)]
    assert abs(numkit.fd_laplacian(samples, h) - 4.0) < 1e-7


def test_fd_laplacian_harmonic():
    f = lambda z: math.log(abs(z))
    z0, h = 1.3 + 0.4j, 1e-4
    samples = [f(z0), f(z0 + h), f(z0 - h), f(z0 + 1j * h), f(z0 - 1j * h)]
    assert abs(numkit.fd_laplacian(samples, h)) < 1e-6


def test_fd_laplacian_disk_robin():
    disk = planar_green.DomainDescriptor.disk(1.0)
    lap = numkit.laplacian_at(
        lambda w: planar_green.robin_data(disk, w).h0, 0.5, 1e-4)
    assert abs(lap - (-4 / 0.75 ** 2)) < 1e-5
    assert abs(lap + 4 * math.pi * planar_green.bergman_disk(0.5, 0.5).real) < 1e-5


def test_area_quadrature_disk():
    disk = planar_green.DomainDescriptor.disk(1.0)
    assert abs(numkit.area_quadrature(lambda z: 1.0, disk, 48) - math.pi) < 1e-12
    val = numkit.area_quadrature(lambda z: abs(z) ** 2, disk, 48)
    assert abs(val - math.pi / 2) < 1e-12


def test_area_quadrature_reproducing_constant():
    disk = planar_green.DomainDescriptor.disk(1.0)
    val = numkit.area_quadrature(
        lambda z: planar_green.bergman_disk(z, 0j).conjugate(), disk, 48)
    assert abs(val - 1.0) < 1e-10


def test_area_quadrature_declared_singularity():
    # int_{|z|<1} log|z - a| dx dy = pi (|a|^2 - 1)/2 for |a| < 1
    disk = planar_green.DomainDescriptor.disk(1.0)
    a = 0.3
    val = numkit.area_quadrature(lambda z: math.log(abs(z - a)), disk, 96,
                                 singularities=[a])
    assert abs(val - math.pi * (a * a - 1) / 2) < 2e-4


def test_area_quadrature_error_estimate():
    disk = planar_green.DomainDescriptor.disk(1.0)
    val, err = numkit.area_quadrature(lambda z: abs(z) ** 4, disk, 48,
                                      with_error=True)
    assert abs(val - math.pi / 3) < 1e-12
    assert err >= 0


def test_area_quadrature_undeclared_nan_raises():
    disk = planar_green.DomainDescriptor.disk(1.0)
    with pytest.raises(EvaluationError):
        numkit.area_quadrature(lambda z: float("nan"), disk, 32)


def test_rk_circular_orbit():
    tol = 1e-10
    traj = numkit.rk_integrate(lambda y: 1j * y, [1.0 + 0j], 2 * math.pi, tol)
    assert abs(traj.final_state[0] - 1.0) < 10 * tol


def test_rk_linear_field_matches_exponential():
    tol = 1e-9
    traj = numkit.rk_integrate(lambda y: -0.7 * y, [2.0 + 1j], 3.0, tol)
    assert abs(traj.final_state[0] - (2.0 + 1j) * math.exp(-2.1)) < 10 * tol


def test_rk_step_and_field_counts():
    calls = []

    def field(y):
        # y = (x, t): x' is a narrow pulse at t = 1.5 that the step size,
        # grown on the flat part, first steps over and has to reject
        calls.append(1)
        return np.array([30 * np.exp(-400 * (y[1].real - 1.5) ** 2), 1.0])

    traj = numkit.rk_integrate(field, [0j, 0j], 3.0, 1e-10)
    accepted = len(traj.times) - 1
    assert traj.steps_rejected > 0
    assert traj.field_evals == len(calls) == 1 + 7 * (accepted + traj.steps_rejected)


def test_rk_nonfinite_field_raises_within_one_step():
    # y' = 1, so y tracks t; the field turns NaN once t passes 0.5
    nan_calls = []

    def field(y):
        if y[0].real > 0.5:
            nan_calls.append(y[0].real)
            return np.array([complex("nan")])
        return np.array([1.0 + 0j])

    t0 = time.perf_counter()
    with pytest.raises(EvaluationError, match="non-finite field value at node t=0"):
        numkit.rk_integrate(field, [0j], 2.0, 1e-8)
    assert time.perf_counter() - t0 < 0.5
    assert 0 < len(nan_calls) <= 6    # only the stages of the step that met it


def test_rk_tolerance_validation():
    with pytest.raises(ParameterError):
        numkit.rk_integrate(lambda y: y, [1.0 + 0j], 1.0, 1.0)


def test_rk_collision_guard_timestamps():
    # approach speed diverges like 1/separation, so the adaptive steps
    # shrink near contact and the endpoint guard fires
    def field(y):
        sep = abs(y[0] - y[1]) + 1e-30
        return np.array([1.0 / sep + 0j, -1.0 / sep + 0j])

    def separation(y):
        return abs(y[0] - y[1])

    with pytest.raises(CollisionError) as err:
        numkit.rk_integrate(field, [-1.0 + 0j, 1.0 + 0j], 5.0, 1e-8,
                            separation=separation, collision_threshold=1e-3)
    assert 0 < err.value.time < 5.0


def test_trajectory_monitor_recording():
    traj = numkit.rk_integrate(lambda y: 1j * y, [1.0 + 0j], 1.0, 1e-8,
                               monitors={"radius": lambda y: abs(y[0])})
    assert len(traj.monitors["radius"]) == len(traj.times)
    assert np.max(np.abs(traj.monitors["radius"] - 1.0)) < 1e-7


def test_trajectory_times_strictly_increasing():
    with pytest.raises(ParameterError):
        numkit.Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1), dtype=complex))
