import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potflow import elliptic, numkit, planar_green, surface
from rk_oracles import thirteen_call_dop853
from potflow.errors import (
    CollisionError,
    EvaluationError,
    ParameterError,
)


def test_contour_residue_theorem():
    val = numkit.contour_integral(lambda z: 1 / z, *numkit.circle_rule(0j, 1.0, 64))
    assert abs(val - 2j * math.pi) < 1e-12


def test_contour_analytic_integrand_vanishes():
    val = numkit.contour_integral(lambda z: z, *numkit.circle_rule(0j, 1.0, 64))
    assert abs(val) < 1e-13


def test_contour_green_derivative_squared_matches_h1():
    # oint (dG/dz)^2 dz = h1/(4 pi i) with h1 = -2/3 at a = 0.5
    disk = planar_green.DomainDescriptor.disk(1.0)
    val = numkit.contour_integral(
        lambda z: planar_green.green_z_derivative(disk, z, 0.5) ** 2,
        *numkit.circle_rule(0j, 1.0, 256))
    expected = (-2.0 / 3.0) / (4j * math.pi)
    assert abs(val - expected) < 1e-12


def test_contour_requires_min_nodes():
    with pytest.raises(ParameterError):
        numkit.contour_integral(lambda z: z, *numkit.circle_rule(0j, 1.0, 8))


def test_contour_nonfinite_sample_names_node():
    node = np.exp(2j * np.pi * 0.25)  # hit exactly by the n = 64 grid

    def bad(z):
        return np.where(abs(z - node) < 1e-12, np.nan, 1.0)

    with pytest.raises(EvaluationError) as err:
        numkit.contour_integral(bad, *numkit.circle_rule(0j, 1.0, 64))
    assert err.value.node is not None


def test_exact_differential_integrates_to_zero():
    # df for f = exp(z): integrand f'(gamma) gamma'
    val = numkit.contour_integral(lambda z: np.exp(z), *numkit.circle_rule(0j, 1.0, 64))
    assert abs(val) < 1e-10


def test_doubling_n_reduces_error_quadratically():
    # smooth but non-analytic integrand (C^2 kinks off the sample grid,
    # parity broken by the factor z); doubling n must reduce the error 4x
    f = lambda z: z * abs((z * np.exp(-0.37j)).imag) ** 3
    exact = numkit.contour_integral(f, *numkit.circle_rule(0j, 1.0, 8192))
    errs = [abs(numkit.contour_integral(f, *numkit.circle_rule(0j, 1.0, n)) - exact)
            for n in (16, 32, 64)]
    assert errs[1] < errs[0] / 4
    assert errs[2] < errs[1] / 4


def test_spectral_convergence_for_analytic():
    f = lambda z: 1 / (z - 1.5)
    exact = 0.0
    e1 = abs(numkit.contour_integral(f, *numkit.circle_rule(0j, 1.0, 32)) - exact)
    e2 = abs(numkit.contour_integral(f, *numkit.circle_rule(0j, 1.0, 64)) - exact)
    assert e2 < max(e1 / 100, 1e-15)


def _same_bits(got, want):
    """Whether two rules' arrays agree in dtype and in every bit."""
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("center, radius", [(0j, 1.0), (0.5j, 2.0), (0.3 - 0.2j, 0.01)])
@pytest.mark.parametrize("n", [16, 64, 512, 100])
def test_circle_rule_is_the_parametrized_circle_bit_for_bit(center, radius, n):
    # the oracle: the curve center + radius e^{w t}, w = 2 pi i, and its
    # derivative, sampled at the trapezoid parameters, dz = w_t z'(t)
    c = 2j * np.pi
    t, w = numkit.trapezoid_rule(n)
    want = (np.asarray(center + radius * np.exp(c * t), dtype=complex),
            w * np.asarray(c * radius * np.exp(c * t), dtype=complex))
    assert _same_bits(numkit.circle_rule(center, radius, n), want)


@pytest.mark.parametrize("z0, z1", [(-1.0, 2.0 + 1j), (-3.0, 3.0), (-40.0, 40.0)])
@pytest.mark.parametrize("n", [16, 64, 256, 8])
def test_segment_rule_is_the_parametrized_segment_bit_for_bit(z0, z1, n):
    t, w = numkit.gauss_legendre_rule(np.linspace(0.0, 1.0, max(4, n // 16) + 1))
    want = (np.asarray(z0 + (z1 - z0) * t, dtype=complex),
            w * np.asarray(z1 - z0, dtype=complex))
    assert _same_bits(numkit.segment_rule(z0, z1, n), want)


@pytest.mark.parametrize("tau", [2j, 0.3 + 2j, 0.2 + 1.5j])
def test_torus_cycles_are_their_parametrized_segments_bit_for_bit(tau):
    lattice = elliptic.lattice_constants(tau)
    t, w = numkit.trapezoid_rule(128)
    alpha = (np.asarray(t, dtype=complex), w * np.asarray(1.0 + 0j, dtype=complex))
    beta = (np.asarray(t * lattice.tau, dtype=complex),
            w * np.asarray(lattice.tau, dtype=complex))
    assert _same_bits(surface.alpha_cycle(lattice), alpha)
    assert _same_bits(surface.beta_cycle(lattice), beta)


def test_gauss_legendre_rule_exact_to_degree_31_per_panel():
    edges = [-1.0, -0.3, 0.2, 1.5]
    x, w = numkit.gauss_legendre_rule(edges, 16)
    x, w = x.reshape(3, 16), w.reshape(3, 16)
    for (a, b), xp, wp in zip(zip(edges[:-1], edges[1:]), x, w):
        assert np.all((a < xp) & (xp < b))
        for k in range(32):
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert abs(wp @ xp ** k - exact) < 1e-13 * max(1.0, abs(a), abs(b)) ** (k + 1)


@pytest.mark.parametrize("dist", [1e-1, 1e-2, 1e-3])
def test_sinh_rule_resolves_a_near_pole_pair(dist):
    # int dist / ((t - c)^2 + dist^2) dt = atan((t - c) / dist); the plain
    # rule with the same 96 nodes is off by more than 1 at dist = 1e-3
    lo, hi, c = -0.3, 1.0, 0.2
    t, w = numkit.sinh_rule(lo, hi, c, dist, 96)
    assert np.all((lo < t) & (t < hi)) and np.all(w > 0)
    f = lambda t: dist / ((t - c) ** 2 + dist ** 2)
    exact = math.atan((hi - c) / dist) - math.atan((lo - c) / dist)
    assert abs(w @ f(t) - exact) < 1e-13
    assert abs(w.sum() - (hi - lo)) < 1e-13
    if dist == 1e-3:
        t, w = numkit.gauss_legendre_rule([lo, hi], 96)
        assert abs(w @ f(t) - exact) > 1.0


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
    nodes, weights = numkit.product_rule(numkit.midpoint_rule(7, w_),
                                         numkit.midpoint_rule(5, h_), origin)
    assert abs(numkit.integrate(f, nodes, weights) - exact) < 1e-14
    nodes, weights = numkit.product_rule(numkit.gauss_legendre_rule([0.0, w_]),
                                         numkit.gauss_legendre_rule([0.0, h_]))
    val = numkit.integrate(lambda z: z.real ** 3 * z.imag ** 5, nodes, weights)
    assert abs(val - (w_ ** 4 / 4) * (h_ ** 6 / 6)) < 1e-15
    # a parallelogram cell along 1 and tau has area Im tau
    tau = 0.3 + 1.7j
    _, weights = numkit.product_rule(numkit.midpoint_rule(4), numkit.midpoint_rule(4),
                                     0j, tau)
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
    # the pole-split outer rule plus a polar rule on the pole disk (rays
    # clustered on [0, cluster], or the disk r < r_inner excised) tile the cell
    hw, hh = 0.5, 0.8
    rho, outer_nodes, outer = surface._pole_split_rule(hw, hh)
    angular = numkit.trapezoid_rule(32, 2 * np.pi)
    disk_nodes, disk = numkit.polar_rule(0j, angular, rho, 16, band=cluster, inner=r_inner)
    nodes, weights = np.concatenate([outer_nodes, disk_nodes]), np.concatenate([outer, disk])
    assert abs(weights.sum() - (4 * hw * hh - np.pi * r_inner ** 2)) < 1e-12
    moment = 4 * (hw ** 3 * hh + hw * hh ** 3) / 3 - np.pi * r_inner ** 4 / 2
    assert abs(numkit.integrate(lambda w: abs(w) ** 2, nodes, weights) - moment) < 1e-12


@pytest.mark.parametrize("hh", [0.8, 30.0])
def test_pole_split_rules_cover_the_centred_rectangle(hh):
    # the outer rule plus the pole disk (or an annulus) tile the 1 x 2hh cell
    hw = 0.5
    rho, nodes, outer = surface._pole_split_rule(hw, hh)
    assert np.all(np.abs(nodes) > rho)
    assert np.all((np.abs(nodes.real) < hw) & (np.abs(nodes.imag) < hh))
    _, disk = surface._pole_disk_rule(rho)
    assert abs(outer.sum() + disk.sum() - 4 * hw * hh) < 1e-12
    for eps in (1e-2, 2.5e-3):
        _, annulus = surface._pole_disk_rule(rho, eps)
        assert abs(outer.sum() + annulus.sum() - (4 * hw * hh - np.pi * eps ** 2)) < 1e-12


def test_integrate_nonfinite_value_names_node():
    nodes, weights = numkit.trapezoid_rule(16)
    bad = nodes[5]
    with pytest.raises(EvaluationError) as err:
        numkit.integrate(lambda t: np.where(t == bad, np.nan, t), nodes, weights)
    assert err.value.node == bad


def test_integrate_vector_valued_integrand():
    nodes, weights = numkit.gauss_legendre_rule([0.0, 0.5, 1.0], 8)
    val = numkit.integrate(lambda t: (t ** 3, t ** 15 - t), nodes, weights)
    assert val.shape == (2,)
    assert abs(val[0] - 0.25) < 1e-15 and abs(val[1] - (1 / 16 - 0.5)) < 1e-15
    # NaNs in the second component at node 5 and the first at node 9: the
    # error names node 5, not the node of a flattened (component, node) index
    with pytest.raises(EvaluationError) as err:
        numkit.integrate(lambda t: (np.where(t == nodes[9], np.nan, t),
                                    np.where(t == nodes[5], np.nan, t)), nodes, weights)
    assert err.value.node == nodes[5]
    # on a long rule the error still names its node, and the rule sums whole
    nodes, weights = numkit.trapezoid_rule(3 * 1024 + 5)
    bad = 1024 + 17
    with pytest.raises(EvaluationError) as err:
        numkit.integrate(lambda t: (t, np.where(t == nodes[bad], np.nan, 1.0)),
                         nodes, weights)
    assert err.value.node == nodes[bad]
    val = numkit.integrate(lambda t: (t, np.cos(2 * np.pi * t)), nodes, weights)
    assert val[0] == weights @ nodes and abs(val[1]) < 1e-15


def test_integrate_calls_the_integrand_once_on_the_node_array():
    nodes, weights = numkit.gauss_legendre_rule([0.0, 1.0], 16)
    calls = []
    val = numkit.integrate(lambda t: calls.append(t.shape) or t * t, nodes, weights)
    assert calls == [nodes.shape] and abs(val - 1 / 3) < 1e-15
    # a scalar return stands for that value at every node
    for c in (2.0, 1j):
        assert (numkit.integrate(lambda t: c, nodes, weights)
                == numkit.integrate(lambda t: np.full(t.shape, c), nodes, weights))
    assert abs(numkit.integrate(lambda t: 2.0, nodes, weights) - 2.0) < 1e-15
    with pytest.raises(EvaluationError) as err:
        numkit.integrate(lambda t: math.inf, nodes, weights)
    assert err.value.node == nodes[0]


@pytest.mark.parametrize("bad", [0, 3, 15])
def test_integrate_names_the_first_bad_node(bad):
    # first, inner and last position; a bad node after it is not the one named
    nodes, weights = numkit.trapezoid_rule(16)
    mask = np.zeros(16, dtype=bool)
    mask[[bad, 15]] = True
    with pytest.raises(EvaluationError) as err:
        numkit.integrate(lambda t: np.where(mask, np.inf, 1.0), nodes, weights)
    assert err.value.node == nodes[bad]


def test_pointwise_adapter_feeds_python_numbers():
    nodes, weights = numkit.gauss_legendre_rule([0.0, 1.0], 16)
    seen = []
    f = numkit.pointwise(lambda t: seen.append(type(t)) or (math.sin(t), 1.0))
    val = numkit.integrate(f, nodes, weights)
    assert set(seen) == {float} and len(seen) == 16
    assert abs(val[0] - (1 - math.cos(1.0))) < 1e-15 and abs(val[1] - 1.0) < 1e-15
    with pytest.raises(EvaluationError) as err:
        numkit.integrate(numkit.pointwise(lambda t: math.nan if t > 0.5 else t),
                         nodes, weights)
    assert err.value.node == nodes[nodes > 0.5][0]


def test_wirtinger_conjugate():
    val = numkit.wirtinger_derivative(lambda z: z.conjugate(), 0.3 + 0.7j, "dzbar", 1e-5)
    assert abs(val - 1.0) < 1e-9


def test_wirtinger_modulus_squared_mixed():
    val = numkit.wirtinger_derivative(lambda z: abs(z) ** 2, 0.2 - 0.4j, "dzdzbar", 1e-4)
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


def _pulse_field(y):
    # y = (x, t): x' is a narrow pulse at t = 1.5 that the step size, grown
    # on the flat part, first steps over and has to reject
    return np.array([30 * np.exp(-400 * (y[1].real - 1.5) ** 2), 1.0])


def _nonlinear_field(y):
    return 1j * y * (1 + 0.1 * y * y.conjugate())


def _recorded(field):
    points = []

    def wrapped(y):
        points.append(np.array(y).tobytes())
        return field(y)
    return wrapped, points


def test_rk_step_and_field_counts():
    field, calls = _recorded(_pulse_field)
    traj = numkit.rk_integrate(field, [0j, 0j], 3.0, 1e-10)
    accepted = len(traj.times) - 1
    assert traj.steps_rejected > 0
    assert traj.field_evals == len(calls) == 1 + 12 * (accepted + traj.steps_rejected)


def test_rk_states_are_bit_identical_to_the_recorded_ones():
    # a nonlinear field with no vortex code: the sha256 of every state and
    # time, recorded from the DOP853 integrator, pins the rounding of its
    # stage sums, added one stage after the other
    traj = numkit.rk_integrate(_nonlinear_field, [1.0 + 0.5j, -0.3 + 1.2j], 3.0, 1e-10)
    digest = hashlib.sha256(traj.states.tobytes() + traj.times.tobytes()).hexdigest()
    assert (len(traj.times), traj.steps_rejected, traj.field_evals) == (17, 0, 193)
    assert digest == "9b17a4091df0a078823a1053281ff5c861052ab74bb01db2471db1a963b88436"


# Run in a fresh interpreter, since OpenBLAS reads its thread count at import.
_LONG_STATE_RUN = """
import hashlib, numpy as np
from potflow import numkit
rng = np.random.default_rng(700)
y0 = rng.uniform(-1, 1, 700) + 1j * rng.uniform(-1, 1, 700)
w = rng.uniform(0.5, 2.0, 700)
traj = numkit.rk_integrate(lambda y: 1j * w * y * (1 + 0.1 * (y * y.conjugate()).real),
                           y0, 1.0, 1e-8)
print(hashlib.sha256(traj.states.tobytes() + traj.times.tobytes()).hexdigest())
"""


def test_rk_states_do_not_depend_on_the_blas_thread_count():
    # a BLAS product row @ k[:i] over 700 entries splits across threads and
    # rounds by their count; the elementwise stage sums do not
    package_root = Path(numkit.__file__).parent.parent
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(package_root), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _LONG_STATE_RUN], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("field, y0", [
    (_pulse_field, [0j, 0j]),
    (_nonlinear_field, [1.0 + 0.5j, -0.3 + 1.2j]),
], ids=["rejecting-pulse", "nonlinear"])
def test_rk_reuses_the_last_stage_and_matches_the_thirteen_call_loop(field, y0):
    oracle_field, oracle_points = _recorded(field)
    times, states, attempts = thirteen_call_dop853(oracle_field, y0, 3.0, 1e-10)
    fsal_field, points = _recorded(field)
    # a budget of the oracle's attempts ends a diverging run at once
    traj = numkit.rk_integrate(fsal_field, y0, 3.0, 1e-10, max_steps=len(attempts))

    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    accepted = len(traj.times) - 1
    assert (accepted, traj.steps_rejected) == (
        sum(ok for _, ok in attempts), sum(not ok for _, ok in attempts))
    assert traj.field_evals == len(points) == 1 + 12 * len(attempts)
    assert len(oracle_points) == 1 + 13 * len(attempts)
    # the same points, less the first stage of every attempt, in order
    assert points == oracle_points[:1] + [
        p for j in range(len(attempts))
        for p in oracle_points[2 + 13 * j:14 + 13 * j]]
    # after a rejection the next attempt does not evaluate its start again
    for j, (start, ok) in enumerate(attempts[:-1]):
        if not ok:
            assert start.tobytes() not in points[1 + 12 * (j + 1):13 + 12 * (j + 1)]
    if field is _pulse_field:
        assert traj.steps_rejected > 0


def test_rk_tableau_is_dop853():
    dop853 = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert numkit._RK_A.tobytes() == dop853.A[:13, :12].astype(complex).tobytes()
    assert numkit._RK_E5.tobytes() == dop853.E5[:12, None].astype(complex).tobytes()
    assert numkit._RK_E3.tobytes() == dop853.E3[:12, None].astype(complex).tobytes()
    assert not dop853.E5[12] and not dop853.E3[12]     # no weight on the last stage


def test_rk_step_budget_counts_attempted_steps():
    traj = numkit.rk_integrate(_pulse_field, [0j, 0j], 3.0, 1e-10)
    attempts = len(traj.times) - 1 + traj.steps_rejected
    assert traj.steps_rejected > 0
    same = numkit.rk_integrate(_pulse_field, [0j, 0j], 3.0, 1e-10,
                               max_steps=attempts)
    assert same.states.tobytes() == traj.states.tobytes()
    with pytest.raises(ParameterError, match="step budget exhausted"):
        numkit.rk_integrate(_pulse_field, [0j, 0j], 3.0, 1e-10,
                            max_steps=attempts - 1)


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


def test_rk_nonfinite_t_end_rejected():
    # inf ran to the step budget and nan returned the initial state
    for t_end in (math.inf, math.nan, -math.inf, 0.0):
        with pytest.raises(ParameterError, match="t_end"):
            numkit.rk_integrate(lambda y: 1j * y, [1.0 + 0j], t_end, 1e-8)


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


def test_rk_step_is_capped_by_the_separation_over_its_closing_rate():
    # y0 runs at unit speed to within 1e-12 of the still y1 at t = 1; an
    # uncapped step grown on the exact field would pass that point unseen
    with pytest.raises(CollisionError) as err:
        numkit.rk_integrate(lambda y: np.array([1 + 0j, 0j]), [0j, 1 + 1e-12j], 3.0, 1e-10,
                            separation=lambda y: abs(y[0] - y[1]), collision_threshold=1e-10)
    assert abs(err.value.time - 1.0) < 1e-10


def test_trajectory_monitor_recording():
    traj = numkit.rk_integrate(lambda y: 1j * y, [1.0 + 0j], 1.0, 1e-8,
                               monitors={"radius": lambda y: abs(y[0])})
    assert len(traj.monitors["radius"]) == len(traj.times)
    assert np.max(np.abs(traj.monitors["radius"] - 1.0)) < 1e-7


def test_trajectory_times_strictly_increasing():
    with pytest.raises(ParameterError):
        numkit.Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1), dtype=complex))


def test_trajectory_step_size_range():
    traj = numkit.Trajectory(np.array([0.0, 0.25, 0.75, 1.0]), np.zeros((4, 1), dtype=complex))
    assert (traj.h_min, traj.h_max) == (0.25, 0.5)
    lone = numkit.Trajectory(np.array([0.0]), np.zeros((1, 1), dtype=complex))
    assert math.isnan(lone.h_min) and math.isnan(lone.h_max)


@pytest.mark.parametrize("center, radius", [
    (0j, math.nan), (0j, math.inf), (0j, 0.0), (0j, -1.0),
    (complex(math.nan, 0), 1.0), (complex(0, math.inf), 1.0),
])
def test_circle_refuses_non_finite_and_non_positive_input(center, radius):
    with pytest.raises(ParameterError, match="finite center and a positive, finite radius"):
        numkit.circle_rule(center, radius, 16)


@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf, 1.0, 1e-9])
def test_laplacian_refuses_steps_outside_the_range(h):
    with pytest.raises(ParameterError, match=r"step h must lie in \[1e-8, 1e-2\]"):
        numkit.laplacian_at(lambda z: abs(z) ** 2, 0.3 + 0.1j, h)
