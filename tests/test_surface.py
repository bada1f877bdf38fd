import cmath
import math

import numpy as np
import pytest

from potflow import elliptic, numkit, surface as sf
from potflow.errors import PoleError


@pytest.fixture(scope="module")
def spec():
    return elliptic.lattice_constants(2j)


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

def test_sphere_green_symmetry_and_isometry():
    z, a = 0.4 + 0.2j, 1.1 - 0.3j
    assert sf.sphere_green(z, a) == sf.sphere_green(a, z)
    inv = sf.sphere_green(1 / z.conjugate(), 1 / a.conjugate())
    assert abs(inv - sf.sphere_green(z, a)) < 1e-12


def test_sphere_green_zero_mean():
    assert abs(sf.sphere_green_mean(0.5)) < 1e-13
    assert abs(sf.sphere_green_mean(0j)) < 1e-13


# poles off the unit disk, on the seam |a| = 1 and next to it, and near 0
# and infinity
@pytest.mark.parametrize("a", [2 + 1j, -1.5 + 0.7j, 1.2j, 1, 1j, -1, cmath.exp(0.7j),
                               0.999, 1e-8, 1e8j])
def test_sphere_green_mean_resolves_a_complex_pole_outside_the_unit_disk(a):
    assert abs(sf.sphere_green_mean(a)) <= 1e-13


# one pole each side of the unit circle, and (3i, -2+i) both outside it
@pytest.mark.parametrize("a, b", [(2 + 1j, 0.3), (0, 2j), (-1.5 + 0.7j, 0.2j), (3j, -2 + 1j)])
def test_sphere_mutual_energy_with_one_pole_in_each_chart(a, b):
    assert abs(sf.sphere_mutual_energy(a, b) - sf.sphere_green(a, b)) <= 1e-13


def test_sphere_mutual_energy_of_a_close_pair():
    # chordal distance 2|a - b| / ((1 + |a|^2)^(1/2) (1 + |b|^2)^(1/2)) = 9.2e-4
    a, b = 0.3, 0.3 + 5e-4j
    assert abs(sf.sphere_mutual_energy(a, b) - sf.sphere_green(a, b)) <= 1e-12


def test_sphere_area_is_4pi():
    # the antipodal frame of 0, and two-pole frames far apart and close
    for a, b in ((0j, None), (0.3, -0.4 + 0.5j), (3j, -2 + 1j), (0.3, 0.3 + 5e-4j)):
        total = numkit.integrate(sf.sphere_lambda_sq, *sf._sphere_rule(a, b))
        assert abs(total - 4 * math.pi) < 1e-12, (a, b)


def test_sphere_green_mixed_derivative_off_pole():
    # d^2 G/dz dzbar = lambda^2/(4V); at z = 0 this is 1/(4 pi)
    val = numkit.wirtinger_derivative(
        lambda w: sf.sphere_green(w, 1.0), 0j, "dzdzbar", 1e-4)
    assert abs(val - 1 / (4 * math.pi)) < 1e-7


def test_sphere_expansion_values():
    ex0 = sf.sphere_expansion(0)
    assert ex0.h0 == -0.5 and ex0.h1 == 0
    assert ex0.lambda_sq == 4.0 and 8 * ex0.h11 == 4.0
    assert abs(sf.sphere_expansion(1.0).h1 - 0.5) < 1e-15
    a = 0.3 - 0.2j
    ex = sf.sphere_expansion(a)
    assert abs(ex.h2 - a.conjugate() ** 2 / (2 * (1 + abs(a) ** 2) ** 2)) < 1e-15


def test_sphere_expansion_h11_fd_invariant():
    # h11 = d^2 H/dz dzbar at z = a equals pi lambda^2/(2V)
    a = 0.4 + 0.1j
    H = lambda z: 2 * math.pi * sf.sphere_green(z, a) + math.log(abs(z - a))
    mixed = numkit.wirtinger_derivative(H, a + 0.05, "dzdzbar", 1e-4)
    lam2 = sf.sphere_lambda_sq(a + 0.05)
    assert abs(mixed - math.pi * lam2 / (2 * sf.SPHERE_VOLUME)) < 1e-6
    ex = sf.sphere_expansion(a)
    assert abs(ex.h11 - math.pi * ex.lambda_sq / (2 * sf.SPHERE_VOLUME)) < 1e-15


def test_sphere_robin_laplacian_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lap = numkit.laplacian_at(lambda w: sf.sphere_expansion(w).h0, p, 1e-4)
        assert abs(lap - sf.sphere_lambda_sq(p)) < 1e-6


def test_sphere_mutual_energy():
    a, b = 0.3, -0.4 + 0.5j
    assert abs(sf.sphere_mutual_energy(a, b) - sf.sphere_green(a, b)) < 1e-12


def test_sphere_kernels():
    # Bergman kernel vanishes: the regular part H separates into a z-part
    # plus an a-part, so its mixed (z, abar) derivative is identically zero
    z, a = 0.4 + 0.2j, -0.3 + 0.6j
    H = lambda zz, aa: 2 * math.pi * sf.sphere_green(zz, aa) + math.log(abs(zz - aa))
    k_fd = numkit.mixed_second_derivative(H, z, a, 1e-4)
    assert abs(k_fd) < 1e-6
    # Schiffer kernel is the bare double pole: -4 d^2 G/dz da = 1/(pi (z-a)^2);
    # the holomorphic (z, a)-derivative of the non-singular terms vanishes
    # since they depend on (z, zbar) and (a, abar) separately
    da = 1e-4

    def dz_green(zz, aa):
        return ((sf.sphere_green(zz + da, aa) - sf.sphere_green(zz - da, aa))
                - 1j * (sf.sphere_green(zz + 1j * da, aa)
                        - sf.sphere_green(zz - 1j * da, aa))) / (4 * da)

    d2 = ((dz_green(z, a + da) - dz_green(z, a - da))
          - 1j * (dz_green(z, a + 1j * da) - dz_green(z, a - 1j * da))) / (4 * da)
    assert abs(-4 * d2 - 1 / (math.pi * (z - a) ** 2)) < 1e-5


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

def test_torus_kernels(spec):
    K, L = sf.torus_kernels(0.3 + 0.4j, 0.1 + 0.9j, spec)
    assert K == 0.5
    a = 0.3 + 0.5j
    for r in (1e-3, 1e-4):
        _, Ln = sf.torus_kernels(a + r, a, spec)
        assert abs(r * r * Ln - 1 / math.pi) < 5e-3 * r + 1e-8


def test_torus_schiffer_zero_mean(spec):
    assert abs(sf.schiffer_mean_value(spec, -0.12 + 0.4j)) < 1e-6


# 0.3+0.1i, 0.5+0.1i and 0.5+0.05i put image poles of a next to the cell's
# corners
CELL_MODULI = [0.05j, 0.3j, 1j, 2j, 0.3 + 1.2j, 5j, 20j, 60j, 0.3 + 0.1j, 0.5 + 0.1j,
               0.5 + 0.05j]


@pytest.mark.parametrize("tau", CELL_MODULI)
def test_torus_cell_integrals_vanish(tau):
    spec = elliptic.lattice_constants(tau)
    for a in (0.31 + 0.41j * tau.imag, -0.12 + 0.4j):
        assert abs(sf.torus_green_mean(a, spec)) <= 1e-12
        assert abs(sf.schiffer_mean_value(spec, a)) <= 1e-12


@pytest.mark.parametrize("tau", [1.6j, 0.3 + 1.2j, 60j])
def test_torus_cell_integrals_count_the_cell_once(tau, monkeypatch):
    # a constant delta added to G (to L) moves the integral by delta times
    # the cell area Im tau (times dz ^ dzbar = -2i dx dy): the four sides of
    # the boundary rule close the cell
    spec, a, delta = elliptic.lattice_constants(tau), -0.12 + 0.4j, 1e-6
    mean, pv = sf.torus_green_mean(a, spec), sf.schiffer_mean_value(spec, a)
    green, kernels = sf.torus_monopole_green, sf.torus_kernels
    monkeypatch.setattr(sf, "torus_monopole_green",
                        lambda z, a, spec: green(z, a, spec) + delta)
    monkeypatch.setattr(sf, "torus_kernels", lambda z, a, spec: (
        kernels(z, a, spec)[0], kernels(z, a, spec)[1] + delta))
    assert abs(sf.torus_green_mean(a, spec) - mean - delta * tau.imag) <= 1e-12
    assert abs(sf.schiffer_mean_value(spec, a) - pv + 2j * delta * tau.imag) <= 1e-12


def test_torus_kernel_pole(spec):
    with pytest.raises(PoleError):
        sf.torus_kernels(0.3 + 0.5j, 0.3 + 0.5j, spec)


def test_harmonic_basis_periods(spec):
    basis = sf.torus_harmonic_basis(spec)
    al, be = numkit.cycle_rule(0, 1, 128), numkit.cycle_rule(0, spec.tau, 128)
    assert abs(sf.form_period(basis["eta_beta"], al) + 1) < 1e-12
    assert abs(sf.form_period(basis["eta_alpha"], be) - 1) < 1e-12
    assert abs(sf.form_period(basis["eta_alpha"], al)) < 1e-12
    assert abs(sf.form_period(basis["eta_beta"], be)) < 1e-12


def test_period_matrices(spec):
    per = sf.torus_harmonic_basis(spec)["periods"]
    assert per.P[0, 0] == 2.0 and per.Q[0, 0] == 0.5 and per.R[0, 0] == 0.0
    res = per.residuals()
    assert res["PQ_I_R2"] < 1e-10
    assert res["P_posdef"] > 0 and res["Q_posdef"] > 0
    gen = sf.torus_harmonic_basis(elliptic.lattice_constants(0.3 + 2j))["periods"]
    resg = gen.residuals()
    assert resg["PQ_I_R2"] < 1e-12 and resg["RP_sym"] < 1e-12


def test_uqru_relation(spec):
    basis = sf.torus_harmonic_basis(spec)
    per = basis["periods"]
    z0 = 0.2 + 0.3j
    resid = abs((1 / per.Q[0, 0]) * (per.R[0, 0] + 1j) * basis["omega_alpha"].f(z0)
                + basis["omega_beta"].f(z0))
    assert resid < 1e-12


def test_holomorphic_period_table(spec):
    basis = sf.torus_harmonic_basis(spec)
    al, be = numkit.cycle_rule(0, 1, 128), numkit.cycle_rule(0, spec.tau, 128)
    per = basis["periods"]
    assert abs(sf.form_period(basis["omega_alpha"], al) - (-1j * per.Q[0, 0])) < 1e-12
    assert abs(sf.form_period(basis["omega_alpha"], be)
               - (1j * per.R[0, 0] + 1)) < 1e-12
    assert abs(sf.form_period(basis["omega_beta"], be) - (-1j * per.P[0, 0])) < 1e-12


def test_wedge_intersection_number(spec):
    basis = sf.torus_harmonic_basis(spec)
    val = sf.wedge_integral_cell(basis["eta_alpha"], basis["eta_beta"], spec)
    assert abs(val - 1.0) < 1e-12


def test_bergman_expansion(spec):
    assert sf.bergman_expansion_check(spec) < 1e-12
    assert sf.bergman_expansion_check(elliptic.lattice_constants(0.3 + 2j)) < 1e-10


def test_torus_green_properties(spec):
    z, a = 0.31 + 0.77j, -0.12 + 0.4j
    g = sf.torus_monopole_green(z, a, spec)
    assert abs(g - sf.torus_monopole_green(a, z, spec)) < 1e-12
    assert abs(sf.torus_monopole_green(z + 1, a, spec) - g) < 1e-12
    assert abs(sf.torus_monopole_green(z + 2j, a, spec) - g) < 1e-12
    val = numkit.wirtinger_derivative(
        lambda w: sf.torus_monopole_green(w, a, spec), z, "dzdzbar", 1e-4)
    assert abs(val - 1 / (4 * spec.volume)) < 1e-5
    assert abs(sf.torus_green_mean(a, spec)) < 1e-6
    with pytest.raises(PoleError):
        sf.torus_monopole_green(a + 1 + 2j, a, spec)


def test_torus_green_constant_eta_oracle():
    # independent closed form c(tau) = -(1/pi) log(sqrt(2 pi) |eta(tau)|)
    # derived from the exact cell integrals of log|theta1| and Im^2
    for tau in (1.5j, 2j):
        T = tau.imag
        qh = math.exp(-math.pi * T)
        log_eta = math.log(qh) / 12 + sum(
            math.log(1 - qh ** (2 * n)) for n in range(1, 400))
        oracle = -(math.log(math.sqrt(2 * math.pi)) + log_eta) / math.pi
        assert abs(sf.torus_green_constant(tau) - oracle) < 1e-10


@pytest.mark.parametrize("tau", [0.05j, 0.08j, 0.2j, 0.77j, 1j, 2j, 0.3 + 1.2j,
                                 -0.45 + 0.9j, 0.5 + 0.05j, 5j, 20j, 40j, 60j])
def test_torus_green_constant_matches_mpmath_eta(tau):
    # Kronecker's first limit formula, c = -log(2 pi |eta(tau)|^2) / (2 pi),
    # with eta summed by mpmath at 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        eta = mpmath.eta(mpmath.mpc(tau))
        oracle = float(-mpmath.log(2 * mpmath.pi * abs(eta) ** 2) / (2 * mpmath.pi))
    # past the cache, which other tests count the misses of
    c = sf.torus_green_constant.__wrapped__(tau)
    assert type(c) is np.float64
    # at Im tau = 0.05 the theta1'(0) series sets the error
    assert abs(c - oracle) < (1e-14 if tau.imag >= 0.08 else 2e-12)


@pytest.mark.parametrize("tau", [1j, 2j, 0.3 + 1.2j, 5j, 0.4 + 8j])
def test_torus_green_is_modular_invariant(tau):
    # z -> z / tau maps C/(Z + tau Z) onto C/(Z - Z/tau) scaled by 1/|tau|,
    # and tau + 1 spans the same lattice; the zero-mean G is invariant under
    # both, whatever route computes its constant
    spec, inverted, shifted = (elliptic.lattice_constants(t) for t in (tau, -1 / tau, tau + 1))
    rng = np.random.default_rng(41)
    for _ in range(20):
        z, a = (rng.uniform() + rng.uniform() * tau for _ in range(2))
        g = sf.torus_monopole_green(z, a, spec)
        assert abs(sf.torus_monopole_green(z / tau, a / tau, inverted) - g) < 1e-13
        assert abs(sf.torus_monopole_green(z, a, shifted) - g) < 1e-13


def test_torus_bergman_reproducing(spec):
    # (i/2) int dz wedge conj(K dz) = 1 for f(z) dz = dz
    val = sf.wedge_integral_cell(
        sf.OneForm(lambda w: 1.0 + 0j, lambda w: 0j),
        sf.OneForm(lambda w: 0j, lambda w: 1.0 / spec.volume), spec)
    assert abs(0.5j * val - 1.0) < 1e-8


@pytest.mark.parametrize("tau", [2j, 0.3 + 2j])
def test_torus_green_and_kernels_on_arrays_match_scalar_calls(tau):
    spec = elliptic.lattice_constants(tau)
    rng = np.random.default_rng(23)
    a = -0.12 + 0.4j
    z = (rng.uniform(-1, 1, 10) + 1j * rng.uniform(-2, 2, 10)).reshape(2, 5)
    green = sf.torus_monopole_green(z, a, spec)
    K, Lk = sf.torus_kernels(z, a, spec)
    for idx in np.ndindex(z.shape):
        g = sf.torus_monopole_green(complex(z[idx]), a, spec)
        assert abs(green[idx] - g) <= 1e-13 * abs(g)
        k, l = sf.torus_kernels(complex(z[idx]), a, spec)
        assert K[idx] == k and abs(Lk[idx] - l) <= 1e-13 * abs(l)
    assert green.shape == K.shape == Lk.shape == z.shape
    with pytest.raises(PoleError):
        sf.torus_monopole_green(np.array([0.1 + 0j, a + 1 + tau]), a, spec)


def test_form_period_avoids_poles(spec):
    # periods of *dG around the two basic cycles jump by the harmonic parts;
    # here just exercise the quadrature on the alpha cycle
    a = -0.12 + 0.4j
    form = sf.OneForm(
        lambda zs: np.array([-2j * numkit.wirtinger_derivative(
            lambda w: sf.torus_monopole_green(w, a, spec), z, "dz", 1e-5)
            for z in zs.tolist()]),
        lambda z: 0j)
    val = sf.form_period(form, numkit.cycle_rule(0, 1, 128))
    assert np.isfinite(val.real) and np.isfinite(val.imag)
