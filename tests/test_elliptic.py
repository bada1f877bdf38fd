import cmath
import collections
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potflow import elliptic, surface
from potflow.errors import ConditioningError, PoleError

TAUS = (1.5j, 2j, 3j, 0.3 + 2j)


@pytest.fixture(scope="module")
def L2i():
    return elliptic.lattice_constants(2j)


@pytest.mark.parametrize("tau", TAUS)
def test_legendre_identity(tau):
    L = elliptic.lattice_constants(tau)
    assert abs(L.eta1 * tau - L.eta2 - 2j * math.pi) < 1e-12


def test_roots_sum_to_zero():
    for tau in (2j, 0.3 + 1.5j):
        L = elliptic.lattice_constants(tau)
        assert abs(L.e1 + L.e2 + L.e3) < 1e-12


def test_square_lattice_e2_vanishes():
    # wp((1+i)/2) = 0 by the fourfold symmetry of the square lattice
    L = elliptic.lattice_constants(1j)
    assert abs(L.e2) < 1e-12


def test_wp_ode_residual(L2i):
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = complex(rng.uniform(0.15, 0.85), rng.uniform(0.15, 1.85))
        lhs = elliptic.wp_prime(t, L2i) ** 2
        rhs = 4 * ((elliptic.wp(t, L2i) - L2i.e1)
                   * (elliptic.wp(t, L2i) - L2i.e2)
                   * (elliptic.wp(t, L2i) - L2i.e3))
        assert abs(lhs - rhs) < 1e-9


def test_wp_ode_at_spec_point(L2i):
    t = 0.17 + 0.23j
    lhs = elliptic.wp_prime(t, L2i) ** 2
    rhs = 4 * ((elliptic.wp(t, L2i) - elliptic.wp(0.5, L2i))
               * (elliptic.wp(t, L2i) - elliptic.wp(0.5 * (1 + 2j), L2i))
               * (elliptic.wp(t, L2i) - elliptic.wp(1j, L2i)))
    assert abs(lhs - rhs) < 1e-9


def test_double_periodicity_grid(L2i):
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 1.9))
        assert abs(elliptic.wp(z + 1, L2i) - elliptic.wp(z, L2i)) < 1e-10
        assert abs(elliptic.wp(z + 2j, L2i) - elliptic.wp(z, L2i)) < 1e-10


def test_parity(L2i):
    z = 0.3 + 0.4j
    assert abs(elliptic.wp(-z, L2i) - elliptic.wp(z, L2i)) < 1e-10
    assert abs(elliptic.wp_prime(-z, L2i) + elliptic.wp_prime(z, L2i)) < 1e-10
    assert abs(elliptic.zeta_w(-z, L2i) + elliptic.zeta_w(z, L2i)) < 1e-10
    assert abs(elliptic.theta1(-z, L2i) + elliptic.theta1(z, L2i)) < 1e-10


def test_zeta_quasi_periods(L2i):
    z = 0.2 + 0.3j
    assert abs(elliptic.zeta_w(z + 1, L2i) - elliptic.zeta_w(z, L2i)
               - L2i.eta1) < 1e-12
    assert abs(elliptic.zeta_w(z + 2j, L2i) - elliptic.zeta_w(z, L2i)
               - L2i.eta2) < 1e-12


def test_wp_laurent_head(L2i):
    for k in range(10):
        r = 10 ** (-1 - 0.2 * k)
        z = r * cmath.exp(0.7j)
        assert abs(z * z * elliptic.wp(z, L2i) - 1) < max(1e-6, 3 * r * r)


def test_theta1_odd_and_zero(L2i):
    assert elliptic.theta1(0.0, L2i) == 0
    z = 0.1 + 0.2j
    assert abs(elliptic.theta1(-z, L2i) + elliptic.theta1(z, L2i)) < 1e-12


def test_theta1_quasi_periodicity(L2i):
    z = 0.1 + 0.2j
    assert abs(elliptic.theta1(z + 1, L2i) + elliptic.theta1(z, L2i)) < 1e-12
    # theta1(z + tau) = -qh^{-1} exp(-2 pi i z) theta1(z), qh = exp(i pi tau)
    mult = -cmath.exp(2 * math.pi) * cmath.exp(-2j * math.pi * z)
    assert abs(elliptic.theta1(z + 2j, L2i) - mult * elliptic.theta1(z, L2i)) \
        < 1e-10 * abs(mult)


def test_theta1_zeros_only_on_lattice(L2i):
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 1.95))
        assert abs(elliptic.theta1(z, L2i)) > 1e-6


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 1.95))
def test_theta1_odd_property(x, y):
    L = elliptic.lattice_constants(2j)
    z = complex(x, y)
    assert abs(elliptic.theta1(-z, L) + elliptic.theta1(z, L)) < 1e-10


def test_pole_errors(L2i):
    with pytest.raises(PoleError):
        elliptic.wp(1 + 2j, L2i)
    with pytest.raises(PoleError):
        elliptic.zeta_w(0.0, L2i)


def test_small_im_tau_rejected():
    with pytest.raises(ConditioningError):
        elliptic.lattice_constants(0.01j)


def test_nonfinite_tau_rejected():
    for tau in (complex(0, math.nan), complex(math.nan, 2), complex(math.inf, 2)):
        with pytest.raises(ConditioningError):
            elliptic.lattice_constants(tau)


def test_large_im_tau_rejected():
    # at the bound the series stay finite up to the edge of the cell
    L = elliptic.lattice_constants(60j)
    assert abs(L.eta1 * L.tau - L.eta2 - 2j * math.pi) < 1e-12
    assert math.isfinite(elliptic.log_abs_theta1(0.25 + 30j, L))
    for im_tau in (60.5, 100.0, 500.0):   # 100 overflowed theta1, 500 already wp
        with pytest.raises(ConditioningError):
            elliptic.lattice_constants(complex(0, im_tau))


def test_sqrt_wp_minus_e2_branch(L2i):
    w = 0.21 + 0.13j
    s = elliptic.sqrt_wp_minus_e2(w, L2i)
    assert abs(s * s - (elliptic.wp(w, L2i) - L2i.e2)) < 1e-10
    assert abs(elliptic.sqrt_wp_minus_e2(-w, L2i) + s) < 1e-12
    assert abs(1e-4 * elliptic.sqrt_wp_minus_e2(1e-4, L2i) - 1) < 1e-6


def _lattice_sums(z: complex, tau: complex, extent: int) -> tuple:
    """Symmetric truncated lattice sums for (wp, zeta), O(1/extent^2)."""
    wp, zeta = 1.0 / (z * z), 1.0 / z
    for m in range(-extent, extent + 1):
        for n in range(-extent, extent + 1):
            if m == 0 and n == 0:
                continue
            om = m + n * tau
            wp += 1.0 / ((z - om) ** 2) - 1.0 / (om * om)
            zeta += 1.0 / (z - om) + 1.0 / om + z / (om * om)
    return wp, zeta


@pytest.mark.slow
@pytest.mark.parametrize("tau", (2j, 0.3 + 1.5j))
def test_lattice_sum_oracle(tau):
    # raw symmetric lattice sums converge O(1/extent^2): coarse cross-check
    L = elliptic.lattice_constants(tau)
    z = 0.22 + 0.31j
    wp, zeta = _lattice_sums(z, tau, 80)
    assert abs(elliptic.wp(z, L) - wp) < 1e-4
    assert abs(elliptic.zeta_w(z, L) - zeta) < 1e-3


def _jtheta_reference(z: complex, tau: complex) -> tuple:
    """(theta1, theta1', wp, zeta, eta1) at z from mpmath's jtheta alone.

    theta1(z) = jtheta(1, pi z, exp(i pi tau)).  With th^(k) its k-th
    z-derivative: eta1 = -th'''(0) / (3 th'(0)), zeta = eta1 z + th'/th
    and wp = -eta1 - (th'' th - th'^2) / th^2.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z, q = mpmath.mpc(z), mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        th = [mpmath.pi ** k * mpmath.jtheta(1, mpmath.pi * z, q, k) for k in range(3)]
        eta1 = -mpmath.pi ** 2 * mpmath.jtheta(1, 0, q, 3) / (3 * mpmath.jtheta(1, 0, q, 1))
        wp = -eta1 - (th[2] * th[0] - th[1] ** 2) / th[0] ** 2
        zeta = eta1 * z + th[1] / th[0]
        return tuple(complex(v) for v in (th[0], th[1], wp, zeta, eta1))


def _oracle_points(tau: complex) -> tuple:
    """Three points in or near the centred cell and one shifted by 1 + tau."""
    return 0.23 + 0.17j, -0.31 + 0.4 * tau, 0.41 - 0.2 * tau, 1.3 + 0.2j + tau


@pytest.mark.parametrize("tau", (2j, 0.3 + 1.1j, 0.5j))
def test_theta_and_weierstrass_match_mpmath_jtheta(tau):
    L = elliptic.lattice_constants(tau)
    for z in _oracle_points(tau):
        ref = _jtheta_reference(z, tau)
        got = (elliptic.theta1(z, L), elliptic.theta1_prime(z, L),
               elliptic.wp(z, L), elliptic.zeta_w(z, L), L.eta1)
        for name, g, r in zip(("theta1", "theta1'", "wp", "zeta", "eta1"), got, ref):
            assert abs(g - r) <= 1e-13 * abs(r), (name, z)


@pytest.mark.parametrize("tau", (2j, 0.3 + 1.1j, 0.5j))
def test_array_evaluation_matches_mpmath_jtheta(tau):
    L = elliptic.lattice_constants(tau)
    z = np.array(_oracle_points(tau)).reshape(2, 2)
    ref = np.array([_jtheta_reference(p, tau)[:4] for p in z.ravel()]).T.reshape(4, 2, 2)
    for name, fn, r in zip(("theta1", "theta1'", "wp", "zeta"),
                           (elliptic.theta1, elliptic.theta1_prime, elliptic.wp,
                            elliptic.zeta_w), ref):
        got = fn(z, L)
        assert got.shape == (2, 2)
        assert np.all(np.abs(got - r) <= 1e-13 * np.abs(r)), name


_PUBLIC = (elliptic.wp, elliptic.wp_prime, elliptic.zeta_w, elliptic.theta1,
           elliptic.theta1_prime, elliptic.log_abs_theta1, elliptic.sqrt_wp_minus_e2)


@pytest.mark.parametrize("tau", (2j, 1.5j, 0.3 + 2j, 0.5j, 0.1j))
def test_array_evaluation_broadcasts_like_the_scalar_functions(tau):
    L = elliptic.lattice_constants(tau)
    rng = np.random.default_rng(8)
    # a (3, 5) grid over several cells, kept off the lattice
    z = rng.uniform(-1.5, 1.5, (3, 5)) + 1j * rng.uniform(-1.5, 1.5, (3, 5)) * tau.imag
    z = np.where(np.abs(elliptic.reduce_to_cell(z, tau)[0]) < 0.05, z + 0.3, z)
    for fn in _PUBLIC:
        got = fn(z, L)
        assert got.shape == z.shape, fn.__name__
        ref = np.array([fn(complex(p), L) for p in z.ravel()]).reshape(z.shape)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), fn.__name__
    z0, m, n = elliptic.reduce_to_cell(z, tau)
    for idx in np.ndindex(z.shape):
        assert (z0[idx], m[idx], n[idx]) == elliptic.reduce_to_cell(z[idx], tau)
    # a 0-d array is a scalar: Python complex out (float for log_abs_theta1)
    for fn in _PUBLIC:
        out = fn(np.array(0.23 + 0.17j), L)
        assert type(out) is (float if fn is elliptic.log_abs_theta1 else complex)
        assert out == fn(0.23 + 0.17j, L)


def test_array_pole_errors_name_the_first_point(L2i):
    z = np.array([0.3 + 0.2j, 1 + 2j, 2.0, 0.1j])
    with pytest.raises(PoleError, match=r"\(1\+2j\)"):
        elliptic.wp(z, L2i)
    with pytest.raises(PoleError, match=r"\(1\+2j\)"):
        elliptic.zeta_w(z, L2i)
    with pytest.raises(PoleError, match=r"\(1\+2j\)"):
        elliptic.log_abs_theta1(z, L2i)
    assert np.isfinite(elliptic.wp(z[[0, 3]], L2i)).all()


@pytest.mark.parametrize("tau", [0.3j, 1j, 2j, 0.3 + 1.1j, 17j])
def test_theta1_pair_equals_the_three_functions_bit_for_bit(tau):
    # _theta_jet's pieces, asked for together, are theta1, theta1_prime,
    # log_abs_theta1 and reduce_to_cell's (z0, n) to the bit, and its
    # log="z0" piece is log_abs_theta1(z0)
    L = elliptic.lattice_constants(tau)
    rng = np.random.default_rng(11)
    # a few cells out in both directions, so m and n are both nonzero (the
    # shift factor qh^{-n^2} overflows further out at Im tau = 17)
    z = rng.uniform(-5, 5, 300) + 1j * tau.imag * rng.uniform(-2.5, 2.5, 300)
    for zz in [*z.tolist(), 0.3, -0.7, 2.25, z]:
        z0, _, n = elliptic.reduce_to_cell(zz, tau)
        got = elliptic._theta_jet(zz, L, value=True, prime=True, log="z")
        want = (z0, n, elliptic.theta1(zz, L), elliptic.theta1_prime(zz, L),
                elliptic.log_abs_theta1(zz, L))
        assert [type(g) for g in got] == [type(w) for w in want]
        assert all(_bits(g) == _bits(w) for g, w in zip(got, want)), zz
        lg0 = elliptic._theta_jet(zz, L, log="z0")[4]
        assert _bits(lg0) == _bits(elliptic.log_abs_theta1(z0, L)), zz


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


JET_GOLDEN = json.loads((Path(__file__).parent / "data" / "theta_jet_scalar.json").read_text())
JET_TAUS = {"0.3i": 0.3j, "0.3+1.1i": 0.3 + 1.1j, "1.7i": 1.7j}


@pytest.mark.parametrize("key", sorted(JET_GOLDEN))
def test_scalar_theta_jet_equals_the_recorded_values_bit_for_bit(key):
    # recorded from the scalar jet before its straight-line branch, on two
    # rectangular lattices and one oblique one: points in the cell,
    # points with m and n both nonzero, and points within 4 ulp of a
    # half-period row Im z = (k + 1/2) Im tau, where rounding can leave
    # |Im z0| above Im tau / 2 and the torus Green function reduces z0 again
    # (each such point comes with a neighbour 3 ulp away that does not).
    # "far" rows are 50-290 cells out, where only the logs stay finite.
    L = elliptic.lattice_constants(JET_TAUS[key])
    for zr, zi, th_r, th_i, dth_r, dth_i, lg, ar, ai, g0, g1 in JET_GOLDEN[key]["jet"]:
        z, a = complex(zr, zi), complex(ar, ai)
        got = (elliptic.theta1(z, L), elliptic.theta1_prime(z, L),
               elliptic.log_abs_theta1(z, L), surface.torus_monopole_green(z, 0j, L),
               surface.torus_monopole_green(z + a, a, L))
        assert [type(v) for v in got] == [complex, complex, float, np.float64, np.float64]
        assert [_bits(v) for v in got] == [_bits(v) for v in (
            complex(th_r, th_i), complex(dth_r, dth_i), lg, g0, g1)], z
    for zr, zi, lg, ar, ai, g0, g1 in JET_GOLDEN[key]["far"]:
        z, a = complex(zr, zi), complex(ar, ai)
        got = (elliptic.log_abs_theta1(z, L), surface.torus_monopole_green(z, 0j, L),
               surface.torus_monopole_green(z + a, a, L))
        assert [_bits(v) for v in got] == [_bits(v) for v in (lg, g0, g1)], z


ARRAY_JET_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "theta_jet_array.json").read_text())


@pytest.mark.parametrize("key", sorted(JET_GOLDEN))
def test_array_theta_jet_equals_the_recorded_values_bit_for_bit(key):
    # one array call per function on the scalar golden's points, recorded
    # from the array jet before it shared the scalar jet's code; numpy's
    # complex products round apart from Python's, so these bits differ
    # from the scalar file's (theta1 at every tau, all of them at 0.3+1.1i)
    L = elliptic.lattice_constants(JET_TAUS[key])
    jet, far = np.array(JET_GOLDEN[key]["jet"]), np.array(JET_GOLDEN[key]["far"])
    want_jet = np.array(ARRAY_JET_GOLDEN[key]["jet"])
    want_far = np.array(ARRAY_JET_GOLDEN[key]["far"])
    z, a = jet[:, 0] + 1j * jet[:, 1], jet[:, 7] + 1j * jet[:, 8]
    th, dth = elliptic.theta1(z, L), elliptic.theta1_prime(z, L)
    got = (th.real, th.imag, dth.real, dth.imag, elliptic.log_abs_theta1(z, L),
           surface.torus_monopole_green(z, 0j, L), surface.torus_monopole_green(z + a, a, L))
    for col, g in enumerate(got):
        assert _bits(g) == _bits(want_jet[:, col]), col
    z, a = far[:, 0] + 1j * far[:, 1], far[:, 3] + 1j * far[:, 4]
    got = (elliptic.log_abs_theta1(z, L), surface.torus_monopole_green(z, 0j, L),
           surface.torus_monopole_green(z + a, a, L))
    for col, g in enumerate(got):
        assert _bits(g) == _bits(want_far[:, col]), col


def test_log_abs_theta1_far_out_is_the_cell_log_plus_the_shift_modulus():
    # 40-50 cells out at Im tau = 17, |qh^{-n^2}| = exp(17 pi n^2) overflows,
    # so the log must be that of theta1(z0) plus the factor's log modulus
    tau = 17j
    L, T = elliptic.lattice_constants(tau), tau.imag
    rng = np.random.default_rng(5)
    cells = rng.integers(40, 51, 60) * rng.choice([-1, 1], 60)
    z = rng.uniform(-50, 50, 60) + 1j * T * (cells + rng.uniform(-0.45, 0.45, 60))
    want = []
    for zz in z.tolist():
        z0, _, n = elliptic.reduce_to_cell(zz, tau)
        assert 40 <= abs(n) <= 50
        want.append(math.log(abs(elliptic.theta1(z0, L)))
                    + math.pi * T * n * n + 2 * math.pi * n * z0.imag)
        assert _bits(elliptic.log_abs_theta1(zz, L)) == _bits(want[-1]), zz
    assert _bits(elliptic.log_abs_theta1(z, L)) == _bits(np.array(want))


_ZS = np.array([0.3 + 0.2j, 2.3 - 4.2j, -1.6 + 6.2j])


@pytest.mark.parametrize("fn, z, want", [
    ("theta1", 0.3 + 0.2j, {"theta": 1}),
    ("theta1", 2.3 - 4.2j, {"theta": 1}),
    ("theta1", _ZS, {"theta": 1}),
    ("log_abs_theta1", 0.3 + 0.2j, {"theta": 1}),
    ("log_abs_theta1", -1.6 + 40.2j, {"theta": 1}),
    ("log_abs_theta1", _ZS, {"theta": 1}),
    ("theta1_prime", 0.3 + 0.2j, {"theta_prime": 1}),
    ("theta1_prime", 2.3 - 4.2j, {"theta": 1, "theta_prime": 1}),
    # an array always takes the shift factor
    ("theta1_prime", _ZS, {"theta": 1, "theta_prime": 1}),
    ("torus_monopole_green", 0.3 + 0.2j, {"theta": 1}),
    ("torus_monopole_green", _ZS, {"theta": 1}),
], ids=lambda v: "array" if isinstance(v, np.ndarray) else None)
def test_theta_functions_sum_each_series_once(monkeypatch, fn, z, want):
    spec = elliptic.lattice_constants(2j)
    if fn == "torus_monopole_green":
        call = lambda: surface.torus_monopole_green(z, 0.1 - 0.05j, spec)
    else:
        call = lambda: getattr(elliptic, fn)(z, spec)
    call()   # the spec's constants, summed once, are not counted
    counts = collections.Counter()
    summed = elliptic._sum

    def counting_sum(name, *args):
        counts[name] += 1
        return summed(name, *args)

    monkeypatch.setattr(elliptic, "_sum", counting_sum)
    call()
    assert counts == want


def test_only_elliptic_sums_the_q_series():
    # an inlined copy of a theta or wp series elsewhere would drift from
    # elliptic's own, which fixes the operation order of every sum
    src = Path(elliptic.__file__).parent
    pattern = re.compile(r"elliptic\._(sum|series)\b|import[^\n]*\b_(sum|series)\b")
    assert [p.name for p in sorted(src.glob("*.py"))
            if p.name != "elliptic.py" and pattern.search(p.read_text())] == []


def test_only_the_torus_and_strip_evaluators_call_the_theta_jet():
    # the torus Green function (surface) and the strip's Robin data
    # (schottky) each read one jet; a second caller would be a second copy
    # of one of them
    src = Path(elliptic.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py"))
            if "_theta_jet" in p.read_text()] == ["elliptic.py", "schottky.py", "surface.py"]
