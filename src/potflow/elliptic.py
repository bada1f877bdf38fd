"""Weierstrass and theta functions for the lattice spanned by 1 and tau.

Evaluation goes through q-series (Fourier expansions in the nome
qh = exp(i*pi*tau), DLMF 20.2 and 23.8) after folding the argument into
the fundamental cell, so convergence is geometric for Im tau bounded away
from zero.  The truncated series of a lattice are tabulated once per tau.
theta1, theta1' and log|theta1| all come from ``_theta_jet``: one reduction
of z, one sum of each theta series, and logs of the unshifted sums, on one
code path for a point and an array.  Every function takes a scalar z,
giving a Python complex (a float for ``log_abs_theta1``), or a numpy array,
giving an array of its shape.

Quasi-period convention: zeta(z+1) = zeta(z) + eta1 and
zeta(z+tau) = zeta(z) + eta2, tied together by the Legendre identity
eta1*tau - eta2 = 2*pi*i.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConditioningError, PoleError
from .numkit import as_points, first_where

__all__ = [
    "TorusLattice",
    "lattice_constants",
    "reduce_to_cell",
    "theta1",
    "theta1_prime",
    "theta1_log_derivative",
    "log_abs_theta1",
    "wp",
    "wp_prime",
    "zeta_w",
    "sqrt_wp_minus_e2",
]

_MIN_IM_TAU = 0.05
# theta1's fourth term sin(7 pi z0) overflows at Im z0 = Im tau / 2 beyond Im tau 64.5
_MAX_IM_TAU = 60.0
_POLE_TOL = 1e-12
# a series term is dropped where its bound, relative to the series' scale,
# is below this
_SERIES_TOL = 1e-18


@dataclass(frozen=True)
class TorusLattice:
    """Modulus tau and every constant derived from it, computed once by
    ``lattice_constants``; the series are summed in the half nome ``qh`` =
    exp(i*pi*tau), from the truncated series table ``series``."""

    tau: complex
    qh: complex
    eta1: complex
    eta2: complex
    e1: complex  # wp(1/2)
    e2: complex  # wp((1+tau)/2)
    e3: complex  # wp(tau/2)
    theta1_prime0: complex  # theta1'(0)
    log_abs_theta1_prime0: float
    green_constant: np.float64  # c(tau) of the torus Green function
    series: dict = field(compare=False, repr=False)

    @property
    def volume(self) -> float:
        """Area Im tau of the flat torus C/(Z + tau Z)."""
        return self.tau.imag


def _check_tau(tau: complex) -> None:
    if not cmath.isfinite(tau):
        raise ConditioningError(f"tau = {tau} is not finite")
    if tau.imag < _MIN_IM_TAU:
        raise ConditioningError(
            f"Im tau = {tau.imag:.3g} too small; series convergence not guaranteed")
    if tau.imag > _MAX_IM_TAU:
        raise ConditioningError(
            f"Im tau = {tau.imag:.3g} too large; series terms overflow")


def _xp(z):
    return np if isinstance(z, np.ndarray) else cmath


def reduce_to_cell(z, tau: complex):
    """Fold z into the centered fundamental cell: z = z0 + m + n*tau
    (m, n ints for a scalar z, float arrays of integers for an array)."""
    z = as_points(z)
    rnd = np.rint if isinstance(z, np.ndarray) else round
    n = rnd(z.imag / tau.imag)
    w = z - n * tau
    m = rnd(w.real)
    return w - m, m, n


# ---------------------------------------------------------------------------
# the per-lattice series table, and theta1 and the Weierstrass functions on it
# ---------------------------------------------------------------------------

def _series(tau: complex) -> dict:
    """eta1 and, per series, (trig, [(f_k, c_k)]) for sum_k c_k trig(f_k z0);
    "theta" sums theta1 / 2 and "theta_prime" theta1' / (2 pi).

    |Im z0| <= Im tau / 2 after reduction, so term n of wp, wp' and zeta
    is at most A n^p e^{-pi n Im tau} / (1 - e^{-2 pi n Im tau}), p = 1, 2,
    0, with A its constant; term k of theta1 is at most (2k+1)
    e^{-pi Im tau k^2} times the first, of theta1' (2k+1)^2 e^{...} times.
    Powers and coefficients are formed in a fixed operation order (powers
    by repeated multiplication), which fixes the last bits of every scalar
    value.
    """
    # enough for Im tau >= 0.05, which needs 337 and 18 terms
    T, n, k = tau.imag, np.arange(1, 1001), np.arange(200)
    decay = np.exp(-np.pi * n * T) / -np.expm1(-2 * np.pi * n * T)
    # the bounds are unimodal and reach the tolerance first, so the terms
    # kept are a prefix
    n_wp, n_wpp, n_zeta, n_theta = (
        int(np.count_nonzero(bound >= _SERIES_TOL))
        for bound in (n * decay, n * n * decay, decay,
                      (2 * k + 1) ** 2 * np.exp(-np.pi * T * k * k)))

    qh, q = cmath.exp(1j * cmath.pi * tau), cmath.exp(2j * cmath.pi * tau)
    wp, wpp, zeta, acc, qn, qe = [], [], [], 0j, qh * qh, q
    for m in range(1, max(n_wp, n_wpp, n_zeta) + 1):
        f = 2 * cmath.pi * m
        wp.append((f, -8 * cmath.pi ** 2 * m * qn / (1 - qn)))
        wpp.append((f, 16 * cmath.pi ** 3 * m * m * qn / (1 - qn)))
        zeta.append((f, 4 * cmath.pi * qn / (1 - qn)))
        acc += m * qe / (1 - qe)   # powers of q, which round unlike qh^2's
        qn, qe = qn * (qh * qh), qe * q
    theta, theta_prime = [], []
    for j in range(n_theta):
        f, c = (2 * j + 1) * cmath.pi, qh ** ((j + 0.5) ** 2)
        theta.append((f, (-1) ** j * c))
        theta_prime.append((f, (-1) ** j * (2 * j + 1) * c))
    # each trig as (cmath's, numpy's): _sum indexes it by the array flag
    cos, sin = (cmath.cos, np.cos), (cmath.sin, np.sin)
    # eta1 from the no-linear-term condition of zeta at 0 (Eisenstein E2)
    return {"eta1": cmath.pi ** 2 / 3 - 8 * cmath.pi ** 2 * acc,
            "wp": (cos, wp[:n_wp]), "wp_prime": (sin, wpp[:n_wpp]),
            "zeta": (sin, zeta[:n_zeta]), "theta": (sin, theta),
            "theta_prime": (cos, theta_prime)}


def _sum(name: str, z0, L: TorusLattice, head=0j):
    """head plus the named series of L at z0.  The terms are added one by
    one, in order, with cmath for a scalar and numpy ufuncs for an array, so
    both round alike: on rectangular lattices (all c_k real) the sums of
    an array equal its elements' scalar sums to the bit.

    Each term takes its own trig call on purpose.  Forming e^{2 pi i k z0}
    by a power recurrence would save the calls but break that parity:
    numpy's complex multiply (fused multiply-adds) disagrees with Python's
    in the last bit for nearly half of all products."""
    trigs, terms = L.series[name]
    trig = trigs[isinstance(z0, np.ndarray)]
    for f, c in terms:
        head = head + c * trig(f * z0)
    return head


def _theta_jet(z, L: TorusLattice, value=False, prime=False, log=None):
    """(z0, n, theta1(z), theta1'(z), lg) from one reduction z = z0 + m + n tau
    and one sum of each theta series; each of the last three is None unless
    asked for.  theta1(z) and theta1'(z) are the sums at z0 times the shift
    factor (-1)^(m+n) qh^{-n^2} e^{-2 pi i n z0}.  log="z" asks for lg =
    log|theta1(z)|: the log of the unshifted sum plus the factor's log
    modulus pi Im(tau) n^2 + 2 pi n Im z0, so a log never forms the factor
    (qh^{-n^2} overflows far out) nor rounds as the log of a shifted value
    would.  log="z0" asks for lg = log|theta1(z0)| as log_abs_theta1(z0)
    gives it: only where rounding left |Im z0| just above Im tau / 2 (far
    from the origin) is z0 reduced again.  Logs are the C library's hypot
    and log, also for an array: numpy's complex abs and log round
    differently in the last bit (for a third and 0.1% of arguments), which
    finite differences of the Green functions magnify a millionfold.  A
    PoleError names the first z at which a log meets a zero of theta1.

    A point (a number or a 0-d array) and an array take one path, with
    reduce_to_cell's arithmetic inline: only the rounding, exp and log
    follow the type, so a point calls no array helper.  A point z = z0 goes
    without the shift factor, which an array always takes.
    """
    tau, T = L.tau, L.tau.imag
    point = not isinstance(z, np.ndarray) or not z.ndim
    z = complex(z) if point else z.astype(complex, copy=False)
    rnd = round if point else np.rint
    n = rnd(z.imag / T)
    z0 = z - n * tau
    m = rnd(z0.real)
    z0 = z0 - m
    lz, ln = z0, (n if log == "z" else None)
    if log == "z0" and (abs(z0.imag / T) > 0.5 if point
                        else (abs(z0.imag / T) > 0.5).any()):
        lz, _, ln = reduce_to_cell(z0, tau)
    th = dth = lg = None
    # the shift of theta1' reads the theta sum; a point z = z0 takes no shift
    if value or prime and (not point or m or n) or log and lz is z0:
        th = base = 2 * _sum("theta", z0, L)
    if prime:
        dth = 2 * cmath.pi * _sum("theta_prime", z0, L)
    if (value or prime) and (not point or m or n):
        exp = cmath.exp if point else np.exp
        shift = (-1) ** (m + n) * L.qh ** (-n * n) * exp(-2j * cmath.pi * n * z0)
        dth = shift * (dth - 2j * cmath.pi * n * base) if prime else None
        th = shift * base if value else None
    if log:
        if lz is not z0:
            base = 2 * _sum("theta", lz, L)
        if base == 0 if point else (base == 0).any():
            raise PoleError(f"theta1 vanishes at lattice point near {first_where(base == 0, z)}")
        lg = (math.log(abs(base)) if point else
              _map(math.log, np.hypot(base.real, base.imag).ravel()).reshape(base.shape))
        if ln is not None:
            lg = lg + cmath.pi * T * ln * ln + 2 * cmath.pi * ln * lz.imag
    return z0, n, th if value else None, dth, lg


def theta1(z, L: TorusLattice):
    """Odd quasi-periodic theta-1 with simple zeros exactly on the lattice.

    theta1(z+1) = -theta1(z), theta1(z+tau) = -qh^{-1} e^{-2 pi i z} theta1(z).
    """
    return _theta_jet(z, L, value=True)[2]


def theta1_prime(z, L: TorusLattice):
    """d/dz theta1 at z (direct series on the reduced argument)."""
    return _theta_jet(z, L, prime=True)[3]


def log_abs_theta1(z, L: TorusLattice):
    """log|theta1(z)| evaluated overflow-free for any z."""
    return _theta_jet(z, L, log="z")[4]


def _map(f, v: np.ndarray) -> np.ndarray:
    """The float function f of ``math`` on each element of the 1-D array v."""
    return np.fromiter(map(f, v.tolist()), float, v.size)


def theta1_log_derivative(z, L: TorusLattice):
    """theta1'/theta1 at z, free of the quasi-periodic factors, which cancel."""
    z0, _, n = _off_lattice(z, L.tau)
    return cmath.pi * _sum("theta_prime", z0, L) / _sum("theta", z0, L) - 2j * cmath.pi * n


def _off_lattice(z, tau: complex):
    """reduce_to_cell(z), after a PoleError at the first z on the lattice."""
    z = as_points(z)
    z0, m, n = reduce_to_cell(z, tau)
    if (p := first_where(abs(z0) < _POLE_TOL, z)) is not None:
        raise PoleError(f"{p} is within {_POLE_TOL} of a lattice point")
    return z0, m, n


def wp(z, L: TorusLattice):
    """Weierstrass wp, doubly periodic, wp(z) = 1/z^2 + O(z^2)."""
    return _wp_reduced(_off_lattice(z, L.tau)[0], L)


def _wp_reduced(z0, L: TorusLattice):
    """wp at a z0 already reduced to the cell and off the lattice, unchecked."""
    s = _xp(z0).sin(cmath.pi * z0)
    return _sum("wp", z0, L, -L.eta1 + cmath.pi ** 2 / (s * s))


def wp_prime(z, L: TorusLattice):
    z0 = _off_lattice(z, L.tau)[0]
    xp = _xp(z0)
    s = xp.sin(cmath.pi * z0)
    head = -2 * cmath.pi ** 3 * xp.cos(cmath.pi * z0) / (s * s * s)
    return _sum("wp_prime", z0, L, head)


def zeta_w(z, L: TorusLattice):
    """Weierstrass zeta; quasi-periodic with increments eta1 and eta2."""
    z0, m, n = _off_lattice(z, L.tau)
    head = L.eta1 * z0 + cmath.pi / _xp(z0).tan(cmath.pi * z0)
    return _sum("zeta", z0, L, head) + m * L.eta1 + n * L.eta2


@functools.lru_cache(maxsize=64)
def lattice_constants(tau: complex) -> TorusLattice:
    """The lattice (1, tau) with all its derived constants, built once per
    tau and shared by every consumer of the modulus.

    eta1 comes with the series table; eta2 from the Legendre identity
    eta1*tau - eta2 = 2*pi*i, which is then re-checked.  theta1'(0), which
    every Green function normalization reads, is summed here once.  The
    torus Green constant c(tau), which gives G zero mean over the cell, is
    Kronecker's first limit formula (Lang, *Elliptic Functions*, ch. 20):
    c = -log(2 pi |eta(tau)|^2) / (2 pi), and with theta1'(0) = 2 pi eta^3
    that is -(log 2pi + 2 log|theta1'(0)|) / (6 pi).  It is an np.float64:
    scalar Green values then stay numpy floats, whose products with complex
    numbers round as the array path's do, so the two agree to the bit.
    """
    tau = complex(tau) + 0.0   # a -0.0 real part to +0.0: the cache equates them
    _check_tau(tau)
    series = _series(tau)
    eta1 = series["eta1"]
    eta2 = eta1 * tau - 2j * cmath.pi
    # e1..e3 and theta1'(0) are summed on the lattice before they are set
    L = TorusLattice(tau, cmath.exp(1j * cmath.pi * tau), eta1, eta2,
                     0j, 0j, 0j, 0j, 0.0, np.float64(0.0), series)
    e1, e2, e3 = (wp(h, L) for h in (0.5, 0.5 * (1 + tau), 0.5 * tau))
    th0 = theta1_prime(0.0, L)
    lg = math.log(abs(th0))
    L = replace(L, e1=e1, e2=e2, e3=e3, theta1_prime0=th0, log_abs_theta1_prime0=lg,
                green_constant=np.float64(-(math.log(2 * math.pi) + 2 * lg) / (6 * math.pi)))

    legendre = abs(eta1 * tau - eta2 - 2j * cmath.pi)
    if legendre > 1e-12 or abs(e1 + e2 + e3) > 1e-9:
        raise ConditioningError(
            f"lattice constants inconsistent (Legendre residual {legendre:.2e})")
    return L


def sqrt_wp_minus_e2(w, L: TorusLattice):
    """Single-valued odd branch of sqrt(wp(w) - e2), ~ 1/w near 0.

    wp - e2 has double zeros at the half period (1+tau)/2, so the root is
    meromorphic on the torus; in sigma-quotient form it collapses (using
    the Legendre identity) to

        exp(i*pi*w) * theta1'(0) * theta1(w + w2) / (theta1(w) * theta1(w2))

    with w2 = (1+tau)/2.
    """
    w = as_points(w)
    w2 = 0.5 * (1 + L.tau)
    num = theta1(w + w2, L)
    den = theta1(w, L)
    if (p := first_where(abs(den) < 1e-290, w)) is not None:
        raise PoleError(f"sqrt(wp - e2) has a pole at lattice point near {p}")
    return _xp(w).exp(1j * cmath.pi * w) * L.theta1_prime0 * num / (den * theta1(w2, L))
