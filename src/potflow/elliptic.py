"""Weierstrass and theta functions for the lattice spanned by 1 and tau.

Evaluation goes through q-series (Fourier expansions in the nome
qh = exp(i*pi*tau)) after folding the argument into the fundamental cell,
so convergence is geometric for Im tau bounded away from zero.  Raw
lattice sums are kept as a slow cross-check oracle for the tests.

Quasi-period convention: zeta(z+1) = zeta(z) + eta1 and
zeta(z+tau) = zeta(z) + eta2, tied together by the Legendre identity
eta1*tau - eta2 = 2*pi*i.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConditioningError, PoleError

__all__ = [
    "TorusLattice",
    "lattice_constants",
    "reduce_to_cell",
    "theta1",
    "theta1_prime",
    "theta1_prime0",
    "log_abs_theta1",
    "wp",
    "wp_prime",
    "zeta_w",
    "sqrt_wp_minus_e2",
    "wp_lattice_sum",
    "zeta_lattice_sum",
]

_MIN_IM_TAU = 0.05
# theta1's fourth term sin(7 pi z0) overflows at Im z0 = Im tau / 2 beyond Im tau 64.5
_MAX_IM_TAU = 60.0
_MAX_TERMS = 4000
_POLE_TOL = 1e-12


@dataclass(frozen=True)
class TorusLattice:
    """Modulus tau and the derived constants used throughout.

    ``q`` is exp(2*pi*i*tau); series evaluation internally uses the
    half nome exp(i*pi*tau).
    """

    tau: complex
    q: complex
    eta1: complex
    eta2: complex
    g2: complex
    g3: complex
    e1: complex  # wp(1/2)
    e2: complex  # wp((1+tau)/2)
    e3: complex  # wp(tau/2)

    @property
    def qh(self) -> complex:
        return cmath.exp(1j * cmath.pi * self.tau)


def _check_tau(tau: complex) -> None:
    if tau.imag < _MIN_IM_TAU:
        raise ConditioningError(
            f"Im tau = {tau.imag:.3g} too small; series convergence not guaranteed")
    if tau.imag > _MAX_IM_TAU:
        raise ConditioningError(
            f"Im tau = {tau.imag:.3g} too large; series terms overflow")


def reduce_to_cell(z: complex, tau: complex) -> tuple[complex, int, int]:
    """Fold z into the centered fundamental cell: z = z0 + m + n*tau."""
    n = round(z.imag / tau.imag)
    w = z - n * tau
    m = round(w.real)
    return w - m, m, n


def _n_terms(tau: complex) -> int:
    # worst-case decay exp(-pi*Im(tau)*n) after argument reduction
    n = int(40 / tau.imag) + 24
    if n > _MAX_TERMS:
        raise ConditioningError("theta/q-series would need too many terms")
    return n


# ---------------------------------------------------------------------------
# theta-1
# ---------------------------------------------------------------------------

def _theta1_reduced(z0: complex, tau: complex) -> complex:
    qh = cmath.exp(1j * cmath.pi * tau)
    total = 0j
    for k in range(_n_terms(tau)):
        term = (-1) ** k * qh ** ((k + 0.5) ** 2) * cmath.sin((2 * k + 1) * cmath.pi * z0)
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-30) and k > 2:
            break
    return 2 * total


def theta1(z: complex, L: TorusLattice) -> complex:
    """Odd quasi-periodic theta-1 with simple zeros exactly on the lattice.

    theta1(z+1) = -theta1(z), theta1(z+tau) = -qh^{-1} e^{-2 pi i z} theta1(z).
    """
    z0, m, n = reduce_to_cell(complex(z), L.tau)
    base = _theta1_reduced(z0, L.tau)
    if m == 0 and n == 0:
        return base
    mult = (-1) ** (m + n) * L.qh ** (-n * n) * cmath.exp(-2j * cmath.pi * n * z0)
    return mult * base


def log_abs_theta1(z: complex, L: TorusLattice) -> float:
    """log|theta1(z)| evaluated overflow-free for any z."""
    z0, m, n = reduce_to_cell(complex(z), L.tau)
    base = _theta1_reduced(z0, L.tau)
    if base == 0:
        raise PoleError(f"theta1 vanishes at lattice point near {z}")
    # |qh^{-n^2}| = exp(pi Im(tau) n^2), |e^{-2 pi i n z0}| = exp(2 pi n Im z0)
    return (math.log(abs(base)) + cmath.pi * L.tau.imag * n * n
            + 2 * cmath.pi * n * z0.imag)


def theta1_prime(z: complex, L: TorusLattice) -> complex:
    """d/dz theta1 at z (direct series on the reduced argument)."""
    z0, m, n = reduce_to_cell(complex(z), L.tau)
    qh = L.qh
    total = 0j
    for k in range(_n_terms(L.tau)):
        term = ((-1) ** k * (2 * k + 1) * qh ** ((k + 0.5) ** 2)
                * cmath.cos((2 * k + 1) * cmath.pi * z0))
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-30) and k > 2:
            break
    dbase = 2 * cmath.pi * total
    if m == 0 and n == 0:
        return dbase
    mult = (-1) ** (m + n) * qh ** (-n * n) * cmath.exp(-2j * cmath.pi * n * z0)
    base = _theta1_reduced(z0, L.tau)
    return mult * (dbase - 2j * cmath.pi * n * base)


def theta1_prime0(L: TorusLattice) -> complex:
    return theta1_prime(0.0, L)


# ---------------------------------------------------------------------------
# Weierstrass functions via trigonometric q-series
# ---------------------------------------------------------------------------

def _require_off_lattice(z0: complex, z: complex) -> None:
    if abs(z0) < _POLE_TOL:
        raise PoleError(f"{z} is within {_POLE_TOL} of a lattice point")


def wp(z: complex, L: TorusLattice) -> complex:
    """Weierstrass wp, doubly periodic, wp(z) = 1/z^2 + O(z^2)."""
    z0, _, _ = reduce_to_cell(complex(z), L.tau)
    _require_off_lattice(z0, z)
    qh2 = L.qh * L.qh
    s = cmath.sin(cmath.pi * z0)
    total = -L.eta1 + cmath.pi ** 2 / (s * s)
    qn = qh2
    for n in range(1, _n_terms(L.tau)):
        term = -8 * cmath.pi ** 2 * n * qn / (1 - qn) * cmath.cos(2 * cmath.pi * n * z0)
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-30):
            break
        qn *= qh2
    return total


def wp_prime(z: complex, L: TorusLattice) -> complex:
    z0, _, _ = reduce_to_cell(complex(z), L.tau)
    _require_off_lattice(z0, z)
    qh2 = L.qh * L.qh
    s = cmath.sin(cmath.pi * z0)
    total = -2 * cmath.pi ** 3 * cmath.cos(cmath.pi * z0) / (s * s * s)
    qn = qh2
    for n in range(1, _n_terms(L.tau)):
        term = 16 * cmath.pi ** 3 * n * n * qn / (1 - qn) * cmath.sin(2 * cmath.pi * n * z0)
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-30):
            break
        qn *= qh2
    return total


def zeta_w(z: complex, L: TorusLattice) -> complex:
    """Weierstrass zeta; quasi-periodic with increments eta1 and eta2."""
    z0, m, n = reduce_to_cell(complex(z), L.tau)
    _require_off_lattice(z0, z)
    qh2 = L.qh * L.qh
    total = L.eta1 * z0 + cmath.pi / cmath.tan(cmath.pi * z0)
    qn = qh2
    for k in range(1, _n_terms(L.tau)):
        term = 4 * cmath.pi * qn / (1 - qn) * cmath.sin(2 * cmath.pi * k * z0)
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-30):
            break
        qn *= qh2
    return total + m * L.eta1 + n * L.eta2


def lattice_constants(tau: complex) -> TorusLattice:
    """Populate all derived constants for the lattice (1, tau).

    eta1 comes from the no-linear-term condition of the zeta series
    (equivalently the Eisenstein series E2); eta2 from the Legendre
    identity eta1*tau - eta2 = 2*pi*i, which is then re-checked.
    """
    tau = complex(tau)
    _check_tau(tau)
    qh2 = cmath.exp(2j * cmath.pi * tau)
    acc = 0j
    qn = qh2
    for n in range(1, _n_terms(tau)):
        term = n * qn / (1 - qn)
        acc += term
        if abs(term) < 1e-19 * (abs(acc) + 1e-30):
            break
        qn *= qh2
    eta1 = cmath.pi ** 2 / 3 - 8 * cmath.pi ** 2 * acc
    eta2 = eta1 * tau - 2j * cmath.pi

    L = TorusLattice(tau=tau, q=qh2, eta1=eta1, eta2=eta2,
                     g2=0j, g3=0j, e1=0j, e2=0j, e3=0j)
    e1 = wp(0.5, L)
    e2 = wp(0.5 * (1 + tau), L)
    e3 = wp(0.5 * tau, L)
    g2 = 2 * (e1 * e1 + e2 * e2 + e3 * e3)
    g3 = 4 * e1 * e2 * e3
    L = TorusLattice(tau=tau, q=qh2, eta1=eta1, eta2=eta2,
                     g2=g2, g3=g3, e1=e1, e2=e2, e3=e3)

    legendre = abs(eta1 * tau - eta2 - 2j * cmath.pi)
    if legendre > 1e-12 or abs(e1 + e2 + e3) > 1e-9:
        raise ConditioningError(
            f"lattice constants inconsistent (Legendre residual {legendre:.2e})")
    return L


def sqrt_wp_minus_e2(w: complex, L: TorusLattice) -> complex:
    """Single-valued odd branch of sqrt(wp(w) - e2), ~ 1/w near 0.

    wp - e2 has double zeros at the half period (1+tau)/2, so the root is
    meromorphic on the torus; in sigma-quotient form it collapses (using
    the Legendre identity) to

        exp(i*pi*w) * theta1'(0) * theta1(w + w2) / (theta1(w) * theta1(w2))

    with w2 = (1+tau)/2.
    """
    w = complex(w)
    w2 = 0.5 * (1 + L.tau)
    num = theta1(w + w2, L)
    den = theta1(w, L)
    if abs(den) < 1e-290:
        raise PoleError(f"sqrt(wp - e2) has a pole at lattice point near {w}")
    return cmath.exp(1j * cmath.pi * w) * theta1_prime0(L) * num / (den * theta1(w2, L))


# ---------------------------------------------------------------------------
# raw lattice sums (slow cross-check oracles)
# ---------------------------------------------------------------------------

def wp_lattice_sum(z: complex, tau: complex, extent: int = 120) -> complex:
    """Symmetric truncated lattice sum for wp (test oracle, O(1/extent^2))."""
    z = complex(z)
    total = 1.0 / (z * z)
    for m in range(-extent, extent + 1):
        for n in range(-extent, extent + 1):
            if m == 0 and n == 0:
                continue
            om = m + n * tau
            total += 1.0 / ((z - om) ** 2) - 1.0 / (om * om)
    return total


def zeta_lattice_sum(z: complex, tau: complex, extent: int = 120) -> complex:
    """Symmetric truncated lattice sum for zeta (test oracle)."""
    z = complex(z)
    total = 1.0 / z
    for m in range(-extent, extent + 1):
        for n in range(-extent, extent + 1):
            if m == 0 and n == 0:
                continue
            om = m + n * tau
            total += 1.0 / (z - om) + 1.0 / om + z / (om * om)
    return total
