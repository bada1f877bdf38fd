"""Monopole Green functions, kernels, one-forms and period matrices on the
sphere and on flat tori.

The monopole Green function solves -d*dG = delta_a - vol/V with zero mean.
On the torus C/(Z + tau Z) it is realized through theta-1,

    G(z,a) = -(1/2pi) log|theta1(z-a)/theta1'(0)| + Im(z-a)^2/(2 Im tau) + c(tau),

which is doubly periodic and symmetric.  The zero-mean normalization fixes
c(tau) = -log(2 pi |eta(tau)|^2) / (2 pi), Kronecker's first limit formula
(S. Lang, *Elliptic Functions*, 2nd ed., ch. 20), which theta1'(0) =
2 pi eta^3 turns into -(log 2pi + 2 log|theta1'(0)|) / (6 pi).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import elliptic, numkit
from .errors import ParameterError, PoleError

__all__ = [
    "SPHERE_VOLUME",
    "sphere_lambda_sq",
    "sphere_green",
    "sphere_expansion",
    "sphere_green_mean",
    "sphere_mutual_energy",
    "SurfaceExpansion",
    "PeriodMatrices",
    "OneForm",
    "torus_kernels",
    "torus_harmonic_basis",
    "torus_monopole_green",
    "torus_green_constant",
    "form_period",
    "wedge_integral_cell",
    "bergman_expansion_check",
    "schiffer_mean_value",
]


# ---------------------------------------------------------------------------
# sphere (genus zero): round metric via stereographic projection
# ---------------------------------------------------------------------------

SPHERE_VOLUME = 4 * math.pi


def sphere_lambda_sq(z):
    """Metric density lambda^2 = 4 / (1 + |z|^2)^2 of the unit sphere
    (elementwise for an array of z)."""
    return 4.0 / (1.0 + abs(numkit.as_points(z)) ** 2) ** 2


def sphere_green(z, a: complex):
    """Monopole Green function of the round unit sphere (zero mean), for a
    scalar or an array of z."""
    z, a = numkit.as_points(z), complex(a)
    if numkit.first_where(abs(z - a) < 1e-14, z) is not None:
        raise PoleError("sphere Green function pole at z = a")
    r2 = abs(z - a) ** 2 / ((1 + abs(z) ** 2) * (1 + abs(a) ** 2))
    log = np.log if isinstance(z, np.ndarray) else math.log
    return -(log(r2) + 1.0) / (4 * math.pi)


@dataclass(frozen=True)
class SurfaceExpansion:
    """Local data of the regular part H(z,a) at z = a."""

    h0: float
    h1: complex
    h2: complex
    h11: float
    lambda_sq: float


def sphere_expansion(a: complex) -> SurfaceExpansion:
    """Closed-form expansion coefficients on the sphere.

    h0 = log(1+|a|^2) - 1/2, h1 = conj(a)/(1+|a|^2),
    h2 = conj(a)^2/(2(1+|a|^2)^2), lambda^2 = 8 h11.
    """
    a = complex(a)
    s = 1.0 + abs(a) ** 2
    return SurfaceExpansion(
        h0=math.log(s) - 0.5,
        h1=a.conjugate() / s,
        h2=a.conjugate() ** 2 / (2 * s * s),
        h11=1.0 / (2 * s * s),
        lambda_sq=4.0 / (s * s),
    )


def _unit_disk_rule(center: complex) -> tuple[np.ndarray, np.ndarray]:
    """Area rule on {|z| <= 1} in polar coordinates around ``center``.

    The radial extent R(theta) to the unit circle is smooth in theta, so
    the angular trapezoid rule is spectral; an inner sqrt-clustered band
    around the center absorbs an integrable (log-type) singularity there.
    """
    c = complex(center)
    if abs(c) >= 1.0:
        raise ParameterError("polar center must lie in the open disk")
    theta, w = numkit.trapezoid_rule(128, 2 * math.pi)
    proj = (c.conjugate() * np.exp(1j * theta)).real
    R = -proj + np.sqrt(np.maximum(1.0 - abs(c) ** 2 + proj * proj, 0.0))
    return numkit.polar_rule(c, (theta, w), R, 64, band=min(0.1, (1 - abs(c)) / 2))


def sphere_green_mean(a: complex) -> float:
    """Quadrature of int_M G(., a) vol (should vanish by normalization).

    The sphere splits as {|z| <= 1} plus the inverted chart; the patch
    containing the pole is integrated in polar coordinates around it.  The
    polar rules have no node at their centre, so the far pole w = 0 of the
    inverted chart (where the integrand decays like |w|^2 log|w|) is never
    evaluated.
    """
    a = complex(a)

    def f_plane(z: np.ndarray) -> np.ndarray:
        return sphere_green(z, a) * sphere_lambda_sq(z)

    def f_inv(w: np.ndarray) -> np.ndarray:
        zz = 1.0 / w
        return sphere_green(zz, a) * sphere_lambda_sq(zz) / abs(w) ** 4

    ainv = 1.0 / a.conjugate() if a != 0 else None
    center_inv = ainv if (ainv is not None and abs(ainv) < 1) else 0j
    plane = _unit_disk_rule(a if abs(a) < 1 else 0j)
    inverted = _unit_disk_rule(center_inv)
    return float(numkit.integrate(f_plane, *plane) + numkit.integrate(f_inv, *inverted))


def _sphere_green_grad(z: complex, a: complex) -> complex:
    """2 dG/dz as a complex gradient (conformally invariant combination)."""
    # d/dz of -(1/4pi)(log(z-a)+log(conj z - conj a) - log(1+z conj z) ... )
    return -(1.0 / (z - a) - z.conjugate() / (1 + abs(z) ** 2)) / (4 * math.pi) * 2


def sphere_mutual_energy(a: complex, b: complex) -> float:
    """int_M dG(.,a) wedge *dG(.,b), the mutual energy identity oracle.

    In chart coordinates the integrand is grad G_a . grad G_b dx dy with no
    metric factor (conformal invariance); with p = 2 dG/dz this equals
    Re(p_a conj(p_b)).  The 1/r pole singularities are integrable; each
    chart is integrated in polar coordinates around the pole it contains
    (no node at the centre, so none at w = 0 in the inverted chart).
    """
    a, b = complex(a), complex(b)

    def integrand(z: np.ndarray, inverted: bool) -> np.ndarray:
        if inverted:
            zz = 1.0 / z
            ga = _sphere_green_grad(zz, a) * (-1.0 / (z * z))
            gb = _sphere_green_grad(zz, b) * (-1.0 / (z * z))
        else:
            ga = _sphere_green_grad(z, a)
            gb = _sphere_green_grad(z, b)
        return (ga * gb.conjugate()).real

    center_plane = a if abs(a) < 1 else (b if abs(b) < 1 else 0j)
    ainv = 1.0 / a.conjugate() if a != 0 else 0j
    binv = 1.0 / b.conjugate() if b != 0 else 0j
    center_inv = ainv if abs(ainv) < 1 else (binv if abs(binv) < 1 else 0j)
    plane = _unit_disk_rule(center_plane)
    inverted = _unit_disk_rule(center_inv)
    return float(numkit.integrate(lambda z: integrand(z, False), *plane)
                 + numkit.integrate(lambda z: integrand(z, True), *inverted))


# ---------------------------------------------------------------------------
# torus (genus one)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodMatrices:
    """Conjugate-period matrices P, Q, R of the harmonic one-form basis."""

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    @property
    def genus(self) -> int:
        return self.P.shape[0]

    def residuals(self) -> dict[str, float]:
        """Structural identities: PQ = I + R^2, RP and QR symmetric, P,Q spd."""
        P, Q, R = self.P, self.Q, self.R
        eye = np.eye(self.genus)
        out = {
            "PQ_I_R2": float(np.max(np.abs(P @ Q - eye - R @ R))),
            "RP_sym": float(np.max(np.abs(R @ P - (R @ P).T))),
            "QR_sym": float(np.max(np.abs(Q @ R - (Q @ R).T))),
            "P_sym": float(np.max(np.abs(P - P.T))),
            "Q_sym": float(np.max(np.abs(Q - Q.T))),
        }
        out["P_posdef"] = float(np.min(np.linalg.eigvalsh((P + P.T) / 2)))
        out["Q_posdef"] = float(np.min(np.linalg.eigvalsh((Q + Q.T) / 2)))
        return out


@dataclass(frozen=True)
class OneForm:
    """Real or complex one-form f dz + g dzbar with coefficient callables.

    The coefficients receive numpy arrays of points (the quadrature nodes)
    and return arrays of their shape, or a constant.
    """

    f: Callable[[complex], complex]
    g: Callable[[complex], complex]

    def star(self) -> "OneForm":
        # *dz = -i dz, *dzbar = +i dzbar
        return OneForm(lambda z: -1j * self.f(z), lambda z: 1j * self.g(z))


def form_period(form: OneForm, rule: tuple[np.ndarray, np.ndarray]) -> complex:
    """Line integral of the one-form over a cycle, given as its rule
    ``(nodes, dz-weights)``."""
    nodes, dz = rule
    return (numkit.integrate(form.f, nodes, dz)
            + numkit.integrate(form.g, nodes, dz.conjugate()))


def torus_kernels(z, a: complex, lattice: elliptic.TorusLattice):
    """Bergman and Schiffer kernels of the flat torus, for a scalar or an
    array of z.

    K(z,a) = 1/Im tau (constant); L(z,a) = (wp(z-a) + eta1)/pi - 1/Im tau
    with the double pole 1/(pi (z-a)^2) and zero principal-value mean.
    """
    w = numkit.as_points(z) - complex(a)
    Lk = (elliptic.wp(w, lattice) + lattice.eta1) / math.pi - 1.0 / lattice.volume
    return _constant_like(w, 1.0 / lattice.volume + 0j), Lk


def _constant_like(z, value: complex):
    """value, as an array of z's shape when z is an array."""
    return np.full(z.shape, value) if isinstance(z, np.ndarray) else value


def torus_harmonic_basis(lattice: elliptic.TorusLattice):
    """Closed-form harmonic/holomorphic one-form bases and period matrices.

    eta_alpha = dy/Im tau, eta_beta = -dx + (Re tau/Im tau) dy;
    omega_alpha = -i dz/Im tau, omega_beta = -i conj(tau) dz/Im tau;
    P = |tau|^2/Im tau, Q = 1/Im tau, R = -Re tau/Im tau (genus one).
    """
    tau = lattice.tau
    T = tau.imag
    re = tau.real

    def const_form(cx: complex, cy: complex) -> OneForm:
        # a dx + b dy = ((a - i b)/2) dz + ((a + i b)/2) dzbar
        f = (cx - 1j * cy) / 2
        g = (cx + 1j * cy) / 2
        return OneForm(lambda z, f=f: f, lambda z, g=g: g)

    eta_alpha = const_form(0.0, 1.0 / T)
    eta_beta = const_form(-1.0, re / T)
    omega_alpha = OneForm(lambda z: -1j / T, lambda z: 0j)
    omega_beta = OneForm(lambda z: -1j * tau.conjugate() / T, lambda z: 0j)
    periods = PeriodMatrices(P=np.array([[abs(tau) ** 2 / T]]),
                             Q=np.array([[1.0 / T]]),
                             R=np.array([[-re / T]]))
    return {
        "eta_alpha": eta_alpha,
        "eta_beta": eta_beta,
        "star_eta_alpha": eta_alpha.star(),
        "star_eta_beta": eta_beta.star(),
        "omega_alpha": omega_alpha,
        "omega_beta": omega_beta,
        "periods": periods,
    }


def alpha_cycle(lattice: elliptic.TorusLattice) -> tuple[np.ndarray, np.ndarray]:
    """The rule of the segment [0,1] traversed once."""
    return numkit.cycle_rule(0, 1, 128)


def beta_cycle(lattice: elliptic.TorusLattice) -> tuple[np.ndarray, np.ndarray]:
    """The rule of the segment [0,tau] traversed once."""
    return numkit.cycle_rule(0, lattice.tau, 128)


@functools.lru_cache(maxsize=32)
def torus_green_constant(tau: complex) -> np.float64:
    """Additive constant c(tau) that gives G zero mean over the cell, the
    lattice's ``green_constant``."""
    return elliptic.lattice_constants(tau).green_constant


def torus_monopole_green(z, a, lattice: elliptic.TorusLattice):
    """Zero-mean monopole Green function of the flat torus, for scalars or
    arrays of z and a (broadcast together), from one theta jet of z - a
    (formed in the inputs' own precision).  Im(w)^2 is y * y, as numpy
    squares: Python's y ** 2 (the C library's pow) is one ulp off for about
    0.1% of arguments."""
    w = z - a
    try:
        w0, _, _, _, log_th = elliptic._theta_jet(w, lattice, log="z0")
    except PoleError:   # theta1(w0) = 0 where w0 = 0
        w0 = elliptic.reduce_to_cell(w, lattice.tau)[0]
    near = abs(w0) < 1e-13
    if near.any() if isinstance(near, np.ndarray) else near:
        zs = np.broadcast_to(z, near.shape) if isinstance(near, np.ndarray) else z
        raise PoleError(f"torus Green function pole at z = {numkit.first_where(near, zs)}, "
                        "on a or an image of a")
    y = w0.imag
    return (-(log_th - lattice.log_abs_theta1_prime0) / (2 * math.pi)
            + y * y / (2 * lattice.tau.imag) + lattice.green_constant)


def wedge_integral_cell(form1: OneForm, form2: OneForm,
                        lattice: elliptic.TorusLattice) -> complex:
    """int_F omega1 wedge omega2 over the fundamental cell (midpoint rule)."""
    def coefficient(z: complex) -> complex:
        # (f1 dz + g1 dzbar) ^ (f2 dz + g2 dzbar) = (f1 g2 - g1 f2) dz^dzbar
        return form1.f(z) * form2.g(z) - form1.g(z) * form2.f(z)

    cell = numkit.product_rule(numkit.midpoint_rule(48), numkit.midpoint_rule(48),
                               0j, lattice.tau)
    # dz ^ dzbar = -2i dx dy
    return numkit.integrate(coefficient, *cell) * (-2j)


def bergman_expansion_check(lattice: elliptic.TorusLattice) -> float:
    """Residual of K = P^{-1} omega_beta conj(omega_beta) (and the Q variant)."""
    basis = torus_harmonic_basis(lattice)
    per = basis["periods"]
    rng = np.random.default_rng(7)
    resid = 0.0
    for _ in range(5):
        z = complex(rng.uniform(0, 1), rng.uniform(0, lattice.volume))
        a = complex(rng.uniform(0, 1), rng.uniform(0, lattice.volume))
        K, _ = torus_kernels(z, a, lattice)
        wb_z = basis["omega_beta"].f(z)
        wb_a = basis["omega_beta"].f(a)
        wa_z = basis["omega_alpha"].f(z)
        wa_a = basis["omega_alpha"].f(a)
        kp = (1.0 / per.P[0, 0]) * wb_z * wb_a.conjugate()
        kq = (1.0 / per.Q[0, 0]) * wa_z * wa_a.conjugate()
        resid = max(resid, abs(kp - K), abs(kq - K))
    return resid


# nodes per Gauss panel in theta and per ray of the outer cell rule; theta
# nodes and nodes per ray of the pole disk (band-clustered for G) and of the
# annulus eps < |w| < rho (log-radial for L)
_CELL_PANEL, _CELL_RAY = 24, 32
_DISK_ANGLES, _DISK_RAY, _ANNULUS_RAY = 32, 64, 16


def _pole_split_rule(hw: float, hh: float):
    """The rectangle [-hw,hw]x[-hh,hh] minus the disk |w| < rho, rho =
    min(hw, hh)/2, as a polar rule at its centre: ``(rho, nodes, weights)``.

    The theta range splits at the four corner angles, and each side's range
    again wherever R(theta) = d / cos(theta - c) doubles, at |theta - c| =
    acos(2^-k) (c the side's normal angle, d its distance), so that every
    Gauss panel sees R vary by at most a factor two however tall the cell.
    Each ray carries log-radial Gauss nodes from rho to R(theta).  The disk
    itself is left to ``_pole_disk_rule``, where the integrand is periodic
    and analytic in theta and the trapezoid rule converges exponentially:
    rho is at most a quarter of the distance to the nearest other lattice
    point, so the theta modes of the integrand decay like 4^-k there.
    """
    rho = min(hw, hh) / 2
    theta, weights, extent = [], [], []
    for side in range(4):
        d, half = (hw, math.atan2(hh, hw)) if side % 2 == 0 else (hh, math.atan2(hw, hh))
        cuts = list(itertools.takewhile(
            lambda c: c < half, (math.acos(0.5 ** k) for k in itertools.count(1))))
        edges = np.array([-half, *(-c for c in reversed(cuts)), *cuts, half])
        t, w = numkit.gauss_legendre_rule(edges, _CELL_PANEL)
        theta.append(t + side * math.pi / 2)
        weights.append(w)
        extent.append(d / np.cos(t))
    theta, weights, extent = map(np.concatenate, (theta, weights, extent))
    return (rho, *numkit.polar_rule(0j, (theta, weights), extent, _CELL_RAY,
                                    inner=rho))


def _pole_disk_rule(rho: float, inner: float = 0.0):
    """Trapezoid rule in theta on the disk |w| < rho, with its rays
    sqrt-clustered towards the centre for a log-type singularity there, or,
    for ``inner > 0``, on the annulus inner < |w| < rho with log-radial rays
    for a 1/r^2-type one."""
    angular = numkit.trapezoid_rule(_DISK_ANGLES, 2 * math.pi)
    if inner > 0:
        return numkit.polar_rule(0j, angular, rho, _ANNULUS_RAY, inner=inner)
    return numkit.polar_rule(0j, angular, rho, _DISK_RAY, band=rho)


def torus_green_mean(a: complex, lattice: elliptic.TorusLattice) -> float:
    """Independent quadrature of int_F G(., a) dx dy (should vanish).

    Integrates over the centred rectangle fundamental cell in polar
    coordinates around the pole, split at the disk of ``_pole_split_rule``
    (8,192 nodes at tau = 2i), so it tests the closed-form c(tau) of
    ``torus_green_constant`` against a quadrature of G itself."""
    a = complex(a)
    rho, *outer = _pole_split_rule(0.5, lattice.volume / 2)

    def f(w):
        return torus_monopole_green(a + w, a, lattice)

    return float((numkit.integrate(f, *outer)
                  + numkit.integrate(f, *_pole_disk_rule(rho))).real)


def schiffer_mean_value(lattice: elliptic.TorusLattice, a: complex) -> complex:
    """Principal value of int_F L(z,a) dz dzbar (should vanish).

    Symmetric excision of a disk of radius eps around the pole, with
    Richardson extrapolation over the halving eps ladder: 1/(pi w^2) has no
    mean over a circle, and the holomorphic rest of L has pi eps^2 times its
    pole value on the excised disk, so the excision bias is O(eps^2).  The
    cell outside the disk |w| < rho of ``_pole_split_rule`` is integrated
    once; each eps re-spends only the annulus eps < |w| < rho (7,680 wp
    values at tau = 2i).
    """
    a = complex(a)
    # the radii stay inside the pole disk: Im tau >= elliptic._MIN_IM_TAU =
    # 0.05 gives rho >= 0.0125 > 1e-2
    rho, *outer = _pole_split_rule(0.5, lattice.volume / 2)

    def f(w):
        return torus_kernels(a + w, a, lattice)[1]

    cell = numkit.integrate(f, *outer)
    # dz ^ dzbar = -2i dx dy
    vals = [(cell + numkit.integrate(f, *_pole_disk_rule(rho, e))) * (-2j)
            for e in (1e-2, 5e-3, 2.5e-3)]
    v01 = (4 * vals[1] - vals[0]) / 3
    v12 = (4 * vals[2] - vals[1]) / 3
    return (4 * v12 - v01) / 3
