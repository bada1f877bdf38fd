"""Monopole Green functions, kernels, one-forms and period matrices on the
sphere and on flat tori.

The monopole Green function solves -d*dG = delta_a - vol/V with zero mean.
On the torus C/(Z + tau Z) it is realized through theta-1,

    G(z,a) = -(1/2pi) log|theta1(z-a)/theta1'(0)| + Im(z-a)^2/(2 Im tau) + c(tau),

which is doubly periodic and symmetric; the constant c(tau) is fixed
numerically by the zero-mean normalization.
"""

from __future__ import annotations

import functools
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
    "TorusSpec",
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


def sphere_lambda_sq(z: complex) -> float:
    """Metric density lambda^2 = 4 / (1 + |z|^2)^2 of the unit sphere."""
    return 4.0 / (1.0 + abs(complex(z)) ** 2) ** 2


def sphere_green(z: complex, a: complex) -> float:
    """Monopole Green function of the round unit sphere (zero mean)."""
    z, a = complex(z), complex(a)
    if abs(z - a) < 1e-14:
        raise PoleError("sphere Green function pole at z = a")
    r2 = abs(z - a) ** 2 / ((1 + abs(z) ** 2) * (1 + abs(a) ** 2))
    return -(math.log(r2) + 1.0) / (4 * math.pi)


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


def _unit_disk_rule(center: complex = 0j, nr: int = 64, nt: int = 128,
                    cluster_radius: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Area rule on {|z| <= 1} in polar coordinates around ``center``.

    The radial extent R(theta) to the unit circle is smooth in theta, so
    the angular trapezoid rule is spectral; an inner sqrt-clustered band
    around the center absorbs an integrable (log-type) singularity there.
    """
    c = complex(center)
    if abs(c) >= 1.0:
        raise ParameterError("polar center must lie in the open disk")
    theta, w = numkit.trapezoid_rule(nt, 2 * math.pi)
    proj = (c.conjugate() * np.exp(1j * theta)).real
    R = -proj + np.sqrt(np.maximum(1.0 - abs(c) ** 2 + proj * proj, 0.0))
    return numkit.polar_rule(c, (theta, w), R, nr,
                             band=min(cluster_radius, (1 - abs(c)) / 2))


def sphere_green_mean(a: complex, resolution: int = 64) -> float:
    """Quadrature of int_M G(., a) vol (should vanish by normalization).

    The sphere splits as {|z| <= 1} plus the inverted chart; the patch
    containing the pole is integrated in polar coordinates around it.
    """
    a = complex(a)

    def f_plane(z: complex) -> float:
        return sphere_green(z, a) * sphere_lambda_sq(z)

    def f_inv(w: complex) -> float:
        if abs(w) < 1e-14:
            return 0.0  # integrand decays like |w|^2 log|w| at the far pole
        zz = 1.0 / w
        return sphere_green(zz, a) * sphere_lambda_sq(zz) / abs(w) ** 4

    ainv = 1.0 / a.conjugate() if a != 0 else None
    center_inv = ainv if (ainv is not None and abs(ainv) < 1) else 0j
    plane = _unit_disk_rule(a if abs(a) < 1 else 0j, resolution, 2 * resolution)
    inverted = _unit_disk_rule(center_inv, resolution, 2 * resolution)
    return float(numkit.integrate(f_plane, *plane) + numkit.integrate(f_inv, *inverted))


def _sphere_green_grad(z: complex, a: complex) -> complex:
    """2 dG/dz as a complex gradient (conformally invariant combination)."""
    # d/dz of -(1/4pi)(log(z-a)+log(conj z - conj a) - log(1+z conj z) ... )
    return -(1.0 / (z - a) - z.conjugate() / (1 + abs(z) ** 2)) / (4 * math.pi) * 2


def sphere_mutual_energy(a: complex, b: complex, resolution: int = 64) -> float:
    """int_M dG(.,a) wedge *dG(.,b), the mutual energy identity oracle.

    In chart coordinates the integrand is grad G_a . grad G_b dx dy with no
    metric factor (conformal invariance); with p = 2 dG/dz this equals
    Re(p_a conj(p_b)).  The 1/r pole singularities are integrable; each
    chart is integrated in polar coordinates around the pole it contains.
    """
    a, b = complex(a), complex(b)

    def integrand(z: complex, inverted: bool) -> float:
        if inverted:
            if abs(z) < 1e-12:
                return 0.0
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
    plane = _unit_disk_rule(center_plane, resolution, 2 * resolution)
    inverted = _unit_disk_rule(center_inv, resolution, 2 * resolution)
    return float(numkit.integrate(lambda z: integrand(z, False), *plane)
                 + numkit.integrate(lambda z: integrand(z, True), *inverted))


# ---------------------------------------------------------------------------
# torus (genus one)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusSpec:
    """Flat torus C/(Z + tau Z) with the Euclidean metric; volume Im tau."""

    lattice: elliptic.TorusLattice

    @staticmethod
    def from_tau(tau: complex) -> "TorusSpec":
        return TorusSpec(elliptic.lattice_constants(complex(tau)))

    @property
    def tau(self) -> complex:
        return self.lattice.tau

    @property
    def volume(self) -> float:
        return self.lattice.tau.imag

    def to_dict(self) -> dict:
        return {"tau": [self.tau.real, self.tau.imag]}


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
    """Real or complex one-form f dz + g dzbar with coefficient callables."""

    f: Callable[[complex], complex]
    g: Callable[[complex], complex]

    def star(self) -> "OneForm":
        # *dz = -i dz, *dzbar = +i dzbar
        return OneForm(lambda z: -1j * self.f(z), lambda z: 1j * self.g(z))


def form_period(form: OneForm, cycle: numkit.Curve, n: int = 128) -> complex:
    """Line integral of the one-form over a parametrized cycle."""
    nodes, dz = cycle.rule(n)
    return (numkit.integrate(form.f, nodes, dz)
            + numkit.integrate(form.g, nodes, dz.conjugate()))


def torus_kernels(z: complex, a: complex, spec: TorusSpec) -> tuple[complex, complex]:
    """Bergman and Schiffer kernels of the flat torus.

    K(z,a) = 1/Im tau (constant); L(z,a) = (wp(z-a) + eta1)/pi - 1/Im tau
    with the double pole 1/(pi (z-a)^2) and zero principal-value mean.
    """
    L = spec.lattice
    K = 1.0 / spec.volume + 0j
    Lk = (elliptic.wp(complex(z) - complex(a), L) + L.eta1) / math.pi - 1.0 / spec.volume
    return K, Lk


def torus_harmonic_basis(spec: TorusSpec):
    """Closed-form harmonic/holomorphic one-form bases and period matrices.

    eta_alpha = dy/Im tau, eta_beta = -dx + (Re tau/Im tau) dy;
    omega_alpha = -i dz/Im tau, omega_beta = -i conj(tau) dz/Im tau;
    P = |tau|^2/Im tau, Q = 1/Im tau, R = -Re tau/Im tau (genus one).
    """
    tau = spec.tau
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


def alpha_cycle(spec: TorusSpec, offset: complex = 0j) -> numkit.Curve:
    """The segment [0,1] (optionally offset) traversed once."""
    return numkit.Curve(lambda t: offset + t, lambda t: 1.0 + 0j, 128)


def beta_cycle(spec: TorusSpec, offset: complex = 0j) -> numkit.Curve:
    """The segment [0,tau] (optionally offset) traversed once."""
    tau = spec.tau
    return numkit.Curve(lambda t: offset + t * tau, lambda t: tau, 128)


@functools.lru_cache(maxsize=32)
def torus_green_constant(tau: complex, resolution: int = 160) -> float:
    """Additive constant c(tau) from the zero-mean normalization.

    The cell integral splits into a smooth part (log|theta1(w)/(theta1'(0) w)|,
    Gauss-Legendre over the centered rectangle cell), the closed-form
    integral of log|w| over that rectangle, and the quadratic Im correction.
    """
    L = elliptic.lattice_constants(tau)
    T = tau.imag
    th0 = elliptic.theta1_prime0(L)

    def smooth(w: complex) -> float:
        if abs(w) < 1e-12:
            return 0.0
        return -(elliptic.log_abs_theta1(w, L)
                 - math.log(abs(th0)) - math.log(abs(w))) / (2 * math.pi)

    A = numkit.integrate(smooth, *numkit.product_rule(
        numkit.gauss_legendre_rule([-0.5, 0.5], resolution),
        numkit.gauss_legendre_rule([-T / 2, T / 2], resolution)))

    B = -_log_abs_rectangle_integral(0.5, T / 2) / (2 * math.pi)
    C = T * T / 24.0
    return -(A + B + C) / T


def _log_abs_rectangle_integral(a: float, b: float) -> float:
    """Closed form of int_{[-a,a]x[-b,b]} log|x+iy| dx dy."""
    quadrant = 0.5 * (a * b * math.log(a * a + b * b) - 3 * a * b
                      + a * a * math.atan(b / a) + b * b * math.atan(a / b))
    return 4 * quadrant


def torus_monopole_green(z: complex, a: complex, spec: TorusSpec) -> float:
    """Zero-mean monopole Green function of the flat torus."""
    L = spec.lattice
    w = complex(z) - complex(a)
    wr, _, _ = elliptic.reduce_to_cell(w, L.tau)
    if abs(wr) < 1e-13:
        raise PoleError("torus Green function pole at z = a (mod lattice)")
    T = spec.volume
    val = -(elliptic.log_abs_theta1(wr, L)
            - math.log(abs(elliptic.theta1_prime0(L)))) / (2 * math.pi)
    return val + wr.imag ** 2 / (2 * T) + torus_green_constant(L.tau)


def wedge_integral_cell(form1: OneForm, form2: OneForm, spec: TorusSpec,
                        n: int = 48) -> complex:
    """int_F omega1 wedge omega2 over the fundamental cell (midpoint rule)."""
    def coefficient(z: complex) -> complex:
        # (f1 dz + g1 dzbar) ^ (f2 dz + g2 dzbar) = (f1 g2 - g1 f2) dz^dzbar
        return form1.f(z) * form2.g(z) - form1.g(z) * form2.f(z)

    cell = numkit.product_rule(numkit.midpoint_rule(n), numkit.midpoint_rule(n),
                               0j, 1.0, spec.tau)
    # dz ^ dzbar = -2i dx dy
    return numkit.integrate(coefficient, *cell) * (-2j)


def bergman_expansion_check(spec: TorusSpec, samples: int = 5) -> float:
    """Residual of K = P^{-1} omega_beta conj(omega_beta) (and the Q variant)."""
    basis = torus_harmonic_basis(spec)
    per = basis["periods"]
    rng = np.random.default_rng(7)
    resid = 0.0
    for _ in range(samples):
        z = complex(rng.uniform(0, 1), rng.uniform(0, spec.volume))
        a = complex(rng.uniform(0, 1), rng.uniform(0, spec.volume))
        K, _ = torus_kernels(z, a, spec)
        wb_z = basis["omega_beta"].f(z)
        wb_a = basis["omega_beta"].f(a)
        wa_z = basis["omega_alpha"].f(z)
        wa_a = basis["omega_alpha"].f(a)
        kp = (1.0 / per.P[0, 0]) * wb_z * wb_a.conjugate()
        kq = (1.0 / per.Q[0, 0]) * wa_z * wa_a.conjugate()
        resid = max(resid, abs(kp - K), abs(kq - K))
    return resid


def _centered_rect_polar(f: Callable[[complex], complex], hw: float, hh: float,
                         nr: int = 48, nt: int = 32, r_inner: float = 0.0,
                         cluster: float = 0.0) -> complex:
    """Integrate f dx dy over [-hw,hw]x[-hh,hh] in polar coordinates at 0.

    The angular range splits at the four corner angles so R(theta) is
    smooth per panel (Gauss-Legendre in theta).  ``r_inner > 0`` excises
    the disk |w| < r_inner exactly (log-radial nodes); ``cluster > 0``
    instead adds a sqrt-clustered band [0, cluster] absorbing a log-type
    singularity at the origin.
    """
    thc = math.atan2(hh, hw)
    edges = [-thc, thc, math.pi - thc, math.pi + thc, 2 * math.pi - thc]
    theta, w = numkit.gauss_legendre_rule(edges, nt)
    # panels alternate between the vertical (hw) and horizontal (hh) sides
    vertical = np.repeat([True, False, True, False], nt)
    R = (np.where(vertical, hw, hh)
         / np.abs(np.where(vertical, np.cos(theta), np.sin(theta))))
    band = np.minimum(cluster, R / 2) if cluster > 0 else 0.0
    return numkit.integrate(f, *numkit.polar_rule(0j, (theta, w), R, nr, band,
                                                  r_inner))


def torus_green_mean(a: complex, spec: TorusSpec) -> float:
    """Independent quadrature of int_F G(., a) dx dy (should vanish).

    Integrates over the centered rectangle fundamental cell in polar
    coordinates around the pole, a different route from the one fixing
    the constant c(tau)."""
    a = complex(a)
    val = _centered_rect_polar(
        lambda w: torus_monopole_green(a + w, a, spec),
        0.5, spec.volume / 2, nr=48, nt=32, cluster=0.2)
    return float(val.real)


def schiffer_mean_value(spec: TorusSpec, a: complex,
                        eps_ladder=(1e-2, 5e-3, 2.5e-3)) -> complex:
    """Principal value of int_F L(z,a) dz dzbar (should vanish).

    Symmetric excision of a disk of radius eps around the pole (exact in
    the polar rule) with Richardson extrapolation over the eps ladder;
    the excision bias from the regular part is O(eps^2).
    """
    a = complex(a)

    def integral_excised(eps: float) -> complex:
        val = _centered_rect_polar(
            lambda w: torus_kernels(a + w, a, spec)[1],
            0.5, spec.volume / 2, nr=64, nt=48, r_inner=eps)
        # dz ^ dzbar = -2i dx dy
        return val * (-2j)

    vals = [integral_excised(e) for e in eps_ladder]
    v01 = (4 * vals[1] - vals[0]) / 3
    v12 = (4 * vals[2] - vals[1]) / 3
    return (4 * v12 - v01) / 3
