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
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import elliptic, numkit
from .errors import PoleError

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


def _sphere_rule(a: complex, b: complex | None) -> tuple[np.ndarray, np.ndarray]:
    """Plane-chart nodes z = phi(zeta) and area weights of a rule over the
    whole sphere, for an integrand with poles at a and b (None: the
    antipode of a).

    phi is the Moebius map that sends zeta = 0 to a and zeta = inf to b:
    sphere isometries move a and b to w = -m and w = m about their geodesic
    midpoint w = 0, and w = m (zeta - 1)/(zeta + 1).  The rest of the sphere
    is then a blob of size about m around zeta = -1.  With zeta =
    exp(s + i theta), both axes are ``numkit.sinh_rule``s graded towards it
    (P. R. Johnston and D. Elliott, Int. J. Numer. Meth. Engng 62, 2005): s
    on [-19, 19] about 0 and theta on [0, 2 pi] about pi, with dist d =
    min(1, 2m) and 8 ceil(1.75 asinh(L / d)) nodes for the half-length L.
    """
    a = complex(a)
    # t = 1 / T_a(b) for the isometry T_a(z) = (z - a)/(1 + conj(a) z)
    t = 0j if b is None else (1 + a.conjugate() * b) / (b - a)
    r = math.sqrt(1 + abs(t) ** 2)
    m = 1 / (abs(t) + r)
    d = min(1.0, 2 * m)
    count = lambda L: 8 * math.ceil(1.75 * math.asinh(L / d))
    s, ws = numkit.sinh_rule(-19.0, 19.0, 0.0, d, count(19.0))
    psi, wpsi = numkit.sinh_rule(-math.pi, math.pi, 0.0, d, count(math.pi))
    # phi as a Moebius map of eta = zeta + 1 = 1 - exp(s + i psi), psi =
    # theta - pi, which expm1 keeps exact on the blob; in zeta its
    # coefficients, of size |t| ~ 1/m, would cancel there
    eta = -np.expm1(s[:, None] + 1j * psi)
    mu = m * (t / abs(t) if t else 1.0)
    den = (t - a.conjugate()) * eta + a.conjugate() + mu
    z = ((1 + a * t) * eta - 1 + a * mu) / den
    jac = (np.exp(s)[:, None] * r * (1 + abs(a) ** 2) / abs(den) ** 2) ** 2
    return z.ravel(), (np.outer(ws, wpsi) * jac).ravel()


def sphere_green_mean(a: complex) -> float:
    """Quadrature of int_M G(., a) vol (should vanish by normalization), on
    the ``_sphere_rule`` of a and its antipode."""
    a = complex(a)
    return float(numkit.integrate(
        lambda z: sphere_green(z, a) * sphere_lambda_sq(z), *_sphere_rule(a, None)))


def _sphere_green_grad(z: complex, a: complex) -> complex:
    """2 dG/dz as a complex gradient (conformally invariant combination)."""
    # d/dz of -(1/4pi)(log(z-a)+log(conj z - conj a) - log(1+z conj z) ... )
    return -(1.0 / (z - a) - z.conjugate() / (1 + abs(z) ** 2)) / (4 * math.pi) * 2


def sphere_mutual_energy(a: complex, b: complex) -> float:
    """int_M dG(.,a) wedge *dG(.,b), the mutual energy identity oracle.

    In chart coordinates the integrand is grad G_a . grad G_b dx dy with no
    metric factor (conformal invariance); with p = 2 dG/dz this equals
    Re(p_a conj(p_b)), integrated on the ``_sphere_rule`` of a and b.
    """
    a, b = complex(a), complex(b)
    return float(numkit.integrate(
        lambda z: (_sphere_green_grad(z, a) * _sphere_green_grad(z, b).conjugate()).real,
        *_sphere_rule(a, b)))


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
        "omega_alpha": omega_alpha,
        "omega_beta": omega_beta,
        "periods": periods,
    }


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


def _cell_rule(tau: complex) -> tuple[np.ndarray, np.ndarray]:
    """The centred cell [-1/2, 1/2] x [-Im tau/2, Im tau/2], counter-clockwise:
    nodes and dz-weights of one ``segment_rule`` per side, of 16 ceil(l / d)
    nodes for a side of length l at distance d from the centre, so that no
    Gauss panel is longer than the distance from the pole w = 0 to its side."""
    hw, hh = 0.5, tau.imag / 2
    corners = (complex(-hw, -hh), complex(hw, -hh), complex(hw, hh), complex(-hw, hh))
    sides = [numkit.segment_rule(z0, z1, 16 * math.ceil(abs(z1 - z0) / d))
             for z0, z1, d in zip(corners, corners[1:] + corners[:1], (hh, hw, hh, hw))]
    return tuple(map(np.concatenate, zip(*sides)))


def torus_green_mean(a: complex, lattice: elliptic.TorusLattice) -> float:
    """Independent quadrature of int_F G(., a) dx dy (should vanish).

    With w = z - a and Q = |w|^2/4 (Laplacian 1), Green's identity on the
    centred cell F turns the integral into (1 + Im tau^2)/48, the cell's
    int Q Delta G, plus Im oint (G conj(w) - |w|^2 dG/dw) dw / 2 over the
    cell's boundary (``_cell_rule``, 256 nodes at tau = 2i), where dG/dw =
    -theta1'/theta1(w)/(4 pi) - i Im(w)/(2 Im tau).  So it tests the
    closed-form c(tau) of ``torus_green_constant`` against G itself."""
    a, T = complex(a), lattice.volume

    def f(w):
        dg = -elliptic.theta1_log_derivative(w, lattice) / (4 * math.pi) - 0.5j * w.imag / T
        return torus_monopole_green(a + w, a, lattice) * w.conjugate() - abs(w) ** 2 * dg

    return float((1 + T * T) / 48 + numkit.integrate(f, *_cell_rule(lattice.tau)).imag / 2)


def schiffer_mean_value(lattice: elliptic.TorusLattice, a: complex) -> complex:
    """Principal value of int_F L(z,a) dz dzbar (should vanish).

    L is holomorphic off the pole, so with w = z - a, d(conj(w) L dw) =
    -L dw dwbar, and by Stokes the integral is -oint conj(w) L(a + w, a) dw
    over the centred cell's boundary (``_cell_rule``), less the same
    integral over a circle |w| = eps: there conj(w) = eps^2 / w, and the
    double pole 1/(pi w^2) leaves no residue, so the circle adds O(eps^2).
    """
    a = complex(a)
    return -numkit.integrate(lambda w: w.conjugate() * torus_kernels(a + w, a, lattice)[1],
                             *_cell_rule(lattice.tau))
