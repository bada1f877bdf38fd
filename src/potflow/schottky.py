"""Schottky double of the periodic strip: Green functions, the Bergman
kernel family, Szego/Garabedian kernels, capacity functions and the two
extremal maps.

Model: the double is the rectangular torus C/(Z + tau Z), tau purely
imaginary, with front side Omega = {-1/2 < x < 0} (y mod Im tau) and
anti-conformal involution J(z) = -conj(z).  The involution fixes both
boundary lines x = 0 and x = -1/2 (the latter since -conj(z) = z + 1
there).  Closed forms:

    K_electro(z,a) = (wp(z + conj a) + eta1)/pi,
    K_hydro = K_electro - 2/Im tau,      K_double = 1/Im tau,
    G_electro(z,a) = G_double(z,a) - G_double(z, J(a)).

The harmonic measure of the x = -1/2 boundary component is u1(z) = -2x.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import elliptic, numkit, planar_green, surface
from .errors import (
    AdmissibilityError,
    DomainError,
    NormalizationError,
    ParameterError,
    PoleError,
)

__all__ = [
    "StripDouble",
    "CapacityFunctions",
    "schwarz_circle",
    "strip_bergman_kernels",
    "kkl_combinations",
    "g_electro_strip",
    "gamma_electro",
    "gamma_electro_gradient",
    "g_hydro_strip",
    "gamma_hydro",
    "hydro_circulation",
    "neumann_strip",
    "reproducing_check",
    "orthogonality_integral",
    "upsilon_third_kind",
    "szego_genus1",
    "szego_kernel",
    "capacity_functions",
    "disk_capacity_functions",
    "ahlfors_map_disk",
    "circular_slit_map",
]


@dataclass(frozen=True)
class StripDouble:
    """Doubly connected periodic strip and its torus double."""

    tau: complex
    p: float = 0.0
    lattice: elliptic.TorusLattice = field(init=False, repr=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if abs(tau.real) > 1e-14 or tau.imag <= 0:
            raise ParameterError("strip double needs purely imaginary tau")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "lattice", elliptic.lattice_constants(tau))

    @property
    def T(self) -> float:
        return self.tau.imag

    @property
    def spec(self) -> surface.TorusSpec:
        return surface.TorusSpec(self.lattice)

    @staticmethod
    def involution(z: complex) -> complex:
        return -complex(z).conjugate()

    @staticmethod
    def u1(z: complex) -> float:
        """Harmonic measure of the x = -1/2 boundary component."""
        return -2.0 * complex(z).real

    def contains(self, z: complex) -> bool:
        return -0.5 < complex(z).real < 0.0

    def p11_quadrature(self, n: int = 64, h: float = 1e-6) -> float:
        """P11 = (1/2) int_Omega du1 wedge *du1 by fd gradient + midpoint rule."""
        def grad_sq(z: complex) -> float:
            ux = (self.u1(z + h) - self.u1(z - h)) / (2 * h)
            uy = (self.u1(z + 1j * h) - self.u1(z - 1j * h)) / (2 * h)
            return ux * ux + uy * uy

        cell = numkit.product_rule(numkit.midpoint_rule(n, 0.5),
                                   numkit.midpoint_rule(n, self.T), -0.5)
        return 0.5 * float(numkit.integrate(grad_sq, *cell))

    def to_dict(self) -> dict:
        return {"tau": [self.tau.real, self.tau.imag], "p": self.p}


def schwarz_circle(z: complex, R: float = 1.0) -> complex:
    """Schwarz function of the circle |z| = R: S(z) = R^2/z.

    conj(S(z)) is the anti-conformal reflection across the circle and
    S'(z) = T(z)^{-2} with T the positively oriented unit tangent.
    """
    z = complex(z)
    if z == 0:
        raise PoleError("Schwarz function of the circle has a pole at 0")
    return R * R / z


def strip_bergman_kernels(z: complex, a: complex, dbl: StripDouble
                          ) -> tuple[complex, complex, complex]:
    """(K_electro, K_hydro, K_double) at (z, a) on the strip double."""
    z, a = complex(z), complex(a)
    L = dbl.lattice
    w = z + a.conjugate()
    wr, _, _ = elliptic.reduce_to_cell(w, L.tau)
    if abs(wr) < 1e-12:
        raise PoleError("K_electro pole: z + conj(a) on the lattice")
    ke = (elliptic.wp(w, L) + L.eta1) / math.pi
    return ke, ke - 2.0 / dbl.T, 1.0 / dbl.T + 0j


def kkl_combinations(z: complex, a: complex, dbl: StripDouble
                     ) -> tuple[float, float]:
    """Residuals of the two kernel identities relating the planar Bergman
    kernels to the Bergman/Schiffer kernels of the double.

    In dz dabar coefficients (dJ(a) = -dabar):
    K_electro = K_double + L_double(z, J(a)) and
    K_hydro  = -K_double + L_double(z, J(a)).
    """
    z, a = complex(z), complex(a)
    ja = StripDouble.involution(a)
    ke, kh, kd = strip_bergman_kernels(z, a, dbl)
    _, ld = surface.torus_kernels(z, ja, dbl.spec)
    return abs(ke - (kd + ld)), abs(kh - (-kd + ld))


def g_electro_strip(z: complex, a: complex, dbl: StripDouble) -> float:
    """Electrostatic (Dirichlet) Green function of the periodic strip."""
    z, a = complex(z), complex(a)
    if not (dbl.contains(z) and dbl.contains(a)):
        raise DomainError("points must lie in the open strip")
    spec = dbl.spec
    return (surface.torus_monopole_green(z, a, spec)
            - surface.torus_monopole_green(z, StripDouble.involution(a), spec))


def gamma_electro(a: complex, dbl: StripDouble) -> float:
    """Robin function of G_electro, gamma(a) = log|theta1(2 Re a)/theta1'(0)|.

    From the diagonal limit of 2 pi G_electro + log|z-a|: the log-singularity
    subtraction leaves 2 pi c(tau) from the first monopole term, and
    -2 pi G_double(a, J(a)) contributes -log|theta1(2 Re a)/theta1'(0)|
    minus the same constant, which therefore cancels.
    """
    a = complex(a)
    if not dbl.contains(a):
        raise DomainError("point must lie in the open strip")
    L = dbl.lattice
    return (elliptic.log_abs_theta1(2 * a.real, L)
            - math.log(abs(elliptic.theta1_prime0(L))))


def gamma_electro_gradient(a: complex, dbl: StripDouble) -> complex:
    """h1 = d gamma_electro / da = (theta1'/theta1)(2 Re a) (real lattice)."""
    w = 2 * complex(a).real
    L = dbl.lattice
    return elliptic.theta1_prime(w, L) / elliptic.theta1(w, L)


def g_hydro_strip(z: complex, a: complex, dbl: StripDouble,
                  p: float | None = None) -> float:
    """Hydrodynamic Green function with prescribed circulation p.

    G_hydro = G_electro + (1/(2 Im tau)) (u1(z)-p)(u1(a)-p); its boundary
    values are locally constant and -oint_beta *dG_hydro = p around the
    u1 = 1 boundary component (with the boundary orientation of Omega).
    """
    if p is None:
        p = dbl.p
    ge = g_electro_strip(z, a, dbl)
    return ge + (StripDouble.u1(z) - p) * (StripDouble.u1(a) - p) / (2 * dbl.T)


def gamma_hydro(a: complex, dbl: StripDouble, p: float | None = None) -> float:
    """Robin function of G_hydro: gamma_electro + (pi/Im tau)(u1(a)-p)^2."""
    if p is None:
        p = dbl.p
    return gamma_electro(a, dbl) + math.pi / dbl.T * (StripDouble.u1(a) - p) ** 2


def hydro_circulation(a: complex, dbl: StripDouble, p: float | None = None,
                      n: int = 128, h: float = 1e-6) -> float:
    """-oint_beta *dG_hydro around the inner (u1 = 1) boundary component.

    The cycle is the line x = -1/2 carrying the boundary orientation of
    Omega (negative y direction); fd x-derivative plus trapezoid in y.
    """
    if p is None:
        p = dbl.p
    def gx(z: complex) -> float:
        # G extends smoothly across the wall on the double
        return (_g_hydro_extended(z + h, a, dbl, p)
                - _g_hydro_extended(z - h, a, dbl, p)) / (2 * h)

    ys, wy = numkit.trapezoid_rule(n, dbl.T)
    # *dG = G_x dy along the wall; orientation -y makes -oint = +T mean(G_x)
    return float(numkit.integrate(gx, -0.5 + 1j * ys, wy))


def _g_hydro_extended(z: complex, a: complex, dbl: StripDouble, p: float) -> float:
    """g_hydro continued smoothly a little across the strip walls."""
    spec = dbl.spec
    ge = (surface.torus_monopole_green(z, a, spec)
          - surface.torus_monopole_green(z, StripDouble.involution(a), spec))
    return ge + (StripDouble.u1(z) - p) * (StripDouble.u1(a) - p) / (2 * dbl.T)


def neumann_strip(z: complex, a: complex, dbl: StripDouble) -> float:
    """Even combination N = G_double(z,a) + G_double(z,J(a)).

    Vanishing normal derivative on both walls; off the pole it satisfies
    -4 d^2 N/dz dzbar = -1/area(Omega) with area = Im tau / 2.
    """
    z, a = complex(z), complex(a)
    spec = dbl.spec
    return (surface.torus_monopole_green(z, a, spec)
            + surface.torus_monopole_green(z, StripDouble.involution(a), spec))


# ---------------------------------------------------------------------------
# reproducing properties
# ---------------------------------------------------------------------------

def _strip_quadrature(func, dbl: StripDouble, resolution: int = 12) -> complex:
    """Tensor composite Gauss-Legendre over Omega = (-1/2,0) x (0, Im tau)."""
    return numkit.integrate(func, *numkit.product_rule(
        numkit.gauss_legendre_rule(np.linspace(-0.5, 0.0, resolution + 1)),
        numkit.gauss_legendre_rule(np.linspace(0.0, dbl.T, resolution + 1))))


def _beta_period_of(f, dbl: StripDouble, x0: float = -0.25, n: int = 256) -> complex:
    """oint f dz over the vertical cycle Re z = x0 (period tau)."""
    ys, wy = numkit.trapezoid_rule(n, dbl.T)
    return numkit.integrate(f, x0 + 1j * ys, 1j * wy)


def reproducing_check(kernel: str, f, a: complex, dbl: StripDouble,
                      resolution: int = 12) -> complex:
    """(i/2) int_Omega f dz wedge conj(K(.,a) dz) = int f conj(K) dx dy.

    ``kernel`` is "electro" or "hydro"; hydro requires f to be exact
    (vanishing period around the strip), which is checked first.
    """
    a = complex(a)
    if kernel not in ("electro", "hydro"):
        raise ParameterError("kernel must be 'electro' or 'hydro'")
    if kernel == "hydro":
        period = _beta_period_of(f, dbl)
        if abs(period) > 1e-8:
            raise AdmissibilityError(
                f"integrand has nonzero strip period {abs(period):.2e}; "
                "not admissible for the hydrodynamic kernel")

    def integrand(z: complex) -> complex:
        ke, kh, _ = strip_bergman_kernels(z, a, dbl)
        k = ke if kernel == "electro" else kh
        return f(z) * k.conjugate()

    return _strip_quadrature(integrand, dbl, resolution)


def orthogonality_integral(b: complex, dbl: StripDouble,
                           resolution: int = 12) -> complex:
    """int_Omega K_double dz wedge conj(K_hydro(.,b) dz) (vanishes)."""
    b = complex(b)

    def integrand(z: complex) -> complex:
        _, kh, kd = strip_bergman_kernels(z, b, dbl)
        return kd * kh.conjugate()

    return _strip_quadrature(integrand, dbl, resolution)


def upsilon_third_kind(z: complex, a: complex, b: complex,
                       dbl: StripDouble) -> complex:
    """Coefficient of the Abelian differential of the third kind with
    residues +1 at a, -1 at b and purely imaginary periods:

        zeta(z-a) - zeta(z-b) + eta1 (a-b) + (2 pi/tau) Im(a-b).
    """
    z, a, b = complex(z), complex(a), complex(b)
    L = dbl.lattice
    return (elliptic.zeta_w(z - a, L) - elliptic.zeta_w(z - b, L)
            + L.eta1 * (a - b) + 2 * math.pi / dbl.tau * (a - b).imag)


# ---------------------------------------------------------------------------
# Szego / Garabedian kernels (genus one)
# ---------------------------------------------------------------------------

def szego_kernel(z: complex, a: complex, dbl: StripDouble) -> complex:
    """Szego kernel on the front side via the boundary glue.

    K(z,a) = -(1/2pi) sqrt(wp(z + conj a) - e2) with the globally
    single-valued odd branch; the sign makes the diagonal positive
    (wp(2 Re a) > e2 on the real axis of a rectangular lattice).
    """
    w = complex(z) + complex(a).conjugate()
    return -elliptic.sqrt_wp_minus_e2(w, dbl.lattice) / (2 * math.pi)


def szego_genus1(z: complex, a: complex, dbl: StripDouble
                 ) -> tuple[complex, float]:
    """(Garabedian kernel L(z,a), Szego diagonal K(a,a)).

    L(z,a) = (1/2pi) sqrt(wp(z-a) - e2) with the branch continued from
    the Laurent head 1/(2pi (z-a)); the double zero of wp - e2 at the
    half period (1+tau)/2 makes the root single-valued on the torus.
    """
    z, a = complex(z), complex(a)
    L = elliptic.sqrt_wp_minus_e2(z - a, dbl.lattice) / (2 * math.pi)
    kdiag = szego_kernel(a, a, dbl).real
    if kdiag <= 0:
        raise NormalizationError("Szego diagonal must be positive")
    return L, kdiag


# ---------------------------------------------------------------------------
# capacity functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityFunctions:
    """The five capacity functions at a point; the chain is
    c1 <= cD <= cB <= c_beta <= sqrt_M, strict on the strip."""

    c1: float
    cD: float
    cB: float
    c_beta: float
    sqrt_M: float

    def chain(self) -> list[float]:
        return [self.c1, self.cD, self.cB, self.c_beta, self.sqrt_M]

    def margins(self) -> list[float]:
        ch = self.chain()
        return [b - a for a, b in zip(ch[:-1], ch[1:])]


def capacity_functions(a: complex, dbl: StripDouble) -> CapacityFunctions:
    """All five capacity functions at an interior point (p = 0 convention).

    c_D = sqrt(pi K_hydro), c_B = 2 pi K_Szego, sqrt_M = sqrt(pi K_electro)
    on the diagonal; c_beta = exp(-gamma_electro), c1 = exp(-gamma_hydro).
    """
    a = complex(a)
    if not dbl.contains(a):
        raise DomainError("point must be interior to the strip")
    if min(-a.real, a.real + 0.5) < 1e-3:
        raise ParameterError("point too close to the boundary for capacities")
    ke, kh, _ = strip_bergman_kernels(a, a, dbl)
    ksz = szego_kernel(a, a, dbl).real
    return CapacityFunctions(
        c1=math.exp(-gamma_hydro(a, dbl, p=0.0)),
        cD=math.sqrt(math.pi * kh.real),
        cB=2 * math.pi * ksz,
        c_beta=math.exp(-gamma_electro(a, dbl)),
        sqrt_M=math.sqrt(math.pi * ke.real),
    )


def disk_capacity_functions(a: complex, R: float = 1.0) -> CapacityFunctions:
    """Degenerate (simply connected) control case on a disk: each quantity
    from its own closed form; all five coincide."""
    a = complex(a)
    if abs(a) >= R:
        raise DomainError("point must be interior to the disk")
    rd = planar_green.robin_data(planar_green.DomainDescriptor.disk(R), a)
    ke = planar_green.bergman_disk(a / R, a / R).real / (R * R)
    ksz = planar_green.szego_disk(a / R, a / R).real / R
    return CapacityFunctions(
        c1=math.exp(-rd.h0),
        cD=math.sqrt(math.pi * ke),
        cB=2 * math.pi * ksz,
        c_beta=math.exp(-rd.h0),
        sqrt_M=math.sqrt(math.pi * ke),
    )


# ---------------------------------------------------------------------------
# extremal maps
# ---------------------------------------------------------------------------

def ahlfors_map_disk(z: complex, a: complex) -> complex:
    """Ahlfors map of the unit disk with zero at a (normalized Mobius form).

    f(z) = (z-a)/(1 - conj(a) z); |f| = 1 on the boundary and
    f'(a) = 1/(1-|a|^2) = 2 pi K_Szego(a,a).
    """
    z, a = complex(z), complex(a)
    if abs(z) > 1 + 1e-12 or abs(a) >= 1:
        raise DomainError("Ahlfors map implemented on the unit disk")
    return (z - a) / (1 - a.conjugate() * z)


def _conjugate_green_disk(z: complex, a: complex, base: complex,
                          n_panels: int = 24) -> float:
    """Harmonic conjugate G*(z) = int_base^z *dG(., a) along a polyline.

    *dG = 2 Im(dG/dz dz); the path detours around the pole when the direct
    segment passes too close.
    """
    D = planar_green.DomainDescriptor.disk(1.0)

    def leg(z0: complex, z1: complex) -> float:
        def integrand(t: float) -> complex:
            zt = z0 + (z1 - z0) * t
            return planar_green.green_z_derivative(D, zt, a) * (z1 - z0)
        val = numkit.gauss_legendre_panel(integrand, 0.0, 1.0, panels=n_panels)
        return 2 * val.imag

    # detour via a midpoint offset if the segment passes near the pole
    seg = base, z
    d = _segment_point_distance(base, z, a)
    if d < 0.05:
        mid = 0.5 * (base + z)
        direction = (z - base) / abs(z - base) if z != base else 1.0
        off = mid + 0.3j * direction * (1 if ((a - mid) / direction).imag < 0 else -1)
        if abs(off) > 0.95:
            off = mid - 0.3j * direction * (1 if ((a - mid) / direction).imag < 0 else -1)
        return leg(base, off) + leg(off, z)
    return leg(*seg)


def _segment_point_distance(z0: complex, z1: complex, p: complex) -> float:
    u = z1 - z0
    if u == 0:
        return abs(p - z0)
    t = max(0.0, min(1.0, ((p - z0) / u).real))
    return abs(p - (z0 + t * u))


def _slit_base_point(a: complex) -> complex:
    """Base point for the conjugate-Green integration, away from the pole."""
    if a == 0:
        return 0.5 + 0j
    return -0.5 * a / abs(a)


def circular_slit_map(z: complex, a: complex,
                      domain: "planar_green.DomainDescriptor | None" = None,
                      n_panels: int = 24) -> complex:
    """Canonical map f = exp(gamma(a) - 2 pi G(.,a) - 2 pi i G*(.,a)).

    On the unit disk this is the Mobius factor scaled to f'(a) = 1 (the
    c1-extremal normalization), with boundary modulus exp(gamma(a)).  The
    harmonic conjugate is built by contour integration of *dG from a base
    point; the phase is fixed so that f'(a) is real positive.
    """
    if domain is None:
        domain = planar_green.DomainDescriptor.disk(1.0)
    if domain.kind != "disk" or domain.R != 1.0:
        raise ParameterError("slit map implemented on the unit disk")
    z, a = complex(z), complex(a)
    if not domain.contains(a):
        raise DomainError("zero point must be interior")
    gamma = planar_green.robin_data(domain, a).h0
    base = _slit_base_point(a)

    r_safe = min(0.05, (1 - abs(a)) / 4)

    def conj_green(zz: complex) -> float:
        d = abs(zz - a)
        if d >= r_safe:
            return _conjugate_green_disk(zz, a, base, n_panels)
        # approach the pole along the ray: the singular 1/(z-a) part of *dG
        # has zero radial component, so only the regular term contributes
        direction = (zz - a) / d
        anchor = a + r_safe * direction
        gs = _conjugate_green_disk(anchor, a, base, n_panels)

        def regular(t: float) -> complex:
            # G_z = -(1/4pi)[1/(z-a) + conj(a)/(1 - conj(a) z)] on the disk
            zt = anchor + (zz - anchor) * t
            reg = -a.conjugate() / (1 - a.conjugate() * zt) / (4 * math.pi)
            return reg * (zz - anchor)

        return gs + 2 * numkit.gauss_legendre_panel(regular, 0.0, 1.0, 4).imag

    def raw(zz: complex) -> complex:
        # closed-form disk Green function, valid up to the boundary
        g = -math.log(abs((zz - a) / (1 - a.conjugate() * zz))) / (2 * math.pi)
        return cmath.exp(gamma - 2 * math.pi * (g + 1j * conj_green(zz)))

    # leading coefficient by a circle average (all higher Taylor terms of the
    # simple zero carry e^{ik phi} and drop out exactly)
    r = min(0.1, (1 - abs(a)) / 3)
    fprime = numkit.contour_integral(lambda zz: raw(zz) / (zz - a) ** 2,
                                     numkit.circle(a, r), 16) / (2j * math.pi)
    phase = fprime / abs(fprime)
    if z == a:
        return 0j
    return raw(z) / phase
