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
    """Doubly connected periodic strip and its torus double; tau = i Im tau
    and the lattice follow planar_green's strip modulus rule, so a strip
    query of the same modulus reads the same lattice."""

    tau: complex
    lattice: elliptic.TorusLattice = field(init=False, repr=False)
    kind = "periodic_strip"   # its _KINDS record, so planar_green checks a StripDouble

    def __post_init__(self):
        tau = complex(self.tau)
        message = planar_green._strip_tau_error(tau)
        if message:
            raise ParameterError(message)
        lattice = planar_green._strip_lattice(tau)
        object.__setattr__(self, "tau", lattice.tau)
        object.__setattr__(self, "lattice", lattice)

    @property
    def T(self) -> float:
        return self.tau.imag

    @staticmethod
    def involution(z):
        """J(z) = -conj(z) (elementwise for an array of z)."""
        return -numkit.as_points(z).conjugate()

    @staticmethod
    def u1(z):
        """Harmonic measure of the x = -1/2 boundary component (elementwise
        for an array of z)."""
        return -2.0 * numkit.as_points(z).real

    def contains(self, z):
        """Whether z lies in the open strip, by the strip's one interior
        rule ``planar_green._strip_contains`` (elementwise for an array of
        z; false for inf and nan)."""
        return planar_green._strip_contains(self, numkit.as_points(z))

    def resolves(self, z):
        """Whether z is a point of the double whose reduction to the cell
        keeps half the significand: |Re z| and |Im z| / Im tau at most
        STRIP_IM_MAX (elementwise for an array of z; false for inf and nan)."""
        z, bound = numkit.as_points(z), planar_green.STRIP_IM_MAX
        return (abs(z.real) <= bound) & (abs(z.imag) <= bound * self.T)

    def wall_rule(self, x0: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The n-point trapezoid rule in y over one period of the vertical
        line Re z = x0 (a wall at x0 = 0 or -1/2): nodes x0 + i y and their
        dy-weights, i times which are the dz-weights upwards."""
        ys, wy = numkit.trapezoid_rule(n, self.T)
        return x0 + 1j * ys, wy

    def p11_quadrature(self) -> float:
        """P11 = (1/2) int_Omega du1 wedge *du1 by the midpoint rule; |grad u1|^2 = 4."""
        cell = numkit.product_rule(numkit.midpoint_rule(64, 0.5),
                                   numkit.midpoint_rule(64, self.T), -0.5)
        return 0.5 * float(numkit.integrate(lambda z: 4.0, *cell))


def schwarz_circle(z: complex) -> complex:
    """Schwarz function of the unit circle: S(z) = 1/z.

    conj(S(z)) is the anti-conformal reflection across the circle and
    S'(z) = T(z)^{-2} with T the positively oriented unit tangent.
    """
    z = complex(z)
    if z == 0:
        raise PoleError("Schwarz function of the circle has a pole at 0")
    return 1.0 / z


def strip_bergman_kernels(z, a: complex, dbl: StripDouble):
    """(K_electro, K_hydro, K_double) at (z, a) on the strip double, for a
    scalar or an array of z.  wp raises the PoleError where z + conj(a)
    is on the lattice."""
    wp = elliptic.wp(numkit.as_points(z) + complex(a).conjugate(), dbl.lattice)
    ke = (wp + dbl.lattice.eta1) / math.pi
    return ke, ke - 2.0 / dbl.T, surface._constant_like(wp, 1.0 / dbl.T + 0j)


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
    _, ld = surface.torus_kernels(z, ja, dbl.lattice)
    return abs(ke - (kd + ld)), abs(kh - (-kd + ld))


def g_electro_strip(z, a, dbl: StripDouble):
    """Electrostatic (Dirichlet) Green function of the periodic strip, for
    scalars or arrays of z and a (broadcast together)."""
    z, a = numkit.as_points(z), numkit.as_points(a)
    planar_green._require_interior(dbl, z, a)
    return _g_electro(z, a, dbl.lattice)


def _g_electro(z, a, L: elliptic.TorusLattice):
    """G_double(z, a) - G_double(z, J(a)) on the strip's double with lattice
    L, for a Python complex or a complex array a: g_electro_strip without
    the point check, and continued smoothly a little across the walls."""
    return (surface.torus_monopole_green(z, a, L)
            - surface.torus_monopole_green(z, -a.conjugate(), L))


def _g_electro_dz(z, a, L: elliptic.TorusLattice):
    """dG_electro/dz = -(r(z - a) - r(z + conj a)) / 4 pi, r = theta1'/theta1,
    unchecked (PoleError at z = a mod lattice): the monopoles' Im^2 terms
    cancel, as Im(z - a) = Im(z + conj a).  A scalar z takes the array path,
    as numpy's complex division rounds unlike Python's."""
    w, r = np.atleast_1d(z), lambda s: elliptic.theta1_log_derivative(s, L)
    val = -(r(w - a) - r(w + a.conjugate())) / (4 * math.pi)
    return complex(val[0]) if numkit.is_scalar(z) else val


def _gamma_jet(a: complex, L: elliptic.TorusLattice) -> tuple:
    """(gamma_electro, gamma_electro_gradient, z0) at a on the double with
    lattice L, unchecked: h0 = log|theta1(2 Re a) / theta1'(0)| and h1 =
    (theta1'/theta1)(2 Re a), from one reduction 2 Re a = z0 + m + n tau and
    one sum of each theta series.  The log raises PoleError where
    theta1(2 Re a) underflows to 0."""
    z0, _, th, dth, log_th = elliptic._theta_jet(2 * a.real, L,
                                                 value=True, prime=True, log="z")
    return log_th - L.log_abs_theta1_prime0, dth / th, z0


def _robin(a: complex, L: elliptic.TorusLattice) -> tuple:
    """(h0, h1, curvature) of G_electro at a on the double with lattice L,
    unchecked: the curvature is -4 pi K_electro(a, a) e^{2 h0},
    K_electro(a, a) = (wp(2 Re a) + eta1) / pi, wp summed at the jet's z0.
    The wp is kept out of gamma_electro: it has a pole on each wall."""
    h0, h1, z0 = _gamma_jet(a, L)
    ke = (elliptic._wp_reduced(z0, L) + L.eta1) / math.pi
    return h0, h1, -4 * math.pi * ke.real * math.exp(2 * h0)


def gamma_electro(a: complex, dbl: StripDouble) -> float:
    """Robin function of G_electro, gamma(a) = log|theta1(2 Re a)/theta1'(0)|.

    From the diagonal limit of 2 pi G_electro + log|z-a|: the log-singularity
    subtraction leaves 2 pi c(tau) from the first monopole term, and
    -2 pi G_double(a, J(a)) contributes -log|theta1(2 Re a)/theta1'(0)|
    minus the same constant, which therefore cancels.
    """
    a = complex(a)
    planar_green._require_interior(dbl, a)
    return _gamma_jet(a, dbl.lattice)[0]


def gamma_electro_gradient(a: complex, dbl: StripDouble) -> complex:
    """h1 = d gamma_electro / da = (theta1'/theta1)(2 Re a) (real lattice)."""
    a = complex(a)
    planar_green._require_interior(dbl, a)
    return _gamma_jet(a, dbl.lattice)[1]


def g_hydro_strip(z, a, dbl: StripDouble, p: float = 0.0):
    """Hydrodynamic Green function with prescribed circulation p, for
    scalars or arrays of z and a (broadcast together).

    G_hydro = G_electro + (1/(2 Im tau)) (u1(z)-p)(u1(a)-p); its boundary
    values are locally constant and -oint_beta *dG_hydro = p around the
    u1 = 1 boundary component (with the boundary orientation of Omega).
    """
    z, a = numkit.as_points(z), numkit.as_points(a)
    planar_green._require_interior(dbl, z, a)
    return _g_hydro_extended(z, a, dbl, p)


def gamma_hydro(a: complex, dbl: StripDouble, p: float = 0.0) -> float:
    """Robin function of G_hydro: gamma_electro + (pi/Im tau)(u1(a)-p)^2."""
    return gamma_electro(a, dbl) + math.pi / dbl.T * (StripDouble.u1(a) - p) ** 2


def hydro_circulation(a: complex, dbl: StripDouble, p: float = 0.0) -> float:
    """-oint_beta *dG_hydro around the inner (u1 = 1) boundary component.

    The cycle is the line x = -1/2 carrying the boundary orientation of
    Omega (negative y direction); closed-form x-derivative plus trapezoid in y.
    """
    a, n = complex(a), 128
    # the y trapezoid errs like exp(-2 pi d n / Im tau), d the poles' distance
    # from the wall; *dG = G_x dy along it, and orientation -y makes -oint = +T mean(G_x)
    return float(numkit.integrate(lambda z: _g_hydro_dx(z, a, dbl, p),
                                  *dbl.wall_rule(-0.5, max(n, math.ceil(n * dbl.T / 2)))))


def _g_hydro_extended(z, a, dbl: StripDouble, p: float):
    """g_hydro continued smoothly a little across the strip walls (a scalar
    or an array of z), unchecked."""
    return (_g_electro(z, a, dbl.lattice)
            + (StripDouble.u1(z) - p) * (StripDouble.u1(a) - p) / (2 * dbl.T))


def _g_hydro_dx(z, a, dbl: StripDouble, p: float):
    """d/dx of ``_g_hydro_extended`` (du1/dx = -2); G extends smoothly across
    the walls on the double, so z may lie on one."""
    return (2 * _g_electro_dz(z, a, dbl.lattice).real
            - (StripDouble.u1(a) - p) / dbl.T)


def neumann_strip(z, a, dbl: StripDouble):
    """Even combination N = G_double(z,a) + G_double(z,J(a)), for scalars
    or arrays of z and a (broadcast together).

    Vanishing normal derivative on both walls; off the pole it satisfies
    -4 d^2 N/dz dzbar = -1/area(Omega) with area = Im tau / 2.  N is even
    across both walls, so z and a may lie outside the strip, within the
    bounds of ``StripDouble.resolves``.
    """
    if not np.all(dbl.resolves(z) & dbl.resolves(a)):
        raise DomainError("Neumann function points need "
                          "|Re z| <= 2^26, |Im z| <= 2^26 Im tau")
    L = dbl.lattice
    return (surface.torus_monopole_green(z, a, L)
            + surface.torus_monopole_green(z, StripDouble.involution(a), L))


# ---------------------------------------------------------------------------
# reproducing properties
# ---------------------------------------------------------------------------

def _cell_integrals(F, which: int, a, dbl: StripDouble):
    """int_Omega F' conj(K(., p)) dx dy for each point p of ``a`` (a list of
    values out), K the kernel ``which`` of ``strip_bergman_kernels``.

    F is holomorphic and K(., p) is holomorphic on the closure of Omega, so
    by Stokes, d(F conj(K) dzbar) = F' conj(K) dz wedge dzbar, the integral
    is (i/2) oint F conj(K dz) over Omega's sides, counter-clockwise.  The
    top side is the bottom one shifted by tau and run backwards, and
    K(z + tau, p) = K(z, p), so the two merge into F(z) - F(z + tau) on the
    bottom side.  Each side is a Gauss-Legendre ``segment_rule`` of 256
    nodes, the walls 256 max(1, Im tau / 2), as ``hydro_circulation`` scales
    its wall rule; F on the nodes is shared by the points, and each point's
    kernel is one array call on each of the three sides.
    """
    tau, wall = dbl.tau, max(256, math.ceil(256 * dbl.T / 2))
    bottom, dz = numkit.segment_rule(-0.5 + 0j, 0j, 256)
    sides = [(bottom, dz.conjugate(), F(bottom) - F(bottom + tau))]
    for z0, z1 in ((0j, tau), (tau - 0.5, -0.5 + 0j)):
        nodes, dz = numkit.segment_rule(z0, z1, wall)
        sides.append((nodes, dz.conjugate(), F(nodes)))
    # kernel first: numpy's complex product is not commutative in the last bit
    return [0.5j * sum(numkit.integrate(
        lambda z: strip_bergman_kernels(z, p, dbl)[which].conjugate() * Fz, z, dzbar)
        for z, dzbar, Fz in sides) for p in a]


def reproducing_check(kernel: str, f, F, a, dbl: StripDouble):
    """(i/2) int_Omega f dz wedge conj(K(.,a) dz) = int f conj(K) dx dy,
    for one point a or an array of points (an array of values out).

    F is a primitive of f, holomorphic on the closure of Omega; the integral
    is taken on Omega's boundary (see ``_cell_integrals``).  f and F receive
    numpy arrays of points (the quadrature nodes).  ``kernel`` is "electro"
    or "hydro"; hydro requires f to be exact (vanishing period around the
    strip), which is checked first.
    """
    if kernel not in ("electro", "hydro"):
        raise ParameterError("kernel must be 'electro' or 'hydro'")
    points = numkit.as_points(a)
    planar_green._require_interior(dbl, points)
    if kernel == "hydro":
        # oint f dz over the vertical cycle Re z = -1/4 (period tau)
        nodes, wy = dbl.wall_rule(-0.25, 256)
        period = numkit.integrate(f, nodes, 1j * wy)
        if abs(period) > 1e-8:
            raise AdmissibilityError(
                f"integrand has nonzero strip period {abs(period):.2e}; "
                "not admissible for the hydrodynamic kernel")
    vals = _cell_integrals(F, 0 if kernel == "electro" else 1, np.ravel(points), dbl)
    return vals[0] if numkit.is_scalar(a) else np.reshape(vals, np.shape(a))


def orthogonality_integral(b: complex, dbl: StripDouble) -> complex:
    """int_Omega K_double dz wedge conj(K_hydro(.,b) dz) (vanishes), with
    K_double = 1 / Im tau the derivative of F = z / Im tau."""
    b = complex(b)
    planar_green._require_interior(dbl, b)
    return _cell_integrals(lambda z: z / dbl.T, 1, [b], dbl)[0]


def upsilon_third_kind(z, a: complex, b: complex, dbl: StripDouble):
    """Coefficient of the Abelian differential of the third kind with
    residues +1 at a, -1 at b and purely imaginary periods (a scalar or an
    array of z):

        zeta(z-a) - zeta(z-b) + eta1 (a-b) + (2 pi/tau) Im(a-b).
    """
    z, a, b = numkit.as_points(z), complex(a), complex(b)
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
    planar_green._require_interior(dbl, a)
    if min(-a.real, a.real + 0.5) < 1e-3:
        raise ParameterError("point too close to the boundary for capacities")
    ke, kh, _ = strip_bergman_kernels(a, a, dbl)
    ksz = szego_kernel(a, a, dbl).real
    return CapacityFunctions(
        c1=math.exp(-gamma_hydro(a, dbl)),
        cD=math.sqrt(math.pi * kh.real),
        cB=2 * math.pi * ksz,
        c_beta=math.exp(-gamma_electro(a, dbl)),
        sqrt_M=math.sqrt(math.pi * ke.real),
    )


def disk_capacity_functions(a: complex) -> CapacityFunctions:
    """Degenerate (simply connected) control case on the unit disk: each
    quantity from its own closed form; all five coincide."""
    a = complex(a)
    rd = planar_green.robin_data(planar_green.UNIT_DISK, a)   # checks a
    ke = planar_green.bergman_disk(a, a).real
    ksz = planar_green.szego_disk(a, a).real
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
    planar_green._require_interior(planar_green.UNIT_DISK, a)
    if not abs(z) <= 1 + 1e-12:   # nan fails too
        raise DomainError(f"Ahlfors map implemented on the unit disk: {z} lies outside")
    return (z - a) / (1 - a.conjugate() * z)


# Gauss nodes of the slit map's integral over [0, 1]; the rule is built at
# call time, because the numpy.polynomial import it needs costs 1.3 MB of RSS
_SLIT_NODES = 32


def circular_slit_map(z, a: complex):
    """Canonical map f = exp(gamma(a) - 2 pi G(.,a) - 2 pi i G*(.,a)) of the
    unit disk, for a scalar or an array of z in the closed disk (f(a) = 0).

    G + i G* is analytic with derivative 2 dG/dz, and 4 pi dG/dz =
    1/(a - z) + r(z) with r = ``planar_green._disk_image`` analytic on the
    closed disk.  So f(z) = (z - a) exp(-(z - a) int_0^1 r(a + (z - a) t) dt):
    the pole is integrated exactly, f'(a) = 1 (the c1-extremal
    normalization) fixes gamma and the phase, and the segment [a, z] stays
    in the disk.  The boundary modulus is exp(gamma(a)) = 1 - |a|^2.  A
    scalar z takes the array path, so it rounds as an array entry does.
    """
    z, a = numkit.as_points(z), complex(a)
    planar_green._require_interior(planar_green.UNIT_DISK, a)
    outside = numkit.first_where(np.logical_not(abs(z) <= 1 + 1e-12), z)
    if outside is not None:
        raise DomainError(f"slit map implemented on the unit disk: {outside} "
                          "lies outside")
    d = np.atleast_1d(z).ravel() - a
    mean = numkit.integrate(
        lambda t: planar_green._disk_image(planar_green.UNIT_DISK, a + d[:, None] * t, a),
        *numkit.gauss_legendre_rule((0.0, 1.0), _SLIT_NODES))
    f = d * np.exp(-d * mean)
    return f.reshape(z.shape) if isinstance(z, np.ndarray) else complex(f[0])
