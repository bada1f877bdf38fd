"""Green functions, Robin data and the disk Bergman kernel on canonical domains.

All Green functions carry the physics normalization: -Laplace G = delta_a
with G = (1/2pi)(-log|z-a| + H(z,a)), so the harmonic-measure density
-dG/dn has unit total mass.  Robin data (h0, h1) follows the expansion
H(z,a) = h0(a) + Re(h1(a)(z-a)) + O((z-a)^2) with h1 = dh0/da.

Every kind answers in closed form: the rectangle's Schottky double (its
reflections in the four sides) is the torus with periods 2w and 2ih, so
its G is a theta1 quotient on the lattice (1, i h/w).  Its eigenfunction
series and 5-point finite-difference Green function remain as oracles.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import elliptic, numkit
from .errors import ConditioningError, DomainError, ParameterError, PoleError

__all__ = [
    "DomainDescriptor",
    "GreenExpansion",
    "RectangleGreenGrid",
    "green",
    "robin_data",
    "h1_contour",
    "poisson_value",
    "conformal_transport",
    "curvature_of_metric",
    "bergman_disk",
    "szego_disk",
    "rectangle_green_series",
]


# Sizes (radius, sides, lengths) accepted for domains and Fekete carriers.
# Squares of sizes appear throughout (R^2 in the disk's closed forms, z'^2
# and 1/(z_j - z_k)^2 in the Fekete Newton step) and leave the
# floating-point range near 1e154 and 1e-154; a factor 1e50 is kept to
# spare on either side (fekete at n = 64 runs warning-free from 1e-150 to
# 1e153).
SIZE_RANGE = (1e-100, 1e100)
# rectangle grids have at most MAX_GRID cells along x
MAX_GRID = 512
# Strip points have |Im z| <= STRIP_IM_MAX Im tau: the reduction of Im z
# modulo Im tau then keeps at least half the significand
STRIP_IM_MAX = 2.0 ** 26


def size_error(name: str, *sizes: float) -> str | None:
    """The complaint about sizes outside SIZE_RANGE, or None."""
    lo, hi = SIZE_RANGE
    if any(s <= 0 for s in sizes):
        return f"{name} must be positive"
    if not all(lo <= s <= hi for s in sizes):
        return f"{name} must lie in [{lo:g}, {hi:g}]"
    return None


@dataclass(frozen=True)
class DomainDescriptor:
    """Canonical planar domain.

    kinds: disk(R), half_plane (Im z > 0), slit_plane (complement of the
    ray [0, inf)), rectangle(w, h, grid) = (0,w) x (0,h) (grid: only the
    default mesh of the ``RectangleGreenSolver`` oracle), and
    periodic_strip(tau) = {-1/2 < Re z < 0} with Im z mod Im tau.
    Everything that depends on the kind, validation included, lives in
    the ``_KINDS`` table at the end of this module.
    """

    kind: str
    R: float = 1.0
    w: float = 1.0
    h: float = 1.0
    grid: int = 128
    tau: complex = 2j

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.R, self.w, self.h, self.tau))):
            raise ParameterError("domain parameters must be finite")
        # R, w and h: the kind's sizes, and defaults of 1 that it ignores
        message = (_kind_function(self.kind, "invalid")(self)
                   or size_error("domain sizes", self.R, self.w, self.h))
        if message:
            raise ParameterError(message)

    @staticmethod
    def disk(R: float = 1.0) -> "DomainDescriptor":
        return DomainDescriptor("disk", R=R)

    @staticmethod
    def half_plane() -> "DomainDescriptor":
        return DomainDescriptor("half_plane")

    @staticmethod
    def slit_plane() -> "DomainDescriptor":
        return DomainDescriptor("slit_plane")

    @staticmethod
    def rectangle(w: float, h: float, grid: int = 128) -> "DomainDescriptor":
        return DomainDescriptor("rectangle", w=w, h=h, grid=grid)

    @staticmethod
    def periodic_strip(tau: complex) -> "DomainDescriptor":
        return DomainDescriptor("periodic_strip", tau=complex(tau))

    def contains(self, z: complex) -> bool:
        return _KINDS[self.kind].contains(self, complex(z))

    def boundary_distance(self, z: complex) -> float:
        return _KINDS[self.kind].boundary_distance(self, complex(z))

    def boundary_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n nodes on the positively oriented boundary and their dz-weights."""
        return _kind_function(self.kind, "boundary_rule",
                              "no boundary curve for kind {!r}")(self, n)

    def area_rule(self, resolution: int) -> tuple[np.ndarray, np.ndarray]:
        """Area quadrature nodes and weights: a tensor midpoint rule on
        rectangles, the one kind with an area rule."""
        return _kind_function(self.kind, "area_rule",
                              "unsupported region kind {!r}")(self, resolution)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_dict(self) -> dict:
        return _KINDS[self.kind].to_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "DomainDescriptor":
        return _kind_function(data.get("kind"), "parse")(data)


@dataclass(frozen=True)
class GreenExpansion:
    """Robin data at a point: h0, h1 = dh0/da, and the metric curvature."""

    h0: float
    h1: complex
    curvature: float = -4.0


def _slit_root(z):
    """sqrt with branch cut along [0, inf): the root with positive Im."""
    if isinstance(z, np.ndarray):
        s = np.sqrt(z)
        return np.where(s.imag > 0, s, -s)
    s = cmath.sqrt(z)
    return s if s.imag > 0 else -s


def _require_interior(domain, *points) -> None:
    """Raise DomainError naming the first point (Python complex, or the first
    element of an array on the disk and the strip) that the kind's contains
    refuses; domain may be a StripDouble.  A scalar's bool is read as it is."""
    spec = _KINDS[domain.kind]
    for p in points:
        inside = spec.contains(domain, p)
        if not (inside.all() if isinstance(inside, np.ndarray) else inside):
            where = f" ({spec.interior})" if spec.interior else ""
            raise DomainError(f"{numkit.first_where(np.logical_not(inside), p)} "
                              f"is not interior to {domain.kind}{where}")


def _kind_function(kind, name: str, missing: str = "unknown domain kind {!r}") -> Callable:
    """The named function of a kind's record; ``missing`` formats the error
    raised when the kind is unknown or has no such operation."""
    fn = getattr(_KINDS.get(kind), name, None) if isinstance(kind, str) else None
    if fn is None:
        raise ParameterError(missing.format(kind))
    return fn


def green(domain: DomainDescriptor, z: complex, a: complex) -> float:
    """Dirichlet Green function of the domain, positive inside, 0 on the boundary."""
    z, a = complex(z), complex(a)
    spec = _KINDS[domain.kind]
    if not (spec.contains(domain, z) and spec.contains(domain, a)):
        _require_interior(domain, z, a)   # raises, naming the first point outside
    if abs(z - a) < 1e-14 * (spec.size(domain, a) if spec.size else 1.0):
        raise PoleError("Green function pole at z = a")
    return float(spec.green(domain, z, a))


def green_z_derivative(domain: DomainDescriptor, z, a: complex):
    """dG/dz in closed form (used by contour formulas), for a scalar or an
    array of z.  A PoleError names the first z within green's pole bound of
    a, or whose own evaluation raises (at an image of a)."""
    spec, z, a = _KINDS[domain.kind], numkit.as_points(z), complex(a)
    pole = 1e-14 * (spec.size(domain, a) if spec.size else 1.0)
    try:
        if np.any(abs(z - a) < pole):
            raise PoleError
        val = spec.green_z_derivative(domain, z, a)
    except PoleError:
        for p in np.ravel(z).tolist():
            try:
                if abs(p - a) < pole:
                    raise PoleError
                spec.green_z_derivative(domain, p, a)
            except PoleError:
                raise PoleError(f"dG/dz pole at z = {p}, on a or an image of a") from None
        raise
    return val if isinstance(val, np.ndarray) else complex(val)


def robin_data(domain: DomainDescriptor, a: complex) -> GreenExpansion:
    """Robin function h0(a), coefficient h1(a) = dh0/da, and curvature.

    Closed forms on every kind: the simply connected ones (disk,
    half-plane, slit plane, rectangle) have curvature -4, the Liouville
    case; the periodic strip's comes from its Bergman kernel.
    """
    a = complex(a)
    spec = _KINDS[domain.kind]
    if not spec.contains(domain, a):
        _require_interior(domain, a)   # raises
    if spec.boundary_distance(domain, a) < 1e-9 * (spec.size(domain, a) if spec.size else 1.0):
        raise ConditioningError("point too close to the boundary for Robin data")
    h0, h1, curvature = spec.robin(domain, a)
    return GreenExpansion(float(h0), complex(h1), curvature)


def h1_contour(domain: DomainDescriptor, a: complex, n: int = 256) -> complex:
    """h1 from the contour formula 4*pi*i * oint (dG/dz)^2 dz.

    For the half-plane the contour is a truncated segment of the real
    axis; the truncation tail decays like the cube of the cutoff.
    """
    a = complex(a)
    _require_interior(domain, a)
    val = numkit.contour_integral(lambda z: green_z_derivative(domain, z, a) ** 2,
                                  *domain.boundary_rule(n))
    return 4j * math.pi * val


def poisson_value(boundary_data: Callable[[np.ndarray], np.ndarray], a: complex,
                  n: int = 256) -> float:
    """Harmonic extension at a from boundary values on |z| = 1 (the disk's
    Poisson rule); boundary_data receives the array of boundary nodes."""
    a = complex(a)
    _require_interior(UNIT_DISK, a)
    return float(numkit.integrate(boundary_data, *_disk_harmonic(UNIT_DISK, a, n)))


def conformal_transport(src: GreenExpansion, fprime: complex,
                        fsecond: complex) -> GreenExpansion:
    """Push Robin data through a conformal map with derivatives at the point.

    h0 gains log|f'|; h1 transforms as an affine connection,
    h1_new * f' = h1_old + f''/(2 f'); the curvature is unchanged.
    """
    if fprime == 0:
        raise ParameterError("singular map: f'(a) = 0")
    h0 = src.h0 + math.log(abs(fprime))
    h1 = (src.h1 + fsecond / (2 * fprime)) / fprime
    return GreenExpansion(h0, h1, src.curvature)


def curvature_of_metric(gamma: Callable[[complex], float], z: complex) -> float:
    """Gaussian curvature of ds = exp(-gamma)|dz|: kappa = exp(2 gamma) Lap gamma."""
    lap = numkit.laplacian_at(gamma, complex(z), 1e-4)
    return math.exp(2 * gamma(complex(z))) * lap


def bergman_disk(z, a: complex):
    """Bergman kernel of the unit disk, K(z,a) = 1/(pi (1 - z conj(a))^2),
    for a scalar or an array of z."""
    z, a = numkit.as_points(z), complex(a)
    return 1.0 / (math.pi * (1 - z * a.conjugate()) ** 2)


def szego_disk(z, a: complex):
    """Szego kernel of the unit disk, 1/(2 pi (1 - z conj(a))), for a scalar
    or an array of z."""
    return 1.0 / (2 * math.pi * (1 - numkit.as_points(z) * complex(a).conjugate()))


# ---------------------------------------------------------------------------
# rectangle: closed forms on the torus double
# ---------------------------------------------------------------------------

def _rectangle_double(ratio: float) -> elliptic.TorusLattice:
    """The lattice (1, i ratio) of the double of a rectangle of height /
    width = ratio >= 1, from the cache of ``elliptic.lattice_constants``."""
    if ratio > elliptic._MAX_IM_TAU:
        raise ParameterError(f"rectangle aspect ratio {ratio:.6g} exceeds "
                             f"{elliptic._MAX_IM_TAU:g}, the theta series' limit")
    return elliptic.lattice_constants(1j * ratio)


def _rectangle_frame(d: DomainDescriptor, *points):
    """(flip, lattice, width, height, points) in the frame where the
    rectangle is at least as tall as wide: a wide one is flipped through
    z -> i conj(z), which keeps G and h0 and maps dG/dz and h1 to
    -i conj(.).  Below, th(s) = theta1(s / p) with the period p = 2 width."""
    flip = d.w > d.h
    width, height = (d.h, d.w) if flip else (d.w, d.h)
    return (flip, _rectangle_double(height / width), width, height,
            [1j * z.conjugate() if flip else z for z in points])


def _rectangle_green(d: DomainDescriptor, z, a):
    """G = -(1/2pi) log|th(z-a) th(z+a) / (th(z-conj a) th(z+conj a))|, the
    images of a in the sides.  It is exactly 0 on x = 0 and y = 0, where the
    factors pair up as conjugates, so z is first moved into the lower-left
    quarter by the reflections in the midlines, which leave G unchanged."""
    _, L, width, height, (z, a) = _rectangle_frame(d, z, a)
    for out, mirror in ((z.real > width / 2, lambda s: width - s.conjugate()),
                        (z.imag > height / 2, lambda s: s.conjugate() + 1j * height)):
        if isinstance(z, np.ndarray):
            z, a = np.where(out, mirror(z), z), np.where(out, mirror(a), a)
        elif out:
            z, a = mirror(z), mirror(a)
    ac = a.conjugate()
    t = lambda s: elliptic.log_abs_theta1(s / (2 * width), L)
    return -((t(z - a) + t(z + a)) - (t(z - ac) + t(z + ac))) / (2 * math.pi)


def _rectangle_dgdz(d: DomainDescriptor, z, a):
    flip, L, width, _, (z, a) = _rectangle_frame(d, z, a)
    ac, p = a.conjugate(), 2 * width
    r = lambda s: elliptic.theta1_log_derivative(s / p, L)
    val = -(r(z - a) + r(z + a) - r(z - ac) - r(z + ac)) / (4 * math.pi * p)
    return -1j * val.conjugate() if flip else val


def _rectangle_robin(d: DomainDescriptor, a: complex) -> tuple:
    """h0 = -log|th'(0)| - log|th(2a)| + log|th(2i Im a)| + log|th(2 Re a)|,
    the limit of 2 pi G + log|z - a| at z = a, and its a-derivative h1."""
    flip, L, width, _, (a,) = _rectangle_frame(d, a)
    p = 2 * width
    u = [s / p for s in (2 * a, 2j * a.imag, 2 * a.real)]
    t = [elliptic.log_abs_theta1(s, L) for s in u]
    r = [elliptic.theta1_log_derivative(s, L) / p for s in u]
    # theta1'(0) is real and positive on the rectangular lattice
    h0 = math.log(p) - math.log(L.theta1_prime0.real) - t[0] + t[1] + t[2]
    h1 = -r[0] + 1j * r[1].imag + r[2].real
    return h0, -1j * h1.conjugate() if flip else h1, -4.0


def _rectangle_harmonic(d: DomainDescriptor, a: complex,
                        m: int) -> tuple[np.ndarray, np.ndarray]:
    """-dG/dn times arclength on one Gauss-Legendre rule per side, the m
    nodes shared in proportion to the side lengths.  The density is
    analytic on each closed side (G extends across it by odd reflection);
    its nearest singularities are at the mirror image of a, as far from the
    side as a is, so each rule is graded geometrically towards the foot of
    a (``numkit.sinh_rule``) and converges at a rate that a near side does
    not spoil."""
    P = 2 * (d.w + d.h)
    edges = _rectangle_breaks(d) + (1.0,)
    # per side: the arclength from 0 to the foot of a, and a's distance from it
    feet = (a.real, d.w + a.imag, 2 * d.w + d.h - a.real, P - a.imag)
    dists = (a.imag, d.w - a.real, d.h - a.imag, a.real)
    t, wt = (np.concatenate(part) for part in zip(*(
        numkit.sinh_rule(lo, hi, foot / P, dist / P, max(2, round(m * (hi - lo))))
        for lo, hi, foot, dist in zip(edges[:-1], edges[1:], feet, dists))))
    z, dz, _ = _rectangle_jet(d, t)
    # -dG/dn |dz| = -2 Re(dG/dz n) |dz| with the outward normal n = -i dz/|dz|
    return z, 2 * (1j * _rectangle_dgdz(d, z, a) * dz).real * wt


# ---------------------------------------------------------------------------
# rectangle: finite-difference oracle
# ---------------------------------------------------------------------------

class RectangleGreenGrid:
    """Gridded Dirichlet Green function on a rectangle for one source node."""

    def __init__(self, domain: DomainDescriptor, a: complex, values: np.ndarray):
        self.domain = domain
        self.a = a
        self.values = values                     # (nx+1, ny+1) including boundary
        self.hx = domain.w / (values.shape[0] - 1)
        self.hy = domain.h / (values.shape[1] - 1)

    def value(self, z: complex) -> float:
        """Bilinear interpolation; exact at grid nodes."""
        v = self.values
        x, y = complex(z).real / self.hx, complex(z).imag / self.hy
        i, j = min(int(x), v.shape[0] - 2), min(int(y), v.shape[1] - 2)
        tx, ty = x - i, y - j
        return float((1 - ty) * ((1 - tx) * v[i, j] + tx * v[i + 1, j])
                     + ty * ((1 - tx) * v[i, j + 1] + tx * v[i + 1, j + 1]))


def _sine_basis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The table S[p, k] = sin(k pi p / n) for the nodes p = 0..n and the
    modes k = 1..n-1, with the boundary rows exactly 0, and the eigenvalues
    (2/h sin(k pi / 2n))^2 of the Dirichlet second difference on the modes."""
    p, k = np.arange(n + 1)[:, None], np.arange(1, n)
    s = np.sin(math.pi / n * (p * k % (2 * n)))   # exact reduction to [0, 2 pi)
    s[[0, n]] = 0.0
    return s, (2 / h * np.sin(k * math.pi / (2 * n))) ** 2


class RectangleGreenSolver:
    """Inverse 5-point Dirichlet Laplacian on a rectangle grid, reused
    across sources.

    The second difference in x is diagonal in the discrete sine basis
    (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970): sin(k pi p / nx),
    k = 1..nx-1, are its eigenvectors, with eigenvalues
    lam_k = (2/hx sin(k pi / 2nx))^2 and squared norms nx/2.  Each mode then
    leaves the tridiagonal system (lam_k - D_yy) g = delta_j, whose Dirichlet
    Green function is hy^2 sinh(theta_k q<) sinh(theta_k (ny - q>)) /
    (sinh theta_k sinh(theta_k ny)) with sinh(theta_k / 2) = sqrt(lam_k) hy / 2.
    The grid Green function of a unit source at node (i, j) is therefore, in
    closed form,
    G_h(p, q) = sum_k Sx[p, k] Sx[i, k] wt_k E_k(q, j),
    with E_k the sinh product written in decaying exponentials: there is
    nothing to factor and no table along y.
    """

    def __init__(self, domain: DomainDescriptor, grid: int | None = None):
        if domain.kind != "rectangle":
            raise ParameterError("solver requires a rectangle domain")
        n = grid if grid is not None else domain.grid
        if n > MAX_GRID:
            raise ParameterError(f"grids are capped at {MAX_GRID}^2")
        self.domain = domain
        self.nx = n
        self.hx = domain.w / n
        self.ny = max(2, int(round(domain.h / self.hx)))
        self.hy = domain.h / self.ny
        if self.hx > min(domain.w, domain.h) / 32:
            raise ParameterError("grid spacing must be at most min(w,h)/32")
        self._sx, lam = _sine_basis(self.nx, self.hx)
        half = np.sqrt(lam) * self.hy / 2                 # sinh(theta / 2)
        self._theta = 2 * np.arcsinh(half)
        sinh_theta = 2 * half * np.sqrt(1 + half ** 2)
        self._wt = self.hy / (self.nx * self.hx * sinh_theta
                              * -np.expm1(-2 * self.ny * self._theta))

    def node_index(self, a: complex) -> tuple[int, int]:
        i, j = round(complex(a).real / self.hx), round(complex(a).imag / self.hy)
        if not (0 < i < self.nx and 0 < j < self.ny):
            raise DomainError("source must be an interior grid node")
        if (abs(i * self.hx - complex(a).real) > 1e-9 * self.hx
                or abs(j * self.hy - complex(a).imag) > 1e-9 * self.hy):
            raise DomainError(f"source {a} is not a grid node")
        return i, j

    def _transverse(self, q: np.ndarray, j: int) -> np.ndarray:
        """wt_k E_k(q, j) for the rows q, shape (len(q), nx-1), with
        E_k = 2 (1 - exp(-2 theta ny)) sinh(theta q<) sinh(theta (ny - q>))
        / sinh(theta ny); the grouping makes it exactly 0 at q = 0 and q = ny."""
        d, s = np.abs(q - j)[:, None], (q + j)[:, None]
        far = 2 * self.ny
        e = self._theta
        return self._wt * ((np.exp(-e * d) - np.exp(-e * s))
                           - (np.exp(-e * (far - s)) - np.exp(-e * (far - d))))

    def solve(self, a: complex) -> RectangleGreenGrid:
        """The whole grid Green function of the source node a."""
        i, j = self.node_index(a)
        full = (self._sx * self._sx[i]) @ self._transverse(np.arange(self.ny + 1), j).T
        return RectangleGreenGrid(self.domain, complex(a), full)


def rectangle_green_series(domain: DomainDescriptor, z: complex, a: complex) -> float:
    """Eigenfunction-series oracle for the rectangle Green function: modes
    sin(n pi y / h) times 1D two-point kernels in x, summed until their
    envelope falls below 1e-17.  Mode n decays like exp(-n pi sep / span),
    so the axes are first swapped when that makes sep / span larger."""
    z, a, w, h = complex(z), complex(a), domain.w, domain.h
    if abs(z.real - a.real) / h < abs(z.imag - a.imag) / w:
        z, a, w, h = 1j * z.conjugate(), 1j * a.conjugate(), h, w   # y <-> x
    lo, hi = sorted((z.real, a.real))
    if hi - lo < 1e-4 * h:         # beyond about 1e5 modes
        raise ParameterError("the series oracle needs z and a at least 1e-4 h apart")
    total, n = 0.0, np.arange(1, 65)
    while True:
        k = n * math.pi / h
        # 1D Green of -d^2/dx^2 + k^2, Dirichlet ends, in decaying exponentials
        g = (np.exp(-k * (hi - lo)) - np.exp(-k * (hi + lo)) - np.exp(-k * (2 * w - hi - lo))
             + np.exp(-k * (2 * w - hi + lo))) / (2 * k * -np.expm1(-2 * k * w))
        total += 2 / h * np.sum(np.sin(k * z.imag) * np.sin(k * a.imag) * g)
        # the sines vanish at symmetric nodes: stop on the envelope, not the terms
        if 2 / h * g[-1] < 1e-17:
            return float(total)
        n = np.arange(n[-1] + 1, 2 * n[-1] + 1)


def _rectangle_breaks(d: DomainDescriptor) -> tuple[float, ...]:
    """Boundary parameters of the corners 0, w, w + ih, ih."""
    P = 2 * (d.w + d.h)
    return (0.0, d.w / P, (d.w + d.h) / P, (2 * d.w + d.h) / P)


def _rectangle_jet(d: DomainDescriptor, t: np.ndarray, side=1):
    """Boundary point, dz/dt and d2z/dt2; at a corner the derivative is
    the one of the side after it (side > 0) or before it (side < 0)."""
    t = np.mod(t, 1.0)
    tb = np.array(_rectangle_breaks(d) + (1.0,))
    corners = np.array([0.0, d.w, complex(d.w, d.h), complex(0.0, d.h), 0.0])
    # linear interpolation keeps each side's constant coordinate exact
    z = np.interp(t, tb, corners)
    k = np.where(np.asarray(side) > 0, np.searchsorted(tb, t, side="right"),
                 np.searchsorted(tb, t, side="left")) - 1
    dz = 2 * (d.w + d.h) * np.array([1.0, 1j, -1.0, -1j])[k % 4]
    return z, dz, np.zeros_like(z)


def _circle_jet(R: float, t: np.ndarray):
    """R e^(2 pi i t) and its first two t-derivatives."""
    a = 2 * math.pi * np.asarray(t, dtype=float)
    z = R * (np.cos(a) + 1j * np.sin(a))
    return z, 2j * math.pi * z, -(2 * math.pi) ** 2 * z


def _rectangle_area_rule(d: DomainDescriptor, n: int) -> tuple[np.ndarray, np.ndarray]:
    ny = max(8, int(round(n * d.h / d.w)))
    return numkit.product_rule(numkit.midpoint_rule(n, d.w),
                               numkit.midpoint_rule(ny, d.h))


# ---------------------------------------------------------------------------
# the domain-kind table
# ---------------------------------------------------------------------------

# The disk's closed forms: these four and its record below, each written once.

def _disk_h0(d: DomainDescriptor, a):
    """Robin h0(a) = log((R^2 - |a|^2) / R) of the disk |z| < R."""
    return np.log((d.R * d.R - abs(a) ** 2) / d.R)


def _disk_poisson(R: float, a, z):
    """Poisson density -dG/dn(z, a) = (R^2 - |a|^2) / (2 pi R |z - a|^2) of
    the disk |z| < R at boundary points z: unit mass in arc length."""
    return (R * R - abs(a) ** 2) / (2 * math.pi * R * abs(z - a) ** 2)


def _disk_image(d: DomainDescriptor, z, a):
    """4 pi dG/dz + 1/(z - a) = -conj(a)/(R^2 - z conj(a)), the regular part
    of 4 pi dG/dz (the image charge at R^2/conj(a)); at z = a it is h1(a).
    Its conjugate is -1/(zeta - conj(z)) with zeta = R^2/a, the reflection
    `_disk_reflection` computes for the vortex field."""
    ac = a.conjugate()
    return -ac / (d.R * d.R - z * ac)


def _disk_reflection(d: DomainDescriptor, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = R^2/a, the conjugate of the image point R^2/conj(a) in the
    circle |z| = R, and inf + 0j where |a| <= 1e-300 R^2, so that 1/(out - w)
    is 0 there for every finite w: at a = 0, whose image is at infinity, and
    where numpy's R^2/a may overflow (inf + nan j for a subnormal a at R = 1).
    A dropped image adds less than 1e-300 Gamma to a velocity."""
    out.fill(math.inf)
    return np.divide(d.R * d.R, a, out=out, where=abs(a) > 1e-300 * d.R * d.R)


def _disk_rule(R: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trapezoid rule on the circle |z| = R: m equispaced angles theta =
    2 pi t, the nodes R e^{i theta} and their arc-length weights."""
    t, w = numkit.trapezoid_rule(m)
    theta = 2 * math.pi * t
    return theta, R * np.exp(1j * theta), 2 * math.pi * R * w


def _disk_harmonic(d: DomainDescriptor, a: complex,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """Poisson density times arclength on the m nodes of ``_disk_rule``."""
    _, zs, ds = _disk_rule(d.R, m)
    return zs, _disk_poisson(d.R, a, zs) * ds


def _slit_green(d: DomainDescriptor, z: complex, a: complex) -> float:
    w, wa = _slit_root(z), _slit_root(a)
    return -math.log(abs((w - wa) / (w - wa.conjugate()))) / (2 * math.pi)


def _slit_dgdz(d: DomainDescriptor, z: complex, a: complex) -> complex:
    w, wa = _slit_root(z), _slit_root(a)
    dwdz = 1.0 / (2 * w)
    return -(1.0 / (w - wa) - 1.0 / (w - wa.conjugate())) * dwdz / (4 * math.pi)


def _slit_robin(d: DomainDescriptor, a: complex) -> tuple:
    w = _slit_root(a)
    return (math.log(4 * abs(w) * w.imag),
            1.0 / (4 * a) + 1.0 / (4j * w * w.imag), -4.0)


def _strip_tau_error(tau: complex) -> str | None:
    """The complaint about a strip modulus that is not purely imaginary with
    Im tau > 0, or None.  A real part within roundoff, |Re tau| <= 1e-14,
    passes; ``_strip_lattice`` drops it."""
    return ("periodic strip needs purely imaginary tau, Im tau > 0"
            if abs(tau.real) > 1e-14 or tau.imag <= 0 else None)


def _strip_lattice(tau: complex) -> elliptic.TorusLattice:
    """The lattice of the double C/(Z + tau Z) of a strip whose tau has
    passed ``_strip_tau_error``, read from the cache of
    ``elliptic.lattice_constants`` at i Im tau: J(z) = -conj(z) is an
    involution of the rectangular torus only, so the real part is dropped."""
    return elliptic.lattice_constants(1j * tau.imag)


def _strip_contains(d, z):
    """Whether z lies in the open strip -1/2 < Re z < 0, |Im z| <= STRIP_IM_MAX
    Im d.tau of d, a strip's descriptor or StripDouble (elementwise for an
    array of z; false for inf and nan, which the bound on Im z rejects)."""
    return (-0.5 < z.real) & (z.real < 0.0) & (abs(z.imag) <= STRIP_IM_MAX * d.tau.imag)


@dataclass(frozen=True)
class _Kind:
    """One domain kind as plain functions of its descriptor d.  The
    optional operations are None where the kind has no closed form.  The
    disk's operations also take numpy arrays of z and a, element by element,
    the rectangle's green and every kind's green_z_derivative arrays of z."""

    parse: Callable          # document dict -> DomainDescriptor
    to_dict: Callable        # d -> document dict
    contains: Callable       # (d, z) -> bool
    boundary_distance: Callable  # (d, z) -> float, > 0 exactly inside
    green: Callable          # (d, z, a) -> float
    robin: Callable          # (d, a) -> (h0, h1, curvature)
    green_z_derivative: Callable  # (d, z, a) -> complex
    invalid: Callable = lambda d: None   # d -> error message, or None when valid
    boundary_rule: Callable | None = None        # (d, n) -> (nodes, dz-weights)
    # constant-speed positively oriented parametrisation of the boundary:
    # (d, t ndarray in [0, 1], side) -> (z, dz/dt, d2z/dt2), one-sided at the
    # corner parameters of boundary_breaks
    boundary_jet: Callable | None = None
    boundary_breaks: Callable = lambda d: ()
    area_rule: Callable | None = None    # (d, resolution) -> (nodes, weights)
    harmonic: Callable | None = None     # (d, a, m) -> (points, raw -dG/dn ds weights)
    interior: str = ""       # the bounds of contains, where errors should name them
    # (d, a) -> the length green's and robin_data's bounds scale with at the
    # point a: the disk's radius, the rectangle's shorter side, and on the
    # scale-free kinds |a| plus the least disk radius (h1 would overflow as
    # the bound fell to 0 with |a|); None: absolute
    size: Callable | None = None


_KINDS: dict[str, _Kind] = {
    "disk": _Kind(
        parse=lambda data: DomainDescriptor.disk(float(data["R"])),
        to_dict=lambda d: {"kind": "disk", "R": d.R},
        invalid=lambda d: "disk radius must be positive" if d.R <= 0 else None,
        contains=lambda d, z: abs(z) < d.R,
        boundary_distance=lambda d, z: d.R - abs(z),
        size=lambda d, a: d.R,
        green=lambda d, z, a: -np.log(
            abs(d.R * (z - a) / (d.R * d.R - z * a.conjugate()))) / (2 * math.pi),
        robin=lambda d, a: (_disk_h0(d, a), _disk_image(d, a, a), -4.0),
        green_z_derivative=lambda d, z, a: (
            1 / (a - z) + _disk_image(d, z, a)) / (4 * math.pi),
        boundary_rule=lambda d, n: numkit.circle_rule(0j, d.R, n),
        # reads only d.R, so equilibrium's circle carriers share it
        boundary_jet=lambda d, t, side=1: _circle_jet(d.R, t),
        harmonic=_disk_harmonic,
    ),
    "half_plane": _Kind(
        parse=lambda data: DomainDescriptor.half_plane(),
        to_dict=lambda d: {"kind": "half_plane"},
        # the bound on |z| also rejects the inf and nan parts that z.imag > 0 lets pass
        contains=lambda d, z: z.imag > 0 and abs(z) < SIZE_RANGE[1],
        interior=f"Im z > 0, |z| < {SIZE_RANGE[1]:g}",
        boundary_distance=lambda d, z: z.imag,
        size=lambda d, a: abs(a) + SIZE_RANGE[0],
        green=lambda d, z, a: -math.log(abs((z - a) / (z - a.conjugate()))) / (2 * math.pi),
        robin=lambda d, a: (math.log(2 * a.imag), -0.5j / a.imag, -4.0),
        green_z_derivative=lambda d, z, a: (
            -(1.0 / (z - a) - 1.0 / (z - a.conjugate())) / (4 * math.pi)),
        # the real axis truncated to [-40, 40], positive orientation (domain
        # on the left)
        boundary_rule=lambda d, n: numkit.segment_rule(-40.0, 40.0, n),
    ),
    "slit_plane": _Kind(
        parse=lambda data: DomainDescriptor.slit_plane(),
        to_dict=lambda d: {"kind": "slit_plane"},
        contains=lambda d, z: abs(z) < SIZE_RANGE[1] and not (z.imag == 0 and z.real >= 0),
        interior=f"z off [0, inf), |z| < {SIZE_RANGE[1]:g}",
        boundary_distance=lambda d, z: abs(z) if z.real <= 0 else abs(z.imag),
        size=lambda d, a: abs(a) + SIZE_RANGE[0],
        green=_slit_green,
        robin=_slit_robin,
        green_z_derivative=_slit_dgdz,
    ),
    "rectangle": _Kind(
        parse=lambda data: DomainDescriptor.rectangle(
            float(data["w"]), float(data["h"]), int(data.get("grid", 128))),
        to_dict=lambda d: {"kind": "rectangle", "w": d.w, "h": d.h, "grid": d.grid},
        invalid=lambda d: ("rectangle sides must be positive" if d.w <= 0 or d.h <= 0
                           else f"grids are capped at {MAX_GRID}^2" if d.grid > MAX_GRID
                           else None),
        contains=lambda d, z: 0 < z.real < d.w and 0 < z.imag < d.h,
        boundary_distance=lambda d, z: min(z.real, d.w - z.real, z.imag, d.h - z.imag),
        size=lambda d, a: min(d.w, d.h),
        green=_rectangle_green,
        robin=_rectangle_robin,
        green_z_derivative=_rectangle_dgdz,
        boundary_jet=_rectangle_jet,
        boundary_breaks=_rectangle_breaks,
        area_rule=_rectangle_area_rule,
        harmonic=_rectangle_harmonic,
    ),
    "periodic_strip": _Kind(
        parse=lambda data: DomainDescriptor.periodic_strip(
            complex(data["tau"][0], data["tau"][1])),
        to_dict=lambda d: {"kind": "periodic_strip", "tau": [d.tau.real, d.tau.imag]},
        invalid=lambda d: _strip_tau_error(d.tau),
        contains=_strip_contains,
        interior="-1/2 < Re z < 0, |Im z| <= 2^26 Im tau",
        boundary_distance=lambda d, z: min(-z.real, z.real + 0.5),
        # green and robin_data have checked the points with contains, so the
        # strip calls schottky's unchecked evaluators
        green=lambda d, z, a: schottky._g_electro(z, a, _strip_lattice(d.tau)),
        robin=lambda d, a: schottky._robin(a, _strip_lattice(d.tau)),
        green_z_derivative=lambda d, z, a: schottky._g_electro_dz(z, a, _strip_lattice(d.tau)),
    ),
}

# the unit disk, for the functions defined on it alone
UNIT_DISK = DomainDescriptor.disk(1.0)


# schottky imports this module at its top, so this module imports schottky
# at its end, when everything here is defined, whichever is imported first
from . import schottky  # noqa: E402
