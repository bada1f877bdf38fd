"""Green functions, Robin data and the disk Bergman kernel on canonical domains.

All Green functions carry the physics normalization: -Laplace G = delta_a
with G = (1/2pi)(-log|z-a| + H(z,a)), so the harmonic-measure density
-dG/dn has unit total mass.  Robin data (h0, h1) follows the expansion
H(z,a) = h0(a) + Re(h1(a)(z-a)) + O((z-a)^2) with h1 = dh0/da.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkit
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
    "fd_dirichlet_green",
    "rectangle_green_series",
]


@dataclass(frozen=True)
class DomainDescriptor:
    """Canonical planar domain.

    kinds: disk(R), half_plane (Im z > 0), slit_plane (complement of the
    ray [0, inf)), rectangle(w, h, grid) = (0,w) x (0,h), and
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
        message = _kind_function(self.kind, "invalid")(self)
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

    def boundary_curve(self, truncation: float = 40.0) -> numkit.Curve:
        return _kind_function(self.kind, "boundary_curve",
                              "no boundary curve for kind {!r}")(self, truncation)

    def area_rule(self, resolution: int) -> tuple[np.ndarray, np.ndarray]:
        """Area quadrature nodes and weights: a polar tensor rule on disks,
        a tensor midpoint rule on rectangles."""
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


def _slit_root(z: complex) -> complex:
    """sqrt with branch cut along [0, inf): the root with positive Im."""
    s = cmath.sqrt(z)
    return s if s.imag > 0 else -s


def _require_interior(domain: DomainDescriptor, *points: complex) -> "_Kind":
    """The domain's kind record, once every (complex) point is checked interior."""
    spec = _KINDS[domain.kind]
    for p in points:
        if not spec.contains(domain, p):
            raise DomainError(f"{p} is not interior to {domain.kind}")
    return spec


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
    spec = _require_interior(domain, z, a)
    if abs(z - a) < 1e-14:
        raise PoleError("Green function pole at z = a")
    return spec.green(domain, z, a)


def green_z_derivative(domain: DomainDescriptor, z: complex, a: complex) -> complex:
    """dG/dz for the closed-form kinds (used by contour formulas)."""
    dgdz = _kind_function(domain.kind, "green_z_derivative",
                          "no closed-form derivative for kind {!r}")
    return dgdz(domain, complex(z), complex(a))


def robin_data(domain: DomainDescriptor, a: complex,
               _rect_offset: int = 4) -> GreenExpansion:
    """Robin function h0(a), coefficient h1(a) = dh0/da, and curvature.

    Closed forms for disk / half-plane / slit plane (curvature -4, the
    Liouville case); the rectangle goes through the finite-difference
    oracle with Richardson extrapolation over two grids.
    """
    a = complex(a)
    spec = _require_interior(domain, a)
    if spec.boundary_distance(domain, a) < 1e-9:
        raise ConditioningError("point too close to the boundary for Robin data")
    return spec.robin(domain, a, _rect_offset)


def h1_contour(domain: DomainDescriptor, a: complex, n: int = 256) -> complex:
    """h1 from the contour formula 4*pi*i * oint (dG/dz)^2 dz.

    For the half-plane the contour is a truncated segment of the real
    axis; the truncation tail decays like the cube of the cutoff.
    """
    a = complex(a)
    _require_interior(domain, a)
    curve = domain.boundary_curve()
    val = numkit.contour_integral(lambda z: green_z_derivative(domain, z, a) ** 2,
                                  curve, n=n)
    return 4j * math.pi * val


def poisson_value(boundary_data: Callable[[complex], float], a: complex,
                  R: float = 1.0, n: int = 256) -> float:
    """Harmonic extension at a from boundary values on |z| = R (trapezoid rule)."""
    a = complex(a)
    r = abs(a)
    if r >= R:
        raise DomainError("evaluation point must satisfy |a| < R")
    phi = cmath.phase(a) if r > 0 else 0.0
    theta, w = numkit.trapezoid_rule(n, 2 * math.pi)
    kernel = (R * R - r * r) / (R * R - 2 * R * r * np.cos(theta - phi) + r * r)
    return float(numkit.integrate(boundary_data, R * np.exp(1j * theta),
                                  w * kernel / (2 * math.pi)))


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


def curvature_of_metric(gamma: Callable[[complex], float], z: complex,
                        h: float = 1e-4) -> float:
    """Gaussian curvature of ds = exp(-gamma)|dz|: kappa = exp(2 gamma) Lap gamma."""
    lap = numkit.laplacian_at(gamma, complex(z), h)
    return math.exp(2 * gamma(complex(z))) * lap


def bergman_disk(z: complex, a: complex) -> complex:
    """Bergman kernel of the unit disk, K(z,a) = 1/(pi (1 - z conj(a))^2)."""
    z, a = complex(z), complex(a)
    return 1.0 / (math.pi * (1 - z * a.conjugate()) ** 2)


def szego_disk(z: complex, a: complex) -> complex:
    """Szego kernel of the unit disk, 1/(2 pi (1 - z conj(a)))."""
    return 1.0 / (2 * math.pi * (1 - complex(z) * complex(a).conjugate()))


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
        x, y = complex(z).real, complex(z).imag
        i = min(int(x / self.hx), self.values.shape[0] - 2)
        j = min(int(y / self.hy), self.values.shape[1] - 2)
        tx = x / self.hx - i
        ty = y / self.hy - j
        v = self.values
        return float((1 - tx) * (1 - ty) * v[i, j] + tx * (1 - ty) * v[i + 1, j]
                     + (1 - tx) * ty * v[i, j + 1] + tx * ty * v[i + 1, j + 1])


class RectangleGreenSolver:
    """Factorized 5-point Laplacian on a rectangle grid, reused across sources."""

    def __init__(self, domain: DomainDescriptor, grid: int | None = None):
        if domain.kind != "rectangle":
            raise ParameterError("solver requires a rectangle domain")
        n = grid if grid is not None else domain.grid
        if n > 512:
            raise ParameterError("grids are capped at 512^2")
        self.domain = domain
        self.nx = n
        self.hx = domain.w / n
        self.ny = max(2, int(round(domain.h / self.hx)))
        self.hy = domain.h / self.ny
        if self.hx > min(domain.w, domain.h) / 32:
            raise ParameterError("grid spacing must be at most min(w,h)/32")
        # scipy.sparse is imported here, not at module level: it adds ~30 MB
        # of RSS and most of the import time to runs that factor no grid
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        ix = self.nx - 1
        iy = self.ny - 1
        dx = sp.diags([1, -2, 1], [-1, 0, 1], shape=(ix, ix), dtype=float) / self.hx ** 2
        dy = sp.diags([1, -2, 1], [-1, 0, 1], shape=(iy, iy), dtype=float) / self.hy ** 2
        lap = sp.kron(dx, sp.identity(iy)) + sp.kron(sp.identity(ix), dy)
        try:
            self._lu = spla.splu((-lap).tocsc())
        except RuntimeError as exc:  # degenerate grid
            raise ParameterError(f"singular linear system: {exc}") from exc

    def node_index(self, a: complex) -> tuple[int, int]:
        i = round(complex(a).real / self.hx)
        j = round(complex(a).imag / self.hy)
        if not (0 < i < self.nx and 0 < j < self.ny):
            raise DomainError("source must be an interior grid node")
        if (abs(i * self.hx - complex(a).real) > 1e-9 * self.hx
                or abs(j * self.hy - complex(a).imag) > 1e-9 * self.hy):
            raise DomainError(f"source {a} is not a grid node")
        return i, j

    def solve(self, a: complex) -> RectangleGreenGrid:
        i, j = self.node_index(a)
        iy = self.ny - 1
        rhs = np.zeros((self.nx - 1) * iy)
        rhs[(i - 1) * iy + (j - 1)] = 1.0 / (self.hx * self.hy)
        sol = self._lu.solve(rhs)
        full = np.zeros((self.nx + 1, self.ny + 1))
        full[1:-1, 1:-1] = sol.reshape(self.nx - 1, iy)
        return RectangleGreenGrid(self.domain, complex(a), full)


@functools.lru_cache(maxsize=4)
def _rectangle_solver(w: float, h: float, n: int) -> RectangleGreenSolver:
    """The factorized solver of the (0,w) x (0,h) rectangle on an n grid,
    shared per process.  At most four factors stay alive (a 192 grid holds
    about 38 MB); the public ``RectangleGreenSolver`` never caches."""
    return RectangleGreenSolver(DomainDescriptor.rectangle(w, h, n))


def fd_dirichlet_green(domain: DomainDescriptor, a: complex,
                       grid: int | None = None) -> RectangleGreenGrid:
    """Numeric Dirichlet Green function on a rectangle (unit point source,
    zero boundary); second-order convergent in the grid spacing."""
    if domain.kind != "rectangle":
        raise ParameterError("solver requires a rectangle domain")
    n = grid if grid is not None else domain.grid
    return _rectangle_solver(domain.w, domain.h, n).solve(a)


def rectangle_green_series(domain: DomainDescriptor, z: complex, a: complex,
                           terms: int = 400) -> float:
    """Eigenfunction-series oracle for the rectangle Green function.

    Sine expansion along the axis with the larger source/target separation,
    with 1D two-point kernels in the transverse direction; geometric
    convergence whenever the separation along the chosen axis is positive.
    """
    z, a = complex(z), complex(a)
    w, h = domain.w, domain.h
    if abs(z.real - a.real) >= abs(z.imag - a.imag):
        # expand in sin(n pi y / h), propagate in x
        u1, u2, span = z.imag, a.imag, h
        x1, x2, width = z.real, a.real, w
    else:
        u1, u2, span = z.real, a.real, w
        x1, x2, width = z.imag, a.imag, h
    lo, hi = min(x1, x2), max(x1, x2)
    total = 0.0
    for nmode in range(1, terms + 1):
        k = nmode * math.pi / span
        # 1D Green of -d^2/dx^2 + k^2 with Dirichlet ends, written in
        # decaying exponentials so large k stays finite
        denom = -math.expm1(-2 * k * width)
        g = (math.exp(-k * (hi - lo)) - math.exp(-k * (hi + lo))
             - math.exp(-k * (2 * width - hi - lo))
             + math.exp(-k * (2 * width - hi + lo))) / (2 * k * denom)
        term = (2.0 / span) * math.sin(nmode * math.pi * u1 / span) \
            * math.sin(nmode * math.pi * u2 / span) * g
        total += term
        # the sine factors vanish at symmetric nodes, so gate the exit on
        # the mode envelope rather than on a single term
        if (2.0 / span) * abs(g) < 1e-17 and nmode > 8:
            break
    return total


def _nearest_node(solver: RectangleGreenSolver, a: complex) -> complex:
    i = round(complex(a).real / solver.hx)
    j = round(complex(a).imag / solver.hy)
    return complex(i * solver.hx, j * solver.hy)


def _rectangle_h0_single(solver: RectangleGreenSolver, a: complex,
                         offset_nodes: int) -> float:
    """h0 estimate on one grid: 2*pi*G + log|z-a| averaged over the symmetric
    4-point stencil at a fixed node offset (odd/even expansion terms cancel)."""
    src = _nearest_node(solver, a)
    g = solver.solve(src)
    d = offset_nodes * solver.hx
    vals = [2 * math.pi * g.value(src + dz) + math.log(abs(dz))
            for dz in (d, -d, 1j * d, -1j * d)]
    return float(np.mean(vals))


def _rectangle_robin(domain: DomainDescriptor, a: complex, offset: int) -> GreenExpansion:
    """h0 on a rectangle via the fd oracle plus Richardson extrapolation.

    The stencil offset is held at the same physical size on both grids so
    the extrapolation removes the O(h^2) solve error.
    """
    n1 = domain.grid
    coarse = _rectangle_solver(domain.w, domain.h, n1)
    fine = _rectangle_solver(domain.w, domain.h, 2 * n1)
    h0 = (4 * _rectangle_h0_single(fine, a, 2 * offset)
          - _rectangle_h0_single(coarse, a, offset)) / 3
    # h1 by central differences of the fine-grid h0 over a grid-aligned step
    step = 4 * fine.hx
    def h0_at(p: complex) -> float:
        return _rectangle_h0_single(fine, p, 2 * offset)
    dx = (h0_at(a + step) - h0_at(a - step)) / (2 * step)
    dy = (h0_at(a + 1j * step) - h0_at(a - 1j * step)) / (2 * step)
    return GreenExpansion(h0, 0.5 * (dx - 1j * dy), -4.0)


def _rectangle_harmonic(domain: DomainDescriptor, a: complex,
                        _m: int) -> tuple[np.ndarray, np.ndarray]:
    """-dG/dn on the boundary nodes by a one-sided second-order difference of
    the finite-difference Green function (which vanishes on the boundary)."""
    solver = _rectangle_solver(domain.w, domain.h, domain.grid)
    g = solver.solve(_nearest_node(solver, a))
    pts, wts = [], []
    hx, hy = solver.hx, solver.hy
    v = g.values
    nx, ny = solver.nx, solver.ny
    for i in range(1, nx):
        x = i * hx
        pts.append(complex(x, 0.0))
        wts.append((4 * v[i, 1] - v[i, 2]) / (2 * hy) * hx)
        pts.append(complex(x, domain.h))
        wts.append((4 * v[i, ny - 1] - v[i, ny - 2]) / (2 * hy) * hx)
    for j in range(1, ny):
        y = j * hy
        pts.append(complex(0.0, y))
        wts.append((4 * v[1, j] - v[2, j]) / (2 * hx) * hy)
        pts.append(complex(domain.w, y))
        wts.append((4 * v[nx - 1, j] - v[nx - 2, j]) / (2 * hx) * hy)
    wts = np.asarray(wts)
    total = wts.sum()
    if abs(total - 1.0) > 1e-3:
        raise ConditioningError(f"harmonic-measure mass {total:.6f} off unity")
    return np.asarray(pts), wts / total


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

def _disk_robin(d: DomainDescriptor, a: complex, _offset: int) -> GreenExpansion:
    R = d.R
    h0 = math.log((R * R - abs(a) ** 2) / R)
    h1 = -a.conjugate() / (R * R - abs(a) ** 2)
    return GreenExpansion(h0, h1, -4.0)


def _disk_harmonic(d: DomainDescriptor, a: complex,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Poisson density on m equispaced boundary nodes."""
    R = d.R
    t, w = numkit.trapezoid_rule(m)
    zs = R * np.exp(2j * math.pi * t)
    dens = (R * R - abs(a) ** 2) / (2 * math.pi * R * np.abs(zs - a) ** 2)
    weights = dens * (2 * math.pi * R * w)
    return zs, weights / weights.sum()


def _slit_green(d: DomainDescriptor, z: complex, a: complex) -> float:
    w, wa = _slit_root(z), _slit_root(a)
    return -math.log(abs((w - wa) / (w - wa.conjugate()))) / (2 * math.pi)


def _slit_dgdz(d: DomainDescriptor, z: complex, a: complex) -> complex:
    w, wa = _slit_root(z), _slit_root(a)
    dwdz = 1.0 / (2 * w)
    return -(1.0 / (w - wa) - 1.0 / (w - wa.conjugate())) * dwdz / (4 * math.pi)


def _slit_robin(d: DomainDescriptor, a: complex, _offset: int) -> GreenExpansion:
    w = _slit_root(a)
    return GreenExpansion(math.log(4 * abs(w) * w.imag),
                          1.0 / (4 * a) + 1.0 / (4j * w * w.imag), -4.0)


@functools.lru_cache(maxsize=16)
def _strip_double(tau: complex):
    """The strip's torus double (lattice constants included), built once per tau."""
    from . import schottky
    return schottky.StripDouble(tau)


def _strip_green(d: DomainDescriptor, z: complex, a: complex) -> float:
    from . import schottky
    return schottky.g_electro_strip(z, a, _strip_double(d.tau))


def _strip_robin(d: DomainDescriptor, a: complex, _offset: int) -> GreenExpansion:
    from . import schottky
    dbl = _strip_double(d.tau)
    h0 = schottky.gamma_electro(a, dbl)
    h1 = schottky.gamma_electro_gradient(a, dbl)
    kappa = -4 * math.pi * schottky.strip_bergman_kernels(a, a, dbl)[0].real \
        * math.exp(2 * h0)
    return GreenExpansion(h0, h1, kappa)


@dataclass(frozen=True)
class _Kind:
    """One domain kind as plain functions of its descriptor d.  The
    optional operations are None where the kind has no closed form."""

    parse: Callable          # document dict -> DomainDescriptor
    to_dict: Callable        # d -> document dict
    contains: Callable       # (d, z) -> bool
    boundary_distance: Callable  # (d, z) -> float, > 0 exactly inside
    green: Callable          # (d, z, a) -> float
    robin: Callable          # (d, a, rectangle stencil offset) -> GreenExpansion
    invalid: Callable = lambda d: None   # d -> error message, or None when valid
    green_z_derivative: Callable | None = None   # (d, z, a) -> complex
    boundary_curve: Callable | None = None       # (d, truncation) -> Curve
    # constant-speed positively oriented parametrisation of the boundary:
    # (d, t ndarray in [0, 1], side) -> (z, dz/dt, d2z/dt2), one-sided at the
    # corner parameters of boundary_breaks
    boundary_jet: Callable | None = None
    boundary_breaks: Callable = lambda d: ()
    area_rule: Callable | None = None    # (d, resolution) -> (nodes, weights)
    harmonic: Callable | None = None     # (d, a, m) -> (points, unit-mass weights)


_KINDS: dict[str, _Kind] = {
    "disk": _Kind(
        parse=lambda data: DomainDescriptor.disk(float(data["R"])),
        to_dict=lambda d: {"kind": "disk", "R": d.R},
        invalid=lambda d: "disk radius must be positive" if d.R <= 0 else None,
        contains=lambda d, z: abs(z) < d.R,
        boundary_distance=lambda d, z: d.R - abs(z),
        green=lambda d, z, a: -math.log(
            abs(d.R * (z - a) / (d.R * d.R - z * a.conjugate()))) / (2 * math.pi),
        robin=_disk_robin,
        green_z_derivative=lambda d, z, a: -(d.R * d.R - abs(a) ** 2) / (
            4 * math.pi * (z - a) * (d.R * d.R - z * a.conjugate())),
        boundary_curve=lambda d, truncation: numkit.circle(0j, d.R),
        # reads only d.R, so equilibrium's circle carriers share it
        boundary_jet=lambda d, t, side=1: _circle_jet(d.R, t),
        area_rule=lambda d, n: numkit.polar_rule(
            0j, numkit.midpoint_rule(2 * n, 2 * math.pi), d.R, n),
        harmonic=_disk_harmonic,
    ),
    "half_plane": _Kind(
        parse=lambda data: DomainDescriptor.half_plane(),
        to_dict=lambda d: {"kind": "half_plane"},
        contains=lambda d, z: z.imag > 0,
        boundary_distance=lambda d, z: z.imag,
        green=lambda d, z, a: -math.log(abs((z - a) / (z - a.conjugate()))) / (2 * math.pi),
        robin=lambda d, a, _offset: GreenExpansion(
            math.log(2 * a.imag), -0.5j / a.imag, -4.0),
        green_z_derivative=lambda d, z, a: (
            -(1.0 / (z - a) - 1.0 / (z - a.conjugate())) / (4 * math.pi)),
        # truncated real axis, positive orientation (domain on the left)
        boundary_curve=lambda d, truncation: numkit.line_segment(
            -truncation, truncation, sample_count=512),
    ),
    "slit_plane": _Kind(
        parse=lambda data: DomainDescriptor.slit_plane(),
        to_dict=lambda d: {"kind": "slit_plane"},
        contains=lambda d, z: not (z.imag == 0 and z.real >= 0),
        boundary_distance=lambda d, z: abs(z) if z.real <= 0 else abs(z.imag),
        green=_slit_green,
        robin=_slit_robin,
        green_z_derivative=_slit_dgdz,
    ),
    "rectangle": _Kind(
        parse=lambda data: DomainDescriptor.rectangle(
            float(data["w"]), float(data["h"]), int(data.get("grid", 128))),
        to_dict=lambda d: {"kind": "rectangle", "w": d.w, "h": d.h, "grid": d.grid},
        invalid=lambda d: ("rectangle sides must be positive" if d.w <= 0 or d.h <= 0
                           else "grids are capped at 512^2" if d.grid > 512 else None),
        contains=lambda d, z: 0 < z.real < d.w and 0 < z.imag < d.h,
        boundary_distance=lambda d, z: min(z.real, d.w - z.real, z.imag, d.h - z.imag),
        green=lambda d, z, a: fd_dirichlet_green(d, a).value(z),
        robin=_rectangle_robin,
        boundary_jet=_rectangle_jet,
        boundary_breaks=_rectangle_breaks,
        area_rule=_rectangle_area_rule,
        harmonic=_rectangle_harmonic,
    ),
    "periodic_strip": _Kind(
        parse=lambda data: DomainDescriptor.periodic_strip(
            complex(data["tau"][0], data["tau"][1])),
        to_dict=lambda d: {"kind": "periodic_strip", "tau": [d.tau.real, d.tau.imag]},
        invalid=lambda d: ("periodic strip needs purely imaginary tau, Im tau > 0"
                           if abs(d.tau.real) > 1e-14 or d.tau.imag <= 0 else None),
        contains=lambda d, z: -0.5 < z.real < 0.0,
        boundary_distance=lambda d, z: min(-z.real, z.real + 0.5),
        green=_strip_green,
        robin=_strip_robin,
    ),
}
