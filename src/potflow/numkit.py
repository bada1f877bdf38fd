"""Shared numeric substrate.

Complex calculus by central differences, contour and area quadrature, and
an embedded Runge-Kutta 4(5) integrator with PI step control.  Everything
here is pure and reentrant; all state lives in the arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CollisionError, EvaluationError, ParameterError

__all__ = [
    "Curve",
    "Trajectory",
    "circle",
    "line_segment",
    "contour_integral",
    "wirtinger_derivative",
    "mixed_second_derivative",
    "fd_laplacian",
    "laplacian_at",
    "area_quadrature",
    "gauss_legendre_panel",
    "rk_integrate",
]

# Finite-difference steps balancing truncation against double-precision
# roundoff (first / mixed second derivatives).
DEFAULT_H1 = 1e-5
DEFAULT_H2 = 1e-4


def require_finite(value: complex, node) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise EvaluationError(node)
    return value


# ---------------------------------------------------------------------------
# curves and contour quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """Parametrized curve t in [0,1) -> C.

    ``point`` and ``derivative`` must be smooth; for ``closed`` curves both
    are 1-periodic, which makes the trapezoid rule spectrally accurate.
    """

    point: Callable[[float], complex]
    derivative: Callable[[float], complex]
    orientation: int = +1
    sample_count: int = 256
    closed: bool = True

    def points(self, n: int) -> np.ndarray:
        t = np.arange(n) / n if self.closed else np.linspace(0.0, 1.0, n)
        return np.array([self.point(ti) for ti in t])


def circle(center: complex = 0j, radius: float = 1.0, orientation: int = +1,
           sample_count: int = 256) -> Curve:
    """Positively (or negatively) oriented circle."""
    if radius <= 0:
        raise ParameterError("radius must be positive")
    s = orientation

    def pt(t: float) -> complex:
        return center + radius * np.exp(2j * np.pi * s * t)

    def dpt(t: float) -> complex:
        return 2j * np.pi * s * radius * np.exp(2j * np.pi * s * t)

    return Curve(pt, dpt, orientation, sample_count, closed=True)


def line_segment(z0: complex, z1: complex, sample_count: int = 64) -> Curve:
    """Open straight segment from z0 to z1."""
    return Curve(lambda t: z0 + (z1 - z0) * t,
                 lambda t: z1 - z0,
                 +1, sample_count, closed=False)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def gauss_legendre_panel(f, a: float, b: float, panels: int = 8) -> complex:
    """Composite 16-point Gauss-Legendre rule for smooth integrands on [a,b]."""
    total = 0.0 + 0.0j
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for x, w in zip(_GL_NODES, _GL_WEIGHTS):
            total += w * half * f(mid + half * x)
    return total


def contour_integral(f: Callable[[complex], complex], curve: Curve,
                     n: int | None = None) -> complex:
    """Integrate f along the curve.

    Closed analytic curves use the trapezoid rule (spectrally accurate for
    analytic integrands); open curves use composite Gauss-Legendre.
    """
    if n is None:
        n = curve.sample_count
    if n < 16:
        raise ParameterError("need at least 16 sample nodes")
    if curve.closed:
        t = np.arange(n) / n
        total = 0j
        for ti in t:
            z = curve.point(ti)
            total += require_finite(f(z), z) * curve.derivative(ti)
        return total / n

    def integrand(t):
        z = curve.point(t)
        return require_finite(f(z), z) * curve.derivative(t)

    return gauss_legendre_panel(integrand, 0.0, 1.0, panels=max(4, n // 16))


# ---------------------------------------------------------------------------
# finite differences in the Wirtinger calculus
# ---------------------------------------------------------------------------

def wirtinger_derivative(f: Callable[[complex], complex], z0: complex,
                         which: str = "dz", h: float | None = None) -> complex:
    """Central-difference Wirtinger derivative, error O(h^2).

    ``which`` is one of ``"dz"``, ``"dzbar"``, ``"dzdzbar"``.
    d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2; the mixed
    second derivative is Laplacian/4 on the 5-point stencil.
    """
    if h is None:
        h = DEFAULT_H1 if which in ("dz", "dzbar") else DEFAULT_H2
    if not (1e-8 <= h <= 1e-2):
        raise ParameterError("step h must lie in [1e-8, 1e-2]")
    fe = lambda z: require_finite(f(z), z)
    if which == "dz":
        dx = (fe(z0 + h) - fe(z0 - h)) / (2 * h)
        dy = (fe(z0 + 1j * h) - fe(z0 - 1j * h)) / (2 * h)
        return 0.5 * (dx - 1j * dy)
    if which == "dzbar":
        dx = (fe(z0 + h) - fe(z0 - h)) / (2 * h)
        dy = (fe(z0 + 1j * h) - fe(z0 - 1j * h)) / (2 * h)
        return 0.5 * (dx + 1j * dy)
    if which == "dzdzbar":
        lap = (fe(z0 + h) + fe(z0 - h) + fe(z0 + 1j * h) + fe(z0 - 1j * h)
               - 4 * fe(z0)) / (h * h)
        return lap / 4.0
    raise ParameterError(f"unknown derivative kind {which!r}")


def mixed_second_derivative(f2: Callable[[complex, complex], complex],
                            z0: complex, a0: complex,
                            h: float = DEFAULT_H2) -> complex:
    """d^2/dz dabar of a two-point function f2(z, a), error O(h^2)."""
    def da_bar(z):
        g = lambda a: f2(z, a)
        return wirtinger_derivative(g, a0, "dzbar", h)

    return wirtinger_derivative(da_bar, z0, "dz", h)


def fd_laplacian(samples: Sequence[complex], h: float) -> float:
    """Standard 5-point Laplacian from stencil values.

    ``samples`` holds (center, +h, -h, +ih, -ih) values on a uniform
    stencil of spacing h.
    """
    c, e, w, n, s = samples
    for v in samples:
        require_finite(complex(v), None)
    return float(((e + w + n + s - 4 * c) / (h * h)).real)


def laplacian_at(f: Callable[[complex], float], z0: complex,
                 h: float = DEFAULT_H2) -> float:
    samples = [f(z0), f(z0 + h), f(z0 - h), f(z0 + 1j * h), f(z0 - 1j * h)]
    return fd_laplacian(samples, h)


# ---------------------------------------------------------------------------
# area quadrature
# ---------------------------------------------------------------------------

def _disk_rule(center: complex, radius: float, nr: int, nt: int,
               r_inner: float = 0.0, sqrt_cluster: bool = False):
    """Polar tensor rule on an annulus/disk; returns nodes and weights.

    ``sqrt_cluster=True`` substitutes r = u^2 to cluster nodes toward the
    inner edge, which tames integrable (log-type) singularities there.
    """
    xt = (np.arange(nt) + 0.5) / nt * 2 * np.pi
    xg, wg = np.polynomial.legendre.leggauss(nr)
    if sqrt_cluster:
        u0, u1 = math.sqrt(r_inner), math.sqrt(radius)
        u = 0.5 * (u1 - u0) * xg + 0.5 * (u1 + u0)
        wu = 0.5 * (u1 - u0) * wg
        r = u * u
        wr = wu * 2 * u
    else:
        r = 0.5 * (radius - r_inner) * xg + 0.5 * (radius + r_inner)
        wr = 0.5 * (radius - r_inner) * wg
    rr, tt = np.meshgrid(r, xt, indexing="ij")
    ww = np.outer(wr * r, np.full(nt, 2 * np.pi / nt))
    nodes = center + rr * np.exp(1j * tt)
    return nodes.ravel(), ww.ravel()


def area_quadrature(f: Callable[[complex], complex], region,
                    resolution: int = 64,
                    singularities: Sequence[complex] = (),
                    excision_radius: float = 1e-2,
                    with_error: bool = False):
    """Integrate f dx dy over a region that supplies its own rule
    ``region.area_rule(resolution) -> (nodes, weights)``.

    Declared integrable singularities are excised by a disk of radius
    ``excision_radius`` which is then covered by a sqrt-clustered polar
    refinement.  Undeclared non-finite values raise EvaluationError.
    """
    nodes, weights = region.area_rule(resolution)

    sing = [complex(s) for s in singularities]
    if sing:
        keep = np.ones(len(nodes), dtype=bool)
        for s in sing:
            keep &= np.abs(nodes - s) > excision_radius
        nodes, weights = nodes[keep], weights[keep]

    total = 0j
    for z, w in zip(nodes, weights):
        total += w * require_finite(f(z), z)

    # cover each excised disk with a clustered polar patch
    for s in sing:
        pn, pw = _disk_rule(s, excision_radius, max(24, resolution // 2),
                            max(32, resolution), sqrt_cluster=True)
        for z, w in zip(pn, pw):
            total += w * require_finite(f(z), z)

    if with_error:
        half = area_quadrature(f, region, max(resolution // 2, 16),
                               singularities, excision_radius)
        return total, abs(total - half)
    return total


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta (Dormand-Prince 5(4), PI step control)
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Integration record: strictly increasing times, states, monitors."""

    times: np.ndarray
    states: np.ndarray                       # shape (len(times), dim), complex
    monitors: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ParameterError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# Dormand-Prince coefficients (5th order propagated, 4th order embedded).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def rk_integrate(field: Callable[[np.ndarray], np.ndarray],
                 state0: Sequence[complex],
                 t_end: float,
                 tol: float,
                 monitors: Mapping[str, Callable[[np.ndarray], float]] | None = None,
                 separation: Callable[[np.ndarray], float] | None = None,
                 collision_threshold: float = 1e-10,
                 max_steps: int = 2_000_000) -> Trajectory:
    """Integrate an autonomous field with local error per step <= tol.

    ``separation``, when given, returns the minimal pairwise distance of
    the state; falling below ``collision_threshold`` aborts with a
    CollisionError carrying the time stamp.
    """
    if not (1e-12 <= tol <= 1e-3):
        raise ParameterError("tol must lie in [1e-12, 1e-3]")
    if t_end <= 0:
        raise ParameterError("t_end must be positive (reverse the field instead)")
    y = np.asarray(state0, dtype=complex)
    if not np.all(np.isfinite(y.view(float))):
        raise EvaluationError(y, "non-finite initial state")

    t = 0.0
    times = [0.0]
    states = [y.copy()]
    mon = {name: [fn(y)] for name, fn in (monitors or {}).items()}

    # initial step from the field magnitude
    f0 = np.asarray(field(y), dtype=complex)
    scale = tol * (1.0 + np.max(np.abs(y)))
    h = min(abs(t_end) / 10.0, (scale / (np.max(np.abs(f0)) + 1e-30)) ** 0.2)
    h = max(h, 1e-12)

    err_prev = 1.0
    k = np.zeros((7, y.size), dtype=complex)
    steps = 0
    while t < t_end:
        if steps > max_steps:
            raise ParameterError(f"step budget exhausted at t={t:.6g}")
        h = min(h, t_end - t)
        k[0] = field(y)
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = field(yi)
        y5 = y + h * (_DP_B5 @ k)
        y4 = y + h * (_DP_B4 @ k)
        sc = tol * (1.0 + np.abs(y))
        err = float(np.max(np.abs(y5 - y4) / sc)) + 1e-300

        if err <= 1.0:
            t += h
            y = y5
            if separation is not None:
                sep = separation(y)
                if sep < collision_threshold:
                    raise CollisionError(t, sep)
            if not np.all(np.isfinite(y.view(float))):
                raise EvaluationError(y, "non-finite state")
            times.append(t)
            states.append(y.copy())
            for name, fn in (monitors or {}).items():
                mon[name].append(fn(y))
            # PI controller (Gustafsson): combine current and previous error
            fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
            err_prev = err
        else:
            fac = max(0.2, 0.9 * err ** (-0.2))
        h *= min(5.0, max(0.2, fac))
        steps += 1

    return Trajectory(np.asarray(times), np.asarray(states),
                      {name: np.asarray(v) for name, v in mon.items()})
