"""Shared numeric substrate.

Quadrature rules as (nodes, weights) arrays with one ``integrate``, contour
and area quadrature built on them, complex calculus by central differences,
and an embedded Runge-Kutta 4(5) integrator with PI step control.  Everything
here is pure and reentrant; all state lives in the arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CollisionError, EvaluationError, ParameterError

__all__ = [
    "integrate",
    "trapezoid_rule",
    "midpoint_rule",
    "gauss_legendre_rule",
    "product_rule",
    "polar_rule",
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
# quadrature rules: every integral is a (nodes, weights) rule plus integrate
# ---------------------------------------------------------------------------

# Nodes handed to a scalar integrand per block: the Python objects of one
# block are alive at a time, not those of the whole rule.
INTEGRATE_BLOCK = 1024


def integrate(f: Callable, nodes: np.ndarray, weights: np.ndarray):
    """weights @ f(nodes) for an integrand called on Python numbers.

    f returns a scalar, or a sequence of m components for an (m,) result.
    A non-finite value raises EvaluationError naming its node.
    """
    blocks = []
    for start in range(0, len(nodes), INTEGRATE_BLOCK):
        zs = nodes[start:start + INTEGRATE_BLOCK].tolist()
        values = np.array([f(z) for z in zs])
        bad = ~np.isfinite(values)
        if bad.any():
            raise EvaluationError(zs[int(np.argwhere(bad)[0, 0])])
        blocks.append(values)
    return weights @ (np.concatenate(blocks) if blocks else np.zeros(0))


def trapezoid_rule(n: int, period: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Periodic trapezoid rule on [0, period): nodes k period / n.

    Spectrally accurate for smooth periodic integrands.
    """
    return period * np.arange(n) / n, np.full(n, period / n)


def midpoint_rule(n: int, length: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centred rule on [0, length): nodes (k + 1/2) length / n."""
    return length * (np.arange(n) + 0.5) / n, np.full(n, length / n)


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_rule(edges, n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite n-point Gauss-Legendre rule on the panels between ``edges``."""
    x, w = _legendre(n)
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    return (mid + half * x).ravel(), (half * w).ravel()


def product_rule(rule_a, rule_b, origin: complex = 0j, da: complex = 1.0,
                 db: complex = 1j) -> tuple[np.ndarray, np.ndarray]:
    """Area rule from two 1-D rules: nodes origin + s da + t db.

    The weights carry the Jacobian |Im(conj(da) db)| of the affine map.
    """
    (s, ws), (t, wt) = rule_a, rule_b
    nodes = origin + s[:, None] * da + t[None, :] * db
    jac = abs((complex(da).conjugate() * db).imag)
    return nodes.ravel(), (np.outer(ws, wt) * jac).ravel()


def polar_rule(center: complex, angular, extent, n: int, band=0.0,
               inner: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Area rule in polar coordinates around ``center``.

    The angular rule ``(theta, weights)`` times, on each ray, an n-point
    Gauss-Legendre rule in r out to ``extent`` (a scalar or R(theta) per
    angle), with the Jacobian r in the weights.  ``band > 0`` (a scalar
    or one value per angle, at most the extent) puts the nodes of [0, band]
    at r = u^2, clustering them toward the centre to absorb a log-type
    singularity there, and a plain rule on [band, extent] where band <
    extent.  ``inner > 0`` excises the disk r < inner instead and places
    log-radial nodes on [inner, extent] for 1/r-type integrands.
    """
    theta, wtheta = angular
    x, w = _legendre(n)
    R = np.broadcast_to(np.asarray(extent, dtype=float), theta.shape)[:, None]
    parts = []
    if inner > 0:
        s0, s1 = math.log(inner), np.log(R)
        r = np.exp(0.5 * (s1 - s0) * x + 0.5 * (s1 + s0))
        parts.append((r, 0.5 * (s1 - s0) * w * r * r))
    else:
        rho = np.broadcast_to(np.asarray(band, dtype=float), theta.shape)[:, None]
        if np.any(rho > 0):
            u1 = np.sqrt(rho)
            u = 0.5 * u1 * (x + 1.0)
            r = u * u
            parts.append((r, 0.5 * u1 * w * r * 2 * u))
        if np.any(rho < R):
            r = rho + 0.5 * (R - rho) * (x + 1.0)
            parts.append((r, 0.5 * (R - rho) * w * r))
    r, wr = (np.hstack(p) for p in zip(*parts))
    nodes = center + r * np.exp(1j * theta)[:, None]
    return nodes.ravel(), (wtheta[:, None] * wr).ravel()


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
    sample_count: int = 256
    closed: bool = True

    def rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes on the curve and their dz-weights: the trapezoid rule in t
        on closed curves, composite Gauss-Legendre on open ones."""
        if self.closed:
            t, w = trapezoid_rule(n)
        else:
            t, w = gauss_legendre_rule(np.linspace(0.0, 1.0, max(4, n // 16) + 1))
        ts = t.tolist()
        return (np.array([self.point(s) for s in ts], dtype=complex),
                w * np.array([self.derivative(s) for s in ts], dtype=complex))


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

    return Curve(pt, dpt, sample_count, closed=True)


def line_segment(z0: complex, z1: complex, sample_count: int = 64) -> Curve:
    """Open straight segment from z0 to z1."""
    return Curve(lambda t: z0 + (z1 - z0) * t,
                 lambda t: z1 - z0,
                 sample_count, closed=False)


def gauss_legendre_panel(f, a: float, b: float, panels: int = 8) -> complex:
    """Composite 16-point Gauss-Legendre rule for smooth integrands on [a,b]."""
    return integrate(f, *gauss_legendre_rule(np.linspace(a, b, panels + 1)))


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
    return integrate(f, *curve.rule(n))


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

    sing = np.array(singularities, dtype=complex)
    keep = np.all(np.abs(nodes[:, None] - sing) > excision_radius, axis=1)
    # cover each excised disk with a clustered polar patch
    angular = midpoint_rule(max(32, resolution), 2 * math.pi)
    rules = [(nodes[keep], weights[keep])] + [
        polar_rule(s, angular, excision_radius, max(24, resolution // 2),
                   band=excision_radius) for s in sing.tolist()]
    total = integrate(f, np.concatenate([r[0] for r in rules]),
                      np.concatenate([r[1] for r in rules]))

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
    """Integration record: strictly increasing times, states, monitors.

    ``len(times) - 1`` steps were accepted; ``steps_rejected`` were tried
    and repeated with a smaller h, and ``field_evals`` counts the calls of
    the field (one initial call plus seven per attempted step).
    """

    times: np.ndarray
    states: np.ndarray                       # shape (len(times), dim), complex
    monitors: Mapping[str, np.ndarray] = field(default_factory=dict)
    steps_rejected: int = 0
    field_evals: int = 0

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
    CollisionError carrying the time stamp.  A non-finite field value
    raises EvaluationError naming the t the step started from.
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
        # rejecting a non-finite step would shrink h until the step budget
        if not (math.isfinite(err) and np.isfinite(k).all()):
            raise EvaluationError(f"t={t:.6g}", "non-finite field value")

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
                      {name: np.asarray(v) for name, v in mon.items()},
                      steps_rejected=steps - (len(times) - 1),
                      field_evals=1 + 7 * steps)
