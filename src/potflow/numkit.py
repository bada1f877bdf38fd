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
    "as_points",
    "is_scalar",
    "first_where",
    "integrate",
    "pointwise",
    "trapezoid_rule",
    "midpoint_rule",
    "gauss_legendre_rule",
    "sinh_rule",
    "product_rule",
    "polar_rule",
    "Curve",
    "Trajectory",
    "circle",
    "line_segment",
    "contour_integral",
    "cross_stencil",
    "wirtinger_derivative",
    "mixed_second_derivative",
    "fd_laplacian",
    "laplacian_at",
    "area_quadrature",
    "gauss_legendre_panel",
    "rk_integrate",
]

def as_points(z):
    """An array of dimension >= 1 as a complex ndarray, else (a number or a
    0-d array) a Python complex."""
    array = isinstance(z, np.ndarray) and z.ndim
    return z.astype(complex, copy=False) if array else complex(z)


def is_scalar(z) -> bool:
    """Whether ``as_points`` makes z a Python complex (not an array)."""
    return not (isinstance(z, np.ndarray) and z.ndim)


def first_where(bad, z):
    """The first point of z where ``bad`` holds (elementwise), or None."""
    if isinstance(bad, np.ndarray):
        return complex(z.flat[np.argmax(bad)]) if bad.any() else None
    return z if bad else None


def require_finite(value: complex, node) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise EvaluationError(node)
    return value


# ---------------------------------------------------------------------------
# quadrature rules: every integral is a (nodes, weights) rule plus integrate
# ---------------------------------------------------------------------------

def integrate(f: Callable, nodes: np.ndarray, weights: np.ndarray):
    """The weighted sum of f(nodes) for an integrand called once on the node
    array, taken as numpy's pairwise sum over the node axis so that its last
    bits do not depend on the BLAS thread count.

    f returns an array whose last axis is the node axis: (n,) for one
    integral, (m, n) (or a sequence of m arrays) for m.  A scalar return,
    e.g. ``lambda z: 1.0``, stands for that value at every node.  A
    non-finite value raises EvaluationError naming the first node that
    has one.  Wrap an integrand of one Python number in ``pointwise``.
    """
    values = np.asarray(f(nodes))
    if values.ndim == 0:
        values = np.full(nodes.shape, values)
    finite = np.isfinite(values)
    if not finite.all():
        bad = ~finite.reshape(-1, finite.shape[-1]).all(axis=0)
        raise EvaluationError(nodes[np.argmax(bad)].item())
    return (values * weights).sum(axis=-1)


def pointwise(f: Callable) -> Callable:
    """The array form of an integrand of one Python number: f is called on
    each node in turn and its components are stacked ahead of the node axis."""
    return lambda nodes: np.array([f(z) for z in nodes.tolist()]).T


def trapezoid_rule(n: int, period: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Periodic trapezoid rule on [0, period): nodes k period / n (spectral
    for smooth periodic integrands)."""
    return period * np.arange(n) / n, np.full(n, period / n)


def midpoint_rule(n: int, length: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centred rule on [0, length): nodes (k + 1/2) length / n."""
    return length * (np.arange(n) + 0.5) / n, np.full(n, length / n)


@functools.lru_cache(maxsize=16)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the n(n-1)/2 pairs i < j, np.triu_indices(n, 1),
    shared read-only: Fekete ladders and vortex runs ask for them per step."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


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


def sinh_rule(lo: float, hi: float, center: float, dist: float,
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [lo, hi] in u for t = center + dist
    sinh(u): the nodes are graded geometrically towards ``center``.  An
    integrand with poles at center +- i dist becomes analytic in the strip
    |Im u| < pi/2 whatever dist is, so the rule converges at a rate set by
    log((hi - lo) / dist) instead of dist / (hi - lo)."""
    u, wu = gauss_legendre_rule(np.arcsinh((np.array([lo, hi]) - center) / dist), n)
    return center + dist * np.sinh(u), dist * np.cosh(u) * wu


def product_rule(rule_a, rule_b, origin: complex = 0j,
                 db: complex = 1j) -> tuple[np.ndarray, np.ndarray]:
    """Area rule from two 1-D rules: nodes origin + s + t db.

    The weights carry the Jacobian |Im db| of the affine map.
    """
    (s, ws), (t, wt) = rule_a, rule_b
    nodes = origin + s[:, None] + t[None, :] * db
    jac = abs(complex(db).imag)
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
    Both receive the array of parameters; wrap a function of one Python
    float in ``pointwise``.
    """

    point: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]   # may return a constant
    closed: bool = True

    def rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes on the curve and their dz-weights: the trapezoid rule in t
        on closed curves, composite Gauss-Legendre on open ones.  ``point``
        and ``derivative`` are called once, on the array of parameters."""
        if self.closed:
            t, w = trapezoid_rule(n)
        else:
            t, w = gauss_legendre_rule(np.linspace(0.0, 1.0, max(4, n // 16) + 1))
        return (np.asarray(self.point(t), dtype=complex),
                w * np.asarray(self.derivative(t), dtype=complex))


def circle(center: complex = 0j, radius: float = 1.0) -> Curve:
    """Positively oriented circle."""
    if not (abs(center) < math.inf and 0 < radius < math.inf):   # nan fails too
        raise ParameterError("circle needs a finite center and a positive, finite radius")
    w = 2j * np.pi
    return Curve(lambda t: center + radius * np.exp(w * t),
                 lambda t: w * radius * np.exp(w * t), closed=True)


def line_segment(z0: complex, z1: complex) -> Curve:
    """Open straight segment from z0 to z1."""
    return Curve(lambda t: z0 + (z1 - z0) * t,
                 lambda t: z1 - z0, closed=False)


def gauss_legendre_panel(f, a: float, b: float, panels: int = 8) -> complex:
    """Composite 16-point Gauss-Legendre rule for smooth integrands on [a,b];
    f receives the array of nodes, as in ``integrate``."""
    return integrate(f, *gauss_legendre_rule(np.linspace(a, b, panels + 1)))


def contour_integral(f: Callable[[np.ndarray], np.ndarray], curve: Curve,
                     n: int) -> complex:
    """Integrate f along the curve; f receives the array of nodes.

    Closed analytic curves use the trapezoid rule (spectrally accurate for
    analytic integrands); open curves use composite Gauss-Legendre.
    """
    if n < 16:
        raise ParameterError("need at least 16 sample nodes")
    return integrate(f, *curve.rule(n))


# ---------------------------------------------------------------------------
# finite differences in the Wirtinger calculus
# ---------------------------------------------------------------------------

def cross_stencil(z0: complex, h: float) -> tuple[complex, ...]:
    """The points z0 + h, z0 - h, z0 + ih, z0 - ih, in the order in which
    ``wirtinger_derivative`` evaluates them."""
    return z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h


def _check_step(h: float) -> None:
    """Refuse a finite-difference step outside [1e-8, 1e-2] (nan included)."""
    if not (1e-8 <= h <= 1e-2):
        raise ParameterError("step h must lie in [1e-8, 1e-2]")


def wirtinger_derivative(f: Callable[[complex], complex], z0: complex,
                         which: str, h: float) -> complex:
    """Central-difference Wirtinger derivative of step h, error O(h^2).

    ``which`` is one of ``"dz"``, ``"dzbar"``, ``"dzdzbar"``.
    d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2; the mixed
    second derivative is Laplacian/4 on the 5-point stencil.
    """
    _check_step(h)
    fe = lambda z: require_finite(f(z), z)
    if which in ("dz", "dzbar"):
        e, w, n, s = (fe(p) for p in cross_stencil(z0, h))
        dx = (e - w) / (2 * h)
        dy = (n - s) / (2 * h)
        return 0.5 * (dx - 1j * dy) if which == "dz" else 0.5 * (dx + 1j * dy)
    if which == "dzdzbar":
        e, w, n, s = (fe(p) for p in cross_stencil(z0, h))
        lap = (e + w + n + s - 4 * fe(z0)) / (h * h)
        return lap / 4.0
    raise ParameterError(f"unknown derivative kind {which!r}")


def mixed_second_derivative(f2: Callable[[complex, complex], complex],
                            z0: complex, a0: complex, h: float) -> complex:
    """d^2/dz dabar of a two-point function f2(z, a), error O(h^2)."""
    return wirtinger_derivative(
        lambda z: wirtinger_derivative(lambda a: f2(z, a), a0, "dzbar", h), z0, "dz", h)


def fd_laplacian(samples: Sequence[complex], h: float) -> float:
    """Standard 5-point Laplacian from stencil values.

    ``samples`` holds (center, +h, -h, +ih, -ih) values on a uniform
    stencil of spacing h.
    """
    c, e, w, n, s = samples
    for v in samples:
        require_finite(complex(v), None)
    return float(((e + w + n + s - 4 * c) / (h * h)).real)


def laplacian_at(f: Callable[[complex], float], z0: complex, h: float) -> float:
    _check_step(h)
    samples = [f(z0), f(z0 + h), f(z0 - h), f(z0 + 1j * h), f(z0 - 1j * h)]
    return fd_laplacian(samples, h)


# ---------------------------------------------------------------------------
# area quadrature
# ---------------------------------------------------------------------------

def area_quadrature(f: Callable[[np.ndarray], np.ndarray], region,
                    resolution: int = 64):
    """Integrate f dx dy over a region that supplies its own rule
    ``region.area_rule(resolution) -> (nodes, weights)``; f receives the
    array of nodes, as in ``integrate``, and a non-finite value raises
    EvaluationError."""
    return integrate(f, *region.area_rule(resolution))


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta (Dormand-Prince 5(4), PI step control)
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Integration record: strictly increasing times, states, monitors.

    ``len(times) - 1`` steps were accepted; ``steps_rejected`` were tried
    and repeated with a smaller h, and ``field_evals`` counts the calls of
    the field (one initial call plus six per attempted step: the last
    stage of an accepted step is the next step's first).
    ``h_min`` and ``h_max`` are the smallest and largest accepted step
    (NaN for a trajectory without steps).
    """

    times: np.ndarray
    states: np.ndarray                       # shape (len(times), dim), complex
    monitors: Mapping[str, np.ndarray] = field(default_factory=dict)
    steps_rejected: int = 0
    field_evals: int = 0
    h_min: float = field(init=False)
    h_max: float = field(init=False)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ParameterError("times and states must have equal length")
        steps = np.diff(self.times)
        if np.any(steps <= 0):
            raise ParameterError("times must be strictly increasing")
        self.h_min, self.h_max = ((float(steps.min()), float(steps.max()))
                                  if steps.size else (math.nan, math.nan))

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# Dormand-Prince coefficients (5th order propagated, 4th order embedded):
# stage i is y + h * (_DP_ROWS[i] @ k[:i]), the error estimate h * (_DP_E @ k).
# They are complex, like the stages k: a float row would be cast to complex
# again in every product, to the same values.  The last row holds the
# 5th-order weights, so the last stage is taken at the propagated solution
# and, once the step is accepted, is the next step's first ("first same as
# last", Dormand & Prince 1980).
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
], dtype=complex)
_DP_ROWS = tuple(row[:i] for i, row in enumerate(_DP_A))
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40], dtype=complex)
_DP_E = _DP_A[6] - _DP_B4


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
    raises EvaluationError naming the t the step started from.  At most
    ``max_steps`` steps are attempted, accepted and rejected together;
    a run that needs more raises ParameterError.
    """
    if not (1e-12 <= tol <= 1e-3):
        raise ParameterError("tol must lie in [1e-12, 1e-3]")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ParameterError("t_end must be positive and finite "
                             "(reverse the field instead)")
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
    k[0] = f0
    evals = 1
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            raise ParameterError(f"step budget exhausted at t={t:.6g}")
        h = min(h, t_end - t)
        for i in range(1, 7):
            stage = y + h * (_DP_ROWS[i] @ k[:i])
            k[i] = field(stage)
            evals += 1
        sc = tol * (1.0 + np.abs(y))
        err = float(np.max(np.abs(h * (_DP_E @ k)) / sc)) + 1e-300
        # rejecting a non-finite step would shrink h until the step budget
        if not (math.isfinite(err) and np.isfinite(k).all()):
            raise EvaluationError(f"t={t:.6g}", "non-finite field value")

        if err <= 1.0:
            t += h
            y = stage                        # the 5th-order solution
            if separation is not None:
                sep = separation(y)
                if sep < collision_threshold:
                    raise CollisionError(t, sep)
            if not np.all(np.isfinite(y.view(float))):
                raise EvaluationError(y, "non-finite state")
            times.append(t)
            states.append(y)                 # stage is a fresh array
            for name, fn in (monitors or {}).items():
                mon[name].append(fn(y))
            # PI controller (Gustafsson): combine current and previous error
            fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
            err_prev = err
            k[0] = k[6]
        else:
            fac = max(0.2, 0.9 * err ** (-0.2))
        h *= min(5.0, max(0.2, fac))
        steps += 1

    return Trajectory(np.asarray(times), np.asarray(states),
                      {name: np.asarray(v) for name, v in mon.items()},
                      steps_rejected=steps - (len(times) - 1),
                      field_evals=evals)
