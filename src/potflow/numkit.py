"""Shared numeric substrate.

Quadrature rules as (nodes, weights) arrays with one ``integrate``, contour
and area quadrature built on them, complex calculus by central differences,
and the embedded Runge-Kutta 8(5,3) pair DOP853 with PI step control.  Everything
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
    "circle_rule",
    "segment_rule",
    "cycle_rule",
    "Trajectory",
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
# boundary and cycle rules: nodes on a curve and their dz-weights
# ---------------------------------------------------------------------------

def circle_rule(center: complex, radius: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The periodic trapezoid rule on the positively oriented circle
    center + radius e^{2 pi i t}: n nodes and their dz-weights (spectrally
    accurate for analytic integrands)."""
    if not (abs(center) < math.inf and 0 < radius < math.inf):   # nan fails too
        raise ParameterError("circle needs a finite center and a positive, finite radius")
    t, w = trapezoid_rule(n)
    e = np.exp(2j * np.pi * t)
    return center + radius * e, w * (2j * np.pi * radius * e)


def segment_rule(z0: complex, z1: complex, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre on max(4, n // 16) panels of the open
    segment from z0 to z1: nodes and their dz-weights."""
    t, w = gauss_legendre_rule(np.linspace(0.0, 1.0, max(4, n // 16) + 1))
    dz = complex(z1 - z0)
    return z0 + dz * t, w * dz


def cycle_rule(z0: complex, dz: complex, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The periodic trapezoid rule along the cycle z0 + dz t, t in [0, 1):
    nodes and their dz-weights."""
    t, w = trapezoid_rule(n)
    dz = complex(dz)
    return z0 + dz * t, dz * w


def gauss_legendre_panel(f, a: float, b: float, panels: int = 8) -> complex:
    """Composite 16-point Gauss-Legendre rule for smooth integrands on [a,b];
    f receives the array of nodes, as in ``integrate``."""
    return integrate(f, *gauss_legendre_rule(np.linspace(a, b, panels + 1)))


def contour_integral(f: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray,
                     dz: np.ndarray) -> complex:
    """Integrate f dz on the rule of a curve (``circle_rule``,
    ``segment_rule``, ``cycle_rule``); f receives the array of nodes."""
    if len(nodes) < 16:
        raise ParameterError("need at least 16 sample nodes")
    return integrate(f, nodes, dz)


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
# adaptive Runge-Kutta (Dormand-Prince 8(5,3), PI step control)
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Integration record: strictly increasing times, states, monitors.

    ``len(times) - 1`` steps were accepted; ``steps_rejected`` were tried
    and repeated with a smaller h, and ``field_evals`` counts the calls of
    the field (one initial call plus twelve per attempted step: the last
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


# DOP853, the 8(5,3) pair of Hairer, Norsett & Wanner (Solving Ordinary
# Differential Equations I, 2nd ed., Springer 1993, II.10): stage i is
# y + h * sum_j A[i, j] k_j, the 8th-order solution is stage 12, so its field
# value is the next step's first once the step is accepted ("first same as
# last"), and _RK_E5, _RK_E3 weigh k_0..k_11 into the 5th- and 3rd-order
# error estimates.  The tables are complex, like the stages k, so that no
# product casts them.
_RK_A = np.array([
    [0.0] * 12,
    [0.05260015195876773] + [0.0] * 11,
    [0.0197250569845379, 0.0591751709536137] + [0.0] * 10,
    [0.02958758547680685, 0.0, 0.08876275643042054] + [0.0] * 9,
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792] + [0.0] * 8,
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242]
    + [0.0] * 7,
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125] + [0.0] * 6,
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023] + [0.0] * 5,
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996] + [0.0] * 4,
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627] + [0.0] * 3,
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196] + [0.0] * 2,
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636, 0.0],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
], dtype=complex)
_RK_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
], dtype=complex)[:, None]
# the 8th-order weights less the 3rd-order ones, which differ at k_0, k_8, k_11
_RK_E3 = (_RK_A[12] - np.array([0.2440944881889764] + [0.0] * 7 + [0.7338466882816118]
                               + [0.0] * 2 + [0.022058823529411766]))[:, None]
# Row i as a column against k[:i]: each sum np.add.reduce(row * k[:i])
# (that is, .sum(0)) adds the terms one stage after the other, elementwise,
# where a BLAS product row @ k[:i] splits long states across threads and
# rounds by their count.
_RK_ROWS = tuple(row[:i, None] for i, row in enumerate(_RK_A))


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
    CollisionError carrying the time stamp, and no step is longer than
    the last accepted separation over the rate at which the last accepted
    step closed it (a gap that did not shrink caps nothing).  A
    non-finite field value raises EvaluationError naming the t the step
    started from.  At most ``max_steps`` steps are attempted, accepted and
    rejected together; a run that needs more raises ParameterError.
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
    sep = None if separation is None else separation(y)
    closing = 0.0                            # how fast the last accepted step shrank sep

    # initial step: tol^(1/8) of the time the start speed takes to cross
    # the error scale 1 + |y|, which scales with the field's time unit
    f0 = np.asarray(field(y), dtype=complex)
    speed = float(np.max(np.abs(f0)))
    h = t_end / 10.0
    if speed > 0:
        h = min(h, tol ** 0.125 * (1.0 + float(np.max(np.abs(y)))) / speed)

    err_prev = 1.0
    k = np.zeros((13, y.size), dtype=complex)
    k[0] = f0
    evals = 1
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            raise ParameterError(f"step budget exhausted at t={t:.6g}")
        h = min(h, t_end - t)
        if closing > 0:
            # the gap, closing as fast as over the last step, lasts sep / closing
            h = min(h, sep / closing)
        for i in range(1, 13):
            stage = y + h * np.add.reduce(_RK_ROWS[i] * k[:i])
            k[i] = field(stage)
            evals += 1
        sc = tol * (1.0 + np.abs(y))
        err5 = float(np.max(np.abs(h * np.add.reduce(_RK_E5 * k[:12])) / sc))
        err3 = float(np.max(np.abs(h * np.add.reduce(_RK_E3 * k[:12])) / sc))
        # Hairer's estimate err5^2 / sqrt(err5^2 + 0.01 err3^2), overflow-free
        den = math.hypot(err5, 0.1 * err3)
        err = (err5 * (err5 / den) if den else 0.0) + 1e-300
        # rejecting a non-finite step would shrink h until the step budget
        if not (math.isfinite(err) and np.isfinite(k).all()):
            raise EvaluationError(f"t={t:.6g}", "non-finite field value")

        if err <= 1.0:
            t += h
            y = stage                        # the 8th-order solution
            if separation is not None:
                sep_prev, sep = sep, separation(y)
                if sep < collision_threshold:
                    raise CollisionError(t, sep)
                closing = (sep_prev - sep) / h
            if not np.all(np.isfinite(y.view(float))):
                raise EvaluationError(y, "non-finite state")
            times.append(t)
            states.append(y)                 # stage is a fresh array
            for name, fn in (monitors or {}).items():
                mon[name].append(fn(y))
            # PI controller (Gustafsson): combine current and previous error
            fac = 0.9 * err ** (-0.7 / 8.0) * err_prev ** (0.4 / 8.0)
            err_prev = err
            k[0] = k[12]
        else:
            fac = max(0.2, 0.9 * err ** (-0.125))
        h *= min(5.0, max(0.2, fac))
        steps += 1

    return Trajectory(np.asarray(times), np.asarray(states),
                      {name: np.asarray(v) for name, v in mon.items()},
                      steps_rejected=steps - (len(times) - 1),
                      field_evals=evals)
