"""Discrete energies, Fekete points, transfinite diameter, equilibrium and
harmonic measures, and the concentric-ball condenser capacity.

The Fekete ladder reports delta_n with the exponent 2/(n(n-1)); the older
2/n^2 normalization shares the same limit and only enters through the
energy field of the CapacityReport (exp(-4*pi*E) extrapolated from its
own ladder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import numkit, planar_green
from .errors import (
    ConditioningError,
    OptimizationQualityError,
    ParameterError,
    SingularConfigurationError,
)

__all__ = [
    "CompactSet",
    "WeightedMeasure",
    "CapacityReport",
    "discrete_energy",
    "fekete_points",
    "transfinite_diameter",
    "equilibrium_measure",
    "harmonic_measure",
    "condenser_capacity",
]


@dataclass(frozen=True)
class CompactSet:
    """Compact carrier set with a boundary parametrization t in [0,1].

    kinds: circle(R), disk(R) (carrier is its boundary circle), segment of
    given length centered at the origin, or the boundary of a
    DomainDescriptor with a boundary parametrization (disk, rectangle).
    Everything that depends on the kind lives in ``_CARRIERS``.
    """

    kind: str
    R: float = 1.0
    length: float = 2.0
    domain: "planar_green.DomainDescriptor | None" = None

    def __post_init__(self):
        if not (math.isfinite(self.R) and math.isfinite(self.length)):
            raise ParameterError("carrier parameters must be finite")
        message = _carrier_spec(self.kind).invalid(self)
        if message:
            raise ParameterError(message)

    @staticmethod
    def circle(R: float) -> "CompactSet":
        return CompactSet("circle", R=R)

    @staticmethod
    def disk(R: float = 1.0) -> "CompactSet":
        return CompactSet("disk", R=R)

    @staticmethod
    def segment(length: float = 2.0) -> "CompactSet":
        return CompactSet("segment", length=length)

    @staticmethod
    def domain_boundary(domain) -> "CompactSet":
        return CompactSet("domain_boundary", domain=domain)

    @property
    def closed(self) -> bool:
        return _CARRIERS[self.kind].closed

    def jet(self, t, side=1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """z, z', z'' at t; one-sided at breakpoints (side > 0: from the right)."""
        return _CARRIERS[self.kind].jet(self, np.asarray(t, dtype=float), side)

    def boundary_point(self, t: float) -> complex:
        return complex(self.jet(t)[0])

    def to_dict(self) -> dict:
        return _CARRIERS[self.kind].to_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "CompactSet":
        return _carrier_spec(data.get("kind")).parse(data)


@dataclass(frozen=True)
class _Carrier:
    """One carrier kind as plain functions of its CompactSet K."""

    parse: Callable          # document dict -> CompactSet
    to_dict: Callable        # K -> document dict
    invalid: Callable        # K -> error message, or None when K is valid
    jet: Callable            # (K, t ndarray, side) -> (z, z', z''), constant speed
    on_carrier: Callable     # (K, z, tol) -> bool
    breaks: Callable = lambda K: ()  # parameters where z' jumps, end points
    closed: bool = True
    # K -> True when t -> t + c maps K onto itself (circles): the rotation
    # then leaves the Fekete product fixed, and -H has the null vector of ones
    rotates: Callable = lambda K: False


_DISK = planar_green._KINDS["disk"]
_ROUND = _Carrier(
    parse=lambda data: CompactSet(data["kind"], R=float(data["R"])),
    to_dict=lambda K: {"kind": K.kind, "R": K.R},
    invalid=lambda K: planar_green.size_error("radius", K.R),
    jet=_DISK.boundary_jet,
    on_carrier=lambda K, z, tol: abs(abs(z) - K.R) < tol,
    rotates=lambda K: True,
)
_CARRIERS: dict[str, _Carrier] = {
    "circle": _ROUND,
    "disk": _ROUND,
    "segment": _Carrier(
        parse=lambda data: CompactSet.segment(float(data["length"])),
        to_dict=lambda K: {"kind": "segment", "length": K.length},
        invalid=lambda K: planar_green.size_error("length", K.length),
        jet=lambda K, t, side=1: ((-K.length / 2 + K.length * t).astype(complex),
                                  np.full(t.shape, K.length + 0j),
                                  np.zeros(t.shape, dtype=complex)),
        on_carrier=lambda K, z, tol: (abs(z.imag) < tol
                                      and abs(z.real) <= K.length / 2 + tol),
        breaks=lambda K: (0.0, 1.0),
        closed=False,
    ),
    "domain_boundary": _Carrier(
        parse=lambda data: CompactSet.domain_boundary(
            planar_green.DomainDescriptor.from_dict(data["domain"])),
        to_dict=lambda K: {"kind": "domain_boundary", "domain": K.domain.to_dict()},
        invalid=lambda K: (None if planar_green._KINDS[K.domain.kind].boundary_jet
                           else f"unsupported domain boundary {K.domain.kind!r}"),
        jet=lambda K, t, side=1: planar_green._KINDS[K.domain.kind].boundary_jet(
            K.domain, t, side),
        # boundary_distance vanishes exactly on disk and rectangle boundaries
        on_carrier=lambda K, z, tol: abs(K.domain.boundary_distance(z)) < tol,
        breaks=lambda K: planar_green._KINDS[K.domain.kind].boundary_breaks(K.domain),
        rotates=lambda K: K.domain.kind == "disk",
    ),
}


def _carrier_spec(kind) -> _Carrier:
    spec = _CARRIERS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ParameterError(f"unknown carrier kind {kind!r}")
    return spec


@dataclass
class WeightedMeasure:
    """Boundary point cloud with nonnegative weights summing to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < -1e-14):
            raise ParameterError("weights must be nonnegative")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:   # nan weights fail too
            raise ParameterError("weights must sum to one")

    def potential(self, z: complex) -> float:
        """Logarithmic potential (1/2pi) sum w_j log(1/|z - z_j|)."""
        return float(np.sum(self.weights * np.log(1.0 / np.abs(complex(z) - self.points)))
                     / (2 * math.pi))

    def integrate(self, f) -> float:
        """sum w_j f(z_j), with f called once on the point array."""
        return float(numkit.integrate(f, self.points, self.weights))


@dataclass
class CapacityReport:
    """Fekete ladder with extrapolated capacity data.

    Invariants: logcap = exp(-gamma) and logcap = delta by construction of
    gamma; energy is extrapolated from its own ladder so the three-way
    identity logcap = delta = exp(-4 pi E) is a genuine consistency check.
    Per rung: newton_iterations, the accepted Newton steps (at most
    _NEWTON_CAP), and grad_norm, the free gradient's inf-norm at exit.
    """

    n_values: list[int]
    delta_n: list[float]
    delta: float
    gamma: float
    logcap: float
    energy: float
    newton_iterations: list[int] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    points: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "delta_n": [float(d) for d in self.delta_n],
            "delta": float(self.delta),
            "gamma": float(self.gamma),
            "logcap": float(self.logcap),
            "energy": float(self.energy),
            "newton_iterations": [int(k) for k in self.newton_iterations],
            "grad_norm": [float(g) for g in self.grad_norm],
        }


def discrete_energy(points: Sequence[complex], strengths: Sequence[float]) -> float:
    """Energy (1/4pi) sum_{j != k} G_j G_k log(1/|z_j - z_k|)."""
    z = np.asarray(points, dtype=complex)
    g = np.asarray(strengths, dtype=float)
    if len(z) != len(g):
        raise ParameterError("points and strengths must have equal length")
    diff = np.abs(z[:, None] - z[None, :]) + np.eye(len(z))   # log 1 on the diagonal
    if np.any(diff == 0.0):
        raise SingularConfigurationError("coincident points in energy sum")
    return float((g[:, None] * g[None, :] * np.log(1.0 / diff)).sum() / (4 * math.pi))


# ---------------------------------------------------------------------------
# Fekete optimization: Leja start + projected Newton on all the parameters
# ---------------------------------------------------------------------------

_NEWTON_CAP = 100
_ALPHAS = 0.5 ** np.arange(40)       # the line search's step fractions


def _log_objective(z: np.ndarray, D: np.ndarray, pole: complex | None) -> float:
    """log of the Fekete product of z, whose differences are
    D = z[:, None] - z[None, :] (pole factors included when finite)."""
    n = len(z)
    total = float(np.sum(np.log(np.abs(D[numkit.pair_indices(n)]))))
    if pole is not None:
        total -= (n - 1) * float(np.sum(np.log(np.abs(z - pole))))
    return total


def _leja_start(K: CompactSet, n: int, pole: complex | None) -> np.ndarray:
    ts = np.arange(2048) / 2048 if K.closed else np.linspace(0.0, 1.0, 2048)
    zs = K.jet(ts)[0]
    polepen = None if pole is None else np.log(np.abs(zs - pole) + 1e-300)
    # start from the candidate farthest from the centroid, then grow greedily;
    # a chosen candidate's score is -inf
    chosen = [int(np.argmax(np.abs(zs - zs.mean())))]
    scores = np.log(np.abs(zs - zs[chosen[0]]) + 1e-300)
    scores[chosen[0]] = -np.inf
    for _ in range(1, n):
        pen = scores if polepen is None else scores - len(chosen) * polepen
        chosen.append(int(np.argmax(pen)))
        scores += np.log(np.abs(zs - zs[chosen[-1]]) + 1e-300)
        scores[chosen[-1]] = -np.inf
    return ts[np.array(chosen)]


def _newton_step(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Newton step A^-1 g for A = -H on the free parameters.

    A Cholesky factorization that succeeds proves A positive definite, and
    the step is then one solve (Nocedal & Wright, Numerical Optimization,
    2nd ed., 2006, sec. 3.4).  Where either fails, -H is indefinite or
    singular: the step floors |eigenvalues| of A at 1e-8 of the largest,
    so it still ascends.
    """
    try:
        np.linalg.cholesky(A)
        return np.linalg.solve(A, g)
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(A)
        lam = np.maximum(np.abs(lam), 1e-8 * np.max(np.abs(lam)))
        return V @ ((V.T @ g) / lam)


def _project(K: CompactSet, edges: np.ndarray, t, dz, ddz, w):
    """The piece k of each point, edges[k] <= t < edges[k + 1], and the list
    of points held.  A point on a breakpoint, t == edges[k], takes the side
    whose one-sided derivative ascends (the right when both do and g_right
    >= -g_left) or is held; taking the left, it moves to the piece before
    (t = 0 on a closed carrier to 1) in copies of t, dz and ddz."""
    last = len(edges) - 1
    k = np.searchsorted(edges, t, side="right") - 1
    on = np.flatnonzero(t == edges[k])
    held, moved = [], []
    if on.size:                # gradients by numpy's arithmetic, sides on their floats
        for i, ki, g_right, g_left in zip(
                on.tolist(), k[on].tolist(), (dz[on] * w[on]).real.tolist(),
                (K.jet(t[on], -1)[1] * w[on]).real.tolist()):
            up_right = ki < last and g_right > 0
            if ((ki > 0 or K.closed) and g_left < 0
                    and not (up_right and g_right >= -g_left)):
                k[i] = (ki if ki > 0 else last) - 1
                moved.append(i)
            elif not up_right:
                held.append(i)
    if moved:
        t, dz, ddz = t.copy(), dz.copy(), ddz.copy()
        t[moved] = edges[k[moved] + 1]
        dz[moved], ddz[moved] = K.jet(t[moved], -1)[1:]
    return t, dz, ddz, k, held


def _newton_refine(K: CompactSet, ts: np.ndarray, pole: complex | None
                   ) -> tuple[np.ndarray, float, int, float]:
    """Projected Newton ascent (Bertsekas 1982) of the log Fekete product.

    The breakpoints cut [0, 1] into pieces; ``_project`` gives the points
    on a breakpoint, and only those, a side.  Steps are clipped to each
    point's piece.  Each accepted iterate is evaluated once: the line search
    hands its jet and differences on.  Without a pole, the rotation null
    mode of a round carrier is deflated before ``_newton_step``.  Returns
    the last accepted iterate's points and log Fekete product, the accepted
    steps and the free gradient's inf-norm at exit.
    """
    n, closed = len(ts), K.closed
    rotates = pole is None and _CARRIERS[K.kind].rotates(K)
    breaks = tuple(_CARRIERS[K.kind].breaks(K))
    # pieces run between consecutive edges; a closed carrier wraps at 1
    edges = np.array(breaks + (1.0,) if closed else breaks)
    last, eye = len(edges) - 1, np.eye(n)
    t, order = ts, np.argsort(ts)
    lo, hi, held = -np.inf, np.inf, []      # without breakpoints: one piece
    z, dz, ddz = K.jet(t)
    D = z[:, None] - z[None, :]
    f = _log_objective(z, D, pole)
    for steps in range(_NEWTON_CAP + 1):
        inv = 1.0 / (D + eye) - eye
        inv2 = inv * inv
        # the gradient is Re(z_i' w_i); q_i = -dw_i/dz_i enters the Hessian
        w, q = inv.sum(axis=1), inv2.sum(axis=1)
        if pole is not None:
            ip = 1.0 / (z - pole)
            w, q = w - (n - 1) * ip, q - (n - 1) * ip * ip
        if breaks:
            t, dz, ddz, k, held = _project(K, edges, t, dz, ddz, w)
            lo, hi = edges[k], edges[np.minimum(k + 1, last)]
        if held:
            free = np.delete(np.arange(n), held)
        # contiguous: np.linalg.solve rounds a strided right side differently
        g = (dz * w).real[free] if held else (dz * w).real.copy()
        grad_norm = float(np.max(np.abs(g), initial=0.0))
        if steps == _NEWTON_CAP or g.size == 0:
            break
        H = (dz[:, None] * dz[None, :] * inv2).real
        np.fill_diagonal(H, (ddz * w - dz * dz * q).real)
        A = -H[free][:, free] if held else -H
        if rotates:                    # the mean diagonal times the projector on ones
            A += np.trace(A) / (g.size * g.size)
        step = _newton_step(A, g)
        if g @ step <= 1e-15 * abs(f):             # Newton decrement at roundoff
            break
        if held:                                   # held points stay
            step, free_step = np.zeros(n), step
            step[free] = free_step
        with np.errstate(divide="ignore"):          # coincident trial points
            for alpha in _ALPHAS:
                trial = np.clip(t + alpha * step, lo, hi)
                if closed:
                    trial = np.mod(trial, 1.0)
                elif not (trial[order][1:] > trial[order][:-1]).all():
                    continue                         # points out of order
                # the accepted trial's jet and differences are the next iterate's
                zt, dzt, ddzt = K.jet(trial)
                Dt = zt[:, None] - zt[None, :]
                f_trial = _log_objective(zt, Dt, pole)
                if f_trial > f:
                    break
            else:
                break                                # no step raises f
        t, f, z, dz, ddz, D = trial, f_trial, zt, dzt, ddzt, Dt
    return z, f, steps, grad_norm


def fekete_points(K: CompactSet, n: int,
                  pole: complex | None = None) -> tuple[np.ndarray, float]:
    """Near-maximizers of the Fekete product on K and the value delta_n.

    delta_n uses the exponent 2/(n(n-1)); a finite pole divides each pair
    term by |z_j - a||z_k - a|.
    """
    if n < 2:
        raise ParameterError("need at least two points")
    _check_pole(K, pole)
    return _fekete_from_start(K, _leja_start(K, n, pole), pole)[:2]


def _check_pole(K: CompactSet, pole: complex | None) -> None:
    if pole is not None and _CARRIERS[K.kind].on_carrier(K, complex(pole), 1e-12):
        raise ParameterError("pole must lie off the carrier set")


def _fekete_from_start(K: CompactSet, start: np.ndarray, pole: complex | None
                       ) -> tuple[np.ndarray, float, int, float]:
    """``fekete_points`` refined from the given Leja start parameters, with
    the accepted Newton steps and the gradient's inf-norm at exit."""
    n = len(start)
    zs, f, iterations, grad_norm = _newton_refine(K, start, pole)
    log_delta = 2.0 * f / (n * (n - 1))
    if not -700.0 < log_delta < 700.0:
        raise ParameterError("pole too far from or too near the carrier: "
                             "delta_n leaves the floating-point range")
    return zs, math.exp(log_delta), iterations, grad_norm


_DEFAULT_LADDER = (4, 6, 8, 12, 16, 24, 32, 48, 64)


def _extrapolate(ns: np.ndarray, vals: np.ndarray) -> float:
    """Least-squares fit of the ladder tail against
    {1, log(n)/n, 1/n, log(n)/n^2, 1/n^2}.

    Fekete products converge like log(n)/n, so a pure d + c/n model biases
    the limit by several 1e-3 at n = 64; the extended basis removes the
    leading terms (residual a few 1e-4 on the closed-form circle/segment
    ladders for both the n_max = 32 and n_max = 64 rungs).
    """
    k = min(6, len(ns))
    ns, vals = ns[-k:].astype(float), vals[-k:]
    A = np.column_stack([np.ones_like(ns), np.log(ns) / ns, 1.0 / ns,
                         np.log(ns) / ns ** 2, 1.0 / ns ** 2])
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    return float(coef[0])


def transfinite_diameter(K: CompactSet, pole: complex | None = None,
                         n_max: int = 64) -> CapacityReport:
    """Fekete ladder, extrapolated transfinite diameter and capacity data."""
    if n_max < 8:
        raise ParameterError("n_max must be at least 8")
    ns = [n for n in _DEFAULT_LADDER if n <= n_max]
    if ns[-1] != n_max:
        ns.append(n_max)
    _check_pole(K, pole)
    # Leja sequences are nested: the start of each rung is the first n
    # points of the largest rung's, so the greedy choice runs once
    start = _leja_start(K, ns[-1], pole)
    start.flags.writeable = False
    deltas, deltas_sq, points, iterations, grad_norms = [], [], {}, [], []
    for n in ns:
        points[n], dn, steps, grad_norm = _fekete_from_start(K, start[:n], pole)
        deltas.append(dn)
        iterations.append(steps)
        grad_norms.append(grad_norm)
        # the 2/n^2 normalization, dn^((n-1)/n), ties the ladder to the discrete energy
        deltas_sq.append(dn ** ((n - 1) / n))

    for prev, nxt in zip(deltas[:-1], deltas[1:]):
        if math.log(nxt) > math.log(prev) + 1e-6:
            raise OptimizationQualityError(
                "delta_n ladder is not monotone; optimization quality insufficient")

    delta = _extrapolate(np.array(ns), np.array(deltas))
    delta_sq = _extrapolate(np.array(ns), np.array(deltas_sq))
    if not all(math.isfinite(v) and v > 0 for v in (delta, delta_sq)):
        raise ParameterError("extrapolated transfinite diameter is not finite and "
                             "positive; is the pole too close to the carrier?")
    gamma = -math.log(delta)
    energy = -math.log(delta_sq) / (4 * math.pi)
    return CapacityReport(ns, deltas, delta, gamma, math.exp(-gamma), energy,
                          iterations, grad_norms, points)


# ---------------------------------------------------------------------------
# equilibrium measure by one bordered solve
# ---------------------------------------------------------------------------

def _carrier_nodes(K: CompactSet, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and local arclength cell sizes on the carrier."""
    ts, w = (numkit.trapezoid_rule if K.closed else numkit.midpoint_rule)(m)
    zs, dz, _ = K.jet(ts)
    return zs, np.abs(dz) * w


def _log_kernel(K: CompactSet, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Carrier nodes and the regularized log-kernel matrix on them.

    The diagonal is the local self-energy of a small uniform cell
    (periodic-trapezoid constant on closed carriers, straight-segment
    constant on open ones), so the discrete energy tracks the continuous
    one.
    """
    zs, ss = _carrier_nodes(K, m)
    diff = np.abs(zs[:, None] - zs[None, :])
    if np.any((diff + np.eye(m)) < 1e-13):
        raise ConditioningError("near-coincident nodes in the kernel matrix")
    with np.errstate(divide="ignore"):
        Kmat = np.log(1.0 / diff) / (2 * math.pi)
    if K.closed:
        np.fill_diagonal(Kmat, np.log(2 * math.pi / ss) / (2 * math.pi))
    else:
        np.fill_diagonal(Kmat, (np.log(1.0 / ss) + 1.5) / (2 * math.pi))
    return zs, Kmat


def equilibrium_measure(K: CompactSet, m: int = 256
                        ) -> tuple[WeightedMeasure, float]:
    """Equilibrium weights minimizing the discrete logarithmic energy of
    the ``_log_kernel`` matrix, and gamma = 2 pi V from the potential
    level V on the carrier.

    The weights with unit mass and constant potential solve Symm's
    bordered system [K, -1; 1^T, 0] [w; V] = [0; 1] (G. T. Symm, Numer.
    Math. 9, 1966).  They minimize the energy on the simplex while all
    are positive, which is checked.
    """
    if m < 32:
        raise ParameterError("need m >= 32 nodes")
    zs, Kmat = _log_kernel(K, m)
    border = np.block([[Kmat, -np.ones((m, 1))], [np.ones((1, m)), np.zeros((1, 1))]])
    sol = np.linalg.solve(border, np.r_[np.zeros(m), 1.0])
    w, V = sol[:m], sol[m]
    if np.any(w < 0):
        raise ConditioningError("negative equilibrium weight: the node set "
                                "resolves no positive equilibrium measure")
    return WeightedMeasure(zs, w), 2 * math.pi * float(V)


def equilibrium_energy(measure: WeightedMeasure, K: CompactSet) -> float:
    """Discrete energy of an equilibrium measure (same regularized kernel)."""
    _, Kmat = _log_kernel(K, len(measure.weights))
    w = measure.weights
    return 0.5 * float(w @ (Kmat @ w))


# ---------------------------------------------------------------------------
# harmonic measure
# ---------------------------------------------------------------------------

def harmonic_measure(domain, a: complex, m: int = 256) -> WeightedMeasure:
    """Harmonic measure of the domain at a: density -dG/dn times arclength.

    The disk uses the closed-form Poisson density on m equispaced nodes,
    the rectangle -dG/dn of its theta-function Green function on m
    Gauss-Legendre nodes graded towards a.  The weights are not normalized:
    a mass more than 1e-12 from 1 means m is too small (ConditioningError).
    """
    a = complex(a)
    planar_green._require_interior(domain, a)
    rule = planar_green._kind_function(domain.kind, "harmonic",
                                       "harmonic measure unsupported for {!r}")
    points, weights = rule(domain, a, m)
    mass = weights.sum()
    if abs(mass - 1.0) > 1e-12:
        raise ConditioningError(f"harmonic-measure mass {mass:.15f}: raise m")
    return WeightedMeasure(points, weights)


def condenser_capacity(r: float, R: float, n_dim: int = 2) -> float:
    """Capacity of the condenser of concentric balls |x|=r inside |x|=R.

    2*pi/log(R/r) in the plane (depends only on R/r); in dimension n >= 3
    the value is (n-2)|S^{n-1}| / (r^{2-n} - R^{2-n}).
    """
    if not (0 < r < R):
        raise ParameterError("need 0 < r < R")
    if n_dim < 2:
        raise ParameterError("dimension must be at least 2")
    if n_dim == 2:
        return 2 * math.pi / math.log(R / r)
    sphere_area = 2 * math.pi ** (n_dim / 2) / math.gamma(n_dim / 2)
    return (n_dim - 2) * sphere_area / (r ** (2 - n_dim) - R ** (2 - n_dim))
