"""Point-vortex forces, energies and dynamics in the plane and the disk.

A bound vortex of strength G with local stream expansion coefficient h1
feels the force F = -(G^2/2pi) conj(h1); a free vortex moves with
da/dt = (G/2pi i) conj(h1).  For several vortices, h1 at vortex k collects
the domain Robin term plus the regular influence of the other vortices
(the Kirchhoff-Routh assembly); the conserved Hamiltonian is

    W = sum_{j<k} G_j G_k G(z_j, z_k) + sum_k (G_k^2 / 4pi) h0(z_k),

which in the free plane reduces to the pairwise logarithmic energy.

The field is evaluated in the conjugate variables c = conj(z), where the
poles and the disk's image charges are one difference matrix against the
vortices and the conjugates of their image points (`_field_of`): one
reciprocal and one matrix-vector product give every velocity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import numkit, planar_green
from .errors import (CollisionError, ParameterError,
                     SingularConfigurationError)

__all__ = [
    "VortexSystem",
    "pair_force",
    "bound_vortex_force",
    "free_vortex_velocity",
    "forced_vortex_velocity",
    "stream_function",
    "hamiltonian",
    "simulate",
]

COLLISION_THRESHOLD = 1e-10
MAX_MODULUS = 1e100
# the disk record (G, Robin data, wall distance), evaluated on arrays
_DISK = planar_green._KINDS["disk"]


def _min_pair_distance(z: np.ndarray) -> float:
    """min |z_i - z_j| over the pairs i < j (inf for fewer than two points)."""
    i, j = numkit.pair_indices(len(z))
    return float(np.abs(z[i] - z[j]).min(initial=math.inf))


@dataclass
class VortexSystem:
    """Positions z_k and strengths Gamma_k in the plane or a disk."""

    positions: np.ndarray
    strengths: np.ndarray
    domain: planar_green.DomainDescriptor | None = None   # None = whole plane

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=complex)
        self.strengths = np.asarray(self.strengths, dtype=float)
        if len(self.positions) != len(self.strengths):
            raise ParameterError("positions and strengths must match")
        if len(self.positions) == 0:
            raise ParameterError("a vortex system needs at least one vortex")
        if self.domain is not None:
            if self.domain.kind != "disk":
                raise ParameterError("vortex domains are the plane or a disk")
            planar_green._require_interior(self.domain, self.positions)
        if not (np.isfinite(self.positions).all() and np.isfinite(self.strengths).all()):
            raise ParameterError("vortex positions and strengths must be finite")
        # keeps Gamma |z|^2 and Gamma_j Gamma_k log|z_j - z_k| (the monitors
        # and the energy) finite
        if np.abs(np.r_[self.positions, self.strengths]).max() > MAX_MODULUS:
            raise ParameterError("vortex positions and strengths must be at most "
                                 f"{MAX_MODULUS:g} in modulus")
        size = 1.0 if self.domain is None else _DISK.size(self.domain, self.positions)
        if _min_pair_distance(self.positions) < COLLISION_THRESHOLD * size:
            raise SingularConfigurationError("coincident vortex positions")

    @property
    def n(self) -> int:
        return len(self.positions)

    def to_dict(self) -> dict:
        dom = {"kind": "plane"} if self.domain is None else self.domain.to_dict()
        return {"domain": dom,
                "vortices": [{"z": [z.real, z.imag], "gamma": g}
                             for z, g in zip(self.positions, self.strengths)]}

    @staticmethod
    def from_dict(data: dict) -> "VortexSystem":
        dom = data["domain"]
        domain = None if dom.get("kind") == "plane" \
            else planar_green.DomainDescriptor.from_dict(dom)
        zs = [complex(v["z"][0], v["z"][1]) for v in data["vortices"]]
        gs = [float(v["gamma"]) for v in data["vortices"]]
        return VortexSystem(np.array(zs), np.array(gs), domain)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def pair_force(a: complex, b: complex, gamma_a: float, gamma_b: float) -> complex:
    """Force on the vortex at a from the vortex at b.

    F_a = (G_a G_b / 2pi) (a-b)/|a-b|^2: equal vortices repel, opposite
    ones attract; the force on b is the negative.
    """
    a, b = complex(a), complex(b)
    if a == b:
        raise SingularConfigurationError("coincident vortices")
    return gamma_a * gamma_b / (2 * math.pi) * (a - b) / abs(a - b) ** 2


def bound_vortex_force(h1: complex, gamma: float) -> complex:
    """General force on a bound vortex: F = -(Gamma^2/2pi) conj(h1)."""
    return -(gamma * gamma) / (2 * math.pi) * complex(h1).conjugate()


def free_vortex_velocity(system: VortexSystem, k: int) -> complex:
    """da_k/dt = (Gamma_k / 2pi i) conj(h1^(k)); zero for a lone plane vortex."""
    if not 0 <= k < system.n:
        raise ParameterError("vortex index out of range")
    return complex(_field_of(system.strengths, system.domain)(system.positions)[k])


def forced_vortex_velocity(h1: complex, gamma: float, f_ext: complex) -> complex:
    """Velocity of a vortex subject to an external force:
    da/dt = (Gamma/2pi i) conj(h1) - i F_ext / Gamma."""
    if gamma == 0:
        raise ParameterError("vortex strength must be nonzero")
    return gamma / (2j * math.pi) * complex(h1).conjugate() - 1j * complex(f_ext) / gamma


def stream_function(system: VortexSystem, z: complex) -> float:
    """psi(z) = sum_k Gamma_k G(z, z_k) for the system's domain."""
    z = complex(z)
    if np.abs(z - system.positions).min() < 1e-14:
        raise SingularConfigurationError("stream function evaluated at a vortex")
    if system.domain is not None:
        planar_green._require_interior(system.domain, z)
    return float(system.strengths @ _green(system.domain, z, system.positions))


def hamiltonian(system: VortexSystem) -> float:
    """Kirchhoff-Routh energy (interaction Green terms plus Robin terms)."""
    return _energy_of(system.strengths, system.domain)(system.positions)


def _green(domain, z, a):
    """G(z, a) elementwise: -log|z - a| / 2pi in the plane, else the disk's."""
    return (-np.log(np.abs(z - a)) / (2 * math.pi) if domain is None
            else _DISK.green(domain, z, a))


def _field_of(g: np.ndarray, domain):
    """z -> dz_k/dt = conj(Gamma_k h1^(k)) / 2pi i for every vortex, with the
    weights and the buffers built once.

    Gamma_k h1^(k) = sum_j Gamma_j m_kj with m = 4pi dG/dz(z_k, z_j) off the
    diagonal and the Robin h1(z_k) on it: the pole -1/(z_k - z_j), j != k,
    plus, in the disk, the image part -conj(z_j)/(R^2 - z_k conj(z_j)),
    which is h1 at j = k.  Conjugated, with c = conj(z) and zeta_j = R^2/z_j
    (`planar_green._disk_reflection`), these are 1/(c_j - c_k) and
    -1/(zeta_j - c_k), so dz_k/dt = sum_j W_j / D[k, j] with the difference
    matrix D[k, j] = S_j - c_k, S = [c, zeta] and W = [gamma, -gamma],
    gamma = Gamma / 2pi i; the plane keeps the first block.  D[k, k] is set
    to inf, so the pole block's k = k term is exactly 0, and a vortex at
    the centre has zeta = inf, so its image adds 0.  Each call fills D in place,
    takes its reciprocal in place and returns the fresh product D @ W.  It
    never divides by Gamma_k, so a zero-strength vortex is a tracer.
    """
    n = len(g)
    gamma = g / (2j * math.pi)
    w = gamma if domain is None else np.r_[gamma, -gamma]
    s = np.empty(len(w), dtype=complex)          # S = [c, zeta]
    c, zeta = s[:n], s[n:]
    d = np.empty((n, len(w)), dtype=complex)     # D[k, j] = S_j - c_k
    pole_diagonal = d.reshape(-1)[:: len(w) + 1]  # the n entries D[k, k]

    def field(z: np.ndarray) -> np.ndarray:
        np.conjugate(z, out=c)
        if domain is not None:
            planar_green._disk_reflection(domain, z, zeta)
        np.subtract(s, c[:, None], out=d)
        pole_diagonal.fill(math.inf)
        np.reciprocal(d, out=d)
        return d @ w
    return field


def _energy_of(g: np.ndarray, domain):
    """z -> sum_{j<k} G_j G_k G(z_j, z_k) + sum_k (G_k^2 / 4pi) h0(z_k), with
    the pair indices and the weights G_j G_k and G_k^2 computed once."""
    i, j = numkit.pair_indices(len(g))
    pair_w, self_w = g[i] * g[j], g * g

    # .sum(), unlike a BLAS dot, adds in one order at any BLAS thread count
    def energy(z: np.ndarray) -> float:
        total = (pair_w * _green(domain, z[i], z[j])).sum()
        if domain is not None:
            total += (self_w * planar_green._disk_h0(domain, z)).sum() / (4 * math.pi)
        return float(total)
    return energy


def simulate(system: VortexSystem, t_end: float, tol: float = 1e-10) -> numkit.Trajectory:
    """Integrate the vortex motion; monitors energy and vorticity moments.

    Monitors: ``energy`` (Kirchhoff-Routh), and in the plane the moments
    ``moment`` = |sum G_k z_k| and ``angular`` = sum G_k |z_k|^2; in the
    disk ``radius_k`` for each vortex.  Aborts with CollisionError when two
    vortices (or a vortex and the wall) come within COLLISION_THRESHOLD R.

    A disk run integrates w = z / R in the unit disk, whose field is the
    disk's with the weights Gamma / R^2, so the step control's error test
    tol (1 + |w|) reads the same at every R, and a run to t_end R^2 takes
    the same steps.  The states, the monitors and a CollisionError's
    separation are those of z.
    """
    g = system.strengths
    domain = system.domain
    size = 1.0 if domain is None else _DISK.size(domain, system.positions)
    unit = None if domain is None else planar_green.UNIT_DISK
    field = _field_of(g / (size * size), unit)

    def separation(w: np.ndarray) -> float:
        sep = _min_pair_distance(w)
        return sep if unit is None else min(sep, _DISK.boundary_distance(unit, w).min())

    energy = _energy_of(g, domain)
    monitors = {"energy": lambda w: energy(w * size)}
    if domain is None:
        monitors["moment"] = lambda y: abs(np.sum(g * y))
        monitors["angular"] = lambda y: float(np.sum(g * np.abs(y) ** 2))

    sep_guard = separation if system.n > 1 or domain is not None else None
    try:
        traj = numkit.rk_integrate(field, system.positions / size, t_end, tol,
                                   monitors=monitors, separation=sep_guard,
                                   collision_threshold=COLLISION_THRESHOLD)
    except CollisionError as err:
        raise CollisionError(err.time, err.separation * size) from None
    traj.states = traj.states * size
    if domain is not None:
        # |z_k| of every state at once; np.hypot is the C library's hypot,
        # which abs() of one point calls (np.abs of a complex array is not)
        radii = np.hypot(traj.states.real, traj.states.imag)
        for k in range(system.n):
            traj.monitors[f"radius_{k}"] = radii[:, k]
    return traj
