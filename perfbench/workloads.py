"""The four benchmark workloads: seeded inputs, one pass each, and oracles.

A workload object is built from a seed and a scratch directory.  ``run``
is one pass (the timed job: potflow calls and the output files they
write); ``validate`` checks that pass against oracles written here and
returns the operation outcomes plus a digest of the outputs, which must
be the same on every pass.  potflow only ever sees the generated inputs.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import struct
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("verify-all", "fekete", "vortex-disk", "point-queries")

# Rectangle finite-difference Green vs the eigenfunction series: twice the
# worst |fd - series| / h^2 seen on 2400 seeded points at least 0.2 min(w, h)
# from the source on both benchmark grids (0.49 h^2), rounded up.
RECT_TOL_PER_H2 = 1.0


@dataclass
class Validation:
    attempted: int
    failed: int
    digest: str
    detail: dict


def _call_cli(main, argv: list[str]):
    """One closed-loop CLI request; an exception counts as a failed call."""
    try:
        return main(argv)
    except Exception:                      # the boundary keeps the run going
        traceback.print_exc()
        return None


def _digest_files(paths: list[Path]) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for p in paths:
        data = p.read_bytes() if p.exists() else b"<missing>"
        size += len(data)
        h.update(p.name.encode() + b"\0" + data)
    return h.hexdigest(), size


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

class VerifyAll:
    """``potflow verify`` on the planar, surface and schottky suites.

    verify samples its own points with fixed seeds, so the benchmark seed
    only sets the order in which the three suites are requested.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.suites = [str(s) for s in rng.permutation(["planar", "surface", "schottky"])]
        self.outs = [workdir / f"verify_{s}.json" for s in self.suites]

    def run(self, potflow) -> list:
        return [_call_cli(potflow.cli.main, ["verify", "--suite", s, "--out", str(o)])
                for s, o in zip(self.suites, self.outs)]

    def validate(self, codes) -> Validation:
        attempted = failed = 0
        for code, out in zip(codes, self.outs):
            try:
                rows = json.loads(out.read_text())["checks"]
            except (OSError, ValueError, KeyError):
                rows = []
            if not rows:                   # no table: the request failed
                attempted += 1
                failed += 1
                continue
            bad = sum(1 for r in rows if not (r["pass"] and math.isfinite(r["residual"])
                                              and r["residual"] <= r["tolerance"]))
            attempted += len(rows)
            failed += bad or int(code != 0)
        digest, size = _digest_files(sorted(self.outs))
        return Validation(attempted, failed, digest,
                          {"out_bytes": size, "checks": attempted})


# ---------------------------------------------------------------------------
# fekete
# ---------------------------------------------------------------------------

class Fekete:
    """``potflow fekete --n-max 64`` on a circle and a segment.

    The seed scales both carriers (radius and length in [1/2, 2] times the
    unit circle and the length-2 segment); the golden-section work is scale
    free, and the oracles scale with the exact capacities R and L/4.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        radius = float(np.exp(rng.uniform(-math.log(2), math.log(2))))
        length = 2.0 * float(np.exp(rng.uniform(-math.log(2), math.log(2))))
        # (name, domain, exact capacity, tolerance on delta / capacity - 1)
        self.cases = [("circle", {"kind": "circle", "R": radius}, radius, 5e-3),
                      ("segment", {"kind": "segment", "length": length},
                       length / 4, 2e-2)]
        if rng.uniform() < 0.5:
            self.cases.reverse()
        self.dirs = [workdir / f"fekete_{c[0]}" for c in self.cases]

    def run(self, potflow) -> list:
        return [_call_cli(potflow.cli.main,
                          ["fekete", "--domain", json.dumps(dom), "--n-max", "64",
                           "--out", str(d)])
                for (_, dom, _, _), d in zip(self.cases, self.dirs)]

    def validate(self, codes) -> Validation:
        failed = 0
        files = []
        for code, (name, dom, cap, tol), d in zip(codes, self.cases, self.dirs):
            files += [d / "capacity.json", d / "fekete_points.csv"]
            try:
                ok = code == 0 and _ladder_ok(d, name, dom, cap, tol)
            except (OSError, ValueError, KeyError, IndexError):
                ok = False
            failed += not ok
        digest, size = _digest_files(files)
        return Validation(len(self.cases), failed, digest, {"out_bytes": size})


def _ladder_ok(d: Path, name: str, dom: dict, cap: float, tol: float) -> bool:
    rep = json.loads((d / "capacity.json").read_text())
    ladder = rep["delta_n"]
    monotone = all(b <= a * (1 + 1e-6) for a, b in zip(ladder, ladder[1:]))
    delta_ok = abs(rep["delta"] / cap - 1) <= tol
    energy_ok = abs(rep["logcap"] - math.exp(-4 * math.pi * rep["energy"])) <= 1e-2 * cap
    pts = np.loadtxt(d / "fekete_points.csv", delimiter=",", skiprows=1)
    z = pts[:, 2] + 1j * pts[:, 3]
    if name == "circle":
        on_carrier = np.all(np.abs(np.abs(z) - dom["R"]) <= 1e-12 * dom["R"])
    else:
        on_carrier = (np.all(z.imag == 0)
                      and np.all(np.abs(z.real) <= dom["length"] / 2 * (1 + 1e-12)))
    return bool(monotone and delta_ok and energy_ok and on_carrier)


# ---------------------------------------------------------------------------
# vortex-disk
# ---------------------------------------------------------------------------

VORTEX_T_END = 2.0


def vortex_system(seed: int) -> dict:
    """16 unit vortices on two rings (6 at r=0.3, 10 at r=0.6) in the unit
    disk, with a seeded rotation and small seeded jitter.  Same-sign
    strengths keep the configuration collision free and its step count
    nearly independent of the seed."""
    rng = np.random.default_rng(seed)
    rot = rng.uniform(0, 2 * math.pi)
    vortices = []
    for ring_r, count in ((0.3, 6), (0.6, 10)):
        for j in range(count):
            th = rot + 2 * math.pi * j / count + rng.uniform(-0.05, 0.05)
            r = ring_r * (1 + rng.uniform(-0.03, 0.03))
            vortices.append({"z": [r * math.cos(th), r * math.sin(th)], "gamma": 1.0})
    return {"domain": {"kind": "disk", "R": 1.0}, "vortices": vortices}


class VortexDisk:
    """``potflow vortex`` on the seeded 16-vortex disk system."""

    def __init__(self, seed: int, workdir: Path):
        self.system_path = workdir / "vortex_system.json"
        self.system_path.parent.mkdir(parents=True, exist_ok=True)
        self.system_path.write_text(json.dumps(vortex_system(seed)))
        self.out = workdir / "vortex"
        self.steps = None                     # step count of the first pass

    def run(self, potflow) -> list:
        return [_call_cli(potflow.cli.main,
                          ["vortex", "--system", str(self.system_path),
                           "--t-end", repr(VORTEX_T_END), "--tol", "1e-10",
                           "--out", str(self.out)])]

    def validate(self, codes) -> Validation:
        files = [self.out / "summary.json", self.out / "trajectory.csv"]
        try:
            summary = json.loads(files[0].read_text())
            rows = files[1].read_text().count("\n") - 1
            if self.steps is None:
                self.steps = summary["steps"]
            radii_ok = all(math.hypot(*z) < 1.0 for z in summary["final_state"])
            ok = (codes[0] == 0 and summary["max_drift_energy"] < 1e-8
                  and summary["steps"] == self.steps == rows and radii_ok)
        except (OSError, ValueError, KeyError):
            ok = False
        digest, size = _digest_files(files)
        return Validation(1, int(not ok), digest, {"out_bytes": size})


# ---------------------------------------------------------------------------
# point-queries
# ---------------------------------------------------------------------------

STRIP_T = (1.0, 2.0)
# (w, h, grid): 48 x 48 and 64 x 32 interior grids
RECT_GRIDS = ((1.0, 1.0, 48), (2.0, 1.0, 64))
RECT_SOURCES = 4          # distinct sources per grid, reused across queries


def point_query_stream(seed: int, n_closed: int = 900, n_strip_pairs: int = 200,
                       n_strip_robin: int = 130, n_rect: int = 20) -> dict:
    """Seeded single-point queries, shuffled into one stream.

    Per pass: ``n_closed`` disk/half-plane/slit queries, per strip modulus
    ``n_strip_pairs`` symmetric Green pairs (z, a) and (a, z) plus
    ``n_strip_robin`` Robin queries, and per rectangle grid ``n_rect``
    Green queries from ``RECT_SOURCES`` repeated grid-node sources.
    """
    rng = np.random.default_rng(seed)
    disk_r = float(np.exp(rng.uniform(-math.log(2), math.log(2))))
    queries = []          # (domain key, "green"|"robin", z, a)

    def in_disk(r_max):
        return r_max * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())

    def upper():
        return complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))

    def off_ray():
        while True:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) > 0.05 and (z.real < 0 or abs(z.imag) > 0.05):
                return z

    makers = {"disk": lambda: in_disk(0.9 * disk_r), "half_plane": upper,
              "slit_plane": off_ray}
    kinds = list(makers)
    for k in range(n_closed):
        kind = kinds[k % 3]
        if k % 5 < 2:
            queries.append((kind, "robin", None, makers[kind]()))
            continue
        while True:
            z, a = makers[kind](), makers[kind]()
            if abs(z - a) > 0.05:
                break
        queries.append((kind, "green", z, a))

    for T in STRIP_T:
        key = f"strip_{T:g}"

        def strip_pt():
            return complex(rng.uniform(-0.45, -0.05), rng.uniform(0, T))

        for _ in range(n_strip_pairs):
            while True:
                z, a = strip_pt(), strip_pt()
                if min(abs(z - a + k * 1j * T) for k in (-1, 0, 1)) > 0.05:
                    break
            queries += [(key, "green", z, a), (key, "green", a, z)]
        queries += [(key, "robin", None, strip_pt()) for _ in range(n_strip_robin)]

    for w, h, grid in RECT_GRIDS:
        key = f"rect_{grid}"
        hx = w / grid
        lo = round(0.2 * h / hx)
        sources = [complex(rng.integers(lo, round(w / hx) - lo + 1) * hx,
                           rng.integers(lo, round(h / hx) - lo + 1) * hx)
                   for _ in range(RECT_SOURCES)]
        for k in range(n_rect):
            a = sources[k % RECT_SOURCES]
            while True:
                z = complex(rng.uniform(0.02 * w, 0.98 * w), rng.uniform(0.02 * h, 0.98 * h))
                if abs(z - a) >= 0.2 * min(w, h):
                    break
            queries.append((key, "green", z, a))

    order = rng.permutation(len(queries))
    return {"disk_R": disk_r, "queries": [queries[i] for i in order]}


def _theta1(w, T: float, terms: int = 30):
    """Jacobi theta_1(w | iT) from its Fourier series."""
    n = np.arange(terms)
    c = 2 * (-1.0) ** n * np.exp(-math.pi * T * (n + 0.5) ** 2)
    return np.sum(c * np.sin((2 * n + 1) * math.pi * w))


def _theta1_prime(w, T: float, terms: int = 30):
    n = np.arange(terms)
    c = 2 * math.pi * (-1.0) ** n * (2 * n + 1) * np.exp(-math.pi * T * (n + 0.5) ** 2)
    return np.sum(c * np.cos((2 * n + 1) * math.pi * w))


def _slit_w(z: complex) -> complex:
    """sqrt(z) on the plane slit along [0, inf), in the upper half-plane."""
    return 1j * cmath.sqrt(-z)


def green_oracle(key: str, z: complex, a: complex, disk_r: float) -> float:
    if key == "disk":
        return math.log(abs(disk_r ** 2 - z * a.conjugate())
                        / (disk_r * abs(z - a))) / (2 * math.pi)
    if key == "half_plane":
        return math.log(abs(z - a.conjugate()) / abs(z - a)) / (2 * math.pi)
    if key == "slit_plane":
        w, wa = _slit_w(z), _slit_w(a)
        return math.log(abs(w - wa.conjugate()) / abs(w - wa)) / (2 * math.pi)
    # strip {-1/2 < x < 0}, y mod T: the Green function of the torus double
    # minus its image under J(a) = -conj(a); the Im^2 terms cancel.
    T = float(key.split("_")[1])
    return -math.log(abs(_theta1(z - a, T) / _theta1(z + a.conjugate(), T))) / (2 * math.pi)


def robin_oracle(key: str, a: complex, disk_r: float) -> tuple[float, complex]:
    if key == "disk":
        s = disk_r ** 2 - abs(a) ** 2
        return math.log(s / disk_r), -a.conjugate() / s
    if key == "half_plane":
        return math.log(2 * a.imag), -0.5j / a.imag
    if key == "slit_plane":
        w = _slit_w(a)
        return math.log(4 * abs(w) * w.imag), 1 / (4 * a) + 1 / (4j * w * w.imag)
    T = float(key.split("_")[1])
    x2 = 2 * a.real
    th = float(np.real(_theta1(x2, T)))
    return (math.log(abs(th / float(np.real(_theta1_prime(0.0, T))))),
            complex(float(np.real(_theta1_prime(x2, T))) / th))


class PointQueries:
    """Single-point ``planar_green.green`` / ``robin_data`` calls."""

    def __init__(self, seed: int, workdir: Path):
        self.spec = point_query_stream(seed)
        self.domains = None
        self.planar_green = None          # the module, once run() has seen it
        self.latencies_ns: list[int] = []

    def _domains(self, potflow) -> dict:
        D = potflow.planar_green.DomainDescriptor
        doms = {"disk": D.disk(self.spec["disk_R"]), "half_plane": D.half_plane(),
                "slit_plane": D.slit_plane()}
        doms.update({f"strip_{T:g}": D.periodic_strip(complex(0, T)) for T in STRIP_T})
        doms.update({f"rect_{g}": D.rectangle(w, h, g) for w, h, g in RECT_GRIDS})
        return doms

    def run(self, potflow) -> list:
        if self.domains is None:
            self.domains = self._domains(potflow)
            self.planar_green = potflow.planar_green
        pg = self.planar_green
        clock = time.perf_counter_ns
        results, lat = [], []
        for key, op, z, a in self.spec["queries"]:
            dom = self.domains[key]
            try:
                t0 = clock()
                r = pg.green(dom, z, a) if op == "green" else pg.robin_data(dom, a)
                lat.append(clock() - t0)
            except Exception:               # counted as a failed query
                traceback.print_exc()
                r = None
            results.append(r)
        self.latencies_ns = lat
        return results

    def validate(self, results) -> Validation:
        series = self.planar_green.rectangle_green_series
        disk_r = self.spec["disk_R"]
        failed = 0
        packed = bytearray()
        green_by_pair = {}
        for (key, op, z, a), r in zip(self.spec["queries"], results):
            if r is None:
                failed += 1
                packed += b"<fail>"
                continue
            if op == "robin":
                packed += struct.pack("<4d", r.h0, r.h1.real, r.h1.imag, r.curvature)
                h0, h1 = robin_oracle(key, a, disk_r)
                ok = (abs(r.h0 - h0) <= 1e-10 * max(1.0, abs(h0))
                      and abs(r.h1 - h1) <= 1e-9 * max(1.0, abs(h1))
                      and (key.startswith("strip") or r.curvature == -4.0))
            else:
                packed += struct.pack("<d", r)
                if key.startswith("rect"):
                    w, h, grid = next(g for g in RECT_GRIDS if f"rect_{g[2]}" == key)
                    tol = RECT_TOL_PER_H2 * (w / grid) ** 2
                    ok = r > 0 and abs(r - series(self.domains[key], z, a)) <= tol
                else:
                    g = green_oracle(key, z, a, disk_r)
                    ok = r > 0 and abs(r - g) <= 1e-10 * max(1.0, abs(g))
                    if key.startswith("strip"):
                        green_by_pair[(key, z, a)] = r
            failed += not ok
        for (key, z, a), r in green_by_pair.items():
            twin = green_by_pair.get((key, a, z))
            if twin is None or abs(twin - r) > 1e-12 * max(1.0, abs(r)):
                failed += 1
        return Validation(len(results), min(failed, len(results)),
                          hashlib.sha256(bytes(packed)).hexdigest(), {})


def make(name: str, seed: int, workdir: Path):
    cls = {"verify-all": VerifyAll, "fekete": Fekete, "vortex-disk": VortexDisk,
           "point-queries": PointQueries}[name]
    workdir.mkdir(parents=True, exist_ok=True)
    return cls(seed, workdir)
