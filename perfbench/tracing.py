"""Span tracing of potflow, installed from outside the package.

`Tracer.install` replaces public functions on their modules (and the
direct references held in ``verify.SUITES``) with wrappers that open a
span, so every caller that looks the function up at call time is traced.
Spans are kept in memory as parallel lists; a layer's self time is the
duration of its spans minus the time their child spans cover.  Counters
without spans (carrier evaluations, object constructions, RK steps,
warnings) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import Counter
from pathlib import Path

# layer -> (module, attributes); "Class.method" patches the class.
SPAN_LAYERS = {
    "numkit.quad": ("numkit", ("contour_integral", "area_quadrature",
                               "gauss_legendre_panel")),
    "numkit.fd": ("numkit", ("wirtinger_derivative", "mixed_second_derivative",
                             "fd_laplacian", "laplacian_at")),
    "elliptic.wp": ("elliptic", ("wp", "wp_prime")),
    "elliptic.theta": ("elliptic", ("theta1", "theta1_prime", "log_abs_theta1")),
    "elliptic.zeta": ("elliptic", ("zeta_w",)),
    "elliptic.lattice": ("elliptic", ("lattice_constants",)),
    "planar_green.green": ("planar_green", ("green",)),
    "planar_green.robin": ("planar_green", ("robin_data",)),
    "planar_green.lu_factor": ("planar_green", ("RectangleGreenSolver.__init__",)),
    "planar_green.lu_solve": ("planar_green", ("RectangleGreenSolver.solve",)),
    "equilibrium.ladder": ("equilibrium", ("transfinite_diameter",)),
    "equilibrium.fekete": ("equilibrium", ("fekete_points",)),
    "equilibrium.measure": ("equilibrium", ("equilibrium_measure",
                                            "harmonic_measure")),
    "hadamard.variation": ("hadamard", ("hadamard_delta_green",
                                        "hadamard_delta_h0")),
    "hadamard.triple": ("hadamard", ("triple_green",)),
    "surface.torus_green": ("surface", ("torus_monopole_green",)),
    "surface.green_constant": ("surface", ("torus_green_constant",)),
    "surface.cell_quad": ("surface", ("sphere_green_mean", "sphere_mutual_energy",
                                      "torus_green_mean", "schiffer_mean_value",
                                      "wedge_integral_cell", "form_period")),
    "schottky.kernels": ("schottky", ("strip_bergman_kernels", "kkl_combinations",
                                      "szego_kernel", "szego_genus1")),
    "schottky.strip_quad": ("schottky", ("reproducing_check",
                                         "orthogonality_integral")),
    "schottky.green": ("schottky", ("g_electro_strip", "g_hydro_strip",
                                    "neumann_strip")),
    "numkit.rk": ("numkit", ("rk_integrate",)),
    "cli": ("cli", ("main",)),
}

# counter -> (module, "Class.method"): calls counted, no span.
COUNTED = {
    "equilibrium.carrier_evals": ("equilibrium", "CompactSet.boundary_point"),
    "vortex.system_builds": ("vortex", "VortexSystem.__post_init__"),
    "schottky.double_builds": ("schottky", "StripDouble.__post_init__"),
}

VERIFY_SUITES = ("planar", "surface", "schottky")

# Spans opened around the callbacks vortex.simulate hands to rk_integrate.
RK_CALLBACKS = ("vortex.field", "vortex.energy", "vortex.guard")

WARNING_COUNTERS = {"ConvergenceWarning": "equilibrium.convergence_warnings",
                    "FutureWarning": "warnings.future"}
OTHER_WARNINGS = "warnings.other"


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer in SPAN_LAYERS:
        if layer in ("numkit.rk", "cli"):
            continue
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += ["numkit.rk.self_s", "numkit.rk.steps_accepted",
              "numkit.rk.steps_rejected", "numkit.rk.accept_ratio",
              "numkit.rk.field_evals", "planar_green.lu.solves_per_factor",
              "surface.green_constant.misses", "surface.green_constant.hit_ratio",
              "surface.green_constant.cold_misses",
              "surface.green_constant.cold_self_s"]
    for layer in RK_CALLBACKS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += [*COUNTED, *WARNING_COUNTERS.values(), OTHER_WARNINGS]
    names += ["cli.calls", "cli.self_s", "cli.out_bytes"]
    names += [f"verify.{s}.wall_s" for s in VERIFY_SUITES] + ["verify.checks"]
    names += ["query.p50_us", "query.tail_us",
              "trace.spans", "trace.overhead_s"]
    return names


def self_times(names: list[str], parents: list[int], starts: list[float],
               ends: list[float]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, self time, total time).

    Spans nest strictly (the program is single threaded), so the part of a
    span covered by its children is the sum of the children's durations.
    """
    durations = [e - s for s, e in zip(starts, ends)]
    own = list(durations)
    for child, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[child]
    out: dict[str, list] = {}
    for name, d, o in zip(names, durations, own):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += o
        acc[2] += d
    return {k: (v[0], v[1], v[2]) for k, v in out.items()}


class Tracer:
    """In-memory span recorder; one pass's spans at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._cache_fn = None

    def reset(self) -> None:
        """Drop the recorded spans and counts (the wrappers stay installed)."""
        for buf in (self.names, self.parents, self.starts, self.ends, self._stack):
            buf.clear()
        self.counts.clear()

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _traced_rk(self, fn):
        """rk_integrate with its callbacks traced and its steps counted.

        Dormand-Prince makes one initial field evaluation plus seven per
        attempted step, and calls each monitor once at t=0 and once per
        accepted step, so the step counts follow from the callback counts.
        """
        field_span, energy_span, guard_span = RK_CALLBACKS

        def rk_integrate(field, state0, t_end, tol, monitors=None,
                         separation=None, **kwargs):
            calls = Counter()

            def tally(key, wrapped):
                def inner(y):
                    calls[key] += 1
                    return wrapped(y)
                return inner

            field = tally("field", self.span(field_span, field))
            if monitors:
                monitors = {k: self.span(energy_span, f) if k == "energy" else f
                            for k, f in monitors.items()}
                first = next(iter(monitors))
                monitors[first] = tally("monitor", monitors[first])
            if separation is not None:
                separation = self.span(guard_span, separation)
            try:
                return fn(field, state0, t_end, tol, monitors=monitors,
                          separation=separation, **kwargs)
            finally:
                attempted = max(calls["field"] - 1, 0) // 7
                accepted = max(calls["monitor"] - 1, 0)
                self.counts["numkit.rk.field_evals"] += calls["field"]
                self.counts["numkit.rk.steps_accepted"] += accepted
                self.counts["numkit.rk.steps_rejected"] += attempted - accepted

        return functools.wraps(fn)(rk_integrate)

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer boundaries of an imported potflow package.

        The wrappers stay for the life of the process, which is one
        benchmark worker.
        """
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in ("numkit", "elliptic", "planar_green", "equilibrium",
                          "vortex", "hadamard", "surface", "schottky", "cli",
                          "verify")}
        for layer, (mod, attrs) in SPAN_LAYERS.items():
            for attr in attrs:
                owner, leaf = _resolve(mods[mod], attr)
                fn = getattr(owner, leaf)
                if layer == "numkit.rk":
                    fn = self._traced_rk(fn)
                if layer == "surface.green_constant":
                    self._cache_fn = fn
                setattr(owner, leaf, self.span(layer, fn))
        for name, (mod, attr) in COUNTED.items():
            owner, leaf = _resolve(mods[mod], attr)
            setattr(owner, leaf, self.counted(name, getattr(owner, leaf)))
        suites = mods["verify"].SUITES
        for suite in VERIFY_SUITES:
            suites[suite] = self.span(f"verify.{suite}", suites[suite])

    def cache_info(self) -> tuple[int, int]:
        """(hits, misses) of the torus_green_constant lru_cache."""
        info = self._cache_fn.cache_info()
        return info.hits, info.misses

    def count_warnings(self, caught) -> None:
        for w in caught:
            self.counts[WARNING_COUNTERS.get(w.category.__name__, OTHER_WARNINGS)] += 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self, cache_delta: tuple[int, int]) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since reset."""
        agg = self_times(self.names, self.parents, self.starts, self.ends)
        out: dict[str, float] = {}

        def put(layer: str, calls: bool = True) -> None:
            n, own, _ = agg.get(layer, (0, 0.0, 0.0))
            if calls:
                out[f"{layer}.calls"] = n
            out[f"{layer}.self_s"] = own

        for layer in SPAN_LAYERS:
            put(layer, calls=layer != "numkit.rk")
        for layer in RK_CALLBACKS:
            put(layer)
        for suite in VERIFY_SUITES:
            out[f"verify.{suite}.wall_s"] = agg.get(f"verify.{suite}", (0, 0.0, 0.0))[2]
        for key in ("numkit.rk.steps_accepted", "numkit.rk.steps_rejected",
                    "numkit.rk.field_evals", *COUNTED, *WARNING_COUNTERS.values(),
                    OTHER_WARNINGS):
            out[key] = self.counts[key]
        attempted = out["numkit.rk.steps_accepted"] + out["numkit.rk.steps_rejected"]
        out["numkit.rk.accept_ratio"] = (out["numkit.rk.steps_accepted"] / attempted
                                         if attempted else 0.0)
        factors = out["planar_green.lu_factor.calls"]
        out["planar_green.lu.solves_per_factor"] = (
            out["planar_green.lu_solve.calls"] / factors if factors else 0.0)
        hits, misses = cache_delta
        out["surface.green_constant.misses"] = misses
        out["surface.green_constant.hit_ratio"] = (hits / (hits + misses)
                                                   if hits + misses else 0.0)
        out["trace.spans"] = len(self.names)
        return out

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as gzip CSV (id, parent, layer, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t_ref = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,layer,start_s,end_s\n")
            for i, (name, parent, s, e) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i},{parent},{name},{s - t_ref:.9f},{e - t_ref:.9f}\n")


def _resolve(module, dotted: str):
    owner = module
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf
