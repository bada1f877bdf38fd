"""Command-line front end.

Commands: ``verify`` (identity suites), ``fekete`` (capacity runs),
``vortex`` (trajectory simulation), ``torus`` (torus/strip kernel report)
and ``green`` (domain Green/Robin report).  Output is deterministic JSON
(sorted keys, no timestamps) and CSV with 17 significant digits.

Exit codes: 0 ok, 2 verification failure, 3 simulation abort,
64 usage error, 65 input schema error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_SIMULATION_ABORT = 3
EXIT_USAGE = 64
EXIT_SCHEMA = 65

# Largest accepted counts: --n sets the node count of each torus period
# integral, --n-max the size of the n x n Fekete energy matrices, and the
# vortex count the size of the n x n pairwise arrays of a vortex run.
MAX_TORUS_N = 65536
MAX_FEKETE_N = 256
MAX_VORTICES = 2000


class UsageError(Exception):
    pass


class SchemaError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):          # argparse defaults to exit code 2
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_json_arg(arg: str) -> dict:
    """Parse an inline JSON document or the contents of a file path."""
    text = arg
    path = Path(arg)
    if not arg.lstrip().startswith("{") and path.exists():
        text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    return data


def _parse_document(arg: str, parse, what: str):
    """Build an object from an inline-JSON or file document argument."""
    data = _load_json_arg(arg)
    try:
        return parse(data)
    except Exception as exc:
        raise SchemaError(f"invalid {what} document: {exc}") from exc


def _parse_point(option: str, value: str) -> complex:
    try:
        re, im = (float(v) for v in value.split(","))
    except ValueError as exc:
        raise SchemaError(f"invalid {option} value {value!r}") from exc
    return complex(re, im)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
    else:
        sys.stdout.write(text + ("" if text.endswith("\n") else "\n"))


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from . import verify
    checks = verify.run_suite(args.suite)
    table = [c.to_dict() for c in checks]
    doc = {"suite": args.suite,
           "checks": table,
           "passed": all(row["pass"] for row in table)}
    _write_or_print(_json_dumps(doc), args.out)
    if not doc["passed"]:
        for row in table:
            if not row["pass"]:
                print(f"FAIL {row['anchor']}: residual {row['residual']:.3e} "
                      f"> tol {row['tolerance']:.1e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_fekete(args) -> int:
    from . import equilibrium
    from .errors import ParameterError
    K = _parse_document(args.domain, equilibrium.CompactSet.from_dict, "compact-set")
    pole = None if args.pole is None else _parse_point("--pole", args.pole)
    if args.n_max > MAX_FEKETE_N:
        raise SchemaError(f"--n-max must be at most {MAX_FEKETE_N}")
    try:
        report = equilibrium.transfinite_diameter(K, pole=pole, n_max=args.n_max)
    except ParameterError as exc:   # pole on the carrier, n_max too small
        raise SchemaError(str(exc)) from exc

    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "capacity.json").write_text(_json_dumps(report.to_dict()))
        lines = ["n,index,re,im"]
        for n in report.n_values:
            for k, zk in enumerate(report.points[n]):
                lines.append(f"{n},{k},{_fmt(zk.real)},{_fmt(zk.imag)}")
        (outdir / "fekete_points.csv").write_text("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_json_dumps(report.to_dict()) + "\n")
    return EXIT_OK


def _cmd_vortex(args) -> int:
    from . import vortex
    from .errors import CollisionError, EvaluationError, ParameterError

    def parse(data: dict) -> vortex.VortexSystem:
        if len(data["vortices"]) > MAX_VORTICES:
            raise ParameterError(f"at most {MAX_VORTICES} vortices")
        return vortex.VortexSystem.from_dict(data)

    system = _parse_document(args.system, parse, "vortex-system")
    summary: dict = {"t_end": args.t_end, "tol": args.tol}
    try:
        traj = vortex.simulate(system, args.t_end, args.tol)
    except (ParameterError, EvaluationError) as exc:   # t_end, tol, budget, NaN field
        raise SchemaError(str(exc)) from exc
    except CollisionError as exc:
        summary["aborted"] = "collision"
        summary["collision_time"] = exc.time
        _write_or_print(_json_dumps(summary),
                        str(Path(args.out) / "summary.json") if args.out else None)
        return EXIT_SIMULATION_ABORT

    header = ["t"]
    for k in range(system.n):
        header += [f"re_z{k + 1}", f"im_z{k + 1}"]
    header.append("energy")
    lines = [",".join(header)]
    energy = traj.monitors["energy"]
    for i, t in enumerate(traj.times):
        row = [_fmt(t)]
        for k in range(system.n):
            row += [_fmt(traj.states[i][k].real), _fmt(traj.states[i][k].imag)]
        row.append(_fmt(energy[i]))
        lines.append(",".join(row))
    csv_text = "\n".join(lines) + "\n"

    for name, series in traj.monitors.items():
        summary[f"max_drift_{name}"] = float(np.max(np.abs(series - series[0])))
    summary["steps"] = int(len(traj.times))
    summary["steps_rejected"] = traj.steps_rejected
    summary["field_evals"] = traj.field_evals
    summary["final_state"] = [[z.real, z.imag] for z in traj.final_state]

    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "trajectory.csv").write_text(csv_text)
        (outdir / "summary.json").write_text(_json_dumps(summary))
    else:
        sys.stdout.write(_json_dumps(summary) + "\n")
    return EXIT_OK


def _cmd_torus(args) -> int:
    """Kernel report for a torus modulus (plus the strip double when the
    modulus is purely imaginary)."""
    from . import schottky, surface, verify
    from .errors import ConditioningError
    tau = _parse_point("--tau", args.tau)
    if tau.imag <= 0:
        raise SchemaError("tau must have positive imaginary part")
    if not 16 <= args.n <= MAX_TORUS_N:
        raise SchemaError(f"--n must lie in [16, {MAX_TORUS_N}]")
    try:
        spec = surface.TorusSpec.from_tau(tau)
    except ConditioningError as exc:   # Im tau too small for the q-series
        raise SchemaError(str(exc)) from exc

    rows = []
    L = spec.lattice
    rows.append({"anchor": "Legendre",
                 "residual": abs(L.eta1 * tau - L.eta2 - 2j * math.pi),
                 "tolerance": 1e-12})
    basis = surface.torus_harmonic_basis(spec)
    rows.append({"anchor": "PQR",
                 "residual": basis["periods"].residuals()["PQ_I_R2"],
                 "tolerance": 1e-10})
    rows.append({"anchor": "KPQ",
                 "residual": surface.bergman_expansion_check(spec),
                 "tolerance": 1e-10})
    at = 0.31 + 0.41j * tau.imag
    rows.append({"anchor": "C",
                 "residual": abs(surface.schiffer_mean_value(spec, at)),
                 "tolerance": 1e-6})
    if abs(tau.real) < 1e-14:
        dbl = schottky.StripDouble(tau, p=args.p)
        a = complex(-0.25, 0.4 * tau.imag)
        z = complex(-0.2, 0.15 * tau.imag)
        ke, kh, kd = schottky.strip_bergman_kernels(z, a, dbl)
        rows.append({"anchor": "KKH", "residual": abs(ke - kh - 2 * kd),
                     "tolerance": 0.0})
        rows.append({"anchor": "kernels2",
                     "residual": verify._kernel_period_residual(dbl, a, n=args.n),
                     "tolerance": 1e-8})
        rows.append({"anchor": "KKL",
                     "residual": max(schottky.kkl_combinations(z, a, dbl)),
                     "tolerance": 1e-10})
        rows.append({"anchor": "ointdGp",
                     "residual": abs(schottky.hydro_circulation(a, dbl, args.p)
                                     - args.p),
                     "tolerance": 1e-8})
    for row in rows:
        row["residual"] = float(row["residual"])
        row["pass"] = bool(row["residual"] <= row["tolerance"])
    doc = {"tau": [tau.real, tau.imag], "identities": rows,
           "passed": all(r["pass"] for r in rows)}
    _write_or_print(_json_dumps(doc), args.out)
    return EXIT_OK if doc["passed"] else EXIT_VERIFY_FAILED


def _cmd_green(args) -> int:
    from . import planar_green
    from .errors import ConditioningError, DomainError, ParameterError, PoleError
    domain = _parse_document(args.domain, planar_green.DomainDescriptor.from_dict,
                             "domain")
    a = _parse_point("--a", args.a)
    z = _parse_point("--z", args.z) if args.z else None
    doc: dict = {"domain": domain.to_dict(), "a": [a.real, a.imag]}
    try:
        exp = planar_green.robin_data(domain, a)
        doc["robin"] = {"h0": exp.h0, "h1": [exp.h1.real, exp.h1.imag],
                        "curvature": exp.curvature}
        if z is not None:
            doc["z"] = [z.real, z.imag]
            doc["green"] = planar_green.green(domain, z, a)
    except (DomainError, ParameterError, ConditioningError, PoleError) as exc:
        raise SchemaError(str(exc)) from exc
    _write_or_print(_json_dumps(doc), args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="potflow",
                     description="Potential-theory numerics: verification "
                                 "suites, capacity runs, vortex simulation, "
                                 "kernel reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run an identity verification suite")
    p.add_argument("--suite", choices=["planar", "surface", "schottky", "all"],
                   default="all")
    p.add_argument("--out", default=None, help="write the JSON table here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fekete", help="Fekete ladder and capacity report")
    p.add_argument("--domain", required=True,
                   help="compact set as inline JSON or a file path")
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--pole", default=None, help="finite pole 're,im'")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_fekete)

    p = sub.add_parser("vortex", help="integrate a point-vortex system")
    p.add_argument("--system", required=True,
                   help="vortex system as inline JSON or a file path")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_vortex)

    p = sub.add_parser("torus", help="torus / strip-double kernel report")
    p.add_argument("--tau", required=True, help="modulus 're,im'")
    p.add_argument("--p", type=float, default=0.0, help="hydro circulation")
    p.add_argument("--n", type=int, default=192, help="period quadrature nodes")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("green", help="Green/Robin report for a domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--a", required=True, help="source point 're,im'")
    p.add_argument("--z", default=None, help="evaluation point 're,im'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_green)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
