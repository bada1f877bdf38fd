"""Command-line front end.

Commands: ``verify`` (identity suites), ``fekete`` (capacity runs),
``vortex`` (trajectory simulation), ``torus`` (torus/strip kernel report)
and ``green`` (domain Green/Robin report).  Output is deterministic JSON
(sorted keys, no timestamps) and CSV with 17 significant digits.

Exit codes: 0 ok, 2 verification failure (or a check that raised),
3 simulation abort, 64 usage error, 65 input error (a malformed or
unreadable input, an unwritable --out path, or any potflow error that a
command raises).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .errors import CollisionError, ParameterError, PotflowError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_SIMULATION_ABORT = 3
EXIT_USAGE = 64
EXIT_SCHEMA = 65

# Largest accepted counts: --n-max sets the size of the n x n Fekete energy
# matrices, and the vortex count the size of the n x n pairwise arrays of a
# vortex run.
MAX_FEKETE_N = 256
MAX_VORTICES = 2000


class UsageError(Exception):
    pass


class SchemaError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors raised, and values such as -0.25,0.3 (a
    point left of the imaginary axis) read as values: argparse takes only
    plain negative numbers for values and every other word that starts with
    '-' for an option.  No potflow option starts with a digit, '.', inf or
    nan, so these stay values; subparsers are built from this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)

    def error(self, message):          # argparse defaults to exit code 2
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_json_arg(arg: str) -> dict:
    """Parse an inline JSON document or the contents of a file path.  An
    argument too long to be a path is parsed (os.path.exists is False where
    the system refuses the name)."""
    text = arg
    if not arg.lstrip().startswith("{") and os.path.exists(arg):
        try:
            text = Path(arg).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"cannot read {arg}: {exc}") from exc
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


def _finite_float(value: str) -> float:
    """float(value); inf and nan are input errors, a non-number a ValueError."""
    x = float(value)
    if not math.isfinite(x):
        raise SchemaError(f"numbers must be finite, got {value!r}")
    return x


_finite_float.__name__ = "float"    # argparse names the type in usage errors


def _parse_point(option: str, value: str) -> complex:
    try:
        re, im = (_finite_float(v) for v in value.split(","))
    except (ValueError, SchemaError) as exc:
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
    try:
        checks = verify.run_suite(args.suite)
    # a check that cannot finish has not passed either
    except PotflowError as exc:
        print(f"verify aborted: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
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
    K = _parse_document(args.domain, equilibrium.CompactSet.from_dict, "compact-set")
    pole = None if args.pole is None else _parse_point("--pole", args.pole)
    if args.n_max > MAX_FEKETE_N:
        raise SchemaError(f"--n-max must be at most {MAX_FEKETE_N}")
    report = equilibrium.transfinite_diameter(K, pole=pole, n_max=args.n_max)

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

    def parse(data: dict) -> vortex.VortexSystem:
        if len(data["vortices"]) > MAX_VORTICES:
            raise ParameterError(f"at most {MAX_VORTICES} vortices")
        return vortex.VortexSystem.from_dict(data)

    system = _parse_document(args.system, parse, "vortex-system")
    summary: dict = {"t_end": args.t_end, "tol": args.tol}
    try:
        traj = vortex.simulate(system, args.t_end, args.tol)
    except CollisionError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        summary["aborted"] = "collision"
        summary["collision_time"] = exc.time
        _write_or_print(_json_dumps(summary),
                        str(Path(args.out) / "summary.json") if args.out else None)
        return EXIT_SIMULATION_ABORT

    header = ["t"]
    for k in range(system.n):
        header += [f"re_z{k + 1}", f"im_z{k + 1}"]
    header.append("energy")
    # rows t, (re, im) per vortex, energy; "%.17g" % x is format(x, ".17g").
    # The table is freed once the rows are formatted, before the join.
    row_fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header), *(
        row_fmt % tuple(row.tolist()) for row in np.column_stack(
            [traj.times, traj.states.view(float), traj.monitors["energy"]]))]
    csv_text = "\n".join(lines) + "\n"

    for name, series in traj.monitors.items():
        summary[f"max_drift_{name}"] = float(np.max(np.abs(series - series[0])))
    summary["steps"] = int(len(traj.times))
    summary["steps_rejected"] = traj.steps_rejected
    summary["field_evals"] = traj.field_evals
    summary["h_min"] = traj.h_min
    summary["h_max"] = traj.h_max
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
    """Genus-one report for a torus modulus (plus the strip double's kernels
    when the modulus is purely imaginary)."""
    from . import verify
    tau = _parse_point("--tau", args.tau)
    rows = [c.to_dict() for c in verify.torus_checks(tau, args.p)]
    for row in rows:
        del row["name"]
    doc = {"tau": [tau.real, tau.imag], "identities": rows,
           "passed": all(r["pass"] for r in rows)}
    _write_or_print(_json_dumps(doc), args.out)
    return EXIT_OK if doc["passed"] else EXIT_VERIFY_FAILED


def _cmd_green(args) -> int:
    from . import planar_green
    domain = _parse_document(args.domain, planar_green.DomainDescriptor.from_dict,
                             "domain")
    a = _parse_point("--a", args.a)
    z = _parse_point("--z", args.z) if args.z else None
    doc: dict = {"domain": domain.to_dict(), "a": [a.real, a.imag]}
    exp = planar_green.robin_data(domain, a)
    doc["robin"] = {"h0": exp.h0, "h1": [exp.h1.real, exp.h1.imag],
                    "curvature": exp.curvature}
    if z is not None:
        doc["z"] = [z.real, z.imag]
        doc["green"] = planar_green.green(domain, z, a)
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
    p.add_argument("--t-end", type=_finite_float, default=10.0)
    p.add_argument("--tol", type=_finite_float, default=1e-10)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_vortex)

    p = sub.add_parser("torus", help="torus / strip-double kernel report")
    p.add_argument("--tau", required=True, help="modulus 're,im'")
    p.add_argument("--p", type=_finite_float, default=0.0, help="hydro circulation")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("green", help="Green/Robin report for a domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--a", required=True, help="source point 're,im'")
    p.add_argument("--z", default=None, help="evaluation point 're,im'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_green)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of ``main``, built once per process (it holds no state
    between parses, and building it costs ten parses)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # a malformed input, an input that the computation refuses, or a
    # document or --out path that cannot be read or written (OSError names it)
    except (SchemaError, PotflowError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
