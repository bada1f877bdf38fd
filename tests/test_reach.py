"""Every function in potflow is reached by a command, and every option is
set by a caller, or is declared here.

The guard runs the commands of ``_commands`` in one fresh interpreter under
``sys.setprofile`` (a warm one would hide the first-call work behind
caches, the lattice builds among it) and lists each ``def`` in
``src/potflow`` whose code never ran.  A code object is matched to its
``def`` by file, first line and name; the first line of a decorated
function is its first decorator's, as on the ``lru_cache`` functions.
Lambdas and comprehensions are not counted.

That list must equal ``ALLOWED``, so new dead code fails here, and so does
an entry whose function is now reached or gone.  To keep a function that
no command runs, add ``"module.Qualified.name": REASON`` to ``ALLOWED``
with one of the reasons below, or a new one-line reason that says why
the function stays.

The option guard is static: a parameter with a default, of a ``def`` in
``src/potflow``, is set when some call in ``src/potflow`` or
``perfbench`` passes it, by position or keyword, anything but a literal
equal to its default.  Calls are matched by the function's name (the
class's for ``__init__``), so a shared name can hide an unset option but
never invent one.  The unset options must equal ``ALLOWED_OPTIONS``: make
an option that no caller sets a constant, or add
``"module.Qualified.name(parameter)": REASON`` with a one-line reason.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import potflow

SRC = Path(potflow.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ERROR_PATH = "error path: runs only when a command fails"
FD_ORACLE = ("finite-difference rectangle oracle of the tests; perfbench traces "
             "the solver by name")
TRACED = "perfbench/tracing.py wraps it by name (tests/test_trace_names.py)"
ITEM_5 = "awaits vortex dynamics beyond the disk (ROADMAP item 5)"
ITEM_6 = "awaits the capacity solve with exact panel integrals (ROADMAP item 6)"
PAPER = "paper quantity reached only by tests; awaits a verify oracle"
NO_COMMAND_KIND = "closed form of a kind that no command integrates over"
PUBLIC = "public constructor or serializer of a command's input type"

ALLOWED = {
    "cli._Parser.error": ERROR_PATH,
    "errors.EvaluationError.__init__": ERROR_PATH,
    "errors.CollisionError.__init__": ERROR_PATH,
    "planar_green.RectangleGreenGrid.__init__": FD_ORACLE,
    "planar_green.RectangleGreenGrid.value": FD_ORACLE,
    "planar_green._sine_basis": FD_ORACLE,
    "planar_green.RectangleGreenSolver.__init__": FD_ORACLE,
    "planar_green.RectangleGreenSolver.node_index": FD_ORACLE,
    "planar_green.RectangleGreenSolver._transverse": FD_ORACLE,
    "planar_green.RectangleGreenSolver.solve": FD_ORACLE,
    "planar_green.rectangle_green_series": (
        "independent rectangle oracle of the tests and of perfbench/workloads.py"),
    "equilibrium.CompactSet.boundary_point": TRACED,
    "equilibrium.fekete_points": TRACED,
    "equilibrium.equilibrium_measure": TRACED,
    # verify's dGdn row sums the disk's raw weights, which this would refuse
    # before the row could fail
    "equilibrium.harmonic_measure": TRACED,
    "equilibrium.WeightedMeasure.__post_init__": (
        "validates the measures of harmonic_measure and equilibrium_measure, "
        "which no command builds"),
    "numkit.gauss_legendre_panel": TRACED,
    "numkit.area_quadrature": TRACED,
    "planar_green.DomainDescriptor.area_rule": TRACED,
    "surface.torus_green_constant": TRACED,
    # the image sums read the theta jet; the tests' references read this
    "elliptic.log_abs_theta1": TRACED,
    "equilibrium._carrier_nodes": ITEM_6,
    "equilibrium._log_kernel": ITEM_6,
    "equilibrium.equilibrium_energy": ITEM_6,
    "schottky.gamma_electro_gradient": ITEM_5,
    "vortex.pair_force": PAPER,
    "vortex.bound_vortex_force": PAPER,
    "vortex.free_vortex_velocity": PAPER,
    "vortex.forced_vortex_velocity": PAPER,
    "vortex.stream_function": PAPER,
    "vortex.hamiltonian": PAPER,
    "equilibrium.discrete_energy": PAPER,
    "equilibrium.condenser_capacity": PAPER,
    "equilibrium.WeightedMeasure.potential": PAPER,
    "equilibrium.WeightedMeasure.integrate": PAPER,
    "schottky.StripDouble.p11_quadrature": PAPER,
    "planar_green._rectangle_area_rule": NO_COMMAND_KIND,
    "planar_green._rectangle_dgdz": NO_COMMAND_KIND,
    "planar_green._rectangle_harmonic": NO_COMMAND_KIND,
    "planar_green._slit_dgdz": NO_COMMAND_KIND,
    "equilibrium.CompactSet.disk": PUBLIC,
    "equilibrium.CompactSet.to_dict": PUBLIC,
    "planar_green.DomainDescriptor.to_json": PUBLIC,
    "vortex.VortexSystem.to_dict": PUBLIC,
    "vortex.VortexSystem.to_json": PUBLIC,
    "schottky.StripDouble.contains": (
        "public predicate of the strip double; queries test points through "
        "planar_green._strip_contains"),
}

ALLOWED_OPTIONS = {
    "equilibrium.fekete_points(pole)": TRACED,
    "numkit.gauss_legendre_panel(panels)": TRACED,
    "planar_green.RectangleGreenSolver.__init__(grid)": FD_ORACLE,
    "equilibrium.equilibrium_measure(m)": ITEM_6,
    "schottky.gamma_hydro(p)": ITEM_5,
    "equilibrium.harmonic_measure(m)": (
        "node count that the tests vary near the wall; ROADMAP item 3 grades the rule"),
    "equilibrium.condenser_capacity(n_dim)": "paper parameter: the dimension of space",
    "numkit.rk_integrate(max_steps)": "the tests lower the step budget to exhaust it",
    "planar_green._rectangle_jet(side)": (
        "called as the rectangle record's boundary_jet, a name the scan cannot follow"),
}

_CHILD = r"""
import contextlib, io, json, os, sys

seen = set()


def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(profile)
from potflow import cli

codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
sys.setprofile(None)
root = os.path.dirname(cli.__file__)
print(json.dumps({"codes": codes, "reached": sorted(
    (c.co_filename, c.co_firstlineno, c.co_name)
    for c in seen if c.co_filename.startswith(root))}))
"""


def _commands(out: Path) -> list[list[str]]:
    """Every command, on each domain kind it takes; fekete writes under out."""
    rect = '{"kind":"rectangle","w":2.0,"h":1.0}'
    fekete = [('{"kind":"circle","R":1.0}', None),
              ('{"kind":"segment","length":2.0}', None),
              (f'{{"kind":"domain_boundary","domain":{rect}}}', None),
              ('{"kind":"circle","R":1.0}', "2,0")]
    pair = '[{"z":[0.3,0],"gamma":1},{"z":[-0.2,0.1],"gamma":-0.5}]'
    green = [('{"kind":"disk","R":1.0}', "0.3,0.2", "0.1,0.5"),
             ('{"kind":"half_plane"}', "0.3,0.2", "0.1,0.5"),
             ('{"kind":"slit_plane"}', "-0.3,0.2", "0.1,0.5"),
             (rect, "0.6,0.4", "0.1,0.5"),
             ('{"kind":"periodic_strip","tau":[0,2]}', "-0.25,0.3", "-0.1,0.5")]
    return [
        ["verify", "--suite", "all"],
        *(["fekete", "--domain", doc, "--n-max", "16", "--out", str(out / f"fekete{k}"),
           *(["--pole", pole] if pole else [])]
          for k, (doc, pole) in enumerate(fekete)),
        *(["vortex", "--system", f'{{"vortices":{pair},"domain":{dom}}}',
           "--t-end", "0.1"]
          for dom in ('{"kind":"disk","R":1.0}', '{"kind":"plane"}')),
        ["torus", "--tau", "0,2"],
        ["torus", "--tau", "0.3,2"],
        ["torus", "--tau", "0,1.5", "--p", "0.3"],
        *(["green", "--domain", dom, "--a", a, "--z", z] for dom, a, z in green),
    ]


def _walk_defs():
    """(file, "module.Qualified.name", the def's node, the name of the class
    whose body holds it or None) for every def in src/potflow."""
    def walk(node, path, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, f"{prefix}.{child.name}", child, cls
                yield from walk(child, path, f"{prefix}.{child.name}", None)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, path, f"{prefix}.{child.name}", child.name)
            else:
                yield from walk(child, path, prefix, cls)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(ast.parse(path.read_text()), str(path), path.stem, None)


def _defs() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> "module.Qualified.name" for every def."""
    return {(path, min([node.lineno, *(d.lineno for d in node.decorator_list)]),
             node.name): qual for path, qual, node, _ in _walk_defs()}


def test_every_def_is_reached_or_allowed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(_commands(tmp_path))],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(result["codes"])
    defs = _defs()
    reached = {(str(Path(f).resolve()), line, name) for f, line, name in result["reached"]}
    unreached = {name for key, name in defs.items() if key not in reached}
    new = sorted(unreached - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - unreached)
    assert not new and not stale, (
        f"unreached by any command and not in ALLOWED: {new}; "
        f"in ALLOWED but reached or gone: {stale}")


def _options() -> dict[str, tuple[str, str, int | None, ast.expr]]:
    """Map "module.Qualified.name(parameter)" to (the name calls use, the
    parameter, the position a call passes it at, None if keyword-only, and
    its default) for every parameter with a default of a def in potflow."""
    found = {}
    for _, qual, node, cls in _walk_defs():
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        skip = int(cls is not None and not static)   # self or cls is not passed
        first = len(positional) - len(args.defaults)
        named = [(p, k - skip, d) for k, (p, d) in enumerate(
            zip(positional[first:], args.defaults), start=first)]
        named += [(p, None, d) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        call_name = cls if node.name == "__init__" else node.name
        for p, position, default in named:
            found[f"{qual}({p.arg})"] = (call_name, p.arg, position, default)
    return found


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in src/potflow and perfbench, by the name it calls."""
    calls = {}
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _literal(node: ast.expr):
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError):
        return False, None


def _sets(call: ast.Call, param: str, position: int | None, default: ast.expr) -> bool:
    """Whether the call may pass the parameter something other than a
    literal equal to its default; *args and **kwargs count as passing it."""
    if any(k.arg is None for k in call.keywords):
        return True
    values = [k.value for k in call.keywords if k.arg == param]
    if position is not None:
        starred = [k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)]
        if starred and starred[0] <= position:
            return True
        values += call.args[position:position + 1]
    literal_default = _literal(default)
    return any(not literal_default[0] or _literal(v) != literal_default for v in values)


def test_every_option_is_set_by_a_caller():
    assert PERFBENCH.is_dir()
    calls = _calls()
    unset = {key for key, (name, param, position, default) in _options().items()
             if not any(_sets(c, param, position, default) for c in calls.get(name, ()))}
    new = sorted(unset - ALLOWED_OPTIONS.keys())
    stale = sorted(ALLOWED_OPTIONS.keys() - unset)
    assert not new and not stale, (
        f"options that no caller sets and not in ALLOWED_OPTIONS: {new}; "
        f"in ALLOWED_OPTIONS but set or gone: {stale}")


def test_cli_reads_no_private_name_of_another_module():
    # cli parses arguments and writes reports; what it reports comes from
    # the public names of the modules that compute it
    modules, private = set(), set()
    tree = ast.parse((SRC / "cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "potflow"):
            package = node.module in (None, "potflow")
            for alias in node.names:
                if package:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.add(f"{node.value.id}.{node.attr}")
    assert not private, f"cli reads private names: {sorted(private)}"


# numkit's finite-difference helpers, and the defs that may call them: verify's
# checks, the metric curvature, and the helpers composing one another
FD_HELPERS = {"cross_stencil", "wirtinger_derivative", "mixed_second_derivative",
              "laplacian_at", "fd_laplacian"}
FD_CALLERS = {"planar_green.curvature_of_metric", *(f"numkit.{h}" for h in FD_HELPERS)}


def _defs_where(matches) -> set[str]:
    """"module.Qualified.name" of each def in src/potflow that holds a node
    for which ``matches`` is true (the module's name outside any def)."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{where}.{child.name}")
                continue
            if matches(child):
                yield where
            yield from walk(child, where)

    return {where for path in SRC.glob("*.py")
            for where in walk(ast.parse(path.read_text()), path.stem)}


def _name(node) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _fd_callers() -> set[str]:
    """The defs that call a helper of FD_HELPERS."""
    return _defs_where(lambda node: isinstance(node, ast.Call)
                       and _name(node.func) in FD_HELPERS)


def test_finite_differences_are_oracles_not_library_paths():
    # a library value taken by a difference carries the step's error (and
    # roundoff over the step) into everything built on it; differences stay
    # oracles, against which closed forms are checked
    callers = _fd_callers()
    outside = sorted(c for c in callers
                     if c.split(".")[0] != "verify" and c not in FD_CALLERS)
    assert not outside, f"finite differences called outside verify: {outside}"
    assert "planar_green.curvature_of_metric" in callers


# the defs that may raise DomainError: the one interior check, and the checks
# of other things than a point's place in its domain
DOMAIN_ERROR_RAISERS = {
    "planar_green._require_interior",
    "schottky.neumann_strip",                          # the double's resolved range
    "schottky.ahlfors_map_disk",                       # z in the closed disk
    "schottky.circular_slit_map",                      # z in the closed disk
    "planar_green.RectangleGreenSolver.node_index",    # a grid node
}


def test_points_outside_their_domain_are_refused_by_one_check():
    # a hand-rolled interior check words its refusal its own way; every point
    # outside its domain is refused by _require_interior, in one message
    raisers = _defs_where(lambda node: isinstance(node, ast.Raise) and _name(
        node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "DomainError")
    outside = sorted(raisers - DOMAIN_ERROR_RAISERS)
    stale = sorted(DOMAIN_ERROR_RAISERS - raisers)
    assert not outside and not stale, (
        f"DomainError raised outside _require_interior: {outside}; "
        f"in DOMAIN_ERROR_RAISERS but raising none: {stale}")


# the rule builders: the defs that may call numkit's 1-D trapezoid and
# Gauss-Legendre rules or place nodes at np.exp(1j ...) or np.exp(2j ...);
# every boundary or cycle integral takes its (nodes, weights) from one of them
CURVE_RULE = "the rule of one kind of curve, returning (nodes, dz-weights)"
RULE_BUILDERS = {
    "numkit.circle_rule": CURVE_RULE,
    "numkit.segment_rule": CURVE_RULE,
    "numkit.cycle_rule": CURVE_RULE,
    "planar_green._disk_rule": "the disk's boundary rule: angles, nodes and arc length",
    "schottky.StripDouble.wall_rule": "the strip's vertical lines: nodes x0 + i y, dy-weights",
    "numkit.sinh_rule": "numkit's graded rule, built on the Gauss-Legendre rule",
    "numkit.gauss_legendre_panel": "numkit's composite rule on [a, b]",
    "equilibrium._carrier_nodes": "the parameter rule on a compact set's carrier",
    "schottky.circular_slit_map": "one rule in t for the segments a + (z - a) t of many z",
    "verify.schottky_checks": "np.exp(2j pi w / tau) is an integrand, not nodes",
}


def _builds_nodes(node) -> bool:
    """Whether the node names numkit's trapezoid or Gauss-Legendre rule, or
    calls np.exp on a product that starts with 1j or 2j."""
    if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in (
            "trapezoid_rule", "gauss_legendre_rule"):
        return True
    func = getattr(node, "func", None)
    if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
            and func.attr == "exp" and _name(func.value) == "np" and node.args):
        return False
    arg = node.args[0]
    while isinstance(arg, ast.BinOp):
        arg = arg.left
    return isinstance(arg, ast.Constant) and arg.value in (1j, 2j)


def test_boundary_nodes_come_from_one_rule_builder_per_curve():
    # a circle, cycle or wall written out by hand is a second copy of its
    # rule, which an edit of the first one misses
    builders = _defs_where(_builds_nodes)
    new = sorted(builders - RULE_BUILDERS.keys())
    stale = sorted(RULE_BUILDERS.keys() - builders)
    assert not new and not stale, (
        f"nodes built outside the rule builders: {new}; "
        f"in RULE_BUILDERS but building none: {stale}")
