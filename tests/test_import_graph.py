import ast
from pathlib import Path

import potflow

SRC = Path(potflow.__file__).parent


def _package_imports(path: Path) -> set[str]:
    """The potflow modules that the module at path imports, at any depth of
    its tree (function bodies included): ``from . import x``, ``from .x
    import y``, ``from potflow import x``, ``from potflow.x import y`` and
    ``import potflow.x``."""
    modules = {p.stem for p in SRC.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 or (node.level == 0 and node.module
                                          and node.module.split(".")[0] == "potflow")
            if not package:
                continue
            parts = (node.module or "").split(".")[node.level == 0:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("potflow."))
    return (found & modules) - {path.stem}


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the directed graph as a path that ends where it starts,
    or None."""
    state = dict.fromkeys(graph, 0)     # 0 new, 1 on the path, 2 done
    path = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph[node]):
            if state[nxt] == 1:
                return path[path.index(nxt):] + [nxt]
            if state[nxt] == 0 and (found := visit(nxt)):
                return found
        state[node] = 2
        path.pop()
        return None

    for node in sorted(graph):
        if state[node] == 0 and (found := visit(node)):
            return found
    return None


def test_the_package_import_graph_has_no_cycle():
    # a cycle makes one module's top level depend on the import order (the
    # later module of the pair must import the earlier at its end); each
    # module's imports come before its definitions only in an acyclic graph
    graph = {p.stem: _package_imports(p) for p in SRC.glob("*.py")}
    assert "planar_green" in graph["schottky"] and "verify" in graph["cli"]
    assert _cycle(graph) is None, _cycle(graph)


def test_the_cycle_finder_sees_a_cycle_and_the_imports_inside_functions():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None
    # cli imports verify inside a function
    assert "verify" in _package_imports(SRC / "cli.py")
