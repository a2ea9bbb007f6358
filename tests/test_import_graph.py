"""The three routes to the ring table stay independent, as an import graph.

bpring computes the Brauer-Picard ring three ways: the ladder/Karoubi engine,
the hand-written closed form and the domain-wall oracle.  Their agreement is
evidence only while no route derives from another, so no route may import
another, directly or through a shared module.  The graph is read from the
source with ast, imports inside functions included, so it does not depend on
what happens to be loaded.
"""

import ast
import shutil
from collections import deque
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bpring"
PACKAGE = "bpring"

SHARED = {"cyclotomic", "groups", "bimodules", "ring"}
ROUTES = {
    "engine": {"ladders", "karoubi", "fusion"},
    "closed_form": {"closed_form"},
    "walls": {"walls"},
}
FRONT_END = {"cli", "__init__"}


def import_graph(src: Path) -> dict[str, set[str]]:
    """Module -> the package modules it imports anywhere in its source."""
    paths = sorted(src.glob("*.py"))
    modules = {path.stem for path in paths}
    graph = {}
    for path in paths:
        name, deps = path.stem, set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == PACKAGE:
                        deps.add(parts[1] if len(parts) > 1 else "__init__")
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] != PACKAGE:
                    continue
                parts = (node.module or "").split(".")
                if node.level == 0:
                    parts = parts[1:]
                if parts and parts[0]:
                    deps.add(parts[0])
                else:  # from . import x, or from bpring import x
                    deps.update(a.name if a.name in modules else "__init__" for a in node.names)
        graph[name] = deps - {name}
    return graph


def path_to(graph: dict[str, set[str]], start: str, targets: set[str]) -> list[str] | None:
    """The shortest import path from start to a module in targets, if any."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        name = queue.popleft()
        for dep in sorted(graph.get(name, ())):
            if dep in parent:
                continue
            parent[dep] = name
            if dep in targets:
                path = [dep]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(dep)
    return None


def violations(src: Path) -> list[str]:
    graph = import_graph(src)
    classes = {"shared": SHARED, **ROUTES, "front end": FRONT_END}
    out = []
    for name in sorted(graph):
        homes = [cls for cls, members in classes.items() if name in members]
        if len(homes) != 1:
            out.append(f"{name} is in {len(homes)} classes, not exactly one")
    for name in sorted(set().union(*classes.values()) - set(graph)):
        out.append(f"{name} is classified but has no source file")
    all_routes = set().union(*ROUTES.values())
    for route, members in ROUTES.items():
        for name in sorted(members & set(graph)):
            path = path_to(graph, name, all_routes - members)
            if path:
                out.append(f"route {route} reaches another route: {' -> '.join(path)}")
    for name in sorted(SHARED & set(graph)):
        path = path_to(graph, name, all_routes)
        if path:
            out.append(f"shared module reaches a route: {' -> '.join(path)}")
    return out


def test_routes_are_independent_in_the_import_graph():
    found = violations(SRC)
    assert not found, "\n".join(found)


def test_graph_sees_imports_inside_functions_and_through_shared_modules(tmp_path):
    """A function-level import that makes ring reach fusion is caught, and so are
    the routes that reach fusion through ring."""
    for path in SRC.glob("*.py"):
        shutil.copy(path, tmp_path / path.name)
    with open(tmp_path / "ring.py", "a") as fh:
        fh.write("\n\ndef _late():\n    from . import fusion\n")
    found = violations(tmp_path)
    assert "shared module reaches a route: ring -> fusion" in found
    assert "route walls reaches another route: walls -> ring -> fusion" in found
    assert "route closed_form reaches another route: closed_form -> ring -> fusion" in found
