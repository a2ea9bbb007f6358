"""The three routes to the ring table stay independent, as an import graph.

bpring computes the Brauer-Picard ring three ways: the ladder/Karoubi engine,
the hand-written closed form and the domain-wall oracle.  Their agreement is
evidence only while no route derives from another, so no route may import
another, directly or through a shared module.  The graph is read from the
source with ast, imports inside functions included, so it does not depend on
what happens to be loaded.  The package loads each name on first use, so a
run loads only the route it calls; that is checked on fresh interpreters.

The library also holds no code that only the tests call: every function,
class and method it defines must be named somewhere in the library, the
demos or the benchmark.  Test-only helpers live in tests/.
"""

import ast
import os
import shutil
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bpring"
PACKAGE = "bpring"
USERS = ("demos", "perfbench")  # outside the library, the code that may keep a library name alive

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


# Each run, in a fresh interpreter: its code, the bpring modules it loads,
# and modules it must not load.
VERIFY_P5 = """import bpring
t = bpring.closed_form_table(5)
assert not bpring.diff_tables(t, bpring.oracle_table(5))
assert bpring.check_axioms(t).ok()
units = bpring.units_group(t)
assert (units.order, units.is_dihedral()) == (8, True)
assert not bpring.diff_tables(t, bpring.parse_json(bpring.serialize(t, "json")))
"""
# No run loads dataclasses or inspect, which cost more to import than a
# route's records, and the verify run loads no typing: its records are
# collections.namedtuple classes.
NEVER = {"dataclasses", "inspect"}
RUNS = {
    "import": ("import bpring", set(), NEVER | {"multiprocessing", "json"}),
    "verify": (VERIFY_P5, SHARED | ROUTES["closed_form"] | ROUTES["walls"], NEVER | {"multiprocessing", "typing"}),
    "build_table": ("import bpring\nbpring.build_table(3)", SHARED | ROUTES["engine"],
                    NEVER | {"multiprocessing", "json"}),
}


def modules_loaded_by(code: str) -> set[str]:
    """The modules that code loads in a fresh interpreter, beyond those loaded at start-up.

    The interpreter runs with -S, so that what the site module loads at
    start-up, such as typing imported by a .pth file, cannot hide a load.
    """
    probe = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(sorted(set(sys.modules) - before))"
    env = {k: v for k, v in os.environ.items() if k != "BPRING_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(ast.literal_eval(out.stdout))


@pytest.mark.parametrize("run", RUNS)
def test_a_run_loads_only_the_route_it_calls(run):
    code, modules, absent = RUNS[run]
    loaded = modules_loaded_by(code)
    assert {m for m in loaded if m.split(".")[0] == PACKAGE} == {PACKAGE} | {f"{PACKAGE}.{m}" for m in modules}
    assert not loaded & absent


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_named_def(node) -> bool:
    """A definition whose name is not a dunder: the interpreter calls dunders itself."""
    return _is_def(node) and not (node.name.startswith("__") and node.name.endswith("__"))


def definitions(src: Path) -> dict[str, str]:
    """Every non-dunder function, class and method defined at the top of a module or a class.

    A dunder is called by the interpreter, whether a class's __len__ or a
    module's __getattr__ and __dir__.  Maps "module.name" or
    "module.Class.method" to the name a reference uses.
    """
    out = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not _is_named_def(node):
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if _is_named_def(member):
                        out[f"{path.stem}.{node.name}.{member.name}"] = member.name
    return out


def names_used(paths) -> set[str]:
    """Names that an ast Name, Attribute or import alias in paths refers to."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
    return out


def module_references(paths) -> set[tuple[str, str]]:
    """(module, name) for each name that paths import from a module or read as module.name.

    The module is the last part of a from-import's module, or of the object
    an attribute is read on, so "from .ring import gatherer",
    "from bpring.ring import gatherer" and "ring.gatherer" all give
    ("ring", "gatherer"); "from bpring import x" and "bpring.x" give
    (PACKAGE, x).  An attribute read on anything else, such as self.x, gives
    nothing.
    """
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or PACKAGE).rsplit(".", 1)[-1]
                out.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                on = node.value
                if isinstance(on, ast.Name):
                    out.add((on.id, node.attr))
                elif isinstance(on, ast.Attribute):
                    out.add((on.attr, node.attr))
    return out


def names_defined(paths) -> set[str]:
    """Names that paths define themselves: functions, classes, methods and record fields.

    A record field is an annotated name, as in a dataclass body, or a
    keyword argument, as in SimpleNamespace(objects=...).
    """
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _is_def(node):
                out.add(node.name)
            elif isinstance(node, ast.keyword) and node.arg:
                out.add(node.arg)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out.add(node.target.id)
    return out


def bare_names(path: Path) -> set[str]:
    """Names that path reads as an ast Name."""
    return {node.id for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Name)}


def unused_definitions(root: Path) -> list[str]:
    """Library definitions that nothing outside the tests names.

    References count from the library outside __init__, and from the demos
    and the benchmark.  A method counts as used where any of them names it,
    except by a name the demos and the benchmark define themselves (a
    benchmark record's objects field is not LadderCategory.objects).  A
    module-level function or class counts as used only where one of them
    imports it by name or reads it as module.name or bpring.name, or where
    its own module names it bare, so a method of the same name does not keep
    it alive.
    """
    src = root / "src" / PACKAGE
    users = [path for d in USERS for path in sorted((root / d).glob("*.py"))]
    library = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    used = names_used(library) | (names_used(users) - names_defined(users))
    referenced = module_references(library + users)
    bare = {path.stem: bare_names(path) for path in library}
    unused = []
    for qualified, name in definitions(src).items():
        module = qualified.split(".", 1)[0]
        if qualified.count(".") == 2:  # module.Class.method
            alive = name in used
        else:
            alive = {(module, name), (PACKAGE, name)} & referenced or name in bare.get(module, ())
        if not alive:
            unused.append(qualified)
    return sorted(unused)


def test_library_defines_nothing_that_only_the_tests_use():
    unused = unused_definitions(ROOT)
    assert not unused, "only the tests use these; move them into tests/: " + ", ".join(unused)


def test_unused_definition_guard_sees_a_method_only_the_tests_call(tmp_path):
    """A method or module function that only tests call is found; one that a
    demo calls is not, nor a dunder of a class or a module.  A module
    function is kept only by a reference to it: an import of it, a read as
    module.name or bpring.name, or a bare name in its own module; a method
    of the same name does not keep it."""
    (tmp_path / "src" / PACKAGE).mkdir(parents=True)
    for d in USERS:
        (tmp_path / d).mkdir()
    (tmp_path / "src" / PACKAGE / "thing.py").write_text(
        "class Thing:\n    def used(self):\n        return self._helper()\n\n"
        "    def _helper(self):\n        return _bare()\n\n    def spare(self):\n        return 2\n\n"
        "    def __len__(self):\n        return 0\n\n\n"
        "def spare_function():\n    return 3\n\n\n"
        "def used():\n    return 4\n\n\n"
        "def _bare():\n    return 5\n\n\n"
        "def by_module():\n    return 6\n\n\n"
        "def by_package():\n    return 7\n\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n\n\n"
        "def __dir__():\n    return []\n"
    )
    (tmp_path / "demos" / "demo.py").write_text(
        "import bpring\nfrom bpring import thing\nfrom bpring.thing import Thing\n"
        "Thing().used()\nthing.by_module()\nbpring.by_package()\n"
    )
    (tmp_path / "perfbench" / "record.py").write_text(
        "from types import SimpleNamespace\n\nclass Record:\n    spare: int\n\n"
        "Record().spare\nSimpleNamespace(spare=2).spare\nRecord().spare_function\n"
    )
    assert unused_definitions(tmp_path) == ["thing.Thing.spare", "thing.spare_function", "thing.used"]
