"""The package's public names and the rules its modules keep."""

import ast
import pathlib
import re
import types
from collections import defaultdict

import pytest

import socproj
from socproj import bench
from tests.test_bench import load_perfbench

SRC = pathlib.Path(socproj.__file__).parent


def test_all_is_explicit_and_lists_no_modules():
    assert len(set(socproj.__all__)) == len(socproj.__all__)
    for name in socproj.__all__:
        assert not isinstance(getattr(socproj, name), types.ModuleType), name


def test_all_covers_every_public_non_module_name():
    public = {
        name
        for name in dir(socproj)
        if not name.startswith("_")
        and not isinstance(getattr(socproj, name), types.ModuleType)
    }
    assert public == set(socproj.__all__)


def _defined_names(top):
    """The names a top-level statement binds by ``def``, ``class`` or
    assignment, not by import."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def test_each_public_name_is_declared_once_by_the_module_defining_it():
    """``__init__`` star-imports each module and joins their ``__all__`` lists
    in that order; every listed name is a top-level definition of its module
    and is listed by no other module."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in init.body if isinstance(node, ast.ImportFrom)]
    assert [alias.name for node in imports for alias in node.names] == ["*"] * len(imports)
    joined, owner = [], {}
    for node in imports:
        module = getattr(socproj, node.module)
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        defined = {name for top in tree.body for name in _defined_names(top)}
        for name in module.__all__:
            assert name in defined, f"{node.module}.{name}"
            assert owner.setdefault(name, node.module) == node.module, name
        joined += module.__all__
    assert len(imports) == 6
    assert socproj.__all__ == joined


def _package_trees(exempt=None):
    """(file name, AST, ids of the nodes inside ``problems.<exempt>``) for
    each module of the package."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = set()
        if path.name == "problems.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == exempt:
                    skip.update(id(sub) for sub in ast.walk(node))
        yield path.name, tree, skip


def test_no_module_imports_another_modules_private_name():
    """A module's underscore names are its own: no ``from .x import _y``
    inside the package.  Dunder names such as ``__version__`` are public."""
    imports = []
    for name, tree, _ in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                imports += [
                    f"{name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert imports == []


def test_drift_coefficients_are_called_only_in_discretize():
    """``problems.discretize`` is the one place that evaluates b_y, b_u or m;
    every other stage reads its left-node arrays."""
    calls = []
    for name, tree, skip in _package_trees("discretize"):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("b_y", "b_u", "m")
                and id(node) not in skip
            ):
                calls.append(f"{name}:{node.lineno}")
    assert calls == []


def test_diffusion_declarations_are_read_only_in_discretize():
    """``problems.discretize`` is the one place that calls ``constant_value``;
    every pass reads the ``GridProblem`` fields instead."""
    calls = []
    for name, tree, skip in _package_trees("discretize"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in skip:
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "constant_value":
                calls.append(f"{name}:{node.lineno}")
    assert calls == []


def test_no_module_compares_against_the_zero_sentinel():
    """No module tests for ``ZERO`` by identity or equality: every check
    reads the declaration's ``constant_value``, so each sees through
    ``functools.wraps`` wrappers the same way and takes any ``constant(0.0)``."""
    compares = []
    for name, tree, skip in _package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare) or id(node) in skip:
                continue
            if not any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(
                (isinstance(x, ast.Name) and x.id == "ZERO")
                or (isinstance(x, ast.Attribute) and x.attr == "ZERO")
                for x in operands
            ):
                compares.append(f"{name}:{node.lineno}")
    assert compares == []


# Public names that no module of the package references, each with the reason
# it stays a library entry point.  Any other such name is dead code.
UNCALLED_ENTRY_POINTS: dict[str, str] = {}


def _referenced_names():
    """Every name that a module of the package other than ``__init__.py``
    references, as a name or as an attribute, outside the definition of that
    same name: a top-level function, class or assignment, or a class's method."""
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = defaultdict(set)  # id of each node -> names defined around it
        for top in tree.body:
            defs = [(name, top) for name in _defined_names(top)]
            if isinstance(top, ast.ClassDef):
                defs += [(f.name, f) for f in top.body if isinstance(f, ast.FunctionDef)]
            for name, definition in defs:
                for node in ast.walk(definition):
                    own[id(node)].add(name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in own.get(id(node), ()):
                referenced.add(name)
    return referenced


def test_every_public_name_has_a_caller_in_the_package():
    """Every name in ``__all__`` is referenced somewhere in ``src/socproj``
    outside its own top-level definition and ``__init__.py``."""
    assert set(UNCALLED_ENTRY_POINTS) <= set(socproj.__all__)
    uncalled = set(socproj.__all__) - _referenced_names() - set(UNCALLED_ENTRY_POINTS)
    assert sorted(uncalled) == []


def test_every_public_method_has_a_caller_in_the_package():
    """Every public method and property of the package's classes is
    referenced somewhere in ``src/socproj`` outside its own definition, so
    the package ships no method that only the tests call."""
    methods = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.ClassDef):
                methods += [
                    (f"{path.stem}.{top.name}.{f.name}", f.name)
                    for f in top.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                ]
    # basis, solve_config, dt, assign, ensemble, serve, noise, rho_at, L, L
    assert len(methods) >= 8
    referenced = _referenced_names()
    assert [qual for qual, name in methods if name not in referenced] == []


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Config keys that no shipped config and no benchmark workload sets, each with
# the reason it stays an option.  Any other such key is a knob nothing runs.
UNSET_CONFIG_KEYS = {
    "u0": "the initial control; every table starts from the default 0",
    "normalize_increments": "switches to the raw-ensemble Monte Carlo scheme",
}


def _config_file_keys(path):
    keys = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            keys.add(stripped.split("=", 1)[0].strip())
    return keys


def test_every_config_key_is_set_by_a_shipped_config_or_workload(monkeypatch):
    used = set()
    for path in sorted((REPO_ROOT / "configs").glob("*.cfg")):
        used |= _config_file_keys(path)
    for workload in load_perfbench(monkeypatch, "run").WORKLOADS.values():
        used |= set(workload["cfg"])
    assert set(UNSET_CONFIG_KEYS) <= set(bench.CONFIG_KEYS) - used
    assert sorted(set(bench.CONFIG_KEYS) - used - set(UNSET_CONFIG_KEYS)) == []


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config files", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [row.split("`", 2)[1] for row in rows]
    assert sorted(keys) == sorted(bench.CONFIG_KEYS)


# Dataclass fields that nothing in the package reads, each with the reason it
# stays.  Any other such field is set by its constructor and never used.
UNREAD_FIELDS = {
    f"{cls}.{name}": "the per-iteration record of a solve; only the tests read it"
    for cls, name in (
        ("IterationState", "i"),
        ("IterationState", "u"),
        ("IterationState", "mu"),
        ("SolveResult", "history"),
    )
}


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read_in_the_package():
    """Every field of a package dataclass is read in ``src/socproj``: as an
    attribute, or named in a string, which is how the ``asdict``/``getattr``
    readers of ``RunRow``, ``SweepConfig`` and ``SolveConfig`` name theirs."""
    fields, read = [], set()
    for _, tree, _ in _package_trees(None):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [
                    (f"{node.name}.{item.target.id}", item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert len(fields) >= 80
    unread = [qual for qual, name in fields if name not in read]
    assert sorted(unread) == sorted(UNREAD_FIELDS)


def test_no_module_reaches_into_c_state():
    """The package relies on numpy's public API only: no module imports
    ``ctypes`` or reads a ``.ctypes`` attribute."""
    uses = []
    for name, tree, _ in _package_trees(None):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if any(n.split(".")[0] == "ctypes" for n in names):
                uses.append(f"{name}:{node.lineno}")
    assert uses == []


def test_every_workspace_is_made_from_a_path_count_and_a_step_count():
    """``Workspace(L, N)`` serves every basis and K, so no call in the package
    or in the README's code names one."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    snippets = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    snippets += re.findall(r"`([^`\n]*Workspace\([^`\n]*)`", readme)
    trees = [(name, tree) for name, tree, _ in _package_trees(None)]
    trees += [("README.md", ast.parse(snippet)) for snippet in snippets]
    calls = [
        (name, node)
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "Workspace" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert {name for name, _ in calls} == {
        "README.md", "bench.py", "lsmc.py", "optimizer.py", "paths.py"
    }
    wrong = [
        f"{name}:{node.lineno}" for name, node in calls if len(node.args) != 2 or node.keywords
    ]
    assert wrong == []


def test_version_is_declared_once():
    """The package metadata reads its version from ``socproj.__version__``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "socproj.__version__"
    }
