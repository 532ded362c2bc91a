"""Every setting has a caller.

A defaulted parameter of a module-level function or method of the package
is a setting, and so is a defaulted field of a dataclass (a parameter of
its constructor); one that no call in the package or its tests ever
supplies is a constant in disguise and belongs in the module as one.  The
scan is syntactic: a call supplies a parameter when it names the function
or class (as a bare name or an attribute) and passes the parameter by
keyword, passes enough positional arguments to reach it, or unpacks
*args / **kwargs.  Nested functions (closures binding loop values such as
m=m) and underscore fields (values derived at construction, such as
KernelProfile._cubic) are exempt.

Every exported name exists: each name in a module's __all__ is defined in
that module, and each name the package root imports from a module is in
that module's __all__ (or public, in a module without one), and the
root's __all__ is exactly the names it imports that way.

Only the command line touches files: no other module imports json or
calls open (or numpy's text readers and writers).

Importing the package pins BLAS to one thread unless the caller chose a
count, so outputs do not depend on the machine's core count.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardyheat

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hardyheat"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in decorators)


def _settings():
    """(module, qualified name, called name, parameter, positional index or
    None) of every defaulted parameter of a module-level function or method
    and every defaulted public dataclass field."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            fields = [node for node in cls.body
                      if isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)]
            for i, node in enumerate(fields):
                name = node.target.id
                if node.value is not None and not name.startswith("_"):
                    out.append((path.stem, cls.name, cls.name, name, i))
        scopes = [(None, tree.body)] + [
            (node.name, node.body) for node in tree.body
            if isinstance(node, ast.ClassDef)]
        for cls, body in scopes:
            for fn in body:
                if not isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    continue
                static = any(isinstance(d, ast.Name)
                             and d.id == "staticmethod"
                             for d in fn.decorator_list)
                bound = 1 if cls is not None and not static else 0
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                qual = fn.name if cls is None else f"{cls}.{fn.name}"
                for i in range(first, len(positional)):
                    out.append((path.stem, qual, fn.name,
                                positional[i].arg, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((path.stem, qual, fn.name, arg.arg, None))
    return out


def _calls():
    """Every call in the package and the tests, by called name."""
    calls = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
            (ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is not None:
                calls.setdefault(name, []).append(node)
    return calls


def _supplies(call: ast.Call, param: str, index) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_has_a_caller():
    calls = _calls()
    unset = [f"{module}.{qual}({param})"
             for module, qual, name, param, index in _settings()
             if not any(_supplies(call, param, index)
                        for call in calls.get(name, ()))]
    assert unset == []


def test_scan_sees_the_package():
    settings = {(module, qual, param)
                for module, qual, _, param, _ in _settings()}
    assert ("quadrature", "tail_panels", "scale") in settings
    assert ("kernel", "tail_mass_beyond", "mu") in settings
    assert ("solver", "SolverConfig", "n_monitor") in settings
    assert ("kernel", "KernelProfile", "_cubic") not in settings


def _exports(tree: ast.Module) -> list[str]:
    """The names a star import takes from a module: its __all__, or its
    public names when it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return [name for name in _defined(tree) if not name.startswith("_")]


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def test_exports_exist_and_reach_the_root():
    missing = []
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
    for name, tree in trees.items():
        defined = _defined(tree)
        missing += [f"{name}.__all__ names undefined {export}"
                    for export in _exports(tree) if export not in defined]
    root = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = set()
    for node in root.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exports = _exports(trees[node.module])
            missing += [f"root imports {node.module}.{a.name}, not in its "
                        f"__all__" for a in node.names
                        if a.name not in exports]
            imported.update(a.name for a in node.names)
    assert missing == []
    # the root exports what it imports from its modules, and not the
    # submodules themselves, so `from hardyheat import *` rebinds no module
    assert set(hardyheat.__all__) == imported


# the package's modules, each importing only from modules before it
LAYERS = ("errors", "quadrature", "exponents", "kernel", "fracop", "solver",
          "constructions", "cli")


def _imported_modules(node):
    """Package modules named by an import statement."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("hardyheat.")]
    module = node.module or ""
    if node.level == 0:
        if module.split(".")[0] != "hardyheat":
            return []
        module = module[len("hardyheat."):]
    if module:
        return [module.split(".")[0]]
    # from . import x: x is a module only when it is one of LAYERS
    return [a.name for a in node.names if a.name in LAYERS]


def _outside_stdlib(node) -> bool:
    """Whether an import statement names a module outside the standard
    library: the package's own modules, numpy or any other dependency."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level:
        return True
    else:
        names = [node.module]
    return any(n.split(".")[0] not in sys.stdlib_module_names for n in names)


def test_imports_only_at_module_level_and_down_the_stack():
    # a standard-library module that one command alone uses may be
    # imported inside it; the package's modules and its dependencies are
    # imported at module level
    modules = sorted(p.stem for p in PACKAGE.glob("*.py")
                     if p.stem != "__init__")
    assert modules == sorted(LAYERS)
    bad = []
    for name in LAYERS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bad += [f"{name}.{fn.name} imports at line {node.lineno}"
                        for node in ast.walk(fn)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and _outside_stdlib(node)]
        below = LAYERS[:LAYERS.index(name)]
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bad += [f"{name} imports {target}"
                        for target in _imported_modules(node)
                        if target not in below]
    assert bad == []


# calls that open a file, by called name
FILE_CALLS = {"open", "loadtxt", "savetxt", "genfromtxt"}


def _file_access(tree: ast.Module) -> list[str]:
    """Imports of json and calls that open a file, with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"imports {a.name} at line {node.lineno}"
                      for a in node.names if a.name.split(".")[0] == "json"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] == "json"):
            found.append(f"imports from {node.module} at line {node.lineno}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name in FILE_CALLS:
                found.append(f"calls {name} at line {node.lineno}")
    return found


def test_only_cli_reads_and_writes_files():
    found = {p.stem: _file_access(ast.parse(p.read_text()))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("cli")
    assert {name: uses for name, uses in found.items() if uses} == {}


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [
    (None, ["1", "1", "1"]), ("3", ["3", "1", "1"])], ids=["unset", "set"])
def test_blas_threads_default_to_one(preset, expected):
    # threaded LAPACK factorizations round differently at each thread
    # count; a count the caller set stays
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(PACKAGE.parent) + (os.pathsep + path if path
                                               else "")
    done = subprocess.run(
        [sys.executable, "-c", "import os, hardyheat; print(*(os.environ[k] "
         f"for k in {BLAS_THREADS!r}))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == expected
