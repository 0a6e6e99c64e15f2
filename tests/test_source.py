"""Static checks on the package source."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latflow"


def _unused_imports(path):
    """Names a module imports but never reads. A name listed in __all__ is
    a re-export, and a line marked `noqa: F401` is kept on purpose."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
    return sorted(f"{path.relative_to(SRC.parent)}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    unused = [u for f in files for u in _unused_imports(f)]
    assert unused == []


def test_lattice_layer_imports_no_numpy():
    """The reduction and the descent take and return bases as lists of
    float columns, so they import no numpy."""
    found = []
    for name in ("reduction.py", "descent.py"):
        path = SRC / "lab" / name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno} {m}" for m in mods if m.split(".")[0] == "numpy"]
    assert found == []


def test_root_systems_name_fraction_only_where_a_vector_is_written_out():
    """rootsys holds every vector as integers at its system's scale: it
    imports nothing from latflow.exact, and names Fraction only inside
    RootSystem.write_out."""
    tree = ast.parse((SRC / "rootsys.py").read_text())
    inside = range(0)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "write_out":
            inside = range(node.lineno, node.end_lineno + 1)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [alias.name for alias in node.names]
            if module in (".exact", "latflow.exact") or (module == "." and "exact" in names):
                found.append(f"{node.lineno} from {module} import {', '.join(names)}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno} import {alias.name}" for alias in node.names
                      if alias.name == "latflow.exact"]
        elif (isinstance(node, ast.Name) and node.id == "Fraction"
              or isinstance(node, ast.Attribute) and node.attr == "Fraction"):
            if node.lineno not in inside:
                found.append(f"{node.lineno} Fraction")
    assert found == []


def test_dioph_builds_records_in_one_place():
    """Every ApproxRecord of dioph, walk record, Dirichlet witness or zero
    certificate, is built by _record or rational_certificate, so a new walk
    takes its p and residual rules from there instead of growing its own."""
    tree = ast.parse((SRC / "dioph.py").read_text())
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("_record", "rational_certificate"):
            inside.update(range(node.lineno, node.end_lineno + 1))
    found = [f"{node.lineno} ApproxRecord(" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "ApproxRecord" and node.lineno not in inside]
    assert len(inside) > 2 and found == []


def test_cli_import_leaves_sympy_off_the_path():
    """Heavy symbolic dependencies stay out of every command's start-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, latflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def test_traced_names_resolve_after_the_cli_import():
    """Every function, method and scalar operation that perfbench/tracing.py
    wraps is found where its install() looks: in sys.modules once latflow.cli
    is imported, methods in their own class. The tracer is read, not
    installed."""
    tracing = SRC.parent.parent / "perfbench" / "tracing.py"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = """
import importlib.util, sys
import latflow.cli
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
mods = sys.modules
methods = tracing.METHODS + [("latflow.exact", "ExactScalar", op, None)
                             for op in tracing.SCALAR_OPS]
missing = [mod + "." + attr for mod, attrs in tracing.FUNCTIONS.items() for attr in attrs
           if not callable(getattr(mods.get(mod), attr, None))]
missing += [mod + "." + cls + "." + attr for mod, cls, attr, _ in methods
            if attr not in vars(getattr(mods.get(mod), cls, object))]
print(missing)
"""
    out = subprocess.run([sys.executable, "-c", code, str(tracing)], capture_output=True,
                         text=True, env=env, timeout=120, check=True).stdout
    assert out.strip() == "[]"


# Library names that nothing in src/ or perfbench/ names yet, with the reason.
# `main` needs no entry: latflow/__main__.py calls it.
UNREFERENCED_ALLOWED = set()


def _names(tree, strings=False):
    """(line, name, may name a method) for every name a module reads: Name
    and attribute references, names imported from a module, and with
    `strings` every word of a string literal, as perfbench/tracing.py names
    what it wraps in strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name, False) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from ((node.lineno, word, True) for word in re.findall(r"\w+", node.value))


def _unreferenced_definitions():
    """Functions, methods and classes of src/latflow that no other code in
    src/ or perfbench/*.py names. An import in an __init__ (a re-export) does
    not count, nor a name read only inside its own definition; a method
    counts only when named as an attribute or in a string, so that a
    variable of the same name does not keep it."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    refs, defs = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        refs += [(path, line, name, attr) for line, name, attr in _names(tree)
                 if path.name != "__init__.py" or attr]
        methods = {id(child) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for child in node.body}
        defs += [(path, node, id(node) in methods) for node in ast.walk(tree)
                 if isinstance(node, kinds)]
    for path in sorted((SRC.parent.parent / "perfbench").glob("*.py")):
        refs += [(path, line, name, attr)
                 for line, name, attr in _names(ast.parse(path.read_text()), strings=True)]
    unnamed = []
    for path, node, method in defs:
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or name in UNREFERENCED_ALLOWED:
            continue
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(ref == name and (attr or not method) and not (where == path and line in inside)
                   for where, line, ref, attr in refs):
            unnamed.append(f"{path.relative_to(SRC.parent)}:{node.lineno} {name}")
    return unnamed


def test_every_definition_is_named_by_the_program():
    """Library code that only tests call is moved into the tests or deleted:
    each def and class is named by other code in src/ or by the benchmark,
    is a dunder, or is on the allow-list above with its reason."""
    assert _unreferenced_definitions() == []
