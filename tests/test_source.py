"""Static checks on the package source."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latflow"


def _own_imports(scope):
    """The imports a module or function runs itself: those in its body,
    class bodies included, but not those of the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(path):
    """Names a module or a function imports but never reads in its own
    scope, which for a function takes in the functions nested in it. A
    name listed in __all__ is a re-export, and a line marked `noqa: F401`
    is kept on purpose."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(e.value for e in node.value.elts)
    unused = []
    for scope in [tree] + [node for node in ast.walk(tree)
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            read |= exported
        for node in _own_imports(scope):
            if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or "noqa: F401" in lines[node.lineno - 1]):
                continue
            unused += [f"{path.relative_to(SRC.parent)}:{node.lineno} {name}"
                       for name in (alias.asname or alias.name.split(".")[0]
                                    for alias in node.names)
                       if name not in read]
    return sorted(unused)


def test_no_unused_imports():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    unused = [u for f in files for u in _unused_imports(f)]
    assert unused == []


def _numpy_imports(name, nodes):
    """Each import among nodes that loads numpy, as 'name:line module'."""
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            continue
        found += [f"{name}:{node.lineno} {m}" for m in mods if m.split(".")[0] == "numpy"]
    return found


def test_lattice_layer_imports_no_numpy():
    """No module of latflow.lab imports numpy, not even inside a function:
    the reduction and the descent take and return bases as lists of float
    columns, the experiments draw their samples from a pure-Python Philox
    stream, and Grid3 computes through the experiments' flow kernel."""
    paths = sorted((SRC / "lab").rglob("*.py"))
    assert len(paths) > 6
    found = []
    for path in paths:
        found += _numpy_imports(path.relative_to(SRC), ast.walk(ast.parse(path.read_text())))
    assert found == []


def test_no_module_imports_numpy_when_it_is_imported():
    """numpy is imported inside the functions that compute with it, never
    at module level (class bodies included), so a command that needs none
    of them starts without it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += _numpy_imports(path.relative_to(SRC.parent),
                                _own_imports(ast.parse(path.read_text())))
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


def test_every_annotation_resolves():
    """typing.get_type_hints resolves for each function, method and class
    defined in src/latflow: an annotation names only what its module binds
    at the top level, and numpy is bound only inside functions."""
    unresolved = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [getattr(m, "__func__", getattr(m, "fget", m)) for m in vars(obj).values()]
                defs = [obj] + [m for m in members if inspect.isfunction(m)]
            else:
                defs = [obj] if inspect.isfunction(obj) else []
            for d in defs:
                try:
                    typing.get_type_hints(d)
                except NameError as exc:
                    unresolved.append(f"{module.__name__}.{d.__qualname__}: {exc}")
    assert unresolved == []


# Commands that compute with integers, Fractions and floats alone, so they
# run without numpy; the dioph ext block is 2 x 6 (n = 8). The sim translate
# run is the parabola of tests/test_golden.py, written to relative paths.
NUMPY_FREE_COMMANDS = [
    "roots build --family C --rank 4",
    "roots check --all --max-rank 3",
    "dioph ext --n 8 --a 1,2,3/4,r2,5,1-r2;2,-1,1/5,3,2r2,4",
    "kempf --v 1,2,0 --rep standard --n 3",
    "kempf --v 1,2,0,0,0,0 --rep wedge2 --n 4",
    "kempf --v 0,1;0,0 --rep adjoint --n 2",
    "sim example --n 6 --r 3 --D 2",
    "sim translate --curve parabola.json --t 2,6 --samples 6 --seed 1 --radius 1.5"
    " --out parabola.csv --aggregates parabola.agg.json",
]

PARABOLA = {"n": 3, "k": 1, "center": [0.0], "radius": 1.0,
            "coords": [{"monomials": [{"exps": [e], "coeff": "1"}]} for e in (1, 2)]}
OUTPUTS = ("parabola.csv", "parabola.agg.json")

_RUN_COMMANDS = """
import contextlib, io, json, sys
import latflow.cli as cli
def heavy():
    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'sympy', 'mpmath'))
at_import = heavy()
if sys.argv[1] == 'block':
    sys.modules['numpy'] = None  # every later numpy import raises ImportError
runs = []
for command in sys.argv[2:]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            runs.append([cli.main(command.split()), out.getvalue()])
    except Exception as exc:
        runs.append([repr(exc), out.getvalue()])
print(json.dumps([at_import, heavy(), runs]))
"""


def _run_commands(mode, workdir):
    """(heavy modules loaded by `import latflow.cli`, heavy modules loaded
    once every numpy-free command ran, [exit code or exception, stdout] of
    each, the bytes of OUTPUTS) in a fresh interpreter working in workdir,
    with numpy made unimportable after the import when mode is 'block'."""
    workdir.mkdir()
    (workdir / "parabola.json").write_text(json.dumps(PARABOLA))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, mode, *NUMPY_FREE_COMMANDS],
                         capture_output=True, text=True, env=env, cwd=workdir,
                         timeout=300, check=True).stdout
    return json.loads(out) + [[(workdir / name).read_bytes() for name in OUTPUTS]]


def test_cli_start_up_leaves_numpy_and_sympy_off_the_path(tmp_path):
    """Heavy dependencies stay out of every command's start-up: importing
    latflow.cli loads no numpy, sympy or mpmath, the commands that need no
    numpy load none either, and they print the same stdout and write the
    same files when any numpy import raises."""
    at_import, _, blocked, blocked_files = _run_commands("block", tmp_path / "block")
    _, after_runs, plain, plain_files = _run_commands("plain", tmp_path / "plain")
    assert at_import == [] and after_runs == []
    assert blocked == plain
    assert all(code == 0 and text for code, text in blocked)
    assert blocked_files == plain_files


def test_importing_the_package_loads_no_submodule():
    """latflow/__init__.py re-exports nothing, so `import latflow` in a fresh
    interpreter loads no latflow.* module: a caller loads what it imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, latflow; print(sorted(m for m in sys.modules if m.startswith('latflow.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
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
