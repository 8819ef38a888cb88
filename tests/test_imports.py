"""Every imported name is read by its module, every parameter of the
library by its function, every library function, class and method by
some code outside the tests, and homlab loads no scipy subpackage that a
run does not use.

An ``ast`` scan of the library, the tests and the demos: a name bound by
an import and never loaded is an unused import.  ``__init__.py`` files
are skipped, since their imports are the package's re-exports, and so
are ``__future__`` imports.  The same walk over the library finds the
parameters of each function or lambda that its body never loads; the
ones kept on purpose are named in ``UNREAD_PARAMETERS`` with a reason.
A third walk finds the top-level functions and classes of the library,
and the methods not named ``__*__``, that no code outside the tests loads
(as a name, an attribute or an import) outside their own body; the ones
kept on purpose are named in ``UNREAD_DEFINITIONS`` with a reason.  The
walk matches names, so a method named like a numpy one (``mean``,
``copy``, ``zeros``) counts as read wherever that name is.  A fourth walk
finds the fields of the library's dataclasses that no code outside the
tests reads as an attribute or names in a string (``getattr`` by a key of
a table) outside the class body; the ones kept on purpose are named in
``UNREAD_FIELDS`` with a reason.

The import graph is read in fresh interpreters, since pytest and its
plugins may load scipy themselves: ``import homlab``, a 2d pipeline and
a 3d excess sample load none of ``LAZY``, and only a nonsymmetric solve
loads BiCGSTAB's module.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAZY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.stats")
SOURCES = sorted(p for top in ("src/homlab", "tests", "demos")
                 for p in (ROOT / top).rglob("*.py") if p.name != "__init__.py")
LIBRARY = sorted((ROOT / "src/homlab").rglob("*.py"))
# the code whose loads count as reads of a library definition
READERS = [p for top in ("src/homlab", "demos", "perfbench")
           for p in sorted((ROOT / top).rglob("*.py")) if p.name != "__init__.py"]
# (module, function, parameter) -> why the parameter stays unread
UNREAD_PARAMETERS = {
    ("halfspace.py", "dyadic_construction", "field_torus"):
        "perfbench/workloads.py passes the arguments by position; the datum "
        "comes from the torus of ``pair``",
    ("_transforms.py", "_matrix_along", "overwrite_x"):
        "a dense axis never writes its input; the keyword keeps the one call "
        "signature of ``FastConstSolver``'s transforms",
}

# (module, qualified name) -> why the definition stays without a reader
UNREAD_DEFINITIONS = {
    ("halfspace.py", "solve_halfspace_correction"):
        "the single correction solve, the tests' reference for the batch of "
        "``build_halfspace_set``",
    ("excess.py", "smallness_radius"):
        "ROADMAP item 4 wires it into the report's checks or deletes it",
    ("pde.py", "caccioppoli_ratio"):
        "ROADMAP item 4 wires it into the report's checks or deletes it",
}


# (module, class.field) -> why the field stays without a reader
UNREAD_FIELDS = {
    ("corrector.py", "HomogenizedMatrix.samples"):
        "ROADMAP item 1's t-interval counts the samples",
    ("excess.py", "ExcessValue.coefficients"):
        "an acceptance criterion reads the minimizer's coordinates in the basis",
    ("excess.py", "LiouvilleReport.minimizer_drift"):
        "it goes with ``liouville_check`` (ROADMAP item 10)",
    ("halfspace.py", "DyadicResult.varphi_n"):
        "the annulus corrections themselves, the construction's result",
    ("pde.py", "LinearSystem.rhs_mean_shift"):
        "a fault diagnostic: the mean removed from a singular system's data",
    ("pde.py", "CaccioppoliResult.warning"):
        "ROADMAP item 4 wires ``caccioppoli_ratio`` into the report's checks or deletes it",
    ("pde.py", "CaccioppoliResult.equation_residual"):
        "ROADMAP item 4 wires ``caccioppoli_ratio`` into the report's checks or deletes it",
}


def unread_imports(source):
    """The names that ``source`` binds by an import and never loads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in loaded)


def test_scan_finds_an_unread_import():
    src = "import os\nimport numpy as np\nfrom a.b import c, d as e\nprint(np, c)\n"
    assert unread_imports(src) == [(1, "os"), (3, "e")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def unread_parameters(source):
    """(line, function, parameter) of each parameter of a function or
    lambda in ``source`` that its body never loads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg)
                for p in params if p.arg not in loaded]
    return sorted(out)


def test_scan_finds_an_unread_parameter():
    src = ("def f(a, b=1, *c, d, **e):\n    return a + len(e)\n"
           "g = lambda x, y: x\n"
           "def h(u):\n    def inner(v):\n        return u\n    return inner\n")
    assert unread_parameters(src) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "d"),
                                      (3, "<lambda>", "y"), (5, "inner", "v")]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_library_parameter_is_read(path):
    unread = [(name, param) for _, name, param in unread_parameters(path.read_text())
              if (path.name, name, param) not in UNREAD_PARAMETERS]
    assert unread == []


def test_every_kept_unread_parameter_is_still_unread():
    found = {(path.name, name, param) for path in LIBRARY
             for _, name, param in unread_parameters(path.read_text())}
    assert set(UNREAD_PARAMETERS) <= found


def _reads(tree):
    """(name, node) of each name, attribute or import alias ``tree`` loads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(alias.name.split(".")[-1], node) for alias in node.names]
    return out


def _definitions(tree):
    """(qualified name, node) of the top-level functions and classes of
    ``tree`` and of the methods of its classes not named ``__*__``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{m.name}", m) for m in node.body
                    if isinstance(m, defs[:2])
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def unread_definitions(readers, modules):
    """(module, qualified name) of each definition in ``modules``, keys of
    ``readers`` (name -> source), that no load in ``readers`` names
    outside the definition's own body."""
    trees = {name: ast.parse(text) for name, text in readers.items()}
    reads = [load for tree in trees.values() for load in _reads(tree)]
    out = []
    for module in modules:
        for qualname, node in _definitions(trees[module]):
            own = {id(n) for n in ast.walk(node)}
            name = qualname.split(".")[-1]
            if not any(n == name and id(at) not in own for n, at in reads):
                out.append((module, qualname))
    return sorted(out)


def test_scan_finds_an_unread_definition():
    lib = ("import numpy as np\n"
           "def used():\n    return 1\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "def unused():\n    return used()\n"
           "class Kept:\n    def read(self):\n        return self\n"
           "    def unread(self):\n        return self.unread\n"
           "    def __len__(self):\n        return 0\n")
    other = "from lib import Kept\nKept().read()\nimport lib.unused\n"
    assert unread_definitions({"lib.py": lib, "other.py": other}, ["lib.py"]) == [
        ("lib.py", "Kept.unread"), ("lib.py", "recursive")]


def library_unread_definitions():
    """(file name, qualified name) of the library definitions without a
    reader in ``READERS``."""
    readers = {p: p.read_text() for p in READERS}
    return {(module.name, name)
            for module, name in unread_definitions(readers, [p for p in READERS if p in LIBRARY])}


def test_every_library_definition_has_a_reader():
    assert library_unread_definitions() - set(UNREAD_DEFINITIONS) == set()


def test_every_kept_unread_definition_is_still_unread():
    assert set(UNREAD_DEFINITIONS) <= library_unread_definitions()


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def unread_fields(readers, modules):
    """(module, class.field) of each field of a top-level dataclass in
    ``modules``, keys of ``readers`` (name -> source), that no code in
    ``readers`` loads as an attribute or names in a string outside the
    class body."""
    trees = {name: ast.parse(text) for name, text in readers.items()}
    reads = [(n.attr, n) if isinstance(n, ast.Attribute) else (n.value, n)
             for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
             or isinstance(n, ast.Constant) and isinstance(n.value, str)]
    out = []
    for module in modules:
        for cls in trees[module].body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            own = {id(n) for n in ast.walk(cls)}
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                    if not any(n == name and id(at) not in own for n, at in reads):
                        out.append((module, f"{cls.name}.{name}"))
    return sorted(out)


def test_scan_finds_an_unread_field():
    lib = ("from dataclasses import dataclass\n"
           "@dataclass\nclass R:\n    a: int\n    b: int\n    c: int\n    d: int\n"
           "    def total(self):\n        return self.d\n"
           "@dataclass(frozen=True)\nclass S:\n    e: int\n"
           "class Plain:\n    f: int\n")
    other = "r = R(1, 2, 3, 4)\nprint(r.a, getattr(r, 'b'))\nr.c = 0\n"
    assert unread_fields({"lib.py": lib, "other.py": other}, ["lib.py"]) == [
        ("lib.py", "R.c"), ("lib.py", "R.d"), ("lib.py", "S.e")]


def library_unread_fields():
    """(file name, class.field) of the library dataclass fields without a
    reader in ``READERS``."""
    readers = {p: p.read_text() for p in READERS}
    return {(module.name, name)
            for module, name in unread_fields(readers, [p for p in READERS if p in LIBRARY])}


def test_every_library_field_has_a_reader():
    assert library_unread_fields() - set(UNREAD_FIELDS) == set()


def test_every_kept_unread_field_is_still_unread():
    assert set(UNREAD_FIELDS) <= library_unread_fields()


def loaded_after(code, cwd):
    """The modules of ``LAZY`` loaded in a fresh interpreter, run in
    ``cwd`` with homlab from this checkout, after ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    probe = textwrap.dedent(code) + textwrap.dedent(f"""
        import sys
        print("LOADED", *(m for m in {LAZY!r} if m in sys.modules))
        """)
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    line = [ln for ln in done.stdout.splitlines() if ln.startswith("LOADED")][-1]
    return line.split()[1:]


def test_import_loads_no_lazy_scipy_subpackage(tmp_path):
    assert loaded_after("import homlab", tmp_path) == []


def test_2d_dyadic_pipeline_loads_no_lazy_scipy_subpackage(tmp_path):
    assert loaded_after("""
        from homlab import cli
        cfg = cli.validate_config({
            "ensemble": {"kind": "checkerboard", "lam": 0.25,
                         "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
            "grid": {"dim": 2, "n": 32, "h": 1.0},
            "seeds": [0],
            "halfspace": {"L": 16.0, "mode": "dyadic", "dyadic": {"r0": 4.0, "n_max": 1}},
            "excess": {"R": 8.0, "radii": [4.0, 8.0]},
        })
        assert "failed" not in cli.run_pipeline(cfg, "run")
        """, tmp_path) == []


def test_3d_excess_sample_loads_no_lazy_scipy_subpackage(tmp_path):
    assert loaded_after("""
        from homlab import (EnsembleSpec, Grid, band_limited_trace, build_halfspace_set,
                            excess_decay_experiment, harmonic_sample, sample_field, solve_pair)
        f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=5), Grid.torus(3, 16))
        hset = build_halfspace_set(f, solve_pair(f, tol=1e-12), L=8.0)
        sample = harmonic_sample(f, 8.0, band_limited_trace(1, 8.0, dim=3))
        excess_decay_experiment(sample, hset, [4.0, 8.0])
        """, tmp_path) == []


def test_nonsymmetric_solve_many_loads_bicgstab_and_matches_solve(tmp_path):
    # the module, which loads scipy.linalg, is imported by solve_many
    # before any helper starts; the solves are those of sequential
    # ``solve`` bit for bit
    assert loaded_after("""
        import sys
        import numpy as np
        from homlab import EnsembleSpec, Grid, sample_field
        from homlab.corrector import _corrector_system, periodic_operator
        from homlab.pde import solve, solve_many
        f = sample_field(EnsembleSpec.checkerboard(values=([[0.6, 0.1], [-0.1, 0.5]], 1.0),
                                                   seed=3), Grid.torus(2, 32))
        op = periodic_operator(f)
        assert not op.symmetric
        systems = [_corrector_system(f, xi, op) for xi in np.eye(2)]
        assert "scipy.sparse.linalg" not in sys.modules
        many = solve_many(systems)
        assert "scipy.sparse.linalg" in sys.modules
        for (u, stats), system in zip(many, systems):
            v, ref = solve(system)
            assert np.array_equal(u.values, v.values) and stats == ref
        """, tmp_path) == ["scipy.linalg", "scipy.sparse.linalg"]
