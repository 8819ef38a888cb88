"""The defaulted parameters of the functions of ``homlab``.

Every option here has a caller that sets it or a stated reason to stay.
An option added to an exported function fails the table test until the
table below names it.  An ``ast`` scan of every function of the library,
exported or not, fails on a defaulted parameter that no call in
``src/homlab``, ``demos/`` or ``perfbench/`` passes, unless
``UNSET_OPTIONS`` names it with a reason.  Calls are matched to functions
by name (a method by its attribute, ``__init__`` by its class), so a
parameter counts as set wherever a function of that name is called with
it; a call that splats ``*args`` or ``**kwargs`` sets every parameter it
could reach.

The command line is pinned the same way: ``CLI_FLAGS`` lists the flags
of each subcommand, read from ``cli.build_parser()``, so a new flag fails
the table test until the table names it, and no ``pipeline`` or
``report`` flag may set a key that ``cli.config_hash`` hashes: a run is
its config file.
"""

import argparse
import ast
import inspect
from pathlib import Path

import homlab
from homlab import cli

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src/homlab").rglob("*.py"))
# the code whose calls count as setting an option
CALLERS = [p for top in ("src/homlab", "demos", "perfbench")
           for p in sorted((ROOT / top).rglob("*.py"))]
ENSEMBLE = ("an ensemble parameter: configs and spec files set it by key in the "
            "``ensemble`` block, which the constructor mirrors")
# (module, function, parameter) -> why the default stays although no call sets it
UNSET_OPTIONS = {
    **{("field.py", kind, param): ENSEMBLE
       for kind, params in (("constant", ("lam",)), ("laminate", ("lam", "width")),
                            ("checkerboard", ("lam", "cell_size")),
                            ("gaussian_lipschitz", ("mean", "scale")))
       for param in params},
    ("pde.py", "apply", "out"):
        "the preconditioner is called as ``M(r, out=)`` by the CG loop, a "
        "name the scan does not tie to ``apply``",
    ("cli.py", "main", "argv"):
        "the console script calls main() with no argument, so argparse reads "
        "sys.argv; the tests pass the argument list",
    ("_transforms.py", "_matrix_along", "overwrite_x"):
        "the keyword keeps the one call signature of ``FastConstSolver``'s "
        "transforms",
    ("halfspace.py", "solve_halfspace_correction", "tol"):
        "the single correction solve is the tests' reference for the batch "
        "of ``build_halfspace_set``, at the tolerance the tests choose",
    ("halfspace.py", "build_halfspace_set", "tangential_periodic"):
        "ROADMAP item 3 measures the box (False) as well as the slab",
}

OPTIONS = {
    "assemble": ("src",),
    "band_limited_trace": ("dim",),
    "build_halfspace_set": ("tangential_periodic", "tol"),
    "dyadic_construction": ("tol", "direct"),
    "dyadic_radii": ("r_min", "r_max"),
    "flux_potential_residual": ("inner_radius",),
    "harmonic_sample": ("tol",),
    "monte_carlo_homogenized": ("tol",),
    "restrict_to_half_box": ("tangential_periodic",),
    "solve": ("tol",),
    "solve_correctors": ("tol",),
    "solve_halfspace_correction": ("tol",),
    "solve_pair": ("tol",),
    "sublinearity_curve": ("basis",),
}


def exported_options():
    out = {}
    for name in dir(homlab):
        obj = getattr(homlab, name)
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters.values()
        defaulted = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaulted:
            out[name] = defaulted
    return out


def test_exported_functions_have_only_the_listed_options():
    assert exported_options() == OPTIONS
    assert sum(len(v) for v in OPTIONS.values()) == 17


def defaulted_parameters(tree):
    """(function, parameter, position) of each defaulted parameter of the
    functions in ``tree``: the call name of the function (its class for
    ``__init__``) and the parameter's index among a call's positional
    arguments (a method's ``self`` or ``cls`` not counted; None for a
    keyword-only parameter)."""
    owner = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for m in cls.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in m.decorator_list)
                    owner[id(m)] = (cls.name, 0 if static else 1)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls, skip = owner.get(id(node), (None, 0))
        name = cls if node.name == "__init__" else node.name
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out += [(name, p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
        out += [(name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _passes(call, param, position):
    """Whether ``call`` passes the parameter named ``param`` at ``position``."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if position is None:
        return False
    return position < len(call.args) or any(isinstance(x, ast.Starred) for x in call.args)


def unset_options(library, callers):
    """(module, function, parameter) of each defaulted parameter of the
    functions in ``library`` (module -> source) that no call in
    ``callers`` (sources) passes."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted((module, fn, param)
                  for module, source in library.items()
                  for fn, param, position in defaulted_parameters(ast.parse(source))
                  if not any(_passes(c, param, position) for c in calls.get(fn, [])))


def test_scan_finds_an_unset_option():
    lib = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
           "def g(x=0):\n    return x\n"
           "def h(y=0):\n    return y\n"
           "class K:\n"
           "    def __init__(self, u=1, v=2):\n        pass\n"
           "    def m(self, w=1):\n        return w\n"
           "    @staticmethod\n    def s(z=1):\n        return z\n")
    use = ("f(0, 1, d=5)\nh(**{})\nK(0)\nK().m(2)\nK.s()\n"
           "def wrap(*args):\n    return g(*args)\n")
    assert unset_options({"lib.py": lib}, [lib, use]) == [
        ("lib.py", "K", "v"), ("lib.py", "f", "c"), ("lib.py", "f", "e"), ("lib.py", "s", "z")]


def library_unset_options():
    callers = [p.read_text() for p in CALLERS]
    return set(unset_options({p.name: p.read_text() for p in LIBRARY}, callers))


def test_every_library_option_is_set_somewhere():
    assert library_unset_options() - set(UNSET_OPTIONS) == set()


def test_every_kept_unset_option_is_still_unset():
    assert set(UNSET_OPTIONS) <= library_unset_options()


# subcommand -> its flags, in the parser's order
CLI_FLAGS = {
    "": ("--version",),
    "field": (),
    "field sample": ("--spec", "--out"),
    "field check": ("--field",),
    "corrector": ("--field", "--directions", "--radii", "--out", "--tol"),
    "halfspace": ("--field", "--mode", "--r0", "--n-max", "--out", "--tol"),
    "excess": ("--field", "--hs", "--R", "--seeds", "--out", "--tol"),
    "pipeline": ("--config", "--out-dir", "--threads"),
    "report": ("--out-dir", "--config"),
}


def cli_flags(parser, command=""):
    """subcommand -> {flag: dest} of ``parser`` and of its subparsers."""
    out = {command: {}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(cli_flags(sub, f"{command} {name}".strip()))
        out[command] |= {flag: action.dest for flag in action.option_strings
                         if flag.startswith("--") and flag != "--help"}
    return out


def test_cli_has_only_the_listed_flags():
    assert {cmd: tuple(flags) for cmd, flags in cli_flags(cli.build_parser()).items()} == CLI_FLAGS


def _keys(block):
    """Every key of a nested dict, at any depth."""
    return set(block) | {k for v in block.values() if isinstance(v, dict) for k in _keys(v)}


def test_pipeline_and_report_flags_set_no_hashed_key():
    cfg = cli.load_config(ROOT / "demos/configs/checkerboard_small.json")
    hashed = _keys(cli.hashed_config(cfg))
    assert {"seeds", "tol", "L", "r0"} <= hashed and "threads" not in hashed
    flags = cli_flags(cli.build_parser())
    assert {cmd: set(flags[cmd].values()) & hashed for cmd in ("pipeline", "report")} == {
        "pipeline": set(), "report": set()}
