"""The defaulted parameters of the functions ``homlab`` exports.

Every option here has a caller that sets it or a stated reason to stay;
an option added to an exported function fails this test until the table
below names it.
"""

import inspect

import homlab

OPTIONS = {
    "assemble": ("src",),
    "band_limited_trace": ("amplitude", "dim"),
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
    assert sum(len(v) for v in OPTIONS.values()) == 18
