"""The benchmark in ``perfbench/`` drives homlab through the names its
workload module imports.  Importing that module here, without running
anything, fails the test suite as soon as one of those names is renamed
or removed, instead of a benchmark run that reads ``success_rate`` 0."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        assert workloads.WORKLOADS
    finally:
        sys.modules.pop("workloads", None)


def test_benchmark_workloads_run_in_process(monkeypatch, tmp_path):
    """Each workload's smoke-size operation, output check, traced extras
    and probes, so a changed signature of a function the benchmark calls
    fails here and not only in ``python3 -m pytest perfbench``.  The
    probes read ``system.matrix @ x`` for the solve's true residual, which
    must stay within 10x the solve's ``tol``: a product that dropped a
    term (say the periodic seams) would read far above it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        workloads = importlib.import_module("workloads")
        tols = []
        probe = workloads.kernel_probes

        def recording_probes(tracer, build_system, tol):
            tols.append(tol)
            probe(tracer, build_system, tol)

        monkeypatch.setattr(workloads, "kernel_probes", recording_probes)
        for name, cls in workloads.WORKLOADS.items():
            tracer = tracing.Tracer()
            tracer.unit = "setup"
            wl = cls(tmp_path / name, True)
            wl.setup(3, 0, tracer.span)
            tracer.unit = "op"
            with tracer.span("op"):
                result = wl.op(wl.prepare(3), tracer.span)
            assert wl.check(result) == [], name
            wl.traced_extras(result, tracer)
            tols.clear()
            wl.probes(tracer)
            assert tracer.spans and tracer.values, name
            true = [v for _, key, v in tracer.values if key == "pde.true_residual"]
            assert len(true) == len(tols) == 1, name
            assert true[0] <= 10 * tols[0], name
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("tracing", None)
