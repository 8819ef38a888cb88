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
    fails here and not only in ``python3 -m pytest perfbench``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        workloads = importlib.import_module("workloads")
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
            wl.probes(tracer)
            assert tracer.spans and tracer.values, name
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("tracing", None)
