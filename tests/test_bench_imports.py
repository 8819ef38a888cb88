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
