"""One benchmark process: set up one workload, run its operations in a
closed loop for a time budget, and print one JSON line with the operation
times, the output-check results, the spans of the traced run and the
environment.  Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402
import scipy.sparse  # noqa: E402

from tracing import Tracer, no_span  # noqa: E402
from workloads import OP_KIND, WARMUP_KIND, WORKLOADS, derive_seed  # noqa: E402


class Calibration:
    """A fixed kernel that does not touch homlab, timed at every operation
    boundary to record how fast the machine ran at that moment.  It mixes
    the kinds of work homlab's operations do: CSR matvecs with a 5-point
    Laplacian and FFTs on 256 x 256 arrays (memory and cache bound), many
    numpy calls on small arrays and a pure-Python loop (interpreter bound)."""

    n = 256
    reps = 8

    def __init__(self):
        n = self.n
        e = np.ones(n)
        lap = scipy.sparse.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
        eye = scipy.sparse.identity(n)
        self.A = (scipy.sparse.kron(lap, eye) + scipy.sparse.kron(eye, lap)).tocsr()
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(n * n)
        self.X = rng.standard_normal((n, n))
        self.small = rng.standard_normal(64)

    def __call__(self):
        t = time.perf_counter()
        for _ in range(self.reps):
            y = self.A @ self.x
            scipy.fft.ifft(scipy.fft.fft(self.X, axis=0), axis=0)
            float(y @ self.x)
            for _ in range(100):
                np.dot(self.small, self.small + 1.0)
            sum(i * i for i in range(2000))
        return time.perf_counter() - t


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--child", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", type=int, required=True)
    p.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    p.add_argument("--workdir", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    traced = bool(args.trace)
    tracer = Tracer()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](workdir, args.smoke)
    ops = []
    try:
        tracer.unit = "setup"
        wl.setup(args.seed, args.child, tracer.span if traced else no_span)
        warm = wl.prepare(derive_seed(args.seed, args.child, WARMUP_KIND, 0))
        warm_result = wl.op(warm, no_span)
        warm_failures = wl.check(warm_result) + wl.after_op(warm_result)[1]
        del warm_result
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
        calibration = Calibration()
        calib = calibration()

        t_start = time.perf_counter()
        iter_times = []
        i = 0
        while True:
            t_iter = time.perf_counter()
            op_traced = traced and i % 2 == 1
            tracer.unit = f"op{args.child}.{i}"
            prepared = wl.prepare(derive_seed(args.seed, args.child, OP_KIND, i))
            rec = {"unit": tracer.unit, "traced": op_traced, "calib_before_s": calib}
            t = time.perf_counter()
            try:
                if op_traced:
                    with tracer.span("op"):
                        result = wl.op(prepared, tracer.span)
                else:
                    result = wl.op(prepared, no_span)
                rec["seconds"] = time.perf_counter() - t
                rec["failures"] = wl.check(result)
                rec["extras"], more_failures = wl.after_op(result)
                rec["failures"] += more_failures
                if op_traced:
                    wl.traced_extras(result, tracer)
                    for name, v in rec["extras"].items():
                        tracer.value(name, v)
            except Exception as e:  # an operation that raises counts as failed
                rec.setdefault("seconds", time.perf_counter() - t)
                rec["failures"] = [f"raised {type(e).__name__}: {e}"]
                traceback.print_exc(file=sys.stderr)
            calib = calibration()
            rec["calib_after_s"] = calib
            ops.append(rec)
            i += 1
            iter_times.append(time.perf_counter() - t_iter)
            elapsed = time.perf_counter() - t_start
            if i >= (2 if traced else 1) and elapsed + np.median(iter_times) > args.budget:
                break
        if traced:
            wl.probes(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "setup_failures": warm_failures,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
        "values": tracer.values,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_name(),
            "scipy_fft_workers": scipy.fft.get_workers(),
        },
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
