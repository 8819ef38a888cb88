"""homlab benchmark: one workload per invocation, metrics as a JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a homlab checkout; the benchmark imports homlab from
``src/`` there.  ``--trace 0`` runs the workload untraced in three fresh
processes one after another (each sets up, warms up and measures for a
third of ``--seconds``) and reports the end-to-end metrics; the two times
among them are rescaled by a calibration kernel timed next to every
operation (see CAL_REF_S).  ``--trace 1`` runs one process that alternates
untraced and traced operations, then probes the layers, and reports the
per-layer metrics.  Lines starting with ``#`` describe the environment,
every metric and the output checks; the last line of standard output is
the result object.  ``--smoke`` runs the same code at tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import per_unit

HERE = Path(__file__).resolve().parent

WORKLOADS = ("torus2d-c100", "pipeline2d-dyadic", "excess3d-traces")
SETUPS = 3  # fresh processes per untraced run; setup_s is their median
TIME_LIMIT_S = 170.0
# The machine's speed drifts by up to 40% over minutes (other tenants of a
# shared host), which moves run medians far more than run length averages
# out.  Each process therefore times a fixed calibration kernel (worker.py)
# at every operation boundary.  An operation's time is rescaled by the mean
# of the two calibrations around it, set-up by the run's median calibration,
# to the speed at which the kernel takes CAL_REF_S.  Raw medians are printed.
CAL_REF_S = 0.02

END_TO_END = {
    "realization_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "%",
}
PER_LAYER = {
    "field.sample_s": "s",
    "field.validate_s": "s",
    "field.restrict_s": "s",
    "pde.assemble_s": "s",
    "pde.solve_s": "s",
    "pde.cg_iterations": "count",
    "pde.matvec_ms": "ms",
    "pde.reported_residual": "ratio",
    "pde.true_residual": "ratio",
    "transforms.precond_apply_ms": "ms",
    "transforms.thomas_ms": "ms",
    "transforms.precond_per_matvec": "ratio",
    "corrector.solve_pair_s": "s",
    "corrector.flux_potential_s": "s",
    "corrector.sublinearity_s": "s",
    "halfspace.build_s": "s",
    "halfspace.residuals_s": "s",
    "halfspace.half_sublinearity_s": "s",
    "halfspace.dyadic_s": "s",
    "excess.harmonic_sample_s": "s",
    "excess.decay_s": "s",
    "excess.mean_value_s": "s",
    "excess.coercivity_s": "s",
    "cli.corrector_stage_s": "s",
    "cli.halfspace_stage_s": "s",
    "cli.excess_stage_s": "s",
    "cli.report_s": "s",
    "cli.cached_rerun_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "trace.overhead": "ratio",
}
DERIVED = ("transforms.precond_per_matvec", "trace.overhead")
# one thread per process: homlab's hot paths (sparse matvec, scipy.fft with
# its default of one worker) are single-threaded, and a closed loop with one
# client gains nothing from BLAS threads but their scheduling noise
PINNED_ENV = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_record(root):
    files = sorted((root / "src" / "homlab").glob("*.py"))
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()[:16]
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest}


def run_child(root, args, child, budget, deadline):
    env = dict(os.environ, **PINNED_ENV)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--child", str(child), "--budget", repr(budget),
           "--trace", str(args.trace), "--t0", repr(t0),
           "--workdir", str(root / ".perfbench" / f"work-{os.getpid()}-{child}")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"benchmark process {child} exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"benchmark process {child} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def per_layer_metrics(child):
    units = per_unit(child["spans"], child["values"])
    out = {}
    for name in PER_LAYER:
        if name not in DERIVED:
            out[name] = median([u[name] for u in units.values() if name in u])
    matvec = out["pde.matvec_ms"]
    out["transforms.precond_per_matvec"] = (
        out["transforms.precond_apply_ms"] / matvec if matvec > 0 else 0.0)
    traced = median([o["seconds"] for o in child["ops"] if o["traced"]])
    untraced = median([o["seconds"] for o in child["ops"] if not o["traced"]])
    out["trace.overhead"] = traced / untraced
    return out


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "homlab" / "__init__.py").is_file():
        print("perfbench: no homlab source at src/homlab; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    n_children = 1 if args.trace else SETUPS
    try:
        children = [run_child(root, args, c, args.seconds / n_children, deadline)
                    for c in range(n_children)]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    ops = [o for c in children for o in c["ops"]]
    failed = [o for o in ops if o["failures"]]
    setup_failures = sorted({f for c in children for f in c["setup_failures"]})
    if args.trace:
        metrics = {n: (v, PER_LAYER[n]) for n, v in per_layer_metrics(children[0]).items()}
    else:
        raw_realization = median([o["seconds"] for o in ops])
        raw_setup = median([c["setup_s"] for c in children])
        scale = CAL_REF_S / median([o["calib_before_s"] for o in ops])
        metrics = {
            "realization_s": (median([
                o["seconds"] * 2.0 * CAL_REF_S / (o["calib_before_s"] + o["calib_after_s"])
                for o in ops]), "s"),
            "setup_s": (raw_setup * scale, "s"),
            "peak_rss_mb": (median([c["peak_rss_mb"] for c in children]), "MB"),
            "success_rate": (100.0 * (len(ops) - len(failed)) / len(ops), "%"),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads": PINNED_ENV,
        **children[0]["env"],
        **source_record(root),
    }

    print(f"# env {json.dumps(record, sort_keys=True)}")
    print(f"# {len(ops)} operations in {n_children} process(es); "
          f"{len(ops) - len(failed)} passed every output check, {len(failed)} failed "
          f"(error_rate {len(failed) / len(ops):.4f})")
    for o in failed:
        print(f"# FAILED {o['unit']}: {'; '.join(o['failures'])}")
    for f in setup_failures:
        print(f"# FAILED set-up check: {f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"# raw wall medians: realization {raw_realization:.6g} s over {len(ops)} "
              f"operations, setup {raw_setup:.6g} s over {n_children} processes; "
              f"calibration kernel median {CAL_REF_S / scale * 1e3:.3f} ms "
              f"against a reference of {CAL_REF_S * 1e3:.0f} ms")
        extras = {}
        for o in ops:
            for name, v in o.get("extras", {}).items():
                extras.setdefault(name, []).append(v)
        for name, vs in extras.items():
            print(f"# {name} = {median(vs):.6g} s "
                  f"(median of {len(vs)} operations, untimed follow-up)")
    else:
        unreached = [n for n, (v, _) in metrics.items() if v == 0.0]
        if unreached:
            print(f"# not reached by this workload (reported as 0): {', '.join(unreached)}")

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"env": record, "metrics": metrics, "setup_s": [c["setup_s"] for c in children],
         "ops": ops}, indent=1, sort_keys=True))
    if args.trace:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for s in children[0]["spans"]:
                fh.write(json.dumps(s) + "\n")

    print(json.dumps({
        "correct": not failed and not setup_failures,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
