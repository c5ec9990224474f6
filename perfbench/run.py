"""holo-lab benchmark: seeded streams of verification jobs, one at a time, in one process.

    python3 perfbench/run.py --workload factorization --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

This is a closed loop with one client: the next job starts when the previous
verdict is in.  The workload's seeded job list (see jobs.py) is run in whole
passes until `--seconds` have elapsed, and at least twice, so that every
report.json can be compared with its first execution.

`--trace 0` prints the end-to-end metrics.  `--trace 1` wraps holo_lab's
public callables (see spans.py), runs traced passes for `--seconds`, then as
many untraced passes, and prints per-layer metrics per pass of the job list;
`trace.overhead_s` is the traced minus the untraced wall time per pass.
`--workload all` runs every workload untraced, each in its own process, and
prints every end-to-end metric by name with its unit.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `failed / attempted` is the
job failure ratio.  A full record (run metadata, per-job latencies and
failures) goes to `.bench_out/` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import jobs as jobs_mod  # perfbench/ is sys.path[0] when run as a script
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10

# Tiny configs, one per CLI command: the fresh-process set-up measurement runs
# them to pay first-call lazy set-up (first expm, leggauss, FFT), and the
# workload runs them in-process before timing starts.
_TINY_PARAMS = {"dim": 1, "A": [[[0.0, 0.0]]], "B": [[[0.5, 0.0]]]}
_TINY_GRID = {"radii": [0.5], "n_angles": 8}
TINY_CONFIGS = [
    {"command": "factorize-verify", "params": _TINY_PARAMS, "grid": _TINY_GRID},
    {"command": "recover-params", "params": _TINY_PARAMS, "grid": _TINY_GRID},
    {"command": "rigidity-check", "function": "const:0.5,0.0", "grid": _TINY_GRID},
    {"command": "herglotz-analyze", "function": "phi", "r": 0.9, "n_samples": 64, "n_moments": 4},
    {"command": "shift-sim", "t": 1.0, "order": 8, "n_check": 4},
]

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import holo_lab.cli
codes = [holo_lab.cli.main(["--config", c, "--out", sys.argv[1]]) for c in sys.argv[2:]]
elapsed = time.perf_counter() - t0
print(elapsed if all(c in (0, 1) for c in codes) else "exit codes %s" % codes)
"""


def _write_tiny_configs(where):
    where.mkdir(parents=True, exist_ok=True)
    paths = []
    for cfg in TINY_CONFIGS:
        path = where / f"{cfg['command']}.json"
        path.write_text(json.dumps(cfg))
        paths.append(str(path))
    return paths


def measure_setup(work):
    """Median seconds, over fresh processes, to import holo_lab.cli and run one tiny job per command."""
    configs = _write_tiny_configs(work / "setup")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first process warms the page cache and .pyc files
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(work / "setup" / "out"), *configs],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        try:
            value = float(line)
        except ValueError:
            raise RuntimeError(f"set-up process failed: {line or proc.stderr.strip()[-500:]}") from None
        if i:
            times.append(value)
    return statistics.median(times)


def warm_up(work):
    from holo_lab import cli

    with contextlib.redirect_stderr(io.StringIO()):
        for path in _write_tiny_configs(work / "warmup"):
            cli.main(["--config", path, "--out", str(work / "warmup" / "out")])


def run_passes(runner, seconds, n_passes=None, tracer=None):
    """Run whole passes over the job list, until `seconds` and MIN_PASSES are reached or for `n_passes`.

    Returns (pass wall times, latencies, failures, bytes written).  Every
    job execution counts; a failed one is recorded, never re-run or dropped.
    """
    walls, latencies, failures, written = [], [], [], 0
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for i, job in enumerate(runner.jobs):
            if tracer is not None:
                tracer.current_job = i
            wall, error, nbytes = runner.run(i)
            latencies.append(wall)
            written += nbytes
            if error is not None:
                failures.append({"pass": len(walls), "job": job["id"], "error": error})
        walls.append(time.perf_counter() - t0)
        if n_passes is not None:
            if len(walls) == n_passes:
                break
        elif len(walls) >= MIN_PASSES and time.perf_counter() - t_start >= seconds:
            break
    return walls, latencies, failures, written


def tail_percentile(n_jobs):
    """Highest percentile with TAIL_BEYOND job executions beyond it in a run of MIN_PASSES passes.

    Fixed by the job list, so a faster program (more passes) is compared at
    the same percentile.
    """
    n = MIN_PASSES * n_jobs
    return 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload, seed, seconds, work):
    setup_s = measure_setup(work)
    job_list = jobs_mod.generate(workload, seed)
    runner = jobs_mod.Runner(job_list, str(work / "jobs"))
    warm_up(work)
    walls, latencies, failures, _ = run_passes(runner, seconds)
    q = tail_percentile(len(job_list))
    metrics = {
        "jobs_per_s": (len(latencies) / sum(walls), "1/s"),
        "latency_p50_s": (float(np.median(latencies)), "s"),
        "latency_tail_s": (float(np.percentile(latencies, q)), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "latency_tail_percentile": q,
        "latency_samples": len(latencies),
        "jobs_in_list": len(job_list),
        "passes": len(walls),
        "pass_walls_s": walls,
        "job_fail_ratio": len(failures) / len(latencies),
        "per_job_median_s": {
            job["id"]: statistics.median(latencies[i::len(job_list)]) for i, job in enumerate(job_list)
        },
    }
    return metrics, len(latencies), failures, detail


def per_layer(workload, seed, seconds, work):
    job_list = jobs_mod.generate(workload, seed)
    runner = jobs_mod.Runner(job_list, str(work / "jobs"))
    warm_up(work)
    tracer = Tracer()
    tracer.install()
    try:
        t_walls, t_lat, t_fail, t_bytes = run_passes(runner, seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    passes = len(t_walls)
    u_walls, u_lat, u_fail, _ = run_passes(runner, seconds, n_passes=passes)

    per_name = tracer.summary()
    traced_wall = sum(t_walls)
    bench_self = traced_wall - sum(t_lat)  # harness time between the timed program calls
    layer_self = {}
    layer_calls = {}
    for name, (n_calls, secs) in per_name.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + secs
        layer_calls[layer] = layer_calls.get(layer, 0) + n_calls
    # Spans must cover the timed program calls; a call entering holo_lab
    # through an unwrapped name would leave its time out of every module.
    accounted = sum(layer_self.values()) + bench_self
    if abs(accounted - traced_wall) > 0.01 * traced_wall:
        raise RuntimeError(f"module self times + benchmark time = {accounted:.4f} s, traced wall {traced_wall:.4f} s")

    def calls(name):
        return per_name.get(name, (0, 0.0))[0] / passes

    def self_s(name):
        return per_name.get(name, (0, 0.0))[1] / passes

    grid_jobs = [i for i, job in enumerate(job_list) if jobs_mod.samples_grid(job)]
    grid_points = len(grid_jobs) * runner.grid_size
    grid_evals = tracer.calls_in_jobs("rigidity.OperatorFunction", grid_jobs) / passes
    flops = sum(jobs_mod.toeplitz_work(job)[0] for job in job_list)
    nbytes = sum(jobs_mod.toeplitz_work(job)[1] for job in job_list)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) / passes, "s")
        metrics[f"{layer}.calls"] = (layer_calls.get(layer, 0) / passes, "count")
    for name in ("operators.matrix_exp", "operators.operator_norm", "disc.wirtinger_dbar"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["operators.as_matrix.calls"] = (calls("operators.as_matrix"), "count")
    metrics["rigidity.OperatorFunction.calls"] = (calls("rigidity.OperatorFunction"), "count")
    for name in ("operators.cayley", "operators.inverse_cayley",
                 "herglotz.sample_boundary", "herglotz.estimate_moments",
                 "factorization.verify_factorization", "factorization.verify_master",
                 "factorization.recover_params", "shiftsim.taylor_matrix_symbol", "shiftsim.toeplitz_of",
                 "shiftsim.laguerre_quadrature", "shiftsim.shift_matrix_elements", "cli.main"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["cli.bytes_written"] = (t_bytes / passes, "B")
    metrics["disc.grid_points"] = (float(grid_points), "points")
    metrics["rigidity.evals_per_point"] = (grid_evals / grid_points if grid_points else 0.0, "evals/point")
    metrics["herglotz.samples"] = (float(sum(jobs_mod.herglotz_samples(job) for job in job_list)), "samples")
    metrics["shiftsim.toeplitz_flops_computed"] = (float(flops), "flop")
    metrics["shiftsim.toeplitz_bytes_computed"] = (float(nbytes), "B")
    metrics["bench.self_s"] = (bench_self / passes, "s")
    metrics["trace.wall_s"] = (traced_wall / passes, "s")
    metrics["trace.overhead_s"] = ((traced_wall - sum(u_walls)) / passes, "s")

    tracer.save(OUT / f"spans-{workload}.npz")
    detail = {
        "passes": passes,
        "traced_pass_walls_s": t_walls,
        "untraced_pass_walls_s": u_walls,
        "spans": len(tracer.start),
        "span_file": f".bench_out/spans-{workload}.npz",
        "per_span_name": {n: {"calls": c, "self_s": s} for n, (c, s) in sorted(per_name.items())},
        "other_layers_self_s": {k: v for k, v in layer_self.items() if k not in LAYERS},
    }
    return metrics, len(t_lat) + len(u_lat), t_fail + u_fail, detail


def _blas_info():
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 prints only
        return {}
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    config = blas.get("openblas configuration", "")
    words = config.split()[2:]
    core = [w for w in words if "=" not in w and not w.isupper()]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": config, "core_type": core[-1] if core else None}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def run_metadata():
    import scipy

    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "OPENBLAS_CORETYPE", "HOLO_LAB_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def run_all(seed, seconds):
    """Run every workload untraced, each in a fresh process, and print each end-to-end metric."""
    results = {}
    for workload in jobs_mod.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = result
        for name, m in result["metrics"].items():
            print(f"{workload:18s} {name:16s} {m['value']:12.6g} {m['unit']}")
        print(f"{workload:18s} {'job_fail_ratio':16s} {result['failed'] / result['attempted']:12.6g} ratio")
    correct = all(r["correct"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "holo_lab" / "cli.py").is_file():
        print(f"holo-lab sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in jobs_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(jobs_mod.WORKLOADS)} or all")

    import holo_lab

    if Path(holo_lab.__file__).resolve().parent != SRC / "holo_lab":
        print(f"imported holo_lab from {holo_lab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failures, detail = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "meta": run_metadata(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
        **detail,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"meta: {json.dumps(record['meta'], sort_keys=True)}")
    for failure in failures:
        print(f"FAILED pass {failure['pass']} {failure['job']}: {failure['error']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"latency_tail_s is p{detail['latency_tail_percentile']:.2f} of {detail['latency_samples']} "
              f"job runs ({detail['passes']} passes of {detail['jobs_in_list']} jobs)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
