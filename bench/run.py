"""Benchmark of the cloakwave simulator, run from the root of a checkout.

    python3 bench/run.py --workload field-dump --seed 0 --seconds 50 --trace 0

Generates the workload's job configs from the seed, measures set-up time in
several fresh interpreters, runs the jobs through `cloakwave.cli.run` in one
more fresh single-threaded interpreter for --seconds, then checks every
job's output against computations made apart from the program.  The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, the end-to-end metrics with --trace 0 and the per-layer
metrics of a traced run with --trace 1.  A failed check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
LAYERS = ("specfun", "mie", "quadrature", "fields", "transform", "experiments", "cli", "mpmath")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = src
    return env


def run_child(argv: list[str], env: dict) -> tuple[dict, float]:
    """Run a worker; its JSON line and the clock reading just before it started."""
    start = perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setup: list[float], peak_rss_mb: float) -> dict:
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_2d_s": metric(med("wall_2d_s"), "s"),
        "wall_3d_s": metric(med("wall_3d_s"), "s"),
        "cpu_s": metric(med("cpu_s"), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(passes: list[dict], layers: list[dict]) -> dict:
    """Per-pass layer figures of a traced run; counts from the first pass, times as medians."""
    first = layers[0]["layers"]
    out = {}
    for name in LAYERS:
        row = first.get(name, {"calls": 0, "raises": 0})
        out[f"{name}.calls"] = metric(row["calls"], "count")
        out[f"{name}.self_s"] = metric(
            statistics.median(p["layers"].get(name, {"self_s": 0.0})["self_s"] for p in layers), "s"
        )
        out[f"{name}.raises"] = metric(row["raises"], "count")
    out["specfun.values"] = metric(layers[0]["specfun_values"], "count")
    out["quadrature.nodes"] = metric(first.get("quadrature", {"nodes": 0})["nodes"], "count")
    out["cli.bytes_written"] = metric(passes[0]["bytes_written"], "B")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cloakwave", "cli.py")):
        print("bench: src/cloakwave not found; run from the root of a checkout", file=sys.stderr)
        return 2

    out_root = os.path.join(root, ".bench_out")
    run_dir = os.path.join(out_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        jobs = workloads.make_jobs(args.workload, args.seed)
        for job in jobs:
            job["cfg"] = os.path.join(run_dir, f"{job['name']}.cfg")
            job["out"] = os.path.join(run_dir, job["name"])
            with open(job["cfg"], "w", encoding="utf-8") as fh:
                fh.write(workloads.config_text(job))
        plan = os.path.join(run_dir, "plan.json")
        with open(plan, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "jobs": jobs}, fh, indent=1)

        env = child_env(src)
        worker = [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan]
        setup = []
        for i in range(0 if args.trace else SETUP_PROBES + 1):
            reply, start = run_child(worker + ["--setup"], env)
            if i:                                # the first probe warms the byte-code cache
                setup.append(reply["ready"] - start)
        spans = os.path.join(out_root, f"spans-{args.workload}.csv")
        result, _ = run_child(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans],
            env,
        )
        passes = result["passes"]

        sys.path.insert(0, src)
        import checks

        failures = checks.check_jobs(jobs)
        digests = {p["digest"] for p in passes}
        if len(digests) != 1:
            failures.append(f"outputs differ between passes ({len(digests)} distinct)")
        for msg in failures:
            print(f"bench: check failed: {msg}", file=sys.stderr)
        if args.trace:
            metrics = per_layer(passes, result["layers"])
        else:
            metrics = end_to_end(passes, setup, result["peak_rss_mb"])
        detail = {
            "passes": len(passes),
            "wall_2d_s": [round(p["wall_2d_s"], 4) for p in passes],
            "wall_3d_s": [round(p["wall_3d_s"], 4) for p in passes],
            "setup_s": [round(s, 4) for s in setup],
        }
        print("detail " + json.dumps(detail))
        print(
            json.dumps(
                {
                    "correct": not failures,
                    "attempted": len(jobs) * len(passes),
                    "failed": sum(p["failed"] for p in passes),
                    "metrics": metrics,
                }
            )
        )
        return 0 if not failures else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
