"""One benchmark process: runs a workload's jobs through `cloakwave.cli.run`.

Started by run.py in a fresh interpreter with one BLAS/OpenMP thread and a
fixed hash seed.  With --setup it only imports the program and parses every
job config, then prints the clock reading at which the first job could run.
Otherwise it runs one untimed warm-up pass and then as many timed passes as
fit in --seconds (at least three, or one when traced), and prints one JSON
object with the per-pass figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter


def _job_files(out: str) -> list[str]:
    return sorted(os.path.join(out, f) for f in os.listdir(out))


def _singular_rows(out: str) -> int:
    path = os.path.join(out, "results.csv")
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if "singular" in line.rsplit(",", 1)[-1])


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB.

    Read from /proc rather than getrusage, whose ru_maxrss survives execve
    and so would report the launching process's footprint when larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_pass(cli, jobs: list[dict]) -> dict:
    """Run every job once; wall and CPU seconds by dimension, failures, output."""
    wall = {2: 0.0, 3: 0.0}
    cpu = 0.0
    failed = 0
    written = 0
    digest = hashlib.sha256()
    for job in jobs:
        c0 = cpu_seconds()
        t0 = perf_counter()
        code = cli.run(job["cfg"], job["out"], experiment=job["experiment"])
        t1 = perf_counter()
        cpu += cpu_seconds() - c0
        wall[job["dim"]] += t1 - t0
        if code != 0 or _singular_rows(job["out"]):
            failed += 1
        for path in _job_files(job["out"]):
            with open(path, "rb") as fh:
                data = fh.read()
            written += len(data)
            digest.update(data)
    return {
        "wall_2d_s": wall[2],
        "wall_3d_s": wall[3],
        "cpu_s": cpu,
        "failed": failed,
        "bytes_written": written,
        "digest": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import numpy  # noqa: F401  (set-up covers the program's imports)
    import mpmath  # noqa: F401
    from cloakwave import cli

    with open(args.plan, encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    for job in jobs:
        cli.load_config(job["cfg"])
    ready = perf_counter()
    if args.setup:
        print(json.dumps({"ready": ready}))
        return 0

    run_pass(cli, jobs)                      # warm-up, untimed
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer("cloakwave", ("mpmath",))
        tracer.install()
    passes = []
    layers = []
    begin = perf_counter()
    min_passes = 1 if args.trace else 3
    longest = 0.0
    # start no pass that would end past --seconds, so a run lasts as long on any workload
    while len(passes) < min_passes or perf_counter() - begin + longest <= args.seconds:
        if tracer is not None:
            tracer.reset()
        t0 = perf_counter()
        passes.append(run_pass(cli, jobs))
        longest = max(longest, perf_counter() - t0)
        if tracer is not None:
            layers.append({"layers": tracer.summary(), "specfun_values": tracer.values})
    peak_kb = peak_rss_kb()
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps({"passes": passes, "peak_rss_mb": peak_kb / 1024.0, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
