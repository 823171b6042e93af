"""Tests of the benchmark itself: its checks, workload seeds and tracer.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

The check tests run every job of every workload once at seed 0, confirm the
outputs pass, then perturb one input at a time and require the matching
check to fail.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import checks  # noqa: E402
import workloads  # noqa: E402
from cloakwave import cli  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Check inputs of every seed-0 job, by job name (2d and 3d of each kind)."""
    base = tmp_path_factory.mktemp("bench")
    out = {}
    for wl in workloads.WORKLOADS:
        for job in workloads.make_jobs(wl, 0):
            job["cfg"] = str(base / f"{job['name']}.cfg")
            job["out"] = str(base / job["name"])
            with open(job["cfg"], "w", encoding="utf-8") as fh:
                fh.write(workloads.config_text(job))
            assert cli.run(job["cfg"], job["out"], experiment=job["experiment"]) == 0
            out[job["name"]] = checks.job_check(job)
    return out


def test_seed_zero_outputs_pass(inputs):
    for name, (fn, kw) in inputs.items():
        assert fn(**kw) == [], name


def _nudge_alpha(kw):
    b, alpha = kw["coeffs"][2]
    alpha = alpha.copy()
    alpha[np.argmax(np.abs(alpha))] *= 1.0 + 1e-6
    kw["coeffs"][2] = (b, alpha)


def _set_row(col, i, delta, scale=False):
    def mutate(kw):
        row = kw["rows"][i]
        row[col] = row[col] * (1.0 + delta) if scale else row[col] + delta
    return mutate


def _set(key, fn):
    def mutate(kw):
        kw[key] = fn(kw[key])
    return mutate


def _summary(key, fn):
    def mutate(kw):
        kw["summary"][key] = fn(kw["summary"][key])
    return mutate


def _shift_kappa(kw):
    kw["catalogue"][4]["kappa_star"] += 1e-9


def _field_value(kw):
    v = kw["values"].copy()
    far = np.flatnonzero(np.linalg.norm(kw["points"], axis=1) > 2.5)[0]
    v[far] += 1e-8
    kw["values"] = v


def _field_nan(kw):
    v = kw["values"].copy()
    v[0] = complex(np.nan, 0.0)
    kw["values"] = v


def _field_scatter_more(kw):
    # a field 3 eps away from the incident wave everywhere outside r = 2
    kw["values"] = kw["values"] + 3.0 * kw["eps"]
    kw["alpha"] = kw["alpha"].copy()
    kw["alpha"][0] += 3.0 * kw["eps"]


def _detuning_drift(kw):
    summary, rows = kw["summary"], kw["rows"]
    s0 = summary["sigma0_paper"]
    rows[6]["sigma_eps"] = s0 + 1.1 * (rows[6]["sigma_eps"] - s0)
    # keep the summary consistent with the rows, so only the spread check can fire
    eps = np.array([r["epsilon"] for r in rows])
    sigma = np.array([r["sigma_eps"] for r in rows])
    summary["detuning_products_paper"] = list(np.abs(sigma - s0) / eps)
    summary["detuning_products_eq"] = list(np.abs(sigma ** 2 - summary["sigma0_eq"]) / eps)


PERTURBATIONS = [
    ("sweep3d", "largest alpha_n nudged by 1e-6", _nudge_alpha, "alpha_n / b_n"),
    ("sweep2d", "largest alpha_n nudged by 1e-6", _nudge_alpha, "alpha_n / b_n"),
    ("sweep3d", "visibility_l2 off by 1e-6", _set_row("visibility_l2", 4, 1e-6), "visibility_l2 "),
    ("sweep2d", "visibility_l2 off by 1e-6", _set_row("visibility_l2", 1, 1e-6), "visibility_l2 "),
    ("sweep3d", "visibility_h1 off by 1e-6", _set_row("visibility_h1", 0, 1e-6), "visibility_h1 "),
    ("sweep3d", "interior deviation not decreasing", _set_row("interior_l2", 3, 1.0), "decrease"),
    ("sweep3d", "incident coefficient changed",
     lambda kw: kw["coeffs"][0][0].__setitem__(5, kw["coeffs"][0][0][5] * 1.001), "incident"),
    ("sweep3d", "summary slope disagrees with rows", _set("slope", lambda s: s + 1e-6), "refit"),
    ("sweep3d", "slope outside the O(eps) window", _set("slope", lambda s: 0.8), "window"),
    ("field3d", "one value off by 1e-8", _field_value, "differ from the series"),
    ("field2d", "one value off by 1e-8", _field_value, "differ from the series"),
    ("field2d", "a non-finite value", _field_nan, "non-finite"),
    ("field3d", "a missing row",
     lambda kw: kw.update(points=kw["points"][1:], values=kw["values"][1:]), "rows"),
    ("field3d", "visible at 3 eps", _field_scatter_more, "eps"),
    ("instability2d", "alpha0 off -1 by 1e-6", _summary("alpha0_re", lambda a: [a[0] + 1e-6] + a[1:]),
     "alpha0"),
    ("instability3d", "scattered norm off by 1e-5", _set_row("visibility_l2", 2, 1e-5, scale=True),
     "scattered/reference"),
    ("instability3d", "reference norm off by 1e-6", _summary("reference_norm", lambda r: r * (1 + 1e-6)),
     "reference norm"),
    ("instability2d", "detuned density off by 1e-6", _set_row("sigma_eps", 3, 1e-6), "products"),
    ("instability3d", "detuning products drift 10 %", _detuning_drift, "spread"),
    ("blowup3d", "eps * H1 drifts 10 %", _set_row("interior_h1", 6, 0.1, scale=True), "eps * H1"),
    ("blowup2d", "H1 increments unequal", _set_row("interior_h1", 6, 0.5), "increments"),
    ("blowup2d", "H1 not growing", _set_row("interior_h1", 2, -10.0), "grow"),
    ("resonances3d", "one resonance shifted by 1e-9", _shift_kappa, "kappa*"),
    ("resonances2d", "one resonance shifted by 1e-9", _shift_kappa, "kappa*"),
    ("resonances2d", "one resonance missing", lambda kw: kw["catalogue"].pop(0), "expected"),
    ("resonances3d", "frequency inconsistent",
     lambda kw: kw["catalogue"][0].update(k=kw["catalogue"][0]["k"] * (1 + 1e-9)), "inconsistent"),
]


@pytest.mark.parametrize(
    "job,what,mutate,expect", PERTURBATIONS, ids=[f"{p[0]}: {p[1]}" for p in PERTURBATIONS]
)
def test_check_rejects_perturbed_output(inputs, job, what, mutate, expect):
    fn, kw = inputs[job]
    kw = copy.deepcopy(kw)
    mutate(kw)
    failures = fn(**kw)
    assert any(expect in f for f in failures), failures


def test_seed_zero_is_the_reference_make_up():
    jobs = {j["name"]: j["config"] for wl in workloads.WORKLOADS for j in workloads.make_jobs(wl, 0)}
    assert jobs["sweep3d"]["k"] == "30.0" and jobs["sweep3d"]["incident.direction"] == "1.0, 0.0, 0.0"
    assert jobs["field2d"]["k"] == "10.0" and jobs["field2d"]["grid.points"] == "81"
    assert jobs["instability3d"]["k"] == "1.0"
    assert jobs["resonances2d"]["resonances.k_max"] == "8.0"
    assert jobs["resonances3d"]["resonances.k_max"] == "12.0"
    assert len(jobs["blowup2d"]["eps_list"].split(",")) == 7


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 123456])
def test_other_seeds_stay_in_range_and_repeat(seed):
    for wl in workloads.WORKLOADS:
        jobs = workloads.make_jobs(wl, seed)
        assert jobs == workloads.make_jobs(wl, seed)
        for job in jobs:
            k = float(job["config"]["k"])
            direction = np.array([float(x) for x in job["config"].get("incident.direction", "1").split(",")])
            assert abs(np.linalg.norm(direction) - 1.0) < 1e-12
            if job["experiment"] in ("sweep", "field"):
                k0 = workloads.SWEEP_K if job["experiment"] == "sweep" else workloads.FIELD_K
                sigma = float(job["config"]["interior.sigma"])
                assert abs(k - k0) <= 0.1
                assert workloads.resonance_margin(job["dim"], k * sigma ** 0.5, 179) >= workloads.MIN_MARGIN
            elif job["experiment"] == "resonances":
                assert job["config"] == workloads.make_jobs(wl, 0)[jobs.index(job)]["config"]
            else:
                assert abs(k - 1.0) <= 0.05


TRACE_PROGRAM = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
from tracer import Tracer
from cloakwave import cli
tracer = Tracer("cloakwave", ("mpmath",))
tracer.install()
from time import perf_counter
t0 = perf_counter()
codes = [cli.run(cfg, out) for cfg, out in {jobs!r}]
wall = perf_counter() - t0
print(json.dumps({{"codes": codes, "wall": wall, "layers": tracer.summary(),
                   "values": tracer.values, "roots": int(sum(1 for p in tracer.parent if p < 0))}}))
"""


def test_tracer_attributes_every_call_once(tmp_path):
    golden = os.path.join(ROOT, "tests", "golden", "configs")
    jobs = [(os.path.join(golden, f"{name}.cfg"), str(tmp_path / name))
            for name in ("sweep3d", "instability2d", "field2d")]
    code = TRACE_PROGRAM.format(here=HERE, src=SRC, jobs=jobs)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = got["layers"]
    assert got["codes"] == [0, 0, 0]
    assert got["roots"] == 3 and layers["cli"]["calls"] == 3
    assert layers["experiments"]["calls"] == 2           # convergence_sweep, instability_sweep
    assert layers["fields"]["calls"] >= 225              # one eval per field point
    assert layers["transform"]["calls"] >= 225           # physical-domain map per point
    assert layers["mpmath"]["calls"] > 0                 # extended-precision tuning
    assert layers["quadrature"]["nodes"] > 0
    assert got["values"] > 0
    self_total = sum(v["self_s"] for v in layers.values())
    assert abs(self_total - got["wall"]) < 0.05 * got["wall"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field-dump", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
