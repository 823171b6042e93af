"""Job make-up of each benchmark workload, generated from a workload seed.

A job is one `cloakwave` CLI run: an experiment name, a dimension and the
key = value config the program reads.  Seed 0 gives the reference make-up
(plane waves along the first axis, k exactly 30, 10 and 1).  Other seeds draw
the plane-wave direction and jitter k by at most 0.1 (sweeps and field dumps)
or 0.05 (resonant tuning); a draw is kept only if the interior stays clear of
every modal resonance of the truncation, with the same margin test the
program applies (normalized resonance condition), computed with scipy.
The resonance catalogues do not depend on the seed: their windows are fixed
below the root finder's stall (see README).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep-highk", "field-dump", "resonant-tuning")

SWEEP_K = 30.0
SWEEP_EPS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
SWEEP_SIGMA = 1.0
SWEEP_TRUNCATION = 179           # auto_truncation at k = 30, probe radius 4

FIELD_K = 10.0
FIELD_EPS = 0.01
FIELD_SIGMA = 2.0
FIELD_EXTENT = 3.0
FIELD_POINTS = 81
FIELD_TRUNCATION = 85            # generous bound on the field's auto truncation

TUNING_K = 1.0
TUNING_EPS = tuple(10.0 ** (-2.0 - 0.5 * i) for i in range(7))
RESONANCE_SIGMA = 1.5
RESONANCE_MODES = 6
RESONANCE_K_MAX = {2: 8.0, 3: 12.0}
RESONANCE_K_MIN = 0.5

MIN_MARGIN = 0.01                # reference margins: 0.027 (2d) and 0.022 (3d) at k = 30


def resonance_margin(d: int, kappa: float, n_max: int) -> float:
    """Smallest normalized modal resonance condition over modes 0..n_max."""
    import numpy as np
    from scipy import special

    ns = np.arange(n_max + 1)
    if d == 3:
        val = special.spherical_jn(ns, kappa)
        der = special.spherical_jn(ns, kappa, derivative=True)
        return float(np.min(np.abs(der) / (np.abs(val) + np.abs(der))))
    val = special.jv(ns, kappa)
    der = special.jvp(ns, kappa)
    mono = abs(der[0]) / (abs(val[0]) + abs(der[0]))
    rest = np.abs(kappa * der[1:] + ns[1:] * val[1:]) / (
        np.abs(kappa * der[1:]) + np.abs(ns[1:] * val[1:])
    )
    return float(min(mono, np.min(rest)))


def _direction(rng: random.Random, d: int) -> tuple[float, ...]:
    if d == 2:
        t = rng.uniform(0.0, 2.0 * math.pi)
        return (math.cos(t), math.sin(t))
    z = rng.uniform(-1.0, 1.0)
    t = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - z * z)
    return (s * math.cos(t), s * math.sin(t), z)


def _jitter_k(rng: random.Random, k0: float, width: float, sigma: float, n_max: int) -> float:
    for _ in range(1000):
        k = k0 + rng.uniform(-width, width)
        kappa = k * math.sqrt(sigma)
        if all(resonance_margin(d, kappa, n_max) >= MIN_MARGIN for d in (2, 3)):
            return k
    raise RuntimeError("no non-resonant frequency drawn")


def _fmt(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _job(name: str, dim: int, experiment: str, **keys) -> dict:
    """A job record; keyword names spell dotted config keys with "__" for "."."""
    config = {"experiment": experiment, "dimension": str(dim), "threads": "1"}
    config.update({k.replace("__", "."): str(v) for k, v in keys.items()})
    return {"name": name, "dim": dim, "experiment": experiment, "config": config}


def _sweep_jobs(rng: random.Random | None) -> list[dict]:
    k = SWEEP_K if rng is None else _jitter_k(rng, SWEEP_K, 0.1, SWEEP_SIGMA, SWEEP_TRUNCATION)
    jobs = []
    for d in (2, 3):
        direction = (1.0, 0.0, 0.0)[:d] if rng is None else _direction(rng, d)
        jobs.append(
            _job(
                f"sweep{d}d", d, "sweep",
                k=repr(k), eps_list=_fmt(SWEEP_EPS),
                interior__radii="1.0", interior__a="1.0", interior__sigma=repr(SWEEP_SIGMA),
                incident__kind="plane_wave", incident__direction=_fmt(direction),
                probe__r_in="2.0", probe__r_out="4.0",
            )
        )
    return jobs


def _field_jobs(rng: random.Random | None) -> list[dict]:
    k = FIELD_K if rng is None else _jitter_k(rng, FIELD_K, 0.1, FIELD_SIGMA, FIELD_TRUNCATION)
    jobs = []
    for d in (2, 3):
        direction = (1.0, 0.0, 0.0)[:d] if rng is None else _direction(rng, d)
        jobs.append(
            _job(
                f"field{d}d", d, "field",
                k=repr(k), epsilon=repr(FIELD_EPS),
                interior__radii="1.0", interior__a="1.0", interior__sigma=repr(FIELD_SIGMA),
                incident__kind="plane_wave", incident__direction=_fmt(direction),
                grid__extent=repr(FIELD_EXTENT), grid__points=str(FIELD_POINTS),
            )
        )
    return jobs


def _tuning_jobs(rng: random.Random | None) -> list[dict]:
    # the tuned and eigenmode-driven rows are resonant by construction, so
    # the frequency jitter needs no margin test
    k = TUNING_K if rng is None else TUNING_K + rng.uniform(-0.05, 0.05)
    jobs = []
    for kind in ("instability", "blowup", "resonances"):
        for d in (2, 3):
            if kind == "instability":
                extra = {"eps_list": _fmt(TUNING_EPS), "interior__sigma": "1.0", "tuning": "exact"}
                kk = k
            elif kind == "blowup":
                extra = {"eps_list": _fmt(TUNING_EPS), "interior__sigma": "1.0", "blowup__mode": "0"}
                kk = k
            else:
                extra = {
                    "interior__sigma": repr(RESONANCE_SIGMA),
                    "resonances__k_min": repr(RESONANCE_K_MIN),
                    "resonances__k_max": repr(RESONANCE_K_MAX[d]),
                    "resonances__modes": str(RESONANCE_MODES),
                }
                kk = 1.0
            jobs.append(
                _job(
                    f"{kind}{d}d", d, kind,
                    k=repr(kk), interior__radii="1.0", interior__a="1.0", **extra,
                )
            )
    return jobs


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's jobs, in the order one pass runs them (2d and 3d alternate)."""
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}")
    if workload == "sweep-highk":
        return _sweep_jobs(rng)
    if workload == "field-dump":
        return _field_jobs(rng)
    if workload == "resonant-tuning":
        return _tuning_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def config_text(job: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in job["config"].items())
