"""Correctness checks of every benchmark job, made apart from the program.

Each `*_failures` function takes a job's parsed output and returns a list of
failure messages (empty when the output passes).  Reference values come from
`scipy.special` Bessel and Hankel functions, scipy root finding, numpy
Gauss-Legendre rules and closed forms, or are properties the method must
have (energy conservation, the paper's rates).  Only the per-mode scattering
coefficients are taken from the program: the sweep and field checks measure
the norms and point values those coefficients imply.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import optimize, special

# tolerances; the figures measured on the reference make-up are in README.md
NORM_RTOL = 1e-9           # recomputed visibility norms [2e-16]
ENERGY_TOL = 1e-12         # | |1 + 2 alpha_n / b_n| - 1 |
FIELD_TOL = 1e-10          # dumped point values, relative to max |u| [1.2e-14]
FIELD_EPS_MULTIPLE = 1.0   # 3d: max |u - exp(i k.x)| outside r = 2, in units of eps [0.49]
SLOPE_WINDOW_3D = (0.9, 1.1)   # fitted log-log slope of visibility against eps [0.964]
ALPHA0_TOL = 1e-8          # |alpha0 + 1| on exactly tuned rows [4e-22]
REF_RATIO_TOL = 1e-6       # scattered norm / reference norm - 1
PRODUCT_SPREAD = 0.05      # detuning products and 3d eps * H1: (max - min) / min
INCREMENT_SPREAD = 0.10    # 2d blow-up: per-decade increments of H1
KAPPA_RTOL = 1e-12         # catalogued resonance arguments [2e-16]
RECOMPUTE_RTOL = 1e-9      # program summaries recomputed from its CSV rows


# ---------------------------------------------------------------------------
# independent special functions and norms


def radial_basis(d: int, n: np.ndarray, z: np.ndarray, outgoing: bool):
    """(value, derivative) of j_n / J_n, or of h_n / H_n (first kind), via scipy."""
    if d == 3:
        val = special.spherical_jn(n, z) + (1j * special.spherical_yn(n, z) if outgoing else 0)
        der = special.spherical_jn(n, z, derivative=True) + (
            1j * special.spherical_yn(n, z, derivative=True) if outgoing else 0
        )
    else:
        val = special.hankel1(n, z) if outgoing else special.jv(n, z)
        der = special.h1vp(n, z) if outgoing else special.jvp(n, z)
    return val, der


def mode_weights(d: int, n: np.ndarray) -> np.ndarray:
    if d == 3:
        return 4.0 * math.pi / (2 * n + 1)
    return np.where(n == 0, 2.0 * math.pi, 4.0 * math.pi)


def plane_wave_coefficients(d: int, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    return (1j ** n) * ((2 * n + 1) if d == 3 else 1)


def outgoing_norms(d: int, k: float, alpha: np.ndarray, r_in: float, r_out: float,
                   panels: int = 16, nodes: int = 32) -> tuple[float, float]:
    """L2 and H1 norms of sum_n alpha_n h_n(k r) x angular factor over an annulus."""
    n = np.flatnonzero(alpha)
    a = alpha[n]
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(r_in, r_out, panels + 1)
    half = 0.5 * np.diff(edges)
    r = ((edges[:-1] + edges[1:]) / 2)[:, None] + half[:, None] * x[None, :]
    wr = (half[:, None] * w[None, :]).ravel()
    r = r.ravel()
    val, der = radial_basis(d, n[:, None], k * r[None, :], outgoing=True)
    nu = n * (n + 1.0) if d == 3 else n * n * 1.0
    wt = mode_weights(d, n)[:, None] * (np.abs(a) ** 2)[:, None]
    l2 = np.sum(wt * np.abs(val) ** 2, axis=0) * r ** (d - 1)
    grad = np.sum(wt * (k * k * np.abs(der) ** 2 + nu[:, None] * np.abs(val) ** 2 / r ** 2), axis=0)
    h1 = l2 + grad * r ** (d - 1)
    return math.sqrt(np.dot(wr, l2)), math.sqrt(np.dot(wr, h1))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _spread(values) -> float:
    v = np.asarray(values, dtype=float)
    return float((v.max() - v.min()) / v.min())


# ---------------------------------------------------------------------------
# data-level checks (tests perturb their inputs)


def sweep_failures(d: int, k: float, rows: list[dict], slope: float | None,
                   coeffs: list[tuple[np.ndarray, np.ndarray]], probe=(2.0, 4.0)) -> list[str]:
    """rows: results.csv rows; slope: summary rate-fit slope or None; coeffs: (b, alpha) per row."""
    bad = []
    eps = np.array([r["epsilon"] for r in rows])
    for row, (b, alpha) in zip(rows, coeffs):
        tag = f"sweep {d}d eps={row['epsilon']:g}"
        ref_b = plane_wave_coefficients(d, len(b) - 1)
        if np.max(np.abs(b - ref_b)) > 1e-12 * np.max(np.abs(ref_b)):
            bad.append(f"{tag}: incident coefficients differ from the plane-wave expansion")
        l2, h1 = outgoing_norms(d, k, alpha, *probe)
        if _rel(row["visibility_l2"], l2) > NORM_RTOL:
            bad.append(f"{tag}: visibility_l2 {row['visibility_l2']!r} vs recomputed {l2!r}")
        if _rel(row["visibility_h1"], h1) > NORM_RTOL:
            bad.append(f"{tag}: visibility_h1 {row['visibility_h1']!r} vs recomputed {h1!r}")
        energy = np.max(np.abs(np.abs(1.0 + 2.0 * alpha / b) - 1.0))
        if not energy <= ENERGY_TOL:
            bad.append(f"{tag}: |1 + 2 alpha_n / b_n| misses 1 by {energy:.3e}")
    for col in ("visibility_l2", "visibility_h1", "interior_l2", "interior_h1"):
        v = np.array([r[col] for r in rows])
        if not np.all(np.diff(v) < 0):
            bad.append(f"sweep {d}d: {col} does not decrease strictly with eps")
    if slope is None:
        # the program declines a fit over less than a decade (2d at k = 30)
        return bad + ([f"sweep {d}d: no rate fit"] if d == 3 else [])
    vis = np.array([r["visibility_l2"] for r in rows])
    x = np.log(eps) if d == 3 else np.log(1.0 / np.abs(np.log(eps)))
    fit = np.polyfit(x, np.log(vis), 1)[0]
    if abs(fit - slope) > RECOMPUTE_RTOL * max(1.0, abs(slope)):
        bad.append(f"sweep {d}d: summary slope {slope!r} vs refit {fit!r}")
    if d == 3 and not SLOPE_WINDOW_3D[0] <= slope <= SLOPE_WINDOW_3D[1]:
        bad.append(f"sweep 3d: slope {slope:.4f} outside the O(eps) window {SLOPE_WINDOW_3D}")
    return bad


def field_failures(d: int, k: float, eps: float, direction: np.ndarray, points: np.ndarray,
                   values: np.ndarray, b: np.ndarray, alpha: np.ndarray, grid_points: int) -> list[str]:
    """points: (P, d) grid; values: dumped complex values; b, alpha: modal coefficients."""
    bad = []
    if len(values) != grid_points ** 2:
        bad.append(f"field {d}d: {len(values)} rows, expected {grid_points ** 2}")
    if not np.all(np.isfinite(values)):
        bad.append(f"field {d}d: non-finite values")
    ref_b = plane_wave_coefficients(d, len(b) - 1)
    if np.max(np.abs(b - ref_b)) > 1e-12 * np.max(np.abs(ref_b)):
        bad.append(f"field {d}d: incident coefficients differ from the plane-wave expansion")
    r = np.linalg.norm(points, axis=1)
    out = r > 2.0 + 1e-9
    p, r, u = points[out], r[out], values[out]
    cosg = np.clip(p @ direction / r, -1.0, 1.0)
    n = np.arange(len(b))
    if d == 3:
        ang = special.eval_legendre(n[:, None], cosg[None, :])
    else:
        ang = special.eval_chebyt(n[:, None], cosg[None, :]) * np.where(n == 0, 1.0, 2.0)[:, None]
    reg, _ = radial_basis(d, n[:, None], k * r[None, :], outgoing=False)
    ref = np.sum(b[:, None] * reg * ang, axis=0)
    live = np.flatnonzero(alpha)
    sing, _ = radial_basis(d, live[:, None], k * r[None, :], outgoing=True)
    ref = ref + np.sum(alpha[live, None] * sing * ang[live], axis=0)
    err = np.max(np.abs(u - ref)) / max(1.0, np.max(np.abs(ref)))
    if not err <= FIELD_TOL:
        bad.append(f"field {d}d: dumped values differ from the series by {err:.3e}")
    if d == 3:
        dev = np.max(np.abs(u - np.exp(1j * k * (p @ direction))))
        if not dev <= FIELD_EPS_MULTIPLE * eps:
            bad.append(f"field 3d: max |u - exp(ik.x)| = {dev:.3e} exceeds {FIELD_EPS_MULTIPLE} eps")
    return bad


def reference_norm(d: int, k: float, r_in: float, r_out: float) -> float:
    """Norm of the unit outgoing monopole over the annulus."""
    return outgoing_norms(d, k, np.array([1.0 + 0j]), r_in, r_out)[0]


def instability_failures(d: int, k: float, rows: list[dict], summary: dict, probe=(2.0, 4.0)) -> list[str]:
    bad = []
    alpha0 = np.array(summary["alpha0_re"]) + 1j * np.array(summary["alpha0_im"])
    worst = float(np.max(np.abs(alpha0 + 1.0)))
    if not worst <= ALPHA0_TOL:
        bad.append(f"instability {d}d: |alpha0 + 1| reaches {worst:.3e}")
    ref = reference_norm(d, k, *probe)
    if _rel(summary["reference_norm"], ref) > NORM_RTOL:
        bad.append(f"instability {d}d: reference norm {summary['reference_norm']!r} vs {ref!r}")
    for row in rows:
        if not abs(row["visibility_l2"] / ref - 1.0) <= REF_RATIO_TOL:
            bad.append(f"instability {d}d eps={row['epsilon']:g}: scattered/reference = "
                       f"{row['visibility_l2'] / ref!r}")
    eps = np.array([r["epsilon"] for r in rows])
    sigma = np.array([r["sigma_eps"] for r in rows])
    weight = 1.0 / eps if d == 3 else np.abs(np.log(eps))
    products = {
        "paper": weight * np.abs(sigma - summary["sigma0_paper"]),
        "eq": weight * np.abs(sigma ** 2 - summary["sigma0_eq"]),
    }
    for name, prod in products.items():
        given = np.array(summary[f"detuning_products_{name}"])
        if np.max(np.abs(prod - given)) > RECOMPUTE_RTOL * np.max(np.abs(given)):
            bad.append(f"instability {d}d: {name} products disagree with the rows")
        if not _spread(prod) < PRODUCT_SPREAD:
            bad.append(f"instability {d}d: {name} detuning products spread {_spread(prod):.3%}")
    return bad


def blowup_failures(d: int, rows: list[dict]) -> list[str]:
    eps = np.array([r["epsilon"] for r in rows])
    h1 = np.array([r["interior_h1"] for r in rows])
    if d == 3:
        spread = _spread(eps * h1)
        return [] if spread < PRODUCT_SPREAD else [f"blowup 3d: eps * H1 spreads {spread:.3%}"]
    # rows step by half decades: increments over one decade pair rows two apart
    ln = np.abs(np.log(eps))
    steps = np.round(np.diff(ln) / math.log(10.0) * 2.0)
    if not np.all(steps == 1):
        return ["blowup 2d: rows are not half a decade apart"]
    inc = h1[2:] - h1[:-2]
    if not np.all(inc > 0):
        return ["blowup 2d: H1 does not grow with |ln eps|"]
    spread = _spread(inc)
    return [] if spread <= INCREMENT_SPREAD else [f"blowup 2d: per-decade increments spread {spread:.3%}"]


def resonance_zeros(d: int, n: int, lo: float, hi: float) -> list[float]:
    """Arguments in [lo, hi] where the mode-n resonance condition vanishes."""
    if d == 2:
        order = 1 if n == 0 else n - 1           # J_0' = -J_1; kJ_n' + nJ_n = kJ_{n-1}
        zs = special.jn_zeros(order, 60)
        return [float(z) for z in zs if lo <= z <= hi]
    f = lambda x: special.spherical_jn(n, x, derivative=True)  # noqa: E731
    grid = np.linspace(lo, hi, int((hi - lo) / 0.01) + 2)
    vals = f(grid)
    out = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            out.append(float(a))
        elif fa * fb < 0:
            out.append(optimize.brentq(f, a, b, xtol=1e-15, rtol=4 * np.finfo(float).eps))
    return out


def resonance_failures(d: int, sigma: float, k_window: tuple[float, float], modes: int,
                       catalogue: list[dict]) -> list[str]:
    bad = []
    slope = math.sqrt(sigma)
    for n in range(modes + 1):
        ref = resonance_zeros(d, n, k_window[0] * slope, k_window[1] * slope)
        got = sorted(e["kappa_star"] for e in catalogue if e["mode"] == n)
        if len(got) != len(ref):
            bad.append(f"resonances {d}d mode {n}: {len(got)} catalogued, {len(ref)} expected")
            continue
        for g, r in zip(got, ref):
            if _rel(g, r) > KAPPA_RTOL:
                bad.append(f"resonances {d}d mode {n}: kappa* {g!r} vs {r!r}")
    for e in catalogue:
        if _rel(e["k"], e["kappa_star"] / slope) > 1e-14 or e["sigma0"] != sigma:
            bad.append(f"resonances {d}d mode {e['mode']}: frequency or density inconsistent")
    return bad


# ---------------------------------------------------------------------------
# reading job outputs


def read_rows(out: str) -> list[dict]:
    with open(os.path.join(out, "results.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: (v if k == "flags" else float(v) if v else math.nan) for k, v in r.items()} for r in rows]


def read_summary(out: str) -> dict:
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def program_coefficients(config, epsilon: float, n_max: int,
                         r_eval: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(b_n, alpha_n) of the program's virtual-medium solve at one epsilon."""
    from dataclasses import replace

    from cloakwave.fields import incident_coefficients, solve_series
    from cloakwave.mie import virtual_medium

    cloak = replace(config.cloak, epsilon=epsilon)
    b = incident_coefficients(cloak.incident, cloak.k, n_max, cloak.dimension, r_eval)
    series = solve_series(virtual_medium(cloak), cloak.k, b)
    return (np.array([m.b_n for m in series.modes]), np.array([m.alpha_n for m in series.modes]))


def job_check(job: dict):
    """The check function of a finished job and the keyword inputs read for it."""
    from cloakwave.cli import load_config
    from cloakwave.fields import auto_truncation

    config = load_config(job["cfg"])
    cloak = config.cloak
    d, k, out = job["dim"], cloak.k, job["out"]
    kind = job["experiment"]
    if kind == "sweep":
        rows = read_rows(out)
        n_max = auto_truncation(cloak.incident, k, d)
        fit = read_summary(out)["rate_fit"]
        return sweep_failures, {
            "d": d, "k": k, "rows": rows, "probe": config.probe,
            "slope": None if fit is None else fit["slope"],
            "coeffs": [program_coefficients(config, r["epsilon"], n_max) for r in rows],
        }
    if kind == "field":
        summary = read_summary(out)
        data = np.loadtxt(os.path.join(out, "field.csv"), delimiter=",", skiprows=1, ndmin=2)
        corner = config.grid_extent * math.sqrt(2.0)
        b, alpha = program_coefficients(config, cloak.epsilon, summary["truncation"], corner)
        direction = np.asarray(cloak.incident.direction, dtype=float)
        return field_failures, {
            "d": d, "k": k, "eps": cloak.epsilon, "grid_points": config.grid_points,
            "direction": direction / np.linalg.norm(direction),
            "points": data[:, :d], "values": data[:, d] + 1j * data[:, d + 1],
            "b": b, "alpha": alpha,
        }
    if kind == "instability":
        return instability_failures, {
            "d": d, "k": k, "rows": read_rows(out), "summary": read_summary(out),
            "probe": config.probe,
        }
    if kind == "blowup":
        return blowup_failures, {"d": d, "rows": read_rows(out)}
    if kind == "resonances":
        k_min, k_max, modes = config.resonance_window
        return resonance_failures, {
            "d": d, "sigma": complex(cloak.interior[0].sigma).real, "k_window": (k_min, k_max),
            "modes": modes, "catalogue": read_summary(out)["resonances"],
        }
    raise ValueError(f"no check for experiment {kind!r}")


def check_jobs(jobs: list[dict]) -> list[str]:
    failures = []
    for job in jobs:
        fn, inputs = job_check(job)
        failures.extend(fn(**inputs))
    return failures
