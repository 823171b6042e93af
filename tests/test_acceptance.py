"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report; every line reads PASS.  Each rate is the one the paper's scaling
and a leading-order expansion predict: powers of eps in 3d, powers of
1/|ln eps| in 2d.  In particular the 2d resonant blow-up (criterion 4) is
checked as interior H1 affine in |ln eps|, since the monopole exterior
coefficient stays O(1) and the interior amplitude grows like ln(k eps);
and the resonant 3d interior limit (criterion 5) is checked at the eps^2
rate of its expansion, inside the O(eps) bound that the paper states.
"""

import dataclasses
import math
import time

import mpmath as mp
import numpy as np
import pytest

from cloakwave import experiments as ex, mie
from cloakwave.fields import (
    FieldSeries,
    IncidentSpec,
    auto_truncation,
    blown_up_interior_series,
    eigenfunction_normalization,
    incident_coefficients,
    interior_limit,
    mode_weight,
    norm_annulus,
    solve_series,
)
from cloakwave.mie import (
    CloakConfig,
    Layer,
    LayeredMedium,
    blown_up_medium,
    first_resonance,
    interior_source_mode_solve,
    solve_modes,
    virtual_medium,
)
from cloakwave.specfun import bessel, chain, chain_derivative
from cloakwave.transform import BlowupMap

from oracles import (
    collocation_monopole_limit,
    fd_interior_source_solve,
    mode_solve_dense,
    pde_residual,
)

EPS_RATE = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
EPS_SMALL = (1e-2, 1e-3, 1e-4)


def _mode(med, k, n, b_n):
    """Mode n of solve_modes, with b_n the only nonzero incident coefficient."""
    b = np.zeros(n + 1, dtype=complex)
    b[n] = b_n
    return solve_modes(med, k, b)[n]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


def _plane_config(d: int, sigma: float = 1.0) -> CloakConfig:
    axis = (0.0,) * (d - 1) + (1.0,)
    return CloakConfig(
        d, 1.0, 0.1, (Layer(1.0, 1.0, sigma),),
        incident=IncidentSpec("plane_wave", direction=axis),
    )


def test_criterion_1_invisibility_rate_3d():
    t0 = time.perf_counter()
    margin = ex.nonresonance_scan(3, 1.0, 1.0, [1.0], 25)
    res = ex.convergence_sweep(_plane_config(3), EPS_RATE)
    elapsed = time.perf_counter() - t0
    slope, resid = res.fit.slope, res.fit.residual
    ok = margin > 1e-6 and 0.9 <= slope <= 1.1 and resid <= 0.1 and elapsed <= 10.0
    _report(
        1, "3d invisibility rate", ok,
        f"slope={slope:.4f} residual={resid:.4f} margin={margin:.2e} t={elapsed:.2f}s",
    )
    assert margin > 1e-6
    assert 0.9 <= slope <= 1.1
    assert resid <= 0.1
    assert elapsed <= 10.0


def test_criterion_2_invisibility_rate_2d():
    t0 = time.perf_counter()
    res = ex.convergence_sweep(_plane_config(2), EPS_RATE)
    elapsed = time.perf_counter() - t0
    prods = [r.visibility_l2 * abs(math.log(r.epsilon)) for r in res.records]
    factor = max(prods) / min(prods)
    ok = factor < 2.0 and elapsed <= 10.0
    _report(
        2, "2d invisibility log-rate", ok,
        f"vis*|ln eps| in [{min(prods):.4f}, {max(prods):.4f}] factor={factor:.3f} "
        f"t={elapsed:.2f}s",
    )
    assert factor < 2.0
    assert elapsed <= 10.0


# detuning-product intervals frozen from the tuning-equation limit constants:
# at the stationary point the curvature satisfies R0'' = -R0, so the tuned
# argument approaches kappa* at rate eps/kappa* (1/|ln eps| in 2d), giving
# products near 1/kappa* in the k_eps/k convention and 2 in (k_eps/k)^2
_PRODUCT_INTERVALS = {3: ((0.15, 0.35), (1.5, 2.5)), 2: ((0.15, 0.40), (1.4, 2.6))}


def test_criterion_3_instability():
    t0 = time.perf_counter()
    ok = True
    details = []
    for d in (2, 3):
        res = ex.instability_sweep(d, 1.0, EPS_SMALL, variant="exact")
        worst_alpha = max(abs(r.alpha0 + 1.0) for r in res.records)
        vis_margin = min(r.visibility_l2 - res.reference_norm for r in res.records)
        (lo_p, hi_p), (lo_e, hi_e) = _PRODUCT_INTERVALS[d]
        prod_ok = all(lo_p < p < hi_p for p in res.products_paper) and all(
            lo_e < p < hi_e for p in res.products_eq
        )
        ok = ok and worst_alpha <= 1e-8 and vis_margin >= -1e-8 and prod_ok
        details.append(
            f"d={d}: |a0+1|<={worst_alpha:.2e} vis-ref>={vis_margin:.2e} "
            f"prods {tuple(round(p, 4) for p in res.products_paper)}"
        )
        assert worst_alpha <= 1e-8
        assert vis_margin >= -1e-8
        assert prod_ok
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 5.0
    _report(3, "instability alpha0=-1", ok, "; ".join(details) + f" t={elapsed:.2f}s")
    assert elapsed <= 5.0


def test_criterion_4_blowup_3d():
    t0 = time.perf_counter()
    recs = ex.blowup_sweep(3, 1.0, EPS_SMALL)
    elapsed = time.perf_counter() - t0
    prods = [r.epsilon * r.interior_h1 for r in recs]
    exterior = [r.visibility_l2 for r in recs]
    spread = max(prods) / min(prods)
    ok = min(prods) > 0.5 and spread <= 3.0 and min(exterior) > 0.5 and elapsed <= 5.0
    _report(
        4, "3d resonance blow-up", ok,
        f"eps*H1 in [{min(prods):.4f}, {max(prods):.4f}] spread={spread:.3f} "
        f"ext>={min(exterior):.4f} t={elapsed:.2f}s",
    )
    assert min(prods) > 0.5
    assert spread <= 3.0
    assert min(exterior) > 0.5
    assert elapsed <= 5.0


def test_criterion_4_blowup_2d_growth_factor():
    """2d resonant blow-up: interior H1 grows like |ln eps|.

    At the first monopole resonance J0'(kappa*) = 0, so the flux condition
    at r = 1 involves only the particular solution P and the exterior term
    alpha * (k eps) H0'(k eps) -> alpha * 2i/pi: the exterior coefficient
    alpha stays O(1) (hence an O(1) exterior norm).  Continuity at r = 1
    then gives the interior amplitude alpha H0(k eps) - P(1), which is
    (2i/pi) alpha ln(k eps) to leading order, so H1 ~ A + B |ln eps|: equal
    increments per eps decade, and about |ln 1e-4| / |ln 1e-2| = 2x over
    two decades, never 10x.  A bounded H1 fails the increment ratio, and so
    does any power law eps^-p with 10^p > 1.1.
    """
    t0 = time.perf_counter()
    recs = ex.blowup_sweep(2, 1.0, EPS_SMALL)
    elapsed = time.perf_counter() - t0
    h1 = [r.interior_h1 for r in recs]
    exterior = min(r.visibility_l2 for r in recs)
    monotone = h1[0] < h1[1] < h1[2]
    # EPS_SMALL is one decade per step, so these are per-decade increments
    inc = [h1[1] - h1[0], h1[2] - h1[1]]
    inc_ratio = inc[1] / inc[0]
    prods = [v / abs(math.log(r.epsilon)) for v, r in zip(h1, recs)]
    ok = (
        monotone and min(inc) > 0.0 and 0.9 <= inc_ratio <= 1.1
        and min(prods) > 0.5 and exterior > 0.5 and elapsed <= 5.0
    )
    _report(
        4, "2d resonance blow-up (|ln eps| growth)", ok,
        f"H1={tuple(round(v, 3) for v in h1)} per-decade increments "
        f"{inc[0]:.3f}, {inc[1]:.3f} ratio={inc_ratio:.3f} "
        f"H1/|ln eps|>={min(prods):.3f} ext>={exterior:.3f} t={elapsed:.2f}s",
    )
    assert monotone
    assert min(inc) > 0.0
    assert 0.9 <= inc_ratio <= 1.1, (
        f"per-decade H1 increments {inc[0]:.3f}, {inc[1]:.3f}: not affine in |ln eps|"
    )
    assert min(prods) > 0.5
    assert exterior > 0.5
    assert elapsed <= 5.0


def _resonant_interior_solves():
    """Blown-up interior series and closed-form limit per eps in EPS_RATE."""
    kap = first_resonance(3, 1.0).kappa_star
    cfg0 = _plane_config(3, sigma=kap**2)
    spec = cfg0.incident
    b = incident_coefficients(spec, 1.0, auto_truncation(spec, 1.0, 3), 3)
    solves = []
    for eps in EPS_RATE:
        cfg = CloakConfig(3, 1.0, eps, cfg0.interior, incident=spec)
        ser = solve_series(virtual_medium(cfg), 1.0, b)
        solves.append((blown_up_interior_series(cfg, ser), interior_limit(cfg, b)))
    return solves, cfg0, b


def _mode_deviation(interior: FieldSeries, limit, n: int) -> float:
    """L2(B1) norm of mode n of (interior - limit); the limit is pure mode 0.

    The modes are orthogonal over the sphere, so these parts add up in
    quadrature to the full deviation.
    """
    zero = tuple((0j, 0j) for _ in interior.medium.layers)
    modes = tuple(
        m if m.n == n else dataclasses.replace(m, layer_coeffs=zero, particular=0j)
        for m in interior.modes
    )
    return norm_annulus(
        dataclasses.replace(interior, modes=modes), 0.0, 1.0, reference=limit if n == 0 else None
    )[0]


def _fit_slope(xs, ys) -> float:
    x = np.log(np.array(xs))
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, _), *_ = np.linalg.lstsq(a, np.log(np.array(ys)), rcond=None)
    return float(slope)


def _families(d, n, z):
    """(value, derivative) of order n at z of the regular, singular and outgoing families.

    One scalar chain of orders 0..n + 1 and chain_derivative; the outgoing
    pair is J + iY of the other two.
    """
    reg, sing = chain(d, n + 1, z)
    (rv, rd), (sv, sd) = ((f[n], chain_derivative(f, z, d)[n]) for f in (reg, sing))
    return (rv, rd), (sv, sd), (rv + 1j * sv, rd + 1j * sd)


def _resonant_leading_constants(cfg: CloakConfig, b: np.ndarray) -> dict[int, float]:
    """Leading-order L2(B1) deviation / eps^2 of the monopole and the dipole.

    n = 0: c0 = b0 (1 - (k eps)^2 / 2), so the deviation is
    (k eps)^2 / 2 * |b0| * ||j0(kappa* r)|| / |j0(kappa*)|, and
    ||j0(kappa* r)||^2 = W0 j0(kappa*)^2 / 2 because j0'(kappa*) = 0.
    n = 1: c1 = k b1 eps^2 / (a kappa* j1'(kappa*)), and
    ||j1(kappa* r)||^2 = W1 (j1^2 - j0 j2)(kappa*) / 2.
    """
    k, lay = cfg.k, cfg.interior[0]
    kap = k * math.sqrt(lay.sigma / lay.a)
    j = [bessel(3, n, kap) for n in range(3)]
    jv = [f[0].real for f in j]
    c0 = 0.5 * k * k * abs(b[0]) * math.sqrt(mode_weight(3, 0) / 2.0)
    c1 = (
        k * abs(b[1]) / (lay.a * kap * abs(j[1][1]))
        * math.sqrt(mode_weight(3, 1) * (jv[1] ** 2 - jv[0] * jv[2]) / 2.0)
    )
    return {0: c0, 1: c1}


def test_criterion_5_interior_limit_convergence_and_collocation():
    solves, cfg0, _ = _resonant_interior_solves()
    errs = [norm_annulus(s, 0.0, 1.0, reference=lim)[0] for s, lim in solves]
    decreasing = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    bound_const = max(e / eps for e, eps in zip(errs, EPS_RATE))
    kap = first_resonance(3, 1.0).kappa_star
    lim = interior_limit(cfg0, np.array([1.0 + 0.0j]))
    r, v, resid = collocation_monopole_limit(kap, 1.0 + 0.0j, n=48)
    # the node r = 1 is the layer interface: read the limit just inside
    mine = lim.radial_many(np.minimum(r, 1.0 - 1e-11), derivatives=False)[0][0]
    worst = max(abs(mi - vi) for mi, vi in zip(mine, v))
    # the sweep at this config reports these deviations as its interior column
    swept = [r.interior_l2 for r in ex.convergence_sweep(cfg0, EPS_RATE).records]
    ok = decreasing and bound_const < 1.0 and resid < 1e-8 and worst < 1e-8 and swept == errs
    _report(
        5, "resonant interior limit (convergence + collocation)", ok,
        f"errors={tuple(f'{e:.2e}' for e in errs)} sup err/eps={bound_const:.3f} "
        f"collocation diff={worst:.2e}",
    )
    assert decreasing
    assert bound_const < 1.0  # consistent with the O(eps) estimate
    assert resid < 1e-8
    assert worst < 1e-8
    assert swept == errs


def test_criterion_5_interior_limit_slope_window():
    """Resonant interior limit: L2(B1) error converges at eps^2.

    The paper bounds the error by O(eps) (checked as err/eps < 1 in the
    companion test); slope 1 is the non-resonant shielding rate.  At exact
    monopole resonance the leading-order expansion gives eps^2 per mode:
      n = 0: j0'(kappa*) = 0 makes alpha0 = b0 (k eps)^3 / (3i) + ...,
        so alpha0 h0(k eps) = -b0 (k eps)^2 / 3 and, with
        j0(k eps) = 1 - (k eps)^2 / 6, the interior amplitude is
        b0 / j0(kappa*) * (1 - (k eps)^2 / 2): deviation O(eps^2).
      n >= 1: the interior flux a kappa* / eps^2 * c_n j_n'(kappa*) must
        match an O(eps^(n-1)) exterior flux, so the interior coefficient
        c_n, and the deviation, is O(eps^(n+1)).
    The fitted slope must lie in [1.9, 2.1], which rejects slope 1.  The
    window rests on the expansion's premise, checked mode by mode: the
    n = 0 and n = 1 parts over eps^2 vary by less than 5% and sit within
    5% of their leading-order constants, and the n = 2 part falls faster
    than eps^2.
    """
    solves, cfg0, b = _resonant_interior_solves()
    errs = [norm_annulus(s, 0.0, 1.0, reference=lim)[0] for s, lim in solves]
    slope = _fit_slope(EPS_RATE, errs)
    parts = {n: [_mode_deviation(s, lim, n) for s, lim in solves] for n in (0, 1, 2)}
    scaled = {n: [p / e**2 for p, e in zip(parts[n], EPS_RATE)] for n in (0, 1)}
    spread = {n: max(v) / min(v) - 1.0 for n, v in scaled.items()}
    lead = _resonant_leading_constants(cfg0, b)
    lead_dev = {n: max(abs(x / lead[n] - 1.0) for x in v) for n, v in scaled.items()}
    quad_slope = _fit_slope(EPS_RATE, parts[2])
    ok = (
        1.9 <= slope <= 2.1 and max(spread.values()) < 0.05
        and max(lead_dev.values()) < 0.05 and quad_slope > 2.5
    )
    _report(
        5, "resonant interior-limit rate eps^2", ok,
        f"slope={slope:.3f} n=0 dev/eps^2 in [{min(scaled[0]):.4f}, {max(scaled[0]):.4f}] "
        f"(leading {lead[0]:.4f}) n=1 in [{min(scaled[1]):.4f}, {max(scaled[1]):.4f}] "
        f"(leading {lead[1]:.4f}) n=2 slope={quad_slope:.3f}",
    )
    assert 1.9 <= slope <= 2.1, f"interior error slope {slope:.3f}, expected eps^2"
    for n in (0, 1):
        assert spread[n] < 0.05, f"mode {n} deviation / eps^2 varies by {spread[n]:.3f}"
        assert lead_dev[n] < 0.05, f"mode {n} off its leading-order constant by {lead_dev[n]:.3f}"
    assert quad_slope > 2.5, f"mode 2 deviation slope {quad_slope:.3f}, expected eps^3"


def test_criterion_5_deviation_converges_at_small_eps():
    """The resonant interior deviation keeps its eps^2 constant down to eps = 1e-5.

    There it is about 1e-10 against an interior field of order one: the
    limit is subtracted on the mode-0 coefficient, so the quadrature sees
    the small difference itself, not two nearly equal node values.
    """
    kap = first_resonance(3, 1.0).kappa_star
    cfg0 = _plane_config(3, sigma=kap**2)
    spec = cfg0.incident
    b = incident_coefficients(spec, 1.0, auto_truncation(spec, 1.0, 3), 3)
    for eps in (1e-3, 1e-4, 1e-5):
        cfg = CloakConfig(3, 1.0, eps, cfg0.interior, incident=spec)
        interior = blown_up_interior_series(cfg, solve_series(virtual_medium(cfg), 1.0, b))
        l2 = norm_annulus(interior, 0.0, 1.0, reference=interior_limit(cfg, b))[0]
        assert abs(l2 / eps**2 - 1.58252) <= 1e-4, (eps, l2 / eps**2)


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(2024)
    # the transfer solve against the 60-digit monopole basis: alpha0 and the
    # blown-up interior coefficient c
    worst_cf = 0.0
    for d in (2, 3):
        for _ in range(100):
            k = float(rng.uniform(0.5, 2.0))
            eps = float(rng.uniform(0.005, 0.3))
            k_eps = float(rng.uniform(0.5, 6.0))
            cfg = CloakConfig(d, k, eps, (Layer(1.0, 1.0, (k_eps / k) ** 2),))
            ms = _mode(blown_up_medium(cfg), k, 0, 1.0)
            with mp.workdps(mie.MP_DIGITS):
                cf, c = mie._alpha0_mp(d, mp.mpf(k_eps), mie._mp_exterior(d, k, eps))
            worst_cf = max(
                worst_cf,
                abs(ms.alpha_n - cf) / max(1.0, abs(cf)),
                abs(ms.layer_coeffs[0][0] - c) / max(1.0, abs(c)),
            )
    worst_dense = 0.0
    for d in (2, 3):
        for trial in range(100):
            nlay = int(rng.integers(1, 5))
            radii = np.sort(rng.uniform(0.2, 3.0, nlay))
            while nlay > 1 and np.min(np.diff(radii)) < 0.05:
                radii = np.sort(rng.uniform(0.2, 3.0, nlay))
            med = LayeredMedium(
                d,
                tuple(
                    Layer(float(r), float(rng.uniform(0.4, 2.5)), float(rng.uniform(0.4, 2.5)))
                    for r in radii
                ),
            )
            k = float(rng.uniform(0.4, 2.5))
            n = int(rng.integers(0, 3))
            a = _mode(med, k, n, 1.0).alpha_n
            b = mode_solve_dense(med, k, n, 1.0).alpha_n
            worst_dense = max(worst_dense, abs(a - b) / max(1.0, abs(b)))
    # interior-source solve against the banded FD oracle at 1e4 base points
    worst_fd = 0.0
    for d in (2, 3):
        k, eps = 1.0, 1e-2
        spec = first_resonance(d, k)
        cfg = CloakConfig(d, k, eps, (Layer(1.0, 1.0, spec.sigma0),))
        med = blown_up_medium(cfg)
        c_e = eigenfunction_normalization(spec)
        sol = interior_source_mode_solve(med, k, spec.mode, eps ** (2 - d) * c_e)
        grid, u_fd = fd_interior_source_solve(
            d, k, eps, 1.0, spec.sigma0, spec.kappa_star, c_e, npts=10000
        )
        series = FieldSeries(k=k, modes=(sol,), medium=med)
        scale = float(np.max(np.abs(u_fd)))
        idx = np.linspace(5, len(grid) - 5, 50, dtype=int)
        idx = idx[np.abs(grid[idx] - 1.0) >= 2e-4]
        vals = series.radial_many(grid[idx], derivatives=False)[0][0]
        worst_fd = max(worst_fd, float(np.max(np.abs(vals - u_fd[idx]))) / scale)
    ok = worst_cf <= 1e-11 and worst_dense <= 1e-11 and worst_fd <= 1e-6
    _report(
        6, "oracle equivalences", ok,
        f"alpha0, c vs 60-digit basis {worst_cf:.2e}; transfer vs dense {worst_dense:.2e}; "
        f"source vs FD {worst_fd:.2e}",
    )
    assert worst_cf <= 1e-11
    assert worst_dense <= 1e-11
    assert worst_fd <= 1e-6


def test_criterion_7_special_function_suite():
    checks = []
    # Wronskians across orders and arguments
    worst_w = 0.0
    for x in (0.1, 1.0, 10.0, 100.0):
        for n in (0, 1, 5, 17, 50):
            (jv, jd), (yv, yd), _ = _families(2, n, x)
            target = 2.0 / (math.pi * x)
            worst_w = max(worst_w, abs(jv * yd - jd * yv - target) / target)
            (jv, jd), (yv, yd), _ = _families(3, n, x)
            worst_w = max(worst_w, abs(jv * yd - jd * yv - 1.0 / x**2) * x**2)
    checks.append(("wronskians", worst_w, 1e-11))
    # recurrence consistency
    worst_r = 0.0
    for z in (0.7, 6.3, 42.0):
        for kind in range(3):   # regular, singular, outgoing
            for n in range(1, 31):
                lo, mid, hi = (_families(2, m, z)[kind][0] for m in (n - 1, n, n + 1))
                scale = max(abs(lo + hi), abs(2 * n / z * mid), 1e-300)
                worst_r = max(worst_r, abs(lo + hi - 2 * n / z * mid) / scale)
    checks.append(("recurrence", worst_r, 1e-10))
    # closed forms
    worst_c = 0.0
    for z in np.linspace(0.1, 20.0, 40):
        z = float(z)
        (j0, _), (y0, _), (h0, _) = _families(3, 0, z)
        worst_c = max(
            worst_c,
            abs(j0 - math.sin(z) / z) / max(abs(math.sin(z) / z), 1e-3),
            abs(y0 + math.cos(z) / z) / max(abs(math.cos(z) / z), 1e-3),
            abs(h0 - np.exp(1j * z) / (1j * z)) / abs(np.exp(1j * z) / z),
        )
    checks.append(("closed forms", worst_c, 1e-13))
    # small-argument Hankel derivative limit
    dev = abs(1e-8 * _families(2, 0, 1e-8)[2][1] - 2j / math.pi)
    checks.append(("hankel small-z limit", dev, 1e-6))
    ok = all(val <= tol for _, val, tol in checks)
    _report(
        7, "special-function suite", ok,
        "; ".join(f"{name}={val:.2e} (tol {tol:.0e})" for name, val, tol in checks),
    )
    for name, val, tol in checks:
        assert val <= tol, name


def test_criterion_8_change_of_variables_residual():
    d, eps, k = 3, 0.2, 1.0
    cfg = CloakConfig(d, k, eps, (Layer(1.0, 1.0, 1.0),))
    spec = IncidentSpec("plane_wave", direction=(0.0, 0.0, 1.0))
    b = incident_coefficients(spec, k, auto_truncation(spec, k, d), d)
    ser = solve_series(
        virtual_medium(cfg), k, b, epsilon=eps, axis=(0, 0, 1.0)
    )
    m = BlowupMap(eps)
    rng = np.random.default_rng(99)
    pts = []
    while len(pts) < 20:
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        pts.append(u * rng.uniform(1.15, 1.9))
    res_h = pde_residual(ser, m, pts, 1e-3)
    res_half = pde_residual(ser, m, pts, 5e-4)
    ratio = res_h / res_half
    ok = res_h <= 1e-3 and 3.0 < ratio < 5.0
    _report(
        8, "change-of-variables residual", ok,
        f"residual(h=1e-3)={res_h:.2e} shrink ratio={ratio:.2f}",
    )
    assert res_h <= 1e-3
    assert 3.0 < ratio < 5.0
