"""Experiment drivers: sweeps, fits, scans, determinism, failure handling."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cloakwave import experiments as ex
from cloakwave.errors import (
    DegenerateDataError,
    ResonantConfigError,
    SingularSystemError,
    ValidationError,
)
from cloakwave.fields import (
    IncidentSpec,
    auto_truncation,
    blown_up_interior_series,
    eigenfunction_normalization,
    incident_coefficients,
    interior_limit,
    norm_annulus,
    solve_series,
)
from cloakwave.mie import (
    CloakConfig,
    Layer,
    first_resonance,
    resonance_condition,
    resonance_scan,
    virtual_medium,
)

from oracles import scattered

EPS_LIST = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def _cfg(d, sigma=1.0, kind="plane_wave", k=1.0):
    axis = (0.0,) * (d - 1) + (1.0,)
    if kind == "plane_wave":
        inc = IncidentSpec("plane_wave", direction=axis)
    else:
        inc = IncidentSpec("mode", mode=0)
    return CloakConfig(d, k, 0.1, (Layer(1.0, 1.0, sigma),), incident=inc)


def test_convergence_sweep_3d_rate():
    res = ex.convergence_sweep(_cfg(3), EPS_LIST)
    assert res.fit is not None
    assert 0.9 <= res.fit.slope <= 1.1
    assert res.fit.residual <= 0.1


def test_convergence_sweep_2d_log_rate():
    res = ex.convergence_sweep(_cfg(2), EPS_LIST)
    prods = [r.visibility_l2 * abs(math.log(r.epsilon)) for r in res.records]
    assert max(prods) / min(prods) < 2.0
    assert res.fit is None and "degenerate" in res.fit_flag


def test_eps_one_reproduces_bare_inclusion():
    cfg = _cfg(3, sigma=2.0)
    res = ex.convergence_sweep(cfg, (1.0, 0.5, 0.25))
    rec = res.records[0]
    assert rec.epsilon == 1.0
    assert rec.visibility_l2 > 0.1
    # cross-check against a direct scattered-norm computation
    from cloakwave.fields import incident_coefficients, solve_series, auto_truncation
    from cloakwave.mie import virtual_medium
    from dataclasses import replace

    spec = cfg.incident
    b = incident_coefficients(spec, cfg.k, auto_truncation(spec, cfg.k, 3), 3)
    ser = solve_series(virtual_medium(replace(cfg, epsilon=1.0)), cfg.k, b)
    direct = norm_annulus(scattered(ser), 2.0, 4.0)[0]
    assert rec.visibility_l2 == pytest.approx(direct, rel=1e-12)


def test_resonant_config_rejected():
    # every resonance but the 3d monopole's: the 2d monopole and the 3d dipole
    for d, mode in ((2, 0), (3, 1)):
        spec = first_resonance(d, 1.0, mode)
        with pytest.raises(ResonantConfigError, match="configuration is resonant"):
            ex.convergence_sweep(_cfg(d, sigma=spec.sigma0), EPS_LIST)


@pytest.mark.parametrize("offset", [0.0, 3e-9], ids=["resonant", "near-resonant"])
def test_resonant_monopole_sweep_measures_the_interior_against_its_limit(offset):
    # at 3e-9 off kappa*, mode 0's normalized condition is 3.0e-9, inside
    # RESONANCE_PROXIMITY: the sweep runs and its interior columns are the
    # deviation from the leaked limit u(0) j_0(kappa r) / j_0(kappa)
    kap = first_resonance(3, 1.0).kappa_star + offset
    cfg = _cfg(3, sigma=kap**2)
    res = ex.convergence_sweep(cfg, EPS_LIST)
    spec = cfg.incident
    b = incident_coefficients(spec, cfg.k, auto_truncation(spec, cfg.k, 3), 3)
    lim = interior_limit(cfg, b, spec.axis)
    assert lim.radial_many([0.0])[0][0, 0] == pytest.approx(kap / math.sin(kap), rel=1e-12)
    for rec in res.records:
        e = replace(cfg, epsilon=rec.epsilon)
        interior = blown_up_interior_series(
            e, solve_series(virtual_medium(e), cfg.k, b, axis=spec.axis)
        )
        assert (rec.interior_l2, rec.interior_h1) == norm_annulus(
            interior, 0.0, 1.0, reference=lim
        )
        # the interior field itself tends to the order-one limit, not to zero
        assert rec.interior_l2 < 1e-2 * norm_annulus(interior, 0.0, 1.0)[0]


def test_sweep_validation():
    with pytest.raises(ValidationError):
        ex.convergence_sweep(_cfg(3), (1e-1, 1e-2))
    with pytest.raises(ValidationError):
        ex.convergence_sweep(_cfg(3), (1e-2, 1e-1, 1e-3))


def test_instability_sweep_3d():
    res = ex.instability_sweep(3, 1.0, (1e-2, 1e-3, 1e-4))
    for rec in res.records:
        assert abs(rec.alpha0 + 1.0) < 1e-8
        assert rec.visibility_l2 >= res.reference_norm - 1e-8
    for p in res.products_paper:
        assert 0.15 < p < 0.35
    for p in res.products_eq:
        assert 1.5 < p < 2.5


def test_instability_sweep_2d():
    res = ex.instability_sweep(2, 1.0, (1e-2, 1e-3, 1e-4))
    for rec in res.records:
        assert abs(rec.alpha0 + 1.0) < 1e-8
        assert rec.visibility_l2 >= res.reference_norm - 1e-8
    for p in res.products_paper:
        assert 0.15 < p < 0.40


@pytest.mark.parametrize("d", [2, 3])
def test_instability_rows_make_no_transfer_solve(monkeypatch, d):
    # a row reads alpha0 and the interior coefficient from the tuning's
    # 60-digit monopole; the all-orders transfer solve is never entered
    import cloakwave.fields as fields_mod
    import cloakwave.mie as mie_mod

    def forbidden(*args, **kw):
        raise AssertionError("solve_modes called")

    monkeypatch.setattr(fields_mod, "solve_modes", forbidden)
    monkeypatch.setattr(mie_mod, "solve_modes", forbidden)
    res = ex.instability_sweep(d, 1.0, (1e-2, 1e-3, 1e-4))
    assert len(res.records) == 3
    assert all(r.alpha0 is not None and not r.flags for r in res.records)


def test_instability_sweep_validation(monkeypatch):
    # the tuning inputs are checked once, before any row is tuned
    def forbidden(*args):
        raise AssertionError("tune_sigma called")

    monkeypatch.setattr(ex, "tune_sigma", forbidden)
    for d, eps_list, variant in [
        (3, (0.5, 1e-1, 1e-2), "exact"),   # eps above 0.3, the monotone tuning bracket
        (3, (1e-2, 1e-3, 1e-4), "wild"),
        (2, (0.3, 1e-1, 1e-2), "paper"),   # 2d paper needs k eps < 2: here k eps = 3
    ]:
        with pytest.raises(ValidationError):
            ex.instability_sweep(d, 10.0, eps_list, variant=variant)


def test_detuned_far_convergence_sweep_rate():
    # an interior density far from the first monopole resonance decays at
    # the first-order cloaking rate
    sigma = first_resonance(3, 1.0).sigma0 + 0.5
    conv = ex.convergence_sweep(_cfg(3, sigma=sigma, kind="mode"), (1e-2, 3e-3, 1e-3))
    fit = ex.fit_rate([(r.epsilon, r.visibility_l2) for r in conv.records], "log_eps")
    assert 0.85 <= fit.slope <= 1.15


def test_blowup_sweep_3d_products():
    recs = ex.blowup_sweep(3, 1.0, (1e-2, 1e-3, 1e-4))
    prods = [r.epsilon * r.interior_h1 for r in recs]
    assert min(prods) > 0.5
    assert max(prods) / min(prods) < 3.0
    exts = [r.visibility_l2 for r in recs]
    assert min(exts) > 0.5


@pytest.mark.parametrize("d", [2, 3])
def test_blowup_sweep_normalizes_once(d):
    # the rows share their spec's eigenfunction normalization, a closed-form norm
    eigenfunction_normalization.cache_clear()
    ex.blowup_sweep(d, 1.0, (1e-2, 1e-3, 1e-4))
    info = eigenfunction_normalization.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_blowup_sweep_2d_monotone_growth():
    recs = ex.blowup_sweep(2, 1.0, (1e-2, 1e-3, 1e-4))
    h1 = [r.interior_h1 for r in recs]
    assert h1[0] < h1[1] < h1[2]
    # growth is logarithmic: roughly constant increments per decade
    inc1, inc2 = h1[1] - h1[0], h1[2] - h1[1]
    assert inc1 > 0.5 and abs(inc2 / inc1 - 1.0) < 0.25
    assert min(r.visibility_l2 for r in recs) > 0.5


def test_blowup_singular_row_is_flagged(monkeypatch):
    import cloakwave.experiments as mod

    real = mod.interior_source_mode_solve
    calls = {"n": 0}

    def flaky(med, k, n, amplitude):
        calls["n"] += 1
        if calls["n"] == 2:
            raise SingularSystemError("injected resonance hit")
        return real(med, k, n, amplitude)

    monkeypatch.setattr(mod, "interior_source_mode_solve", flaky)
    recs = ex.blowup_sweep(3, 1.0, (1e-2, 1e-3, 1e-4))
    assert "singular" in recs[1].flags
    assert math.isnan(recs[1].interior_h1)
    assert recs[0].flags == "" and recs[2].flags == ""


def test_nonresonance_scan_small_k_positive():
    grid = np.linspace(0.01, 1.0, 150)
    assert ex.nonresonance_scan(2, 1.0, 1.0, grid, 10) > 1e-3


def test_nonresonance_scan_detects_known_resonance():
    kap = first_resonance(3, 1.0).kappa_star
    grid = np.linspace(kap - 0.01, kap + 0.01, 801)
    assert ex.nonresonance_scan(3, 1.0, 1.0, grid, 0) < 1e-4


def test_nonresonance_scan_empty_grid_sentinel():
    assert ex.nonresonance_scan(3, 1.0, 1.0, [], 5) == math.inf


def test_nonresonance_scan_memory_bounded_in_grid_size():
    # whole-grid arrays for these 20,000 points would peak near 14 MB
    grid = np.linspace(0.5, 12.0, 20_000)
    tracemalloc.start()
    got = ex.nonresonance_scan(3, 1.0, 1.5, grid, 10)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got == float(np.min(np.abs(resonance_scan(3, 10, grid * math.sqrt(1.5))[1])))
    assert peak < 6e6


def test_nonresonance_scan_grid_takes_no_per_point_objects():
    # the grid is read as one float array: 200,000 points cost about a kappa
    # array (8 B each) more than 20,000 do, not a list of Python floats
    def peak(n):
        grid = np.linspace(0.5, 12.0, n)
        tracemalloc.start()
        ex.nonresonance_scan(3, 1.0, 1.5, grid, 1)
        used = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return used

    peak(20_000)
    assert peak(200_000) - peak(20_000) < 16 * 180_000


def test_nonresonance_scan_grid_forms_and_positivity():
    grid = np.linspace(0.2, 3.0, 37)
    want = ex.nonresonance_scan(2, 1.0, 1.5, grid, 4)
    assert ex.nonresonance_scan(2, 1.0, 1.5, grid.tolist(), 4) == want
    assert ex.nonresonance_scan(2, 1.0, 1.5, tuple(grid), 4) == want
    for bad in ([0.5, 0.0, 1.0], np.array([1.0, -2.0]), [-0.0]):
        with pytest.raises(ValidationError, match="positive"):
            ex.nonresonance_scan(2, 1.0, 1.5, bad, 4)


def test_fit_rate_exact_line():
    recs = [(e, 2.0 * e) for e in (0.5, 0.1, 1e-2, 1e-3, 1e-4)]
    fit = ex.fit_rate(recs, "log_eps")
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_rate_log_model():
    recs = [(e, 3.0 / abs(math.log(e))) for e in (0.5, 1e-2, 1e-4, 1e-8, 1e-12)]
    fit = ex.fit_rate(recs, "log_inv_ln_eps")
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_degenerate_error():
    recs = [(e, 1.0 + 0.01 * e) for e in (0.1, 0.01, 0.001)]
    with pytest.raises(DegenerateDataError):
        ex.fit_rate(recs, "log_eps")


def test_fit_rate_validation():
    with pytest.raises(ValidationError):
        ex.fit_rate([(0.1, 1.0), (0.01, 0.1)], "log_eps")
    with pytest.raises(ValidationError):
        ex.fit_rate([(0.1, 1.0), (0.01, -0.1), (0.001, 0.01)], "log_eps")
    with pytest.raises(ValidationError):
        ex.fit_rate([(0.1, 1.0), (0.01, 0.1), (0.001, 0.01)], "cubic")


def test_determinism_across_threads():
    cfg = _cfg(3)
    eps = (1e-1, 3e-2, 1e-2)
    a = ex.convergence_sweep(cfg, eps)
    b = ex.convergence_sweep(cfg, eps)
    c = ex.convergence_sweep(cfg, eps)
    for r1, r2, r3 in zip(a.records, b.records, c.records):
        assert r1 == r2 == r3
    assert a.fit == b.fit == c.fit
    # extended-precision tuning shares a process-global context; a repeat
    # run must still reproduce every row
    i1 = ex.instability_sweep(2, 1.0, (1e-2, 1e-3, 1e-4))
    i2 = ex.instability_sweep(2, 1.0, (1e-2, 1e-3, 1e-4))
    assert i1.records == i2.records
    assert i1.products_eq == i2.products_eq


def test_shell_probe_variant():
    cfg = _cfg(3)
    eps = (1e-1, 3e-2, 1e-2)
    v = ex.convergence_sweep(cfg, eps, probe=(1.2, 1.8)).records[-1].visibility_l2
    assert 0.0 < v < 1.0
    with pytest.raises(ValidationError):
        ex.convergence_sweep(cfg, eps, probe=(0.8, 1.5))


def test_convergence_singular_row_is_flagged(monkeypatch):
    import cloakwave.experiments as mod

    real = mod.solve_series
    calls = {"n": 0}

    def flaky(medium, k, b, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise SingularSystemError("injected resonance hit")
        return real(medium, k, b, **kw)

    monkeypatch.setattr(mod, "solve_series", flaky)
    res = ex.convergence_sweep(_cfg(3), (1e-1, 3e-2, 1e-2, 3e-3, 1e-3))
    assert "singular" in res.records[1].flags
    assert math.isnan(res.records[1].visibility_l2)
    assert res.fit is not None  # fit over the remaining rows


def test_instability_singular_row_is_flagged(monkeypatch):
    import cloakwave.experiments as mod

    real = mod.tune_sigma
    calls = {"n": 0}

    def flaky(d, k, e, spec, variant):
        calls["n"] += 1
        if calls["n"] == 2:
            raise SingularSystemError("injected resonance hit")
        return real(d, k, e, spec, variant)

    monkeypatch.setattr(mod, "tune_sigma", flaky)
    res = ex.instability_sweep(3, 1.0, (1e-2, 1e-3, 1e-4))
    assert "singular" in res.records[1].flags
    assert len(res.products_paper) == 2


def test_point_source_sweeps_both_dimensions():
    cfg3 = CloakConfig(
        3, 1.0, 0.1, (Layer(1.0, 1.0, 1.0),),
        incident=IncidentSpec("point_source", location=(0.0, 0.0, 3.5)),
    )
    res3 = ex.convergence_sweep(cfg3, (1e-1, 1e-2, 1e-3))
    assert 0.9 <= res3.fit.slope <= 1.2
    assert all(not r.flags for r in res3.records)
    cfg2 = CloakConfig(
        2, 1.0, 0.1, (Layer(1.0, 1.5, 0.8),),
        incident=IncidentSpec("point_source", location=(3.0, 0.0)),
    )
    res2 = ex.convergence_sweep(cfg2, (1e-1, 1e-2, 1e-3))
    prods = [r.visibility_l2 * abs(math.log(r.epsilon)) for r in res2.records]
    assert max(prods) / min(prods) < 2.0


def test_higher_frequency_2d_sweep():
    cfg = CloakConfig(
        2, 4.0, 0.1, (Layer(1.0, 1.3, 0.7),),
        incident=IncidentSpec("plane_wave", direction=(1.0, 0.0)),
    )
    res = ex.convergence_sweep(cfg, (1e-1, 1e-2, 1e-3))
    assert all(not r.flags for r in res.records)
    prods = [r.visibility_l2 * abs(math.log(r.epsilon)) for r in res.records]
    assert max(prods) / min(prods) < 2.0


def test_shell_probe_matches_pointwise_sampling():
    from cloakwave.fields import (
        auto_truncation,
        free_series,
        incident_coefficients,
        solve_series,
    )
    from cloakwave.mie import virtual_medium

    cfg = CloakConfig(
        3, 1.0, 1e-2, (Layer(1.0, 1.0, 1.0),),
        incident=IncidentSpec("plane_wave", direction=(0, 0, 1.0)),
    )
    v = ex.convergence_sweep(cfg, (1e-1, 3e-2, 1e-2), probe=(1.2, 1.8)).records[-1].visibility_l2
    spec = cfg.incident
    b = incident_coefficients(spec, 1.0, auto_truncation(spec, 1.0, 3), 3)
    ser = solve_series(
        virtual_medium(cfg), 1.0, b, epsilon=1e-2, axis=(0, 0, 1.0)
    )
    freeser = free_series(3, 1.0, b, axis=(0, 0, 1.0))
    rs = np.linspace(1.2, 1.8, 122)   # offset to dodge the dummy-layer radius
    ths = np.linspace(0.0, math.pi, 121)
    r, th = np.meshgrid(rs, ths, indexing="ij")
    y = np.stack([np.sin(th) * r, np.zeros_like(r), np.cos(th) * r], axis=-1).reshape(-1, 3)
    x0 = y * (2.0 * (r.ravel() - 1.0) / r.ravel())[:, None]
    diff = (ser.eval_many(y) - freeser.eval_many(x0)).reshape(r.shape)
    vals = np.abs(diff) ** 2 * np.sin(th) * r * r * 2.0 * math.pi
    brute = math.sqrt(np.trapezoid(np.trapezoid(vals, ths, axis=1), rs))
    assert abs(v - brute) < 1e-3 * v


def test_blowup_sweep_rows_match_per_row_eigenmode_series():
    for d in (2, 3):
        eps = (1e-2, 3e-3, 1e-3, 3e-4)
        recs = ex.blowup_sweep(d, 1.0, eps)
        spec = first_resonance(d, 1.0)
        # rows equal the norms of one eigenmode series per row, bitwise
        for e, rec in zip(eps, recs):
            series = ex.eigenmode_series(spec, 1.0, e)
            assert rec.interior_h1 == norm_annulus(series, 0.0, 1.0)[1]
