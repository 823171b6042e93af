"""Reproducible experiment drivers over the modal solver.

Each sweep maps a decreasing list of regularization parameters to one
record of norms and fitted quantities.  Rows are independent and computed
one after another in the given epsilon order: a row costs milliseconds of
Python that holds the interpreter lock, so a pool of workers would not pay
for itself.  The convergence sweep's probe annulus may reach into the
cloak shell (1 < r < 2); that is the shell's visibility measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateDataError,
    ResonantConfigError,
    SingularSystemError,
    ValidationError,
)
from .fields import (
    FieldSeries,
    IncidentSpec,
    auto_truncation,
    blown_up_interior_series,
    incident_coefficients,
    interior_deviation,
    interior_limit,
    norm_annulus,
    outgoing_mode_norm,
    solve_series,
)
from .mie import (
    EPSILON_FLOOR,
    CloakConfig,
    Layer,
    ModeSolution,
    ResonanceSpec,
    TunedSigma,
    alpha0_closed_form,
    first_resonance,
    interior_source_mode_solve,
    blown_up_medium,
    eigenfunction_normalization,
    resonance_scan,
    tune_sigma,
    tuned_inclusion_config,
    virtual_medium,
)

DEFAULT_PROBE = (2.0, 4.0)
# grid points per resonance_scan call in nonresonance_scan: its arrays take
# about 730 bytes per point at 10 modes, against 8 bytes per point of the
# grid itself (scan.points is capped at 1,000,000)
SCAN_BLOCK = 4096
RESONANCE_PROXIMITY = 1e-8


@dataclass(frozen=True)
class SweepRecord:
    """One row of an experiment output."""

    epsilon: float
    visibility_l2: float
    visibility_h1: float
    interior_l2: float
    interior_h1: float
    sigma_eps: float | None = None
    alpha0: complex | None = None
    flags: str = ""


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log model-variable, log visibility)."""

    slope: float
    intercept: float
    residual: float
    model: str


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]
    fit: RateFit | None
    fit_flag: str = ""


@dataclass(frozen=True)
class InstabilityResult:
    records: tuple[SweepRecord, ...]
    tuned: tuple[TunedSigma, ...]
    reference_norm: float
    products_paper: tuple[float, ...]
    products_eq: tuple[float, ...]


def fit_rate(pairs, model: str) -> RateFit:
    """Fit log(visibility) against the log of the model variable.

    pairs is a sequence of (epsilon, visibility) pairs; the model variable
    is epsilon ("log_eps") or 1/|ln eps| ("log_inv_ln_eps").  The residual
    is the maximum absolute deviation in log-log coordinates.
    """
    if model not in ("log_eps", "log_inv_ln_eps"):
        raise ValidationError(f"unknown rate model {model!r}")
    if len(pairs) < 3:
        raise ValidationError("rate fit needs at least 3 records")
    eps, vis = np.array(pairs, dtype=float).T
    if np.any(vis <= 0):
        raise ValidationError("rate fit needs positive visibilities")
    if np.max(vis) / np.min(vis) < 10.0:
        raise DegenerateDataError(
            f"visibilities span {np.max(vis) / np.min(vis):.3g}x, "
            "less than one decade"
        )
    if model == "log_eps":
        x = np.log(eps)
    else:
        x = np.log(1.0 / np.abs(np.log(eps)))
    y = np.log(vis)
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    return RateFit(float(slope), float(intercept), residual, model)


def _check_eps_list(eps_list) -> list[float]:
    eps = [float(e) for e in eps_list]
    if len(eps) < 3:
        raise ValidationError("sweep needs at least 3 epsilon values")
    if any(not EPSILON_FLOOR <= e <= 1.0 for e in eps):
        raise ValidationError(f"epsilon values must lie in [{EPSILON_FLOOR:g}, 1]")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValidationError("epsilon list must be strictly decreasing")
    return eps


def _homogeneous_interior(config: CloakConfig) -> Layer | None:
    if len(config.interior) == 1 and complex(config.interior[0].sigma).imag == 0:
        return config.interior[0]
    return None


def min_resonance_margin(config: CloakConfig, modes: int) -> float:
    """Smallest normalized resonance-condition magnitude at the config's k."""
    lay = _homogeneous_interior(config)
    if lay is None:
        raise ValidationError("resonance margin defined for homogeneous interiors")
    kappa = config.k * math.sqrt(complex(lay.sigma).real / lay.a)
    return float(np.min(np.abs(resonance_scan(config.dimension, modes, kappa, lay.a)[1])))


def convergence_sweep(
    config: CloakConfig,
    eps_list,
    *,
    probe: tuple[float, float] = DEFAULT_PROBE,
    truncation: int | None = None,
) -> SweepResult:
    """Visibility and interior-limit deviation across a regularization sweep.

    Per epsilon: the virtual small-inclusion problem is solved at the
    config's frequency, the visibility is the norm of (cloaked field -
    free-field pullback) over the probe annulus, which may reach into the
    shell (radius > 1), and the interior deviation is
    measured against the closed-form interior limit.  The rate fit uses
    epsilon in 3d and 1/|ln eps| in 2d; a fit on data spanning less than a
    decade is reported as degenerate instead of failing the sweep.  A
    homogeneous interior within RESONANCE_PROXIMITY of a resonance raises
    ResonantConfigError.
    """
    eps = _check_eps_list(eps_list)
    d, k = config.dimension, config.k
    if config.incident is None:
        raise ValidationError("convergence sweep needs an incident field")
    spec = config.incident
    if _homogeneous_interior(config) is not None:
        margin = min_resonance_margin(config, auto_truncation(spec, k, d))
        if margin < RESONANCE_PROXIMITY:
            raise ResonantConfigError(
                f"configuration is resonant (margin {margin:.3e}); use the "
                "resonance experiments"
            )
    n_max = truncation if truncation is not None else auto_truncation(spec, k, d)
    b = incident_coefficients(spec, k, n_max, d)
    # the free field at the blown-up point: only the monopole regular basis is nonzero there
    limit = interior_limit(d, config, complex(b[0])) if _homogeneous_interior(config) else None

    def one(e: float) -> SweepRecord:
        cfg = replace(config, epsilon=e)
        try:
            vm = virtual_medium(cfg)
            series = solve_series(vm, k, b, axis=None if spec.axis is None else tuple(spec.axis))
            # the cloaked field: the same series outside radius 2, composed
            # with the inverse map on a probe reaching into the shell
            cloaked = replace(series, domain="physical", epsilon=e)
            vis_l2, vis_h1 = norm_annulus(
                cloaked, "diff_vs_reference", probe[0], probe[1], reference=(b, k)
            )
            int_l2, int_h1 = interior_deviation(blown_up_interior_series(cfg, series), limit)
        except SingularSystemError as exc:
            return SweepRecord(
                e, math.nan, math.nan, math.nan, math.nan, flags=f"singular: {exc}"
            )
        return SweepRecord(e, vis_l2, vis_h1, int_l2, int_h1)

    records = tuple(one(e) for e in eps)
    clean = [r for r in records if not r.flags]
    model = "log_eps" if d == 3 else "log_inv_ln_eps"
    try:
        if len(clean) < 3:
            raise DegenerateDataError("fewer than 3 non-singular rows")
        fit = fit_rate([(r.epsilon, r.visibility_l2) for r in clean], model)
        flag = ""
    except (DegenerateDataError, ValidationError) as exc:
        fit, flag = None, f"degenerate_fit: {exc}"
    return SweepResult(records, fit, flag)


def instability_sweep(
    d: int,
    k: float,
    eps_list,
    *,
    variant: str = "exact",
    probe: tuple[float, float] = DEFAULT_PROBE,
) -> InstabilityResult:
    """Detuned-density sweep showing order-one visibility at vanishing eps.

    For each epsilon the interior density is tuned near the first monopole
    resonance so the scattering coefficient is driven to -1; the record
    reports the tuned density (tuning-equation convention), the closed-form
    alpha0 and the scattered norm over the probe annulus, which the tuned
    rows compare against the unit-coefficient outgoing norm.
    """
    eps = _check_eps_list(eps_list)
    spec0 = first_resonance(d, k, 0)
    ref_norm = outgoing_mode_norm(d, k, 0, probe[0], probe[1])[0]
    mode_inc = IncidentSpec("mode", mode=0)
    b = incident_coefficients(mode_inc, k, auto_truncation(mode_inc, k, d), d)

    def one(e: float) -> tuple[SweepRecord, TunedSigma | None]:
        try:
            tuned = tune_sigma(d, k, e, spec0, variant)
            cfg = tuned_inclusion_config(tuned)
            alpha = tuned.alpha0 if variant == "exact" else alpha0_closed_form(d, k, e, tuned.k_eps)
            vm = virtual_medium(cfg)
            series = solve_series(vm, k, b)
            vis_l2, vis_h1 = norm_annulus(series, "scattered", probe[0], probe[1])
            int_l2, int_h1 = interior_deviation(blown_up_interior_series(cfg, series), None)
        except SingularSystemError as exc:
            rec = SweepRecord(
                e, math.nan, math.nan, math.nan, math.nan, flags=f"singular: {exc}"
            )
            return rec, None
        rec = SweepRecord(
            e, vis_l2, vis_h1, int_l2, int_h1, sigma_eps=tuned.sigma_paper, alpha0=alpha
        )
        return rec, tuned

    rows = [one(e) for e in eps]
    records = tuple(r for r, _ in rows)
    tuned = tuple(t for _, t in rows if t is not None)
    products_paper = []
    products_eq = []
    for rec, t in rows:
        if t is None:
            continue
        weight = (1.0 / rec.epsilon) if d == 3 else abs(math.log(rec.epsilon))
        products_paper.append(weight * abs(t.sigma_paper - t.sigma0_paper))
        products_eq.append(weight * abs(t.sigma_eq - t.sigma0_eq))
    return InstabilityResult(
        records, tuned, ref_norm, tuple(products_paper), tuple(products_eq)
    )


def eigenmode_series(
    config: CloakConfig,
    spec: ResonanceSpec,
    eigen_norm: float | None = None,
) -> FieldSeries:
    """Blown-up field U(x) = u(eps x) of a resonant interior driven by its eigenfunction.

    The source is spec's L2-normalized radial eigenfunction times
    eps^(2 - d), so only mode spec.mode is nonzero; raises SingularSystemError.
    eigen_norm as in interior_source_mode_solve.
    """
    d, eps = config.dimension, config.epsilon
    med = blown_up_medium(config)
    sol = interior_source_mode_solve(
        med, config.k, spec, normalization=eps ** (2 - d), eigen_norm=eigen_norm
    )
    modes = tuple(
        ModeSolution(n=n, b_n=0.0 + 0.0j, alpha_n=0.0 + 0.0j,
                     layer_coeffs=((0.0 + 0.0j, 0.0 + 0.0j),))
        for n in range(spec.mode)
    ) + (sol,)
    return FieldSeries(
        dimension=d, k=config.k, truncation=spec.mode, modes=modes, medium=med
    )


def blowup_sweep(
    d: int,
    k: float,
    eps_list,
    *,
    mode: int = 0,
    probe: tuple[float, float] = DEFAULT_PROBE,
) -> tuple[SweepRecord, ...]:
    """Interior energy blow-up under a resonant eigenfunction source.

    The interior is the first mode-`mode` resonant density at frequency k,
    driven by the L2-normalized radial eigenfunction; per epsilon the
    record carries the interior L2/H1 norms of the blown-up field and the
    exterior L2 norm over the probe annulus (visibility columns).  Singular
    rows are flagged and the sweep continues.
    """
    eps = _check_eps_list(eps_list)
    spec = first_resonance(d, k, mode)
    interior_layer = Layer(1.0, 1.0, spec.sigma0)
    # u_c(x) = U(x / eps) = alpha * outgoing(k |x|) on the probe annulus
    out_l2, out_h1 = outgoing_mode_norm(d, k, mode, probe[0], probe[1])
    eigen_norm = eigenfunction_normalization(spec)   # one quadrature for every row

    def one(e: float) -> SweepRecord:
        try:
            series = eigenmode_series(
                CloakConfig(d, k, e, (interior_layer,)), spec, eigen_norm
            )
        except SingularSystemError as exc:
            return SweepRecord(
                e, math.nan, math.nan, math.nan, math.nan, flags=f"singular: {exc}"
            )
        int_l2, int_h1 = interior_deviation(series, None)
        amp_out = abs(series.modes[mode].alpha_n)
        return SweepRecord(e, amp_out * out_l2, amp_out * out_h1, int_l2, int_h1)

    return tuple(one(e) for e in eps)


def nonresonance_scan(
    d: int, a: float, sigma: float, k_grid, modes: int
) -> float:
    """Minimum normalized resonance-condition magnitude over a k grid.

    A positive minimum certifies non-resonance on the grid; an empty grid
    returns the +inf sentinel.
    """
    ks = np.asarray(k_grid, dtype=float)
    if not ks.size:
        return math.inf
    if np.any(ks <= 0):
        raise ValidationError("k grid must be positive")
    kappa = ks * math.sqrt(sigma / a)
    return min(
        float(np.min(np.abs(resonance_scan(d, modes, kappa[s : s + SCAN_BLOCK], a)[1])))
        for s in range(0, kappa.size, SCAN_BLOCK)
    )
