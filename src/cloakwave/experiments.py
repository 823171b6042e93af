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
    SingularSystemError,
    ValidationError,
)
from .fields import (
    FieldSeries,
    auto_truncation,
    blown_up_interior_series,
    eigenfunction_normalization,
    free_series,
    incident_coefficients,
    interior_limit,
    mode_series,
    norm_annulus,
    outgoing_mode_norm,
    solve_series,
)
from .mie import (
    EPSILON_FLOOR,
    TUNING_FLOOR_3D,
    CloakConfig,
    Layer,
    LayeredMedium,
    ModeSolution,
    ResonanceSpec,
    first_resonance,
    interior_source_mode_solve,
    blown_up_medium,
    resonance_scan,
    tune_sigma,
    virtual_medium,
)

DEFAULT_PROBE = (2.0, 4.0)
# grid points per resonance_scan call in nonresonance_scan: its arrays take
# about 730 bytes per point at 10 modes, against 8 bytes per point of the
# grid itself (scan.points is capped at 1,000,000)
SCAN_BLOCK = 4096


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


def _singular_record(epsilon: float, exc: SingularSystemError) -> SweepRecord:
    """The row of a solve that hit a singular interface system: NaN norms, flagged."""
    return SweepRecord(epsilon, math.nan, math.nan, math.nan, math.nan, flags=f"singular: {exc}")


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
    """Instability rows, the tuned rows' detuning products and the resonant densities.

    sigma0_paper is kappa* / k and sigma0_eq (kappa* / k)^2; both are None
    when no row tuned.
    """

    records: tuple[SweepRecord, ...]
    reference_norm: float
    products_paper: tuple[float, ...]
    products_eq: tuple[float, ...]
    sigma0_paper: float | None
    sigma0_eq: float | None


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


def convergence_sweep(
    config: CloakConfig,
    eps_list,
    *,
    probe: tuple[float, float] = DEFAULT_PROBE,
) -> SweepResult:
    """Visibility and interior deviation across a regularization sweep.

    Per epsilon: the virtual small-inclusion problem is solved at the
    config's frequency, truncated at auto_truncation; the visibility is the
    norm of (cloaked field - free-field pullback) over the probe annulus,
    which may reach into the shell (radius > 1), and the interior deviation
    is the norm of the blown-up interior field over the unit ball minus its
    limit, fields.interior_limit, built once per sweep: zero, or at a 3d
    monopole resonance the leaked free-field value at the blown-up point.
    Every other resonance of a single lossless interior layer raises
    ResonantConfigError; layered and lossy interiors are not tested for
    resonance and are measured against the zero limit.  The rate fit
    uses epsilon in 3d and 1/|ln eps| in 2d; a fit on data spanning less
    than a decade is reported as degenerate instead of failing the sweep.
    """
    eps = _check_eps_list(eps_list)
    d, k = config.dimension, config.k
    if config.incident is None:
        raise ValidationError("convergence sweep needs an incident field")
    spec = config.incident
    b = incident_coefficients(spec, k, auto_truncation(spec, k, d), d)
    axis = spec.axis
    limit = interior_limit(config, b, axis)
    # the free field pulled back through the limit map
    pullback = replace(free_series(d, k, b, axis), epsilon=0.0)

    def one(e: float) -> SweepRecord:
        cfg = replace(config, epsilon=e)
        try:
            series = solve_series(virtual_medium(cfg), k, b, axis=axis)
            # the cloaked field: the same series outside radius 2, composed
            # with the inverse map on a probe reaching into the shell
            cloaked = replace(series, epsilon=e)
            vis_l2, vis_h1 = norm_annulus(cloaked, probe[0], probe[1], reference=pullback)
            int_l2, int_h1 = norm_annulus(
                blown_up_interior_series(cfg, series), 0.0, 1.0, reference=limit
            )
        except SingularSystemError as exc:
            return _singular_record(e, exc)
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

    For each epsilon the interior argument is tuned near the first monopole
    resonance kappa* so the scattering coefficient is driven to -1; the
    record reports the tuned density k_eps / k and its alpha0.  Under the
    unit monopole incidence a row makes no transfer solve: the scattered
    norm over the probe annulus is |alpha0| times the unit outgoing norm,
    the reference against which the tuned rows read order one, and the
    interior norm is that of c R_0(kappa r) on the unit ball at the tuned
    density (k_eps / k)^2 (TunedSigma.alpha0 and .interior, at 60 digits).
    The detuning products are w |delta| / k and w |delta| (k_eps + kappa* +
    k_eps_lo) / k^2, the density offsets of the two conventions from the
    exact detuning delta = k_eps + k_eps_lo - kappa*, with w = 1 / eps (3d)
    or |ln eps| (2d).  The inputs are checked before any row: the variant,
    eps <= 0.3 (where the tuning bracket is monotone), k eps < 2 for the 2d
    paper variant, the 3d TUNING_FLOOR_3D, below which the tuned root no
    longer holds alpha0 = -1, and a representable outgoing norm.
    """
    eps = _check_eps_list(eps_list)
    if variant not in ("exact", "paper"):
        raise ValidationError(f"unknown tuning variant {variant!r}")
    # eps decreases strictly: eps[0] bounds every row from above, eps[-1] from below
    if eps[0] > 0.3:
        raise ValidationError("tuning bracket is only monotone for eps <= 0.3")
    if variant == "paper" and d == 2 and k * eps[0] >= 2.0:
        # the leading-order balance 1 / log(k eps / 2) has its pole at k eps = 2
        raise ValidationError(f"2d paper tuning needs k eps < 2, got k eps = {k * eps[0]:g}")
    if d == 3 and eps[-1] < TUNING_FLOOR_3D:
        raise ValidationError(f"3d instability needs every epsilon >= {TUNING_FLOOR_3D:g}")
    kap = first_resonance(d, k, 0).kappa_star
    out_l2, out_h1 = outgoing_mode_norm(d, k, 0, probe[0], probe[1])

    def one(e: float) -> tuple[SweepRecord, tuple[float, float] | None]:
        try:
            t = tune_sigma(d, k, e, kap, variant)
        except SingularSystemError as exc:
            return _singular_record(e, exc), None
        ball = LayeredMedium(d, (Layer(1.0, 1.0, (t.k_eps / k) ** 2),))
        mode0 = ModeSolution(n=0, b_n=0.0 + 0.0j, alpha_n=0.0 + 0.0j,
                             layer_coeffs=((t.interior, 0.0 + 0.0j),))
        int_l2, int_h1 = norm_annulus(mode_series(ball, k, mode0), 0.0, 1.0)
        amp_out = abs(t.alpha0)
        rec = SweepRecord(
            e, amp_out * out_l2, amp_out * out_h1, int_l2, int_h1,
            sigma_eps=t.k_eps / k, alpha0=t.alpha0,
        )
        # k_eps lies within 0.4 of kappa* > 3.8, so k_eps - kappa* is exact (Sterbenz)
        delta = (t.k_eps - kap) + t.k_eps_lo
        weight = (1.0 / e) if d == 3 else abs(math.log(e))
        paper = weight * abs(delta) / k
        return rec, (paper, weight * abs(delta) * (t.k_eps + kap + t.k_eps_lo) / k**2)

    rows = [one(e) for e in eps]
    products = [p for _, p in rows if p is not None]
    return InstabilityResult(
        tuple(r for r, _ in rows),
        out_l2,
        tuple(p for p, _ in products),
        tuple(q for _, q in products),
        kap / k if products else None,
        (kap / k) ** 2 if products else None,
    )


def eigenmode_series(spec: ResonanceSpec, k: float, eps: float) -> FieldSeries:
    """Blown-up field U(x) = u(eps x) of spec's interior driven by its eigenfunction.

    The interior is one unit layer of stiffness spec.a and density
    spec.sigma0, resonant at the frequency spec was detected at; the
    source is spec's L2-normalized radial eigenfunction times eps^(2 - d),
    so only mode spec.mode is nonzero.  Raises SingularSystemError.
    """
    d = spec.dimension
    med = blown_up_medium(CloakConfig(d, k, eps, (Layer(1.0, spec.a, spec.sigma0),)))
    amplitude = eps ** (2 - d) * eigenfunction_normalization(spec)
    return mode_series(med, k, interior_source_mode_solve(med, k, spec.mode, amplitude))


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
    # u_c(x) = U(x / eps) = alpha * outgoing(k |x|) on the probe annulus
    out_l2, out_h1 = outgoing_mode_norm(d, k, mode, probe[0], probe[1])

    def one(e: float) -> SweepRecord:
        try:
            series = eigenmode_series(spec, k, e)
        except SingularSystemError as exc:
            return _singular_record(e, exc)
        int_l2, int_h1 = norm_annulus(series, 0.0, 1.0)
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
