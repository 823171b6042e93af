"""Command-line front end: config parsing, experiment dispatch, file output.

Configs are plain key = value text (comments with '#', dotted keys for
grouping); results go to a CSV with a fixed column order plus a JSON
summary that echoes the parsed config, so runs are reproducible and
diff-friendly.  Exit codes: 0 success, 2 validation error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, specfun
from .errors import CloakwaveError, SingularSystemError, ValidationError
from .experiments import (
    blowup_sweep,
    convergence_sweep,
    eigenmode_series,
    instability_sweep,
    nonresonance_scan,
)
from .fields import (
    IncidentSpec,
    auto_truncation,
    incident_coefficients,
    solve_series,
)
from .mie import (
    CloakConfig,
    Layer,
    detect_resonances,
    first_resonance,
    homogeneous_layer,
    solve_modes,
    virtual_medium,
)
from .transform import BlowupMap, map_inverse

CSV_HEADER = (
    "epsilon,visibility_l2,visibility_h1,interior_l2,interior_h1,"
    "sigma_eps,alpha0_re,alpha0_im,flags"
)

EXPERIMENTS = ("sweep", "instability", "blowup", "resonances", "scan-k", "field", "modes")

GRID_POINT_CAP = 1_000_000
SCAN_POINT_CAP = 1_000_000
GRID_RADIUS_CAP = 5.0
FIELD_BLOCK = 1024         # points per field-dump evaluation block
# a field.csv row: its grid axis values' text around the middle cell (3d: the
# plane y = 0), then the value cells; "%.17g" writes a float or nan as _fmt does
FIELD_MIDDLE = {2: ",", 3: ",0,"}
FIELD_ROW = ",%.17g,%.17g,%.17g\n"


# ---------------------------------------------------------------------------
# config


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration plus the raw key/value echo."""

    experiment: str
    cloak: CloakConfig
    eps_list: tuple[float, ...]
    probe: tuple[float, float]
    tuning: str
    blowup_mode: int
    scan_k: tuple[float, float, int, int]        # k_min, k_max, points, modes
    resonance_window: tuple[float, float, int]   # k_min, k_max, modes
    grid_extent: float
    grid_points: int
    field_kind: str = "incident"
    raw: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, val = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ValidationError(f"config line {lineno}: empty key")
        if key in out:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def _number(raw: str, kind: type = float):
    """raw as a finite number of type kind, else ValidationError."""
    try:
        x = kind(raw)
        if cmath.isfinite(x):
            return x
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed numeric value in config: {exc}") from exc
    raise ValidationError(f"non-finite value in config: {raw}")


def _floats(raw: str) -> list[float]:
    return [_number(tok) for tok in raw.replace(",", " ").split()]


def _complexes(raw: str) -> list[complex]:
    return [_number(tok, complex) for tok in raw.replace(",", " ").split()]


def build_run_config(kv: dict[str, str]) -> RunConfig:
    """Validate a raw key/value mapping into a RunConfig."""
    def get(key: str, default: str | None = None) -> str:
        if key in kv:
            return kv[key]
        if default is None:
            raise ValidationError(f"missing required config key {key!r}")
        return default

    experiment = get("experiment")
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}")
    if "truncation" in kv:
        # summary.json echoes every key, so an unused truncation would be recorded
        raise ValidationError("config key 'truncation' is not settable: the run chooses it")

    def count(key: str, default: str, cap: float = math.inf) -> int:
        """The integer at key if it lies in [0, cap], else ValidationError naming key."""
        value = _number(get(key, default), int)
        if not 0 <= value <= cap:
            raise ValidationError(f"{key} = {value} outside [0, {cap}]")
        return value

    def vector(key: str, default: str | None = None) -> tuple[float, ...]:
        """The first `dimension` components at key; fewer is a ValidationError naming key."""
        values = tuple(_floats(get(key, default)))
        if len(values) < dimension:
            raise ValidationError(f"{key} needs {dimension} components, got {len(values)}")
        return values[:dimension]

    dimension = _number(get("dimension"), int)
    if dimension not in (2, 3):   # vector() reads it before CloakConfig checks it
        raise ValidationError(f"dimension must be 2 or 3, got {dimension}")
    k = _number(get("k"))
    epsilon = _number(get("epsilon", "0.1"))
    radii = _floats(get("interior.radii", "1.0"))
    avals = _floats(get("interior.a", "1.0"))
    svals = _complexes(get("interior.sigma", "1.0"))
    eps_list = tuple(_floats(get("eps_list", "1e-1, 3e-2, 1e-2, 3e-3, 1e-3")))
    probe_in = _number(get("probe.r_in", "2.0"))
    probe_out = _number(get("probe.r_out", "4.0"))
    tuning = get("tuning", "exact")
    blowup_mode = count("blowup.mode", "0", specfun.ORDER_CAP)
    scan_k = (
        _number(get("scan.k_min", "0.01")),
        _number(get("scan.k_max", "1.0")),
        count("scan.points", "100", SCAN_POINT_CAP),
        count("scan.modes", "10", specfun.ORDER_CAP),
    )
    resonance_window = (
        _number(get("resonances.k_min", "0.1")),
        _number(get("resonances.k_max", "6.0")),
        count("resonances.modes", "3", specfun.ORDER_CAP),
    )
    grid_extent = _number(get("grid.extent", "3.0"))
    grid_points = count("grid.points", "41")
    amplitude = _number(get("incident.amplitude", "1.0"), complex)
    field_kind = get("field.kind", "incident")
    if field_kind not in ("incident", "eigenmode"):
        raise ValidationError(f"unknown field kind {field_kind!r}")
    if tuning not in ("paper", "exact"):
        raise ValidationError(f"unknown tuning variant {tuning!r}")
    if not 1.0 < probe_in < probe_out:
        # the free-field pullback has no preimage on the blown-up ball
        raise ValidationError(f"probe annulus ({probe_in}, {probe_out}) must satisfy 1 < r_in < r_out")
    if len({len(radii), len(avals), len(svals)}) != 1:
        raise ValidationError("interior.radii/a/sigma must have equal lengths")
    layers = tuple(Layer(r, a, s) for r, a, s in zip(radii, avals, svals))
    if experiment in ("scan-k", "resonances") and homogeneous_layer(layers) is None:
        raise ValidationError(f"{experiment} needs a single lossless interior layer")
    kind = get("incident.kind", "plane_wave")
    if kind == "plane_wave":
        direction = vector("incident.direction", "1, 0, 0")
        incident = IncidentSpec("plane_wave", amplitude, direction=direction)
    elif kind == "point_source":
        incident = IncidentSpec("point_source", amplitude, location=vector("incident.location"))
    elif kind == "mode":
        mode = count("incident.mode", "0", specfun.ORDER_CAP)
        incident = IncidentSpec("mode", amplitude, mode=mode)
    else:
        raise ValidationError(f"unknown incident kind {kind!r}")
    cloak = CloakConfig(dimension, k, epsilon, layers, incident)
    raw = tuple(sorted(kv.items()))
    return RunConfig(
        experiment=experiment,
        cloak=cloak,
        eps_list=eps_list,
        probe=(probe_in, probe_out),
        tuning=tuning,
        blowup_mode=blowup_mode,
        scan_k=scan_k,
        resonance_window=resonance_window,
        grid_extent=grid_extent,
        grid_points=grid_points,
        field_kind=field_kind,
        raw=raw,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return build_run_config(parse_config_text(text))


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    return "" if x is None else f"{float(x):.17g}"


def records_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        a_re = None if r.alpha0 is None else r.alpha0.real
        a_im = None if r.alpha0 is None else r.alpha0.imag
        lines.append(
            ",".join(
                [
                    _fmt(r.epsilon),
                    _fmt(r.visibility_l2),
                    _fmt(r.visibility_h1),
                    _fmt(r.interior_l2),
                    _fmt(r.interior_h1),
                    _fmt(r.sigma_eps),
                    _fmt(a_re),
                    _fmt(a_im),
                    r.flags,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def _summary(config: RunConfig, extra: dict) -> str:
    body = {
        "tool": {"name": "cloakwave", "version": __version__},
        "experiment": config.experiment,
        "config": {k: v for k, v in config.raw},
    }
    body.update(extra)
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# experiment runners


def _run_sweep(config: RunConfig, out_dir: str) -> None:
    res = convergence_sweep(config.cloak, config.eps_list, probe=config.probe)
    _write(os.path.join(out_dir, "results.csv"), records_csv(res.records))
    _write(
        os.path.join(out_dir, "summary.json"),
        _summary(
            config,
            {
                "rows": len(res.records),
                "rate_fit": None if res.fit is None else asdict(res.fit),
                "fit_flag": res.fit_flag,
            },
        ),
    )


def _run_instability(config: RunConfig, out_dir: str) -> None:
    res = instability_sweep(
        config.cloak.dimension,
        config.cloak.k,
        config.eps_list,
        variant=config.tuning,
        probe=config.probe,
    )
    _write(os.path.join(out_dir, "results.csv"), records_csv(res.records))
    extra = {
        "rows": len(res.records),
        "tuning_variant": config.tuning,
        "reference_norm": res.reference_norm,
        "alpha0_re": [None if r.alpha0 is None else r.alpha0.real for r in res.records],
        "alpha0_im": [None if r.alpha0 is None else r.alpha0.imag for r in res.records],
        "detuning_products_paper": list(res.products_paper),
        "detuning_products_eq": list(res.products_eq),
        "sigma0_paper": res.sigma0_paper,
        "sigma0_eq": res.sigma0_eq,
    }
    _write(os.path.join(out_dir, "summary.json"), _summary(config, extra))
    singular = [r.flags for r in res.records if r.flags.startswith("singular")]
    if singular:
        raise SingularSystemError(
            f"{len(singular)} of {len(res.records)} tuned rows flagged, first: {singular[0]}"
        )


def _run_blowup(config: RunConfig, out_dir: str) -> None:
    records = blowup_sweep(
        config.cloak.dimension,
        config.cloak.k,
        config.eps_list,
        mode=config.blowup_mode,
        probe=config.probe,
    )
    _write(os.path.join(out_dir, "results.csv"), records_csv(records))
    prods = [
        r.epsilon * r.interior_h1 if config.cloak.dimension == 3 else r.interior_h1
        for r in records
    ]
    _write(
        os.path.join(out_dir, "summary.json"),
        _summary(
            config,
            {
                "rows": len(records),
                "blowup_mode": config.blowup_mode,
                "interior_products": prods,
                "exterior_l2": [r.visibility_l2 for r in records],
            },
        ),
    )


def _run_resonances(config: RunConfig, out_dir: str) -> None:
    k_min, k_max, modes = config.resonance_window
    lay = homogeneous_layer(config.cloak.interior)   # not None: build_run_config checks
    found = detect_resonances(config.cloak.dimension, lay.a, lay.sigma, (k_min, k_max), modes)
    rows = [
        {
            "mode": s.mode,
            "k": s.frequency,
            "kappa_star": s.kappa_star,
            "sigma0": s.sigma0,
        }
        for s in found
    ]
    _write(
        os.path.join(out_dir, "summary.json"),
        _summary(config, {"resonances": rows, "count": len(rows)}),
    )


def _run_scan(config: RunConfig, out_dir: str) -> None:
    k_min, k_max, points, modes = config.scan_k
    lay = homogeneous_layer(config.cloak.interior)   # not None: build_run_config checks
    grid = np.linspace(k_min, k_max, points)
    minimum = nonresonance_scan(config.cloak.dimension, lay.a, lay.sigma, grid, modes)
    _write(
        os.path.join(out_dir, "summary.json"),
        _summary(
            config,
            {
                "minimum": minimum if math.isfinite(minimum) else "inf",
                "k_min": k_min,
                "k_max": k_max,
                "points": points,
                "modes": modes,
            },
        ),
    )


def _grid_blocks(config: RunConfig):
    """The validated grid, first coordinate fastest, FIELD_BLOCK points at a time.

    Each block is its (P, d) points and a generator of its rows' coordinate
    text from the axis values formatted once.  In 3d the grid is the plane
    y = 0, which contains the symmetry axis.
    """
    ext = config.grid_extent
    n = config.grid_points
    d = config.cloak.dimension
    if not (0 < ext and ext * math.sqrt(2.0) <= GRID_RADIUS_CAP):
        raise ValidationError(
            f"grid corners must stay inside radius {GRID_RADIUS_CAP} "
            f"(extent <= {GRID_RADIUS_CAP / math.sqrt(2.0):.4f})"
        )
    count = n * n
    if count > GRID_POINT_CAP:
        raise ValidationError(f"grid of {count} points exceeds cap {GRID_POINT_CAP}")
    axis_pts = np.linspace(-ext, ext, n)
    axis_text = ["%.17g" % v for v in axis_pts.tolist()]
    middle = FIELD_MIDDLE[d]

    def block(start: int):
        stop = min(start + FIELD_BLOCK, count)
        flat = np.arange(start, stop)
        x1, x2 = axis_pts[flat % n], axis_pts[flat // n]
        pts = np.column_stack((x1, x2) if d == 2 else (x1, np.zeros_like(x1), x2))
        return pts, (axis_text[i % n] + middle + axis_text[i // n] for i in range(start, stop))

    return (block(start) for start in range(0, count, FIELD_BLOCK))


def _field_evaluator(config: RunConfig):
    """(callable (P, d) points -> values, truncation) for the configured field kind."""
    cloak = config.cloak
    d, k, eps = cloak.dimension, cloak.k, cloak.epsilon
    corner = config.grid_extent * math.sqrt(2.0)
    if config.field_kind == "eigenmode":
        series = eigenmode_series(first_resonance(d, k, config.blowup_mode), k, eps)
        m = BlowupMap(eps)

        def values(pts: np.ndarray) -> np.ndarray:
            # u_c(y) = U(F^{-1}(y) / eps): blown-up field at the rescaled preimage
            return series.eval_many(map_inverse(m, pts) / eps)

        return values, config.blowup_mode
    spec = cloak.incident
    if spec.kind == "point_source":
        r0 = float(np.linalg.norm(spec.location))
        if corner >= 0.9 * r0:
            raise ValidationError(
                f"field grid corner radius {corner:.3g} reaches the point-source "
                f"expansion boundary (source radius {r0:.3g})"
            )
    n_max = auto_truncation(spec, k, d, r_eval=corner)
    b = incident_coefficients(spec, k, n_max, d, r_eval=corner)
    series = solve_series(
        virtual_medium(cloak),
        k,
        b,
        epsilon=eps,
        axis=spec.axis,
        incident=spec,
    )
    return series.eval_many, n_max


def _run_field(config: RunConfig, out_dir: str) -> None:
    blocks = _grid_blocks(config)
    values, n_max = _field_evaluator(config)
    d = config.cloak.dimension
    header = "x,y,re_u,im_u,abs_u" if d == 2 else "x,y,z,re_u,im_u,abs_u"
    path = os.path.join(out_dir, "field.csv")
    part = path + ".part"
    # written under a temporary name, so field.csv only ever holds a whole
    # dump; a failed dump leaves neither file
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for pts, prefixes in blocks:
                vals = values(pts)
                # Python's abs, not np.abs, whose last bit differs on some values;
                # one statement, so that no value list outlives the block's rows
                fh.write("".join(map(str.__add__, prefixes, map(
                    FIELD_ROW.__mod__, zip(vals.real.tolist(), vals.imag.tolist(), map(abs, vals.tolist()))
                ))))
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)
    _write(
        os.path.join(out_dir, "summary.json"),
        _summary(
            config,
            {
                "points": config.grid_points ** 2,
                "extent": config.grid_extent,
                "truncation": n_max,
                "field_kind": config.field_kind,
            },
        ),
    )


def _run_modes(config: RunConfig, out_dir: str) -> None:
    cloak = config.cloak
    spec = cloak.incident
    n_max = auto_truncation(spec, cloak.k, cloak.dimension)
    b = incident_coefficients(spec, cloak.k, n_max, cloak.dimension)
    medium = virtual_medium(cloak)
    lines = ["n,b_re,b_im,alpha_re,alpha_im,inner_c_re,inner_c_im"]
    for sol in solve_modes(medium, cloak.k, b):
        c0 = sol.layer_coeffs[0][0]
        lines.append(
            f"{sol.n},{_fmt(sol.b_n.real)},{_fmt(sol.b_n.imag)},"
            f"{_fmt(sol.alpha_n.real)},{_fmt(sol.alpha_n.imag)},"
            f"{_fmt(c0.real)},{_fmt(c0.imag)}"
        )
    _write(os.path.join(out_dir, "modes.csv"), "\n".join(lines) + "\n")
    _write(
        os.path.join(out_dir, "summary.json"),
        _summary(config, {"rows": n_max + 1, "truncation": n_max}),
    )


_RUNNERS = {
    "sweep": _run_sweep,
    "instability": _run_instability,
    "blowup": _run_blowup,
    "resonances": _run_resonances,
    "scan-k": _run_scan,
    "field": _run_field,
    "modes": _run_modes,
}


def run(config_path: str, out_dir: str = ".", *, experiment: str | None = None) -> int:
    """Load a config, run its experiment, write results; returns exit status."""
    try:
        config = load_config(config_path)
        if experiment is not None and experiment != config.experiment:
            raise ValidationError(
                f"subcommand {experiment!r} does not match config experiment "
                f"{config.experiment!r}"
            )
    except ValidationError as exc:
        print(f"cloakwave: config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(out_dir, exist_ok=True)
        _RUNNERS[config.experiment](config, out_dir)
    except ValidationError as exc:
        print(f"cloakwave: validation error: {exc}", file=sys.stderr)
        return 2
    except CloakwaveError as exc:
        print(f"cloakwave: numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cloakwave",
        description="Modal simulator for transformation-based approximate cloaking",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to key = value config")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    return run(args.config, args.out, experiment=args.command)


if __name__ == "__main__":
    raise SystemExit(main())
