"""Command-line front end: dispatch, validation, outputs, golden files."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
import scipy.special as ss
from scipy.optimize import brentq

from cloakwave import cli, specfun
from cloakwave.cli import build_run_config, parse_config_text
from cloakwave.errors import BesselOverflowError, ValidationError
from cloakwave.fields import (
    FieldSeries,
    auto_truncation,
    free_series,
    incident_coefficients,
    norm_annulus,
    solve_series,
)
from cloakwave.mie import first_resonance, tune_sigma, virtual_medium
from cloakwave.transform import BlowupMap, radial_forward

from oracles import detuning_products_mp, instability_row_mp, outgoing_norm_mp, series_values

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")

SWEEP_CFG = """
experiment = sweep
dimension = 3
k = 1.0
eps_list = 1e-1, 3e-2, 1e-2, 3e-3, 1e-3
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
incident.kind = plane_wave
incident.direction = 0, 0, 1
"""


def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_sweep_run_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, SWEEP_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "results.csv")).read().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 6  # header + 5 rows
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert 0.9 <= summary["rate_fit"]["slope"] <= 1.1
    assert summary["tool"]["name"] == "cloakwave"


def test_instability_alpha0_in_summary(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        """
experiment = instability
dimension = 3
k = 1.0
eps_list = 1e-2, 1e-3, 1e-4
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
""",
    )
    out = str(tmp_path / "out")
    assert cli.main(["instability", "--config", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    for re_, im_ in zip(summary["alpha0_re"], summary["alpha0_im"]):
        assert abs(complex(re_, im_) + 1.0) < 1e-8


@pytest.mark.parametrize("tuning", ["exact", "paper"])
def test_instability_3d_below_tuning_floor_exits_2_without_files(tmp_path, capsys, tuning):
    # below 1e-10 the double-double tuned root no longer holds alpha0 = -1 in 3d
    cfg = _write_cfg(
        tmp_path,
        f"""
experiment = instability
dimension = 3
k = 1.0
eps_list = 1e-4, 1e-5, 3e-11
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
tuning = {tuning}
""",
    )
    out = tmp_path / "out"
    assert cli.main(["instability", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or not os.listdir(out)
    assert "1e-10" in capsys.readouterr().err


def test_instability_2d_paper_at_k_eps_2_exits_2_without_files(tmp_path, capsys):
    # the leading-order 2d balance has its pole at k eps = 2 (1 / log(k eps / 2))
    cfg = _write_cfg(
        tmp_path,
        """
experiment = instability
dimension = 2
k = 10
eps_list = 0.2, 0.1, 0.05
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
tuning = paper
""",
    )
    out = tmp_path / "out"
    assert cli.main(["instability", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or not os.listdir(out)
    assert "k eps" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, extra", [
    ("instability", "eps_list = 1e-2, 1e-3, 1e-4"),
    ("blowup", "eps_list = 1e-2, 1e-3, 1e-4"),
    ("field", "epsilon = 1e-2\nfield.kind = eigenmode\ngrid.points = 5"),
], ids=["instability", "blowup", "field_eigenmode"])
def test_resonant_run_at_tiny_k_exits_2_without_files(tmp_path, capsys, experiment, extra):
    # the first resonant density (kappa* / k)^2 overflows a double below k ~ 3e-154
    cfg = _write_cfg(
        tmp_path,
        f"experiment = {experiment}\ndimension = 3\nk = 1e-200\ninterior.radii = 1.0\n"
        f"interior.a = 1.0\ninterior.sigma = 1.0\n{extra}\n",
    )
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or not os.listdir(out)
    assert "k = 1e-200" in capsys.readouterr().err


def test_malformed_config_exits_2_without_files(tmp_path):
    cfg = _write_cfg(tmp_path, "experiment = sweep\ndimension = 3\nk = -1.0\n")
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "results.csv"))


def test_validation_rules():
    base = {
        "experiment": "sweep",
        "dimension": "3",
        "k": "1.0",
        "interior.radii": "1.0",
        "interior.a": "1.0",
        "interior.sigma": "1.0",
    }
    build_run_config(dict(base))
    for key, val in [
        ("epsilon", "1.5"),
        ("epsilon", "0"),
        ("k", "0"),
        ("interior.sigma", "-2.0"),
        ("interior.sigma", "1-0.5j"),
        ("interior.radii", "1.0, 0.5"),
    ]:
        bad = dict(base)
        bad[key] = val
        if key == "interior.radii":
            bad["interior.a"] = "1.0, 1.0"
            bad["interior.sigma"] = "1.0, 1.0"
        with pytest.raises(Exception):
            build_run_config(bad)


_INTERIOR = "dimension = 2\nk = 1.0\ninterior.radii = 1.0\ninterior.a = 1.0\ninterior.sigma = 1.0\n"
_BASES = {
    "sweep": SWEEP_CFG,
    "field": "experiment = field\n" + _INTERIOR + "grid.points = 5\n",
    "scan-k": "experiment = scan-k\n" + _INTERIOR + "scan.points = 10\n",
    "resonances": "experiment = resonances\n" + _INTERIOR + "resonances.k_max = 2.0\n",
    "blowup": "experiment = blowup\n" + _INTERIOR + "eps_list = 1e-2, 1e-3, 1e-4\n",
    "modes": "experiment = modes\n" + _INTERIOR + "incident.kind = mode\n",
}
_LAYERED = (
    ("interior.radii", "0.5, 1.0"), ("interior.a", "1.0, 1.0"), ("interior.sigma", "3.0, 1.0")
)


@pytest.mark.parametrize(
    "experiment, key, value, flags",
    [
        ("sweep", "k", "nan", []),
        ("sweep", "interior.sigma", "nan", []),
        ("sweep", "interior.a", "inf", []),
        ("sweep", "truncation", "-3", []),
        ("sweep", "truncation", "201", []),
        ("sweep", "epsilon", "9e-101", []),
        ("sweep", "probe.r_out", "inf", []),
        ("sweep", "incident.direction", "x, 0, 1", []),
        pytest.param("sweep", "dimension", "1" + "0" * 400, [], id="sweep-dimension-1e400"),
        ("field", "grid.extent", "nan", []),
        ("field", "grid.points", "-5", []),
        ("scan-k", "scan.points", "-3", []),
        ("scan-k", "scan.modes", "-1", []),
        ("scan-k", "scan.k_min", "nan", []),
        ("resonances", "resonances.modes", "-1", []),
        ("blowup", "blowup.mode", "-1", []),
        ("modes", "incident.mode", "201", []),
        ("scan-k", "scan.points", "1000001", []),
        ("sweep", "eps_list", "1e-1, 1e-50, 1e-150", []),
        ("scan-k", "scan.modes", "201", []),
        ("resonances", "resonances.modes", "201", []),
        ("blowup", "blowup.mode", "201", []),
        # resonance scans and catalogues need one lossless interior layer
        ("scan-k", "interior.sigma", "1+0.5j", []),
        ("resonances", "interior.sigma", "1+0.5j", []),
        pytest.param("scan-k", None, _LAYERED, [], id="scan-k-layered"),
        pytest.param("resonances", None, _LAYERED, [], id="resonances-layered"),
        # incident vectors need `dimension` components
        pytest.param("field", None, (("dimension", "3"), ("incident.direction", "1")), [],
                     id="field-3d-short-direction"),
        pytest.param("field", None, (("dimension", "3"), ("grid.extent", "1.0"),
                                     ("incident.kind", "point_source"),
                                     ("incident.location", "3.0")), [],
                     id="field-3d-short-location"),
        pytest.param("field", None, (("grid.extent", "1.0"), ("incident.kind", "point_source"),
                                     ("incident.location", "3.0")), [],
                     id="field-2d-short-location"),
    ],
)
def test_malformed_values_exit_2_up_front(tmp_path, capsys, experiment, key, value, flags):
    # non-finite floats and negative counts are rejected before any work;
    # a row with key None sets each (key, value) pair of its value
    text = _BASES[experiment]
    edits = dict(value) if key is None else {key: value}
    text = "\n".join(
        line for line in text.splitlines() if line.split(" ", 1)[0] not in edits
    ) + "".join(f"\n{k} = {v}" for k, v in edits.items()) + "\n"
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", cfg, "--out", str(out)] + flags) == 2
    assert not out.exists() or not os.listdir(out)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, key", [("plane_wave", "incident.direction"), ("point_source", "incident.location")]
)
def test_incident_vectors_need_dimension_components(kind, key):
    kv = parse_config_text(_BASES["field"]) | {"dimension": "3", "incident.kind": kind, key: "3.0"}
    with pytest.raises(ValidationError, match=f"{key} needs 3 components, got 1"):
        build_run_config(kv)
    # extra components are dropped: the 2d default direction is 1, 0, 0
    spec = build_run_config(kv | {"dimension": "2", key: "3.0, 0, 0"}).cloak.incident
    assert getattr(spec, key.split(".")[1]) == (3.0, 0.0)


@pytest.mark.parametrize(
    "experiment, dimension", [("scan-k", "4"), ("field", "0"), ("sweep", "1")]
)
def test_dimension_checked_before_it_is_used(experiment, dimension):
    # scan-k reads no incident field, and a field's direction is cut to
    # `dimension` components: both must report the dimension itself
    kv = parse_config_text(_BASES[experiment]) | {"dimension": dimension}
    with pytest.raises(ValidationError, match=f"^dimension must be 2 or 3, got {dimension}$"):
        build_run_config(kv)


def test_scan_points_cap_is_inclusive():
    cfg = build_run_config(parse_config_text(_BASES["scan-k"].replace("= 10", "= 1000000")))
    assert cfg.scan_k[2] == cli.SCAN_POINT_CAP == 1_000_000


def test_subcommand_config_mismatch(tmp_path):
    cfg = _write_cfg(tmp_path, SWEEP_CFG)
    assert cli.main(["blowup", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("value", ["0", "3", "60"])
def test_truncation_key_exits_2_and_writes_no_files(tmp_path, capsys, value):
    # the run chooses the truncation; summary.json would echo a key it did not use
    cfg = _write_cfg(tmp_path, SWEEP_CFG + f"truncation = {value}\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "'truncation'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--truncation", "3"], ["--tuning", "paper"]])
def test_removed_override_flags_exit_2(tmp_path, capsys, flags):
    # truncation and tuning are set by config keys alone, which summary.json echoes
    cfg = _write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", cfg, "--out", str(out)] + flags)
    assert exc.value.code == 2
    assert not out.exists()
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_echo_round_trip(tmp_path):
    cfg = _write_cfg(tmp_path, SWEEP_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    echoed = build_run_config(dict(summary["config"]))
    original = cli.load_config(cfg)
    assert echoed == original


def test_field_homogeneous_unit_amplitude(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        """
experiment = field
dimension = 2
k = 1.0
epsilon = 1.0
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
incident.kind = plane_wave
incident.direction = 1, 0
grid.extent = 2.8
grid.points = 11
""",
    )
    out = str(tmp_path / "out")
    assert cli.main(["field", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "field.csv")).read().splitlines()[1:]
    for row in rows:
        amp = float(row.split(",")[-1])
        assert abs(amp - 1.0) < 1e-9


def test_field_grid_cap(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        """
experiment = field
dimension = 2
k = 1.0
epsilon = 0.5
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
grid.points = 2000
""",
    )
    assert cli.main(["field", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_field_dump_consistent_with_visibility(tmp_path):
    cfg_text = """
experiment = field
dimension = 3
k = 1.0
epsilon = 1e-3
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
incident.kind = plane_wave
incident.direction = 0, 0, 1
grid.extent = 3.5
grid.points = 13
"""
    cfg = _write_cfg(tmp_path, cfg_text)
    out = str(tmp_path / "out")
    assert cli.main(["field", "--config", cfg, "--out", out]) == 0
    # reported visibility scale at the same epsilon
    from cloakwave.experiments import convergence_sweep
    from cloakwave.fields import IncidentSpec
    from cloakwave.mie import CloakConfig, Layer

    cc = CloakConfig(
        3, 1.0, 1e-3, (Layer(1.0, 1.0, 1.0),),
        incident=IncidentSpec("plane_wave", direction=(0, 0, 1.0)),
    )
    vis = convergence_sweep(cc, (1e-1, 1e-2, 1e-3)).records[-1].visibility_l2
    rows = open(os.path.join(out, "field.csv")).read().splitlines()[1:]
    worst = 0.0
    for row in rows:
        vals = row.split(",")
        x = np.array([float(vals[0]), float(vals[1]), float(vals[2])])
        r = np.linalg.norm(x)
        if r <= 2.0:
            continue
        u_c = complex(float(vals[3]), float(vals[4]))
        u_free = np.exp(1j * 1.0 * x[2])
        worst = max(worst, abs(u_c - u_free))
    assert worst <= 10.0 * vis


@pytest.mark.parametrize("experiment, mode", [("modes", 21), ("modes", 30), ("sweep", 30), ("field", 40)])
def test_single_mode_incidence_above_default_truncation(tmp_path, experiment, mode):
    # the default truncation at k = 1 is 21; a single mode is exact, so its
    # one nonzero b_n, the last entry of b, is not taken for a tail
    cfg = _write_cfg(tmp_path, f"""
experiment = {experiment}
dimension = 3
k = 1.0
epsilon = 0.1
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
incident.kind = mode
incident.mode = {mode}
grid.points = 11
""")
    out = str(tmp_path / "out")
    assert cli.main([experiment, "--config", cfg, "--out", out]) == 0
    if experiment == "modes":
        rows = open(os.path.join(out, "modes.csv")).read().splitlines()[1:]
        assert len(rows) == mode + 1
        assert [row.split(",")[1] for row in rows] == ["0"] * mode + ["1"]


def test_parse_errors():
    with pytest.raises(Exception):
        parse_config_text("novalue\n")
    with pytest.raises(Exception):
        parse_config_text("a = 1\na = 2\n")
    kv = parse_config_text("# comment\n a = 1 # trailing\n\n b.c = 2, 3\n")
    assert kv == {"a": "1", "b.c": "2, 3"}


# -- golden files --------------------------------------------------------------

GOLDEN_RUNS = [
    ("sweep3d", "sweep", ("results.csv", "summary.json")),
    ("instability2d", "instability", ("results.csv", "summary.json")),
    ("blowup3d", "blowup", ("results.csv", "summary.json")),
    ("resonances2d", "resonances", ("summary.json",)),
    ("scank2d", "scan-k", ("summary.json",)),
    ("field2d", "field", ("field.csv", "summary.json")),
    ("modes3d", "modes", ("modes.csv", "summary.json")),
    ("sweep3d_resonant", "sweep", ("results.csv", "summary.json")),
    ("blowup2d", "blowup", ("results.csv", "summary.json")),
    ("field2d_eigenmode", "field", ("field.csv", "summary.json")),
    ("field3d", "field", ("field.csv", "summary.json")),
    ("instability3d_paper", "instability", ("results.csv", "summary.json")),
    ("instability3d_deep", "instability", ("results.csv", "summary.json")),
]


def test_every_golden_config_is_reproduced():
    # CI runs every config to exit 0; only a GOLDEN_RUNS entry compares its
    # outputs with the committed ones
    cfg_dir = os.path.join(GOLDEN, "configs")
    configs = {
        name[: -len(".cfg")]: parse_config_text(open(os.path.join(cfg_dir, name)).read())["experiment"]
        for name in os.listdir(cfg_dir)
        if name.endswith(".cfg")
    }
    assert configs == {name: experiment for name, experiment, _ in GOLDEN_RUNS}


def _compare_numeric_text(got: str, want: str, rel: float) -> None:
    glines = got.splitlines()
    wlines = want.splitlines()
    assert len(glines) == len(wlines)
    for gl, wl in zip(glines, wlines):
        if gl == wl:
            continue
        gtok = gl.replace(",", " ").replace(":", " ").split()
        wtok = wl.replace(",", " ").replace(":", " ").split()
        assert len(gtok) == len(wtok), (gl, wl)
        for gt, wt in zip(gtok, wtok):
            if gt == wt:
                continue
            gv, wv = float(gt), float(wt)
            assert math.isclose(gv, wv, rel_tol=rel, abs_tol=1e-300), (gl, wl)


@pytest.mark.parametrize("name,experiment,files", GOLDEN_RUNS)
def test_golden_reproduction(name, experiment, files, tmp_path):
    cfg = os.path.join(GOLDEN, "configs", f"{name}.cfg")
    out = str(tmp_path / name)
    assert cli.main([experiment, "--config", cfg, "--out", out]) == 0
    for fname in files:
        got = open(os.path.join(out, fname)).read()
        want_path = os.path.join(GOLDEN, name, fname)
        if os.environ.get("CLOAKWAVE_REGEN"):
            with open(want_path, "w", newline="\n") as fh:
                fh.write(got)
            continue
        want = open(want_path).read()
        if got == want:
            continue
        _compare_numeric_text(got, want, 1e-9)


@pytest.mark.parametrize("name", ["instability2d", "instability3d_paper", "instability3d_deep"])
def test_instability_golden_matches_80_digit_reference(name, tmp_path):
    # every numeric cell of the committed rows, and the detuning products
    # and resonant densities of the summary the program writes for the
    # config, against mpmath at 80 digits (oracles.instability_row_mp,
    # oracles.detuning_products_mp); the tuned root (hi, lo) and kappa* are
    # the program's, and cells are read as the doubles the run used.  The
    # committed instability2d and instability3d_paper summaries hold the
    # products of rounded densities, up to 8.4e-11 off, within the golden
    # tolerance
    cfg = os.path.join(GOLDEN, "configs", f"{name}.cfg")
    kv = parse_config_text(open(cfg).read())
    d, k, variant = int(kv["dimension"]), float(kv["k"]), kv["tuning"]
    with open(os.path.join(GOLDEN, name, "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert cli.main(["instability", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    out_l2, out_h1 = outgoing_norm_mp(d, k)
    assert math.isclose(summary["reference_norm"], out_l2, rel_tol=1e-13)
    kap = first_resonance(d, k).kappa_star
    products = []
    for row in rows:
        eps = float(row["epsilon"])
        tuned = tune_sigma(d, k, eps, kap, variant)
        assert tuned.k_eps / k == float(row["sigma_eps"])
        alpha0, c, int_l2, int_h1 = instability_row_mp(d, k, eps, tuned.k_eps, tuned.k_eps_lo)
        assert abs(tuned.interior - c) <= 1e-13 * abs(c), (eps, tuned.interior, c)
        got = complex(float(row["alpha0_re"]), float(row["alpha0_im"]))
        assert abs(got - alpha0) <= 1e-13 * abs(alpha0), (eps, got, alpha0)
        want = {
            "visibility_l2": abs(alpha0) * out_l2,
            "visibility_h1": abs(alpha0) * out_h1,
            "interior_l2": int_l2,
            "interior_h1": int_h1,
        }
        for col, value in want.items():
            assert math.isclose(float(row[col]), value, rel_tol=1e-13), (eps, col, row[col], value)
        products.append(detuning_products_mp(d, k, eps, tuned.k_eps, tuned.k_eps_lo, kap))
    for convention, want in zip(("paper", "eq"), zip(*products)):
        got = summary[f"detuning_products_{convention}"]
        assert len(got) == len(want), convention
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-13), (convention, g, w)
    with mp.workdps(80):
        sigma0 = mp.mpf(kap) / mp.mpf(k)
        assert math.isclose(summary["sigma0_paper"], float(sigma0), rel_tol=1e-13)
        assert math.isclose(summary["sigma0_eq"], float(sigma0 ** 2), rel_tol=1e-13)


_ENVELOPE_CONFIGS = {
    # no tuned root within the bracket around kappa*: 3d paper past the
    # pi/2 pole of its leading-order balance (k eps = 2), and below it
    "paper3d_k10": ("instability", "dimension = 3\nk = 10\neps_list = 0.2, 0.1, 0.05\ntuning = paper",
                    "kappa* = 4.493409 at k eps = 2"),
    "paper3d_k2": ("instability", "dimension = 3\nk = 2\neps_list = 0.3, 0.2, 0.1\ntuning = paper",
                   "kappa* = 4.493409 at k eps = 0.6"),
    "exact2d_k2": ("instability", "dimension = 2\nk = 2\neps_list = 0.3, 0.2, 0.1\ntuning = exact",
                   "kappa* = 3.831706 at k eps = 0.6"),
    # no resonance of the mode below kappa = 12
    "blowup2d_mode9": ("blowup", "dimension = 2\nk = 1\neps_list = 1e-2, 1e-3, 1e-4\nblowup.mode = 9",
                       "mode-9"),
    "blowup3d_mode10": ("blowup", "dimension = 3\nk = 1\neps_list = 1e-2, 1e-3, 1e-4\nblowup.mode = 10",
                        "mode-10"),
    "eigenmode2d_mode9": ("field", "dimension = 2\nk = 1\nepsilon = 1e-2\nfield.kind = eigenmode\n"
                          "blowup.mode = 9\ngrid.points = 5", "mode-9"),
    "eigenmode3d_mode10": ("field", "dimension = 3\nk = 1\nepsilon = 1e-2\nfield.kind = eigenmode\n"
                           "blowup.mode = 10\ngrid.points = 5", "mode-10"),
    # the unit outgoing mode's norm over the probe overflows
    "instability3d_k1e-150": ("instability", "dimension = 3\nk = 1e-150\neps_list = 1e-2, 1e-3, 1e-4",
                              "k = 1e-150"),
    "blowup3d_k1e-150": ("blowup", "dimension = 3\nk = 1e-150\neps_list = 1e-2, 1e-3, 1e-4", "k = 1e-150"),
    "blowup3d_mode1_k1e-100": ("blowup", "dimension = 3\nk = 1e-100\neps_list = 1e-2, 1e-3, 1e-4\n"
                               "blowup.mode = 1", "k = 1e-100"),
    "blowup3d_mode1_k1e-80": ("blowup", "dimension = 3\nk = 1e-80\neps_list = 1e-2, 1e-3, 1e-4\n"
                              "blowup.mode = 1", "k = 1e-80"),
    "blowup2d_mode3_k1e-60": ("blowup", "dimension = 2\nk = 1e-60\neps_list = 1e-2, 1e-3, 1e-4\n"
                              "blowup.mode = 3", "k = 1e-60"),
    "blowup2d_mode3_k1e-80": ("blowup", "dimension = 2\nk = 1e-80\neps_list = 1e-2, 1e-3, 1e-4\n"
                              "blowup.mode = 3", "k = 1e-80"),
}


@pytest.mark.parametrize("case", sorted(_ENVELOPE_CONFIGS))
def test_envelope_config_exits_2_without_files(tmp_path, capsys, case):
    experiment, body, needle = _ENVELOPE_CONFIGS[case]
    cfg = _write_cfg(tmp_path, f"experiment = {experiment}\n{body}\n")
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or not os.listdir(out)
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err, err


@pytest.mark.parametrize("experiment", ["instability", "blowup"])
def test_resonant_run_at_k_1e_120_runs(tmp_path, experiment):
    # the unit outgoing monopole's norm is still representable here
    cfg = _write_cfg(tmp_path, f"experiment = {experiment}\ndimension = 3\nk = 1e-120\n"
                               "eps_list = 1e-2, 1e-3, 1e-4\n")
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["results.csv", "summary.json"]


def test_field_eigenmode_blowup_cross_check(tmp_path):
    cfg_text = """
experiment = field
dimension = 3
k = 1.0
epsilon = 1e-2
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
field.kind = eigenmode
blowup.mode = 0
grid.extent = 3.0
grid.points = 25
"""
    cfg = _write_cfg(tmp_path, cfg_text)
    out = str(tmp_path / "out")
    assert cli.main(["field", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "field.csv")).read().splitlines()[1:]
    inner_max = outer_max = 0.0
    outer_radii = []
    for row in rows:
        vals = row.split(",")
        r = math.hypot(float(vals[0]), float(vals[1]), float(vals[2]))
        amp = float(vals[-1])
        if r < 1.0:
            inner_max = max(inner_max, amp)
        elif r > 2.0:
            outer_max = max(outer_max, amp)
            outer_radii.append(r)
    assert inner_max > 3.0 * outer_max
    # cross-check the dump against the matching sweep row: convert the
    # recorded L2 norms to peak amplitudes with the known radial profiles
    # (interior ~ j0(kappa* r) peaking at the center, exterior ~ |h0(k r)|)
    from cloakwave.experiments import blowup_sweep
    from cloakwave.fields import eigenfunction_normalization
    from cloakwave.mie import first_resonance

    rec = blowup_sweep(3, 1.0, (1e-1, 3e-2, 1e-2))[-1]
    spec = first_resonance(3, 1.0)
    inner_peak = rec.interior_l2 * eigenfunction_normalization(spec)
    h0_peak = max(abs((math.sin(r) - 1j * math.cos(r)) / r) for r in outer_radii)
    from cloakwave.fields import outgoing_mode_norm

    outer_peak = rec.visibility_l2 * h0_peak / outgoing_mode_norm(3, 1.0, 0, 2.0, 4.0)[0]
    assert inner_max == pytest.approx(inner_peak, rel=0.1)
    assert outer_max == pytest.approx(outer_peak, rel=0.1)


def test_instability_paper_variant_recorded_faithfully(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        """
experiment = instability
dimension = 2
k = 1.0
eps_list = 1e-2, 1e-3, 1e-4
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
tuning = paper
""",
    )
    out = str(tmp_path / "out")
    assert cli.main(["instability", "--config", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["tuning_variant"] == "paper"
    # leading-order tuning detunes at the right rate but misses alpha0 = -1
    for re_, im_ in zip(summary["alpha0_re"], summary["alpha0_im"]):
        assert abs(complex(re_, im_) + 1.0) > 1e-3
    for p in summary["detuning_products_paper"]:
        assert 0.1 < p < 0.5


def test_instability_singular_alpha0_exits_3(tmp_path, monkeypatch):
    from cloakwave import mie

    real = mie._mp_exterior

    def vanishing(d, k, eps):
        # singular column i times the regular one: the outgoing H = J + iY is 0
        ke, flux, reg, _ = real(d, k, eps)
        return ke, flux, reg, tuple(1j * f for f in reg)

    monkeypatch.setattr(mie, "_mp_exterior", vanishing)
    cfg = _write_cfg(
        tmp_path,
        """
experiment = instability
dimension = 3
k = 1.0
eps_list = 1e-2, 1e-3, 1e-4
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
tuning = paper
""",
    )
    out = str(tmp_path / "out")
    assert cli.main(["instability", "--config", cfg, "--out", out]) == 3
    rows = open(os.path.join(out, "results.csv")).read().splitlines()[1:]
    assert len(rows) == 3
    assert all("singular: alpha0 denominator vanished" in row for row in rows)


@pytest.mark.parametrize(
    "d, modes, k_stall, kappa_ref",
    [
        # 2d monopole: J0'(kappa) = -J1(kappa) = 0 at the third zero of J1
        (2, 6, 8.306601948455882, lambda: ss.jn_zeros(1, 3)[2]),
        # 3d mode 8: j8'(kappa) = 0
        (3, 8, 11.962705989271562, lambda: brentq(
            lambda x: ss.spherical_jn(8, x, derivative=True), 14.5, 14.8, xtol=1e-15)),
    ],
)
def test_resonances_past_one_ulp_root_bracket(tmp_path, d, modes, k_stall, kappa_ref):
    # these catalogues reach a root whose bracket shrinks to one ulp while
    # |f| stays above the finder's tolerance
    cfg = _write_cfg(
        tmp_path,
        f"""
experiment = resonances
dimension = {d}
k = 1.0
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.5
resonances.k_min = 0.5
resonances.k_max = 12.0
resonances.modes = {modes}
""",
    )
    out = str(tmp_path / "out")
    assert cli.main(["resonances", "--config", cfg, "--out", out]) == 0
    found = json.load(open(os.path.join(out, "summary.json")))["resonances"]
    hit = [r for r in found if abs(r["k"] - k_stall) < 1e-12 and r["mode"] == (0 if d == 2 else 8)]
    assert len(hit) == 1
    assert hit[0]["kappa_star"] == pytest.approx(kappa_ref(), rel=1e-13)


def test_field_dump_memory_flat_in_grid_size(tmp_path):
    # the dump evaluates and writes a fixed block of points at a time, so
    # its peak allocation must not grow with the grid (16x more points here).
    # Every point lies in the cloaked ball (corner radius 0.99), so every
    # block takes the full series, the costlier path: an (N + 1) x block
    # array per order chain, where exterior points need only the few
    # outgoing orders.  On a grid that also reaches r > 1, how many points of
    # the fullest block lie inside r = 1 grows with the grid, and the ratio
    # would measure that instead.
    import tracemalloc

    def peak(points):
        cfg = _write_cfg(
            tmp_path,
            f"""
experiment = field
dimension = 2
k = 2.0
epsilon = 0.01
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 2.0
grid.extent = 0.7
grid.points = {points}
""",
            name=f"grid{points}.cfg",
        )
        tracemalloc.reset_peak()
        assert cli.main(["field", "--config", cfg, "--out", str(tmp_path / f"o{points}")]) == 0
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        peak(41)
        small = peak(41)
        large = peak(161)
    finally:
        tracemalloc.stop()
    assert large <= 1.2 * small
    # and bounded per block: a few complex arrays of (N + 2) x FIELD_BLOCK
    # (about 3.5 of them measured), not the grid
    n_max = json.load(open(tmp_path / "o41" / "summary.json"))["truncation"]
    assert small <= 5 * cli.FIELD_BLOCK * (n_max + 2) * 16


@pytest.mark.parametrize("d", [2, 3])
def test_field_dump_at_tiny_epsilon_matches_point_by_point(tmp_path, d):
    # the virtual inclusion has radius 1e-13: the points inside r = 1 map
    # inside it and evaluate on the blown-up interior
    text = f"""
experiment = field
dimension = {d}
k = 2.0
epsilon = 1e-13
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 2.0
incident.kind = plane_wave
incident.direction = {"1, 0" if d == 2 else "0, 0, 1"}
grid.extent = 1.5
grid.points = 24
"""
    cfg = _write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli.main(["field", "--config", cfg, "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "field.csv"), delimiter=",", skiprows=1)
    assert np.sum(np.linalg.norm(rows[:, :d], axis=1) < 1.0) >= 100
    series = cli._field_evaluator(build_run_config(parse_config_text(text)))[0].__self__
    want = series_values(series, rows[:, :d])
    got = rows[:, d] + 1j * rows[:, d + 1]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3])
def test_field_block_hitting_branch_radii_matches_point_by_point(tmp_path, monkeypatch, d):
    # step 0.25 puts grid points on the map's branch radii 1 and 2; the dump
    # gives every point the series' value there, in one eval_many call per
    # block, and that is the value just inside the branch radius.  Near r = 1
    # the shell maps a physical distance h to about 2h in the virtual domain,
    # many inclusion radii once eps is small, so only the point itself will do
    calls = []
    eval_many = FieldSeries.eval_many
    monkeypatch.setattr(FieldSeries, "eval_many", lambda s, x: calls.append(len(x)) or eval_many(s, x))
    for eps in (0.05, 1e-6, 1e-9):
        text = f"""
experiment = field
dimension = {d}
k = 2.0
epsilon = {eps}
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 2.0
incident.kind = plane_wave
incident.direction = {"1, 0" if d == 2 else "0, 0, 1"}
grid.extent = 3.0
grid.points = 25
"""
        cfg = _write_cfg(tmp_path, text)
        out = str(tmp_path / f"out{eps}")
        calls.clear()
        assert cli.main(["field", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(os.path.join(out, "field.csv"), delimiter=",", skiprows=1)
        assert len(calls) == math.ceil(len(rows) / cli.FIELD_BLOCK)
        pts, got = rows[:, :d], rows[:, d] + 1j * rows[:, d + 1]
        series = cli._field_evaluator(build_run_config(parse_config_text(text)))[0].__self__
        want = series_values(series, pts)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        r = np.linalg.norm(pts, axis=1)
        for branch in (1.0, 2.0):
            on = np.abs(r - branch) <= 1e-12 * branch
            assert np.sum(on) >= 4
            inner = series.eval_many((1.0 - 1e-13) * pts[on])
            assert np.all(np.abs(got[on] - inner) <= 1e-11 * np.abs(inner))


def test_failed_field_dump_leaves_no_file(tmp_path, monkeypatch):
    # a numeric failure in the second of two blocks exits 3, after one
    # attempt per block, and removes the partial dump
    calls = []
    eval_many = FieldSeries.eval_many

    def failing(series, x):
        calls.append(len(x))
        if len(calls) == 2:
            raise BesselOverflowError("injected failure")
        return eval_many(series, x)

    monkeypatch.setattr(FieldSeries, "eval_many", failing)
    cfg = _write_cfg(tmp_path, """
experiment = field
dimension = 2
k = 2.0
epsilon = 0.05
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 2.0
incident.kind = plane_wave
incident.direction = 1, 0
grid.extent = 3.0
grid.points = 40
""")
    out = tmp_path / "out"
    assert cli.main(["field", "--config", cfg, "--out", str(out)]) == 3
    assert len(calls) == 2
    assert os.listdir(out) == []


@pytest.mark.parametrize("d", [2, 3])
def test_field_dump_just_outside_the_cloak_at_high_order(tmp_path, d):
    # the grid point (1.0005, 0, ...) maps to virtual radius 0.0635, where
    # Y_154 (y_153) of the truncation N = 155 overflows, although alpha_n is
    # zero from order 11 (10) on; the dump's exterior runs only the outgoing
    # orders, the scipy oracle takes singular terms only where alpha_n != 0,
    # and both give every point
    text = f"""
experiment = field
dimension = {d}
k = 26.0
epsilon = 0.0625
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 1.0
incident.kind = plane_wave
incident.direction = {"1, 0" if d == 2 else "0, 0, 1"}
grid.extent = 2.8014
grid.points = 29
"""
    cfg = _write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli.main(["field", "--config", cfg, "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "field.csv"), delimiter=",", skiprows=1)
    got = rows[:, d] + 1j * rows[:, d + 1]
    assert np.all(np.isfinite(got))
    series = cli._field_evaluator(build_run_config(parse_config_text(text)))[0].__self__
    r_v = series._to_virtual(np.array([[1.0005] + [0.0] * (d - 1)]))[1][0]
    with pytest.raises(BesselOverflowError):
        specfun.chain(d, series.truncation, series.k_exterior * r_v)
    want = series_values(series, rows[:, :d])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_sweep_probe_reaching_into_the_shell(tmp_path):
    # the pullback reference has kinks at the map's branch radii; a probe
    # annulus across radius 2 converges once its segments are cut there,
    # and measures the cloaked field, so the O(eps) rate holds
    text = SWEEP_CFG.replace("k = 1.0", "k = 10.0") + "probe.r_in = 1.5\nprobe.r_out = 3.0\n"
    cfg = _write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "results.csv")).read().splitlines()[1:]
    vis = [float(r.split(",")[1]) for r in rows]
    assert all(v2 < v1 for v1, v2 in zip(vis, vis[1:]))
    slope = json.load(open(os.path.join(out, "summary.json")))["rate_fit"]["slope"]
    assert 0.9 <= slope <= 1.1
    # inside the blown-up ball the free-field pullback has no preimage
    bad = _write_cfg(tmp_path, SWEEP_CFG + "probe.r_in = 0.5\n", name="bad.cfg")
    assert cli.main(["sweep", "--config", bad, "--out", str(tmp_path / "bad")]) == 2
    assert not os.path.exists(tmp_path / "bad" / "results.csv")


@pytest.mark.parametrize("d", [2, 3])
def test_sweep_probe_near_radius_one_at_high_order(tmp_path, d):
    # the shell segment maps down to virtual radii near eps, where the
    # exterior singular chain overflows from about order 157: it stops at
    # the last nonzero alpha_n instead of the truncation
    direction = "1, 0" if d == 2 else "1, 0, 0"
    text = (
        f"experiment = sweep\ndimension = {d}\nk = 26.0\neps_list = 0.0625, 0.03, 0.01\n"
        "interior.radii = 1.0\ninterior.a = 1.0\ninterior.sigma = 1.0\n"
        f"incident.kind = plane_wave\nincident.direction = {direction}\n"
        "probe.r_in = 1.001\nprobe.r_out = 2.5\n"
    )
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", _write_cfg(tmp_path, text), "--out", out]) == 0
    rows = open(os.path.join(out, "results.csv")).read().splitlines()[1:]
    vis = [float(r.split(",")[1]) for r in rows]
    assert len(vis) == 3 and vis[0] > vis[1] > vis[2] > 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_sweep_probe_just_above_radius_one(tmp_path, d):
    # near r = 1 the cloaked field varies on the virtual scale eps: the
    # shell is cut at the images of eps (1 + 2^j), and cuts twice as dense,
    # eps (1 + 2^(j/2)), change no visibility by more than 1e-10
    direction = "1, 0" if d == 2 else "1, 0, 0"
    text = (
        f"experiment = sweep\ndimension = {d}\nk = 1.0\neps_list = 1e-2, 1e-3, 1e-5\n"
        "interior.radii = 1.0\ninterior.a = 1.0\ninterior.sigma = 1.0\n"
        f"incident.kind = plane_wave\nincident.direction = {direction}\n"
        "probe.r_in = 1.0001\nprobe.r_out = 2.5\n"
    )
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", _write_cfg(tmp_path, text), "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "results.csv"), delimiter=",", skiprows=1, usecols=(0, 1, 2))
    cloak = build_run_config(parse_config_text(text)).cloak
    spec = cloak.incident
    b = incident_coefficients(spec, 1.0, auto_truncation(spec, 1.0, d), d)
    axis = spec.axis
    pullback = replace(free_series(d, 1.0, b, axis), epsilon=0.0)
    for eps, vis_l2, vis_h1 in rows:
        series = solve_series(virtual_medium(replace(cloak, epsilon=eps)), 1.0, b, axis=axis)
        cloaked = replace(series, epsilon=eps)
        m = BlowupMap(eps)
        dense = [radial_forward(m, eps * (1.0 + 2.0 ** (j / 2))) for j in range(40)]
        cuts = [1.0001] + [c for c in dense if 1.0001 < c < 2.0] + [2.0, 2.5]
        parts = [norm_annulus(cloaked, lo, hi, reference=pullback) for lo, hi in zip(cuts, cuts[1:])]
        want = np.sqrt(np.sum(np.square(parts), axis=0))
        assert (vis_l2, vis_h1) == pytest.approx(tuple(want), rel=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_field_row_template_writes_cells_as_fmt(d):
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -3.0, 0.1]
    want = ["nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1e+308", "-3", "0.10000000000000001"]
    assert [cli._fmt(v) for v in values] == want

    def line(x1, x2, *cells):   # the grid axis values' text, the middle cell, then the value cells
        return cli._fmt(x1) + cli.FIELD_MIDDLE[d] + cli._fmt(x2) + cli.FIELD_ROW % cells

    middle = [0.0] if d == 3 else []   # 3d: the plane y = 0
    # every value in every column, and rows mixing them
    for v in values:
        assert line(*[v] * 5) == ",".join(cli._fmt(c) for c in [v] + middle + [v] * 4) + "\n"
    for s in range(len(values)):
        row = [values[(s + i) % len(values)] for i in range(5)]
        assert line(*row) == ",".join(cli._fmt(c) for c in row[:1] + middle + row[1:]) + "\n"


@pytest.mark.parametrize("d", [2, 3])
def test_field_dump_bytes_equal_fmt_of_eval_many(tmp_path, d):
    # the whole dump, byte for byte, against a CSV built here from eval_many
    # values and _fmt cell by cell (first coordinate fastest; 3d: plane y = 0)
    text = f"""
experiment = field
dimension = {d}
k = 3.0
epsilon = 0.02
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 2.0
incident.kind = plane_wave
incident.direction = {"0.6, 0.8" if d == 2 else "0, 0.6, 0.8"}
grid.extent = 3.0
grid.points = 15
"""
    cfg = _write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli.main(["field", "--config", cfg, "--out", out]) == 0
    axis = np.linspace(-3.0, 3.0, 15)
    x1, x2 = np.tile(axis, 15), np.repeat(axis, 15)
    pts = np.column_stack((x1, x2) if d == 2 else (x1, np.zeros_like(x1), x2))
    series = cli._field_evaluator(build_run_config(parse_config_text(text)))[0].__self__
    vals = series.eval_many(pts)
    lines = ["x,y,re_u,im_u,abs_u" if d == 2 else "x,y,z,re_u,im_u,abs_u"]
    for p, u in zip(pts.tolist(), vals.tolist()):
        lines.append(",".join(cli._fmt(c) for c in [*p, u.real, u.imag, abs(u)]))
    with open(os.path.join(out, "field.csv"), "rb") as fh:
        assert fh.read() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("d", [2, 3])
def test_field_csv_bytes_equal_the_per_point_formatter(tmp_path, d):
    # the axis text formatted once and the per-row value cells write what
    # one "%.17g" template per point wrote, on grids with negative
    # coordinates, with (odd points) and without a zero on the axes
    per_point = ",".join(["%.17g"] * (d + 3)) + "\n"
    for extent, points in ((0.7, 81), (3.3, 16), (2.5, 5)):
        text = f"""
experiment = field
dimension = {d}
k = 10.0
epsilon = 0.01
interior.radii = 1.0
interior.a = 1.0
interior.sigma = 2.0
incident.kind = plane_wave
incident.direction = {"1, 0" if d == 2 else "0, 0, 1"}
grid.extent = {extent}
grid.points = {points}
"""
        cfg = _write_cfg(tmp_path, text)
        out = str(tmp_path / f"out{points}")
        assert cli.main(["field", "--config", cfg, "--out", out]) == 0
        axis = np.linspace(-extent, extent, points)
        assert (0.0 in axis) == (points % 2 == 1)
        x1, x2 = np.tile(axis, points), np.repeat(axis, points)
        pts = np.column_stack((x1, x2) if d == 2 else (x1, np.zeros_like(x1), x2))
        series = cli._field_evaluator(build_run_config(parse_config_text(text)))[0].__self__
        rows = "".join(
            per_point % (*p, u.real, u.imag, abs(u)) for p, u in zip(pts.tolist(), series.eval_many(pts).tolist())
        )
        with open(os.path.join(out, "field.csv"), "rb") as fh:
            assert fh.read() == (("x,y,re_u,im_u,abs_u\n" if d == 2 else "x,y,z,re_u,im_u,abs_u\n") + rows).encode()


_TINY = "interior.radii = 1.0\ninterior.a = 1.0\ninterior.sigma = 2.0\n"


@pytest.mark.parametrize(
    "experiment, text",
    [
        pytest.param("modes", "dimension = 3\nk = 1e-30\nepsilon = 0.1\n", id="modes-3d-k1e-30"),
        pytest.param("modes", "dimension = 2\nk = 1e-60\nepsilon = 0.1\n", id="modes-2d-k1e-60"),
        pytest.param("modes", "dimension = 3\nk = 1e-60\nepsilon = 0.1\n", id="modes-3d-k1e-60"),
        pytest.param(
            "sweep", "dimension = 3\nk = 1.0\neps_list = 1e-20, 1e-40, 1e-60\nincident.direction = 0, 0, 1\n",
            id="sweep-3d-eps1e-40",
        ),
        pytest.param(
            "field", "dimension = 2\nk = 10.0\nepsilon = 0.01\ngrid.extent = 1e-60\ngrid.points = 3\n",
            id="field-2d-extent1e-60",
        ),
        pytest.param(
            "field", "dimension = 3\nk = 10.0\nepsilon = 0.01\ngrid.extent = 1e-60\ngrid.points = 3\n",
            id="field-3d-extent1e-60",
        ),
        pytest.param(
            "field", "dimension = 3\nk = 1.0\nepsilon = 0.1\ngrid.extent = 1e-300\ngrid.points = 3\n",
            id="field-3d-extent1e-300",
        ),
    ],
)
def test_tiny_bessel_arguments_run_or_fail_cleanly(tmp_path, capsys, experiment, text):
    # Bessel arguments far below 1e-16 take the leading terms of the regular
    # family: no NaN, no traceback
    cfg = _write_cfg(tmp_path, f"experiment = {experiment}\n" + text + _TINY)
    out = tmp_path / "out"
    code = cli.main([experiment, "--config", cfg, "--out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    assert code in (0, 3)
    if code:
        return
    for name in os.listdir(out):
        assert "nan" not in (out / name).read_text()
    if experiment == "modes":
        # the inner coefficient of the incident monopole stays of order one
        c0 = (out / "modes.csv").read_text().splitlines()[1].split(",")[5]
        assert 0.5 < abs(float(c0)) < 2.0
    if experiment == "sweep":
        # no visibility, and an interior deviation of about 3.1 eps, at every eps
        for row in (out / "results.csv").read_text().splitlines()[1:]:
            eps, vis, _, int_l2 = (float(v) for v in row.split(",")[:4])
            assert vis == 0.0 and 3.0 < int_l2 / eps < 3.2


def test_cli_import_loads_only_numpy_and_mpmath():
    # what importing the program adds to a fresh interpreter, beyond the
    # standard library: the tests import scipy for their oracles, so only a
    # new process shows this (it bounds the start-up cost of every run)
    code = (
        "import sys; before = set(sys.modules); import cloakwave.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert {"cloakwave", "numpy", "mpmath"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"cloakwave", "numpy", "mpmath"} == set()
