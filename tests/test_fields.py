"""Incident expansions, field evaluation, Parseval norms, interior limits."""

import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as ss
from hypothesis import given, settings, strategies as st

from cloakwave import fields, mie
from cloakwave.errors import ResonantConfigError, SingularSystemError, TruncationError, ValidationError
from cloakwave.experiments import blowup_sweep, eigenmode_series, instability_sweep
from cloakwave.fields import (
    CANCELLATION_CAP,
    FieldSeries,
    IncidentSpec,
    auto_truncation,
    blown_up_interior_series,
    default_truncation,
    eigenfunction_normalization,
    free_series,
    incident_coefficients,
    interior_limit,
    mode_series,
    mode_weight,
    norm_annulus,
    outgoing_mode_norm,
    solve_series,
)
from cloakwave.mie import (
    CloakConfig,
    Layer,
    LayeredMedium,
    ModeSolution,
    angular_eigenvalue,
    first_resonance,
    virtual_medium,
)
from cloakwave.transform import BlowupMap, radial_forward

from oracles import (
    collocation_monopole_limit,
    detuned_source_monopole,
    fd_interior_source_solve,
    neumann_monopole_limit,
    scattered,
)

KAPPA3 = 4.493409457909064


def test_plane_wave_monopole_coefficient_is_one():
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0))
    b = incident_coefficients(spec, 2.0, auto_truncation(spec, 2.0, 2), 2)
    assert b[0] == 1.0 + 0.0j


@pytest.mark.parametrize("d", [2, 3])
def test_plane_wave_reconstruction(d):
    k = 2.0
    axis = (0.0,) * (d - 1) + (1.0,)
    spec = IncidentSpec("plane_wave", direction=axis)
    n = auto_truncation(spec, k, d)
    b = incident_coefficients(spec, k, n, d)
    ser = free_series(d, k, b, axis=axis)
    xs = np.random.default_rng(12).uniform(-2.2, 2.2, (50, d))
    for x, got in zip(xs, ser.eval_many(xs)):
        exact = cmath.exp(1j * k * x[-1])
        assert abs(got - exact) < 1e-10


def test_point_source_reconstruction_3d():
    loc = (0.0, 0.0, 3.5)
    spec = IncidentSpec("point_source", location=loc)
    b = incident_coefficients(spec, 1.0, 60, 3)
    ser = free_series(3, 1.0, b, axis=(0.0, 0.0, 1.0))
    xs = np.random.default_rng(4).uniform(-1.1, 1.1, (30, 3))
    for x, got in zip(xs, ser.eval_many(xs)):
        dist = np.linalg.norm(x - np.asarray(loc))
        exact = cmath.exp(1j * dist) / (4.0 * math.pi * dist)
        assert abs(got - exact) <= 1e-8 * abs(exact)


def test_point_source_reconstruction_2d():
    loc = (3.0, 0.0)
    k = 1.5
    spec = IncidentSpec("point_source", location=loc)
    b = incident_coefficients(spec, k, 95, 2)
    ser = free_series(2, k, b, axis=(1.0, 0.0))
    xs = np.random.default_rng(4).uniform(-1.4, 1.4, (30, 2))
    for x, got in zip(xs, ser.eval_many(xs)):
        dist = np.linalg.norm(x - np.asarray(loc))
        exact = 0.25j * (ss.j0(k * dist) + 1j * ss.y0(k * dist))
        assert abs(got - exact) <= 1e-8 * abs(exact)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["plane_wave", "point_source"])
def test_exterior_closed_form_matches_scipy(d, kind):
    # a layer of the exterior's own material scatters nothing, so eval_many
    # beyond it is the closed-form incident field alone, out to 0.9 of the
    # source radius (the dump's limit), where the series' tail converges slowly
    k, amp = 12.0, 0.7 - 0.4j
    unit = np.array([0.6, 0.0, 0.8][:d] if d == 3 else [0.6, 0.8])
    if kind == "plane_wave":
        spec = IncidentSpec(kind, amp, direction=tuple(unit))
    else:
        spec = IncidentSpec(kind, amp, location=tuple(3.2 * unit))
    n = auto_truncation(spec, k, d, r_eval=2.0)
    med = LayeredMedium(d, (Layer(0.2, 1.0, 1.0),))
    ser = solve_series(med, k, incident_coefficients(spec, k, n, d, r_eval=2.0),
                       axis=tuple(unit), incident=spec)
    assert not any(m.alpha_n for m in ser.modes)
    rng = np.random.default_rng(d)
    x = rng.normal(size=(200, d))
    x *= (rng.uniform(0.25, 0.9 * 3.2, 200) / np.linalg.norm(x, axis=1))[:, None]
    if kind == "plane_wave":
        exact = amp * np.exp(1j * k * (x @ unit))
    else:
        dist = np.linalg.norm(x - 3.2 * unit, axis=1)
        exact = amp * (np.exp(1j * k * dist) / (4.0 * math.pi * dist) if d == 3
                       else 0.25j * ss.hankel1(0, k * dist))
    got = ser.eval_many(x)
    assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-14
    # the scattered part drops the spec with the b_n
    assert not np.any(scattered(ser).eval_many(x))


def test_incident_axis_is_a_tuple_of_floats():
    assert IncidentSpec("plane_wave", direction=(3.0, 4.0)).axis == (0.6, 0.8)
    axis = IncidentSpec("point_source", location=(0.0, 0.0, 3.5)).axis
    assert axis == (0.0, 0.0, 1.0) and all(type(c) is float for c in axis)
    assert IncidentSpec("mode", mode=2).axis is None


def test_point_source_radius_validation():
    with pytest.raises(ValidationError):
        IncidentSpec("point_source", location=(0.0, 2.0))
    with pytest.raises(ValidationError):
        IncidentSpec("point_source", location=(5.0, 0.0))


def test_truncation_tail_error():
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0))
    with pytest.raises(TruncationError):
        incident_coefficients(spec, 2.0, 6, 2)


def test_auto_truncation_meets_tail():
    spec = IncidentSpec("plane_wave", direction=(0.0, 0.0, 1.0))
    n = auto_truncation(spec, 1.0, 3)
    assert n >= default_truncation(1.0, 4.0)
    incident_coefficients(spec, 1.0, n, 3)  # does not raise


def test_homogeneous_total_field_is_incident():
    k = 1.7
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0))
    b = incident_coefficients(spec, k, auto_truncation(spec, k, 2), 2)
    med = LayeredMedium(2, (Layer(1.0, 1.0, 1.0),))
    ser = solve_series(med, k, b, axis=(1.0, 0.0))
    xs = np.random.default_rng(8).uniform(-3.0, 3.0, (20, 2))
    xs = xs[np.abs(np.linalg.norm(xs, axis=1) - 1.0) >= 1e-6]
    for x, got in zip(xs, ser.eval_many(xs)):
        assert abs(got - cmath.exp(1j * k * x[0])) < 1e-10


def test_physical_equals_virtual_on_identity_branch():
    cfg = CloakConfig(3, 1.0, 0.2, (Layer(1.0, 1.0, 1.0),))
    spec = IncidentSpec("plane_wave", direction=(0.0, 0.0, 1.0))
    b = incident_coefficients(spec, 1.0, auto_truncation(spec, 1.0, 3), 3)
    vm = virtual_medium(cfg)
    sv = solve_series(vm, 1.0, b, axis=(0, 0, 1.0))
    sp = solve_series(vm, 1.0, b, epsilon=0.2, axis=(0, 0, 1.0))
    rng = np.random.default_rng(15)
    xs = []
    for _ in range(1000):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        xs.append(u * rng.uniform(2.01, 4.0))
    assert np.array_equal(sp.eval_many(xs), sv.eval_many(xs))


def test_physical_composes_with_inverse_map():
    from cloakwave.transform import BlowupMap, map_inverse

    cfg = CloakConfig(2, 1.0, 0.3, (Layer(1.0, 2.0, 1.5),))
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0))
    b = incident_coefficients(spec, 1.0, auto_truncation(spec, 1.0, 2), 2)
    vm = virtual_medium(cfg)
    sv = solve_series(vm, 1.0, b, axis=(1.0, 0.0))
    sp = solve_series(vm, 1.0, b, epsilon=0.3, axis=(1.0, 0.0))
    m = BlowupMap(0.3)
    rng = np.random.default_rng(2)
    ys = []
    for _ in range(50):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        y = u * rng.uniform(0.05, 3.5)
        if min(abs(np.linalg.norm(y) - b_) for b_ in (1.0, 2.0)) < 1e-6:
            continue
        ys.append(y)
    assert np.array_equal(sp.eval_many(ys), sv.eval_many(map_inverse(m, np.array(ys))))


def test_scaled_monopole_field_shape():
    # outside a unit inclusion with tiny exterior wavenumber the monopole is
    # proportional to e^(i k_ext r) / r
    from cloakwave.mie import blown_up_medium

    cfg = CloakConfig(3, 1.0, 0.05, (Layer(1.0, 1.0, 2.0),))
    med = blown_up_medium(cfg)
    b = np.array([1.0 + 0.0j])
    ser = solve_series(med, 1.0, b)
    alpha = ser.modes[0].alpha_n
    k_ext = 1.0 * 0.05
    rs = (1.3, 2.0, 4.0)
    for r, total in zip(rs, ser.eval_many([[x, 0.0, 0.0] for x in rs])):
        incident = cmath.sin(k_ext * r) / (k_ext * r)
        outgoing = total - incident
        shape = cmath.exp(1j * k_ext * r) / (1j * k_ext * r)
        assert abs(outgoing - alpha * shape) <= 1e-12 * max(abs(outgoing), 1e-12)


def test_interface_evaluation_takes_the_inner_side():
    med = LayeredMedium(2, (Layer(1.0, 2.0, 1.0),))
    ser = solve_series(med, 1.0, np.array([1.0 + 0.0j]))
    at = np.array([1.0, 0.0])
    inner, outer = ser.eval_many([(1.0 - 1e-15) * at, (1.0 + 1e-15) * at])
    block = ser.eval_many([[0.3, 0.4], at, [1.5, 0.2]])[1]
    for got in (ser.eval_many([at])[0], block):
        assert abs(got - inner) <= 1e-12 * abs(inner)
    # the field is continuous there
    assert abs(outer - inner) <= 1e-12 * abs(inner)


# -- norms --------------------------------------------------------------------


def test_scattered_norm_homogeneous_is_zero():
    k = 2.0
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0))
    b = incident_coefficients(spec, k, auto_truncation(spec, k, 2), 2)
    med = LayeredMedium(2, (Layer(1.0, 1.0, 1.0),))
    ser = solve_series(med, k, b)
    assert norm_annulus(scattered(ser), 2.0, 4.0)[0] == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_parseval_matches_tensor_grid_quadrature(d):
    med = LayeredMedium(d, (Layer(1.0, 2.0, 1.5),))
    b = np.zeros(3, dtype=complex)
    b[0] = 0.7 + 0.2j
    b[2] = -0.3 + 1.1j
    ser = solve_series(med, 1.3, b)
    r_in, r_out = 1.5, 3.0
    mine = norm_annulus(ser, r_in, r_out)[0]
    # Gauss-Legendre tensor grid oracle
    xr, wr = np.polynomial.legendre.leggauss(220)
    rr = 0.5 * (r_out - r_in) * xr + 0.5 * (r_in + r_out)
    wr = 0.5 * (r_out - r_in) * wr
    if d == 2:
        nt = 512
        th = np.linspace(0.0, 2.0 * math.pi, nt, endpoint=False)
        ang = np.stack([np.cos(n * th) * (1.0 if n == 0 else 2.0) for n in range(3)])
        wt = 2.0 * math.pi / nt
        total = 0.0
        for r, w, vals in zip(rr, wr, ser.radial_many(rr, derivatives=False)[0].T):
            f = vals @ ang
            total += w * wt * float(np.sum(np.abs(f) ** 2)) * r
    else:
        xt, wt = np.polynomial.legendre.leggauss(220)
        th = 0.5 * math.pi * (xt + 1.0)
        wth = 0.5 * math.pi * wt
        pn = np.stack(
            [np.ones_like(th), np.cos(th), 0.5 * (3.0 * np.cos(th) ** 2 - 1.0)]
        )
        total = 0.0
        for r, w, vals in zip(rr, wr, ser.radial_many(rr, derivatives=False)[0].T):
            f = vals @ pn
            total += w * float(np.sum(wth * np.abs(f) ** 2 * np.sin(th))) * 2.0 * math.pi * r * r
    brute = math.sqrt(total)
    assert abs(mine - brute) <= 1e-7 * brute


def _pullback(d, k, b):
    """The free field of coefficients b pulled back through the limit map."""
    return replace(free_series(d, k, b), epsilon=0.0)


def test_truncation_robustness_of_norms():
    k = 1.0
    cfg = CloakConfig(3, k, 0.05, (Layer(1.0, 1.3, 0.7),))
    spec = IncidentSpec("plane_wave", direction=(0.0, 0.0, 1.0))
    n = auto_truncation(spec, k, 3)
    vals = []
    for nn in (n, 2 * n):
        b = incident_coefficients(spec, k, nn, 3)
        ser = solve_series(virtual_medium(cfg), k, b)
        vals.append(norm_annulus(ser, 2.0, 4.0, reference=_pullback(3, k, b))[0])
    assert abs(vals[0] - vals[1]) <= 1e-10 * vals[1]


def test_diff_vs_free_pullback_equals_scattered_outside():
    cfg = CloakConfig(2, 1.2, 0.1, (Layer(1.0, 0.8, 1.9),))
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0))
    b = incident_coefficients(spec, 1.2, auto_truncation(spec, 1.2, 2), 2)
    ser = solve_series(virtual_medium(cfg), 1.2, b)
    d1 = norm_annulus(scattered(ser), 2.0, 4.0)[0]
    d2 = norm_annulus(ser, 2.0, 4.0, reference=_pullback(2, 1.2, b))[0]
    assert abs(d1 - d2) <= 1e-12 * d1


def test_diff_vs_reference_series():
    med = LayeredMedium(2, (Layer(1.0, 1.5, 1.0),))
    b = np.array([1.0 + 0.0j, 0.5j])
    s1 = solve_series(med, 1.0, b)
    s2 = solve_series(med, 1.0, b)
    assert norm_annulus(s1, 1.5, 3.0, reference=s2) == (0.0, 0.0)


def test_diff_vs_shorter_reference_counts_extra_modes():
    # the reference has mode 0 only: modes 1 and 2 of the series count in full
    med = LayeredMedium(2, (Layer(1.0, 1.5, 1.0),))
    ser = solve_series(med, 1.0, np.array([1.0, 0.5j, 0.3]))
    short = solve_series(med, 1.0, np.array([0.5 + 0.0j]))
    padded = solve_series(med, 1.0, np.array([0.5 + 0.0j, 0.0, 0.0]))
    want = norm_annulus(ser, 1.5, 3.0, reference=padded)
    assert want[0] > 1.0
    assert norm_annulus(ser, 1.5, 3.0, reference=short) == pytest.approx(want, rel=1e-12)
    assert norm_annulus(short, 1.5, 3.0, reference=ser) == pytest.approx(want, rel=1e-12)


def test_h1_norm_exceeds_l2():
    med = LayeredMedium(3, (Layer(1.0, 1.5, 2.0),))
    b = np.array([1.0 + 0.0j, 2.0j, 0.3 + 0.0j])
    ser = solve_series(med, 1.0, b)
    l2, h1 = norm_annulus(ser, 1.2, 2.5)
    assert h1 > l2


def test_outgoing_mode_norm_against_quadrature():
    val = outgoing_mode_norm(3, 1.0, 0, 2.0, 4.0)[0]
    rr = np.linspace(2.0, 4.0, 200001)
    h0 = (np.sin(rr) - 1j * np.cos(rr)) / rr
    ref = math.sqrt(4.0 * math.pi * np.trapezoid(np.abs(h0) ** 2 * rr * rr, rr))
    assert abs(val - ref) <= 1e-8 * ref


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_norm_homogeneity_property(scale):
    med = LayeredMedium(2, (Layer(1.0, 1.5, 0.9),))
    b = np.array([1.0 + 0.0j, 0.0, 0.4 - 0.2j])
    base = norm_annulus(solve_series(med, 1.0, b), 1.4, 2.2)[0]
    scaled = norm_annulus(solve_series(med, 1.0, scale * b), 1.4, 2.2)[0]
    assert abs(scaled - scale * base) <= 1e-9 * max(scaled, 1e-12)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_eigenfunction_source_is_unit_as_a_series_mode(d, n):
    # L2(B1) of the normalized eigenfunction, evaluated as series mode n
    # (angular factor included), on a tensor grid independent of Parseval
    spec = first_resonance(d, 1.0, n)
    unit = ModeSolution(n=n, b_n=0j, alpha_n=0j,
                        layer_coeffs=((eigenfunction_normalization(spec) + 0j, 0j),))
    ser = mode_series(LayeredMedium(d, (Layer(1.0, 1.0, 1.0),)), spec.kappa_star, unit)
    xr, wr = np.polynomial.legendre.leggauss(120)
    rr, wr = 0.5 * (xr + 1.0), 0.5 * wr * (0.5 * (xr + 1.0)) ** (d - 1)
    if d == 2:
        th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        wt = np.full(th.size, 2.0 * math.pi / th.size)
    else:
        xt, wt = np.polynomial.legendre.leggauss(48)
        th = 0.5 * math.pi * (xt + 1.0)
        wt = 0.5 * math.pi * wt * 2.0 * math.pi * np.sin(th)   # about the axis (x)
    x, y = np.outer(rr, np.cos(th)).ravel(), np.outer(rr, np.sin(th)).ravel()
    pts = np.column_stack((x, y) if d == 2 else (x, y, np.zeros_like(x)))
    u = ser.eval_many(pts).reshape(rr.size, th.size)
    assert float(wr @ np.abs(u) ** 2 @ wt) == pytest.approx(1.0, rel=1e-10)


# -- closed-form norms ----------------------------------------------------------


def _quadrature_only(fn, *args, **kw):
    """fn with every norm segment integrated: the path without closed forms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_closed_segment", lambda *a: None)
        return fn(*args, **kw)


def _counting_integrate(monkeypatch):
    calls = []
    real = fields.integrate
    monkeypatch.setattr(fields, "integrate", lambda f, a, b: calls.append((a, b)) or real(f, a, b))
    return calls


@st.composite
def _norm_cases(draw):
    """A lossless layered cloak and one norm_annulus call on it.

    The kinds: the virtual series, its scattered part, the physical series
    on the blown-up ball, and the physical series against the free-field
    pullback outside radius 1.  Segments lie at the inclusion's scale
    (eps) or at unit scale, r_in = 0 included, lengths down to 1e-3 of it.
    """
    d = draw(st.sampled_from([2, 3]))
    k = draw(st.floats(0.1, 30.0))
    eps = 10.0 ** draw(st.floats(-3.0, -0.5))
    radii = sorted(draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]), max_size=2, unique=True)))
    layers = tuple(
        Layer(r, draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 3.0))) for r in radii + [1.0]
    )
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0, 0.0)[:d])
    cfg = CloakConfig(d, k, eps, layers, spec)
    b = incident_coefficients(spec, k, auto_truncation(spec, k, d), d)
    virt = solve_series(virtual_medium(cfg), k, b)
    kind = draw(st.sampled_from(["series", "scattered", "ball", "pullback"]))
    length = 10.0 ** draw(st.floats(-3.0, 0.0))
    reference = None
    if kind == "pullback":
        series = replace(virt, epsilon=eps)
        reference = replace(free_series(d, k, b), epsilon=0.0)
        r_in = draw(st.floats(1.05, 3.5))
    elif kind == "ball":
        series = replace(virt, epsilon=eps)
        r_in = draw(st.just(0.0) | st.floats(0.0, 0.9))
        length *= 1.0 - r_in
    elif draw(st.booleans()):   # at the inclusion's scale
        series = virt if kind == "series" else scattered(virt)
        r_in = eps * draw(st.just(0.0) | st.floats(0.0, 3.0))
        length *= 3.0 * eps
    else:
        # clear of the inclusion: a segment from near it to unit scale
        # defeats uniform panels (the outgoing part peaks at radius eps)
        series = virt if kind == "series" else scattered(virt)
        r_in = draw(st.floats(0.5, 3.0))
        length *= 3.0
    return series, r_in, r_in + length, reference


@settings(max_examples=40, deadline=None)
@given(case=_norm_cases())
def test_closed_form_norms_match_quadrature(case):
    series, r_in, r_out, reference = case
    want = _quadrature_only(norm_annulus, series, r_in, r_out, reference=reference)
    assert norm_annulus(series, r_in, r_out, reference=reference) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_only_segments_without_closed_form_integrate(d, monkeypatch):
    calls = _counting_integrate(monkeypatch)
    # scattered norm on the probe, interior deviation, reference norm
    instability_sweep(d, 1.0, (1e-1, 3e-2, 1e-2))
    assert calls == []
    # a lossy layer, and the physical shell segment of a probe across radius 2
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0, 0.0)[:d])
    cfg = CloakConfig(d, 2.0, 0.1, (Layer(0.5, 1.3, 2.0 + 0.3j), Layer(1.0, 0.8, 1.5)), spec)
    b = incident_coefficients(spec, 2.0, auto_truncation(spec, 2.0, d), d)
    virt = solve_series(virtual_medium(cfg), 2.0, b)
    norm_annulus(virt, 0.0, 1.0)
    norm_annulus(replace(virt, epsilon=0.1), 1.5, 3.0)
    # the shell is also cut at the image of the virtual radius eps (1 + 2^4)
    cut = radial_forward(BlowupMap(0.1), 0.1 * (1.0 + 2.0**4))
    assert calls == [(0.0, 0.05), (1.5, cut), (cut, 2.0)]


def _no_quadrature(monkeypatch):
    def fail(*args):
        raise AssertionError("a norm segment was integrated")

    monkeypatch.setattr(fields, "integrate", fail)


def _blowup_interior(d, k, mode, eps):
    """The blown-up interior under its eigenfunction source: u = c R_n(kap r) + q r R_n'(kap r)."""
    series = eigenmode_series(first_resonance(d, k, mode), k, eps)
    m = series.modes[mode]
    assert m.particular != 0.0 and m.layer_coeffs[0][1] == 0.0
    return series, m


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_kappa_derivative_closed_form_against_scipy_quad(d, mode, monkeypatch):
    # norm_annulus's closed form against scipy's quad of radial_many's
    # density, which holds the particular term; k jittered about 1
    k = 1.0 + np.random.default_rng(10 * d + mode).uniform(-0.05, 0.05)
    w, nu = mode_weight(d, mode), angular_eigenvalue(d, mode)
    _no_quadrature(monkeypatch)
    solved = 0
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        try:
            series, _ = _blowup_interior(d, k, mode, eps)
        except SingularSystemError:   # the interface system of 2d modes 2 and 3 at eps = 1e-6
            assert (d, eps) == (2, 1e-6) and mode >= 2
            continue
        solved += 1

        def density(r, gradient):
            vals, ders = series.radial_many(r)
            u, du = vals[mode, 0], ders[mode, 0]
            dens = abs(du) ** 2 + nu * abs(u / r) ** 2 if gradient else abs(u) ** 2
            return w * r ** (d - 1) * dens

        l2, grad = (si.quad(density, 0.0, 1.0, args=(g,), epsabs=0.0, epsrel=2e-14, limit=200)[0]
                    for g in (False, True))
        assert norm_annulus(series, 0.0, 1.0) == pytest.approx((math.sqrt(l2), math.sqrt(l2 + grad)), rel=1e-13)
    assert solved >= 4


@pytest.mark.parametrize("d, mode, eps", [(2, 1, 1e-3), (3, 0, 1e-4)])
def test_kappa_derivative_closed_form_against_mpmath(d, mode, eps):
    series, m = _blowup_interior(d, 1.0, mode, eps)
    w, nu = mode_weight(d, mode), angular_eigenvalue(d, mode)
    with mpmath.workdps(30):
        c, q, kap = (mpmath.mpmathify(v) for v in (m.layer_coeffs[0][0], m.particular,
                                                     series.medium.wavenumber(1.0, 0).real))

        def bessel(z):   # (R_n, R_n') at z
            if d == 2:
                return mpmath.besselj(mode, z), mpmath.besselj(mode, z, 1)
            s, j, dj = mpmath.sqrt(mpmath.pi / (2 * z)), mpmath.besselj(mode + 0.5, z), mpmath.besselj(mode + 0.5, z, 1)
            return s * j, s * (dj - j / (2 * z))

        def profile(r):   # (u, u') with R'' from Bessel's equation
            z = kap * r
            val, der = bessel(z)
            der2 = -(d - 1) / z * der - (1 - nu / z**2) * val
            return c * val + q * r * der, c * kap * der + q * (der + z * der2)

        def density(r, gradient):
            u, du = profile(r)
            return w * r ** (d - 1) * (abs(du) ** 2 + nu * abs(u / r) ** 2 if gradient else abs(u) ** 2)

        l2 = mpmath.quad(lambda r: density(r, False), [0, 1])
        h1 = l2 + mpmath.quad(lambda r: density(r, True), [0, 1])
        want = (float(mpmath.sqrt(l2)), float(mpmath.sqrt(h1)))
    assert norm_annulus(series, 0.0, 1.0) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("d, mode", [(2, 1), (3, 0), (3, 2)])
def test_kappa_derivative_closed_form_on_annuli_and_through_the_map(d, mode, monkeypatch):
    # a segment ending inside the ball, and the physical domain of an
    # epsilon, whose blown-up ball scales the particular term by the slope
    series, _ = _blowup_interior(d, 1.0, mode, 1e-3)
    cases = [(series, 0.3, 0.8), (replace(series, epsilon=0.5), 0.1, 0.4), (replace(series, epsilon=0.05), 0.0, 0.9)]
    want = [_quadrature_only(norm_annulus, *case) for case in cases]
    _no_quadrature(monkeypatch)
    for case, norms in zip(cases, want):
        assert norm_annulus(*case) == pytest.approx(norms, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_blowup_sweep_runs_without_quadrature(d, monkeypatch):
    eps = (1e-2, 1e-3, 1e-4)
    for mode in (0, 1):
        want = _quadrature_only(blowup_sweep, d, 1.0, eps, mode=mode)
        with monkeypatch.context() as mp:
            _no_quadrature(mp)
            got = blowup_sweep(d, 1.0, eps, mode=mode)
        for g, w in zip(got, want):
            assert g.flags == w.flags == ""
            assert (g.interior_l2, g.interior_h1) == pytest.approx((w.interior_l2, w.interior_h1), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_lossy_interior_integrates(d, monkeypatch):
    # no closed form yet: the lossy layer integrates its segment and keeps
    # the norms it had when the blown-up interior integrated too
    cfg = CloakConfig(d, 2.0, 0.1, (Layer(0.5, 1.3, 2.0 + 0.3j), Layer(1.0, 0.8, 1.5)))
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0, 0.0)[:d])
    b = incident_coefficients(spec, 2.0, auto_truncation(spec, 2.0, d), d)
    lossy = blown_up_interior_series(cfg, solve_series(virtual_medium(cfg), 2.0, b))
    want = {2: (1.8709540426852849, 4.267951194466848), 3: (0.19161453211593243, 0.48329413937117566)}[d]
    calls = _counting_integrate(monkeypatch)
    assert norm_annulus(lossy, 0.0, 1.0) == pytest.approx(want, rel=1e-12)
    assert calls == [(0.0, 0.5)]


@pytest.mark.parametrize("r_out, integrated", [(1.0095, True), (1.0105, False)])
def test_cancelling_segments_integrate(r_out, integrated, monkeypatch):
    # a slowly varying monopole (k = 1e-3): on [1, b] the L2 endpoint terms
    # r^2 / 2 |u|^2 exceed the value by (1 + b^2) / (b^2 - 1), 105.8 and 95.8
    assert CANCELLATION_CAP == 100.0
    ser = free_series(2, 1e-3, np.array([1.0 + 0.0j]))
    want = _quadrature_only(norm_annulus, ser, 1.0, r_out)
    calls = _counting_integrate(monkeypatch)
    assert norm_annulus(ser, 1.0, r_out) == pytest.approx(want, rel=1e-12)
    assert len(calls) == integrated


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_eigenfunction_normalization_against_mpmath(d, n):
    spec = first_resonance(d, 1.0, n)
    with mpmath.workdps(30):
        kap = mpmath.mpf(spec.kappa_star)
        if d == 2:
            prof = lambda r: mpmath.besselj(n, kap * r)   # noqa: E731
        else:
            prof = lambda r: mpmath.sqrt(mpmath.pi / (2 * kap * r)) * mpmath.besselj(n + 0.5, kap * r)  # noqa: E731
        l2 = mode_weight(d, n) * mpmath.quad(lambda r: prof(r) ** 2 * r ** (d - 1), [0, 1])
        want = float(1 / mpmath.sqrt(l2))
    assert eigenfunction_normalization(spec) == pytest.approx(want, rel=1e-13)


# -- interior limits -----------------------------------------------------------


@pytest.mark.parametrize(
    "interior",
    [(Layer(1.0, 1.0, 1.0 + 0.5j),), (Layer(0.5, 1.0, 3.0), Layer(1.0, 1.0, 1.0))],
    ids=["lossy", "layered"],
)
def test_interior_limit_needs_one_lossless_layer(interior):
    # only a single lossless layer is tested for resonance; others take the zero limit
    assert mie.homogeneous_layer(interior) is None
    assert interior_limit(CloakConfig(3, 1.0, 0.1, interior), np.ones(3)) is None
    # the one lossless layer comes back with a real density
    lay = mie.homogeneous_layer((Layer(1.0, 1.5, 2.0 + 0j),))
    assert lay == Layer(1.0, 1.5, 2.0) and type(lay.sigma) is float


def test_interior_limit_nonresonant_passive_is_zero():
    cfg = CloakConfig(3, 1.0, 0.1, (Layer(1.0, 1.0, 1.0),))
    assert interior_limit(cfg, np.ones(3)) is None
    cfg2 = CloakConfig(2, 1.0, 0.1, (Layer(1.0, 1.0, 1.0),))
    assert interior_limit(cfg2, np.ones(3)) is None


def test_interior_limit_resonant_monopole_closed_form():
    cfg = CloakConfig(3, 1.0, 0.1, (Layer(1.0, 1.0, KAPPA3**2),))
    lim = interior_limit(cfg, np.ones(3))
    assert lim.truncation == 0 and lim.medium == LayeredMedium(3, cfg.interior)
    j0_at = math.sin(KAPPA3) / KAPPA3
    v0 = lim.radial_many([0.0])[0][0, 0]
    assert abs(v0 - 1.0 / j0_at) <= 1e-12 * abs(1.0 / j0_at)


def test_interior_limit_matches_collocation_oracle():
    u0 = 1.0 + 0.0j
    cfg = CloakConfig(3, 1.0, 0.1, (Layer(1.0, 1.0, KAPPA3**2),))
    lim = interior_limit(cfg, np.array([u0]))
    r, v, resid = collocation_monopole_limit(KAPPA3, u0, n=48)
    assert resid < 1e-8
    # the node r = 1 is the layer interface: read the limit just inside
    mine = lim.radial_many(np.minimum(r, 1.0 - 1e-11), derivatives=False)[0][0]
    for mi, vi in zip(mine, v):
        assert abs(mi - vi) < 1e-8


@pytest.mark.parametrize("d, mode", [(2, 0), (2, 1), (3, 1), (3, 2)])
def test_interior_limit_rejects_every_resonance_but_the_3d_monopole(d, mode):
    spec = first_resonance(d, 1.0, mode)
    cfg = CloakConfig(d, 1.0, 0.1, (Layer(1.0, 1.0, spec.sigma0),))
    with pytest.raises(ResonantConfigError, match="configuration is resonant"):
        interior_limit(cfg, np.ones(3))
    if mode:   # only the orders of b are tested
        assert interior_limit(cfg, np.ones(mode)) is None


def test_interior_limit_active_resonant_rejected():
    # the eigenfunction source of a resonant interior has no Neumann limit
    spec = first_resonance(3, 1.0)
    with pytest.raises(ValueError, match="no solution"):
        neumann_monopole_limit(spec.kappa_star, spec.kappa_star, [0.5])


@pytest.mark.parametrize("d", [2, 3])
def test_detuned_source_oracle_matches_fd(d):
    # the closed-form detuned source problem against the banded FD solve
    spec = first_resonance(d, 1.0)
    sigma, c_e = spec.sigma0 + 2.0, eigenfunction_normalization(spec)
    grid, u_fd = fd_interior_source_solve(d, 1.0, 5e-2, 1.0, sigma, spec.kappa_star, c_e, npts=20000)
    want = detuned_source_monopole(d, 1.0, 5e-2, 1.0, sigma, spec.kappa_star, c_e, grid)
    assert np.max(np.abs(u_fd - want)) < 1e-6 * np.max(np.abs(u_fd))


def test_interior_limit_active_nonresonant_neumann():
    # the paper's active limit: a detuned 3d interior driven by the radial
    # eigenfunction tends to the Neumann solution, at rate eps in L2(B1)
    spec = first_resonance(3, 1.0)
    sigma = spec.sigma0 + 3.0
    x, w = np.polynomial.legendre.leggauss(60)
    r, w = 0.5 * (x + 1.0), 0.5 * w
    want = neumann_monopole_limit(math.sqrt(sigma), spec.kappa_star, r)
    c_e = eigenfunction_normalization(spec)
    eps = (1e-1, 1e-2, 1e-3, 1e-4)
    devs = []
    for e in eps:
        u = detuned_source_monopole(3, 1.0, e, 1.0, sigma, spec.kappa_star, c_e, r)
        devs.append(math.sqrt(mode_weight(3, 0) * np.sum(w * np.abs(u - want) ** 2 * r**2)))
    ratios = [dv / e for dv, e in zip(devs, eps)]
    slope = np.polyfit(np.log(eps), np.log(devs), 1)[0]
    assert 0.95 <= slope <= 1.05
    assert max(ratios) / min(ratios) - 1.0 < 0.1


@pytest.mark.parametrize("k", [1.0, 0.8])
@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8)])
def test_deviation_from_the_limit_subtracts_on_coefficients(k, axis):
    # the deviation from a resonant limit is the interior series with mode
    # 0's coefficient lowered by the limit's: bitwise, because the limit
    # sits on the interior's medium at its wavenumber
    spec = IncidentSpec("plane_wave", direction=axis)
    b = incident_coefficients(spec, k, auto_truncation(spec, k, 3), 3)
    layer = Layer(1.0, 1.0, first_resonance(3, k).sigma0)
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        cfg = CloakConfig(3, k, eps, (layer,))
        interior = blown_up_interior_series(cfg, solve_series(virtual_medium(cfg), k, b, axis=axis))
        lim = interior_limit(cfg, b, axis)
        m0 = interior.modes[0]
        (c0, s0), = m0.layer_coeffs
        lowered = replace(m0, layer_coeffs=((c0 - lim.modes[0].layer_coeffs[0][0], s0),))
        want = norm_annulus(replace(interior, modes=(lowered,) + interior.modes[1:]), 0.0, 1.0)
        assert norm_annulus(interior, 0.0, 1.0, reference=lim) == want


def test_interior_convergence_nonresonant_rate():
    # passive non-resonant: U_eps -> 0 in L2(B1) at rate O(eps)
    spec = IncidentSpec("plane_wave", direction=(0.0, 0.0, 1.0))
    b = incident_coefficients(spec, 1.0, auto_truncation(spec, 1.0, 3), 3)
    vals = []
    for eps in (1e-1, 1e-2, 1e-3):
        cfg = CloakConfig(3, 1.0, eps, (Layer(1.0, 1.0, 1.0),))
        ser = solve_series(virtual_medium(cfg), 1.0, b)
        interior = blown_up_interior_series(cfg, ser)
        vals.append(norm_annulus(interior, 0.0, 1.0, reference=interior_limit(cfg, b))[0])
    assert vals[0] / vals[1] == pytest.approx(10.0, rel=0.4)
    assert vals[1] / vals[2] == pytest.approx(10.0, rel=0.15)


def test_interior_convergence_resonant_to_closed_form():
    spec = IncidentSpec("plane_wave", direction=(0.0, 0.0, 1.0))
    b = incident_coefficients(spec, 1.0, auto_truncation(spec, 1.0, 3), 3)
    prev = math.inf
    for eps in (1e-1, 1e-2, 1e-3):
        cfg = CloakConfig(3, 1.0, eps, (Layer(1.0, 1.0, KAPPA3**2),))
        ser = solve_series(virtual_medium(cfg), 1.0, b)
        interior = blown_up_interior_series(cfg, ser)
        dev = norm_annulus(interior, 0.0, 1.0, reference=interior_limit(cfg, b))[0]
        assert dev < prev
        prev = dev
    assert prev < 2e-6


def test_mode_weight_matches_angular_integrals():
    # 3d: int |P_n|^2 dOmega = 4 pi / (2n+1); 2d pair-folded cosine weights
    th = np.linspace(0.0, math.pi, 200001)
    p2 = 0.5 * (3.0 * np.cos(th) ** 2 - 1.0)
    val = 2.0 * math.pi * np.trapezoid(p2**2 * np.sin(th), th)
    assert abs(val - mode_weight(3, 2)) < 1e-8
    assert mode_weight(2, 0) == pytest.approx(2.0 * math.pi)
    assert mode_weight(2, 3) == pytest.approx(4.0 * math.pi)
