"""Array-argument Bessel chain and its batched callers.

Block point evaluation (FieldSeries.eval_many), radial profiles over the
nodes of a quadrature level (FieldSeries.radial_many), vector-valued
quadrature, the (L2, H1) norm pairs and resonance scans, each against
point-by-point scipy sums (oracles.series_values) or per-radius scalar
Bessel evaluations.
"""

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cloakwave import mie, quadrature, specfun
from cloakwave.errors import BesselOverflowError, CloakwaveError
from cloakwave.experiments import eigenmode_series
from cloakwave.fields import (
    IncidentSpec,
    _split_points,
    auto_truncation,
    blown_up_interior_series,
    incident_coefficients,
    interior_limit,
    mode_weight,
    norm_annulus,
    outgoing_mode_norm,
    solve_series,
)
from cloakwave.mie import (
    CloakConfig,
    Layer,
    angular_eigenvalue,
    detect_resonances,
    first_resonance,
    resonance_condition,
    resonance_scan,
    virtual_medium,
)
from cloakwave.quadrature import integrate

from oracles import series_values


def _outcome(fn):
    try:
        return fn(), None
    except CloakwaveError as exc:
        return None, type(exc)


def _assert_chain_close(got, want, z):
    # error measured against the local size |f_n| + |f_(n+1)|, which never
    # vanishes (zeros interlace), and scaled by exp(2 Im z): the loss both
    # kernels take in the Miller normalization sum (module envelope)
    mag = np.abs(want)
    local = mag.copy()
    local[:-1] += mag[1:]
    local[-1] += mag[-2]
    tol = 1e-13 * math.exp(2.0 * z.imag) * local + 1e-300
    assert np.all(np.abs(got - want) <= tol)


@st.composite
def _arguments(draw):
    mag = 10.0 ** draw(st.floats(-3.0, 3.0))
    im = min(mag, 10.0) * draw(st.floats(1e-6, 1.0))
    re_ = math.sqrt(max(mag * mag - im * im, 0.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return complex(re_, im)


def _check_chain(d, nmax, z):
    want, want_err = _outcome(lambda: specfun.chain(d, nmax, z))
    got, got_err = _outcome(lambda: specfun.array_chain(d, nmax, [z]))
    assert got_err is want_err
    if want_err is None:
        for g, w in zip(got, want):
            _assert_chain_close(g[:, 0], w, z)
    elif want_err is BesselOverflowError:
        # the regular family alone stays representable (Miller rescales)
        want = np.array([specfun.bessel(d, n, z)[0] for n in range(nmax + 1)])
        got = specfun.array_chain(d, nmax, [z], singular=False)[0][:, 0]
        _assert_chain_close(got, want, z)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, specfun.ORDER_CAP), _arguments())
def test_array_chain_matches_scalar_chains(d, nmax, z):
    _check_chain(d, nmax, z)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("nmax", [1, specfun.ORDER_CAP])
@pytest.mark.parametrize("mag", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("im", [1e-9, 10.0])
def test_array_chain_envelope_edges(d, nmax, mag, im):
    im = min(im, mag)
    _check_chain(d, nmax, complex(math.sqrt(mag * mag - im * im), im))


@pytest.mark.parametrize("d", [2, 3])
def test_array_chain_overflow_raises_like_scalar(d):
    with pytest.raises(BesselOverflowError):
        specfun.chain(d, specfun.ORDER_CAP, 1e-3)
    with pytest.raises(BesselOverflowError):
        specfun.array_chain(d, specfun.ORDER_CAP, [1.0, 1e-3, 5.0])
    # the regular family alone stays representable (it underflows to zero)
    reg, sing = specfun.array_chain(d, specfun.ORDER_CAP, [1e-3], singular=False)
    assert sing is None and reg[-1, 0] == 0.0


def test_array_chain_3d_miller_pass_only_where_upward_recurrence_stops_short(monkeypatch):
    # nmax = 20: from |z| = 22.3 on, int(0.9 |z|) >= nmax, so every order
    # comes by upward recurrence from j_0 and j_1
    zs = np.array([0.5, 31.5, 3.0 + 0.1j, 22.3, 420.0 + 3.0j])
    whole = specfun.array_chain(3, 20, zs)
    seen = []
    real = specfun._miller_pass
    monkeypatch.setattr(specfun, "_miller_pass", lambda z, *a: seen.append(list(z)) or real(z, *a))
    assert all(np.array_equal(a, b) for a, b in zip(specfun.array_chain(3, 20, zs), whole))
    assert seen == [[0.5, 3.0 + 0.1j]]
    for i in range(zs.size):
        alone = specfun.array_chain(3, 20, zs[i : i + 1])
        assert all(np.array_equal(a[:, 0], b[:, i]) for a, b in zip(alone, whole))
    assert seen == [[0.5, 3.0 + 0.1j], [0.5], [3.0 + 0.1j]]


def test_array_chain_block_equals_single_arguments():
    # 1e-3 rescales in the Miller pass, and its singular chain overflows
    zs = np.array([1e-3, 0.37 + 0.2j, 4.0, 31.5, 420.0 + 3.0j])
    for d in (2, 3):
        for args, singular in ((zs, False), (zs[1:], True)):
            block = specfun.array_chain(d, 60, args, singular)
            for i, z in enumerate(args):
                alone = specfun.array_chain(d, 60, [z], singular)
                for a, b in zip(alone, block):
                    assert a is b is None or np.array_equal(a[:, 0], b[:, i])


@st.composite
def _mixed_block(draw):
    # Miller-rescaling (|z| <= 1e-2), large (|z| >= 100) and lossy (Im z up
    # to 10) arguments in one block, in any order
    zs = []
    for kind in draw(st.lists(st.sampled_from(["miller", "large", "lossy"]), min_size=2, max_size=6)):
        if kind == "lossy":
            zs.append(complex(draw(st.floats(-30.0, 30.0)), draw(st.floats(0.1, 10.0))))
            continue
        mag = 10.0 ** draw(st.floats(-3.0, -2.0) if kind == "miller" else st.floats(2.0, 3.0))
        phase = draw(st.floats(0.0, math.pi))
        zs.append(complex(mag * math.cos(phase), min(mag * math.sin(phase), 10.0)))
    return np.array(zs)


def _overflow_order(message):
    return int(re.search(r"^[yY]_(\d+)\(", message).group(1))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, specfun.ORDER_CAP), st.booleans(), _mixed_block())
def test_mixed_block_columns_equal_solo_bitwise(d, nmax, singular, zs):
    solo, errors = [], []
    for i, z in enumerate(zs):
        try:
            solo.append(specfun.array_chain(d, nmax, [z], singular))
        except BesselOverflowError as exc:
            errors.append((_overflow_order(str(exc)), i, str(exc)))
    if errors:
        # the block raises at the lowest overflowing order, first argument first
        with pytest.raises(BesselOverflowError) as info:
            specfun.array_chain(d, nmax, zs, singular)
        assert str(info.value) == min(errors)[2]
        return
    block = specfun.array_chain(d, nmax, zs, singular)
    for i, alone in enumerate(solo):
        for a, b in zip(alone, block):
            assert a is b is None or a[:, 0].tobytes() == b[:, i].tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("nmax, singular", [(specfun.ORDER_CAP, False), (4, True)])
def test_block_mixing_tiny_and_ordinary_arguments_equals_solo_bitwise(d, nmax, singular):
    # tiny arguments take the leading terms, the others the Miller block
    zs = np.array([2.5, 1e-30, 1e-3 + 0.5j, 3e-21j, 1e-20, 40.0, 7e-45 + 7e-45j, 0.9])
    block = specfun.array_chain(d, nmax, zs, singular)
    for i, z in enumerate(zs):
        for a, b in zip(specfun.array_chain(d, nmax, [z], singular), block):
            assert a is b is None or a[:, 0].tobytes() == b[:, i].tobytes()
    assert np.all(np.isfinite(block[0])) and (not singular or np.all(np.isfinite(block[1])))


@pytest.mark.parametrize("d, name", [(2, "Y_61((0.001+0j))"), (3, "y_60((0.001+0j))")])
def test_array_chain_overflow_message_names_order_and_argument(d, name):
    with pytest.raises(BesselOverflowError) as info:
        specfun.array_chain(d, specfun.ORDER_CAP, [1.0, 1e-3, 5.0])
    assert str(info.value) == f"{name} exceeds representable magnitude in upward recurrence"


@pytest.mark.parametrize("d", [2, 3])
def test_array_chain_allocates_little_beyond_its_outputs(d):
    # no full-size temporaries: 256 field-dump-sized arguments (|z| <= 42)
    import tracemalloc

    z = 10.0 * np.linspace(0.1, 4.2, 256) * np.exp(0.01j)
    specfun.array_chain(d, 87, z)
    tracemalloc.start()
    try:
        reg, sing = specfun.array_chain(d, 87, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (reg.nbytes + sing.nbytes)


# ---------------------------------------------------------------------------
# eval_many against eval


@functools.lru_cache(maxsize=None)
def _cloak_series(d):
    """Physical-domain plane-wave field of the dump configuration (k = 10), with its spec."""
    k, eps = 10.0, 0.01
    spec = IncidentSpec("plane_wave", direction=(0.6, 0.8, 0.0)[:d])
    cfg = CloakConfig(d, k, eps, (Layer(1.0, 1.0, 2.0),), spec)
    n = auto_truncation(spec, k, d, r_eval=4.3)
    b = incident_coefficients(spec, k, n, d, r_eval=4.3)
    return solve_series(virtual_medium(cfg), k, b, epsilon=eps,
                        axis=spec.axis, incident=spec)


@functools.lru_cache(maxsize=None)
def _eigen_series(d):
    """Virtual blown-up eigenmode field: mode 1 with a particular term in layer 0."""
    return eigenmode_series(first_resonance(d, 1.0, 1), 1.0, 0.01)


def _points(d, radii, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(len(radii), d))
    return u / np.linalg.norm(u, axis=1)[:, None] * np.asarray(radii)[:, None]


# origin, cloaked ball, shell, exterior (physical radii)
REGIONS = {"ball": (0.0, 1.0), "shell": (1.0, 2.0), "exterior": (2.0, 4.3)}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1),
       st.sampled_from(sorted(REGIONS)))
def test_eval_many_matches_scipy_by_region(d, seed, region):
    ser = _cloak_series(d)
    lo, hi = REGIONS[region]
    rng = np.random.default_rng(seed)
    pts = np.vstack([np.zeros((1, d)), _points(d, rng.uniform(lo, hi, 40)[1:], seed)])
    got = ser.eval_many(pts)
    want = series_values(ser, pts)
    assert got[0] == want[0]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3])
def test_eval_many_with_particular_term(d):
    ser = _eigen_series(d)
    pts = _points(d, np.linspace(0.02, 3.9, 77), seed=d)
    got = ser.eval_many(pts)
    want = series_values(ser, pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3])
def test_eval_many_point_alone_equals_point_in_block(d):
    # the cloak series' blocks mix full-series points (r < 1) with closed-form
    # exterior ones; the eigenmode series has no spec and a particular term
    for ser, r_max in ((_cloak_series(d), 4.3), (_eigen_series(d), 3.9)):
        pts = _points(d, np.linspace(0.0, r_max, 128), seed=10 + d)
        block = ser.eval_many(pts)
        alone = np.array([ser.eval_many(p[None])[0] for p in pts])
        assert np.array_equal(block, alone)


def _full_values(ser, pts):
    """The same series without its spec, point by point: every order summed.

    NaN where that path raises BesselOverflowError: its exterior singular
    chain runs to the truncation order, whose Y_N (y_N) overflows at small
    virtual radii and high order, although alpha_n is zero there.
    """
    full = replace(ser, incident=None)
    out = []
    for p in pts:
        try:
            out.append(full.eval_many(p[None])[0])
        except BesselOverflowError:
            out.append(np.nan)
    return np.array(out)


# (radius, a, sigma) of 1-3 lossless layers; the outermost radius becomes 1
_LAYERS = st.lists(
    st.tuples(st.floats(0.3, 1.0), st.floats(0.5, 2.0), st.floats(0.5, 3.0)),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.floats(0.5, 30.0),
    st.floats(1e-3, 0.3),
    _LAYERS,
    st.sampled_from(["plane_wave", "point_source", "mode"]),
    st.integers(0, 2**32 - 1),
)
def test_exterior_closed_form_matches_full_series(d, k, eps, layers, kind, seed):
    rng = np.random.default_rng(seed)
    radii = sorted({round(r, 3) for r, _, _ in layers} - {1.0})[: len(layers) - 1] + [1.0]
    interior = tuple(Layer(r, a, s) for r, (_, a, s) in zip(radii, layers))
    amp = complex(*rng.uniform(-2.0, 2.0, 2))
    unit = rng.normal(size=d)
    unit /= np.linalg.norm(unit)
    if kind == "plane_wave":
        spec, r_max = IncidentSpec(kind, amp, direction=tuple(unit)), 4.0
    elif kind == "point_source":
        r0 = rng.uniform(3.0, 4.4)
        # inside the source radius, where the addition theorem converges
        spec, r_max = IncidentSpec(kind, amp, location=tuple(r0 * unit)), 0.75 * r0
    else:
        spec, r_max = IncidentSpec(kind, amp, mode=int(rng.integers(0, 8))), 4.0
    cfg = CloakConfig(d, k, eps, interior, spec)
    n = auto_truncation(spec, k, d, r_eval=r_max)
    b = incident_coefficients(spec, k, n, d, r_eval=r_max)
    ser = solve_series(virtual_medium(cfg), k, b, epsilon=eps,
                       axis=spec.axis, incident=spec)
    # the shell (1, 2) and the exterior beyond r = 2
    r_pts = np.concatenate([rng.uniform(1.001, 1.999, 20), rng.uniform(2.001, r_max, 20)])
    pts = _points(d, r_pts, seed)
    got, want = ser.eval_many(pts), _full_values(ser, pts)
    ok = np.isfinite(want)
    assert np.all(np.isfinite(got)) and np.all(ok[20:])
    assert np.max(np.abs(got - want)[ok]) <= 1e-13 * np.max(np.abs(want[ok]))


@pytest.mark.parametrize("d", [2, 3])
def test_exterior_closed_form_just_outside_the_cloaked_ball(d):
    # virtual radii just above eps, where the zeroed alpha_n (noise floor of
    # solve_modes) matter most: both paths keep exactly the nonzero alpha_n;
    # the 2d medium is the one whose mode 7 breaks interface continuity
    k, eps, lay = 7.645, 0.00866, Layer(1.0, 1.275, 1.795)
    spec = IncidentSpec("plane_wave", direction=(0.6, 0.8, 0.0)[:d])
    cfg = CloakConfig(d, k, eps, (lay,), spec)
    n = auto_truncation(spec, k, d)
    b = incident_coefficients(spec, k, n, d)
    ser = solve_series(virtual_medium(cfg), k, b, epsilon=eps,
                       axis=spec.axis, incident=spec)
    alphas = [m.alpha_n for m in ser.modes]
    last = max(i for i, a in enumerate(alphas) if a != 0)
    assert 0 < last < n and not any(alphas[last + 1:])
    r_virtual = eps * lay.radius * (1.0 + np.logspace(-9, -1, 40))
    assert len(ser._outgoing_many(r_virtual)) == last + 1
    pts = _points(d, 1.0 + np.logspace(-9, -1, 40), seed=d)
    got, want = ser.eval_many(pts), _full_values(ser, pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3])
def test_eval_many_takes_the_inner_side_like_scipy(d):
    # a point on a map branch radius or a layer interface takes the limit
    # from inside, here the value 1e-15 inside it (a few ulps)
    phys = _cloak_series(d)
    e = np.eye(d)[0]
    lay = Layer(0.5, 1.0, 1.5)
    virt = solve_series(
        virtual_medium(CloakConfig(d, 2.0, 0.1, (lay, Layer(1.0, 1.0, 2.0)))), 2.0,
        incident_coefficients(IncidentSpec("mode", mode=1), 2.0, 6, d),
    )
    cases = [
        (phys, 1.0 * e),     # inner map branch
        (phys, 2.0 * e),     # outer map branch
        (virt, 0.05 * e),    # virtual layer interface
    ]
    good = _points(d, [0.3, 1.7, 2.9], seed=d)
    for ser, at in cases:
        inner = ser.eval_many([(1.0 - 1e-15) * at])[0]
        block = ser.eval_many(np.vstack([good[:2], at, good[2:]]))[2]
        for got in (series_values(ser, [at])[0], ser.eval_many([at])[0], block):
            assert abs(got - inner) <= 1e-12 * abs(inner)


# ---------------------------------------------------------------------------
# radial_many against per-radius scalar Bessel evaluations


def _one(d):
    """Scalar evaluator of one order, and its (regular, singular, outgoing) kinds.

    one(kind, n, z) is (value, derivative) of order n at z: specfun.bessel
    for the regular family, else row n of a scalar chain of orders 0..n + 1
    and chain_derivative, the outgoing pair J + iY of the components.
    """

    def one(kind, n, z):
        if kind == "regular":
            return specfun.bessel(d, n, z)
        reg, sing = specfun.chain(d, n + 1, z)
        (rv, rd), (sv, sd) = ((f[n], specfun.chain_derivative(f, z, d)[n]) for f in (reg, sing))
        return (sv, sd) if kind == "singular" else (rv + 1j * sv, rd + 1j * sd)

    return one, ("regular", "singular", "outgoing")


def _particular_scalar(d: int, n: int, kap: complex, q: complex, r: float):
    """q r R_n'(kap r) and its r-derivative from one scalar Bessel evaluation.

    R_n'' from differentiating R_n' = R_(n-1) - (n + d - 2) / z R_n, with
    R_(n-1)' (order 0: R_0'' = -R_1') from a second evaluation.
    """
    z = kap * r
    val, der = specfun.bessel(d, n, z)
    if n == 0:
        d2 = -specfun.bessel(d, 1, z)[1]
    else:
        s = n + d - 2.0
        d2 = specfun.bessel(d, n - 1, z)[1] + s / (z * z) * val - s / z * der
    return q * r * der, q * (der + kap * r * d2)


def _scalar_profiles(ser, r: float):
    """(values, derivatives, local sizes) of every mode at r > 0, mode by mode.

    The local size adds the magnitudes of the summed terms, each as
    |coefficient| (|R_n| + |kappa R_n'|), where the chains' error lives.
    """
    one, (reg, sing, out) = _one(ser.dimension)
    lays = ser.medium.layers
    idx = sum(r >= lay.radius for lay in lays)
    if idx == len(lays):
        kap, skind = ser.k_exterior, out
        coeffs = [(m.b_n, m.alpha_n) for m in ser.modes]
    else:
        kap, skind = ser.medium.wavenumber(ser.k, idx), sing
        coeffs = [m.layer_coeffs[idx] for m in ser.modes]
    rows = []
    for m, (c, s) in zip(ser.modes, coeffs):
        terms = [(c, one(reg, m.n, kap * r))] + ([(s, one(skind, m.n, kap * r))] if s else [])
        val = sum(a * ev for a, (ev, _) in terms)
        der = kap * sum(a * ed for a, (_, ed) in terms)
        size = sum(abs(a) * (abs(ev) + abs(kap * ed)) for a, (ev, ed) in terms)
        if idx == 0 and m.particular:
            pv, pd = _particular_scalar(ser.dimension, m.n, kap, m.particular, r)
            val, der, size = val + pv, der + pd, size + abs(pv) + abs(pd)
        rows.append((val, der, size))
    return np.array(rows).T


def _layered_series(d):
    """Plane wave on a two-layer interior, one layer lossy (complex arguments).

    Returns the virtual series (layers at radii 0.05 and 0.1) and its
    blown-up interior (layers at 0.5 and 1).
    """
    k, eps = 2.0, 0.1
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0, 0.0)[:d])
    cfg = CloakConfig(d, k, eps, (Layer(0.5, 1.3, 2.0 + 0.3j), Layer(1.0, 0.8, 1.5)), spec)
    b = incident_coefficients(spec, k, auto_truncation(spec, k, d), d)
    virt = solve_series(virtual_medium(cfg), k, b)
    return virt, blown_up_interior_series(cfg, virt)


@pytest.mark.parametrize("d", [2, 3])
def test_radial_many_matches_scalar_profiles(d):
    virt, blown = _layered_series(d)
    spans = lambda *edges: np.concatenate([np.linspace(lo, hi, 7) for lo, hi in edges])
    cases = [
        (virt, spans((0.001, 0.049), (0.051, 0.099), (0.11, 4.0))),
        (blown, spans((0.01, 0.49), (0.51, 0.99), (1.01, 3.0))),
    ]
    ser = _eigen_series(d)
    assert [m.n for m in ser.modes if m.particular] == [1]
    cases.append((ser, spans((0.02, 0.98), (1.1, 3.9))))
    for ser, rs in cases:
        vals, ders = ser.radial_many(rs)
        assert vals.shape == ders.shape == (ser.truncation + 1, len(rs))
        for i, r in enumerate(rs):
            want_v, want_d, size = _scalar_profiles(ser, float(r))
            assert np.all(np.abs(vals[:, i] - want_v) <= 1e-13 * size.real)
            assert np.all(np.abs(ders[:, i] - want_d) <= 1e-13 * size.real)


@pytest.mark.parametrize("d", [2, 3])
def test_radial_many_slope_at_the_origin(d):
    # only mode 1 has a slope at r = 0: (kappa c_1 + q_1) R_1'(0), with
    # R_1'(0) = 1/2 in 2d and 1/3 in 3d; the eigenmode series has both terms
    ser = _eigen_series(d)
    mode = ser.modes[1]
    assert mode.particular and mode.layer_coeffs[0][0]
    kap = ser.medium.wavenumber(ser.k, 0)
    want = (kap * mode.layer_coeffs[0][0] + mode.particular) * (0.5 if d == 2 else 1.0 / 3.0)
    ders = ser.radial_many([0.0, 1e-9])[1]
    assert ders[1, 0] == pytest.approx(want, rel=1e-15)
    assert np.all(np.abs(ders[:, 0] - ders[:, 1]) <= 1e-8 * abs(want))


# ---------------------------------------------------------------------------
# vector-valued quadrature and the (L2, H1) pairs


def test_two_component_integrate_matches_one_component():
    fast = lambda x: np.exp(-x) * np.cos(3.0 * x)
    slow = lambda x: np.cos(40.0 * x) / (1.0 + x * x)
    zero = lambda x: 0.0 * x
    a, b = 0.2, 3.1
    one = {f: integrate(f, a, b) for f in (fast, slow, zero)}
    assert np.shape(one[fast]) == ()
    assert one[zero] == 0.0
    # a zero component passes the floor at once: the other is bitwise its lone call
    pair = integrate(lambda x: np.stack([fast(x), zero(x)]), a, b)
    assert pair.shape == (2,)
    assert pair[0] == one[fast] and pair[1] == 0.0
    # the slower component sets the level; each stays within the tolerance
    pair = integrate(lambda x: np.stack([fast(x), slow(x)]), a, b)
    assert pair[1] == one[slow]
    assert abs(pair[0] - one[fast]) <= 1e-11 * abs(one[fast])


def test_deep_levels_split_into_bounded_calls(monkeypatch):
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.stack([np.cos(40.0 * x), np.sin(x)])

    whole = integrate(f, 0.0, 3.0)
    assert max(sizes) > 48
    monkeypatch.setattr(quadrature, "BATCH_NODES", 48)
    sizes.clear()
    assert np.array_equal(integrate(f, 0.0, 3.0), whole)
    assert max(sizes) == 48


def _separate_norms(dens_of, cuts):
    """L2 and H1 norms as two one-component quadratures of a per-node density."""
    out = []
    for comp in (0, 1):
        f = lambda rr: np.array([dens_of(float(r))[comp] for r in rr])
        out.append(math.sqrt(sum(integrate(f, lo, hi).real for lo, hi in zip(cuts[:-1], cuts[1:]))))
    return tuple(out)


def _node_density(d, vals, ders, r, first=0):
    """(L2, H1) densities at one radius, by angular Parseval over modes first, first + 1, ..."""
    ns = range(first, first + len(vals))
    w = np.array([mode_weight(d, n) for n in ns])
    nu = np.array([angular_eigenvalue(d, n) for n in ns])
    l2 = float(np.sum(w * np.abs(vals) ** 2))
    grad = float(np.sum(w * (np.abs(ders) ** 2 + nu * np.abs(vals) ** 2 / r**2)))
    return l2 * r ** (d - 1), (l2 + grad) * r ** (d - 1)


@pytest.mark.parametrize("d", [2, 3])
def test_norm_pairs_match_separate_values(d):
    virt, _ = _layered_series(d)
    want = _separate_norms(lambda r: _node_density(d, *(f[:, 0] for f in virt.radial_many(r)), r),
                           _split_points(virt, 0.07, 3.0))
    assert norm_annulus(virt, 0.07, 3.0) == pytest.approx(want, rel=1e-10)

    res = first_resonance(d, 1.0)
    cfg = CloakConfig(d, 1.0, 0.05, (Layer(1.0, 1.0, res.sigma0),))
    spec = IncidentSpec("plane_wave", direction=(1.0, 0.0, 0.0)[:d])
    b = incident_coefficients(spec, 1.0, auto_truncation(spec, 1.0, d), d)
    interior = blown_up_interior_series(cfg, solve_series(virtual_medium(cfg), 1.0, b))
    # interior_limit rejects the 2d monopole resonance; there the deviation
    # is taken from zero
    lim = interior_limit(cfg, b) if d == 3 else None

    def deviation(r):
        vals, ders = interior.radial_many(r)
        if lim is not None:
            lv, ld = lim.radial_many(r)
            vals[0] -= lv[0]
            ders[0] -= ld[0]
        return _node_density(d, vals[:, 0], ders[:, 0], r)

    want = _separate_norms(deviation, [0.0, 1.0])
    assert norm_annulus(interior, 0.0, 1.0, reference=lim) == pytest.approx(want, rel=1e-10)

    def outgoing(r):
        one, (_, _, kind) = _one(d)
        val, der = one(kind, 2, 1.3 * r)
        return _node_density(d, np.array([val]), np.array([1.3 * der]), r, first=2)

    want = _separate_norms(outgoing, [2.0, 4.0])
    assert outgoing_mode_norm(d, 1.3, 2, 2.0, 4.0) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# resonance scans


def _scalar_brackets(d, n, kappas):
    vals = [resonance_condition(d, n, x)[0] for x in kappas]
    return [i for i in range(len(kappas) - 1) if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0]


def test_scan_brackets_and_roots_match_scalar_condition():
    grid = np.linspace(0.3, 12.0, 2400)
    for d in (2, 3):
        for mode in (0, 1):
            fun = lambda x: resonance_condition(d, mode, x)[0]
            want = [specfun.find_root(fun, (grid[i], grid[i + 1]))
                    for i in _scalar_brackets(d, mode, grid)]
            vals = resonance_scan(d, mode, grid)[0][mode]
            assert list(mie._grid_roots(grid, vals, fun)) == want
            assert first_resonance(d, 1.0, mode).kappa_star == want[0]
    # the benchmark's catalogue windows: sigma = 1.5, modes 0..6
    sigma, modes = 1.5, 6
    slope = math.sqrt(sigma)
    for d, k_max in ((2, 8.0), (3, 12.0)):
        ks = np.linspace(0.5, k_max, max(64, int((k_max - 0.5) * slope / 0.02) + 2))
        raw = resonance_scan(d, modes, ks * slope)[0]
        want = []
        for n in range(modes + 1):
            fun = lambda k: resonance_condition(d, n, k * slope)[0]
            roots = [specfun.find_root(fun, (ks[i], ks[i + 1]))
                     for i in _scalar_brackets(d, n, ks * slope)]
            assert list(mie._grid_roots(ks, raw[n], fun)) == roots
            want += [(n, root * slope) for root in roots]
        got = detect_resonances(d, 1.0, sigma, (0.5, k_max), modes)
        assert sorted((s.mode, s.kappa_star) for s in got) == sorted(want)


def test_scan_matches_scalar_condition():
    kappas = np.linspace(0.4, 9.0, 50)
    whole = resonance_scan(2, 4, kappas, a=1.3)
    for n in range(5):
        for x, raw, normed in zip(kappas, whole[0][n], whole[1][n]):
            want_raw, want_normed = resonance_condition(2, n, x, 1.3)
            assert abs(normed - want_normed) <= 1e-13
            assert abs(raw - want_raw) <= 1e-13 * abs(raw / normed)   # of the scale


# ---------------------------------------------------------------------------
# call counts: one array chain per quadrature level per layer, one per scan


def _counting(monkeypatch):
    counts = {"array_chain": 0, "levels": 0}
    chain, composite = specfun.array_chain, quadrature._composite

    def counted_chain(*args, **kw):
        counts["array_chain"] += 1
        return chain(*args, **kw)

    def counted_composite(*args, **kw):
        counts["levels"] += 1
        return composite(*args, **kw)

    monkeypatch.setattr(specfun, "array_chain", counted_chain)
    monkeypatch.setattr(quadrature, "_composite", counted_composite)
    return counts


@pytest.mark.parametrize("d", [2, 3])
def test_one_array_chain_per_level_per_layer(d, monkeypatch):
    virt, blown = _layered_series(d)
    counts = _counting(monkeypatch)
    # segments that still integrate, one layer each: the lossy inner layer,
    # and a physical shell segment (it maps into the virtual exterior)
    norm_annulus(virt, 0.03, 0.05)
    norm_annulus(replace(virt, epsilon=0.1), 1.2, 1.8)
    assert counts["array_chain"] == counts["levels"] > 3
    counts.update(array_chain=0, levels=0)
    # the lossy layer of the blown-up interior, and of the physical blown-up ball
    norm_annulus(blown, 0.0, 1.0)
    norm_annulus(replace(virt, epsilon=0.1), 0.1, 0.45)
    assert counts["array_chain"] == counts["levels"] > 2
    counts.update(array_chain=0, levels=0)
    # first_resonance: one chain per 256-point block (255 intervals), up to
    # the block whose interval holds the root, out of the grid's ten
    kap = first_resonance(d, 1.0).kappa_star
    interval = int(np.searchsorted(np.linspace(0.3, 12.0, 2400), kap)) - 1
    blocks = interval // 255 + 1
    assert blocks < 10
    assert counts == {"array_chain": blocks, "levels": 0}
    counts.update(array_chain=0)
    detect_resonances(d, 1.0, 1.5, (0.5, 8.0), 6)
    assert counts == {"array_chain": 1, "levels": 0}
