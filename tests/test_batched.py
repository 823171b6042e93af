"""Array-argument Bessel chain and block point evaluation (FieldSeries.eval_many)."""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cloakwave import specfun
from cloakwave.errors import (
    BesselOverflowError,
    CloakwaveError,
    InterfaceEvaluationError,
    ValidationError,
)
from cloakwave.experiments import eigenmode_series
from cloakwave.fields import (
    IncidentSpec,
    auto_truncation,
    incident_coefficients,
    solve_series,
)
from cloakwave.mie import CloakConfig, Layer, first_resonance, virtual_medium


def _scalar_chain(d, nmax, z):
    return (specfun.sph_chain if d == 3 else specfun.cyl_chain)(nmax, z)


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
    want, want_err = _outcome(lambda: _scalar_chain(d, nmax, z))
    got, got_err = _outcome(lambda: specfun.array_chain(d, nmax, [z]))
    assert got_err is want_err
    if want_err is None:
        for g, w in zip(got, want):
            _assert_chain_close(g[:, 0], w, z)
    elif want_err is BesselOverflowError:
        # the regular family alone stays representable (Miller rescales)
        one = specfun.sph_bessel if d == 3 else specfun.cyl_bessel
        kind = "j" if d == 3 else "J"
        want = np.array([one(kind, n, z).value for n in range(nmax + 1)])
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
        _scalar_chain(d, specfun.ORDER_CAP, 1e-3)
    with pytest.raises(BesselOverflowError):
        specfun.array_chain(d, specfun.ORDER_CAP, [1.0, 1e-3, 5.0])
    # the regular family alone stays representable (it underflows to zero)
    reg, sing = specfun.array_chain(d, specfun.ORDER_CAP, [1e-3], singular=False)
    assert sing is None and reg[-1, 0] == 0.0


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


# ---------------------------------------------------------------------------
# eval_many against eval


@functools.lru_cache(maxsize=None)
def _cloak_series(d):
    """Physical-domain plane-wave field of the dump configuration (k = 10)."""
    k, eps = 10.0, 0.01
    spec = IncidentSpec("plane_wave", direction=(0.6, 0.8, 0.0)[:d])
    cfg = CloakConfig(d, k, eps, (Layer(1.0, 1.0, 2.0),), spec)
    n = auto_truncation(spec, k, d, r_eval=4.3)
    b = incident_coefficients(spec, k, n, d, r_eval=4.3)
    return solve_series(virtual_medium(cfg), k, b, domain="physical", epsilon=eps,
                        axis=tuple(spec.axis))


@functools.lru_cache(maxsize=None)
def _eigen_series(d):
    """Virtual blown-up eigenmode field: mode 1 with a particular term in layer 0."""
    spec = first_resonance(d, 1.0, 1)
    return eigenmode_series(CloakConfig(d, 1.0, 0.01, (Layer(1.0, 1.0, spec.sigma0),)), spec)


def _points(d, radii, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(len(radii), d))
    return u / np.linalg.norm(u, axis=1)[:, None] * np.asarray(radii)[:, None]


# origin, cloaked ball, shell, exterior (physical radii)
REGIONS = {"ball": (0.0, 1.0), "shell": (1.0, 2.0), "exterior": (2.0, 4.3)}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1),
       st.sampled_from(sorted(REGIONS)))
def test_eval_many_matches_eval_by_region(d, seed, region):
    ser = _cloak_series(d)
    lo, hi = REGIONS[region]
    rng = np.random.default_rng(seed)
    pts = np.vstack([np.zeros((1, d)), _points(d, rng.uniform(lo, hi, 40)[1:], seed)])
    got = ser.eval_many(pts)
    want = np.array([ser.eval(p) for p in pts])
    assert got[0] == want[0]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3])
def test_eval_many_with_particular_term(d):
    ser = _eigen_series(d)
    pts = _points(d, np.linspace(0.02, 3.9, 77), seed=d)
    got = ser.eval_many(pts)
    want = np.array([ser.eval(p) for p in pts])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3])
def test_eval_many_point_alone_equals_point_in_block(d):
    ser = _cloak_series(d)
    pts = _points(d, np.linspace(0.0, 4.3, 128), seed=10 + d)
    block = ser.eval_many(pts)
    alone = np.array([ser.eval_many(p[None])[0] for p in pts])
    assert np.array_equal(block, alone)


def _raised(fn):
    try:
        fn()
    except CloakwaveError as exc:
        return exc
    raise AssertionError("no error raised")


@pytest.mark.parametrize("d", [2, 3])
def test_eval_many_rejects_like_eval(d):
    phys = _cloak_series(d)
    e = np.eye(d)[0]
    lay = Layer(0.5, 1.0, 1.5)
    virt = solve_series(
        virtual_medium(CloakConfig(d, 2.0, 0.1, (lay, Layer(1.0, 1.0, 2.0)))), 2.0,
        incident_coefficients(IncidentSpec("mode", mode=1), 2.0, 6, d),
    )
    bounded = dataclasses.replace(phys, valid_radius=3.0)
    cases = [
        (phys, 1.0 * e, InterfaceEvaluationError),     # inner map branch
        (phys, 2.0 * e, InterfaceEvaluationError),     # outer map branch
        (virt, 0.05 * e, InterfaceEvaluationError),    # virtual layer interface
        (bounded, 3.5 * e, ValidationError),           # beyond valid_radius
    ]
    good = _points(d, [0.3, 1.7, 2.9], seed=d)
    for ser, bad, kind in cases:
        err = _raised(lambda: ser.eval(bad))
        assert isinstance(err, kind)
        block = np.vstack([good[:2], bad, good[2:]])
        with pytest.raises(type(err), match=re.escape(str(err))):
            ser.eval_many(block)
