"""Special-function kernel: examples, Wronskians, recurrences, root finder."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as ss
from hypothesis import given, settings, strategies as st

from cloakwave import specfun
from cloakwave.errors import (
    BesselDomainError,
    BesselOverflowError,
    BracketError,
    ConvergenceError,
)
from cloakwave.specfun import bessel, chain, chain_derivative, find_root

from oracles import bisect, first_j1_zero, first_tan_fixed_point, j1_series, miller_j_chain_loop


# frozen from the independent series/bisection oracles below
J1_FIRST_ZERO = 3.8317059702075125
TAN_FIXED_POINT = 4.493409457909064


def _families(d, n, z):
    """(value, derivative) of order n at z of the regular, singular and outgoing families.

    One scalar chain of orders 0..n + 1 and chain_derivative; the outgoing
    pair is J + iY of the other two.
    """
    reg, sing = chain(d, n + 1, z)
    (rv, rd), (sv, sd) = ((f[n], chain_derivative(f, z, d)[n]) for f in (reg, sing))
    return (rv, rd), (sv, sd), (rv + 1j * sv, rd + 1j * sd)


def test_oracle_roots_match_frozen_values():
    assert abs(first_j1_zero() - J1_FIRST_ZERO) < 1e-12
    assert abs(first_tan_fixed_point() - TAN_FIXED_POINT) < 1e-12


def test_j0_stationary_at_first_j1_zero():
    assert abs(bessel(2, 0, J1_FIRST_ZERO)[1]) < 1e-12


def test_hankel0_small_argument_limit():
    hd = _families(2, 0, 1e-8)[2][1]
    assert abs(1e-8 * hd - 2j / math.pi) < 1e-6


def test_cylindrical_wronskian_at_example_point():
    x = 1.7
    (jv, jd), (yv, yd), _ = _families(2, 0, x)
    w = jv * yd - jd * yv
    assert abs(w - 2.0 / (math.pi * x)) < 1e-12


def test_spherical_j0_at_pi():
    assert abs(bessel(3, 0, math.pi)[0]) < 1e-14


def test_spherical_j0_stationary_point():
    assert abs(bessel(3, 0, TAN_FIXED_POINT)[1]) < 1e-10


def test_spherical_wronskian_at_example_point():
    x = 2.3
    (jv, jd), (yv, yd), _ = _families(3, 0, x)
    w = jv * yd - jd * yv
    assert abs(w - 1.0 / (x * x)) < 1e-12


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 27, 50])
def test_wronskians_across_orders(x, n):
    (jv, jd), (yv, yd), _ = _families(2, n, x)
    w = jv * yd - jd * yv
    target = 2.0 / (math.pi * x)
    assert abs(w - target) <= 1e-11 * abs(target)
    (jv, jd), (yv, yd), _ = _families(3, n, x)
    ws = jv * yd - jd * yv
    assert abs(ws - 1.0 / (x * x)) <= 1e-11 / (x * x)


@pytest.mark.parametrize("z", [0.7, 4.2, 11.0, 60.0, 900.0, 2.0 + 1.5j])
@pytest.mark.parametrize("kind", [0, 1, 2], ids=["J", "Y", "H1"])
def test_cylindrical_recurrence(z, kind):
    # each order from its own chain, the family picked from _families
    for n in range(1, 31):
        lo, mid, hi = (_families(2, m, z)[kind][0] for m in (n - 1, n, n + 1))
        lhs = lo + hi
        rhs = (2.0 * n / z) * mid
        scale = max(abs(lhs), abs(rhs))
        if scale == 0:
            continue
        assert abs(lhs - rhs) <= 1e-10 * scale


@pytest.mark.parametrize("z", np.linspace(0.1, 20.0, 17))
def test_spherical_closed_forms(z):
    z = float(z)
    (j0, _), (y0, _), (h0, _) = _families(3, 0, z)
    assert abs(j0 - math.sin(z) / z) <= 1e-13 * max(abs(j0), 1e-3)
    assert abs(y0 - (-math.cos(z) / z)) <= 1e-13 * max(abs(y0), 1e-3)
    ref = cmath.exp(1j * z) / (1j * z)
    assert abs(h0 - ref) <= 1e-13 * abs(ref)


def test_small_argument_y0_leading_log():
    # the leading-log ratio approaches 1 at rate gamma/|ln(t/2)|, which is
    # ~4% at t = 1e-6 (the Euler-Mascheroni constant the leading-order form
    # drops); the 2% level is reached around t ~ 1e-13
    t = 1e-6
    y0 = _families(2, 0, t)[1][0].real
    leading = (2.0 / math.pi) * math.log(t / 2.0)
    gamma = specfun.EULER_GAMMA
    assert abs(y0 / leading - 1.0) < gamma / abs(math.log(t / 2.0)) + 1e-6
    assert abs(y0 / leading - 1.0) < 0.05
    t = 1e-13
    y0 = _families(2, 0, t)[1][0].real
    leading = (2.0 / math.pi) * math.log(t / 2.0)
    assert abs(y0 / leading - 1.0) < 0.02


@pytest.mark.parametrize(
    "n,z",
    [(0, 0.05), (1, 2.7), (4, 9.9), (9, 13.0), (3, 77.0), (0, 3.0 + 1.0j), (6, 8.0 + 2.0j)],
)
def test_cross_check_against_scipy(n, z):
    (jv, jd), (yv, _), _ = _families(2, n, z)
    assert abs(jv - ss.jv(n, z)) <= 1e-11 * max(1.0, abs(ss.jv(n, z)))
    assert abs(yv - ss.yv(n, z)) <= 1e-11 * max(1.0, abs(ss.yv(n, z)))
    assert abs(jd - ss.jvp(n, z)) <= 1e-11 * max(1.0, abs(ss.jvp(n, z)))
    if np.iscomplexobj(z) or isinstance(z, complex):
        return
    sj = ss.spherical_jn(n, z)
    sy = ss.spherical_yn(n, z)
    (jv, _), (yv, _), _ = _families(3, n, z)
    assert abs(jv - sj) <= 1e-12 * max(1.0, abs(sj))
    assert abs(yv - sy) <= 1e-12 * max(1.0, abs(sy))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    x=st.floats(min_value=0.05, max_value=300.0),
)
def test_wronskian_property(n, x):
    (jv, jd), (yv, yd), _ = _families(2, n, x)
    w = jv * yd - jd * yv
    target = 2.0 / (math.pi * x)
    assert abs(w - target) <= 1e-10 * abs(target)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=1e-6, max_value=1000.0))
def test_spherical_j0_matches_sinc(x):
    val = bessel(3, 0, x)[0]
    ref = math.sin(x) / x
    assert abs(val - ref) <= 1e-14 * max(abs(ref), 1e-12)


@st.composite
def _envelope_arguments(draw):
    # 1e-3 <= |z| <= 1e3 and 0 <= Im z <= 10, the validated envelope
    mag = 10.0 ** draw(st.floats(-3.0, 3.0))
    im = min(mag, 10.0) * draw(st.floats(0.0, 1.0))
    re_ = math.sqrt(max(mag * mag - im * im, 0.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return complex(re_, im)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, specfun.ORDER_CAP), _envelope_arguments())
def test_bessel_matches_chain_row(d, n, z):
    # row n as chain and chain_derivative give it, and the size of the terms
    # of the derivative rule
    f = chain(d, n + 1, z, singular=False)[0]
    size = abs(f[1]) if n == 0 else abs(f[n - 1]) + abs((n + d - 2.0) / z * f[n])
    val, der = bessel(d, n, z)
    assert val == f[n]
    assert abs(der - chain_derivative(f, z, d)[n]) <= 1e-13 * size


def test_domain_errors():
    for d in (2, 3):
        with pytest.raises(BesselDomainError):
            bessel(d, 0, 0.0)
        with pytest.raises(BesselDomainError):
            chain(d, 0, 0.0)
    with pytest.raises(BesselDomainError):
        bessel(2, 201, 1.0)
    with pytest.raises(BesselDomainError):
        bessel(2, 0, 2.0e4)


def test_overflow_error_on_singular_recurrence():
    with pytest.raises(BesselOverflowError):
        chain(2, 181, 0.05)
    with pytest.raises(BesselOverflowError):
        chain(3, 181, 0.05)


# -- root finder -------------------------------------------------------------


def test_find_root_tan_fixed_point():
    root = find_root(lambda t: math.tan(t) - t, (4.2, 4.6))
    assert abs(root - TAN_FIXED_POINT) < 1e-10


def test_find_root_linear():
    assert find_root(lambda t: t - 1.0, (0.0, 2.0)) == pytest.approx(1.0, abs=1e-14)


def test_find_root_j1_series():
    root = find_root(j1_series, (3.0, 4.0))
    assert abs(root - J1_FIRST_ZERO) < 1e-10


def test_find_root_bracket_error():
    with pytest.raises(BracketError):
        find_root(lambda t: t * t + 1.0, (-1.0, 1.0))


def test_find_root_one_ulp_bracket_returns_better_endpoint():
    # a sign change between adjacent floats with |f| far above the
    # tolerance: the bracket cannot shrink further, so the endpoint with the
    # smaller |f| is the root to working precision
    c = 8.306601948455883
    got = find_root(lambda t: 1.0 if t >= c else -2.0, (8.0, 9.0))
    assert got == c
    got = find_root(lambda t: 2.0 if t >= c else -1.0, (8.0, 9.0))
    assert got == math.nextafter(c, 0.0)


def test_find_root_tolerances():
    calls = []

    def f(t):
        calls.append(t)
        return math.cos(t)

    root = find_root(f, (1.0, 2.0))
    assert abs(root - math.pi / 2.0) < 1e-13
    assert len(calls) <= 16


@settings(max_examples=40, deadline=None)
@given(
    root=st.floats(min_value=-5.0, max_value=5.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_find_root_property_cubic(root, scale):
    f = lambda t: scale * (t - root) ** 3 + 0.3 * (t - root)
    got = find_root(f, (root - 1.7, root + 2.1))
    assert abs(got - root) <= 1e-9 * max(1.0, abs(root))


# (target, bracket, root): a flat high-order root, a cubic with a lopsided
# bracket, a jump, a near-jump and a steep exponential
_ADVERSARIAL_ROOTS = {
    "t^15": (lambda t: t**15, (-1.0, 2.0), 0.0),
    "t^3": (lambda t: t**3, (-1e-3, 1.0), 0.0),
    "step": (lambda t: 1.0 if t >= 1.0 / 3.0 else -1.0, (0.0, 1.0), 1.0 / 3.0),
    "atan": (lambda t: math.atan(1e8 * (t - 0.3)), (0.0, 1.0), 0.3),
    "exp": (lambda t: math.exp(40.0 * t) - 1.0, (-1.0, 1.0), 0.0),
}


@pytest.mark.parametrize("name", sorted(_ADVERSARIAL_ROOTS))
def test_find_root_adversarial_budget(name):
    f, bracket, want = _ADVERSARIAL_ROOTS[name]
    calls = []

    def target(t):
        calls.append(t)
        return f(t)

    got = find_root(target, bracket)
    assert len(calls) <= 60
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def _mean_evaluations(monkeypatch, run) -> float:
    """Mean target evaluations per find_root call that mie makes during run()."""
    from cloakwave import mie

    counts = []

    def counting(f, bracket):
        counts.append(0)

        def target(t):
            counts[-1] += 1
            return f(t)

        return find_root(target, bracket)

    monkeypatch.setattr(mie, "find_root", counting)
    run()
    return sum(counts) / len(counts)


@pytest.mark.parametrize("d, k_max", [(2, 8.0), (3, 12.0)])
def test_find_root_catalogue_window_budget(monkeypatch, d, k_max):
    from cloakwave.mie import detect_resonances

    mean = _mean_evaluations(monkeypatch, lambda: detect_resonances(d, 1.0, 1.5, (0.5, k_max), 6))
    assert mean <= 14


@pytest.mark.parametrize("d", [2, 3])
def test_find_root_exact_tuning_budget(monkeypatch, d):
    # the roots of one instability sweep: kappa*, then eps = 1e-2 ... 1e-5
    from cloakwave.mie import first_resonance, tune_sigma

    def run():
        spec = first_resonance(d, 1.0)
        for i in range(7):
            tune_sigma(d, 1.0, 10.0 ** (-2.0 - 0.5 * i), spec.kappa_star)

    assert _mean_evaluations(monkeypatch, run) <= 14


@pytest.mark.parametrize("d", [2, 3])
def test_scalar_chain_gives_one_dimensional_orders(d):
    # a scalar z gives the scalar kernel's own 1-D arrays of orders, bit for
    # bit; an array of z gives (orders, len(z)) columns
    for z in (1.7, 0.3 + 0.2j, 25.0, 1e-25):
        got = chain(d, 6, z)
        want = specfun._scalar_chain(d, 6, z, True)
        for g, w in zip(got, want):
            assert g.shape == (7,) and g.tobytes() == w.tobytes()
        assert chain(d, 6, z, singular=False)[0].tobytes() == want[0].tobytes()
        assert chain(d, 6, [z])[0].shape == (7, 1)


@pytest.mark.parametrize("d", [2, 3])
def test_partial_chain_ends_at_last_representable_order(d):
    from cloakwave.specfun import chain

    for z in (0.05, 0.3):
        reg, sing = chain(d, 180, z, partial=True)
        last = len(sing) - 1
        assert len(reg) == 181 and 0 < last < 180
        full = chain(d, last, z)[1]   # up to the last order: no error
        assert np.allclose(full, sing, rtol=1e-13, atol=0.0)
        with pytest.raises(BesselOverflowError):
            chain(d, last + 1, z)


# -- small arguments -------------------------------------------------------------


def _mp_regular(d, n, z):
    if d == 2:
        return mp.besselj(n, z)
    return mp.sqrt(mp.pi / (2 * mp.mpf(z))) * mp.besselj(n + mp.mpf(0.5), z)


@pytest.mark.parametrize("d", [2, 3])
def test_small_argument_regular_family_matches_mpmath(d):
    # below |z| = 1e-20 the leading term; 3d below |z| = 1 normalizes against j_0
    orders = (0, 1, 2, 3, 7, 20, 50, 100, 200)
    for z in np.geomspace(1e-8, 1e-300, 120):
        scalar = chain(d, 200, z, singular=False)[0]
        block = specfun.array_chain(d, 200, [z, 1.5, 1j * z], singular=False)[0][:, 0]
        for n in orders:
            want = _mp_regular(d, n, z)
            for got in (scalar[n], block[n]):
                if abs(want) < 1e-300 and abs(got) < 2.3e-308:
                    continue   # zero or subnormal where the value underflows
                assert abs(got - complex(want)) <= 1e-13 * abs(want), (n, z)


@pytest.mark.parametrize("d", [2, 3])
def test_small_argument_singular_family(d):
    # y_1 = y_0 / z in 3d below 1e-20 (z^2 underflows from ~1e-162); an order
    # past the overflow limit raises or ends a partial chain
    for z in (1e-25, 1e-100, 1e-139):
        sing = chain(d, 1, z)[1]
        for n in (0, 1):
            if d == 2:
                want = mp.bessely(n, z)
            else:
                want = mp.sqrt(mp.pi / (2 * mp.mpf(z))) * mp.bessely(n + mp.mpf(0.5), z)
            assert abs(sing[n] - complex(want)) <= 1e-13 * abs(want)
    for z in (1e-150, 1e-200, 1e-300, 5e-324):
        with pytest.raises(BesselOverflowError):
            chain(d, 5, z)
        sing = chain(d, 5, z, partial=True)[1]
        assert len(sing) < 6 and np.all(np.isfinite(sing))
        assert np.all(np.isfinite(chain(d, 5, z, singular=False)[0]))


def test_miller_chain_keeps_the_loop_reference_bits():
    # random orders and arguments, real and complex, both families; the
    # explicit small arguments at high order span thousands of decades, so
    # the chain rescales several times on the way down
    rng = np.random.default_rng(7)
    cases = [(200, 1e-12, False), (200, 1e-40j, True), (150, -3e-15 + 1e-15j, False), (200, 1e-30, True)]
    for _ in range(400):
        z = 10.0 ** rng.uniform(-15, math.log10(3e3))
        if rng.random() < 0.5:
            z *= cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        elif rng.random() < 0.5:
            z = -z
        cases.append((int(rng.integers(0, 201)), z, bool(rng.integers(0, 2))))
    for nmax, z, spherical in cases:
        got = specfun._miller_j_chain(nmax, complex(z), spherical)
        want = miller_j_chain_loop(nmax, complex(z), spherical)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (nmax, z, spherical)
