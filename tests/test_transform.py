"""Blow-up map, push-forward tensors, and the composed-field PDE residual.

The tensors and the residual are test oracles (tests/oracles.py): the
program solves the pulled-back problem and never evaluates them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cloakwave.errors import ValidationError
from cloakwave.fields import (
    IncidentSpec,
    auto_truncation,
    incident_coefficients,
    solve_series,
)
from cloakwave.mie import CloakConfig, Layer, virtual_medium
from cloakwave.transform import BlowupMap, map_inverse

from oracles import (
    jacobian_determinant,
    map_forward,
    map_jacobian,
    pde_residual,
    shell_tensors,
)


def test_identity_outside_radius_two():
    m = BlowupMap(0.1)
    x = np.array([3.0, 0.0, 0.0])
    assert np.array_equal(map_forward(m, x), x)
    m2 = BlowupMap(0.3)
    y = np.array([2.5, 0.3])
    assert np.array_equal(map_inverse(m2, y), y)


def test_blowup_branch():
    m = BlowupMap(0.1)
    assert np.allclose(map_forward(m, [0.05, 0.0, 0.0]), [0.5, 0.0, 0.0], rtol=1e-15)


def test_interface_continuity_both_branches():
    m = BlowupMap(0.5)
    inner = 0.5 / 0.5
    shell = (2.0 - 1.0) / (2.0 - 0.5) + 0.5 / (2.0 - 0.5)
    assert abs(inner - shell) < 1e-14
    # outer interface
    shell2 = (2.0 - 1.0) / (2.0 - 0.5) + 2.0 / (2.0 - 0.5)
    assert abs(shell2 - 2.0) < 1e-14


def test_inverse_shell_example():
    m = BlowupMap(0.1)
    y = map_inverse(m, [1.5, 0.0, 0.0])
    assert abs(y[0] - 1.05) < 1e-13
    back = map_forward(m, y)
    assert abs(back[0] - 1.5) < 1e-13


def test_inverse_unit_sphere_hits_inner_ball():
    m = BlowupMap(0.1)
    x = map_inverse(m, [1.0, 0.0])
    assert abs(np.linalg.norm(x) - 0.1) < 1e-15


def test_roundtrip_all_branches():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        for eps in (0.5, 0.1, 0.01):
            m = BlowupMap(eps)
            for _ in range(334):
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                r = rng.uniform(1e-3, 3.0)
                x = u * r
                y = map_forward(m, x)
                back = map_inverse(m, y)
                assert np.linalg.norm(back - x) <= 1e-13 * max(1.0, r)


@settings(max_examples=80, deadline=None)
@given(
    eps=st.floats(min_value=0.01, max_value=1.0),
    r=st.floats(min_value=1e-6, max_value=5.0),
    d=st.sampled_from([2, 3]),
)
def test_roundtrip_property(eps, r, d):
    m = BlowupMap(eps)
    x = np.zeros(d)
    x[0] = r
    y = map_forward(m, x)
    back = map_inverse(m, y)
    assert abs(back[0] - r) <= 1e-13 * max(1.0, r)


def test_limit_map_pointwise_convergence():
    # |F_eps(x) - F_0(x)| <= C * eps uniformly on 0.5 <= |x| <= 3
    m0 = BlowupMap(0.0)
    for eps in (1e-2, 1e-3):
        m = BlowupMap(eps)
        worst = 0.0
        for r in np.linspace(0.5, 3.0, 200):
            x = np.array([r, 0.0, 0.0])
            diff = np.linalg.norm(map_forward(m, x) - map_forward(m0, x))
            worst = max(worst, diff)
        assert worst <= 3.0 * eps


def test_epsilon_outside_unit_interval_rejected():
    for eps in (-0.1, 1.5):
        with pytest.raises(ValidationError):
            BlowupMap(eps)


def test_limit_map_origin_and_tensors_rejected():
    m0 = BlowupMap(0.0)
    with pytest.raises(ValidationError):
        map_forward(m0, [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        shell_tensors(m0, 3, 1.5)
    with pytest.raises(ValidationError):
        map_inverse(m0, [0.5, 0.0, 0.0])


def test_identity_map_tensors():
    m = BlowupMap(1.0)
    for t in (1.2, 1.5, 1.9):
        ten = shell_tensors(m, 3, t)
        assert ten.radial_a == pytest.approx(1.0, abs=1e-14)
        assert ten.tangential_a == pytest.approx(1.0, abs=1e-14)
        assert ten.sigma_c == pytest.approx(1.0, abs=1e-14)


def test_tensors_match_dense_pushforward():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        for eps in (0.4, 0.1, 0.01):
            m = BlowupMap(eps)
            for _ in range(10):
                t = rng.uniform(1.01, 1.99)
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                x = map_inverse(m, u * t)
                jac = map_jacobian(m, x)
                det = float(np.linalg.det(jac))
                dense = jac @ jac.T / det
                eig = np.sort(np.linalg.eigvalsh(dense))
                ten = shell_tensors(m, d, t)
                mine = np.sort([ten.radial_a] + [ten.tangential_a] * (d - 1))
                assert np.allclose(eig, mine, rtol=1e-12)
                assert abs(ten.sigma_c - 1.0 / det) <= 1e-12 * ten.sigma_c
                r = float(np.linalg.norm(x))
                assert abs(det - jacobian_determinant(m, d, r)) <= 1e-12 * det


def test_jacobian_matches_finite_differences():
    # fully independent check of the analytic Jacobian itself
    m = BlowupMap(0.2)
    x = np.array([0.9, 0.4, -0.3])
    h = 1e-6
    fd = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd[:, j] = (map_forward(m, x + e) - map_forward(m, x - e)) / (2.0 * h)
    assert np.allclose(fd, map_jacobian(m, x), rtol=1e-7, atol=1e-9)


def test_degenerate_radial_eigenvalue_near_inner_boundary():
    m = BlowupMap(0.01)
    ten = shell_tensors(m, 3, 1.001)
    assert 0.0 < ten.radial_a < 1e-2
    assert ten.tangential_a > 0.5


def test_shell_tensor_domain():
    m = BlowupMap(0.1)
    with pytest.raises(ValidationError):
        shell_tensors(m, 3, 0.99)
    with pytest.raises(ValidationError):
        shell_tensors(m, 3, 2.01)


# -- PDE residual ------------------------------------------------------------


def _composed_field(d: int, eps: float, k: float = 1.0):
    axis = (0.0,) * (d - 1) + (1.0,)
    cfg = CloakConfig(d, k, eps, (Layer(1.0, 1.0, 1.0),))
    spec = IncidentSpec("plane_wave", direction=axis)
    b = incident_coefficients(spec, k, auto_truncation(spec, k, d), d)
    return solve_series(
        virtual_medium(cfg), k, b, epsilon=eps, axis=axis
    )


def _shell_points(d: int, count: int, lo: float = 1.15, hi: float = 1.9, seed: int = 5):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        pts.append(u * rng.uniform(lo, hi))
    return pts


def test_residual_identity_map_is_discretization_error():
    ser = _composed_field(3, 1.0)
    m = BlowupMap(1.0)
    pts = _shell_points(3, 5)
    r1 = pde_residual(ser, m, pts, 2e-3)
    r2 = pde_residual(ser, m, pts, 1e-3)
    assert r1 < 1e-4
    assert 3.0 < r1 / r2 < 5.0


def test_residual_composed_cloak_field():
    ser = _composed_field(3, 0.2)
    m = BlowupMap(0.2)
    pts = _shell_points(3, 20)
    res = pde_residual(ser, m, pts, 1e-3)
    assert res <= 1e-3


def test_residual_2d_composed_field():
    ser = _composed_field(2, 0.2)
    m = BlowupMap(0.2)
    pts = _shell_points(2, 8)
    res = pde_residual(ser, m, pts, 1e-3)
    assert res <= 1e-3
    assert 3.0 < res / pde_residual(ser, m, pts, 5e-4) < 5.0


def test_residual_quadratic_shrink():
    ser = _composed_field(3, 0.2)
    m = BlowupMap(0.2)
    pts = _shell_points(3, 5)
    r1 = pde_residual(ser, m, pts, 2e-3)
    r2 = pde_residual(ser, m, pts, 1e-3)
    assert 3.0 < r1 / r2 < 5.0


def test_residual_detects_non_solution():
    class Constant:
        k = 1.0

        def eval_many(self, x):
            return np.ones(len(x), dtype=complex)

    m = BlowupMap(0.2)
    pts = _shell_points(3, 3)
    res = pde_residual(Constant(), m, pts, 1e-3)
    # scaled residual of a constant is k^2 Sigma_c, an order-one number
    sigs = [shell_tensors(m, 3, float(np.linalg.norm(p))).sigma_c for p in pts]
    assert res == pytest.approx(max(sigs), rel=1e-4)
    # a genuine residual does not shrink when the step is halved
    assert pde_residual(Constant(), m, pts, 5e-4) / res == pytest.approx(1.0, abs=1e-3)


def test_residual_validation():
    ser = _composed_field(3, 0.2)
    m = BlowupMap(0.2)
    with pytest.raises(ValidationError):
        pde_residual(ser, m, [[1.5, 0.0, 0.0]], 5e-2)
    with pytest.raises(ValidationError):
        pde_residual(ser, m, [[1.001, 0.0, 0.0]], 1e-3)
