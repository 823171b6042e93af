"""Regularized blow-up map, its inverse and Jacobian, and the shell tensors.

The map expands the ball of radius eps onto the unit ball, shears the
annulus between eps and 2 onto the cloak shell (1, 2), and fixes everything
outside radius 2.  All branches are radial, so the push-forward material
tensors are diagonal in the radial/tangential eigenbasis; the closed forms
used here are cross-validated in the tests against a dense matrix
evaluation of DF A DF^T / det DF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

OUTER_RADIUS = 2.0


@dataclass(frozen=True)
class BlowupMap:
    """Radial change of variables; epsilon = 0 denotes the limit map."""

    epsilon: float
    dimension: int

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValidationError(f"dimension must be 2 or 3, got {self.dimension}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class ShellTensors:
    """Eigenvalues of the push-forward stiffness and the scalar density."""

    radial_a: float
    tangential_a: float
    sigma_c: float


def radial_forward(m: BlowupMap, r: float) -> float:
    """Image radius of the piecewise radial map."""
    eps = m.epsilon
    if r >= OUTER_RADIUS:
        return r
    if eps == 0.0:
        if r == 0.0:
            raise ValidationError("the limit map is undefined at the origin")
        return 1.0 + 0.5 * r
    if r <= eps:
        return r / eps
    return (2.0 - 2.0 * eps) / (2.0 - eps) + r / (2.0 - eps)


def inverse_branch(m: BlowupMap, t) -> tuple[np.ndarray, np.ndarray]:
    """Slope and offset of the inverse map's affine branch at each radius t.

    The preimage radius of t (the inverse of radial_forward) is
    slope * t + offset: t outside radius 2, eps t on the blown-up ball and
    ((2 - eps) t - (2 - 2 eps)) on the shell between.
    """
    eps = m.epsilon
    t = np.asarray(t, dtype=float)
    if eps == 0.0:
        if np.any(t <= 1.0):
            raise ValidationError(
                "the limit map has no preimage at radii <= 1 (blown-up region)"
            )
        shell = (2.0, -2.0)
    else:
        shell = (2.0 - eps, -(2.0 - 2.0 * eps))
    outer, inner = t >= OUTER_RADIUS, t <= 1.0
    slope = np.where(outer, 1.0, np.where(inner, eps, shell[0]))
    offset = np.where(outer | inner, 0.0, shell[1])
    return slope, offset


def radii(y: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (N, d) array, each from its own row alone."""
    return np.sqrt(sum(y[:, i] * y[:, i] for i in range(y.shape[1])))


def map_forward(m: BlowupMap, x) -> np.ndarray:
    """Apply the map to a point of the virtual domain."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        if m.epsilon == 0.0:
            raise ValidationError("the limit map is undefined at the origin")
        return x.copy()
    return x * (radial_forward(m, r) / r)


def map_inverse(m: BlowupMap, y) -> np.ndarray:
    """Apply the inverse map to a physical point or to each row of an (N, d) array."""
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(y)
    t = radii(rows)
    scale = np.ones_like(t)
    pos = t > 0.0
    slope, offset = inverse_branch(m, t[pos])
    scale[pos] = (slope * t[pos] + offset) / t[pos]
    return (rows * scale[:, None]).reshape(y.shape)


def map_jacobian(m: BlowupMap, x) -> np.ndarray:
    """Dense Jacobian DF at a virtual-domain point (off the interface set)."""
    x = np.asarray(x, dtype=float)
    d = m.dimension
    r = float(np.linalg.norm(x))
    eps = m.epsilon
    if r == 0.0 or r == eps or r == OUTER_RADIUS:
        raise ValidationError("Jacobian requested on an interface or at the origin")
    if r > OUTER_RADIUS:
        return np.eye(d)
    if eps == 0.0:
        drho, rho = 0.5, 1.0 + 0.5 * r
    elif r < eps:
        drho, rho = 1.0 / eps, r / eps
    else:
        drho = 1.0 / (2.0 - eps)
        rho = (2.0 - 2.0 * eps) / (2.0 - eps) + r / (2.0 - eps)
    xhat = x / r
    proj = np.outer(xhat, xhat)
    return drho * proj + (rho / r) * (np.eye(d) - proj)


def jacobian_determinant(m: BlowupMap, r: float) -> float:
    """det DF as a function of the virtual radius (radial closed form)."""
    d = m.dimension
    eps = m.epsilon
    if r > OUTER_RADIUS:
        return 1.0
    if eps == 0.0:
        return 0.5 * ((1.0 + 0.5 * r) / r) ** (d - 1)
    if r < eps:
        return eps ** (-d)
    drho = 1.0 / (2.0 - eps)
    rho = (2.0 - 2.0 * eps) / (2.0 - eps) + r / (2.0 - eps)
    return drho * (rho / r) ** (d - 1)


def shell_tensors(m: BlowupMap, physical_radius: float) -> ShellTensors:
    """Push-forward stiffness eigenvalues and density inside the cloak shell.

    Valid strictly inside the shell (1 < radius < 2) and only for eps > 0;
    the limit-map tensors are singular and deliberately unsupported.
    """
    if m.epsilon == 0.0:
        raise ValidationError("shell tensors are singular for the limit map")
    t = float(physical_radius)
    if not 1.0 < t < OUTER_RADIUS:
        raise ValidationError(f"physical radius {t} outside the shell (1, 2)")
    eps = m.epsilon
    d = m.dimension
    r = (2.0 - eps) * t - (2.0 - 2.0 * eps)
    drho = 1.0 / (2.0 - eps)
    ratio = r / t
    radial = drho * ratio ** (d - 1)
    tangential = (1.0 / ratio) ** (3 - d) / drho
    sigma = ratio ** (d - 1) / drho
    return ShellTensors(radial_a=radial, tangential_a=tangential, sigma_c=sigma)


def shell_stiffness_matrix(m: BlowupMap, y) -> np.ndarray:
    """Cartesian matrix of the shell stiffness at a physical point."""
    y = np.asarray(y, dtype=float)
    t = float(np.linalg.norm(y))
    ten = shell_tensors(m, t)
    yhat = y / t
    proj = np.outer(yhat, yhat)
    return ten.radial_a * proj + ten.tangential_a * (np.eye(m.dimension) - proj)


def _residual_at(field, m: BlowupMap, y: np.ndarray, h: float, k: float) -> tuple[float, float]:
    """(|div(A grad u) + k^2 Sigma u|, local scale) at one shell point."""
    d = m.dimension
    eye = np.eye(d)

    def grad_u(p: np.ndarray) -> np.ndarray:
        return np.array(
            [(field.eval(p + h * eye[i]) - field.eval(p - h * eye[i])) / (2.0 * h) for i in range(d)]
        )

    div = 0.0 + 0.0j
    umax = abs(field.eval(y))
    for i in range(d):
        yp = y + h * eye[i]
        ym = y - h * eye[i]
        gp = shell_stiffness_matrix(m, yp) @ grad_u(yp)
        gm = shell_stiffness_matrix(m, ym) @ grad_u(ym)
        div += (gp[i] - gm[i]) / (2.0 * h)
        umax = max(umax, abs(field.eval(yp)), abs(field.eval(ym)))
    sig = shell_tensors(m, float(np.linalg.norm(y))).sigma_c
    u0 = field.eval(y)
    res = abs(div + k * k * sig * u0)
    # scaled by the local field magnitude: a constant field then reports
    # its genuine residual k^2 Sigma_c, while a true solution reports pure
    # discretization error
    return res, max(umax, 1e-300)


def pde_residual(field, m: BlowupMap, sample_points, h: float) -> float:
    """Maximum scaled residual of the transformed Helmholtz equation.

    Central finite differences of the composed physical field approximate
    div(A_c grad u_c) + k^2 Sigma_c u_c at each sample point; the result is
    the worst |residual| / (k^2 Sigma_c max|u| near the point).  For a true
    solution it is pure discretization error, which a caller can confirm by
    comparing two step sizes (quadratic shrink).
    """
    if not 1e-4 <= h <= 1e-2:
        raise ValidationError(f"step h = {h} outside [1e-4, 1e-2]")
    pts = [np.asarray(p, dtype=float) for p in sample_points]
    for p in pts:
        t = float(np.linalg.norm(p))
        if not (1.0 + 3.0 * h) < t < (OUTER_RADIUS - 3.0 * h):
            raise ValidationError(
                f"sample point at radius {t:.6g} closer than 3h to an interface"
            )
    worst = 0.0
    for p in pts:
        res, scale = _residual_at(field, m, p, h, field.k)
        worst = max(worst, res / scale)
    return worst
