"""Regularized blow-up map and its inverse.

The map expands the ball of radius eps onto the unit ball, shears the
annulus between eps and 2 onto the cloak shell (1, 2), and fixes everything
outside radius 2.  All branches are radial, so a field on the physical
domain is the virtual-domain field at the preimage radius of the same
direction: the program solves the pulled-back small-inclusion problem and
composes it with the inverse map, and never forms the push-forward shell
tensors.
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

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1], got {self.epsilon}")


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
