"""Deterministic adaptive quadrature on an interval.

Composite Gauss-Legendre with fixed node count per panel and uniform panel
doubling until two successive refinements agree; refinement order is fixed,
so results are bit-reproducible across runs and thread schedules.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
BATCH_NODES = 1024   # nodes per integrand call; bounds the integrand's arrays on deep levels
REL_TOL = 1e-11      # relative agreement of successive refinement levels
MAX_PANELS = 1024


def _composite(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int):
    # one integrand call per BATCH_NODES nodes of the level; panel sums added left to right
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _NODES).ravel()
    vals = np.concatenate(
        [np.asarray(f(x[i : i + BATCH_NODES])) for i in range(0, x.size, BATCH_NODES)], axis=-1
    )
    sums = half * np.sum(_WEIGHTS * vals.reshape(vals.shape[:-1] + (panels, len(_NODES))), axis=-1)
    return np.cumsum(sums.astype(complex), axis=-1)[..., -1]


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Integrate a smooth vectorized integrand over [a, b].

    f maps an array of nodes to their values, or to a (components, nodes)
    array for a vector-valued integrand; the result is a complex number or
    a complex array of the components.  Each refinement level costs one
    call of f per BATCH_NODES nodes (up to 64 panels).  Panels double, up
    to MAX_PANELS, until successive estimates differ by less than REL_TOL in
    relative terms for every component (absolute floor 1e-300 guards zero
    integrals).
    """
    if b <= a:
        return 0.0 + 0.0j
    prev = _composite(f, a, b, 1)
    panels = 2
    while panels <= MAX_PANELS:
        cur = _composite(f, a, b, panels)
        if np.all(np.abs(cur - prev) <= REL_TOL * np.maximum(np.abs(cur), 1e-300) + 1e-300):
            return cur[()]
        prev = cur
        panels *= 2
    raise QuadratureError(
        f"quadrature on [{a}, {b}] did not converge within {MAX_PANELS} panels"
    )
