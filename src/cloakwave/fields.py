"""Incident-field expansions, truncated modal fields, norms, interior limits.

A field is a truncated sum over angular modes; for concentric media the
modes never couple, so every norm reduces to per-mode radial quadrature
through angular orthogonality (Parseval), and point evaluation to a sum of
radial profiles times Legendre polynomials (3d) or cosines (2d).  Physical
domain fields are the virtual series composed with the inverse blow-up
map, and agree with it identically outside radius 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (
    BesselOverflowError,
    InterfaceEvaluationError,
    TruncationError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .mie import (
    CloakConfig,
    LayeredMedium,
    Layer,
    ModeSolution,
    ParticularTerm,
    angular_eigenvalue,
    mode_solve,
    resonance_condition,
)
from .quadrature import integrate
from .transform import BlowupMap, map_inverse, radial_inverse, radii

TAIL_TOL = 1e-14
_INTERFACE_TOL = 1e-12

POINT_SOURCE_RADIUS_RANGE = (2.5, 4.5)


def default_truncation(k: float, r_max: float) -> int:
    """Modal cutoff past the Debye turning point plus safety margin."""
    return int(math.ceil(math.e * k * r_max / 2.0)) + 15


def auto_truncation(
    spec: "IncidentSpec", k: float, dimension: int, r_eval: float | None = None
) -> int:
    """Smallest truncation at or above the default meeting the tail criterion."""
    n = default_truncation(k, r_eval if r_eval is not None else 4.0)
    if spec.kind == "mode":
        return max(n, spec.mode)
    while n <= specfun.ORDER_CAP:
        try:
            incident_coefficients(spec, k, n, dimension, r_eval)
            return n
        except TruncationError:
            n += 4
    raise TruncationError(
        f"tail criterion unreachable below order cap {specfun.ORDER_CAP}"
    )


@dataclass(frozen=True)
class IncidentSpec:
    """Incident field descriptor: plane wave, point source, or single mode."""

    kind: str
    amplitude: complex = 1.0 + 0.0j
    direction: tuple[float, ...] | None = None
    location: tuple[float, ...] | None = None
    mode: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("plane_wave", "point_source", "mode"):
            raise ValidationError(f"unknown incident kind {self.kind!r}")
        if self.kind == "plane_wave":
            if self.direction is None or not np.linalg.norm(self.direction) > 0:
                raise ValidationError("plane wave needs a nonzero direction")
        if self.kind == "point_source":
            if self.location is None:
                raise ValidationError("point source needs a location")
            r0 = float(np.linalg.norm(self.location))
            lo, hi = POINT_SOURCE_RADIUS_RANGE
            if not lo < r0 < hi:
                raise ValidationError(
                    f"point source radius {r0:.3g} outside ({lo}, {hi})"
                )
        if self.kind == "mode" and self.mode < 0:
            raise ValidationError("mode index must be nonnegative")

    @property
    def axis(self) -> np.ndarray:
        """Symmetry axis of the incident field (unit vector)."""
        if self.kind == "plane_wave":
            v = np.asarray(self.direction, dtype=float)
        elif self.kind == "point_source":
            v = np.asarray(self.location, dtype=float)
        else:
            return None
        return v / np.linalg.norm(v)


def incident_coefficients(
    spec: IncidentSpec, k: float, n_max: int, dimension: int, r_eval: float | None = None
) -> np.ndarray:
    """Modal coefficients reproducing the incident field up to order n_max.

    Plane waves use the Jacobi-Anger / Rayleigh expansions, point sources
    the addition theorems for the free-space kernel, which converge only
    at radii below the source radius; their tail criterion is therefore
    checked at radius 2 (covering the scatterer and the shell) rather
    than the default probe radius 4.  Raises TruncationError when the
    tail at r_eval is not negligible.
    """
    d = dimension
    if r_eval is None:
        r_eval = 2.0 if spec.kind == "point_source" else 4.0
    amp = complex(spec.amplitude)
    b = np.zeros(n_max + 1, dtype=complex)
    ns = np.arange(n_max + 1)
    if spec.kind == "plane_wave":
        if d == 3:
            b[:] = amp * (1j**ns) * (2 * ns + 1)
        else:
            b[:] = amp * (1j**ns)
    elif spec.kind == "point_source":
        r0 = float(np.linalg.norm(spec.location))
        if d == 3:
            out = specfun.sph_chain(n_max, k * r0)
            h = out[0] + 1j * out[1]
            b[:] = amp * (1j * k / (4.0 * math.pi)) * (2 * ns + 1) * h
        else:
            j, y = specfun.cyl_chain(n_max, k * r0)
            b[:] = amp * (0.25j) * (j + 1j * y)
    else:
        if spec.mode > n_max:
            raise TruncationError(
                f"requested single mode {spec.mode} above truncation {n_max}"
            )
        b[spec.mode] = amp
    _check_incident_tail(b, d, k, r_eval)
    return b


def _regular_chain(d: int, n_max: int, z: complex) -> np.ndarray:
    if d == 3:
        return specfun._sph_j_only(n_max, complex(z))
    return specfun._cyl_j_chain_full(n_max, complex(z))[: n_max + 1]


def _chain_derivative(f: np.ndarray, z: complex, shift: float) -> np.ndarray:
    """Argument-derivatives of orders 0..N from a chain f_0..f_(N+1).

    f'_n = f_(n-1) - (n + shift)/z f_n, with shift 0 (cylindrical) or 1
    (spherical), and f'_0 = -f_1.
    """
    der = np.empty(len(f) - 1, dtype=complex)
    der[0] = -f[1]
    der[1:] = f[:-2] - ((np.arange(1, len(f) - 1) + shift) / z) * f[1:-1]
    return der


def _check_incident_tail(b: np.ndarray, d: int, k: float, r_eval: float) -> None:
    n_max = len(b) - 1
    reg = _regular_chain(d, n_max, k * r_eval)
    mags = np.abs(b * reg)
    top = float(np.max(mags))
    if top > 0 and mags[-1] > TAIL_TOL * top:
        raise TruncationError(
            f"incident tail |b_N R_N| = {mags[-1]:.3e} exceeds "
            f"{TAIL_TOL:.0e} x max modal magnitude {top:.3e}; increase truncation"
        )


# ---------------------------------------------------------------------------
# field series


def mode_weight(d: int, n: int) -> float:
    """Angular Parseval weight of mode n (monopole weight = full solid angle)."""
    if d == 3:
        return 4.0 * math.pi / (2 * n + 1)
    return 2.0 * math.pi * (1.0 if n == 0 else 2.0)


@dataclass(frozen=True)
class FieldSeries:
    """Truncated modal field over a layered medium.

    domain "virtual" evaluates the series directly; "physical" composes it
    with the inverse blow-up map of the stored epsilon, which leaves all
    values outside radius 2 unchanged.  The angular structure is symmetric
    about `axis` (monopole coefficients times Legendre / cosine factors).
    """

    dimension: int
    k: float
    truncation: int
    modes: tuple[ModeSolution, ...]
    medium: LayeredMedium
    domain: str = "virtual"
    epsilon: float | None = None
    axis: tuple[float, ...] | None = None
    valid_radius: float | None = None

    def __post_init__(self) -> None:
        if self.domain not in ("virtual", "physical"):
            raise ValidationError(f"unknown domain tag {self.domain!r}")
        if self.domain == "physical" and not (self.epsilon and self.epsilon > 0):
            raise ValidationError("physical domain requires epsilon > 0")
        if len(self.modes) != self.truncation + 1:
            raise ValidationError("modes must cover orders 0..truncation")

    @property
    def k_exterior(self) -> float:
        return self.medium.exterior_wavenumber(self.k)

    def _axis(self) -> np.ndarray:
        if self.axis is not None:
            return np.asarray(self.axis, dtype=float)
        e = np.zeros(self.dimension)
        e[0] = 1.0
        return e

    # -- radial profiles ---------------------------------------------------

    def _layer_of(self, r: float) -> int:
        for i, lay in enumerate(self.medium.layers):
            if abs(r - lay.radius) <= _INTERFACE_TOL * max(1.0, lay.radius):
                raise InterfaceEvaluationError(
                    f"evaluation at interface radius {lay.radius}"
                )
            if r < lay.radius:
                return i
        return len(self.medium.layers)

    def _layer_basis(self, idx: int) -> tuple[complex, np.ndarray, np.ndarray, bool]:
        """(wavenumber, regular and singular coefficients, outgoing?) of a layer.

        Index len(layers) is the exterior, whose singular basis is outgoing.
        """
        if idx == len(self.medium.layers):
            co = np.array([m.b_n for m in self.modes])
            cs = np.array([m.alpha_n for m in self.modes])
            return self.medium.exterior_wavenumber(self.k), co, cs, True
        co = np.array([m.layer_coeffs[idx][0] for m in self.modes])
        cs = np.array([m.layer_coeffs[idx][1] for m in self.modes])
        return self.medium.wavenumber(self.k, idx), co, cs, False

    def radial_all(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """(values, derivatives) of every mode's radial profile at radius r."""
        d = self.medium.dimension
        n_max = self.truncation
        idx = self._layer_of(r)
        kap, co, cs, outgoing = self._layer_basis(idx)
        if r == 0.0:
            # only the monopole survives at the center (regular basis = 1)
            vals = np.zeros(n_max + 1, dtype=complex)
            ders = np.zeros(n_max + 1, dtype=complex)
            vals[0] = co[0]
            for m in self.modes:
                if m.particular is not None:
                    pv, pd = m.particular.eval(0.0)
                    vals[m.n] += pv
                    ders[m.n] += pd
            return vals, ders
        z = kap * r
        need_sing = bool(np.any(cs != 0))
        if d == 3:
            shift = 1.0
            if need_sing:
                jc, yc = specfun.sph_chain(n_max + 1, z)
            else:
                jc = specfun._sph_j_only(n_max + 1, complex(z))
                yc = np.zeros_like(jc)
        else:
            shift = 0.0
            if need_sing:
                jc, yc = specfun.cyl_chain(n_max + 1, z)
            else:
                jc = specfun._cyl_j_chain_full(n_max + 1, complex(z))[: n_max + 2]
                yc = np.zeros_like(jc)
        sing = (jc + 1j * yc) if outgoing else yc
        reg = jc
        ns = np.arange(n_max + 1)
        reg_d = np.empty(n_max + 1, dtype=complex)
        sing_d = np.empty(n_max + 1, dtype=complex)
        reg_d[0] = -reg[1]
        sing_d[0] = -sing[1]
        if n_max >= 1:
            fac = (ns[1:] + shift) / z
            reg_d[1:] = reg[0:n_max] - fac * reg[1 : n_max + 1]
            sing_d[1:] = sing[0:n_max] - fac * sing[1 : n_max + 1]
        vals = co * reg[: n_max + 1] + cs * sing[: n_max + 1]
        ders = kap * (co * reg_d + cs * sing_d)
        if idx == 0:
            for m in self.modes:
                if m.particular is not None:
                    pv, pd = m.particular.eval(r)
                    vals[m.n] += pv
                    ders[m.n] += pd
        return vals, ders

    def radial(self, n: int, r: float) -> tuple[complex, complex]:
        vals, ders = self.radial_all(r)
        return complex(vals[n]), complex(ders[n])

    # -- point evaluation ----------------------------------------------------

    def _to_virtual(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Virtual-domain images of the rows of x and their radii.

        Rejects, with eval's errors, rows beyond valid_radius, on a branch
        radius of the map (physical domain) or on a layer interface.
        """
        t = radii(x)
        if self.valid_radius is not None and np.any(t >= self.valid_radius):
            raise ValidationError(
                f"series only converges inside radius {self.valid_radius:.3g} "
                "(point-source expansion region)"
            )
        xv = x
        if self.domain == "physical":
            for b in (1.0, 2.0):
                if np.any(np.abs(t - b) <= _INTERFACE_TOL * max(1.0, b)):
                    raise InterfaceEvaluationError(
                        f"physical evaluation on map branch radius {b}"
                    )
            xv = map_inverse(BlowupMap(self.epsilon, self.dimension), x)
        r = radii(xv)
        for lay in self.medium.layers:
            if np.any(np.abs(r - lay.radius) <= _INTERFACE_TOL * max(1.0, lay.radius)):
                raise InterfaceEvaluationError(f"evaluation at interface radius {lay.radius}")
        return xv, r

    def eval(self, x) -> complex:
        """Field value at a point (physical tag composes with the inverse map)."""
        xv, r = self._to_virtual(np.asarray(x, dtype=float)[None])
        r = float(r[0])
        vals, _ = self.radial_all(r)
        if r == 0.0:
            return complex(vals[0])
        cosg = min(1.0, max(-1.0, float(np.dot(xv[0] / r, self._axis()))))
        return complex(np.sum(vals * self._angular(cosg)))

    def _angular(self, c):
        """Angular factor of every mode, by rows, at c = cos(angle to the axis).

        Legendre polynomials P_n(c) in 3d; in 2d the cosines T_n(c) of the
        multiples of the angle, doubled from mode 1 on (both signs of n).
        """
        ang = np.empty((self.truncation + 1,) + np.shape(c))
        ang[0] = 1.0
        if self.truncation >= 1:
            ang[1] = c
        if self.dimension == 3:
            for n in range(1, self.truncation):
                ang[n + 1] = ((2 * n + 1) * c * ang[n] - n * ang[n - 1]) / (n + 1)
            return ang
        for n in range(1, self.truncation):
            ang[n + 1] = 2.0 * c * ang[n] - ang[n - 1]
        ang[1:] *= 2.0
        return ang

    def eval_many(self, points) -> np.ndarray:
        """Field values at the rows of a (P, d) array, as eval gives them.

        Points are mapped to the virtual domain and grouped by layer; each
        group costs one array-argument chain (specfun.array_chain) and one
        angular recurrence, and a row's value does not depend on the other
        rows.  A block holding a point eval rejects raises eval's error; the
        origin is left to eval.
        """
        x = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        xv, r = self._to_virtual(x)
        layer = sum(r >= lay.radius for lay in self.medium.layers)   # radii increase
        out = np.empty(len(x), dtype=complex)
        for i in np.flatnonzero(r == 0.0):
            out[i] = self.eval(x[i])
        ax = self._axis()
        for idx in range(len(self.medium.layers) + 1):
            sel = np.flatnonzero((layer == idx) & (r > 0.0))
            if not sel.size:
                continue
            kap, co, cs, outgoing = self._layer_basis(idx)
            rs = r[sel]
            need_sing = bool(np.any(cs != 0))
            reg, sing = specfun.array_chain(self.dimension, self.truncation, kap * rs, need_sing)
            vals = co[:, None] * reg
            if need_sing:
                if outgoing:
                    sing *= 1j
                    sing += reg
                vals += cs[:, None] * sing
            if idx == 0:
                for m in self.modes:
                    if m.particular is not None:
                        vals[m.n] += [m.particular.eval(float(rr))[0] for rr in rs]
            cosg = sum((xv[sel, i] / rs) * ax[i] for i in range(self.dimension))
            vals *= self._angular(np.clip(cosg, -1.0, 1.0))
            # row-wise sums over contiguous rows: the same order for any block
            out[sel] = np.sum(np.ascontiguousarray(vals.T), axis=1)
        return out

    def check_tail(self, r_max: float) -> None:
        """Enforce the truncation-tail criterion at the outer probe radius."""
        d = self.dimension
        reg = _regular_chain(d, self.truncation, self.k_exterior * r_max)
        b = np.array([m.b_n for m in self.modes])
        al = np.array([m.alpha_n for m in self.modes])
        mags = np.abs(al) + np.abs(b * reg)
        top = float(np.max(mags))
        if top > 0 and mags[-1] > TAIL_TOL * top:
            raise TruncationError(
                f"series tail {mags[-1]:.3e} exceeds {TAIL_TOL:.0e} x {top:.3e}"
            )


def solve_series(
    medium: LayeredMedium,
    k: float,
    b: np.ndarray,
    *,
    domain: str = "virtual",
    epsilon: float | None = None,
    axis: tuple[float, ...] | None = None,
    valid_radius: float | None = None,
) -> FieldSeries:
    """Mode-solve every order of an incident coefficient vector.

    Orders so deep in the evanescent regime that the singular basis
    overflows double precision at an interface (high order at a tiny
    inclusion radius) scatter nothing at working precision and keep only
    their incident part.
    """
    modes = []
    for n in range(len(b)):
        try:
            modes.append(mode_solve(medium, k, n, b[n]))
        except BesselOverflowError:
            modes.append(
                ModeSolution(
                    n=n,
                    b_n=complex(b[n]),
                    alpha_n=0.0 + 0.0j,
                    layer_coeffs=tuple(
                        (0.0 + 0.0j, 0.0 + 0.0j) for _ in medium.layers
                    ),
                )
            )
    modes = tuple(modes)
    return FieldSeries(
        dimension=medium.dimension,
        k=k,
        truncation=len(b) - 1,
        modes=modes,
        medium=medium,
        domain=domain,
        epsilon=epsilon,
        axis=axis,
        valid_radius=valid_radius,
    )


def free_series(
    d: int, k: float, b: np.ndarray, axis: tuple[float, ...] | None = None
) -> FieldSeries:
    """Incident-only series in free space (unit dummy layer, no scattering)."""
    med = LayeredMedium(d, (Layer(1.0, 1.0, 1.0),))
    modes = tuple(
        ModeSolution(n=n, b_n=complex(b[n]), alpha_n=0.0 + 0.0j,
                     layer_coeffs=((complex(b[n]), 0.0 + 0.0j),))
        for n in range(len(b))
    )
    return FieldSeries(
        dimension=d, k=k, truncation=len(b) - 1, modes=modes, medium=med, axis=axis
    )


# ---------------------------------------------------------------------------
# norms


def _split_points(series: FieldSeries, r_in: float, r_out: float) -> list[float]:
    cuts = {r_in, r_out}
    for lay in series.medium.layers:
        if r_in < lay.radius < r_out:
            cuts.add(lay.radius)
    if series.domain == "physical":
        for b in (1.0, 2.0):
            if r_in < b < r_out:
                cuts.add(b)
    return sorted(cuts)


def _mode_profiles(series: FieldSeries, which: str, reference, r: float):
    """Per-mode (value, derivative) arrays of the measured quantity at radius r."""
    d = series.dimension
    if series.domain == "physical":
        m = BlowupMap(series.epsilon, d)
        rv = radial_inverse(m, r)
        drv = 1.0 if r >= 2.0 else ((2.0 - series.epsilon) if r > 1.0 else series.epsilon)
        vals, ders = series.radial_all(rv)
        ders = ders * drv
    else:
        vals, ders = series.radial_all(r)
    if which == "total":
        return vals, ders
    if which == "scattered":
        if r < series.medium.outer_radius:
            raise ValidationError("scattered norm only defined outside the medium")
        kap = series.k_exterior
        b = np.array([m.b_n for m in series.modes])
        z = kap * r
        jc = (specfun.sph_chain if d == 3 else specfun.cyl_chain)(series.truncation + 1, z)[0]
        jd = _chain_derivative(jc, z, 1.0 if d == 3 else 0.0)
        return vals - b * jc[:-1], ders - b * kap * jd
    if which == "diff_vs_reference":
        if reference is None:
            raise ValidationError("diff_vs_reference needs a reference")
        if isinstance(reference, FieldSeries):
            rvals, rders = _mode_profiles(reference, "total", None, r)
            n = min(len(vals), len(rvals))
            dv = vals[:n] - rvals[:n]
            dd = ders[:n] - rders[:n]
            return dv, dd
        # analytic pullback of the free field through the limit map
        b, free_k = reference
        if r <= 1.0:
            raise ValidationError("free-field pullback undefined at radii <= 1")
        t0 = r if r >= 2.0 else 2.0 * (r - 1.0)
        dt0 = 1.0 if r >= 2.0 else 2.0
        full = _regular_chain(d, series.truncation + 1, free_k * t0)
        regd = _chain_derivative(full, free_k * t0, 1.0 if d == 3 else 0.0)
        gv = b * full[:-1]
        gd = b * free_k * regd * dt0
        return vals - gv, ders - gd
    raise ValidationError(f"unknown norm selector {which!r}")


def norm_annulus(
    series: FieldSeries,
    which: str,
    r_in: float,
    r_out: float,
    reference=None,
    norm: str = "l2",
    rel_tol: float = 1e-11,
) -> float:
    """L2 or full H1 norm of a field over an annulus via angular Parseval.

    which selects the measured quantity: the total field, the scattered
    part (outgoing components only, defined outside the medium), or the
    difference against a reference.  The reference is either another
    FieldSeries on the same domain or a pair (b, k) meaning the analytic
    pullback of the free incident field through the limit map (which is
    the free field itself outside radius 2).
    """
    if not 0.0 < r_in < r_out:
        raise ValidationError(f"bad annulus [{r_in}, {r_out}]")
    if norm not in ("l2", "h1"):
        raise ValidationError(f"unknown norm kind {norm!r}")
    d = series.dimension
    n_max = series.truncation
    weights = np.array([mode_weight(d, n) for n in range(n_max + 1)])
    nus = np.array([angular_eigenvalue(d, n) for n in range(n_max + 1)])

    def dens(rr: np.ndarray) -> np.ndarray:
        out = np.empty_like(rr)
        for i, r in enumerate(rr):
            vals, ders = _mode_profiles(series, which, reference, float(r))
            w = weights[: len(vals)]
            acc = float(np.sum(w * np.abs(vals) ** 2))
            if norm == "h1":
                acc += float(
                    np.sum(w * (np.abs(ders) ** 2 + nus[: len(vals)] * np.abs(vals) ** 2 / r**2))
                )
            out[i] = acc * r ** (d - 1)
        return out

    total = 0.0
    pts = _split_points(series, r_in, r_out)
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += integrate(dens, lo, hi, rel_tol=rel_tol).real
    return math.sqrt(max(total, 0.0))


def outgoing_mode_norm(
    d: int, k: float, n: int, r_in: float, r_out: float, norm: str = "l2"
) -> float:
    """Norm of a unit-coefficient outgoing mode over an annulus.

    For n = 0 this is the plain function norm of h_0(k|x|) (3d) or
    H_0(k|x|) (2d) on the annulus, the reference magnitude of the
    instability experiment.
    """
    w = mode_weight(d, n)
    nu = angular_eigenvalue(d, n)

    def dens(rr: np.ndarray) -> np.ndarray:
        out = np.empty_like(rr)
        for i, r in enumerate(rr):
            if d == 3:
                ev = specfun.sph_bessel("h1", n, k * r)
            else:
                ev = specfun.cyl_bessel("H1", n, k * r)
            acc = abs(ev.value) ** 2
            if norm == "h1":
                acc += abs(k * ev.derivative) ** 2 + nu * abs(ev.value) ** 2 / r**2
            out[i] = w * acc * r ** (d - 1)
        return out

    return math.sqrt(integrate(dens, r_in, r_out).real)


# ---------------------------------------------------------------------------
# interior limits and blown-up interior fields


@dataclass(frozen=True)
class InteriorLimit:
    """Closed-form limit of the interior field as the regularization vanishes."""

    dimension: int
    kind: str                     # "zero" | "monopole_resonant" | "neumann"
    coefficient: complex = 0.0 + 0.0j
    kappa: float = 0.0
    particular: ParticularTerm | None = None

    def radial0(self, r: float) -> tuple[complex, complex]:
        """Mode-0 radial profile (value, derivative); other modes vanish."""
        if self.kind == "zero":
            return 0.0 + 0.0j, 0.0 + 0.0j
        d = self.dimension
        if d == 3:
            ev = specfun.sph_bessel("j", 0, self.kappa * r)
        else:
            ev = specfun.cyl_bessel("J", 0, self.kappa * r)
        val = self.coefficient * ev.value
        der = self.coefficient * self.kappa * ev.derivative
        if self.particular is not None:
            pv, pd = self.particular.eval(r)
            val += pv
            der += pd
        return complex(val), complex(der)


def interior_limit(
    d: int,
    config: CloakConfig,
    u_at_origin: complex,
    interior_source: tuple | None = None,
) -> InteriorLimit:
    """Limit interior field for a homogeneous isotropic cloaked region.

    Passive non-resonant interiors shield completely (zero limit).  A 3d
    monopole resonance leaks the free field's value at the blown-up point:
    the limit is u(0) j_0(kappa* r) / j_0(kappa*).  An interior source is
    given as (spec, amplitude); it is supported for non-resonant media
    (Neumann problem in closed form) and rejected at resonance, where the
    source fails the orthogonality condition and no limit exists.
    """
    if len(config.interior) != 1:
        raise UnsupportedConfigurationError(
            "interior limit implemented for a single homogeneous layer"
        )
    lay = config.interior[0]
    if abs(complex(lay.sigma).imag) > 0:
        raise UnsupportedConfigurationError("interior limit needs lossless interior")
    kap = config.k * math.sqrt(complex(lay.sigma).real / lay.a)
    n_check = default_truncation(config.k, 1.0) + 5
    resonant_modes = [
        n
        for n in range(n_check + 1)
        if abs(resonance_condition(d, n, kap, lay.a)[1]) < 1e-9
    ]
    if interior_source is not None:
        spec, amp = interior_source
        if spec.mode in resonant_modes and abs(
            kap - spec.kappa_star
        ) <= 1e-9 * spec.kappa_star:
            raise UnsupportedConfigurationError(
                "interior source is a resonant eigenfunction: the orthogonality "
                "condition fails and the interior energy blows up (no limit)"
            )
        if spec.mode != 0:
            raise UnsupportedConfigurationError(
                "active interior limits implemented for radial (mode 0) sources"
            )
        from .mie import eigenfunction_normalization

        q = amp * eigenfunction_normalization(spec) / lay.a
        if abs(kap - spec.kappa_star) <= 1e-9 * spec.kappa_star:
            part = ParticularTerm(
                kind="kappa_derivative", coefficient=-q / (2.0 * kap),
                kappa=kap, kappa_source=complex(spec.kappa_star),
                order=0, dimension=d,
            )
        else:
            part = ParticularTerm(
                kind="off_resonance",
                coefficient=q / (kap * kap - spec.kappa_star**2),
                kappa=kap, kappa_source=complex(spec.kappa_star),
                order=0, dimension=d,
            )
        if d == 3:
            # Neumann condition at the unit sphere fixes the homogeneous part
            _, pd = part.eval(1.0)
            reg = specfun.sph_bessel("j", 0, kap)
            coef = -pd / (kap * reg.derivative)
            return InteriorLimit(d, "neumann", complex(coef), kap, part)
        raise UnsupportedConfigurationError(
            "active 2d interior limits are non-local; not implemented"
        )
    if d == 3 and 0 in resonant_modes:
        reg = specfun.sph_bessel("j", 0, kap)
        return InteriorLimit(
            d, "monopole_resonant", complex(u_at_origin) / reg.value, kap
        )
    # passive non-resonant (2d or 3d) and passive higher-mode-resonant 3d
    return InteriorLimit(d, "zero")


def blown_up_interior_series(config: CloakConfig, series: FieldSeries) -> FieldSeries:
    """Interior field U(x) = u(eps x) of a virtual solve, on the unit ball.

    The virtual inner-layer coefficients reused against the unit-scale
    medium give exactly the blown-up interior field, because the interior
    Bessel arguments satisfy kappa_virtual * eps = kappa_unit.
    """
    if series.domain != "virtual":
        raise ValidationError("blow-up rescale expects a virtual-domain series")
    unit = LayeredMedium(config.dimension, config.interior)
    return FieldSeries(
        dimension=config.dimension,
        k=config.k,
        truncation=series.truncation,
        modes=series.modes,
        medium=unit,
        domain="virtual",
        axis=series.axis,
    )


def interior_deviation(
    interior: FieldSeries,
    limit: InteriorLimit | None,
    norm: str = "l2",
    rel_tol: float = 1e-11,
) -> float:
    """L2 or H1 norm over the unit ball of (interior field - limit)."""
    d = interior.dimension
    n_max = interior.truncation
    weights = np.array([mode_weight(d, n) for n in range(n_max + 1)])
    nus = np.array([angular_eigenvalue(d, n) for n in range(n_max + 1)])

    def dens(rr: np.ndarray) -> np.ndarray:
        out = np.empty_like(rr)
        for i, r in enumerate(rr):
            vals, ders = interior.radial_all(float(r))
            if limit is not None:
                lv, ld = limit.radial0(float(r))
                vals = vals.copy()
                ders = ders.copy()
                vals[0] -= lv
                ders[0] -= ld
            acc = float(np.sum(weights * np.abs(vals) ** 2))
            if norm == "h1":
                grad = np.abs(ders) ** 2
                grad[1:] += nus[1:] * np.abs(vals[1:]) ** 2 / r**2
                acc += float(np.sum(weights * grad))
            out[i] = acc * r ** (d - 1)
        return out

    cuts = [0.0] + [lay.radius for lay in interior.medium.layers if lay.radius < 1.0] + [1.0]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += integrate(dens, lo, hi, rel_tol=rel_tol).real
    return math.sqrt(max(total, 0.0))

