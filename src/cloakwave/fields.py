"""Incident-field expansions, truncated modal fields, norms, interior limits as series.

A field is a truncated sum over angular modes; for concentric media the
modes never couple, so every norm reduces to per-mode radial integrals
through angular orthogonality (Parseval), and point evaluation to a sum of
radial profiles times Legendre polynomials (3d) or cosines (2d), over
blocks of points in one path (FieldSeries.eval_many).  The radial
integrals are closed forms (Lommel's integral and Green's first identity)
wherever the profiles are Bessel combinations at one real wavenumber, the
blown-up interior's particular term q r R_n'(kappa r) included, and
adaptive quadrature elsewhere: the physical shell and a lossy layer.
Outside the medium, a series that carries its incident spec takes the
incident field in closed form plus the few nonzero outgoing terms.
Physical domain fields are the virtual series composed with the inverse
blow-up map, and agree with it identically outside radius 2.  Every L2/H1
norm is norm_annulus of a series, alone or against a reference series:
the free-field pullback, single outgoing modes, eigenfunction sources
and interior limits are each built as a series first.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import BesselOverflowError, ResonantConfigError, TruncationError, ValidationError
from .mie import (
    CloakConfig,
    LayeredMedium,
    Layer,
    ModeSolution,
    RESONANCE_PROXIMITY,
    ResonanceSpec,
    angular_eigenvalue,
    homogeneous_layer,
    particular_profile,
    resonance_scan,
    solve_modes,
)
from .quadrature import integrate
from .transform import BlowupMap, inverse_branch, map_inverse, radial_forward, radii

TAIL_TOL = 1e-14

POINT_SOURCE_RADIUS_RANGE = (2.5, 4.5)
CANCELLATION_CAP = 100.0   # closed-form norm segments whose endpoint terms exceed this multiple integrate


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
    def axis(self) -> tuple[float, ...] | None:
        """Symmetry axis of the incident field (unit vector); None for a mode."""
        if self.kind == "mode":
            return None
        v = np.asarray(self.direction if self.kind == "plane_wave" else self.location, dtype=float)
        return tuple((v / np.linalg.norm(v)).tolist())


def incident_coefficients(
    spec: IncidentSpec, k: float, n_max: int, dimension: int, r_eval: float | None = None
) -> np.ndarray:
    """Modal coefficients reproducing the incident field up to order n_max.

    Plane waves use the Jacobi-Anger / Rayleigh expansions, point sources
    the addition theorems for the free-space kernel, which converge only
    at radii below the source radius; their tail criterion is therefore
    checked at radius 2 (covering the scatterer and the shell) rather
    than the default probe radius 4.  Raises TruncationError when the
    tail at r_eval is not negligible; a single mode is exact and has no
    tail.
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
        reg, sing = specfun.chain(d, n_max, k * r0)
        h = reg + 1j * sing
        if d == 3:
            b[:] = amp * (1j * k / (4.0 * math.pi)) * (2 * ns + 1) * h
        else:
            b[:] = amp * (0.25j) * h
    else:
        if spec.mode > n_max:
            raise TruncationError(
                f"requested single mode {spec.mode} above truncation {n_max}"
            )
        b[spec.mode] = amp
    if spec.kind != "mode":
        _check_incident_tail(b, d, k, r_eval)
    return b


def _check_incident_tail(b: np.ndarray, d: int, k: float, r_eval: float) -> None:
    n_max = len(b) - 1
    reg = specfun.chain(d, n_max, k * r_eval, singular=False)[0]
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

    With epsilon None the series lives on the virtual domain and is
    evaluated directly; with an epsilon it is the physical-domain field,
    the series composed with the inverse blow-up map of that epsilon, which
    leaves all values outside radius 2 unchanged; epsilon 0 is the limit
    map, defined outside radius 1 only.  The angular structure is symmetric
    about `axis` (monopole coefficients times Legendre / cosine factors).
    `incident` is the spec whose coefficients the b_n are, if any; it lets
    eval_many take the incident field in closed form outside the medium.
    """

    k: float
    modes: tuple[ModeSolution, ...]
    medium: LayeredMedium
    epsilon: float | None = None
    axis: tuple[float, ...] | None = None
    incident: IncidentSpec | None = None

    @property
    def dimension(self) -> int:
        return self.medium.dimension

    @property
    def truncation(self) -> int:
        """Highest order of the series (its modes are orders 0..truncation)."""
        return len(self.modes) - 1

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

    def _layer_of(self, r: np.ndarray) -> np.ndarray:
        """Layer index of each radius (len(layers) = exterior); an interface is the inner layer's."""
        return sum(r > lay.radius for lay in self.medium.layers)   # radii increase

    def _layer_basis(self, idx: int) -> tuple[complex, np.ndarray, np.ndarray, np.ndarray, bool]:
        """(wavenumber, regular, singular and particular coefficients, outgoing?) of a layer.

        Index len(layers) is the exterior, whose singular basis is outgoing.
        Only the innermost layer holds particular terms (ModeSolution.particular).
        """
        q = np.array([m.particular if idx == 0 else 0.0 for m in self.modes], dtype=complex)
        if idx == len(self.medium.layers):
            co = np.array([m.b_n for m in self.modes])
            cs = np.array([m.alpha_n for m in self.modes])
            return self.medium.exterior_wavenumber(self.k), co, cs, q, True
        co = np.array([m.layer_coeffs[idx][0] for m in self.modes])
        cs = np.array([m.layer_coeffs[idx][1] for m in self.modes])
        return self.medium.wavenumber(self.k, idx), co, cs, q, False

    def radial_many(self, rs, derivatives: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """(values, derivatives) of every mode's radial profile at each radius.

        Returns arrays of shape (truncation + 1, rs.size), the derivatives
        None unless asked for.  Radii are grouped by layer, and each group
        costs one array-argument chain, so a radius's profile does not
        depend on the other radii.  At r = 0 only the monopole's regular
        part survives, and only mode 1 has a slope: (kappa co_1 + q_1)
        R_1'(0), from its regular and particular terms.
        """
        n_max = self.truncation
        rs = np.asarray(rs, dtype=float).ravel()
        layer = self._layer_of(rs)
        vals = np.zeros((n_max + 1, rs.size), dtype=complex)
        ders = np.zeros_like(vals) if derivatives else None
        for idx in range(len(self.medium.layers) + 1):
            sel = np.flatnonzero(layer == idx)
            if not sel.size:
                continue
            kap, co, cs, q, outgoing = self._layer_basis(idx)
            origin = sel[rs[sel] == 0.0]
            vals[0, origin] = co[0]   # regular basis: R_n(0) = [n == 0]
            if derivatives and origin.size and n_max >= 1:   # R_1'(0): 1/2 in 2d, 1/3 in 3d
                ders[1, origin] = (kap * co[1] + q[1]) * (0.5 if self.dimension == 2 else 1.0 / 3.0)
            sel = sel[rs[sel] > 0.0]
            if not sel.size:
                continue
            r = rs[sel]
            vals[:, sel], dv = self._combine(kap, r, co, cs, q, outgoing, derivatives)
            if derivatives:
                ders[:, sel] = dv
        return vals, ders

    def _combine(self, kap, r, co, cs, q, outgoing: bool, derivatives: bool):
        """co_n R_n + cs_n S_n + q_n r R_n' at z = kap r for n < len(co), and its r-derivative or None.

        One chain call; S is the outgoing H = J + iY if outgoing, else the
        singular family, which runs only up to the last nonzero cs_n (one
        order more for derivatives): the orders above it scatter nothing
        and may overflow.  A particular term (q_n != 0) takes R_n and R_n'
        from the same chain (mie.particular_profile).  The values are
        weighted in place, so that the call holds no arrays beyond its
        chains.
        """
        d, n_max, z = self.dimension, len(co) - 1, kap * r
        m = int(np.flatnonzero(cs).max(initial=-1))   # last singular order in use
        p = np.flatnonzero(q)   # orders with a particular term
        top = n_max + 1 if derivatives or p.size else n_max   # f'_n needs f_(n+1)
        reg, sing = specfun.chain(d, top, z, m >= 0, singular_nmax=m + 1 if derivatives else m)
        if sing is not None and outgoing:
            sing *= 1j
            sing += reg[: len(sing)]   # H = J + iY
        rd = specfun.chain_derivative(reg, z, d) if top > n_max else None
        if p.size:
            nu = np.array([angular_eigenvalue(d, n) for n in p.tolist()])[:, None]
            pv, pd = particular_profile(d, nu, kap, r, reg[p], rd[p])
        dv = None
        if derivatives:
            dv = co[:, None] * rd
            if sing is not None:
                dv[: m + 1] += cs[: m + 1, None] * specfun.chain_derivative(sing, z, d)
            dv *= kap
        v = np.multiply(co[:, None], reg[: n_max + 1], out=reg[: n_max + 1])
        if sing is not None:
            v[: m + 1] += np.multiply(cs[: m + 1, None], sing[: m + 1], out=sing[: m + 1])
        if p.size:
            v[p] += q[p, None] * pv
            if derivatives:
                dv[p] += q[p, None] * pd
        return v, dv

    # -- point evaluation ----------------------------------------------------

    def _to_virtual(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Virtual-domain images of the rows of x and their radii."""
        xv = x if self.epsilon is None else map_inverse(BlowupMap(self.epsilon), x)
        return xv, radii(xv)

    def _angular(self, c, n_max: int):
        """Angular factor of modes 0..n_max, by rows, at c = cos(angle to the axis).

        Legendre polynomials P_n(c) in 3d; in 2d the cosines T_n(c) of the
        multiples of the angle, doubled from mode 1 on (both signs of n).
        """
        ang = np.empty((n_max + 1,) + np.shape(c))
        ang[0] = 1.0
        if n_max >= 1:
            ang[1] = c
        if self.dimension == 3:
            for n in range(1, n_max):
                ang[n + 1] = ((2 * n + 1) * c * ang[n] - n * ang[n - 1]) / (n + 1)
            return ang
        c2 = 2.0 * c
        for n in range(1, n_max):
            ang[n + 1] = c2 * ang[n] - ang[n - 1]
        ang[1:] *= 2.0
        return ang

    def eval_many(self, points) -> np.ndarray:
        """Field values at the rows of a (P, d) array: the one point-evaluation path.

        Points are mapped to the virtual domain.  With an incident spec,
        points beyond the medium's outer radius take the incident field in
        closed form plus the outgoing terms up to the last nonzero alpha_n
        (a mode incidence adds its one b_n term instead): one short chain
        and recurrence.  Other points, and every point of a series without
        a spec, sum all orders of radial_many (one array-argument chain per
        layer) times the angular factors of one recurrence.  A row's value
        does not depend on the other rows.
        """
        x = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        xv, r = self._to_virtual(x)
        far = (self._layer_of(r) == len(self.medium.layers)) & (self.incident is not None)
        near = ~far
        out = np.empty(len(r), dtype=complex)
        if near.any():
            vals = self.radial_many(r[near], derivatives=False)[0]
            out[near] = self._mode_sum(vals, xv[near], r[near])
        if far.any():
            vals = self._outgoing_many(r[far])
            out[far] = self._mode_sum(vals, xv[far], r[far]) + self._incident_many(xv[far])
        return out

    def _mode_sum(self, vals: np.ndarray, xv: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Sum over the rows of radial values (orders 0, 1, ...) times their angular factors."""
        ax, pos = self._axis(), r > 0.0
        cosg = np.ones(len(r))   # at the origin only the monopole is nonzero
        cosg[pos] = sum((xv[pos, i] / r[pos]) * ax[i] for i in range(self.dimension))
        vals *= self._angular(np.clip(cosg, -1.0, 1.0), len(vals) - 1)
        # row-wise sums over contiguous rows: the same order for any block
        return np.sum(np.ascontiguousarray(vals.T), axis=1)

    def _outgoing_many(self, r: np.ndarray) -> np.ndarray:
        """Exterior profiles of the orders the closed-form incident field leaves out.

        Those are alpha_n H_n up to the last nonzero alpha_n, and for a mode
        incidence its b_n J_n term: an array of (m + 1, r.size).
        """
        kap, co, cs, q, _ = self._layer_basis(len(self.medium.layers))
        if self.incident.kind != "mode":
            co = np.zeros_like(co)
        m = int(np.flatnonzero((co != 0) | (cs != 0)).max(initial=0))
        return self._combine(kap, r, co[: m + 1], cs[: m + 1], q[: m + 1], True, False)[0]

    def _incident_many(self, xv: np.ndarray):
        """Closed form of the incident series at virtual points (0 for a mode).

        The sums incident_coefficients truncates, about the series axis: the
        plane wave A exp(ik e.x), and the point source's free-space Green's
        function at r0 e, A exp(ik R) / (4 pi R) in 3d and A (i/4) H_0(kR)
        in 2d, R = |x - r0 e|.
        """
        spec, k, ax = self.incident, self.k_exterior, self._axis()
        amp = complex(spec.amplitude)
        if spec.kind == "plane_wave":
            # elementwise, not a matrix product, so no row depends on the block
            return amp * np.exp(1j * k * sum(xv[:, i] * ax[i] for i in range(self.dimension)))
        if spec.kind == "mode":
            return 0.0
        dist = np.linalg.norm(xv - float(np.linalg.norm(spec.location)) * ax, axis=1)
        if self.dimension == 3:
            return amp * np.exp(1j * k * dist) / (4.0 * math.pi * dist)
        reg, sing = specfun.chain(2, 0, k * dist)
        return amp * 0.25j * (reg[0] + 1j * sing[0])


def solve_series(
    medium: LayeredMedium,
    k: float,
    b: np.ndarray,
    *,
    epsilon: float | None = None,
    axis: tuple[float, ...] | None = None,
    incident: IncidentSpec | None = None,
) -> FieldSeries:
    """Series of every order of an incident coefficient vector (one solve_modes call).

    epsilon, if given, makes it the physical-domain field (see FieldSeries),
    and incident, if given, is the spec b was computed from.
    Orders so deep in the evanescent regime that the singular basis
    overflows double precision at an interface (high order at a tiny
    inclusion radius) scatter nothing at working precision and keep only
    their incident part (solve_modes' last-order fallback).
    """
    return FieldSeries(
        k=k,
        modes=solve_modes(medium, k, b),
        medium=medium,
        epsilon=epsilon,
        axis=axis,
        incident=incident,
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
    return FieldSeries(k=k, modes=modes, medium=med, axis=axis)


def mode_series(medium: LayeredMedium, k: float, mode: ModeSolution) -> FieldSeries:
    """Series whose only nonzero order is mode.n: the orders below it vanish."""
    zero = tuple((0.0 + 0.0j, 0.0 + 0.0j) for _ in medium.layers)
    modes = tuple(
        ModeSolution(n=n, b_n=0.0 + 0.0j, alpha_n=0.0 + 0.0j, layer_coeffs=zero)
        for n in range(mode.n)
    )
    return FieldSeries(k=k, modes=modes + (mode,), medium=medium)


# ---------------------------------------------------------------------------
# norms


def _split_points(series: FieldSeries, r_in: float, r_out: float, reference=None) -> list[float]:
    """[r_in, r_out] cut at every radius where a profile of the measured quantity has a kink.

    Those are the layer radii of the series and of the reference, through
    the blow-up map for a physical-domain series, and then also the map's
    branch radii 1 and 2.  At eps > 0 the shell is also cut at the images
    of the virtual radii eps (1 + 2^j) below 2: near the inclusion the
    field varies on the scale of the virtual radius, and these dyadic
    segments keep the quadrature's panels on that scale toward r = 1.
    """
    kinks = [lay.radius for lay in series.medium.layers]
    eps = series.epsilon
    if eps is not None:
        if eps > 0.0:
            dyadic = (eps * (1.0 + 2.0**j) for j in range(int(math.log2(2.0 / eps)) + 1))
            kinks += [r for r in dyadic if r < 2.0]
        m = BlowupMap(eps)
        kinks = [radial_forward(m, r) for r in kinks] + [1.0, 2.0]
    cuts = {r_in, r_out} | {r for r in kinks if r_in < r < r_out}
    if reference is not None:
        cuts.update(_split_points(reference, r_in, r_out))
    return sorted(cuts)


def _profiles(series: FieldSeries, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode (value, derivative) arrays, (modes, P), at radii of the measured domain.

    r holds the nodes of one _split_points segment, which lies on one
    branch of the blow-up map (physical domain), where the map is affine.
    """
    if series.epsilon is None:
        return series.radial_many(r)
    slope, offset = inverse_branch(BlowupMap(series.epsilon), r[0])
    vals, ders = series.radial_many(slope * r + offset)
    ders *= slope
    return vals, ders


def _bessel_segment(series: FieldSeries, lo: float, hi: float):
    """(wavenumber, J, Y and kappa-derivative coefficients) on a _split_points segment, or None.

    None unless every profile there is a Bessel combination at one real
    wavenumber kap, plus in the inner layer a particular term q_n r
    R_n'(kap r): a lossless layer on a branch of the inverse map without
    offset (the virtual domain; radius 2 outward and the blown-up ball, at
    the slope times the layer's wavenumber, where the particular term's
    q_n takes the slope too).
    """
    slope, offset, mid = 1.0, 0.0, 0.5 * (lo + hi)
    if series.epsilon is not None:
        slope, offset = map(float, inverse_branch(BlowupMap(series.epsilon), mid))
    idx = bisect.bisect([lay.radius for lay in series.medium.layers], slope * mid)
    layer_kap, co, cs, q, outgoing = series._layer_basis(idx)
    kap = slope * complex(layer_kap)
    if offset != 0.0 or kap.imag != 0.0:
        return None
    # H = J + iY; q (slope r) R_n'(layer_kap slope r) = (slope q) r R_n'(kap r)
    return kap.real, (co + cs if outgoing else co), (1j * cs if outgoing else cs), slope * q


def _lommel_green(d: int, kap: float, co: np.ndarray, cs: np.ndarray, q: np.ndarray, r: float):
    """Per-mode antiderivatives (F, G) at r > 0 of u_n = co_n R_n(kap r) + cs_n Y_n(kap r) + q_n r R_n'(kap r).

    F integrates the L2 density r^(d-1) |u_n|^2, and G + kap^2 F the
    gradient density r^(d-1) (|u_n'|^2 + nu_n |u_n|^2 / r^2) (Green's first
    identity), G = r^(d-1) Re conj(u_n) u_n' plus a source term.  Without
    q, F = r^d / 2 (|u_n|^2 - Re u_(n-1) conj u_(n+1)) (Lommel, DLMF
    10.22.5); u_(n+j) puts mode n's coefficients on the orders n + j; order
    -1 is -f_1 in 2d, j_(-1) = cos z / z and y_(-1) = j_0 in 3d.  The
    kappa-derivative q_n r R_n'(kap r) (where cs_n = 0) solves the equation
    with source -2 kap q_n R_n(kap r); G gains 2 kap Re q_n (conj(co_n) L +
    conj(q_n) M) and F the cross and square terms, with L, M and A the
    antiderivatives of r^(d-1) R_n^2 (Lommel's), r^d R_n R_n' (by parts) and
    r^(d+1) R_n'^2: 6 kap^(d+2) A = E1 + (d + 2) E2 + d nu_n kap^d L, where
    E1 = z^(d+2) (R_n'^2 + (1 - nu_n / z^2) R_n^2) and E2 = z^(d+1) R_n R_n'
    - z^d R_n^2 + (d - nu_n) kap^d L differentiate, by Bessel's equation
    (DLMF 10.22(ii)), to combinations of z^(d+1) R_n'^2 and z^(d+1) R_n^2.
    One scalar chain.
    """
    z = kap * r
    m = int(np.flatnonzero(cs).max(initial=-1))   # last singular order in use
    reg, sing = specfun.chain(d, len(co), z, m >= 0, singular_nmax=m + 1)
    if d == 2:
        below = -reg[1], None if sing is None else -sing[1]
    else:   # the recurrence would cancel y's orders 0 and 1 at small z
        below = cmath.cos(z) / z, reg[0]

    def rows(f, f_below):   # orders n - 1, n, n + 1 and the z-derivative of the modes n
        ext = np.concatenate(([f_below], f))
        return np.stack([ext[:-2], ext[1:-1], ext[2:], specfun.chain_derivative(f, z, d)])

    bessel = rows(reg, below[0])
    u = co * bessel
    if sing is not None:
        u[:, : m + 1] += cs[: m + 1] * rows(sing, below[1])
    lower, u_n, upper, du = u
    f = 0.5 * r**d * (np.abs(u_n) ** 2 - (lower * upper.conj()).real)
    g = 0.0
    if q.any():
        r_lo, r_n, r_hi, der = bessel.real
        nu = np.array([angular_eigenvalue(d, n) for n in range(len(co))])
        rd, k2 = r**d, kap * kap
        lom = 0.5 * rd * (r_n * r_n - r_lo * r_hi)
        mom = (rd * r_n * r_n - d * lom) / (2.0 * kap)
        sq = (r * r * rd * (der * der + r_n * r_n) + (d + 2) * r * rd * r_n * der / kap
              - (nu + d + 2) * rd * r_n * r_n / k2 + (d * (d + 2) - 2.0 * nu) * lom / k2) / 6.0
        f = f + 2.0 * (co * q.conj()).real * mom + np.abs(q) ** 2 * sq
        g = 2.0 * kap * (q * (co.conj() * lom + q.conj() * mom)).real
        pv, pd = particular_profile(d, nu, kap, r, r_n, der)
        u_n = u_n + q * pv
        du = du + q * pd / kap
    return f, g + r ** (d - 1) * kap * (u_n.conj() * du).real


def _closed_segment(series: FieldSeries, reference: FieldSeries | None, lo: float, hi: float):
    """(L2^2, H1^2) of series - reference on a _split_points segment in closed form, or None.

    None, so that the segment is integrated, where _bessel_segment finds no
    closed form for a series or their wavenumbers differ, where a mode
    holds both a singular and a kappa-derivative part, where kap lo lies in
    (0, SMALL_ARG), and where the endpoint terms exceed CANCELLATION_CAP
    times their difference (short segments; slowly varying fields, whose
    small gradient is G + kap^2 F).  A reference is subtracted on
    coefficients, the kappa-derivative ones included, zero-padded to the
    longer series.
    """
    segs = [_bessel_segment(s, lo, hi) for s in (series, reference) if s is not None]
    if None in segs or len({seg[0] for seg in segs}) > 1 or 0.0 < segs[0][0] * lo < specfun.SMALL_ARG:
        return None
    kap, co, cs, q = segs[0]
    if reference is not None:
        n = max(len(co), len(segs[1][1]))
        co, cs, q, rco, rcs, rq = (np.pad(c, (0, n - len(c))) for c in segs[0][1:] + segs[1][1:])
        co, cs, q = co - rco, cs - rcs, q - rq
    if np.any((q != 0) & (cs != 0)):
        return None
    (fa, ga), (fb, gb) = (
        _lommel_green(series.dimension, kap, co, cs, q, r) if r > 0.0 else (0.0, 0.0) for r in (lo, hi)
    )
    w = np.array([mode_weight(series.dimension, n) for n in range(len(co))])
    scale, ends = 1.0 + kap * kap, np.abs(fa) + np.abs(fb)
    value = np.array([w @ (fb - fa), w @ (scale * (fb - fa) + gb - ga)])
    size = np.array([w @ ends, w @ (scale * ends + np.abs(ga) + np.abs(gb))])
    return None if np.any(size > CANCELLATION_CAP * value) else value


def norm_annulus(
    series: FieldSeries, r_in: float, r_out: float, reference: FieldSeries | None = None
) -> tuple[float, float]:
    """(L2, full H1) norms of a series, or of series - reference, on r_in <= |x| <= r_out.

    r_in = 0 gives the ball.  Angular Parseval reduces both norms to the
    mode profiles' radial integrals, cut at every layer radius and map
    branch radius.  A segment of Bessel profiles at one real wavenumber,
    with or without a kappa-derivative particular term (the blow-up rows'
    interior), takes them in closed form (_closed_segment); one
    two-component radial quadrature runs on the others: the physical shell
    1 < r < 2, a lossy layer, and segments whose closed form would cancel
    digits.  The reference shares the series' dimension and axis; where
    one has more modes than the other, the extra modes count in full.  The
    free-field pullback is free_series on the limit map (epsilon 0).
    """
    if not 0.0 <= r_in < r_out:
        raise ValidationError(f"bad annulus [{r_in}, {r_out}]")
    same = (series.dimension, series.axis)
    if reference is not None and (reference.dimension, reference.axis) != same:
        raise ValidationError("reference series must share the dimension and axis")

    d = series.dimension

    def dens(rr: np.ndarray) -> np.ndarray:
        vals, ders = _profiles(series, rr)
        if reference is not None:
            rv, rd = _profiles(reference, rr)
            if len(rv) > len(vals):
                vals, ders, rv, rd = rv, rd, vals, ders   # |a - b| = |b - a|
            vals[: len(rv)] -= rv
            ders[: len(rd)] -= rd
        # each mode weighs mode_weight; its angular gradient adds nu_n |u_n|^2 / r^2
        w = np.array([mode_weight(d, n) for n in range(len(vals))])[:, None]
        nu = np.array([angular_eigenvalue(d, n) for n in range(len(vals))])[:, None]
        v2 = np.abs(vals) ** 2
        l2 = np.sum(w * v2, axis=0)
        h1 = l2 + np.sum(w * (np.abs(ders) ** 2 + nu * v2 / rr**2), axis=0)
        return np.stack([l2, h1]) * rr ** (d - 1)

    cuts = _split_points(series, r_in, r_out, reference)
    total = np.zeros(2)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        closed = _closed_segment(series, reference, lo, hi)
        total += integrate(dens, lo, hi).real if closed is None else closed
    l2, h1 = np.sqrt(np.maximum(total, 0.0))
    return float(l2), float(h1)


def outgoing_mode_norm(
    d: int, k: float, n: int, r_in: float, r_out: float
) -> tuple[float, float]:
    """(L2, H1) norms of a unit-coefficient outgoing mode over an annulus.

    For n = 0 the L2 norm is the plain function norm of h_0(k|x|) (3d) or
    H_0(k|x|) (2d) on the annulus, the reference magnitude of the
    instability experiment.  At tiny k the mode's singular part grows
    without bound: a norm whose Bessel chain or squared profile overflows
    is a ValidationError naming k and n, raised at the first overflow.
    """
    med = LayeredMedium(d, (Layer(r_in, 1.0, 1.0),))   # the annulus lies outside it
    unit = ModeSolution(n=n, b_n=0.0 + 0.0j, alpha_n=1.0 + 0.0j,
                        layer_coeffs=((0.0 + 0.0j, 0.0 + 0.0j),))
    try:
        with np.errstate(over="raise", invalid="raise"):
            l2, h1 = norm_annulus(mode_series(med, k, unit), r_in, r_out)
    except (BesselOverflowError, FloatingPointError):
        l2 = h1 = math.inf
    if not math.isfinite(h1):   # h1 >= l2
        raise ValidationError(
            f"k = {k:g} is too small: the mode-{n} outgoing norm over the probe overflows"
        )
    return l2, h1


@functools.cache
def eigenfunction_normalization(spec: ResonanceSpec) -> float:
    """Amplitude making spec's resonant radial mode, as a series mode, unit in L2(B1).

    A series evaluates mode n with its angular factor (mode_weight), so in
    2d a mode n >= 1 counts both signs of n.  Cached per spec (a frozen
    dataclass): every row of a blow-up sweep shares its spec's value.
    """
    med = LayeredMedium(spec.dimension, (Layer(1.0, 1.0, 1.0),))
    unit = ModeSolution(n=spec.mode, b_n=0.0 + 0.0j, alpha_n=0.0 + 0.0j,
                        layer_coeffs=((1.0 + 0.0j, 0.0 + 0.0j),))
    return 1.0 / norm_annulus(mode_series(med, spec.kappa_star, unit), 0.0, 1.0)[0]


# ---------------------------------------------------------------------------
# interior limits and blown-up interior fields


def interior_limit(
    config: CloakConfig, b, axis: tuple[float, ...] | None = None
) -> FieldSeries | None:
    """Limit of the blown-up interior field as eps vanishes, as a series; None for zero.

    b holds the incident coefficients of the solve, and its orders are
    the ones tested.  Only a single lossless interior layer
    (mie.homogeneous_layer) is tested for resonance; a layered or lossy
    interior, like a non-resonant one, is taken to shield (None).  A mode
    is resonant when its normalized resonance condition (one
    resonance_scan over the orders of b) lies below RESONANCE_PROXIMITY.
    A 3d monopole resonance alone leaks the free field's value at the
    blown-up point: u(0) j_0(kappa* r) / j_0(kappa*), with u(0) = b[0].
    Any other resonance raises ResonantConfigError.  The series lies on
    blown_up_interior_series' medium at config.k, so
    norm_annulus(interior, 0, 1, reference=limit) subtracts it on
    coefficients; axis is the interior series' axis.
    """
    lay = homogeneous_layer(config.interior)
    if lay is None:
        return None
    d = config.dimension
    kap = config.k * math.sqrt(lay.sigma / lay.a)
    margins = np.abs(resonance_scan(d, len(b) - 1, kap, lay.a)[1][:, 0])
    resonant = np.flatnonzero(margins < RESONANCE_PROXIMITY).tolist()
    if not resonant:
        return None
    if d == 2 or resonant != [0]:
        raise ResonantConfigError(
            f"configuration is resonant (margin {float(np.min(margins)):.3e}); use the "
            "resonance experiments"
        )
    coef = complex(b[0]) / specfun.bessel(3, 0, kap)[0]
    mode0 = ModeSolution(n=0, b_n=0.0 + 0.0j, alpha_n=0.0 + 0.0j,
                         layer_coeffs=((coef, 0.0 + 0.0j),))
    return FieldSeries(k=config.k, modes=(mode0,), medium=LayeredMedium(d, config.interior), axis=axis)


def blown_up_interior_series(config: CloakConfig, series: FieldSeries) -> FieldSeries:
    """Interior field U(x) = u(eps x) of a virtual solve, on the unit ball.

    The virtual inner-layer coefficients reused against the unit-scale
    medium give exactly the blown-up interior field, because the interior
    Bessel arguments satisfy kappa_virtual * eps = kappa_unit.
    """
    if series.epsilon is not None:
        raise ValidationError("blow-up rescale expects a virtual-domain series")
    unit = LayeredMedium(config.dimension, config.interior)
    return FieldSeries(k=config.k, modes=series.modes, medium=unit, axis=series.axis)
