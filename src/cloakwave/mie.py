"""Exact transfer-matrix solver for concentric layered media, all modes at once.

Each angular mode of the Helmholtz equation in a concentric isotropic
medium reduces to a radial two-point transmission problem.  Coefficients
are propagated across interfaces by 2x2 matrices built from continuity of
the field and of the flux a * du/dr; every order's matrices come from one
Bessel chain per interface side, and the 2x2 systems of all orders are
solved as arrays.  A dense per-mode assembly lives with the tests as their
oracle.

Also here: the small-inclusion (virtual) media obtained by pulling the
cloak problem back through the blow-up map, the closed-form monopole
scattering coefficient for a single inclusion, the resonant-density tuning
used by the instability experiment, resonance detection, and the
interior-eigenfunction-source solve that drives the blow-up experiment.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import specfun
from .errors import (
    BracketError,
    SingularSystemError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .quadrature import integrate
from .specfun import find_root

FREQUENCY_CAP = 50.0
# smallest regularization: eps^(-d) is 1e300 there in 3d, and float ** overflows
# (OverflowError) below about 5.6e-103 (3d) and 7.5e-155 (2d)
EPSILON_FLOOR = 1e-100
CONDITION_CAP = 1.0e12
MP_DIGITS = 60             # working precision of the tuning polish and tuned alpha0


# ---------------------------------------------------------------------------
# media


@dataclass(frozen=True)
class Layer:
    """One concentric isotropic layer: outer radius, stiffness, density."""

    radius: float
    a: float
    sigma: complex

    def __post_init__(self) -> None:
        if not 0 < self.radius < math.inf:
            raise ValidationError(f"layer radius must be positive and finite, got {self.radius}")
        if not 0 < self.a < math.inf:
            raise ValidationError(f"layer stiffness must be positive and finite, got {self.a}")
        s = complex(self.sigma)
        if not (0 < s.real < math.inf and 0 <= s.imag < math.inf):
            raise ValidationError(
                f"layer density must be finite with Re > 0 and Im >= 0, got {s}"
            )


@dataclass(frozen=True)
class LayeredMedium:
    """Concentric layers (innermost first) in a homogeneous exterior."""

    dimension: int
    layers: tuple[Layer, ...]
    exterior_a: float = 1.0
    exterior_sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValidationError(f"dimension must be 2 or 3, got {self.dimension}")
        if not self.layers:
            raise ValidationError("medium needs at least one layer")
        radii = [lay.radius for lay in self.layers]
        if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
            raise ValidationError(f"layer radii must increase strictly: {radii}")
        if self.exterior_a <= 0 or self.exterior_sigma <= 0:
            raise ValidationError("exterior coefficients must be positive")

    @property
    def outer_radius(self) -> float:
        return self.layers[-1].radius

    def wavenumber(self, k: float, index: int) -> complex:
        lay = self.layers[index]
        return k * cmath.sqrt(complex(lay.sigma) / lay.a)

    def exterior_wavenumber(self, k: float) -> float:
        return k * math.sqrt(self.exterior_sigma / self.exterior_a)


@dataclass(frozen=True)
class CloakConfig:
    """One cloaking experiment: geometry, frequency and regularization.

    Interior layers are given at unit scale (outermost radius 1) and
    describe the material filling the cloaked region.
    """

    dimension: int
    k: float
    epsilon: float
    interior: tuple[Layer, ...]
    incident: object | None = None

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValidationError(f"dimension must be 2 or 3, got {self.dimension}")
        if not 0 < self.k <= FREQUENCY_CAP:
            raise ValidationError(f"k must lie in (0, {FREQUENCY_CAP}], got {self.k}")
        if not EPSILON_FLOOR <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in [{EPSILON_FLOOR:g}, 1], got {self.epsilon}")
        if not self.interior:
            raise ValidationError("interior needs at least one layer")
        if abs(self.interior[-1].radius - 1.0) > 1e-12:
            raise ValidationError("outermost interior layer radius must be 1")


def virtual_medium(config: CloakConfig) -> LayeredMedium:
    """Small-inclusion medium equivalent to the cloak problem.

    Interior radii shrink to r * eps and the coefficients pick up the
    factors eps^(2-d) and eps^(-d); the exterior is free space.
    """
    eps, d = config.epsilon, config.dimension
    layers = tuple(
        Layer(lay.radius * eps, lay.a * eps ** (2 - d), lay.sigma * eps ** (-d))
        for lay in config.interior
    )
    return LayeredMedium(dimension=d, layers=layers)


def blown_up_medium(config: CloakConfig) -> LayeredMedium:
    """Virtual medium rescaled to unit inclusion radius.

    Substituting U(x) = u(eps x) keeps outgoing coefficients unchanged and
    turns the exterior into (1, eps^2) with interior (a, sigma) * eps^(2-d).
    """
    eps, d = config.epsilon, config.dimension
    layers = tuple(
        Layer(lay.radius, lay.a * eps ** (2 - d), lay.sigma * eps ** (2 - d))
        for lay in config.interior
    )
    return LayeredMedium(
        dimension=d, layers=layers, exterior_a=1.0, exterior_sigma=eps**2
    )


# ---------------------------------------------------------------------------
# radial basis helpers


def angular_eigenvalue(d: int, n: int) -> float:
    """Eigenvalue of the angular Laplacian for mode n."""
    return float(n * (n + 1)) if d == 3 else float(n * n)


def _solve_stack(m: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stacked 2x2 systems m[p] y[p] = rhs[p]: (y, condition numbers).

    Columns are equilibrated first (each column's value/flux ratio is
    modest, while the regular/singular ratio between columns can exceed the
    double range for deep evanescent modes), then rows; only near-parallel
    columns (a true resonance) should bring a condition number up to
    CONDITION_CAP.  The caller checks it.
    """
    # a singular row (det = 0, or non-finite after an earlier singular
    # interface) yields an infinite or NaN condition number, not a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        cs = np.maximum(np.max(np.abs(m), axis=1), 1e-300)   # (P, 2): per column
        ms = m / cs[:, None, :]
        rs = np.maximum(np.max(np.abs(ms), axis=2), 1e-300)  # (P, 2): per row
        ms /= rs[:, :, None]
        det = ms[:, 0, 0] * ms[:, 1, 1] - ms[:, 0, 1] * ms[:, 1, 0]
        fro2 = np.sum(np.abs(ms.reshape(-1, 4)) ** 2, axis=1)
        adet = np.abs(det)
        smax2 = 0.5 * (fro2 + np.sqrt(np.maximum(fro2 * fro2 - 4.0 * adet**2, 0.0)))
        b = rhs / rs
        cond = np.where(det == 0, math.inf, smax2 / adet)
        y0 = (ms[:, 1, 1] * b[:, 0] - ms[:, 0, 1] * b[:, 1]) / det
        y1 = (ms[:, 0, 0] * b[:, 1] - ms[:, 1, 0] * b[:, 0]) / det
        return np.stack([y0 / cs[:, 0], y1 / cs[:, 1]], axis=1), cond


def _condition_message(context: str, cond: float) -> str:
    return f"interface system in {context} has condition number {cond:.3e}"


# ---------------------------------------------------------------------------
# mode solutions


@dataclass(frozen=True)
class ParticularTerm:
    """Analytic particular solution for a single-mode interior source.

    The profile is q * r * R_n'(kappa r) with q = coefficient when the
    source oscillates at the layer wavenumber (derivative-in-wavenumber
    identity), or q * R_n(kappa_source r) off resonance.
    """

    kind: str
    coefficient: complex
    kappa: complex
    kappa_source: complex
    order: int
    dimension: int

    @classmethod
    def for_source(
        cls, d: int, n: int, kappa: complex, kappa_source: complex, q: complex
    ) -> "ParticularTerm":
        """Particular solution for the source q R_n(kappa_source r) at layer wavenumber kappa."""
        if abs(kappa - kappa_source) <= 1e-9 * abs(kappa_source):
            return cls("kappa_derivative", -q / (2.0 * kappa), kappa, kappa_source, n, d)
        return cls(
            "off_resonance", q / (kappa * kappa - kappa_source * kappa_source),
            kappa, kappa_source, n, d,
        )

    def eval(self, r) -> tuple[np.ndarray, np.ndarray]:
        """(value, derivative) of the profile at r, a radius or an array of radii."""
        d, n, q = self.dimension, self.order, self.coefficient
        r = np.asarray(r, dtype=float)
        kap = self.kappa if self.kind == "kappa_derivative" else self.kappa_source
        z = kap * r
        vals, ders = specfun.regular_array(d, n, z)
        val, der = vals[n].reshape(r.shape), ders[n].reshape(r.shape)
        if self.kind != "kappa_derivative":
            return q * val, q * kap * der
        nu = angular_eigenvalue(d, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = -(d - 1.0) / z * der - (1.0 - nu / (z * z)) * val
        deriv = np.where(r == 0.0, q * der, q * (der + kap * r * d2))
        return q * r * der, deriv


@dataclass(frozen=True)
class ModeSolution:
    """Coefficients of one angular mode of a transmission solve."""

    n: int
    b_n: complex
    alpha_n: complex
    layer_coeffs: tuple[tuple[complex, complex], ...]
    particular: ParticularTerm | None = None


def _interface_side(
    d: int, n_max: int, a: float, kappa: complex, r: float, outgoing: bool
) -> np.ndarray:
    """Interface matrices of orders 0..last on one side, shape (last + 1, 2, 2).

    Columns: regular and singular (or outgoing) basis; rows: value and flux
    a * kappa * f'.  One scalar chain covers every order; last is n_max, or
    the highest order whose singular chain up to order last + 1 stays below
    the overflow limit.
    """
    z = kappa * r
    reg, sing = specfun.chain(d, n_max + 1, z, partial=True)
    last = len(sing) - 2          # f'_n needs f_(n+1)
    if last < 0:                  # the singular chain ends below order 1: none is solvable
        return np.empty((0, 2, 2), dtype=complex)
    shift = 1.0 if d == 3 else 0.0
    rd = specfun.chain_derivative(reg[: last + 2, 0], z, shift)
    sd = specfun.chain_derivative(sing[:, 0], z, shift)
    sv = sing[: last + 1, 0]
    if outgoing:
        # H = J + iY, value and derivative assembled from the components
        sv, sd = reg[: last + 1, 0] + 1j * sv, rd + 1j * sd
    m = np.empty((last + 1, 2, 2), dtype=complex)
    m[:, 0, 0] = reg[: last + 1, 0]
    m[:, 0, 1] = sv
    m[:, 1, 0] = a * kappa * rd
    m[:, 1, 1] = a * kappa * sd
    return m


def solve_modes(medium: LayeredMedium, k: float, b) -> tuple[ModeSolution, ...]:
    """Solve every angular mode 0..len(b) - 1 of the scattering problem.

    Mode n's exterior field is b[n] * (regular basis) + alpha_n *
    (outgoing basis) of argument k_ext r; interior coefficients enforce
    continuity of the field and of a * du/dr at every interface, with only
    the regular basis in the innermost layer.  Each interface side makes
    one scalar chain over all orders, and the interface systems of all
    orders are solved as (N + 1, 2, 2) arrays.

    Last-order fallback: mode n needs the singular basis up to order n + 1
    at every interface argument, the innermost layer's included (its
    singular coefficient is zero, but the chain is taken).  An order whose
    chain passes the overflow limit at any of them is so deep in the
    evanescent regime that it scatters nothing at working precision: the
    mode keeps only its incident part, with alpha_n and every layer
    coefficient zero.  Outgoing coefficients below the noise floor of the
    interface solve (|d| <= 1e-14 |c|) are reported as exact zeros.

    Raises SingularSystemError, naming the lowest offending mode, when an
    interface system is numerically singular (a true resonance hit); never
    regularizes silently.
    """
    if k <= 0 or k > FREQUENCY_CAP:
        raise ValidationError(f"k must lie in (0, {FREQUENCY_CAP}], got {k}")
    b = np.asarray(b, dtype=complex)
    n_max = len(b) - 1
    if n_max < 0 or n_max > specfun.ORDER_CAP:
        raise ValidationError(f"mode {n_max} outside [0, {specfun.ORDER_CAP}]")
    d, layers = medium.dimension, medium.layers
    vec = np.zeros((n_max + 1, 2), dtype=complex)
    vec[:, 0] = 1.0
    raw = np.empty((n_max + 1, len(layers), 2), dtype=complex)
    alive = n_max + 1             # orders solvable at every interface so far
    failures: dict[int, str] = {}
    for i, lay in enumerate(layers):
        raw[:, i] = vec
        left = _interface_side(d, n_max, lay.a, medium.wavenumber(k, i), lay.radius, False)
        if i == len(layers) - 1:
            a_r, kap_r = medium.exterior_a, medium.exterior_wavenumber(k)
        else:
            a_r, kap_r = layers[i + 1].a, medium.wavenumber(k, i + 1)
        right = _interface_side(d, n_max, a_r, kap_r, lay.radius, i == len(layers) - 1)
        alive = min(alive, len(left), len(right))
        rhs = np.sum(left[:alive] * vec[:alive, None, :], axis=2)
        vec[:alive], cond = _solve_stack(right[:alive], rhs)
        for n in np.flatnonzero(~(cond < CONDITION_CAP)).tolist():
            failures.setdefault(
                n, _condition_message(f"mode {n} at radius {lay.radius:.6g}", cond[n])
            )
    c_ext, d_ext = vec[:alive, 0], vec[:alive, 1]
    vanishing = (np.abs(c_ext) * CONDITION_CAP < np.abs(d_ext)) | (c_ext == 0)
    for n in np.flatnonzero(vanishing).tolist():
        failures.setdefault(
            n, f"mode {n}: vanishing regular exterior component (resonant system)"
        )
    if failures:
        raise SingularSystemError(failures[min(failures)])
    # below the noise floor of the interface solve; reporting a nonzero value
    # here would let the singular-basis growth of deep evanescent modes
    # amplify round-off into the evaluated field
    d_ext = np.where(np.abs(d_ext) <= 1e-14 * np.abs(c_ext), 0.0 + 0.0j, d_ext)
    scale = b[:alive] / c_ext
    alpha = (d_ext * scale).tolist()
    coeffs = (raw[:alive] * scale[:, None, None]).tolist()
    zero = tuple((0.0 + 0.0j, 0.0 + 0.0j) for _ in layers)
    return tuple(
        ModeSolution(n=n, b_n=complex(b[n]), alpha_n=alpha[n],
                     layer_coeffs=tuple(map(tuple, coeffs[n])))
        if n < alive else
        ModeSolution(n=n, b_n=complex(b[n]), alpha_n=0.0 + 0.0j, layer_coeffs=zero)
        for n in range(n_max + 1)
    )


# ---------------------------------------------------------------------------
# closed-form monopole coefficient and tuning


def alpha0_closed_form(d: int, k: float, eps: float, k_eps) -> complex:
    """Monopole scattering coefficient of the rescaled single inclusion.

    k_eps is the interior Bessel argument at the unit interface; it may be
    a float or an (hi, lo) pair representing a double-double value, in
    which case the expression is evaluated in extended precision (needed
    to resolve the tuned configuration at small eps, where the imaginary
    part of the denominator has slope ~ 1/eps^2 in k_eps).
    """
    if d not in (2, 3):
        raise ValidationError(f"dimension must be 2 or 3, got {d}")
    if isinstance(k_eps, tuple):
        with mp.workdps(MP_DIGITS):
            return _alpha0_mp(d, mp.mpf(k_eps[0]) + mp.mpf(k_eps[1]), _mp_exterior(d, k, eps))
    ke = k * eps
    reg_e = specfun.bessel(d, "regular", 0, ke)
    out_e = specfun.bessel(d, "outgoing", 0, ke)
    reg_i = specfun.bessel(d, "regular", 0, k_eps)
    flux = 1.0 / eps if d == 3 else 1.0
    num = ke * reg_e.derivative * reg_i.value - flux * k_eps * reg_e.value * reg_i.derivative
    den = ke * out_e.derivative * reg_i.value - flux * k_eps * out_e.value * reg_i.derivative
    if abs(den) <= 1e-280 * max(1.0, abs(num)):
        raise SingularSystemError("alpha0 denominator vanished to machine precision")
    return complex(-num / den)


def _mp_regular(d: int, z) -> tuple:
    """Monopole regular basis and its derivative, (j_0, j_0') or (J_0, J_0'), in mpmath."""
    if d == 3:
        return mp.sin(z) / z, mp.cos(z) / z - mp.sin(z) / z**2
    return mp.besselj(0, z), -mp.besselj(1, z)


def _mp_exterior(d: int, k: float, eps: float) -> tuple:
    """(k eps, flux factor, Y_0, Y_0'), or y_0, y_0' in 3d, at k eps in mpmath.

    The exterior side of alpha0, evaluated once per tuned row for both the
    polish and alpha0 (inside mp.workdps(MP_DIGITS)).
    """
    ke = mp.mpf(k) * mp.mpf(eps)
    flux = 1 / mp.mpf(eps) if d == 3 else mp.mpf(1)
    if d == 3:
        return ke, flux, -mp.cos(ke) / ke, mp.sin(ke) / ke + mp.cos(ke) / ke**2
    return ke, flux, mp.bessely(0, ke), -mp.bessely(1, ke)


def _alpha0_mp(d: int, t, exterior: tuple) -> complex:
    """alpha0 at the mpmath interior argument t, from _mp_exterior's tuple."""
    ke, flux, y, yp = exterior
    j, jp = _mp_regular(d, ke)
    jt, jpt = _mp_regular(d, t)
    num = ke * jp * jt - flux * t * j * jpt
    den = ke * (jp + 1j * yp) * jt - flux * t * (j + 1j * y) * jpt
    return complex(-num / den)


@dataclass(frozen=True)
class ResonanceSpec:
    """An interior resonance: mode index and resonant Bessel argument.

    kappa_star is the interior argument k * sqrt(sigma / a) at resonance
    and sigma0 the equation-consistent resonant density for the frequency
    at which it was detected.
    """

    dimension: int
    mode: int
    kappa_star: float
    sigma0: float
    a: float = 1.0

    @property
    def frequency(self) -> float:
        return self.kappa_star * math.sqrt(self.a / self.sigma0)


def _condition(d: int, n: int, kappa, value, derivative, a: float):
    """(raw, normalized) resonance condition of mode n from R_n and R_n' at kappa.

    Zero marks a resonance: in 3d a Neumann eigenvalue j_n'(kappa) = 0; in
    2d the matching of the interior mode to the decaying exterior harmonic,
    J_0'(kappa) = 0 for the monopole and a kappa J_n'(kappa) + n J_n(kappa)
    for n >= 1.  Scalars or arrays alike.
    """
    if d == 3 or n == 0:
        raw = derivative.real
        scale = abs(value) + abs(derivative)
    else:
        raw = (a * kappa * derivative + n * value).real
        scale = abs(a * kappa * derivative) + abs(n * value)
    return raw, raw / np.maximum(scale, 1e-300)


def resonance_condition(d: int, n: int, kappa: float, a: float = 1.0) -> tuple[float, float]:
    """(raw, normalized) modal resonance condition at interior argument kappa (see _condition)."""
    ev = specfun.bessel(d, "regular", n, kappa)
    raw, normed = _condition(d, n, kappa, ev.value, ev.derivative, a)
    return float(raw), float(normed)


def resonance_scan(d: int, modes: int, kappa, a: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(raw, normalized) resonance conditions of modes 0..modes at each kappa.

    Returns arrays of shape (modes + 1, kappa.size) from one chain over all
    orders: an array-argument chain for a grid, a scalar chain for a scalar
    kappa (see specfun.chain).
    """
    kappa = np.asarray(kappa, dtype=float)
    reg = specfun.chain(d, modes + 1, kappa, singular=False)[0]
    z = kappa.ravel()
    der = specfun.chain_derivative(reg, z, 1.0 if d == 3 else 0.0)
    raw = np.empty((modes + 1, z.size))
    normed = np.empty_like(raw)
    for n in range(modes + 1):
        raw[n], normed[n] = _condition(d, n, z, reg[n], der[n], a)
    return raw, normed


def _sign_changes(vals: np.ndarray) -> np.ndarray:
    """Grid intervals [i, i + 1] whose left value is zero or that change sign."""
    return np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))


def first_resonance(d: int, k: float, mode: int = 0) -> ResonanceSpec:
    """First resonant density of the given mode at frequency k, unit stiffness."""
    grid = np.linspace(0.3, 12.0, 2400)
    vals = resonance_scan(d, mode, grid)[0][mode]
    hits = _sign_changes(vals)
    if not hits.size:
        raise BracketError(f"no mode-{mode} resonance found below kappa = 12")
    i = int(hits[0])
    if vals[i] == 0.0:
        kap = float(grid[i])
    else:
        kap = find_root(lambda x: resonance_condition(d, mode, x)[0], (grid[i], grid[i + 1]))
    return ResonanceSpec(dimension=d, mode=mode, kappa_star=kap, sigma0=(kap / k) ** 2)


def detect_resonances(
    d: int,
    a: float,
    sigma: float,
    k_range: tuple[float, float],
    modes: int,
) -> list[ResonanceSpec]:
    """All resonant frequencies of a homogeneous isotropic interior.

    Scans modes 0..modes over k in k_range and returns one spec per root
    of the modal resonance condition, sorted by frequency then mode.
    """
    if sigma <= 0 or a <= 0:
        raise ValidationError("detect_resonances needs real positive a, sigma")
    lo, hi = float(k_range[0]), float(k_range[1])
    if not 0 < lo < hi:
        raise ValidationError(f"bad k range [{lo}, {hi}]")
    slope = math.sqrt(sigma / a)
    found: list[ResonanceSpec] = []
    npts = max(64, int((hi - lo) * slope / 0.02) + 2)
    grid = np.linspace(lo, hi, min(npts, 60000))
    raw = resonance_scan(d, modes, grid * slope, a)[0]
    for n in range(modes + 1):
        vals = raw[n]
        for i in _sign_changes(vals).tolist():
            if vals[i] == 0.0:
                k_root = float(grid[i])
            else:
                k_root = find_root(
                    lambda k: resonance_condition(d, n, k * slope, a)[0],
                    (float(grid[i]), float(grid[i + 1])),
                )
            found.append(
                ResonanceSpec(
                    dimension=d, mode=n, kappa_star=k_root * slope, sigma0=sigma, a=a
                )
            )
    found.sort(key=lambda s: (s.frequency, s.mode))
    return found


@dataclass(frozen=True)
class TunedSigma:
    """Detuned interior density defeating the cloak at one epsilon.

    k_eps is the tuned interior Bessel argument; sigma follows in the two
    conventions (the density symbol of the tuning equations reads k_eps / k,
    while the interior equation implies (k_eps / k)^2).  k_eps_lo is a
    double-double correction used by the extended-precision alpha0 path,
    and alpha0 (exact variant only) alpha0_closed_form at (k_eps, k_eps_lo),
    computed with the polish's exterior Bessel values.
    """

    dimension: int
    k: float
    epsilon: float
    variant: str
    k_eps: float
    k_eps_lo: float
    kappa_star: float
    alpha0: complex | None = None

    @property
    def k_eps_dd(self) -> tuple[float, float]:
        return (self.k_eps, self.k_eps_lo)

    @property
    def sigma_paper(self) -> float:
        return self.k_eps / self.k

    @property
    def sigma_eq(self) -> float:
        return (self.k_eps / self.k) ** 2

    @property
    def sigma0_paper(self) -> float:
        return self.kappa_star / self.k

    @property
    def sigma0_eq(self) -> float:
        return (self.kappa_star / self.k) ** 2


def _im_denominator(
    d: int, k: float, eps: float, sing_e: specfun.BesselEval, t: float
) -> float:
    """Im of alpha0's denominator at interior argument t; sing_e is Y_0 or y_0 at k eps."""
    ke = k * eps
    reg_i = specfun.bessel(d, "regular", 0, t)
    flux = 1.0 / eps if d == 3 else 1.0
    val = (
        ke * sing_e.derivative * reg_i.value
        - flux * t * sing_e.value * reg_i.derivative
    )
    return val.real


def _paper_mismatch(d: int, k: float, eps: float, t: float) -> float:
    reg = specfun.bessel(d, "regular", 0, t)
    if d == 3:
        rhs = -eps - k * eps * eps * math.tan(k * eps)
        return (reg.derivative / reg.value).real - rhs
    rhs = 1.0 / math.log(k * eps / 2.0)
    return (t * reg.derivative / reg.value).real - rhs


def _refine_root_mp(d: int, t0: float, exterior: tuple):
    """Polish the exact tuning root t0 to the mpmath working precision.

    Newton on g(t) = c1 R_0(t) - c2 t R_0'(t), c1 and c2 from _mp_exterior,
    with g' from the Bessel equation: c1 J_0' + c2 t J_0 (2d) or
    c1 j_0' + c2 (j_0' + t j_0) (3d).  The root is simple, so three steps
    from the double root (error ~1e-14) converge quadratically to 60 digits.
    """
    ke, flux, y, yp = exterior
    c1, c2 = ke * yp, flux * y
    t = mp.mpf(t0)
    for _ in range(3):
        j, jp = _mp_regular(d, t)
        slope = c1 * jp + c2 * (t * j if d == 2 else jp + t * j)
        t -= (c1 * j - c2 * t * jp) / slope
    return t


def tune_sigma(
    d: int, k: float, eps: float, spec: ResonanceSpec, variant: str = "exact"
) -> TunedSigma:
    """Tune the interior density so the monopole defeats the cloak.

    variant "exact" solves Im(denominator of alpha0) = 0 with the true
    singular functions, which makes alpha0 = -1 identically; "paper" solves
    the leading-order balance instead (small-argument Y_0 without the
    Euler-Mascheroni constant in 2d, and a plain logarithmic-derivative
    match in 3d that omits the k_eps weight of the exact condition), so it
    detunes at the same rate but does not reach alpha0 = -1.
    """
    if variant not in ("exact", "paper"):
        raise ValidationError(f"unknown tuning variant {variant!r}")
    if eps > 0.3:
        raise ValidationError("tuning bracket is only monotone for eps <= 0.3")
    if spec.mode != 0:
        raise UnsupportedConfigurationError("tuning is defined for mode 0")
    kap = spec.kappa_star
    half_width = 0.4
    if variant == "exact":
        # the exterior factor, fixed over the search
        sing_e = specfun.bessel(d, "singular", 0, k * eps)
        fun = lambda t: _im_denominator(d, k, eps, sing_e, t)
    else:
        fun = lambda t: _paper_mismatch(d, k, eps, t)
    try:
        root = find_root(fun, (kap - half_width, kap + half_width))
    except BracketError as exc:
        raise BracketError(
            f"tuning bracket around kappa* = {kap:.6f} failed: {exc}"
        ) from exc
    if variant == "paper":
        return TunedSigma(d, k, eps, variant, root, 0.0, kap)
    with mp.workdps(MP_DIGITS):
        exterior = _mp_exterior(d, k, eps)
        t = _refine_root_mp(d, root, exterior)
        hi = float(t)
        lo = float(t - hi)
        alpha0 = _alpha0_mp(d, mp.mpf(hi) + mp.mpf(lo), exterior)
    return TunedSigma(d, k, eps, variant, hi, lo, kap, alpha0)


def tuned_inclusion_config(tuned: TunedSigma) -> CloakConfig:
    """Unit-scale cloak config whose interior density realizes the tuning."""
    return CloakConfig(
        dimension=tuned.dimension,
        k=tuned.k,
        epsilon=tuned.epsilon,
        interior=(Layer(1.0, 1.0, tuned.sigma_eq),),
    )


# ---------------------------------------------------------------------------
# interior eigenfunction source


def eigenfunction_normalization(spec: ResonanceSpec) -> float:
    """Amplitude making the resonant radial mode L2-normalized on the ball."""
    d, n, kap = spec.dimension, spec.mode, spec.kappa_star

    def dens(r: np.ndarray) -> np.ndarray:
        vals = specfun.array_chain(d, n, kap * r, singular=False)[0][n]
        return np.abs(vals) ** 2 * r ** (d - 1)

    if d == 3:
        ang = 4.0 * math.pi / (2 * n + 1)
    else:
        ang = 2.0 * math.pi if n == 0 else math.pi
    norm2 = ang * integrate(dens, 0.0, 1.0).real
    return 1.0 / math.sqrt(norm2)


def interior_source_mode_solve(
    medium: LayeredMedium,
    k: float,
    spec: ResonanceSpec,
    normalization: float,
    eigen_norm: float | None = None,
) -> ModeSolution:
    """Transmission solve with the normalized eigenfunction as interior source.

    The right-hand side is normalization * e in the (single) inner layer,
    where e is the L2-normalized radial mode of spec, and the incident
    field is zero.  The particular solution comes from the derivative-in-
    wavenumber identity when the source oscillates at the layer wavenumber,
    and from the resolvent quotient otherwise.  eigen_norm is
    eigenfunction_normalization(spec), a quadrature, computed here unless a
    caller that solves many rows for one spec passes it.
    """
    if len(medium.layers) != 1:
        raise UnsupportedConfigurationError(
            "interior source solve implemented for a single interior layer"
        )
    lay = medium.layers[0]
    if abs(lay.radius - 1.0) > 1e-12:
        raise UnsupportedConfigurationError("inner layer radius must be 1")
    d, n = medium.dimension, spec.mode
    kap = medium.wavenumber(k, 0)
    kap_src = complex(spec.kappa_star)
    if eigen_norm is None:
        eigen_norm = eigenfunction_normalization(spec)
    amp = normalization * eigen_norm
    if amp == 0.0:
        part = None
        pv, pd = 0.0 + 0.0j, 0.0 + 0.0j
    else:
        part = ParticularTerm.for_source(d, n, kap, kap_src, amp / lay.a)
        pv, pd = part.eval(1.0)
    kap_ext = medium.exterior_wavenumber(k)
    reg_i = specfun.bessel(d, "regular", n, kap)
    out_e = specfun.bessel(d, "outgoing", n, kap_ext)
    m = np.array(
        [
            [reg_i.value, -out_e.value],
            [lay.a * kap * reg_i.derivative, -medium.exterior_a * kap_ext * out_e.derivative],
        ],
        dtype=complex,
    )
    rhs = np.array([-pv, -lay.a * pd], dtype=complex)
    y, cond = _solve_stack(m[None], rhs[None])
    if not cond[0] < CONDITION_CAP:
        raise SingularSystemError(_condition_message(f"interior-source mode {n}", cond[0]))
    c, alpha = y[0]
    return ModeSolution(
        n=n,
        b_n=0.0 + 0.0j,
        alpha_n=complex(alpha),
        layer_coeffs=((complex(c), 0.0 + 0.0j),),
        particular=part,
    )
