"""Exact transfer-matrix solver for concentric layered media, all modes at once.

Each angular mode of the Helmholtz equation in a concentric isotropic
medium reduces to a radial two-point transmission problem.  Coefficients
are propagated across interfaces by 2x2 matrices built from continuity of
the field and of the flux a * du/dr; every order's matrices come from one
Bessel chain per interface side, and the 2x2 systems of all orders are
solved as arrays.  A dense per-mode assembly lives with the tests as their
oracle.

Also here: the small-inclusion (virtual) media obtained by pulling the
cloak problem back through the blow-up map; the resonant-density tuning
of the instability experiment, whose rows read only the tuned monopole's
scattering coefficient alpha0 and blown-up interior coefficient, both at
MP_DIGITS digits from one extended-precision monopole basis (either
tuning variant); resonance detection; and the interior-eigenfunction-source
solve that drives the blow-up experiment.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from . import specfun
from .errors import (
    BesselOverflowError,
    BracketError,
    SingularSystemError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .specfun import find_root

FREQUENCY_CAP = 50.0
# smallest regularization: eps^(-d) is 1e300 there in 3d, and float ** overflows
# (OverflowError) below about 5.6e-103 (3d) and 7.5e-155 (2d)
EPSILON_FLOOR = 1e-100
# smallest eps of a 3d instability sweep: the double-double tuned root holds
# |alpha_0 + 1| <= 1.3e-11 at 1e-10 but reaches 1e-9 at 1e-11 (k = 0.5 to 50)
TUNING_FLOOR_3D = 1e-10
CONDITION_CAP = 1.0e12
# a homogeneous interior whose normalized resonance condition (resonance_condition)
# falls below this is resonant: fields.interior_limit leaks a 3d monopole
# resonance and rejects every other one
RESONANCE_PROXIMITY = 1e-8
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
    """Concentric layers (innermost first) in a homogeneous exterior of unit stiffness."""

    dimension: int
    layers: tuple[Layer, ...]
    exterior_sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValidationError(f"dimension must be 2 or 3, got {self.dimension}")
        if not self.layers:
            raise ValidationError("medium needs at least one layer")
        radii = [lay.radius for lay in self.layers]
        if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
            raise ValidationError(f"layer radii must increase strictly: {radii}")
        if self.exterior_sigma <= 0:
            raise ValidationError("exterior density must be positive")

    def wavenumber(self, k: float, index: int) -> complex:
        lay = self.layers[index]
        return k * cmath.sqrt(complex(lay.sigma) / lay.a)

    def exterior_wavenumber(self, k: float) -> float:
        return k * math.sqrt(self.exterior_sigma)


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


def homogeneous_layer(interior: tuple[Layer, ...]) -> Layer | None:
    """The interior's layer, with a real density, if it is one lossless layer; else None.

    Resonance is tested for such an interior only: a layered interior has
    resonances too (eigenvalues of the layered ball), which nothing here
    detects, and a lossy one has a complex interior wavenumber.
    """
    if len(interior) == 1 and complex(interior[0].sigma).imag == 0:
        return replace(interior[0], sigma=complex(interior[0].sigma).real)
    return None


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
    return LayeredMedium(dimension=d, layers=layers, exterior_sigma=eps**2)


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


def particular_profile(d: int, nu, kappa: complex, r, value, derivative):
    """(r R_n'(kappa r), d/dr [r R_n'(kappa r)]) from R_n and R_n' at z = kappa r != 0.

    r R_n'(kappa r) is the kappa-derivative of R_n(kappa r), so q times it
    solves (Laplacian + kappa^2) u = -2 kappa q R_n(kappa r): the particular
    solution of an interior driven by its own eigenfunction
    (ModeSolution.particular).  R_n'' comes from Bessel's equation (DLMF
    10.22(ii)) with the angular eigenvalue nu.  Scalars or arrays alike.
    """
    z = kappa * r
    d2 = -(d - 1.0) / z * derivative - (1.0 - nu / (z * z)) * value
    return r * derivative, derivative + kappa * r * d2


@dataclass(frozen=True)
class ModeSolution:
    """Coefficients of one angular mode of a transmission solve.

    particular is the coefficient q of the innermost layer's particular
    term q r R_n'(kappa r) at that layer's wavenumber kappa (see
    particular_profile); 0 means no term.
    """

    n: int
    b_n: complex
    alpha_n: complex
    layer_coeffs: tuple[tuple[complex, complex], ...]
    particular: complex = 0.0 + 0.0j


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
    rd = specfun.chain_derivative(reg[: last + 2], z, d)
    sd = specfun.chain_derivative(sing, z, d)
    sv = sing[: last + 1]
    if outgoing:
        # H = J + iY, value and derivative assembled from the components
        sv, sd = reg[: last + 1] + 1j * sv, rd + 1j * sd
    m = np.empty((last + 1, 2, 2), dtype=complex)
    m[:, 0, 0] = reg[: last + 1]
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
            a_r, kap_r = 1.0, medium.exterior_wavenumber(k)
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
# monopole coefficient and tuning


def _monopole_wronskian(ke, flux, exterior: tuple, t, interior: tuple):
    """ke f'(ke) R_0(t) - flux t f(ke) R_0'(t), from (value, derivative) pairs.

    f is an exterior monopole basis at ke = k eps, R_0 the regular one at
    the interior argument t, and flux the interior flux factor (1/eps in
    3d, 1 in 2d).  With f the regular, outgoing and singular basis this is
    alpha0's numerator, its denominator and the exact tuning condition (the
    denominator's imaginary part).  Floats and mpmath numbers alike.
    """
    f, fp = exterior
    r, rp = interior
    return ke * fp * r - flux * t * f * rp


def _mp_regular(d: int, z) -> tuple:
    """Monopole regular basis and its derivative, (j_0, j_0') or (J_0, J_0'), in mpmath."""
    if d == 3:
        return mp.sin(z) / z, mp.cos(z) / z - mp.sin(z) / z**2
    return mp.besselj(0, z), -mp.besselj(1, z)


def _mp_y0_series(z, j0, j0p) -> tuple:
    """(Y_0(z), Y_0'(z)) by DLMF 10.8.2, given J_0(z) and J_0'(z), at the working precision.

    Y_0 = (2/pi) [(ln(z/2) + gamma) J_0 + q sum_n H_n u_n], u_n = (-1)^(n+1) q^(n-1) / (n!)^2,
    q = z^2/4, and Y_0' term by term; the sums run in integers scaled by 2^prec, ten guard digits.
    """
    with mp.workdps(mp.mp.dps + 10):          # terms reach 1e6 times the sum at k eps <= 15
        prec, q = mp.mp.prec, z * z / 4
        one, qf, n = 1 << prec, int(mp.ldexp(q, prec)), 1
        u = h = s = ds = one                  # u_1, H_1 and both sums at n = 1
        while u:                              # until u_n falls below 2^-prec
            n += 1
            u = -((u * qf) >> prec) // (n * n)
            h += one // n
            t = (h * u) >> prec
            s, ds = s + t, ds + n * t
        s, ds, log = q * mp.ldexp(s, -prec), q * mp.ldexp(ds, -prec), mp.log(z / 2) + mp.euler
        y0, y0p = 2 / mp.pi * (log * j0 + s), 2 / mp.pi * (j0 / z + log * j0p + 2 * ds / z)
    return +y0, +y0p


def _mp_exterior(d: int, k: float, eps: float) -> tuple:
    """(k eps, flux factor, (J_0, J_0'), (Y_0, Y_0')), or j_0 and y_0 in 3d, at k eps in mpmath.

    The exterior side of alpha0, evaluated once per tuned row for alpha0
    and, on an exact row, the polish (inside mp.workdps(MP_DIGITS)); Y_0,
    Y_0' by _mp_y0_series.
    """
    ke = mp.mpf(k) * mp.mpf(eps)
    reg = _mp_regular(d, ke)
    if d == 3:
        return ke, 1 / mp.mpf(eps), reg, (-mp.cos(ke) / ke, mp.sin(ke) / ke + mp.cos(ke) / ke**2)
    return ke, mp.mpf(1), reg, _mp_y0_series(ke, *reg)


def _alpha0_mp(d: int, t, exterior: tuple) -> tuple[complex, complex]:
    """(alpha0, c) at the mpmath interior argument t, from _mp_exterior's tuple.

    Under the unit monopole incidence f(k r), c is the blown-up interior's
    coefficient of R_0(t r): c R_0(t) = f(k eps) + alpha0 h(k eps), h = f + i y.
    Raises SingularSystemError if the denominator vanishes at the working
    precision, relative to the numerator (a lossless row has |alpha0| <= 1).
    """
    ke, flux, (j, jp), (y, yp) = exterior
    interior = _mp_regular(d, t)
    num = _monopole_wronskian(ke, flux, (j, jp), t, interior)
    den = _monopole_wronskian(ke, flux, (j + 1j * y, jp + 1j * yp), t, interior)
    if abs(den) <= mp.eps * abs(num):
        raise SingularSystemError("alpha0 denominator vanished at the working precision")
    alpha0 = -num / den
    return complex(alpha0), complex((j + alpha0 * (j + 1j * y)) / interior[0])


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
    raw, normed = _condition(d, n, kappa, *specfun.bessel(d, n, kappa), a)
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
    der = specfun.chain_derivative(reg, z, d)
    raw = np.empty((modes + 1, z.size))
    normed = np.empty_like(raw)
    for n in range(modes + 1):
        raw[n], normed[n] = _condition(d, n, z, reg[n], der[n], a)
    return raw, normed


def _grid_roots(grid: np.ndarray, vals: np.ndarray, fun):
    """Roots of fun, in grid order, from its values on the grid.

    Each grid point where the value is zero is a root; each interval whose
    values change sign is refined with find_root.  A generator, so a caller
    wanting the first root refines one bracket only.
    """
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0)).tolist():
        if vals[i] == 0.0:
            yield float(grid[i])
        else:
            yield find_root(fun, (float(grid[i]), float(grid[i + 1])))


def first_resonance(d: int, k: float, mode: int = 0) -> ResonanceSpec:
    """First resonant density of the given mode at frequency k, unit stiffness.

    Scans 2400 points of [0.3, 12] in blocks of 256 that share their end
    points, and stops at the first block holding a root: the low modes'
    roots lie in the first blocks, and each point's value does not depend
    on its block (specfun.chain).  A mode with no root there (from mode 9
    in 2d, 10 in 3d) is a ValidationError.
    """
    grid = np.linspace(0.3, 12.0, 2400)
    fun = lambda x: resonance_condition(d, mode, x)[0]
    for start in range(0, grid.size - 1, 255):
        block = grid[start:start + 256]
        kap = next(_grid_roots(block, resonance_scan(d, mode, block)[0][mode], fun), None)
        if kap is not None:
            if kap > k * 1e154:   # sigma0 = (kap / k)^2 would overflow
                raise ValidationError(f"k = {k:g} is too small: (kappa*/k)^2 overflows")
            return ResonanceSpec(dimension=d, mode=mode, kappa_star=kap, sigma0=(kap / k) ** 2)
    raise ValidationError(f"no mode-{mode} resonance found below kappa = 12")


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
        fun = lambda k: resonance_condition(d, n, k * slope, a)[0]
        found += (
            ResonanceSpec(dimension=d, mode=n, kappa_star=k_root * slope, sigma0=sigma, a=a)
            for k_root in _grid_roots(grid, raw[n], fun)
        )
    found.sort(key=lambda s: (s.frequency, s.mode))
    return found


@dataclass(frozen=True)
class TunedSigma:
    """The tuned interior argument of one epsilon and its monopole coefficients.

    k_eps is the tuned interior Bessel argument and k_eps_lo the
    double-double correction of the polished root (0 for the "paper"
    variant, whose double root is not polished).  alpha0 is the monopole
    coefficient and interior the blown-up interior's coefficient c, both
    from _alpha0_mp at k_eps + k_eps_lo and the exterior values the polish uses.
    """

    k_eps: float
    k_eps_lo: float
    alpha0: complex
    interior: complex


def _paper_mismatch(d: int, k: float, eps: float, t: float) -> float:
    val, der = specfun.bessel(d, 0, t)
    if d == 3:
        rhs = -eps - k * eps * eps * math.tan(k * eps)
        return (der / val).real - rhs
    rhs = 1.0 / math.log(k * eps / 2.0)
    return (t * der / val).real - rhs


def _refine_root_mp(d: int, t0: float, exterior: tuple):
    """Polish the exact tuning root t0 to the mpmath working precision.

    Newton on the tuning condition g(t) = c1 R_0(t) - c2 t R_0'(t), the
    monopole Wronskian of the singular exterior basis (c1 = k eps Y_0', c2 =
    flux Y_0 from _mp_exterior: the DLMF 10.8.2 series at the working
    precision in 2d), with g' from the Bessel equation:
    c1 J_0' + c2 t J_0 (2d) or c1 j_0' + c2 (j_0' + t j_0) (3d).  The root is
    simple, so three steps from the double root (error ~1e-14) converge to 60 digits.
    """
    ke, flux, _, sing = exterior
    c1, c2 = ke * sing[1], flux * sing[0]
    t = mp.mpf(t0)
    for _ in range(3):
        j, jp = interior = _mp_regular(d, t)
        slope = c1 * jp + c2 * (t * j if d == 2 else jp + t * j)
        t -= _monopole_wronskian(ke, flux, sing, t, interior) / slope
    return t


def tune_sigma(
    d: int, k: float, eps: float, kappa_star: float, variant: str = "exact"
) -> TunedSigma:
    """Tune the interior argument near kappa_star so the monopole defeats the cloak.

    variant "exact" solves Im(denominator of alpha0) = 0 with the true
    singular functions, which makes alpha0 = -1 identically; "paper" solves
    the leading-order balance instead (small-argument Y_0 without the
    Euler-Mascheroni constant in 2d, and a plain logarithmic-derivative
    match in 3d that omits the k_eps weight of the exact condition), so it
    detunes at the same rate but does not reach alpha0 = -1.  The exact root
    is polished at MP_DIGITS digits, the paper root kept as found; either
    row's alpha0 and interior coefficient come from _alpha0_mp.  The inputs
    are the caller's to check (experiments.instability_sweep); a root that
    the bracket kappa_star +- 0.4 does not hold is a ValidationError.
    """
    if variant == "exact":
        # Im of alpha0's denominator; the exterior factor is fixed over the search
        ke, flux = k * eps, (1.0 / eps if d == 3 else 1.0)
        y = specfun.chain(d, 1, ke)[1]
        sing = (complex(y[0]), complex(specfun.chain_derivative(y, ke, d)[0]))

        def fun(t: float) -> float:
            return _monopole_wronskian(ke, flux, sing, t, specfun.bessel(d, 0, t)).real
    else:
        fun = lambda t: _paper_mismatch(d, k, eps, t)
    try:
        root = find_root(fun, (kappa_star - 0.4, kappa_star + 0.4))
    except BracketError as exc:
        raise ValidationError(
            f"no {variant} tuned root within 0.4 of kappa* = {kappa_star:.6f} "
            f"at k eps = {k * eps:g}: {exc}"
        ) from exc
    with mp.workdps(MP_DIGITS):
        exterior = _mp_exterior(d, k, eps)
        t = mp.mpf(root) if variant == "paper" else _refine_root_mp(d, root, exterior)
        hi = float(t)
        lo = float(t - hi)
        alpha0, c = _alpha0_mp(d, mp.mpf(hi) + mp.mpf(lo), exterior)
    return TunedSigma(hi, lo, alpha0, c)


# ---------------------------------------------------------------------------
# interior eigenfunction source


def interior_source_mode_solve(
    medium: LayeredMedium, k: float, n: int, amplitude: float
) -> ModeSolution:
    """Transmission solve of mode n with the layer's own eigenfunction as interior source.

    The right-hand side is amplitude * R_n(kappa r) in the (single) inner
    layer of stiffness a and wavenumber kappa, and the incident field is
    zero.  The source oscillates at the layer wavenumber, so the particular
    solution is q r R_n'(kappa r), q = -(amplitude / a) / (2 kappa)
    (particular_profile), from R_n and R_n' at r = 1; the interface system
    is solve_modes' (_interface_side rows at r = 1).
    """
    if len(medium.layers) != 1:
        raise UnsupportedConfigurationError(
            "interior source solve implemented for a single interior layer"
        )
    lay = medium.layers[0]
    if abs(lay.radius - 1.0) > 1e-12:
        raise UnsupportedConfigurationError("inner layer radius must be 1")
    d = medium.dimension
    kap = medium.wavenumber(k, 0)
    q = -(amplitude / lay.a) / (2.0 * kap)
    pv, pd = particular_profile(d, angular_eigenvalue(d, n), kap, 1.0, *specfun.bessel(d, n, kap))
    inner = _interface_side(d, n, lay.a, kap, 1.0, False)
    outer = _interface_side(d, n, 1.0, medium.exterior_wavenumber(k), 1.0, True)
    if min(len(inner), len(outer)) <= n:
        raise BesselOverflowError(f"singular basis of order {n + 1} overflows at the interface")
    m = np.stack([inner[n, :, 0], -outer[n, :, 1]], axis=1)   # regular inside, outgoing outside
    rhs = np.array([-(q * pv), -lay.a * (q * pd)], dtype=complex)
    y, cond = _solve_stack(m[None], rhs[None])
    if not cond[0] < CONDITION_CAP:
        raise SingularSystemError(_condition_message(f"interior-source mode {n}", cond[0]))
    c, alpha = y[0]
    return ModeSolution(
        n=n,
        b_n=0.0 + 0.0j,
        alpha_n=complex(alpha),
        layer_coeffs=((complex(c), 0.0 + 0.0j),),
        particular=q,
    )
