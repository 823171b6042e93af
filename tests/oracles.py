"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own evaluation paths:
power series, plain bisection, Chebyshev collocation, banded finite
differences, a dense per-mode interface assembly and a point-by-point
series sum over scipy's Bessel functions provide expected values computed
on a different route.  The change-of-variables section builds what the
program never evaluates, the push-forward shell tensors of the blow-up
map, to check that a composed field solves the transformed equation.
The instability rows have an 80-digit mpmath reference: the monopole's
2x2 continuity system, the norms by quadrature and the detuning products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from cloakwave.errors import ValidationError
from cloakwave.transform import OUTER_RADIUS, BlowupMap, radial_forward


def scattered(series):
    """series with every incident coefficient b_n zeroed, and its incident spec dropped.

    Outside the medium that is the scattered field, the outgoing part
    alone; inside it, the layer coefficients are kept.
    """
    modes = tuple(replace(m, b_n=0.0 + 0.0j) for m in series.modes)
    return replace(series, modes=modes, incident=None)


def j1_series(x: float, nterms: int = 60) -> float:
    """Cylindrical J_1 by its power series (reliable for |x| <= 12)."""
    half = 0.5 * x
    term = half
    total = term
    for kk in range(1, nterms):
        term *= -(half * half) / (kk * (kk + 1))
        total += term
        if abs(term) < 1e-20 * abs(total):
            break
    return total


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; independent of the package root finder."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def first_j1_zero() -> float:
    """First positive zero of J_1 (= first stationary point of J_0)."""
    return bisect(j1_series, 3.0, 4.0)


def first_tan_fixed_point() -> float:
    """First positive root of tan x = x (first zero of spherical j_0')."""
    return bisect(lambda x: math.tan(x) - x, 4.2, 4.6)


def _mp_regular0(d: int, z) -> tuple:
    """(j_0, j_0') at z in 3d, (J_0, J_0') in 2d, in mpmath."""
    if d == 3:
        return mp.sin(z) / z, mp.cos(z) / z - mp.sin(z) / z**2
    return mp.besselj(0, z), -mp.besselj(1, z)


def _mp_outgoing0(d: int, z) -> tuple:
    """(h_0, h_0') = (j_0 + i y_0, its derivative) at z in 3d, (H_0, H_0') in 2d, in mpmath."""
    j, jp = _mp_regular0(d, z)
    if d == 3:
        return j - 1j * mp.cos(z) / z, jp + 1j * (mp.sin(z) / z + mp.cos(z) / z**2)
    return j + 1j * mp.bessely(0, z), jp - 1j * mp.bessely(1, z)


def _mp_norms(d: int, basis, kap, lo, hi) -> tuple:
    """(L2, full H1) of basis(d, kap r) on lo <= |x| <= hi by mp.quad, at the working precision."""
    memo = {}

    def at(r):   # both quadratures run on the same Gauss-Legendre nodes
        if r not in memo:
            memo[r] = basis(d, kap * r)
        return memo[r]

    l2 = mp.quad(lambda r: abs(at(r)[0]) ** 2 * r ** (d - 1), [lo, hi], method="gauss-legendre")
    grad = mp.quad(lambda r: abs(kap * at(r)[1]) ** 2 * r ** (d - 1), [lo, hi],
                   method="gauss-legendre")
    weight = 4 * mp.pi if d == 3 else 2 * mp.pi
    return mp.sqrt(weight * l2), mp.sqrt(weight * (l2 + grad))


def outgoing_norm_mp(d: int, k, probe=(2, 4)) -> tuple[float, float]:
    """(L2, full H1) of the unit outgoing monopole h(k |x|) over the probe annulus, 80 digits."""
    with mp.workdps(80):
        l2, h1 = _mp_norms(d, _mp_outgoing0, mp.mpf(k), mp.mpf(probe[0]), mp.mpf(probe[1]))
        return float(l2), float(h1)


def instability_row_mp(d: int, k, eps, t_hi, t_lo) -> tuple:
    """(alpha0, c, interior L2, interior H1) of one instability row, by mpmath at 80 digits.

    The unit monopole f(k r) meets the blown-up inclusion, c R_0(t r) on the
    unit ball with t = t_hi + t_lo (virtual stiffness eps^(2-d),
    wavenumber t / eps): alpha0 and c solve the value and flux continuity
    at r = eps by mp.lu_solve, and the norms of c R_0(t r) over the unit
    ball come from mp.quad.  k, eps, t_hi and t_lo are taken as exact.
    """
    with mp.workdps(80):
        k, eps, t = mp.mpf(k), mp.mpf(eps), mp.mpf(t_hi) + mp.mpf(t_lo)
        (j, jp), (h, hp) = _mp_regular0(d, k * eps), _mp_outgoing0(d, k * eps)
        r0, r0p = _mp_regular0(d, t)
        flux = eps ** (2 - d) * t / eps          # stiffness times wavenumber inside
        m = mp.matrix([[r0, -h], [flux * r0p, -k * hp]])
        c, alpha0 = mp.lu_solve(m, mp.matrix([j, k * jp]))
        l2, h1 = _mp_norms(d, _mp_regular0, t, 0, 1)
        return complex(alpha0), complex(c), float(abs(c) * l2), float(abs(c) * h1)


def detuning_products_mp(d: int, k, eps, t_hi, t_lo, kappa_star) -> tuple[float, float]:
    """(paper, eq) detuning products of one tuned row, by mpmath at 80 digits.

    w |t - kappa*| / k and w |t^2 - kappa*^2| / k^2, t = t_hi + t_lo, the
    offsets of the densities t / k and (t / k)^2 from their resonant values,
    weighted by w = 1 / eps (3d) or |ln eps| (2d).  Every input is taken as exact.
    """
    with mp.workdps(80):
        k, eps, kap = mp.mpf(k), mp.mpf(eps), mp.mpf(kappa_star)
        t = mp.mpf(t_hi) + mp.mpf(t_lo)
        w = 1 / eps if d == 3 else abs(mp.log(eps))
        return float(w * abs(t - kap) / k), float(w * abs(t * t - kap * kap) / (k * k))


def resonance_kappas(d: int, n: int, lo: float, hi: float) -> list[float]:
    """Roots in (lo, hi) of the unit-stiffness modal resonance condition, from scipy.

    3d: zeros of the spherical j_n', bracketed on a fine grid and closed by
    scipy's brentq.  2d: the monopole condition J_0' = -J_1 and, for n >= 1,
    kappa J_n' + n J_n = kappa J_(n-1), so the zeros of J_1 and J_(n-1).
    """
    from scipy import optimize, special

    if d == 2:
        zeros = special.jn_zeros(1 if n == 0 else n - 1, 40)
        return [float(z) for z in zeros if lo < z < hi]
    f = lambda x: special.spherical_jn(n, x, derivative=True)
    grid = np.linspace(lo, hi, 4000)
    vals = f(grid)
    return [
        optimize.brentq(f, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16)
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0)
    ]


def cheb_diff(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix and nodes on [-1, 1] (descending)."""
    if n == 0:
        return np.zeros((1, 1)), np.array([1.0])
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    xmat = np.tile(x, (n + 1, 1)).T
    dx = xmat - xmat.T + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    d -= np.diag(d.sum(axis=1))
    return d, x


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Quadrature weights matching the cheb_diff nodes on [-1, 1]."""
    if n == 0:
        return np.array([2.0])
    theta = np.pi * np.arange(n + 1) / n
    w = np.zeros(n + 1)
    v = np.ones(n - 1)
    for kk in range(1, n // 2 + 1):
        factor = 2.0 if 2 * kk != n else 1.0
        v -= factor * np.cos(2.0 * kk * theta[1:-1]) / (4.0 * kk * kk - 1.0)
    w[1:-1] = 2.0 * v / n
    w[0] = w[-1] = 1.0 / (n * n - (n % 2 == 0))
    return w


def collocation_monopole_limit(kappa: float, u0: complex, n: int = 80):
    """Brute-force collocation solve of the resonant 3d interior-limit system.

    Unknowns: phi_v = r * v_int, phi_w = r * w on [0, 1] at Chebyshev
    nodes, and the decaying exterior harmonic coefficient c (v_ext = c/r).
    Rows impose the substituted interior equations phi'' + kappa^2 phi = 0,
    regularity at the origin, the zero-Neumann condition on v_int, the
    value jump v_ext - v_int = -u0, the flux identity dv_ext/dr = a dw/dr,
    and the orthogonality of w to the radial eigenfunction.  The slightly
    overdetermined system (Fredholm-compatible) is solved by least squares.

    Returns (nodes r, v_int values at the nodes, lstsq residual).
    """
    d, xc = cheb_diff(n)
    r = 0.5 * (xc + 1.0)          # map to [0, 1], descending from 1 to 0
    dr = 2.0 * d                  # d/dr on [0, 1]
    d2 = dr @ dr
    npts = n + 1
    nun = 2 * npts + 1
    rows = []
    rhs = []

    def row(vec_v, vec_w, c_coef, val):
        rows.append(np.concatenate([vec_v, vec_w, [c_coef]]))
        rhs.append(val)

    eye = np.eye(npts)
    # interior equations for phi_v and phi_w at interior nodes
    for i in range(1, npts - 1):
        row(d2[i] + kappa * kappa * eye[i], np.zeros(npts), 0.0, 0.0)
        row(np.zeros(npts), d2[i] + kappa * kappa * eye[i], 0.0, 0.0)
    # regularity: phi(0) = 0 (last node is r = 0)
    row(eye[-1], np.zeros(npts), 0.0, 0.0)
    row(np.zeros(npts), eye[-1], 0.0, 0.0)
    # Neumann on v_int: v' = (phi' r - phi)/r^2 -> phi'(1) - phi(1) = 0
    row(dr[0] - eye[0], np.zeros(npts), 0.0, 0.0)
    # value jump at r = 1: c - phi_v(1) = -u0
    row(-eye[0], np.zeros(npts), 1.0, -u0)
    # flux: d(c/r)/dr at 1 = -c equals a * w'(1) = phi_w'(1) - phi_w(1)
    row(np.zeros(npts), dr[0] - eye[0], 1.0, 0.0)
    # orthogonality of w to the eigenfunction e = j0(kappa r) in H1(B1):
    # int (w' e' + w e) r^2 dr = 0 with w = phi_w / r
    wq = 0.5 * clenshaw_curtis_weights(n)
    e_vals = np.array([np.sinc(kappa * ri / np.pi) for ri in r])
    e_der = np.array(
        [
            (kappa * ri * math.cos(kappa * ri) - math.sin(kappa * ri)) / (kappa * ri**2)
            if ri > 0
            else 0.0
            for ri in r
        ]
    )
    # w = phi/r, w' = phi'/r - phi/r^2; the r^2 measure cancels singularities:
    # w' r^2 = phi' r - phi and w r^2 = phi r
    orth = np.zeros(npts)
    for idx in range(npts):
        ri = r[idx]
        if ri == 0.0:
            continue
        orth += wq[idx] * e_der[idx] * (dr[idx] * ri - eye[idx])
        orth += wq[idx] * e_vals[idx] * ri * eye[idx]
    row(np.zeros(npts), orth, 0.0, 0.0)

    a = np.array(rows, dtype=complex)
    b = np.array(rhs, dtype=complex)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    phi_v = sol[:npts]
    resid = float(np.linalg.norm(a @ sol - b))
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.where(r > 0, phi_v / np.where(r > 0, r, 1.0), 0.0)
    # v(0) by L'Hopital: phi_v'(0)
    v[-1] = (dr @ phi_v)[-1]
    return r, v, resid


def neumann_monopole_limit(kappa: float, kappa_star: float, r) -> np.ndarray:
    """Closed-form 3d limit of the blown-up interior field under a radial source.

    The interior (unit stiffness, wavenumber kappa) is driven by the radial
    eigenfunction j_0(kappa_star r), j_0'(kappa_star) = 0, scaled to unit
    L2 norm on the unit ball.  As eps vanishes the field tends to the
    solution of the Neumann problem (Laplacian + kappa^2) U = q j_0(kappa_star r),
    dU/dr = 0 at r = 1: U = c j_0(kappa_star r) + A j_0(kappa r), with
    c = q / (kappa^2 - kappa_star^2) and A cancelling the flux of the first
    term at r = 1.  Raises ValueError when j_0'(kappa) vanishes: the
    Neumann problem is then singular, and the eigenfunction source of a
    resonant interior fails its orthogonality condition, so the interior
    energy blows up and there is no limit.

    Returns U at the radii r.
    """
    def j0(x):
        return np.sinc(np.asarray(x) / math.pi)

    def j0p(x):
        return (x * math.cos(x) - math.sin(x)) / (x * x)

    if abs(j0p(kappa)) <= 1e-8 * (abs(j0(kappa)) + abs(j0p(kappa))):
        raise ValueError("resonant interior: the Neumann problem has no solution")
    # ||j_0(kappa_star r)||^2 over the unit ball
    norm2 = 4.0 * math.pi / kappa_star**2 * (0.5 - math.sin(2.0 * kappa_star) / (4.0 * kappa_star))
    c = 1.0 / math.sqrt(norm2) / (kappa * kappa - kappa_star * kappa_star)
    amp = -c * kappa_star * j0p(kappa_star) / (kappa * j0p(kappa))
    r = np.asarray(r, dtype=float)
    return c * j0(kappa_star * r) + amp * j0(kappa * r)


def detuned_source_monopole(
    d: int,
    k: float,
    eps: float,
    a_in: float,
    sigma_in: float,
    kappa_source: float,
    source_amp: float,
    r,
) -> np.ndarray:
    """Closed form of fd_interior_source_solve's radial monopole problem, from scipy.

    Inside the unit ball, a (U'' + (d-1) U'/r) + k^2 sigma U = source_amp *
    R_0(kappa_source r) at the layer wavenumber kappa = k sqrt(sigma / a) !=
    kappa_source: U = c R_0(kappa_source r) + A R_0(kappa r) with c =
    (source_amp / a) / (kappa^2 - kappa_source^2).  Outside, U = alpha
    H_0(eps k r).  A and alpha match the value and the flux (weights
    eps^(2-d) a | 1) at r = 1.

    Returns U at the radii r.
    """
    from scipy import special

    def regular(z):   # (R_0, R_0')
        if d == 3:
            return special.spherical_jn(0, z), special.spherical_jn(0, z, derivative=True)
        return special.j0(z), -special.j1(z)

    def outgoing(z):   # (H_0, H_0')
        if d == 3:
            return (special.spherical_jn(0, z) + 1j * special.spherical_yn(0, z),
                    special.spherical_jn(0, z, True) + 1j * special.spherical_yn(0, z, True))
        return special.hankel1(0, z), -special.hankel1(1, z)

    kappa, ke, w = k * math.sqrt(sigma_in / a_in), eps * k, eps ** (2 - d) * a_in
    c = source_amp / a_in / (kappa * kappa - kappa_source * kappa_source)
    (s, sp), (f, fp), (h, hp) = regular(kappa_source), regular(kappa), outgoing(ke)
    amp, alpha = np.linalg.solve(
        np.array([[f, -h], [w * kappa * fp, -ke * hp]], dtype=complex),
        np.array([-c * s, -w * c * kappa_source * sp], dtype=complex),
    )
    r = np.asarray(r, dtype=float)
    out = np.empty(r.shape, dtype=complex)
    inside = r <= 1.0
    out[inside] = c * regular(kappa_source * r[inside])[0] + amp * regular(kappa * r[inside])[0]
    out[~inside] = alpha * outgoing(ke * r[~inside])[0]
    return out


def fd_interior_source_solve(
    d: int,
    k: float,
    eps: float,
    a_in: float,
    sigma_in: float,
    kappa_source: float,
    source_amp: float,
    npts: int = 10000,
    r_outer: float = 2.0,
    richardson: bool = True,
):
    """Banded finite-difference solve of the radial monopole source problem.

    Solves, on (0, r_outer] with ~npts nodes,
        a (U'' + (d-1) U'/r) + k^2 sigma U = source_amp * j_or_J_0(kappa_source r)
    inside the unit ball, the free equation with wavenumber eps*k outside,
    flux weights (eps^(2-d) a | 1) at the unit interface, and the exact
    outgoing Robin condition at r_outer.  Mode 0 only.  With richardson the
    second-order solves at h and h/2 are extrapolated on the coarse nodes.

    Returns (grid, U values).
    """
    if richardson:
        g1, u1 = fd_interior_source_solve(
            d, k, eps, a_in, sigma_in, kappa_source, source_amp,
            npts=npts, r_outer=r_outer, richardson=False,
        )
        _, u2 = fd_interior_source_solve(
            d, k, eps, a_in, sigma_in, kappa_source, source_amp,
            npts=2 * npts, r_outer=r_outer, richardson=False,
        )
        return g1, (4.0 * u2[::2] - u1) / 3.0
    import scipy.linalg as sla
    import scipy.special as ss

    n_in = int(npts * 0.5)
    h = 1.0 / n_in
    n_tot = int(round(r_outer / h))
    r = np.arange(n_tot + 1) * h
    size = n_tot + 1
    band = np.zeros((5, size), dtype=complex)   # 2 super, main, 2 sub (pentadiagonal)
    rhs = np.zeros(size, dtype=complex)

    def set_entry(i, jj, val):
        band[2 + i - jj, jj] += val

    kap_ext = eps * k
    w_in = eps ** (2 - d) * a_in

    def src(ri):
        if d == 3:
            return source_amp * np.sinc(kappa_source * ri / np.pi)
        return source_amp * ss.j0(kappa_source * ri)

    for i in range(size):
        ri = r[i]
        if i == 0:
            # regularity at the origin: d * U'' + (k^2 sigma / a) U = s / a
            set_entry(0, 0, -2.0 * d / (h * h) + k * k * sigma_in / a_in)
            set_entry(0, 1, 2.0 * d / (h * h))     # ghost U_{-1} = U_1
            rhs[0] = src(0.0) / a_in
        elif i == n_in:
            # flux continuity with one-sided second-order derivatives
            set_entry(i, i - 2, w_in * (1.0 / (2 * h)))
            set_entry(i, i - 1, w_in * (-4.0 / (2 * h)))
            set_entry(i, i, w_in * (3.0 / (2 * h)) - 1.0 * (-3.0 / (2 * h)))
            set_entry(i, i + 1, -1.0 * (4.0 / (2 * h)))
            set_entry(i, i + 2, -1.0 * (-1.0 / (2 * h)))
            rhs[i] = 0.0
        elif i == size - 1:
            # outgoing Robin: U'(R) = gamma U(R), gamma from the exact mode
            if d == 3:
                z = kap_ext * r_outer
                h0 = (np.sin(z) - 1j * np.cos(z)) / z
                h0p = (np.cos(z) + 1j * np.sin(z)) / z - h0 / z
            else:
                z = kap_ext * r_outer
                h0 = ss.j0(z) + 1j * ss.y0(z)
                h0p = -(ss.j1(z) + 1j * ss.y1(z))
            gamma = kap_ext * h0p / h0
            set_entry(i, i - 2, 1.0 / (2 * h))
            set_entry(i, i - 1, -4.0 / (2 * h))
            set_entry(i, i, 3.0 / (2 * h) - gamma)
        else:
            inside = i < n_in
            coef_a = a_in if inside else 1.0
            coef_s = k * k * sigma_in if inside else k * k * eps * eps
            set_entry(i, i - 1, coef_a * (1.0 / (h * h) - (d - 1) / (2 * h * ri)))
            set_entry(i, i, coef_a * (-2.0 / (h * h)) + coef_s)
            set_entry(i, i + 1, coef_a * (1.0 / (h * h) + (d - 1) / (2 * h * ri)))
            rhs[i] = src(ri) if inside else 0.0
    sol = sla.solve_banded((2, 2), band, rhs)
    return r, sol


# -- dense per-mode transmission solve ------------------------------------------


def _interface_matrix(d: int, n: int, a: float, kappa: complex, r: float, outgoing: bool):
    """Columns: regular, singular (or outgoing) basis of order n at kappa r;
    rows: value and flux a * kappa * f'.  Bessel values from scipy."""
    from scipy import special

    z = complex(kappa * r)
    if d == 3:
        j, jp = special.spherical_jn(n, z), special.spherical_jn(n, z, derivative=True)
        y, yp = special.spherical_yn(n, z), special.spherical_yn(n, z, derivative=True)
    else:
        j, jp = special.jv(n, z), special.jvp(n, z)
        y, yp = special.yv(n, z), special.yvp(n, z)
    if outgoing:
        y, yp = j + 1j * y, jp + 1j * yp
    return np.array([[j, y], [a * kappa * jp, a * kappa * yp]], dtype=complex)


def mode_solve_dense(medium, k: float, n: int, b_n: complex):
    """Mode n by dense assembly of the full interface system (np.linalg.solve).

    Unknowns: the innermost layer's regular coefficient, both coefficients
    of every further layer, and alpha_n; no equilibration.
    """
    from cloakwave.mie import ModeSolution

    d = medium.dimension
    nlay = len(medium.layers)
    size = 2 * nlay
    A = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)

    def col_of(layer: int) -> tuple[int, int]:
        # innermost layer holds a single regular coefficient
        return (0, -1) if layer == 0 else (2 * layer - 1, 2 * layer)

    for i, lay in enumerate(medium.layers):
        left = _interface_matrix(d, n, lay.a, medium.wavenumber(k, i), lay.radius, False)
        c_col, d_col = col_of(i)
        A[2 * i : 2 * i + 2, c_col] += left[:, 0]
        if d_col >= 0:
            A[2 * i : 2 * i + 2, d_col] += left[:, 1]
        if i == nlay - 1:
            right = _interface_matrix(
                d, n, 1.0, medium.exterior_wavenumber(k), lay.radius, True
            )
            A[2 * i : 2 * i + 2, size - 1] -= right[:, 1]
            rhs[2 * i : 2 * i + 2] += b_n * right[:, 0]
        else:
            right = _interface_matrix(
                d, n, medium.layers[i + 1].a, medium.wavenumber(k, i + 1), lay.radius, False
            )
            c_col, d_col = col_of(i + 1)
            A[2 * i : 2 * i + 2, c_col] -= right[:, 0]
            A[2 * i : 2 * i + 2, d_col] -= right[:, 1]
    sol = np.linalg.solve(A, rhs)
    coeffs = [(sol[0], 0.0 + 0.0j)]
    for i in range(1, nlay):
        coeffs.append((sol[2 * i - 1], sol[2 * i]))
    return ModeSolution(
        n=n, b_n=complex(b_n), alpha_n=complex(sol[-1]), layer_coeffs=tuple(coeffs)
    )


def particular_profile(d: int, n: int, kappa: complex, q: complex, r: float):
    """(value, r-derivative) of q r R_n'(kappa r) from scipy.

    R_n'' comes from differentiating R_n' = (n / z) R_n - R_(n+1) in 3d,
    and from scipy's second derivative in 2d; neither uses Bessel's
    equation.
    """
    from scipy import special

    z = complex(kappa * r)
    if d == 3:
        val, der = special.spherical_jn(n, z), special.spherical_jn(n, z, derivative=True)
        der2 = n / z * der - n / (z * z) * val - special.spherical_jn(n + 1, z, derivative=True)
    else:
        der, der2 = special.jvp(n, z), special.jvp(n, z, 2)
    return q * r * der, q * (der + kappa * r * der2)


def continuity_residual(medium, k: float, sol) -> float:
    """Worst relative interface mismatch of field and flux of a mode solution."""
    d, n = medium.dimension, sol.n
    worst = 0.0
    for i, lay in enumerate(medium.layers):
        left = _interface_matrix(d, n, lay.a, medium.wavenumber(k, i), lay.radius, False)
        lval = left @ np.array(sol.layer_coeffs[i])
        if sol.particular and i == 0:
            pv, pd = particular_profile(d, n, medium.wavenumber(k, 0), sol.particular, lay.radius)
            lval = lval + np.array([pv, lay.a * pd])
        if i == len(medium.layers) - 1:
            right = _interface_matrix(
                d, n, 1.0, medium.exterior_wavenumber(k), lay.radius, True
            )
            rvec = np.array([sol.b_n, sol.alpha_n])
        else:
            right = _interface_matrix(
                d, n, medium.layers[i + 1].a, medium.wavenumber(k, i + 1), lay.radius, False
            )
            rvec = np.array(sol.layer_coeffs[i + 1])
        rval = right @ rvec
        scale = max(np.max(np.abs(lval)), np.max(np.abs(rval)), 1e-300)
        worst = max(worst, float(np.max(np.abs(lval - rval)) / scale))
    return worst


# -- point values of a field series ---------------------------------------------


def series_values(series, points) -> np.ndarray:
    """Values of a FieldSeries at the rows of a (P, d) array, point by point from scipy.

    A physical-domain series maps each point to the virtual domain here (the
    radial inverse of the blow-up map); a point on a layer interface takes
    the inner layer.  Each mode sums co R_n + cs S_n + q r R_n' at its
    layer's wavenumber, S the outgoing H = J + iY outside the medium, with
    singular terms only where cs != 0, times Legendre polynomials (3d) or
    the doubled Chebyshev cosines T_n (2d) of the angle to the series axis.
    """
    from scipy import special

    d, eps, modes = series.dimension, series.epsilon, series.modes
    if d == 3:
        reg, sing = special.spherical_jn, special.spherical_yn
        reg_der = lambda n, z: special.spherical_jn(n, z, derivative=True)
    else:
        reg, sing, reg_der = special.jv, special.yv, special.jvp
    ns = np.arange(len(modes))
    angular = np.where(ns == 0, 1.0, 2.0)   # 2d: both signs of n
    axis = np.zeros(d)
    axis[0] = 1.0
    if series.axis is not None:
        axis = np.asarray(series.axis, dtype=float)
    radii = [lay.radius for lay in series.medium.layers]
    x = np.asarray(points, dtype=float).reshape(-1, d)
    out = np.empty(len(x), dtype=complex)
    for i, y in enumerate(x):
        t = math.sqrt(float(np.sum(y * y)))
        r = t
        if eps is not None and t < OUTER_RADIUS:
            r = eps * t if t <= 1.0 else (2.0 - eps) * t - (2.0 - 2.0 * eps)
        idx = sum(r > rad for rad in radii)
        if idx == len(radii):
            kap = series.medium.exterior_wavenumber(series.k)
            co, cs = (np.array([m.b_n for m in modes]), np.array([m.alpha_n for m in modes]))
        else:
            kap = series.medium.wavenumber(series.k, idx)
            co, cs = np.array([m.layer_coeffs[idx] for m in modes]).T
        z = kap * r
        prof = co * reg(ns, z)
        use = np.flatnonzero(cs)
        if use.size:
            s_n = sing(use, z)
            prof[use] += cs[use] * (s_n if idx < len(radii) else reg(use, z) + 1j * s_n)
        q = np.array([m.particular for m in modes]) if idx == 0 else np.zeros(len(modes))
        if np.any(q):
            prof += q * r * reg_der(ns, z)
        c = 1.0 if t == 0.0 else min(1.0, max(-1.0, float(y @ axis) / t))
        ang = special.eval_legendre(ns, c) if d == 3 else angular * special.eval_chebyt(ns, c)
        out[i] = np.sum(prof * ang)
    return out


# -- change of variables: push-forward shell tensors -----------------------------


@dataclass(frozen=True)
class ShellTensors:
    """Eigenvalues of the push-forward stiffness and the scalar density."""

    radial_a: float
    tangential_a: float
    sigma_c: float


def map_forward(m: BlowupMap, x) -> np.ndarray:
    """Apply the map to a point of the virtual domain."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        if m.epsilon == 0.0:
            raise ValidationError("the limit map is undefined at the origin")
        return x.copy()
    return x * (radial_forward(m, r) / r)


def map_jacobian(m: BlowupMap, x) -> np.ndarray:
    """Dense Jacobian DF at a virtual-domain point (off the interface set)."""
    x = np.asarray(x, dtype=float)
    d = len(x)
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


def jacobian_determinant(m: BlowupMap, d: int, r: float) -> float:
    """det DF in dimension d as a function of the virtual radius (radial closed form)."""
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


def shell_tensors(m: BlowupMap, d: int, physical_radius: float) -> ShellTensors:
    """Push-forward stiffness eigenvalues and density inside the cloak shell, dimension d.

    Valid strictly inside the shell (1 < radius < 2) and only for eps > 0;
    the limit-map tensors are singular and deliberately unsupported.
    """
    if m.epsilon == 0.0:
        raise ValidationError("shell tensors are singular for the limit map")
    t = float(physical_radius)
    if not 1.0 < t < OUTER_RADIUS:
        raise ValidationError(f"physical radius {t} outside the shell (1, 2)")
    eps = m.epsilon
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
    d = len(y)
    t = float(np.linalg.norm(y))
    ten = shell_tensors(m, d, t)
    yhat = y / t
    proj = np.outer(yhat, yhat)
    return ten.radial_a * proj + ten.tangential_a * (np.eye(d) - proj)


def _residual_at(m: BlowupMap, y: np.ndarray, u: np.ndarray, h: float, k: float) -> tuple[float, float]:
    """(|div(A grad u) + k^2 Sigma u|, local scale) at one shell point.

    u[a, b] is the field at y + s_a + s_b, with the steps s = (0, h e_1,
    ..., h e_d, -h e_1, ..., -h e_d).
    """
    d = len(y)
    eye = np.eye(d)

    def grad_u(a: int) -> np.ndarray:
        return np.array([(u[a, 1 + i] - u[a, 1 + d + i]) / (2.0 * h) for i in range(d)])

    div = 0.0 + 0.0j
    umax = abs(u[0, 0])
    for i in range(d):
        yp = y + h * eye[i]
        ym = y - h * eye[i]
        gp = shell_stiffness_matrix(m, yp) @ grad_u(1 + i)
        gm = shell_stiffness_matrix(m, ym) @ grad_u(1 + d + i)
        div += (gp[i] - gm[i]) / (2.0 * h)
        umax = max(umax, abs(u[1 + i, 0]), abs(u[1 + d + i, 0]))
    sig = shell_tensors(m, d, float(np.linalg.norm(y))).sigma_c
    res = abs(div + k * k * sig * u[0, 0])
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
    comparing two step sizes (quadratic shrink).  The whole stencil of every
    point is one field.eval_many call.
    """
    if not 1e-4 <= h <= 1e-2:
        raise ValidationError(f"step h = {h} outside [1e-4, 1e-2]")
    pts = np.array([np.asarray(p, dtype=float) for p in sample_points])
    for p in pts:
        t = float(np.linalg.norm(p))
        if not (1.0 + 3.0 * h) < t < (OUTER_RADIUS - 3.0 * h):
            raise ValidationError(
                f"sample point at radius {t:.6g} closer than 3h to an interface"
            )
    d = pts.shape[1]
    steps = np.vstack([np.zeros(d), h * np.eye(d), -h * np.eye(d)])
    stencil = pts[:, None, None, :] + steps[None, :, None, :] + steps[None, None, :, :]
    u = np.asarray(field.eval_many(stencil.reshape(-1, d))).reshape(stencil.shape[:3])
    worst = 0.0
    for p, up in zip(pts, u):
        res, scale = _residual_at(m, p, up, h, field.k)
        worst = max(worst, res / scale)
    return worst


def miller_j_chain_loop(nmax: int, z: complex, spherical: bool) -> np.ndarray:
    """specfun._miller_j_chain as a plain loop, the reference for its bits.

    Each order is stored into the array as it is made and each step tests
    the components with abs(); the arithmetic and rescale points are the same.
    """
    az = abs(z)
    m_start = int(nmax + 1.9 * az + 36)
    if m_start % 2:
        m_start += 1
    out = np.zeros(m_start + 1, dtype=complex)
    prev = 0.0 + 0.0j
    cur = 1.0e-280 + 0.0j
    out[m_start] = cur
    half = 0.5 if spherical else 0.0
    for m in range(m_start, 0, -1):
        nxt = (2.0 * (m + half) / z) * cur - prev
        prev, cur = cur, nxt
        out[m - 1] = cur
        if abs(cur.real) > 1.0e250 or abs(cur.imag) > 1.0e250:
            out *= 1.0e-250
            prev *= 1.0e-250
            cur *= 1.0e-250
    return out
