"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own evaluation paths:
power series, plain bisection, Chebyshev collocation, banded finite
differences and a dense per-mode interface assembly over scipy's Bessel
functions provide expected values computed on a different route.
"""

from __future__ import annotations

import math

import numpy as np


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
                d, n, medium.exterior_a, medium.exterior_wavenumber(k), lay.radius, True
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


def continuity_residual(medium, k: float, sol) -> float:
    """Worst relative interface mismatch of field and flux of a mode solution."""
    d, n = medium.dimension, sol.n
    worst = 0.0
    for i, lay in enumerate(medium.layers):
        left = _interface_matrix(d, n, lay.a, medium.wavenumber(k, i), lay.radius, False)
        lval = left @ np.array(sol.layer_coeffs[i])
        if sol.particular is not None and i == 0:
            pv, pd = sol.particular.eval(lay.radius)
            lval = lval + np.array([pv, lay.a * pd])
        if i == len(medium.layers) - 1:
            right = _interface_matrix(
                d, n, medium.exterior_a, medium.exterior_wavenumber(k), lay.radius, True
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
