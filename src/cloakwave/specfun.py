"""Complex-argument Bessel kernel and a bracketing scalar root finder.

Cylindrical J_n, Y_n and spherical j_n, y_n for integer order, with
derivatives taken with respect to the argument (callers assemble the
outgoing H = J + iY from the two).  The regular family is generated by
downward (Miller) recurrence; Y_0 and Y_1 come from Neumann-type
expansions over the same J chain, which avoids the cancellation that kills
the classical power series past |z| ~ 10, and higher orders of the
singular family follow by upward recurrence (stable: Y is dominant).

The public surface: chain (all orders at a scalar z or over an array of
z), its array kernel array_chain, chain_derivative, bessel (one order of
the regular family with its derivative, for the interior-source solve,
the 3d monopole leak of a resonant interior and root-finder targets) and
find_root (ITP: superlinear on smooth roots, at most one step beyond
bisection's worst case).  The derivative rule f'_n = f_(n-1) - (n + d - 2)/z f_n is
written twice: for all orders in chain_derivative, and for one order in
scalar arithmetic in bessel, where a numpy call would cost several times
the scalar chain itself.

Validated envelope: order <= 200, |z| <= 1e4, and down to the smallest
nonzero |z|: below SMALL_ARG = 1e-20 the regular family is its leading
term, exact in double precision there, in both kernels (the Miller pass
would overflow from about |z| = 1e-56 on).  The 3d regular chain is
normalized against j_0 below |z| = 1.  Complex arguments are meant for
mildly lossy media; accuracy degrades like exp(2 Im z) in the Miller
normalization sum, so keep Im z below ~10.  Values that underflow double
precision (huge order, tiny argument) are returned as exact zeros.  A
singular order past the overflow limit (from order 0 on) raises
BesselOverflowError, unless a scalar chain is asked for partial results:
it then ends at the last representable order.

array_chain runs the same chains over a 1-D array of arguments at once.
It is the kernel of every array-argument evaluation, whatever the array's
length: field points in blocks (FieldSeries.eval_many: all orders inside
the medium, the few outgoing orders and the 2d point source's H_0 outside
it), the nodes of one quadrature refinement level (FieldSeries.radial_many)
and resonance scan grids.  The scalar chains stay the kernel of
scalar-argument calls, and give 1-D arrays of orders: the all-orders
transfer solve (one partial chain per interface side), the ends of
closed-form norm segments, bessel, the exact tuning's Y_0 at k eps and
incident coefficients; for one argument an array pass costs 7-35x more.
Over orders 0..200, 1e-3 <= |z| <= 1e3 and 0 < Im z <= 10 the two agree
to 1e-13 exp(2 Im z) of the local size |f_n| + |f_(n+1)|, and raise the
same errors where either overflows.

An array_chain step writes into preallocated buffers, never a product over
an operand (a *= b can round a complex product differently from a * b).
The rescale and overflow tests read the arrays only when a bound on the
largest modulus, B_(m-1) = (2(m + h)/min|z|) B_m + B_(m+1) plus rounding,
could pass the limit, so they decide exactly as a test at every step would.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BesselDomainError,
    BesselOverflowError,
    BracketError,
    ConvergenceError,
)

ORDER_CAP = 200
ARG_CAP = 1.0e4
ROOT_ITER_CAP = 200        # find_root's iteration budget
SMALL_ARG = 1.0e-20        # below it the regular family is its leading term
EULER_GAMMA = 0.5772156649015328606

_RESCALE_LIMIT = 1.0e250
_OVERFLOW_LIMIT = 1.0e280


def _check_order_arg(n: int, z: complex, cap: int = ORDER_CAP + 1) -> complex:
    # chains run one order past the public cap to supply derivatives; z = 0
    # is outside every checked call (the singular family, bessel's derivative)
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise BesselDomainError(f"order must be a nonnegative integer, got {n!r}")
    if n > cap:
        raise BesselDomainError(f"order {n} exceeds cap {ORDER_CAP}")
    z = complex(z)
    if abs(z) > ARG_CAP:
        raise BesselDomainError(f"|z| = {abs(z):.3g} exceeds cap {ARG_CAP:.0e}")
    if z == 0:
        raise BesselDomainError("Bessel argument z = 0 is outside the domain")
    return z


def _miller_j_chain(nmax: int, z: complex, spherical: bool) -> np.ndarray:
    """Downward recurrence for the regular family, unnormalized.

    Returns orders 0..M for a start order M comfortably above both nmax and
    the turning point |z|; the caller normalizes.
    """
    az = abs(z)
    m_start = int(nmax + 1.9 * az + 36)
    if m_start % 2:
        m_start += 1
    prev = 0.0 + 0.0j
    cur = 1.0e-280 + 0.0j
    out = [cur]                      # orders m_start down to 0
    half = 0.5 if spherical else 0.0
    lim, nlim = _RESCALE_LIMIT, -_RESCALE_LIMIT   # a NaN leaves the fast range test but never rescales
    for m in range(m_start, 0, -1):
        nxt = (2.0 * (m + half) / z) * cur - prev
        prev, cur = cur, nxt
        out.append(cur)
        if not (nlim <= cur.real <= lim and nlim <= cur.imag <= lim) and (
                cur.real > lim or cur.real < nlim or cur.imag > lim or cur.imag < nlim):
            out = list(np.array(out) * 1.0e-250)   # numpy's product, signed zeros and all
            prev *= 1.0e-250
            cur *= 1.0e-250
    return np.array(out[::-1])


def _cyl_j_chain_full(nmax: int, z: complex) -> np.ndarray:
    """J_0..J_max over the full Miller window, sum-normalized."""
    raw = _miller_j_chain(nmax, z, spherical=False)
    norm = raw[0] + 2.0 * np.sum(raw[2::2])
    if norm == 0:
        raise BesselOverflowError(f"Miller normalization sum vanished at z = {z}")
    return raw / norm


def _cyl_y01(z: complex, jch: np.ndarray) -> tuple[complex, complex]:
    """Y_0 and Y_1 by Neumann expansions over the normalized J chain.

    Y_0 = (2/pi)[(ln(z/2)+gamma) J_0] + (4/pi) sum_k (-1)^(k+1) J_2k / k and
    its termwise argument-derivative give Y_1 = -Y_0'.  Terms are bounded,
    so there is no cancellation growth at large |z|.
    """
    # z / 2 underflows to zero at the smallest subnormal z: split off ln 2 there
    half_log = cmath.log(z / 2.0) if abs(z) >= SMALL_ARG else cmath.log(z) - math.log(2.0)
    lg = half_log + EULER_GAMMA
    even = jch[2::2]
    kk = np.arange(1, len(even) + 1, dtype=float)
    sgn = np.where(kk % 2 == 1, 1.0, -1.0)
    y0 = (2.0 / math.pi) * lg * jch[0] + (4.0 / math.pi) * np.sum(sgn * even / kk)
    lo = jch[1:-2:2]
    hi = jch[3::2]
    m = min(len(lo), len(hi))
    dj_even = 0.5 * (lo[:m] - hi[:m])
    y0p = (2.0 / math.pi) * (jch[0] / z - lg * jch[1])
    y0p += (4.0 / math.pi) * np.sum(sgn[:m] * dj_even / kk[:m])
    return y0, -y0p


def _upward(y0: complex, y1: complex, nmax: int, z: complex, half: float,
            name: str, partial: bool) -> np.ndarray:
    """Singular family of orders 0..nmax by upward recurrence from y0, y1.

    An order passing the overflow limit (y0 and y1 included) raises
    BesselOverflowError, or, with partial, ends the chain: the array then
    holds orders 0..last, the last representable order.
    """
    y = np.zeros(nmax + 1, dtype=complex)
    for n in range(nmax + 1):
        nxt = (y0, y1)[n] if n < 2 else (2.0 * (n - 1 + half) / z) * y[n - 1] - y[n - 2]
        # written so that a NaN (from an infinite 1/z) fails it too
        if not (abs(nxt.real) <= _OVERFLOW_LIMIT and abs(nxt.imag) <= _OVERFLOW_LIMIT):
            if partial:
                return y[:n]
            raise BesselOverflowError(
                f"{name}_{n}({z}) exceeds representable magnitude in upward recurrence"
            )
        y[n] = nxt
    return y


def _leading_regular(d: int, nmax: int, z: complex) -> np.ndarray:
    """Regular family of orders 0..nmax at |z| < SMALL_ARG from its leading term.

    J_n = (z/2)^n / n! and j_n = z^n / (2n + 1)!!, one multiplication per
    order.  The series' next term is smaller by less than 3e-41, so these
    are the values in double precision; the Miller pass would overflow
    here (one step multiplies by 2m/|z|).  Orders that underflow are exact
    zeros.
    """
    f = [1.0 + 0.0j]
    h = 0.5 * z
    for n in range(1, nmax + 1):
        f.append(f[-1] * (z / (2 * n + 1) if d == 3 else h / n))
    return np.array(f, dtype=complex)


def _sph_j_only(nmax: int, z: complex) -> np.ndarray:
    """j_0..j_nmax: j_0 = sin z / z, and the Miller chain normalized against
    j_0 below |z| = 1, else against whichever of j_0, j_1 is larger.

    j_1's closed form sin z / z^2 - cos z / z cancels at small |z| (error
    about 1e-16 / |z|), so it is only evaluated from |z| = 1 on.
    """
    sin_z = cmath.sin(z)
    j0 = sin_z / z
    j1 = sin_z / (z * z) - cmath.cos(z) / z if abs(z) >= 1.0 else None
    j = np.zeros(nmax + 1, dtype=complex)
    up = min(nmax, int(0.9 * abs(z)))
    if nmax > up:
        raw = _miller_j_chain(nmax, z, spherical=True)
        if j1 is None or abs(j0) >= abs(j1):
            scale = j0 / raw[0]
        else:
            scale = j1 / raw[1]
        j[:] = raw[: nmax + 1] * scale
    if up or not nmax:
        # upward recurrence is stable below the turning point; those orders
        # take it whatever nmax, so an order's value does not depend on it
        j[:2] = (j0, j1)[: up + 1]
        for n in range(1, up):
            j[n + 1] = (2.0 * n + 1.0) / z * j[n] - j[n - 1]
    return j


def _scalar_chain(
    d: int, nmax: int, z: complex, singular: bool, partial: bool = False,
    singular_nmax: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The scalar kernel of chain: 1-D (regular, singular) orders 0..nmax at one z.

    The singular chain needs z != 0 and |z| <= ARG_CAP and ends at order
    singular_nmax (default nmax); partial ends it at its last representable
    order instead of raising BesselOverflowError (see _upward), so it may be
    shorter than the regular one.  y_0 is the closed form -cos z / z.
    Below |z| = SMALL_ARG the regular family is _leading_regular's, and y_1
    is y_0 / z: z^2 underflows from about 1e-162, and the dropped
    -sin z / z is below 1e-40 of it.
    """
    z = _check_order_arg(nmax, z) if singular else complex(z)
    tiny = abs(z) < SMALL_ARG
    top = nmax if singular_nmax is None else min(nmax, singular_nmax)
    if d == 3:
        j = _leading_regular(3, nmax, z) if tiny else _sph_j_only(nmax, z)
        if not singular:
            return j, None
        sin_z, cos_z = cmath.sin(z), cmath.cos(z)
        y0 = -cos_z / z
        y1 = y0 / z if tiny else -cos_z / (z * z) - sin_z / z
        return j, _upward(y0, y1, top, z, 0.5, "y", partial)
    full = _leading_regular(2, nmax + 1, z) if tiny else _cyl_j_chain_full(nmax, z)
    if not singular:
        return full[: nmax + 1], None
    if tiny:
        # 1/z is near the double range: Y_0' and the upward steps pass
        # through inf and nan before _upward's overflow check ends the chain
        with np.errstate(over="ignore", invalid="ignore"):
            return full[: nmax + 1].copy(), _upward(*_cyl_y01(z, full), top, z, 0.0, "Y", partial)
    y0, y1 = _cyl_y01(z, full)
    return full[: nmax + 1].copy(), _upward(y0, y1, top, z, 0.0, "Y", partial)


def _miller_pass(z: np.ndarray, mag: np.ndarray, nmax: int, spherical: bool):
    """array_chain's downward pass, unnormalized: orders 0..max(nmax, 1) at each z.

    Also returns (cylindrical) the even-order part of the normalization sum
    and the Neumann sums of Y_0 and Y_0' = -Y_1 (see _cyl_y01).
    """
    half = 0.5 if spherical else 0.0
    mag_min = float(mag.min())
    start = (nmax + 1.9 * mag + 36).astype(int)
    start += start % 2
    seeds: dict[int, list[int]] = {}
    for i, m in enumerate(start.tolist()):
        seeds.setdefault(m, []).append(i)
    top = max(nmax, 1)
    raw = np.zeros((top + 1, z.size), dtype=complex)
    prev, cur, nxt, coef = (np.zeros_like(z) for _ in range(4))
    even, s0, s1 = np.zeros_like(z), np.zeros_like(z), np.zeros_like(z)
    b_prev = b_cur = 0.0   # the bounds B of the last two orders (module docstring)
    for m in range(int(start.max()), -1, -1):
        if m in seeds:
            cur[seeds[m]] = 1.0e-280
            b_cur = max(b_cur, 1.0e-280)
        if m <= top:
            raw[m] = cur
        if not spherical and m:
            k = (m + 1) // 2
            sgn = 1.0 if k % 2 else -1.0
            if m % 2:
                # J_m enters the Y_0' sum as J_(2k-1) and as J_(2(k-1)+1)
                s1 += sgn * (1.0 / (m + 1) + (1.0 / (m - 1) if m > 1 else 0.0)) * cur
            else:
                even += cur
                s0 += sgn / k * cur
        if m == 0:
            break
        np.multiply(np.divide(2.0 * (m + half), z, out=coef), cur, out=nxt)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        b_prev, b_cur = b_cur, (2.0 * (m + half) / mag_min * b_cur + b_prev) * (1.0 + 1e-9)
        if not b_cur <= _RESCALE_LIMIT:
            if np.abs(cur.view(float)).max() > _RESCALE_LIMIT:
                big = (np.abs(cur.real) > _RESCALE_LIMIT) | (np.abs(cur.imag) > _RESCALE_LIMIT)
                for arr in (prev, cur, even, s0, s1):
                    arr[big] *= 1.0e-250
                raw[:, big] *= 1.0e-250
            # 1.5 > sqrt(2): a bound on the modulus from the largest component
            b_prev, b_cur = (1.5 * float(np.abs(f.view(float)).max()) for f in (prev, cur))
    return raw, even, s0, s1


def array_chain(
    d: int, nmax: int, z, singular: bool = True, singular_nmax: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Orders 0..nmax of J, Y (d = 2) or j, y (d = 3) over a 1-D array of z.

    Returns (regular, singular) arrays of shape (nmax + 1, len(z)); the
    singular one is None unless asked for, and ends at singular_nmax if
    given.  Each argument runs the scalar chains' algorithm on its own:
    Miller recurrence from its own start order with its own rescaling, Y_0
    and Y_1 from the Neumann sums of _cyl_y01 (accumulated during the
    downward pass), and upward recurrence of the singular family up to the
    same overflow limit.  Regular 3d values of orders up to 0.9 |z| come
    from upward recurrence, as in _sph_j_only: through the ~|z| oscillatory
    steps below the turning point Miller's downward pass loses about 1e-13
    at |z| ~ 600; arguments that need no other order skip the Miller pass.
    Arguments below SMALL_ARG run the scalar kernel one at a time (leading
    terms), the others this kernel as one block, so no column depends on
    the others.
    """
    z = np.asarray(z, dtype=complex).ravel()
    mag = np.abs(z)
    for w in (z[np.argmax(mag)], z[np.argmin(mag)]):
        _check_order_arg(nmax, w)
    ns = nmax if singular_nmax is None else min(nmax, singular_nmax)
    tiny = mag < SMALL_ARG
    if tiny.any():
        out = [np.empty((rows + 1, z.size), dtype=complex) for rows in (nmax, ns)[: 1 + singular]]
        for i in np.flatnonzero(tiny).tolist():
            for o, col in zip(out, _scalar_chain(d, nmax, z[i], singular, singular_nmax=ns)):
                o[:, i] = col
        if not tiny.all():
            for o, part in zip(out, array_chain(d, nmax, z[~tiny], singular, ns)):
                o[:, ~tiny] = part
        return out[0], out[1] if singular else None
    spherical = d == 3
    half = 0.5 if spherical else 0.0
    coef, nxt = np.zeros_like(z), np.zeros_like(z)
    if spherical:
        sin_z, cos_z = np.sin(z), np.cos(z)
        j0, j1 = sin_z / z, sin_z / (z * z) - cos_z / z
        up = np.minimum(nmax, (0.9 * mag).astype(int))
        slow = up < nmax   # the arguments that need the Miller pass
        sel = slice(None) if slow.all() else slow   # a slice takes no copy
        raw = None if sel is not slow else np.zeros((max(nmax, 1) + 1, z.size), dtype=complex)
        if slow.any():
            part = _miller_pass(z[sel], mag[sel], nmax, True)[0]
            # against j_0 below |z| = 1, where j_1's closed form cancels (_sph_j_only)
            small = (mag[sel] < 1.0) | (np.abs(j0[sel]) >= np.abs(j1[sel]))
            part *= np.where(small, j0[sel] / part[0], j1[sel] / part[1])
            if raw is None:
                raw = part
            else:
                raw[:, slow] = part
        raw[0] = np.where((up > 0) | (nmax == 0), j0, raw[0])
        raw[1] = np.where(up > 0, j1, raw[1])
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, int(up.max())):
                np.multiply(np.divide(2.0 * n + 1.0, z, out=coef), raw[n], out=nxt)
                np.copyto(raw[n + 1], np.subtract(nxt, raw[n - 1], out=nxt), where=up > n)
        y = [-cos_z / z, -cos_z / (z * z) - sin_z / z]
    else:
        raw, even, s0, s1 = _miller_pass(z, mag, nmax, False)
        norm = raw[0] + 2.0 * even
        if not np.all(norm):
            bad = z[np.argmin(np.abs(norm))]
            raise BesselOverflowError(f"Miller normalization sum vanished at z = {bad}")
        raw /= norm
        lg = np.log(z / 2.0) + EULER_GAMMA
        y0 = (2.0 / math.pi) * lg * raw[0] + (4.0 / math.pi) * s0 / norm
        y0p = (2.0 / math.pi) * (raw[0] / z - lg * raw[1]) + (4.0 / math.pi) * s1 / norm
        y = [y0, -y0p]
    if not singular:
        return raw[: nmax + 1], None
    mag_min = float(mag.min())
    sing = np.empty((ns + 1, z.size), dtype=complex)
    sing[:2] = y[: ns + 1]
    b_prev = b_cur = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(ns + 1):
            if n > 1:
                c = 2.0 * (n - 1 + half)
                np.multiply(np.divide(c, z, out=coef), sing[n - 1], out=sing[n])
                sing[n] -= sing[n - 2]
                b_prev, b_cur = b_cur, (c / mag_min * b_cur + b_prev) * (1.0 + 1e-9)
            if n < 2 or not b_cur <= _OVERFLOW_LIMIT:
                ok = np.abs(sing[n].view(float)) <= _OVERFLOW_LIMIT
                if not ok.all():
                    raise BesselOverflowError(
                        f"{'y' if spherical else 'Y'}_{n}({z[np.argmin(ok) // 2]}) exceeds "
                        "representable magnitude in upward recurrence"
                    )
                b_cur = 1.5 * float(np.abs(sing[n].view(float)).max())
    return raw[: nmax + 1], sing


def chain(
    d: int, nmax: int, z, singular: bool = True, partial: bool = False,
    singular_nmax: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """array_chain's (regular, singular) for a scalar z or a 1-D array of z.

    The kernel follows the argument's type, not its length: a scalar runs
    the scalar chains, which cost 7-35x less for one argument, and gives
    1-D arrays of orders; an array runs array_chain whatever its length,
    so a value does not depend on the batch it came in.  singular_nmax
    (default nmax) ends the singular family there, so the orders above it
    cannot overflow.  partial (scalar z only) ends the singular chain at its
    last representable order instead of raising, so it may hold fewer rows
    than the regular one.
    """
    if np.ndim(z) > 0:
        return array_chain(d, nmax, z, singular, singular_nmax)
    return _scalar_chain(d, nmax, z, singular, partial, singular_nmax)


def chain_derivative(f: np.ndarray, z, d: int) -> np.ndarray:
    """Argument-derivatives of orders 0..N from a chain f_0..f_(N+1) of dimension d.

    f'_n = f_(n-1) - (n + s)/z f_n, with s = d - 2 (0 cylindrical, 1
    spherical), and f'_0 = -f_1.  f may be a 1-D chain at one z or an
    (N + 2, P) chain over an array of P arguments.
    """
    ns = (np.arange(1, len(f) - 1) + (d - 2.0)).reshape((-1,) + (1,) * (f.ndim - 1))
    der = np.empty(f[:-1].shape, dtype=complex)
    der[0] = -f[1]
    der[1:] = f[:-2] - (ns / z) * f[1:-1]
    return der


def bessel(d: int, n: int, z: complex) -> tuple[complex, complex]:
    """(R_n(z), R_n'(z)) of the regular family: J_n (d = 2) or j_n (d = 3).

    n is an integer order, 0 <= n <= ORDER_CAP, and z a complex argument
    with 0 < |z| <= ARG_CAP; the values come from the scalar chain of
    orders 0..n + 1 (see chain).
    """
    z = _check_order_arg(n, z, cap=ORDER_CAP)
    reg = _scalar_chain(d, n + 1, z, singular=False)[0]
    # chain_derivative's rule for one order, in scalar arithmetic: its numpy
    # form costs several times the chain itself at low order, and root-finder
    # targets make thousands of these calls
    der = -reg[1] if n == 0 else reg[n - 1] - (n + 1.0 if d == 3 else n) / z * reg[n]
    return complex(reg[n]), complex(der)


def find_root(f: Callable[[float], float], bracket: Sequence[float]) -> float:
    """Locate a root of a continuous scalar function inside a sign-change bracket.

    ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2020): each step moves the
    regula-falsi point toward the midpoint by max(0.2 width^2 / width0,
    tol), projects it into the ball of radius width0 2^-step - width / 2
    about the midpoint (clamped at 0, where the step bisects), and keeps the
    sub-bracket with the sign change.  Smooth simple roots converge
    superlinearly, and no bracket is wider than bisection's one step
    earlier.  tol is half the width tolerance: the finder returns x, the
    endpoint with the smaller |f|, once the width is below
    1e-14 * max(1, |x|) and |f(x)| <= 1e-13 * scale (the larger |f| at
    entry), or else once no float lies strictly inside the bracket.

    Raises
    ------
    BracketError : endpoints do not straddle a sign change.
    ConvergenceError : budget of ROOT_ITER_CAP iterations exhausted.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"invalid bracket [{lo}, {hi}]")
    flo = float(f(lo))
    if flo == 0.0:
        return lo
    fhi = float(f(hi))
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo) = {flo:.3g}, f(hi) = {fhi:.3g}"
        )
    scale = max(abs(flo), abs(fhi))
    # the width tolerance anywhere in the bracket is at least 2 tol
    tol = 0.5e-14 * max(1.0, min(abs(lo), abs(hi)))
    width0 = hi - lo
    for step in range(ROOT_ITER_CAP):
        x, fx = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
        width = hi - lo
        if width <= 1e-14 * max(1.0, abs(x)) and abs(fx) <= 1e-13 * scale:
            return x
        if math.nextafter(lo, hi) >= hi:
            # no float left strictly inside: f rounds to its sign change here
            return x
        mid = 0.5 * (lo + hi)
        radius = max(0.0, math.ldexp(width0, -step) - 0.5 * width)
        falsi = lo - flo * width / (fhi - flo)
        toward = math.copysign(1.0, mid - falsi)
        shift = max(0.2 * width * width / width0, tol)
        cand = falsi + toward * shift if shift <= abs(mid - falsi) else mid
        if abs(cand - mid) > radius:
            cand = mid - toward * radius
        if not lo < cand < hi:
            cand = mid
        fcand = float(f(cand))
        if fcand == 0.0:
            return cand
        if math.copysign(1.0, fcand) == math.copysign(1.0, flo):
            lo, flo = cand, fcand
        else:
            hi, fhi = cand, fcand
    raise ConvergenceError(
        f"root finder exhausted {ROOT_ITER_CAP} iterations on [{lo}, {hi}]"
    )
