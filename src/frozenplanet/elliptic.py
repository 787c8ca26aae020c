"""Complete elliptic integrals and the identity toolkit built on them.

The family

    I_n(m) = int_0^1 zeta^{2n} / sqrt((1 - zeta^2)(1 - m zeta^2)) d zeta,
    m < 1,

is evaluated by the substitution zeta = sin(theta), which removes the
endpoint singularity exactly, followed by adaptive Gauss-Legendre
refinement.  K and E (first and second kind, parameter convention m < 1)
get a fast arithmetic-geometric-mean path; the quadrature route is kept as
an independent oracle so the identity reports are genuine cross-checks.

Identities covered: I_0 = K, I_1 = (K - E)/m, the three-term recursion in
n, the closed form for I_2, the derivative formulas for K' and E', the
Riccati equation satisfied by I_1/I_0, and the monotone lower bound
F(m) = (2 - m) I_1/I_0 > 1 for m < 0.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError

_M_MAX = 1.0 - 1e-12
#: the identities that divide by m are evaluated only where |m| is at least
#: this: ``identities_report`` takes the expansion at 0 below it, and
#: ``riccati_residual`` refuses it
M_ORIGIN = 1e-6

_GL_NODES, _GL_WEIGHTS = leggauss(20)


def _check_m(m):
    if not np.isfinite(m) or m > _M_MAX:
        raise DomainError(
            f"elliptic parameter m = {m!r} outside (-inf, 1)", tag="elliptic.domain"
        )


def _gl_panel(f, a, b):
    half = 0.5 * (b - a)
    x = a + half * (_GL_NODES + 1.0)
    return half * float(np.sum(_GL_WEIGHTS * f(x)))


def _adaptive(f, a, b, tol, depth=0):
    whole = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    left = _gl_panel(f, a, mid)
    right = _gl_panel(f, mid, b)
    if abs(left + right - whole) < tol or depth > 40:
        return left + right
    return _adaptive(f, a, mid, 0.5 * tol, depth + 1) + _adaptive(
        f, mid, b, 0.5 * tol, depth + 1
    )


def In(n, m):
    """I_n(m) by theta-substituted adaptive quadrature, accurate to ~1e-12."""
    if n < 0 or int(n) != n:
        raise DomainError("order n must be a nonnegative integer", tag="elliptic.order")
    _check_m(m)

    def integrand(theta):
        s2 = np.sin(theta) ** 2
        return s2**n / np.sqrt(1.0 - m * s2)

    return _adaptive(integrand, 0.0, 0.5 * np.pi, 1e-13)


def In_zero(n):
    """Closed form I_n(0) = (2n-1)!! pi / (2^{n+1} n!)."""
    dfact = 1.0
    for j in range(2 * n - 1, 1, -2):
        dfact *= j
    fact = 1.0
    for j in range(2, n + 1):
        fact *= j
    return dfact * np.pi / (2.0 ** (n + 1) * fact)


def _agm(m):
    """(a, s): the AGM limit a on (1, sqrt(1 - m)) and s = sum_{n >= 1}
    2^{n-1} c_n^2, so K = pi/(2a), E = K (1 - m/2 - s) and I_1/I_0 =
    1/2 + s/m, real for m < 0 as c_0^2 = m enters only squared.  It stops
    once |c_n| <= eps a, where c_n shrinks no further, in at most 8 steps.
    """
    _check_m(m)
    a, b, s = 1.0, np.sqrt(1.0 - m), 0.0
    for n in range(60):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        s += 2.0**n * c * c
        if abs(c) <= np.finfo(float).eps * a:
            break
    return a, s


def KE(m):
    """(K(m), E(m)) by the AGM (``_agm``).  Against mpmath on
    -1e6 <= m <= 0.9, K is within 4e-16 relative and E within 1.1e-15, as
    1 - m/2 - s cancels for m -> -inf (and near m = 1: 2e-15 at 1 - 1e-12).
    """
    a, s = _agm(m)
    k = np.pi / (2.0 * a)
    return float(k), float(k * (1.0 - (0.5 * m + s)))


def ratio_I1_I0(m):
    """I_1/I_0 = 1/2 + s/m from ``_agm``, 1/2 at m = 0: within 5e-16
    relative of mpmath on -1e3 <= m <= 0.9 and 1e-15 on -1e6 <= m < 1."""
    if m == 0.0:
        return 0.5
    return float(0.5 + _agm(m)[1] / m)


def identities_report(m):
    """Residuals of the recursion, the I_2 closed form, and K'/E' formulas,
    with the values they were formed from: ``I`` maps n to each I_n(m)
    evaluated, and ``KE`` is (K(m), E(m)), or None where it was not.

    The recursion and the closed forms divide by m, so their rounding
    grows like eps/|m|.  Below ``M_ORIGIN`` in |m| they are not evaluated
    (``rec_res``, ``der_res`` and ``KE`` are None), and ``i2_res`` compares I_2(m)
    with its expansion I_2(0) + (m/2) I_3(0) (dI_n/dm = I_{n+1}/2), off by
    O(m^2): 1.6e-13 at |m| = 1e-6.  Derivative residuals compare the closed
    forms against Richardson-extrapolated central differences of the AGM
    values.
    """
    _check_m(m)
    if abs(m) < M_ORIGIN:
        i2 = In(2, m)
        i2_res = abs(i2 - (In_zero(2) + 0.5 * m * In_zero(3)))
        return {"rec_res": None, "i2_res": i2_res, "der_res": None, "I": {2: i2}, "KE": None}
    vals = [In(n, m) for n in range(7)]
    rec_res = 0.0
    for n in range(5):
        pred = (
            2 * (n + 1) * (m + 1) * vals[n + 1] - (2 * n + 1) * vals[n]
        ) / ((2 * n + 3) * m)
        rec_res = max(rec_res, abs(vals[n + 2] - pred))
    i2_closed = (2.0 * (m + 1.0) * vals[1] - vals[0]) / (3.0 * m)
    i2_res = abs(vals[2] - i2_closed)

    k, e = KE(m)
    kp_closed = (e - (1.0 - m) * k) / (2.0 * m * (1.0 - m))
    ep_closed = (e - k) / (2.0 * m)
    der_res = max(
        abs(_richardson(lambda x: KE(x)[0], m) - kp_closed),
        abs(_richardson(lambda x: KE(x)[1], m) - ep_closed),
    )
    return {
        "rec_res": rec_res,
        "i2_res": i2_res,
        "der_res": der_res,
        "I": dict(enumerate(vals)),
        "KE": (k, e),
    }


def _richardson(f, x, h=1e-4):
    """Central difference with one Richardson step (h and h/2)."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def riccati_residual(m):
    """Residual of the first-order equation satisfied by I_1/I_0.

    The derivative on the left is taken by central differences, so a
    residual below ~1e-6 confirms the closed-form right-hand side.
    """
    _check_m(m)
    if abs(m) < M_ORIGIN:
        raise DomainError(
            "I_1/I_0 has a removable singularity at m = 0; evaluate at "
            "offset points instead",
            tag="elliptic.riccati-origin",
        )
    q = ratio_I1_I0(m)
    lhs = _richardson(ratio_I1_I0, m)
    rhs = (
        1.0 / (2.0 * m * (1.0 - m))
        - q / (m * (1.0 - m))
        + q * q / (2.0 * (1.0 - m))
    )
    return abs(lhs - rhs)


def F_mono(m_grid):
    """Evaluate F(m) = (2 - m) I_1/I_0 on a negative grid.

    Returns the values plus two flags: the values exceed 1 everywhere, and
    they decrease strictly as m increases through the (ascending-sorted)
    grid -- the finite form of the monotone lower bound.
    """
    m_grid = np.asarray(m_grid, dtype=float)
    if np.any(m_grid >= 0):
        raise DomainError("grid must be strictly negative", tag="elliptic.fmono-grid")
    order = np.argsort(m_grid)
    values = np.array([(2.0 - m) * ratio_I1_I0(m) for m in m_grid])
    sorted_vals = values[order]
    monotone_ok = bool(np.all(np.diff(sorted_vals) < 0.0))
    all_gt_one = bool(np.all(values > 1.0))
    return {"values": values, "monotone_ok": monotone_ok, "all_gt_one": all_gt_one}
