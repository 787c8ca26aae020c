"""The one-parameter regularized functional on loops, and its calculus.

For r >= 0 the functional is

    value(z) = 2 ||z||^2 ||z'||^2 + 2/||z||^2 + r ||z||^2 / ||z^2||^2,

whose L2-gradient is -4||z||^2 (z'' + b z + 2 a z^3) with scalar
coefficients

    a = r / (2 ||z^2||^4),
    b = 1/||z||^6 - ||z'||^2/||z||^2 - r/(2 ||z||^2 ||z^2||^2).

Critical points satisfy z'' = -b z - 2 a z^3 pointwise; along them b takes
the reduced form 1/(2||z||^6) - 3r/(4||z||^2 ||z^2||^2), the energy
z'^2/2 + b z^2/2 + a z^4/2 is constant, and the shape ratios

    v = ||z||^2 / ||z||_0^2,    w = ||z||^2 ||z||_0^2 / ||z^2||^2

satisfy a closed algebraic identity solvable in complete elliptic
integrals, which this module exposes as a certification residual.

value is a function F_r of the norm vector y = (||z||^2, ||z'||^2, ||z^2||^2)
alone, and F_0 is the free fall.  Its gradient and Hessian are one chain
rule through y (``norm_gradient``, ``norm_hessian``), which the pair
functionals of ``helium`` share.  The Hessian is exact in an orthonormal
Galerkin basis, so it is symmetric at every point and matches finite
differences of the gradient; restricted to critical points it coincides
with the classical linearized problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elliptic, loops
from .errors import DomainError

#: default L2 residual below which a point counts as certified critical
CERT_TOL = 1e-9


def check_r(*values):
    """Raise DomainError (``frozen.r``) unless every r is finite and >= 0."""
    for r in values:
        if not 0.0 <= r < np.inf:
            raise DomainError(f"parameter r must be finite and >= 0, got {r}", tag="frozen.r")


def _norm_data(z: loops.Loop, tag="frozen.zero-loop"):
    """``loops.norm_data``, rejecting the zero loop (DomainError ``tag``)."""
    data = loops.norm_data(z)
    if data[0] <= 0.0:
        raise DomainError("functional undefined at the zero loop", tag=tag)
    return data


def _partials(y, r, hessian=False):
    """F_r = 2 l d + 2/l + r l/s at the norm vector y = (l, d, s), with its
    gradient in y and, if asked, its Hessian in y (else None); F_0 is the
    free fall.  A value or gradient that overflows the float range raises
    DomainError (``frozen.overflow``): a Newton seed far out along a long
    continuation step can reach such norms."""
    l, d, s = y
    try:
        value = 2.0 * l * d + 2.0 / l + r * l / s
        df = np.array([2.0 * d - 2.0 / l**2 + r / s, 2.0 * l, -r * l / s**2])
        d2f = None
        if hessian:
            d2f = np.array([
                [4.0 / l**3, 2.0, -r / s**2],
                [2.0, 0.0, 0.0],
                [-r / s**2, 0.0, 2.0 * r * l / s**3],
            ])
    except OverflowError:
        value = np.inf
    if not (np.isfinite(value) and np.all(np.isfinite(df))):
        raise DomainError(f"functional overflows at the norms {tuple(y)}", tag="frozen.overflow")
    return value, df, d2f


def coefficients(z: loops.Loop, r):
    """The scalar pair (a, b) entering the gradient at a general point."""
    check_r(r)
    l2_sq, d1_sq, sq_sq = _norm_data(z)
    a = r / (2.0 * sq_sq**2)
    b = 1.0 / l2_sq**3 - d1_sq / l2_sq - r / (2.0 * l2_sq * sq_sq)
    return a, b


def critical_b(z: loops.Loop, r):
    """The reduced value of b valid along critical points."""
    l2_sq, _, sq_sq = _norm_data(z)
    return 1.0 / (2.0 * l2_sq**3) - 3.0 * r / (4.0 * l2_sq * sq_sq)


def value(z: loops.Loop, r):
    check_r(r)
    return _partials(_norm_data(z), r)[0]


def gradient(z: loops.Loop, r) -> loops.Loop:
    """L2-gradient as a loop in the same class, at full cubic resolution.

    The cube term carries modes up to 3N - 1, so the returned loop is the
    exact (unprojected) gradient; its L2 norm is the certification
    residual including the Galerkin tail.
    """
    check_r(r)
    df = _partials(_norm_data(z), r)[1]
    return loops.from_coeffs(z.klass, norm_gradient(z, df))


def norm_gradient(z: loops.Loop, df):
    """Coefficients of the L2-gradient 2 F_l z - 2 F_d z'' + 4 F_s z^3 of a
    function F of the norm vector (||z||^2, ||z'||^2, ||z^2||^2), given its
    partials df = (F_l, F_d, F_s).

    They are on the size of ``loops.cube(z)``, which F_s = 0 does not form.
    """
    f_l, f_d, f_s = df
    if f_s == 0.0:
        coeffs = np.zeros(loops._power_layout(z.klass, z.n, 3)[1])
    else:
        coeffs = 4.0 * f_s * loops.cube(z).coeffs
    coeffs[: z.n] += 2.0 * f_l * z.coeffs - 2.0 * f_d * loops.second_derivative_coeffs(z)
    return coeffs


def grad_res(z: loops.Loop, r):
    """L2 norm of the gradient (full resolution)."""
    return loops.l2_norm(gradient(z, r))


def hessian_analytic(z: loops.Loop, r):
    """Exact Hessian of F_r in orthonormal coordinates (``norm_hessian``)."""
    check_r(r)
    _, df, d2f = _partials(_norm_data(z), r, hessian=True)
    return norm_hessian((z,), df, d2f)


def norm_hessian(zs, df, d2f):
    """Exact Hessian of a function F of the loops' norm vectors.

    F depends on the loops zs only through y = (l_1, d_1, s_1, l_2, ...),
    (l, d, s) = (||z||^2, ||z'||^2, ||z^2||^2); df and d2f are its gradient
    and Hessian in y.  In the orthonormal coordinates x = sqrt(g) c of each
    loop (z_1 first), l, d and s have gradients 2 x, 2 W^2 x and 4 z^3 and
    Hessians 2 I, 2 W^2 and 12 M[z^2] (``_cubic_galerkin``), W the diagonal
    of the frequencies.  So by the chain rule

        H = blockdiag(2 F_l I + 2 F_d W^2 + 12 F_s M[z_i^2]) + J F'' J^T,

    J the (n, 3 m) matrix of the gradients of y.  A loop whose s-partials
    in df and d2f are all zero forms neither z^3 nor M[z^2].  O(N^2) in
    all; exactly symmetric.
    """
    n = sum(z.n for z in zs)
    h = np.zeros((n, n))
    jac = np.zeros((n, 3 * len(zs)))
    start = 0
    for i, z in enumerate(zs):
        f_l, f_d, f_s = df[3 * i : 3 * i + 3]
        rows = slice(start, start + z.n)
        start += z.n
        block = h[rows, rows]
        x = np.sqrt(loops.gram_diag(z.klass, z.n)) * z.coeffs
        w2 = loops.frequencies(z.klass, z.n) ** 2
        jac[rows, 3 * i] = 2.0 * x
        jac[rows, 3 * i + 1] = 2.0 * w2 * x
        if f_s != 0.0 or np.any(d2f[3 * i + 2]):
            c3, mult = _cubic_galerkin(z)
            jac[rows, 3 * i + 2] = 4.0 * c3
            block += 12.0 * f_s * mult
        block.flat[:: z.n + 1] += 2.0 * f_l + 2.0 * f_d * w2
    h += jac @ d2f @ jac.T
    return 0.5 * (h + h.T)


def _cubic_galerkin(z: loops.Loop):
    """z^3 and the multiplication operator M[z^2] in the orthonormal basis
    e_k / sqrt(g_k), both exact for band-limited loops.

    They are the gradient and Hessian of the quartic norm:
    ||z^2||^2 has gradient 4 z^3 and Hessian 12 M[z^2] in those coordinates.
    z^3 is sqrt(g) times the head of the cached ``loops.cube``.  M[z^2] is
    read off the cached ``loops.square`` by the product-to-sum rule
    (``loops._product_sums``): M_jk = <z^2, e_j e_k> / sqrt(g_j g_k), and
    e_j e_k is half a signed sum of two basis functions of the square's
    layout, so the pairing is half a signed sum of two of the square's
    coefficients u, each times its gram weight.  One formula for all three
    classes, exactly symmetric, and no transform once the square is cached.
    """
    sq = loops.square(z)
    mult = loops._product_sums(z.klass, z.n, loops.gram_diag(sq.klass, sq.n) * sq.coeffs)
    sg = np.sqrt(loops.gram_diag(z.klass, z.n))
    return sg * loops.cube(z).coeffs[: z.n], mult


def energy_check(z: loops.Loop, r):
    """Estimated conserved energy and its fluctuation along the loop.

    c is twice the mean of z'^2/2 + b z^2/2 + a z^4/2 over the grid; the
    deviation is the sup-norm fluctuation, which vanishes (to truncation)
    exactly at critical points and is reported as a diagnostic elsewhere.
    """
    a, b = coefficients(z, r)
    p = loops.quad_size(z.n_active_modes())
    zv = z.quad_samples()
    d1 = loops.derivative(z)
    zp = loops._synthesize_uniform(d1.klass, d1.coeffs, p)
    zv2 = zv * zv  # z^4 as (z z)(z z), not through libm pow
    e = 0.5 * zp**2 + 0.5 * b * zv2 + 0.5 * a * (zv2 * zv2)
    c = 2.0 * float(np.mean(e))
    deviation = float(np.max(np.abs(2.0 * e - c)))
    return {"c": c, "deviation": deviation}


def shape_ratios(z: loops.Loop):
    """(v, w) = (||z||^2/||z||_0^2, ||z||^2 ||z||_0^2/||z^2||^2)."""
    l2_sq, _, sq_sq = _norm_data(z)
    sup = loops.sup_norm(z)
    v = l2_sq / sup**2
    w = l2_sq * sup**2 / sq_sq
    return v, w


def sup_bounds(z: loops.Loop, r):
    """The two C0 bounds satisfied by simple symmetric critical points.

    Returns the sup norm together with the lower bound 1 (diagnostic only;
    see the certificate notes) and the upper bound sqrt(2 + (2r)^{1/3})
    which is used as an acceptance gate.
    """
    sup = loops.sup_norm(z)
    upper = float(np.sqrt(2.0 + (2.0 * r) ** (1.0 / 3.0)))
    return {"sup": sup, "lower_ok": sup >= 1.0, "upper": upper, "upper_ok": sup <= upper}


@dataclass(frozen=True)
class FrozenCoeffs:
    a: float
    b: float


@dataclass(frozen=True)
class CriticalPointCert:
    """A solved critical point with its derived constants and residuals."""

    z: loops.Loop
    r: float
    coeffs: FrozenCoeffs
    energy_c: float
    energy_dev: float
    v: float
    w: float
    grad_res: float
    identity_res: tuple
    sign_convention: str = "z > 0 on (0, 1)"


def certify(z: loops.Loop, r) -> CriticalPointCert:
    """Bundle a loop into a certificate with all derived quantities; a
    non-positive energy raises DomainError (``frozen.energy``)."""
    a, b = coefficients(z, r)
    res = grad_res(z, r)
    energy = energy_check(z, r)
    v, w = shape_ratios(z)
    ident = vw_residuals(v, w, r)
    cert = CriticalPointCert(
        z=z,
        r=float(r),
        coeffs=FrozenCoeffs(a=a, b=b),
        energy_c=energy["c"],
        energy_dev=energy["deviation"],
        v=v,
        w=w,
        grad_res=res,
        identity_res=ident,
    )
    if energy["c"] <= 0.0:
        raise DomainError("certificate has non-positive energy", tag="frozen.energy")
    return cert


def vw_residuals(v, w, r):
    """Residuals of the two closed forms of the critical shape identity.

    res1: |v - 2 / (4 + 3 r w - 2 r w^2)|
    res2: |v - (I_1/I_0)(-r w^2 / 2)|  via the elliptic module.
    """
    denom = 4.0 + 3.0 * r * w - 2.0 * r * w**2
    res1 = abs(v - 2.0 / denom)
    res2 = abs(v - elliptic.ratio_I1_I0(-0.5 * r * w**2))
    return (float(res1), float(res2))
