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

The Hessian is assembled as the exact derivative of the gradient map in an
orthonormal Galerkin basis, so it is symmetric at every point and matches
finite differences of the gradient; restricted to critical points it
coincides with the classical linearized problem.
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


def _norm_data(z: loops.Loop):
    data = loops.norm_data(z)
    if data[0] <= 0.0:
        raise DomainError("functional undefined at the zero loop", tag="frozen.zero-loop")
    return data


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
    l2_sq, d1_sq, sq_sq = _norm_data(z)
    return 2.0 * l2_sq * d1_sq + 2.0 / l2_sq + r * l2_sq / sq_sq


def gradient(z: loops.Loop, r) -> loops.Loop:
    """L2-gradient as a loop in the same class, at full cubic resolution.

    The cube term carries modes up to 3N - 1, so the returned loop is the
    exact (unprojected) gradient; its L2 norm is the certification
    residual including the Galerkin tail.
    """
    a, b = coefficients(z, r)
    l2_sq, _, _ = _norm_data(z)
    return loops.from_coeffs(z.klass, -4.0 * l2_sq * _cubic_ode(z, b, 2.0 * a))


def _cubic_ode(z: loops.Loop, lam, mu):
    """Coefficients of z'' + lam z + mu z^3, on the size of ``loops.cube(z)``."""
    z3 = loops.cube(z)
    coeffs = np.zeros(z3.n)
    coeffs[: z.n] = loops.second_derivative_coeffs(z) + lam * z.coeffs
    coeffs += mu * z3.coeffs
    return coeffs


def ode_residual(z: loops.Loop, a, b):
    """L2 norm of z'' + b z + 2 a z^3 for externally supplied (a, b).

    Used for the covering-rescale covariance check, where the rescaled
    coefficients are prescribed rather than recomputed.
    """
    coeffs = _cubic_ode(z, b, 2.0 * a)
    g = loops.gram_diag(z.klass, coeffs.size)
    return float(np.sqrt(np.sum(g * coeffs**2)))


def grad_res(z: loops.Loop, r):
    """L2 norm of the gradient (full resolution)."""
    gl = gradient(z, r)
    g = loops.gram_diag(gl.klass, gl.n)
    return float(np.sqrt(np.sum(g * gl.coeffs**2)))


def hessian_analytic(z: loops.Loop, r):
    """Exact derivative of the gradient map, assembled spectrally.

    In the orthonormal basis e_k / sqrt(g_k) the matrix reads

        H = -8 (Ghat x zhat) - 4||z||^2 ( D2 + b I + 6 a M[z^2]
              + zhat x dbvec + 2 c3hat x davec )

    where Ghat are the coordinates of z'' + b z + 2 a z^3 (zero at critical
    points), M[z^2] the multiplication operator by z^2, and dbvec/davec the
    coordinate forms of the variations of b and a.  z^3 is the loop's
    cached ``loops.cube`` (shared with ``gradient``) and M[z^2] is gathered
    from one FFT of z^2 (``_cubic_galerkin``), O(N^2) in all.  Symmetry
    holds identically; no criticality is assumed.
    """
    a, b = coefficients(z, r)
    l2_sq, d1_sq, sq_sq = _norm_data(z)
    n = z.n
    sg = np.sqrt(loops.gram_diag(z.klass, n))
    w = loops.frequencies(z.klass, n)
    c3hat, mult_z2 = _cubic_galerkin(z)

    zhat = sg * z.coeffs
    # z'' + b z + 2 a z^3 in orthonormal coordinates
    ghat = sg * (loops.second_derivative_coeffs(z) + b * z.coeffs)
    ghat_full = ghat + 2.0 * a * c3hat

    # variations of the scalar coefficients along orthonormal directions
    davec = -4.0 * r / sq_sq**3 * c3hat
    dbvec = (
        (-6.0 / l2_sq**4 + 2.0 * d1_sq / l2_sq**2 + r / (l2_sq**2 * sq_sq)) * zhat
        - (2.0 / l2_sq) * (w**2 * zhat)
        + (2.0 * r / (l2_sq * sq_sq**2)) * c3hat
    )

    h = -8.0 * np.outer(ghat_full, zhat)
    core = np.diag(-(w**2) + b) + 6.0 * a * mult_z2
    core += np.outer(zhat, dbvec) + 2.0 * np.outer(c3hat, davec)
    h += -4.0 * l2_sq * core
    return 0.5 * (h + h.T)


def _cubic_galerkin(z: loops.Loop):
    """z^3 and the multiplication operator M[z^2] in the orthonormal basis
    e_k / sqrt(g_k), both exact on the dealiased grid of P points.

    They are the gradient and Hessian of the quartic norm:
    ||z^2||^2 has gradient 4 z^3 and Hessian 12 M[z^2] in those coordinates.
    z^3 is sqrt(g) times the head of the cached ``loops.cube``.  M[z^2] is
    gathered from one FFT of z^2 (the Galerkin product rule): with
    e_j / sqrt(g_j) = a_j e^{i pi f_j tau} + c.c., a_j = (1/2, or -i/2 for a
    sine) / sqrt(g_j), and W[m] = mean of z^2 e^{i pi m tau} over the grid
    (indexed mod P),

        M_jk = 2 Re(a_j a_k W[f_j + f_k] + a_j conj(a_k) W[f_j - f_k]),

    one formula for all three classes, exactly symmetric.
    """
    n = z.n
    sg = np.sqrt(loops.gram_diag(z.klass, n))
    p = loops.quad_size(z.n_active_modes())
    f, sine = loops._layout(z.klass, n)
    a = np.where(sine, -0.5j, 0.5) / sg
    # W from the half spectrum of the real z^2, so W[P - m] = conj(W[m]) exactly
    half = np.fft.rfft(z.quad_samples() ** 2) / p
    w = np.conj(np.concatenate([half, np.conj(half[-2:0:-1])]))
    fj, fk = f[:, None], f[None, :]
    mult = np.outer(a, a) * w[(fj + fk) % p] + np.outer(a, a.conj()) * w[(fj - fk) % p]
    return sg * loops.cube(z).coeffs[:n], 2.0 * mult.real


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
    e = 0.5 * zp**2 + 0.5 * b * zv**2 + 0.5 * a * zv**4
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

    def within(self, tol=CERT_TOL):
        return self.grad_res < tol


def certify(z: loops.Loop, r, check=True) -> CriticalPointCert:
    """Bundle a loop into a certificate with all derived quantities."""
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
    if check and energy["c"] <= 0.0:
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


def vw_identity(cert: CriticalPointCert):
    """The identity residuals of a certificate (recomputed)."""
    return vw_residuals(cert.v, cert.w, cert.r)


def both_b_forms(z: loops.Loop, r):
    """(general b, critical-point b): they agree exactly on critical points."""
    _, b = coefficients(z, r)
    return b, critical_b(z, r)
