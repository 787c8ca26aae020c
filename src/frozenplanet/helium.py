"""Two-electron pair functionals: mean and instantaneous interaction.

A pair (z1, z2) holds the regularized outer and inner electron: z1 in the
even-cosine class, z2 in the odd-sine class.  The mean-interaction
functional couples the loops only through half-period norms,

    b_av = 2 sum_i (||z_i||^2 ||z_i'||^2 + 1/||z_i||^2)
           - ||z1||^2 ||z2||^2 / (||z1^2||^2 ||z2||^2 - ||z2^2||^2 ||z1||^2),

so its gradient is closed-form.  The instantaneous functional replaces the
last term by the physical-time repulsion

    - int_0^1 dt / (z1^2(tau_{z1}(t)) - z2^2(tau_{z2}(t))),

evaluated by a fixed midpoint rule through the Levi-Civita time maps; its
gradient is the exact derivative of that discretized quadrature (implicit
differentiation of the inverse time maps), so gradient and objective stay
mutually consistent for Newton.

The bridge to the one-loop family: with rho = (sqrt 2 - 1)^2 and
alpha = (sqrt 2 - 1)/sqrt 2, pairing z with the constant loop
c(z) = alpha^{-1/2} ||z^2||/||z|| turns the frozen functional at rho into
b_av on the graph of c, the first component of the gradient vanishes
there, and the constant-direction derivative of the reduced first-
component equation is the nonzero universal constant -2 alpha.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import frozen, loops
from .errors import AdmissibilityError, DomainError

RHO = (np.sqrt(2.0) - 1.0) ** 2
ALPHA = (np.sqrt(2.0) - 1.0) / np.sqrt(2.0)

#: quadrature points for the physical-time interaction integral
N_QUAD = 1024


@dataclass(frozen=True)
class BridgeConstants:
    rho: float = RHO
    alpha: float = ALPHA

    def consistent(self):
        ok = 0.0 < self.alpha < 1.0
        ok = ok and abs(self.rho - 2.0 * self.alpha**2) < 1e-15
        ok = ok and abs(self.rho / self.alpha - (2.0 - np.sqrt(2.0))) < 1e-14
        return ok


@dataclass(frozen=True)
class PairLoop:
    """An outer/inner pair of loops in their symmetry classes."""

    z1: loops.Loop
    z2: loops.Loop

    def __post_init__(self):
        if self.z1.klass != loops.EVEN_COSINE or self.z2.klass != loops.ODD_SINE:
            raise DomainError(
                "pair needs (even-cosine, odd-sine) components", tag="helium.classes"
            )


def _pair_norms(pair: PairLoop):
    n1 = _loop_norm_data(pair.z1)
    n2 = _loop_norm_data(pair.z2)
    return n1, n2


def _loop_norm_data(z):
    data = loops.norm_data(z)
    if data[0] <= 0.0:
        raise DomainError("pair component has zero norm", tag="helium.zero-loop")
    return data


def mean_gap(pair: PairLoop):
    """||z1^2||^2 ||z2||^2 - ||z2^2||^2 ||z1||^2 (positive iff admissible)."""
    (l1, _, s1), (l2, _, s2) = _pair_norms(pair)
    return s1 * l2 - s2 * l1


def require_mean_admissible(pair: PairLoop):
    gap = mean_gap(pair)
    if gap <= 0.0:
        (l1, _, s1), (l2, _, s2) = _pair_norms(pair)
        raise AdmissibilityError(
            "mean admissibility violated: ||z1^2||^2/||z1||^2 = "
            f"{s1 / l1:.6g} <= ||z2^2||^2/||z2||^2 = {s2 / l2:.6g}"
        )
    return gap


def b_av(pair: PairLoop):
    """Value and L2-gradient (as a pair of loops) of the mean functional."""
    gap = require_mean_admissible(pair)
    (l1, d1, s1), (l2, d2, s2) = _pair_norms(pair)
    value = (
        2.0 * (l1 * d1 + 1.0 / l1)
        + 2.0 * (l2 * d2 + 1.0 / l2)
        - l1 * l2 / gap
    )
    a1 = d1 / l1 - 1.0 / l1**3 - l2**2 * s1 / (2.0 * l1 * gap**2)
    b1 = l2**2 / gap**2
    a2 = d2 / l2 - 1.0 / l2**3 + l1**2 * s2 / (2.0 * l2 * gap**2)
    b2 = -(l1**2) / gap**2
    g1 = _component_gradient(pair.z1, l1, a1, b1)
    g2 = _component_gradient(pair.z2, l2, a2, b2)
    return {"value": value, "gradient": (g1, g2), "coeffs": (a1, b1, a2, b2)}


def _component_gradient(z, l2_sq, a_i, b_i):
    """-4 ||z||^2 (z'' - a_i z - b_i z^3) in the class basis."""
    zpp = loops.second_derivative_coeffs(z)
    z3 = loops.cube(z)
    coeffs = np.zeros(z3.n)
    coeffs[: z.n] = zpp - a_i * z.coeffs
    coeffs -= b_i * z3.coeffs
    return loops.from_coeffs(z.klass, -4.0 * l2_sq * coeffs)


def c_of(z: loops.Loop):
    """The constant outer loop paired with z on the bridge graph."""
    l2_sq, _, sq_sq = loops.norm_data(z)
    if l2_sq <= 0.0:
        raise DomainError("cannot bridge the zero loop", tag="helium.zero-loop")
    return ALPHA ** (-0.5) * np.sqrt(sq_sq) / np.sqrt(l2_sq)


def bridge_pair(z: loops.Loop, n1=8) -> PairLoop:
    """The pair (c(z), z) with the constant stored in the even-cosine basis."""
    c = c_of(z)
    coeffs = np.zeros(max(n1, 1))
    coeffs[0] = c
    return PairLoop(loops.from_coeffs(loops.EVEN_COSINE, coeffs), z)


def bridge_check(z: loops.Loop):
    """|frozen value at rho - mean value on the bridge graph| (algebraic)."""
    pair = bridge_pair(z)
    return abs(frozen.value(z, RHO) - b_av(pair)["value"])


def reduced_first_component(z1_const, z2: loops.Loop):
    """W(z1) = a1 z1 + b1 z1^3 for constant z1: the scalar first-component
    gradient equation on the constant subspace."""
    l2, _, s2 = _loop_norm_data(z2)
    p = l2 * z1_const**4 - s2 * z1_const**2
    b1 = l2**2 / p**2
    a1 = -1.0 / z1_const**6 - 0.5 * z1_const**2 * b1
    return a1 * z1_const + b1 * z1_const**3, (a1, b1, p)


def d1w_check(z: loops.Loop, step=1e-6):
    """Numeric check that the constant-direction derivative of W at c(z)
    recovers the universal constant -2 alpha.

    K = P^3 z1^6 D1W / (||z2||^6 z1^12) is scale free; its nonvanishing is
    the transversality that pins the bridge graph.
    """
    c = c_of(z)
    l2, _, _ = _loop_norm_data(z)
    h = step * c
    wp, _ = reduced_first_component(c + h, z)
    wm, _ = reduced_first_component(c - h, z)
    wp2, _ = reduced_first_component(c + 0.5 * h, z)
    wm2, _ = reduced_first_component(c - 0.5 * h, z)
    d1 = (wp - wm) / (2.0 * h)
    d2 = (wp2 - wm2) / h
    d1w = (4.0 * d2 - d1) / 3.0
    _, (_, _, p) = reduced_first_component(c, z)
    x_value = p**3 * c**6 * d1w
    k_numeric = x_value / (l2**3 * c**12)
    return {"K_numeric": float(k_numeric), "X_sign_ok": bool(x_value < 0.0)}


def bridge_graph_constants(z: loops.Loop):
    """On the graph of c: W = 0 and (a1, b1) = (-2/z1^6, 2/z1^8)."""
    c = c_of(z)
    w, (a1, b1, _) = reduced_first_component(c, z)
    return {
        "w_res": abs(w),
        "a1_res": abs(a1 - (-2.0 / c**6)),
        "b1_res": abs(b1 - 2.0 / c**8),
    }


# ---------------------------------------------------------------------------
# instantaneous interaction
# ---------------------------------------------------------------------------


def _pair_times(pair: PairLoop, n_quad):
    """Midpoint nodes and the inverse-time-map values for both components."""
    from . import levi_civita as lc

    t = (np.arange(n_quad) + 0.5) / n_quad
    tau1 = lc.tau_of_t(pair.z1, t)
    tau2 = lc.tau_of_t(pair.z2, t)
    return t, tau1, tau2


def interaction_gap(pair: PairLoop, n_quad=N_QUAD):
    """Samples of z1^2 - z2^2 in physical time at the quadrature nodes."""
    t, tau1, tau2 = _pair_times(pair, n_quad)
    q1 = pair.z1(tau1) ** 2
    q2 = pair.z2(tau2) ** 2
    return t, tau1, tau2, q1 - q2, q1, q2


def b_in(pair: PairLoop, n_quad=N_QUAD):
    """Value and exact discrete gradient of the instantaneous functional.

    The interaction integral uses a fixed midpoint rule in physical time;
    differentiating the composed quadrature (chain rule through the
    inverse time maps, with the primitive of 2 z e_k in closed form) gives
    a gradient consistent with the value to rounding, which finite
    differences of the value confirm to ~1e-8 relative.
    """
    t, tau1, tau2, gap, _, _ = interaction_gap(pair, n_quad)
    gmax = float(np.max(gap))
    if np.any(gap <= 0.0):
        raise AdmissibilityError(
            "pointwise admissibility violated: z1^2(tau1(t)) - z2^2(tau2(t)) "
            f"<= 0 at t = {t[int(np.argmin(gap))]:.6g}"
        )
    ill_conditioned = bool(np.min(gap) < 1e-6 * gmax)
    if ill_conditioned:
        warnings.warn(
            "interaction gap nearly closes; the instantaneous value is "
            "ill conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    (l1, d1, _), (l2, d2, _) = _pair_norms(pair)
    value = (
        2.0 * (l1 * d1 + 1.0 / l1)
        + 2.0 * (l2 * d2 + 1.0 / l2)
        - float(np.mean(1.0 / gap))
    )
    # interaction gradient weights: d(-Q)/dq_i at the nodes
    wts = 1.0 / (gap**2 * n_quad)
    g1 = _bin_component_gradient(pair.z1, tau1, t, +wts, l1, d1)
    g2 = _bin_component_gradient(pair.z2, tau2, t, -wts, l2, d2)
    return {
        "value": value,
        "gradient": (g1, g2),
        "ill_conditioned": ill_conditioned,
        "min_gap": float(np.min(gap)),
    }


def _bin_component_gradient(z, taus, t_nodes, weights, l2_sq, d1_sq):
    """Gradient component: smooth norm terms plus the interaction chain rule.

    The variation of q(t) = z(tau_z(t))^2 in a basis direction e is

        2 z(tau) e(tau) - (2 z'(tau)/z(tau)) (Phi_e(tau) - t 2<z, e>),

    with Phi_e the primitive of 2 z e (closed form per basis pair).  The
    interaction contribution to <grad, e> is the weighted node sum of that
    variation; dividing by the Gram diagonal yields loop coefficients.
    """
    n = z.n
    g = loops.gram_diag(z.klass, n)
    basis_here = loops.basis_matrix(z.klass, n, taus)  # (n, m)
    zv = z(taus)
    zp = loops.derivative_values(z, taus)
    phi = _primitive_table(z, taus)  # (n, m): Phi_{e_k}(tau_j)
    inner_ze = g * z.coeffs  # <z, e_k>
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(zv) > 1e-300, 2.0 * zp / zv, 0.0)
    bracket = phi - 2.0 * np.outer(inner_ze, t_nodes)
    dq = 2.0 * zv * basis_here - ratio * bracket  # (n, m)
    inter = dq @ weights  # <interaction gradient, e_k>
    # smooth norm terms: -4||z||^2 z'' + 4||z'||^2 z - 4 z/||z||^4
    w = loops.frequencies(z.klass, n)
    smooth = (
        -4.0 * l2_sq * (-(w**2) * z.coeffs)
        + 4.0 * d1_sq * z.coeffs
        - 4.0 * z.coeffs / l2_sq**2
    )
    coeffs = smooth + inter / g
    return loops.from_coeffs(z.klass, coeffs)


def _primitive_table(z, taus):
    """Phi[k, j] = int_0^{tau_j} 2 z e_k, via product-to-sum closed forms."""
    n = z.n
    m = np.arange(n)
    if z.klass == loops.ODD_SINE:
        # 2 sin((2m+1)pi s) sin((2k+1)pi s) = cos(2(m-k)pi s) - cos(2(m+k+1)pi s)
        diff = m[None, :] - m[:, None]  # m - k
        summ = m[None, :] + m[:, None] + 1  # m + k + 1
        table = _sin_over(taus, max(int(np.max(summ)), int(np.max(np.abs(diff)))) + 1)
        phi = np.einsum("m,kmj->kj", z.coeffs, _gather(table, diff, taus)) - np.einsum(
            "m,kmj->kj", z.coeffs, _gather(table, summ, taus)
        )
        return phi
    if z.klass == loops.EVEN_COSINE:
        # 2 cos(2m pi s) cos(2k pi s) = cos(2(m-k)pi s) + cos(2(m+k)pi s)
        diff = m[None, :] - m[:, None]
        summ = m[None, :] + m[:, None]
        table = _sin_over(taus, int(np.max(summ)) + 1)
        return np.einsum("m,kmj->kj", z.coeffs, _gather(table, diff, taus)) + np.einsum(
            "m,kmj->kj", z.coeffs, _gather(table, summ, taus)
        )
    raise DomainError("primitive table needs a symmetric class", tag="helium.classes")


def _sin_over(taus, p_max):
    """S(p, tau) = sin(2 p pi tau)/(2 p pi) for p = 0..p_max (S(0) = tau)."""
    ps = np.arange(p_max + 1)
    table = np.empty((p_max + 1, taus.size))
    table[0] = taus
    if p_max >= 1:
        ang = 2.0 * np.pi * np.outer(ps[1:], taus)
        table[1:] = np.sin(ang) / (2.0 * np.pi * ps[1:, None])
    return table


def _gather(table, p_matrix, taus):
    """S(p) for a (k, m) matrix of signed indices; S is even in p."""
    return table[np.abs(p_matrix)]


def b_interp(pair: PairLoop, s, n_quad=N_QUAD):
    """(1 - s) b_av + s b_in: the homotopy from mean to instantaneous."""
    if not 0.0 <= s <= 1.0:
        raise DomainError("interpolation parameter must lie in [0, 1]", tag="helium.s")
    if s == 0.0:
        out = b_av(pair)
        return {"value": out["value"], "gradient": out["gradient"]}
    if s == 1.0:
        out = b_in(pair, n_quad)
        return {"value": out["value"], "gradient": out["gradient"]}
    av = b_av(pair)
    inn = b_in(pair, n_quad)
    g1 = _combine(av["gradient"][0], inn["gradient"][0], 1.0 - s, s)
    g2 = _combine(av["gradient"][1], inn["gradient"][1], 1.0 - s, s)
    return {
        "value": (1.0 - s) * av["value"] + s * inn["value"],
        "gradient": (g1, g2),
    }


def _combine(u: loops.Loop, v: loops.Loop, cu, cv):
    n = max(u.n, v.n)
    coeffs = np.zeros(n)
    coeffs[: u.n] += cu * u.coeffs
    coeffs[: v.n] += cv * v.coeffs
    return loops.from_coeffs(u.klass, coeffs)


def pair_grad_res(pair: PairLoop, s, n_quad=N_QUAD):
    """L2 norm of the interpolated gradient over both components."""
    g1, g2 = b_interp(pair, s, n_quad)["gradient"]
    r1 = float(np.sum(loops.gram_diag(g1.klass, g1.n) * g1.coeffs**2))
    r2 = float(np.sum(loops.gram_diag(g2.klass, g2.n) * g2.coeffs**2))
    return float(np.sqrt(r1 + r2))


def hessian_bound(h_matrix, pair: PairLoop, n1, n2):
    """Spectral lower bound of the pair Hessian, Garding style.

    delta = 4 min ||z_i||^2 bounds the leading block from below by
    delta ||v'||^2; C estimates the H1 -> L2 norm of the remaining block
    K = H - P through ||K (I + Omega)^{-1}||_2.  The certified bound is
    R = -C - C^2/(4 delta), and the report checks that the computed
    spectrum indeed stays above it.
    """
    (l1, _, _), (l2, _, _) = _pair_norms(pair)
    w1 = loops.frequencies(loops.EVEN_COSINE, n1)
    w2 = loops.frequencies(loops.ODD_SINE, n2)
    omega = np.concatenate([w1, w2])
    lead = np.concatenate([4.0 * l1 * w1**2, 4.0 * l2 * w2**2])
    k_block = h_matrix - np.diag(lead)
    c_est = float(np.linalg.norm(k_block @ np.diag(1.0 / (1.0 + omega)), 2))
    delta = 4.0 * min(l1, l2)
    r_bound = -c_est - c_est**2 / (4.0 * delta)
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (h_matrix + h_matrix.T))))
    return {
        "delta": delta,
        "C": c_est,
        "R_bound": r_bound,
        "min_eig": min_eig,
        "ok": bool(min_eig > r_bound),
    }


# ---------------------------------------------------------------------------
# pair objective for the solver
# ---------------------------------------------------------------------------


class PairObjective:
    """Interpolated pair functional in packed orthonormal coordinates."""

    def __init__(self, s, n1=16, n2=32, n_quad=N_QUAD):
        if not 0.0 <= s <= 1.0:
            raise DomainError("interpolation parameter must lie in [0, 1]", tag="helium.s")
        self.s = float(s)
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.n = self.n1 + self.n2
        self.n_quad = int(n_quad)
        self._sg1 = np.sqrt(loops.gram_diag(loops.EVEN_COSINE, self.n1))
        self._sg2 = np.sqrt(loops.gram_diag(loops.ODD_SINE, self.n2))

    def pack(self, pair: PairLoop):
        c1 = np.zeros(self.n1)
        c1[: min(pair.z1.n, self.n1)] = pair.z1.coeffs[: self.n1]
        c2 = np.zeros(self.n2)
        c2[: min(pair.z2.n, self.n2)] = pair.z2.coeffs[: self.n2]
        return np.concatenate([self._sg1 * c1, self._sg2 * c2])

    def unpack(self, x) -> PairLoop:
        c1 = x[: self.n1] / self._sg1
        c2 = x[self.n1 :] / self._sg2
        return PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, c1),
            loops.from_coeffs(loops.ODD_SINE, c2),
        )

    def admissible(self, x):
        try:
            pair = self.unpack(x)
            _pair_norms(pair)
            require_mean_admissible(pair)
            if self.s > 0.0:
                gap = interaction_gap(pair, self.n_quad)[3]
                if np.any(gap <= 0.0):
                    return False
        except (DomainError, AdmissibilityError):
            return False
        return True

    def value(self, x):
        return b_interp(self.unpack(x), self.s, self.n_quad)["value"]

    def gradient(self, x):
        g1, g2 = b_interp(self.unpack(x), self.s, self.n_quad)["gradient"]
        out1 = np.sqrt(loops.gram_diag(g1.klass, g1.n)) * g1.coeffs
        out2 = np.sqrt(loops.gram_diag(g2.klass, g2.n)) * g2.coeffs
        return np.concatenate([out1[: self.n1], out2[: self.n2]])

    def full_residual(self, x):
        return pair_grad_res(self.unpack(x), self.s, self.n_quad)

    def hessian(self, x, step=1e-5):
        h = np.empty((self.n, self.n))
        for k in range(self.n):
            dx = np.zeros(self.n)
            dx[k] = step
            gp = self.gradient(x + dx)
            gm = self.gradient(x - dx)
            h[:, k] = (gp - gm) / (2.0 * step)
        return 0.5 * (h + h.T)

    def certify(self, x):
        pair = self.unpack(x)
        return PairCert(
            pair=pair,
            s=self.s,
            grad_res=float(np.linalg.norm(self.gradient(x))),
            full_res=self.full_residual(x),
            value=self.value(x),
        )


@dataclass(frozen=True)
class PairCert:
    pair: PairLoop
    s: float
    grad_res: float
    full_res: float
    value: float

    def z1_constancy(self):
        taus = loops.grid_points(256)
        vals = self.pair.z1(taus)
        return float(np.max(np.abs(vals - np.mean(vals))))
