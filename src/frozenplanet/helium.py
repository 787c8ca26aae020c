"""Two-electron pair functionals: mean and instantaneous interaction.

A pair (z1, z2) holds the regularized outer and inner electron: z1 in the
even-cosine class, z2 in the odd-sine class.  The mean-interaction
functional couples the loops only through half-period norms,

    b_av = 2 sum_i (||z_i||^2 ||z_i'||^2 + 1/||z_i||^2)
           - ||z1||^2 ||z2||^2 / (||z1^2||^2 ||z2||^2 - ||z2^2||^2 ||z1||^2),

so its gradient is closed-form.  The instantaneous functional replaces the
last term by the physical-time repulsion

    - R = - int_0^1 dt / (z1^2(tau_{z1}(t)) - z2^2(tau_{z2}(t))),

integrated in the inner loop's own time: t = P2(tau2)/||z2||^2, P2 the
primitive of z2^2, makes the integrand periodic and analytic in tau2, so
the midpoint rule at fixed tau2-nodes converges geometrically, and only
the outer loop's time map is inverted (``_Repulsion``, one per pair).  The
node count, max(N_QUAD, 4 n2, 8 n1), is derived from the pair
(``_node_count``) and fixed by a convergence test.  Pointwise
admissibility, a positive gap on the whole circle, rests on one lower
bound of the gap on each cell between two nodes; the cells it leaves open
are halved.  The gradient is the exact
derivative of that discretized quadrature (implicit differentiation of
z1's inverse time map, z2 varied at fixed tau2), so gradient and objective
stay mutually consistent for Newton; it and the Hessian read one set of
first-variation tables.
``interaction_gap`` still samples the gap on a uniform t-grid, both time
maps inverted, for the pair CSV export alone.

The sum over i is the free fall F_0 of ``frozen`` for each loop, so
b_interp = (1 - s) b_av + s b_in is F_0(z1) + F_0(z2) + (1 - s) T plus s
times the repulsion, T the mean term.  Its norm part is a function of the
norm vector y = (l1, d1, s1, l2, d2, s2) of the pair (``_partials``), whose
gradient and exact Hessian are one chain rule through y
(``frozen.norm_gradient``, ``frozen.norm_hessian``).  The repulsion adds
s times the node sums of the first and second variation of its quadrature:
z1's inverse time map and z2's time change are differentiated twice, and
node sums of int_0^tau e_j e_k are read from one product-to-sum table.  A
term of weight 0 is not evaluated.  ``b_av`` and ``b_in`` are the s = 0
and s = 1 ends of ``b_interp``, and ``pair_hessian`` is the Hessian at
every s; the tests check it against central differences of the gradient.

The bridge to the one-loop family: with rho = (sqrt 2 - 1)^2 and
alpha = (sqrt 2 - 1)/sqrt 2, pairing z with the constant loop
c(z) = alpha^{-1/2} ||z^2||/||z|| turns the frozen functional at rho into
b_av on the graph of c, the first component of the gradient vanishes
there, and the constant-direction derivative of the reduced first-
component equation is the nonzero universal constant -2 alpha.

``PairObjective`` is b_interp at fixed s for the solvers: a ``loops.Packed``
of two blocks, z1's first as in ``frozen.norm_hessian``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import elliptic, frozen, levi_civita, loops
from .errors import AdmissibilityError, DomainError

_ZERO_LOOP = "helium.zero-loop"
# the places of (l1, s1, l2, s2) in the pair's norm vector (l1, d1, s1, l2, d2, s2)
_MEAN_AT = np.array([0, 2, 3, 5])
_MEAN_BLOCK = np.ix_(_MEAN_AT, _MEAN_AT)

RHO = (np.sqrt(2.0) - 1.0) ** 2
ALPHA = (np.sqrt(2.0) - 1.0) / np.sqrt(2.0)

#: the least node count of the repulsion quadrature (``_node_count``)
N_QUAD = 64
#: a least gap below this share of the largest node gap makes the
#: instantaneous value ill conditioned (``_repulsion`` warns)
_CLOSING = 1e-6


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
    return frozen._norm_data(pair.z1, _ZERO_LOOP), frozen._norm_data(pair.z2, _ZERO_LOOP)


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


def _check_s(s):
    if not 0.0 <= s <= 1.0:
        raise DomainError("interpolation parameter must lie in [0, 1]", tag="helium.s")


def _partials(pair: PairLoop, s, hessian=False):
    """The norm part of b_interp at s, with its gradient in
    y = (l1, d1, s1, l2, d2, s2), (l, d, s) = (||z||^2, ||z'||^2, ||z^2||^2),
    and, if asked, its Hessian in y (else None).

    It is the free fall F_0(y1) + F_0(y2) (``frozen._partials``) plus
    (1 - s) T, T = -l1 l2 / gap the mean term; at s = 1 T is not evaluated,
    so mean admissibility is not required.
    """
    y1, y2 = _pair_norms(pair)
    v1, df1, h1 = frozen._partials(y1, 0.0, hessian)
    v2, df2, h2 = frozen._partials(y2, 0.0, hessian)
    value, df, d2f = v1 + v2, np.concatenate([df1, df2]), None
    if hessian:
        d2f = np.zeros((6, 6))
        d2f[:3, :3] = h1
        d2f[3:, 3:] = h2
    if s < 1.0:
        gap = require_mean_admissible(pair)
        (l1, _, s1), (l2, _, s2) = y1, y2
        # over (l1, s1, l2, s2): T_a = num_a / gap^2 and
        # T_ab = (dnum_ab - 2 num_a dgap_b / gap) / gap^2, symmetric in exact
        # arithmetic (its average below drops the rounding)
        num = np.array([-s1 * l2**2, l1 * l2**2, s2 * l1**2, -(l1**2) * l2])
        value -= (1.0 - s) * l1 * l2 / gap
        df[_MEAN_AT] += (1.0 - s) / gap**2 * num
        if hessian:
            dnum = np.array([
                [0.0, -(l2**2), -2.0 * s1 * l2, 0.0],
                [l2**2, 0.0, 2.0 * l1 * l2, 0.0],
                [2.0 * s2 * l1, 0.0, 0.0, l1**2],
                [-2.0 * l1 * l2, 0.0, -(l1**2), 0.0],
            ])
            dgap = np.array([-s2, l2, s1, -l1])
            t2 = (dnum - (2.0 / gap) * num[:, None] * dgap) / gap**2
            d2f[_MEAN_BLOCK] += (0.5 * (1.0 - s)) * (t2 + t2.T)
    return value, df, d2f


def b_av(pair: PairLoop):
    """Value and L2-gradient (as a pair of loops) of the mean functional."""
    return b_interp(pair, 0.0)


def c_of(z: loops.Loop):
    """The constant outer loop paired with z on the bridge graph."""
    l2_sq, _, sq_sq = frozen._norm_data(z, _ZERO_LOOP)
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
    return abs(frozen.value(z, RHO) - b_interp_value(pair, 0.0))


def reduced_first_component(z1_const, z2: loops.Loop):
    """W(z1) = a1 z1 + b1 z1^3 for constant z1: the scalar first-component
    gradient equation on the constant subspace."""
    l2, _, s2 = frozen._norm_data(z2, _ZERO_LOOP)
    p = l2 * z1_const**4 - s2 * z1_const**2
    b1 = l2**2 / p**2
    a1 = -1.0 / z1_const**6 - 0.5 * z1_const**2 * b1
    return a1 * z1_const + b1 * z1_const**3, (a1, b1, p)


def d1w_check(z: loops.Loop):
    """Numeric check that the constant-direction derivative of W at c(z)
    recovers the universal constant -2 alpha, by Richardson extrapolation
    from steps of 1e-6 c.

    K = P^3 z1^6 D1W / (||z2||^6 z1^12) is scale free; its nonvanishing is
    the transversality that pins the bridge graph.
    """
    c = c_of(z)
    l2, _, _ = frozen._norm_data(z, _ZERO_LOOP)
    d1w = elliptic._richardson(lambda x: reduced_first_component(x, z)[0], c, 1e-6 * c)
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


def interaction_gap(pair: PairLoop, n):
    """(t, z1^2 - z2^2, z1^2, z2^2) in physical time at the n midpoints
    t = (k + 1/2)/n, both time maps inverted: the export of
    ``serialize.pair_orbit_csv``.  The functionals integrate in z2's own
    time instead (``_Repulsion``)."""
    t = (np.arange(n) + 0.5) / n
    q1 = pair.z1(levi_civita.tau_of_t(pair.z1, t)) ** 2
    q2 = pair.z2(levi_civita.tau_of_t(pair.z2, t)) ** 2
    return t, q1 - q2, q1, q2


def _node_count(pair: PairLoop):
    """max(N_QUAD, 4 n2, 8 n1), fixed by the convergence test of
    ``tests/test_helium.py``: doubling it moves nothing.

    The nodes are uniform in tau2, where z2^2 has 2 n2 - 1 harmonics.  The
    outer loop enters through z1^2, with harmonics up to about 2 n1 in
    tau1, a shortest period of 1/(2 n1).  Between two nodes tau1 advances by
    (dtau1/dt)(dt/dtau2)/m = (I1/z1^2)(z2^2/I2)/m, at most about
    max(z2^2/I2)/m = 2/m for the near-constant z1 and near-sine z2 of the
    pair family.  Two nodes per shortest period, 2/m <= 1/(4 n1), need
    m >= 8 n1.
    """
    return max(N_QUAD, 4 * pair.z2.n, 8 * pair.z1.n)


def _admissible_gap(pair: PairLoop):
    """The pair's ``_Repulsion`` on its nodes, cached on the pair; raises unless
    the gap is positive everywhere, halving the cells only if it is not settled."""
    cache = loops._loop_cache(pair)
    if "repulsion" not in cache:
        rep = _Repulsion(pair, _node_count(pair))
        if not rep.settled:
            rep.refine()
        cache["repulsion"] = rep
    return cache["repulsion"]


def b_in(pair: PairLoop):
    """Value and exact discrete gradient of the instantaneous functional."""
    return b_interp(pair, 1.0)


def _phi_coef(z: loops.Loop):
    """The coefficients C of Phi[k] = int_0^tau 2 z e_k over the primitive
    rows of ``_phi_table``: by the product-to-sum rule
    (``loops._product_to_sum``) 2 z e_k = sum_j c_j (sd_jk u_di + sp_jk u_pi),
    u the basis of the square's layout."""
    n = z.n
    di, pi, sd, sp = loops._product_to_sum(z.klass, n)
    size = loops._power_layout(z.klass, n, 2)[1]
    row = size * np.arange(n)[:, None]
    # one sum over the flat slots of both terms, the di terms first
    flat = np.concatenate(((row + di).ravel(), (row + pi).ravel()))
    weights = np.concatenate(((sd * z.coeffs).ravel(), (sp * z.coeffs).ravel()))
    return np.bincount(flat, weights=weights, minlength=n * size).reshape(n, size)


def _phi_table(z: loops.Loop, taus):
    """Phi[k](tau) = int_0^tau 2 z e_k at the points taus, as the factors
    (C, S) of Phi = C @ S: C from ``_phi_coef``, and S the primitive rows
    of the square's layout (even-cosine for both symmetric classes).
    """
    klass, size = loops._power_layout(z.klass, z.n, 2)
    return _phi_coef(z), loops.basis_matrix(klass, size, taus, -1)


@functools.cache
def _tau2_rule(n, m):
    """What an odd-sine loop of n coefficients needs at the m nodes
    (k + 1/2)/m, fixed by (n, m) and cached read-only: the nodes, its
    orthonormal rows e_k / sqrt(g_k) and the primitive rows S of
    ``_phi_table``."""
    taus = (np.arange(m) + 0.5) / m
    sg = np.sqrt(loops.gram_diag(loops.ODD_SINE, n))[:, None]
    rows = loops.basis_matrix(loops.ODD_SINE, n, taus) / sg
    prim = loops.basis_matrix(*loops._power_layout(loops.ODD_SINE, n, 2), taus, -1)
    for arr in (taus, rows, prim):
        arr.setflags(write=False)
    return taus, rows, prim


class _TimeMapVariation:
    """First variation of the outer loop's Q(t) = z(tau_z(t))^2 at the
    nodes t, held at fixed t, and the t-derivative terms of the pair.

    Directions are the orthonormal e_k / sqrt(g_k).  Implicit
    differentiation of int_0^tau z^2 = t ||z||^2 gives the variation of the
    inverse time map, tau_e = (2 t <z, e> - Phi_e(tau)) / z^2 with Phi_e the
    primitive of 2 z e (``_phi_table``), and then dQ_e = 2 z (e + z' tau_e).
    With tau_t = ||z||^2 / z^2, the rate Q_t = 2 ||z||^2 z'/z has the
    t-derivative ``rate_t`` and the first variation ``rate_e``.  Every 1/z
    is finite because z, the outer loop of an admissible pair, has no zero.
    z, z', z'' and the rates at the nodes are formed at once; the rows and
    the (n, M) tables only when a derivative in the coefficients asks.
    """

    def __init__(self, z: loops.Loop, taus, t_nodes):
        self.z, self.taus, self.t = z, taus, t_nodes
        self.sg = np.sqrt(loops.gram_diag(z.klass, z.n))
        self.x = self.sg * z.coeffs  # <z, e> in orthonormal directions
        self.norm = float(self.x @ self.x)  # ||z||^2
        self.zv, self.zp, self.zpp = loops.jets(z, taus, (0, 1, 2))
        self.inv_z = 1.0 / self.zv
        self.curv = self.zv * self.zpp - self.zp**2  # z z'' - z'^2
        self.rate = 2.0 * self.norm * self.zp * self.inv_z
        # d^2 Q / dt^2 = 2 ||z||^4 (z z'' - z'^2) / z^4
        self.rate_t = 2.0 * self.norm**2 * self.curv * self.inv_z**4

    @functools.cached_property
    def e(self):
        return loops.basis_matrix(self.z.klass, self.z.n, self.taus) / self.sg[:, None]

    @functools.cached_property
    def ep(self):
        """The raw rows e_k'; their users divide by sqrt(g)."""
        return loops.basis_matrix(self.z.klass, self.z.n, self.taus, 1)

    @functools.cached_property
    def phi(self):
        """The factors (C, S) of ``_phi_table`` at the nodes."""
        return _phi_table(self.z, self.taus)

    @functools.cached_property
    def tau_e(self):
        coef, prim = self.phi
        return (2.0 * np.outer(self.x, self.t) - coef @ prim / self.sg[:, None]) * self.inv_z**2

    @functools.cached_property
    def dq(self):
        return 2.0 * self.zv * (self.e + self.zp * self.tau_e)

    @functools.cached_property
    def rate_e(self):
        """The first variation of the rate Q_t = 2 ||z||^2 z'/z at fixed t:

            4 <z, e> z'/z + 2 ||z||^2 (e'/z - z' e/z^2 + tau_e (z z'' - z'^2)/z^2).
        """
        out = (self.ep / self.sg[:, None] - self.e * (self.zp * self.inv_z)) * self.inv_z
        out += self.tau_e * (self.curv * self.inv_z**2)
        out *= 2.0 * self.norm
        out += np.outer(4.0 * self.x, self.zp * self.inv_z)
        return out

    def second(self, w):
        """sum_m w_m d^2 Q_ef(t_m) over orthonormal directions e, f (n x n).

        Differentiating int_0^tau z^2 = t ||z||^2 twice gives tau_ef, and
        with A_e = e + z' tau_e the second variation reads

            d^2 Q_ef = 2 A_e A_f + 2 z (e' tau_f + f' tau_e + z'' tau_e tau_f
                                         + z' tau_ef)
                     = 2 e f - 2 z' (e tau_f + f tau_e)
                       + 2 (z z'' - z'^2) tau_e tau_f + 2 z (e' tau_f + f' tau_e)
                       + (4 z'/z) (t <e, f> - P_ef(tau)),

        P_ef = int_0^tau e f.  Every term but the last is an (n, M) diag
        (M, n) product; the weighted node sum of P_ef is ``loops._product_sums``.
        """
        ratio = 4.0 * self.zp * self.inv_z * w  # the weights (4 z'/z) w
        cross = (self.e * (-2.0 * w * self.zp)) @ self.tau_e.T
        cross += (self.ep * (2.0 * w * self.zv)) @ self.tau_e.T / self.sg[:, None]
        h = 2.0 * (self.e * w) @ self.e.T + cross + cross.T
        h += (self.tau_e * (2.0 * w * self.curv)) @ self.tau_e.T
        h[np.diag_indices_from(h)] += float(ratio @ self.t)
        h -= loops._product_sums(self.z.klass, self.z.n, self.phi[1] @ ratio)
        return h


class _Repulsion:
    """The repulsion R = int_0^1 dt / (q1 - q2) of a pair, in z2's own time.

    Substituting t = P2(tau)/I2, P2 the primitive of z2^2 and I2 = ||z2||^2,
    gives R = int_0^1 w / g dtau with w = z2^2 / I2 = dt/dtau and
    g = Q1(t) - z2^2, Q1(t) = z1(tau1(t))^2.  On an admissible pair z1 has
    no zero, so the integrand is periodic and analytic in tau, and the
    midpoint rule R = mean(w / g) over the nodes (k + 1/2)/m converges
    geometrically (Trefethen and Weideman, SIAM Review 56, 2014).  Only
    z1's time map is inverted, once by ``tau_of_t`` at the nodes' t.

    The gap is bounded from below on each cell between two nodes
    (``_cell_floors``).  When the least floor clears ``_CLOSING`` times the
    largest node gap (``settled``), the pair is admissible and far from
    closing; otherwise ``refine`` halves the cells left open.

    z2 is varied at fixed tau, with its orthonormal rows e and x = <z2, e>:
    dt_f = (Phi_f - 2 t x_f) / I2 (``_phi_table``), dw_f = 2 (z2 f - w x_f) / I2
    and dg_f = Q1_t dt_f - 2 z2 f.  z1 is varied at fixed t
    (``_TimeMapVariation``, built once at the nodes), and its rate Q1_t
    carries the mixed terms.
    """

    def __init__(self, pair: PairLoop, m):
        z2 = self.inner = pair.z2
        self.z1 = pair.z1
        taus, self.e, self.prim = _tau2_rule(z2.n, m)
        self.sg = np.sqrt(loops.gram_diag(z2.klass, z2.n))
        self.x = self.sg * z2.coeffs
        self.i2 = float(self.x @ self.x)
        self.z2 = self.x @ self.e
        coef = _phi_coef(z2)
        self.phi = coef @ self.prim / self.sg[:, None]
        # t = P2 / I2 over the primitive rows S, as sum_k c_k Phi_k = 2 P2
        self.p2 = 0.5 * (z2.coeffs @ coef) / self.i2
        self.t = self.p2 @ self.prim
        self.w = self.z2**2 / self.i2
        # a zero of z1 makes a rate infinite or nan; its gap -z2^2 <= 0 is
        # kept, so the pair is refused rather than warned about
        with np.errstate(divide="ignore", invalid="ignore"):
            self.var = _TimeMapVariation(self.z1, levi_civita.tau_of_t(self.z1, self.t), self.t)
            self.gap = self.var.zv**2 - self.z2**2
        # the sample rows at the nodes and the cells between them, the last
        # wrapped round the circle, where tau2, t and tau1 advance by 1
        nodes = np.array([taus, self.t, self.var.taus, self.var.zv, self.z2, self.gap])
        ends = np.concatenate([nodes, nodes[:, :1]], axis=1)
        ends[:3, -1] += 1.0
        self.cells = ends[:, :-1], ends[:, 1:]
        self.floor = float(np.min(self._cell_floors(*self.cells)))
        self.settled = self.floor > _CLOSING * float(np.max(self.gap))
        self.closing = False

    def _samples(self, tau2):
        """The sample rows (tau2, t, tau1, z1, z2, gap) at points tau2 in
        [0, 2), z1's time map inverted once (t and tau1 advance by 1 with
        tau2)."""
        t = self.p2 @ loops.basis_matrix(loops.EVEN_COSINE, self.p2.size, tau2, -1)
        turns = np.floor(t)
        tau1 = levi_civita.tau_of_t(self.z1, t - turns) + turns
        z1, z2 = self.z1(tau1), self.inner(tau2)
        return np.array([tau2, t, tau1, z1, z2, z1**2 - z2**2])

    def _cell_floors(self, a, b):
        """A lower bound of the gap g(tau) = Q1(t) - z2^2 on each cell of
        the circle in tau2, a and b the sample rows of its ends.

        On a cell of width h, g lies above the lesser end gap less
        h^2/8 sup|g''|, with w = z2^2 / I2 and
        g'' = Q1_tt w^2 + Q1_t w' - 2 (z2'^2 + z2 z2''), Q1_t = 2 ||z1||^2 z1'/z1,
        Q1_tt = 2 ||z1||^4 (z1 z1'' - z1'^2)/z1^4 (``_TimeMapVariation``).
        The sums S_j = sum omega_k^j |c_k| over z1's coefficients (T_j over
        z2's) bound |z1^(j)|, so on the cell's span of tau1
        |z1| >= m1 = (|z1(a)| + |z1(b)| - S1 (tau1_b - tau1_a)) / 2, and
        |z2| <= Z = (|z2(a)| + |z2(b)| + T1 h) / 2.  Where m1 <= 0, z1 may
        vanish, and the floor is -inf.
        """
        c1, c2 = np.abs(self.z1.coeffs), np.abs(self.inner.coeffs)
        f1 = loops.frequencies(loops.EVEN_COSINE, c1.size)
        f2 = loops.frequencies(loops.ODD_SINE, c2.size)
        s0, s1, s2 = c1.sum(), f1 @ c1, (f1 * f1) @ c1
        t1, t2 = f2 @ c2, (f2 * f2) @ c2
        r = self.var.norm / self.i2
        h = b[0] - a[0]
        at_ends = np.abs(a[3:5]) + np.abs(b[3:5])
        # 2 m1, clipped at 0, where rho = inf makes the floor -inf, and 2 Z
        m2 = np.maximum(at_ends[0] - s1 * (b[2] - a[2]), 0.0)
        z = at_ends[1] + t1 * h
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # in rho = Z / m1, each term scales as the gap, as the pair squared:
            # Q1_tt w^2 <= 2 (S0 S2 + S1^2) (||z1||^2 / I2)^2 rho^4 and
            # Q1_t w' <= 4 S1 T1 (||z1||^2 / I2) rho; curv is sup|g''| / 8
            rho = z / m2
            rho2 = rho * rho
            curv = (0.25 * (s0 * s2 + s1 * s1) * r * r) * (rho2 * rho2) + (0.5 * s1 * t1 * r) * rho
            curv += 0.125 * t2 * z + 0.25 * t1 * t1
            return np.minimum(a[5], b[5]) - (h * h) * curv

    def refine(self):
        """Decide admissibility where the node floor leaves it open.

        Each round halves every open cell, z1's time map inverted once at
        all the new midpoints.  A cell closes when its floor clears
        ``_CLOSING`` times the largest node gap, or when it is positive
        beside a sample at or below that share (the gap nearly closes, and
        ``closing`` is set).  A sample gap <= 0 refuses the pair, as does a
        sign change of z1 between a cell's ends, where the gap is -z2^2.
        A zero of z1 leaves its cell's floor at -inf, so the cell is halved
        until a sample gap is negative, or until floating point cannot halve
        it in tau2 or in t, which refuses the pair too.  ``floor`` becomes
        the least floor of the closed cells, a bound on the whole circle.
        """
        top = _CLOSING * float(np.max(self.gap))
        a, b = self.cells
        least = np.inf
        while True:
            k = np.flatnonzero((a[5] <= 0.0) | ((a[3] > 0.0) != (b[3] > 0.0)))
            if k.size:
                raise AdmissibilityError(
                    "pointwise admissibility violated: z1^2(tau1(t)) - z2^2(tau2(t)) <= 0 "
                    f"at a t in [{a[1, k[0]]:.6g}, {b[1, k[0]]:.6g}]"
                )
            floors = self._cell_floors(a, b)
            near = np.minimum(a[5], b[5]) <= top
            shut = (floors > top) | ((floors > 0.0) & near)
            self.closing |= bool(np.any(shut & near))
            least = min(least, float(np.min(floors[shut], initial=np.inf)))
            a, b = a[:, ~shut], b[:, ~shut]
            if not a.shape[1]:
                break
            mid = 0.5 * (a[0] + b[0])
            k = np.flatnonzero((mid == a[0]) | (mid == b[0]) | (a[1] == b[1]))
            if k.size:
                raise AdmissibilityError(
                    "pointwise admissibility: positivity of z1^2(tau1(t)) - z2^2(tau2(t)) could "
                    f"not be shown, on a cell too narrow to halve at t = {a[1, k[0]]:.6g}"
                )
            fresh = self._samples(mid)
            a, b = np.concatenate([a, fresh], axis=1), np.concatenate([fresh, b], axis=1)
        self.floor = least

    def _weights(self, s):
        """With R = mean(w / g), the derivatives of -s R in w and g at the
        nodes: (-d/dw, d/dg) = (s / (m g), s w / (m g^2))."""
        a = s / (self.gap.size * self.gap)
        return a, a * self.w / self.gap

    @functools.cached_property
    def dt(self):
        return (self.phi - np.outer(2.0 * self.x, self.t)) / self.i2

    @functools.cached_property
    def dw(self):
        return 2.0 * (self.e * self.z2 - np.outer(self.x, self.w)) / self.i2

    @functools.cached_property
    def dg(self):
        """dg at the nodes over both loops' orthonormal directions, z1 first."""
        return np.concatenate([self.var.dq, self.dt * self.var.rate - 2.0 * self.e * self.z2])

    def gradient(self, s):
        """The coefficient gradients of -s R for z1 and z2: the node sums
        of b dg - a dw, (a, b) from ``_weights``, over the tables that
        ``hessian`` reads."""
        a, b = self._weights(s)
        n1 = self.z1.n
        d = self.dg @ b
        return d[:n1] / self.var.sg, (d[n1:] - self.dw @ a) / self.sg

    def hessian(self, s):
        """The Hessian of -s R in orthonormal coordinates (z1 first):

            sum_m b d^2 g - a d^2 w + (a/g) (dw dg^T + dg dw^T) - (2 b/g) dg dg^T,

        d^2 g = d^2 Q1 at fixed t on the z1 block, (rate_e) dt^T between the
        loops and Q1_tt dt dt^T + Q1_t d^2 t - 2 e e^T on the z2 block, where
        I2 d^2 t_ef = 2 P_ef - 2 t <e, f> - 2 (x_e dt_f + x_f dt_e) and
        I2 d^2 w_ef = 2 e f - 2 w <e, f> - 2 (x_e dw_f + x_f dw_e).
        """
        var, dt, dw, dg = self.var, self.dt, self.dw, self.dg
        a, b = self._weights(s)
        n1 = self.z1.n
        h = (dg * (-2.0 * b / self.gap)) @ dg.T
        cross = (dg * (a / self.gap)) @ dw.T
        cross[:n1] += (var.rate_e * b) @ dt.T
        h[:, n1:] += cross
        h[n1:, :] += cross.T
        h[:n1, :n1] += var.second(b)
        c = b * var.rate
        h2 = (dt * (b * var.rate_t)) @ dt.T - (self.e * (2.0 * (b + a / self.i2))) @ self.e.T
        h2 += (2.0 / self.i2) * loops._product_sums(loops.ODD_SINE, self.x.size, self.prim @ c)
        sym = dt @ c - dw @ a
        h2 -= (2.0 / self.i2) * (np.outer(self.x, sym) + np.outer(sym, self.x))
        h2[np.diag_indices_from(h2)] -= (2.0 / self.i2) * float(c @ self.t - a @ self.w)
        h[n1:, n1:] += h2
        return h


def _repulsion(rep: _Repulsion, s):
    """s R = s mean(w / gap) over the nodes, the instantaneous term that
    b_interp subtracts; warns when the halving of the cells that the node
    floor leaves open finds the gap nearly closing (``_Repulsion.closing``)."""
    if rep.closing:
        warnings.warn(
            "interaction gap nearly closes; the instantaneous value is ill conditioned",
            RuntimeWarning,
            stacklevel=3,
        )
    return s * float(np.mean(rep.w / rep.gap))


def b_interp_value(pair: PairLoop, s):
    """The value of ``b_interp`` alone, bit for bit: no gradient loops and
    no variation tables are built."""
    _check_s(s)
    value = _partials(pair, s)[0]
    if s > 0.0:
        value -= _repulsion(_admissible_gap(pair), s)
    return value


def b_interp(pair: PairLoop, s):
    """(1 - s) b_av + s b_in: value and L2-gradient (as a pair of loops).

    For s > 0, s times the repulsion -R on the tau2 nodes (``_Repulsion``)
    is added, with the exact gradient of that discretized quadrature,
    consistent with the value to rounding.
    """
    _check_s(s)
    value, df, _ = _partials(pair, s)
    g1 = frozen.norm_gradient(pair.z1, df[:3])
    g2 = frozen.norm_gradient(pair.z2, df[3:])
    if s > 0.0:
        rep = _admissible_gap(pair)
        value -= _repulsion(rep, s)
        d1, d2 = rep.gradient(s)
        g1[: pair.z1.n] += d1
        g2[: pair.z2.n] += d2
    return {
        "value": value,
        "gradient": (loops.from_coeffs(pair.z1.klass, g1), loops.from_coeffs(pair.z2.klass, g2)),
    }


def hessian_bound(h_matrix, pair: PairLoop, n1, n2):
    """Spectral lower bound of the pair Hessian, Garding style.

    delta = 4 min ||z_i||^2 bounds the leading block from below by
    delta ||v'||^2; C estimates the H1 -> L2 norm of the remaining block
    K = H - P through ||K (I + Omega)^{-1}||_2.  The bound is
    R = -C - C^2/(4 delta), residual-checked rather than certified (C is
    an estimate): the report checks that the computed spectrum stays
    above it.
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
# exact Hessians, in the orthonormal coordinates x_k = sqrt(g_k) c_k
# ---------------------------------------------------------------------------


def pair_hessian(pair: PairLoop, s):
    """Exact Hessian of b_interp at s, in orthonormal coordinates (z1 first).

    For s > 0 the repulsion adds the Hessian of -s R on the tau2 nodes
    (``_Repulsion.hessian``) to the norm part.
    """
    _check_s(s)
    _, df, d2f = _partials(pair, s, hessian=True)
    h = frozen.norm_hessian((pair.z1, pair.z2), df, d2f)
    if s > 0.0:
        h += _admissible_gap(pair).hessian(s)
    return h


# ---------------------------------------------------------------------------
# pair objective for the solver
# ---------------------------------------------------------------------------


class PairObjective(loops.Packed):
    """Interpolated pair functional in packed orthonormal coordinates, z1's
    block first."""

    def __init__(self, s, n1=16, n2=32):
        _check_s(s)
        self.s = float(s)
        self.n1 = int(n1)
        self.n2 = int(n2)
        super().__init__(((loops.EVEN_COSINE, self.n1), (loops.ODD_SINE, self.n2)))

    def _parts(self, pair):
        return pair.z1, pair.z2

    def _join(self, zs):
        return PairLoop(*zs)

    def admissible(self, x):
        try:
            pair = self.unpack(x)
            require_mean_admissible(pair)
            if self.s > 0.0:
                _admissible_gap(pair)
        except DomainError:
            return False
        return True

    def value(self, x):
        return b_interp_value(self.unpack(x), self.s)

    def _interp(self, x):
        """``b_interp`` at x, kept, so that ``gradient`` and ``certify`` at
        one x share one evaluation."""
        return self._kept("b_interp", x, lambda pair: b_interp(pair, self.s))

    def gradient(self, x):
        return self._packed(*self._interp(x)["gradient"])

    def parameter_gradient(self, x):
        """d_s of ``gradient`` at x: b_interp is affine in s, so this is the
        s = 1 gradient minus the s = 0 one at the same pair, -grad T - grad R."""
        pair = self.unpack(x)
        return self._packed(*b_interp(pair, 1.0)["gradient"]) - self._packed(
            *b_interp(pair, 0.0)["gradient"]
        )

    def hessian(self, x):
        """(1 - s) H_av + s H_in, exact, in packed coordinates; read-only
        and kept (``loops.Packed._kept``), so that the tangent of
        ``continuation`` reads the one the step diagnostics have just formed."""
        return self._kept(
            "hessian", x, lambda pair: loops.read_only(pair_hessian(pair, self.s))
        )

    def certify(self, x):
        """Residuals and value at x from the ``b_interp`` evaluation kept for
        x, kept."""
        return self._kept("certify", x, lambda pair: self._certificate(pair, self._interp(x)))

    def _certificate(self, pair, out):
        return PairCert(
            pair=pair,
            s=self.s,
            grad_res=float(np.linalg.norm(self._packed(*out["gradient"]))),
            full_res=loops.l2_norm(*out["gradient"]),
            value=out["value"],
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
