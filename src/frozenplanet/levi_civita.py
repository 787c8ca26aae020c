"""Levi-Civita transformation between regularized loops z and orbits q.

The transform pairs a loop z (with finitely many zeros) and a nonnegative
orbit q through q(t) = z(tau)^2 with the time change dt/q = d tau/||z||^2.
The forward direction is spectral and exact: the primitive of z^2
(``square_primitive``) is a closed-form trigonometric series, which gives
the monotone time map t(tau) = I(tau)/I(1), and its one inversion
(``tau_of_t``, safeguarded Newton) gives pointwise q values to machine
precision.

The inverse direction works from orbit samples alone.  Near each simple
collision the orbit behaves like q ~ C |t - t*|^{2/3} (a Puiseux series in
|t - t*|^{1/3}).  One regularized quadrature integrates 1/q, q and qdot^2:
high-order Gauss cells on a local interpolant away from the collisions,
and inside each window the fitted local series, integrated in the
cube-root variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import loops
from .errors import (
    AllCollisionError,
    ClassMismatchError,
    DegenerateLoopError,
    DomainError,
    NonRegularizableError,
)

_GL8 = np.polynomial.legendre.leggauss(8)
_GL32 = np.polynomial.legendre.leggauss(32)

#: half-width of the collision window, in grid cells
WINDOW_CELLS = 16
#: number of one-sided samples used for the local Puiseux fit
FIT_CELLS = 96
#: degree of the fitted polynomial factor p(sigma) in q = sigma^2 p(sigma)
FIT_DEGREE = 6


# ---------------------------------------------------------------------------
# exact spectral machinery for the forward direction
# ---------------------------------------------------------------------------


def square_primitive(z: loops.Loop):
    """Closed-form primitive I(tau) = int_0^tau z^2, plus I(1).

    z^2 is a finite trigonometric polynomial, projected onto the class it
    lies in (even-cosine for both symmetric classes, full otherwise); its
    primitive is evaluated termwise, so the time map of a loop is exact to
    rounding.  Cached on the loop.  Raises DegenerateLoopError when
    I(1) <= 0 (the zero loop has no time map).
    """
    cache = loops._loop_cache(z)
    if "square_primitive" in cache:
        return cache["square_primitive"]
    klass = loops.FULL if z.klass == loops.FULL else loops.EVEN_COSINE
    n_sq = int(loops._slot(klass, 2 * loops.mode_count(z.klass, z.n), True)) + 1
    sq = z.quad_samples() ** 2
    coeffs = loops.project(klass, sq, n_sq, p=loops.quad_size(z.n_active_modes()))
    # termwise: cos(pi f s) -> sin(pi f tau)/(pi f), sin -> (1 - cos)/(pi f)
    f, sine = loops._layout(klass, n_sq)
    f, sine = f[1:], sine[1:]
    red = np.where(sine, -1.0, 1.0) * coeffs[1:] / (np.pi * f)
    offset = -float(np.sum(red[sine]))

    def primitive(tau):
        tau = np.asarray(tau, dtype=float)
        return coeffs[0] * tau + offset + red @ loops._trig(f, ~sine, tau)

    i_one = float(primitive(np.array([1.0]))[0])
    if i_one <= 0.0:
        raise DegenerateLoopError("loop has vanishing half-period L2 norm")
    cache["square_primitive"] = (primitive, i_one)
    return primitive, i_one


def loop_zeros(z: loops.Loop, scan=4096):
    """Zeros of z in [0, 1], by sign-change bisection on a refined scan.

    Raises DegenerateLoopError when z vanishes on a whole stretch of the
    scan grid (no admissible time change exists there).
    """
    taus = np.linspace(0.0, 1.0, scan + 1)
    vals = z(taus)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise DegenerateLoopError("loop is identically zero")
    tiny = vals[np.abs(vals) < 1e-13 * scale]
    if tiny.size > max(8, scan // 20):
        raise DegenerateLoopError("loop vanishes on an interval")
    zeros = []
    if abs(vals[0]) < 1e-11 * scale:
        zeros.append(0.0)
    for i in range(scan):
        lo, hi = vals[i], vals[i + 1]
        if lo * hi < 0.0:
            a, b = taus[i], taus[i + 1]
            fa = lo
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = float(z(np.array([mid]))[0])
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
    if abs(vals[-1]) < 1e-11 * scale and not any(abs(r - 1.0) < 1e-9 for r in zeros):
        zeros.append(1.0)
    return np.array(sorted(zeros))


def tau_of_t(z: loops.Loop, t_values, table=512):
    """Invert the time map of z at the given t, clamped to [0, 1].

    Callers pass ratios I(tau)/I(1), which may round just outside [0, 1];
    non-finite t raises DomainError.  Safeguarded Newton on the exact
    primitive, bracketed by a dense table; the bracket midpoint substitutes
    whenever the derivative degenerates near a collision, and an exact root
    (residual 0) is kept as it is.
    Where z is bounded away from zero the result is good to ~1e-13 in tau.
    Near a collision t - t* ~ (tau - tau*)^3, so the inversion is cube-root
    conditioned: a rounding error of 1e-16 in t moves tau by up to ~1e-6
    (tau_of_t of the triple cover at t = 1/3 gives 0.333333043).
    """
    t = np.atleast_1d(np.asarray(t_values, dtype=float))
    if not np.all(np.isfinite(t)):
        raise DomainError("time-map argument t must be finite", tag="levi_civita.t")
    t = np.clip(t, 0.0, 1.0)
    primitive, i_one = square_primitive(z)
    cache = loops._loop_cache(z)
    key = ("tau_table", table)
    if key not in cache:
        nodes = np.linspace(0.0, 1.0, table + 1)
        tn = primitive(nodes) / i_one
        tn[0], tn[-1] = 0.0, 1.0
        cache[key] = (nodes, tn)
    nodes, tn = cache[key]
    idx = np.clip(np.searchsorted(tn, t, side="right") - 1, 0, table - 1)
    lo, hi = nodes[idx], nodes[idx + 1]
    tlo, thi = tn[idx], tn[idx + 1]
    width = np.maximum(thi - tlo, 1e-300)
    x = lo + (t - tlo) / width * (hi - lo)
    active = np.arange(t.size)
    for _ in range(80):
        xa = x[active]
        fx = primitive(xa) / i_one - t[active]
        zx = z(xa)
        deriv = zx * zx / i_one
        hi[active] = np.where(fx > 0.0, np.minimum(hi[active], xa), hi[active])
        lo[active] = np.where(fx <= 0.0, np.maximum(lo[active], xa), lo[active])
        ok = deriv > 1e-14
        x_new = np.where(
            ok, xa - fx / np.maximum(deriv, 1e-300), 0.5 * (lo[active] + hi[active])
        )
        outside = (x_new < lo[active]) | (x_new > hi[active])
        x_new = np.where(outside, 0.5 * (lo[active] + hi[active]), x_new)
        x_new = np.where(fx == 0.0, xa, x_new)
        moved = np.abs(x_new - xa) >= 1e-14
        x[active] = x_new
        active = active[moved]
        if active.size == 0:
            break
    return x if np.ndim(t_values) else float(x[0])


# ---------------------------------------------------------------------------
# Orbit and the forward transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    """Samples of q >= 0 on a uniform t-grid over [0, 1), plus collision data."""

    t: np.ndarray
    q: np.ndarray
    zeros: np.ndarray
    qbar: float
    source: loops.Loop | None = None
    taus: np.ndarray | None = None

    @property
    def n(self):
        return self.t.size

    def max(self):
        return float(np.max(self.q))


def forward(z: loops.Loop, n_t=8192) -> Orbit:
    """Levi-Civita transform q(t) = z(tau_z(t))^2 on a uniform t-grid.

    The zero set of q is t_z applied to the zeros of z, reduced to the
    circle [0, 1); the mean comes from the norm identity of the transform.
    """
    zs = loop_zeros(z)
    primitive, i_one = square_primitive(z)
    t = np.arange(n_t) / n_t
    taus = tau_of_t(z, t)
    q = z(taus) ** 2
    zero_ts = np.clip(primitive(zs) / i_one, 0.0, 1.0) % 1.0
    dedup = []
    for zt in sorted(zero_ts):
        if not dedup or _circle_dist(zt, dedup[-1]) > 1e-9 and _circle_dist(zt, dedup[0]) > 1e-9:
            dedup.append(float(zt))
    l2_sq, _, sq_sq = loops.norm_data(z)
    qbar = sq_sq / l2_sq
    return Orbit(t, q, np.array(dedup), qbar, source=z, taus=taus)


# ---------------------------------------------------------------------------
# reciprocal quadrature with collision regularization
# ---------------------------------------------------------------------------


def _circle_dist(a, b):
    d = abs((a - b) % 1.0)
    return min(d, 1.0 - d)


def _lagrange_vec(q, ts, stencil=6):
    """Vectorized local Lagrange interpolation of uniform periodic samples."""
    n = q.size
    h = 1.0 / n
    ts = np.asarray(ts, dtype=float) % 1.0
    i0 = np.floor(ts / h).astype(int) - (stencil // 2 - 1)
    offsets = np.arange(stencil)
    idx = (i0[:, None] + offsets[None, :]) % n
    xs = (i0[:, None] + offsets[None, :]) * h
    ys = q[idx]
    res = np.zeros_like(ts)
    for k in range(stencil):
        term = ys[:, k].copy()
        for l in range(stencil):
            if l != k:
                term *= (ts - xs[:, l]) / (xs[:, k] - xs[:, l])
        res += term
    return res


class _CollisionModel:
    """Puiseux model q = sigma^2 p(sigma), sigma = |t - t*|^{1/3}, one side."""

    def __init__(self, t_star, side, sigma, values):
        self.t_star = t_star
        self.side = side  # +1 right, -1 left
        scale = sigma[-1]
        y = values / sigma**2
        coeff = np.polyfit(sigma / scale, y, FIT_DEGREE)
        self.poly = np.poly1d(coeff)
        self.scale = scale
        p0 = self.poly(0.0)
        if not np.isfinite(p0) or p0 <= 1e-3 * np.max(y):
            raise NonRegularizableError(
                "collision of order >= 2: reciprocal integral diverges"
            )

    def q_at(self, delta):
        """q at signed offsets delta = t - t* (matching this side)."""
        sigma = np.cbrt(np.abs(np.asarray(delta, dtype=float)))
        return sigma**2 * self.poly(sigma / self.scale)

    def _gauss(self, integrand, sigma_hi, sigma_lo):
        """32-point Gauss rule for int integrand(sigma) d sigma."""
        x, w = _GL32
        half = 0.5 * (sigma_hi - sigma_lo)
        s = sigma_lo + half * (x + 1.0)
        return half * float(np.sum(w * integrand(s)))

    def integral_reciprocal(self, sigma_hi, sigma_lo=0.0):
        """int 1/q dt over |t - t*|^{1/3} in [sigma_lo, sigma_hi]."""
        return self._gauss(lambda s: 3.0 / self.poly(s / self.scale), sigma_hi, sigma_lo)

    def integral_q(self, sigma_hi, sigma_lo=0.0):
        """int q dt over the same sigma range."""
        return self._gauss(lambda s: 3.0 * s**4 * self.poly(s / self.scale), sigma_hi, sigma_lo)

    def integral_qdot_sq(self, sigma_hi, sigma_lo=0.0):
        """int qdot^2 dt: with q = sigma^2 p, qdot = (2p + sigma p')/(3 sigma)."""

        def integrand(s):
            u = s / self.scale
            return (2.0 * self.poly(u) + s * self.poly.deriv()(u) / self.scale) ** 2 / 3.0

        return self._gauss(integrand, sigma_hi, sigma_lo)


class ReciprocalIntegral:
    """Cumulative F(t) = int_0^t ds/q(s) for an orbit with simple collisions.

    Smooth cells are integrated with 8-point Gauss on a 6-point local
    Lagrange interpolant of the samples; cells inside a collision window
    use the fitted cube-root model analytically.
    """

    def __init__(self, orbit: Orbit):
        self.orbit = orbit
        t, q = orbit.t, orbit.q
        self.n = t.size
        self.h = 1.0 / self.n
        self.zeros = sorted(float(zz) % 1.0 for zz in orbit.zeros)
        self.models = {}
        self.window = WINDOW_CELLS * self.h
        for z0 in self.zeros:
            for side in (+1, -1):
                # samples at true grid points strictly on this side of the
                # collision (which need not itself sit on the grid)
                if side > 0:
                    first = int(np.floor(z0 / self.h + 1e-9)) + 1
                    ii = first + np.arange(FIT_CELLS)
                    deltas = ii * self.h - z0
                else:
                    last = int(np.ceil(z0 / self.h - 1e-9)) - 1
                    ii = last - np.arange(FIT_CELLS)
                    deltas = z0 - ii * self.h
                keep = deltas > 1e-6 * self.h
                vals = q[ii[keep] % self.n]
                sigma = np.cbrt(deltas[keep])
                self.models[(z0, side)] = _CollisionModel(z0, side, sigma, vals)
        self._build_prefix()

    # -- geometry helpers ---------------------------------------------------

    def _zone(self, tv):
        """Collision whose window contains tv, or None."""
        for z0 in self.zeros:
            if _circle_dist(tv, z0) < self.window - 1e-15:
                return z0
        return None

    def _model_for(self, tv, z0):
        delta = (tv - z0 + 0.5) % 1.0 - 0.5
        side = +1 if delta >= 0 else -1
        return self.models[(z0, side)], delta

    # -- pointwise q --------------------------------------------------------

    def q_eval(self, ts):
        """Pointwise q via local interpolation away from collisions and the
        fitted Puiseux model inside each window."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float)) % 1.0
        out = _lagrange_vec(self.orbit.q, ts)
        for j, tv in enumerate(ts):
            z0 = self._zone(tv)
            if z0 is not None:
                model, delta = self._model_for(tv, z0)
                out[j] = model.q_at(delta)
        return out

    # -- regularized quadrature --------------------------------------------

    def _cell_integrals(self, samples, transform, model_method):
        """Per-cell int transform(samples) dt over the n grid cells.

        Smooth cells take one vectorized 8-point Gauss pass on the local
        interpolant of ``samples``; each cell near a collision goes through
        _segment, which uses the fitted model's closed-form integral named
        by ``model_method`` inside the window.
        """
        n, h = self.n, self.h
        edges = np.arange(n + 1) * h
        mids = (np.arange(n) + 0.5) * h
        in_win = np.zeros(n, dtype=bool)
        for z0 in self.zeros:
            d = np.abs((mids - z0 + 0.5) % 1.0 - 0.5)
            in_win |= d < self.window + h
        smooth = ~in_win
        x, w = _GL8
        cells = np.zeros(n)
        if np.any(smooth):
            a = edges[:-1][smooth]
            pts = a[:, None] + 0.5 * h * (x[None, :] + 1.0)
            vals = transform(_lagrange_vec(samples, pts.ravel()).reshape(pts.shape))
            cells[smooth] = 0.5 * h * (vals @ w)
        for i in np.nonzero(in_win)[0]:
            cells[i] = self._segment(edges[i], edges[i + 1], samples, transform, model_method)
        return cells

    def _segment(self, a, b, samples, transform, model_method):
        """int_a^b transform(samples) dt for a short segment, split at the
        collisions it contains; window pieces use the named model integral."""
        pts = [a, b]
        for zz in self.zeros:
            for shift in (-1.0, 0.0, 1.0):
                zs = zz + shift
                if a < zs < b:
                    pts.append(zs)
        pts = sorted(set(pts))
        total = 0.0
        x, w = _GL8
        for lo, hi in zip(pts[:-1], pts[1:]):
            if hi - lo <= 0:
                continue
            mid = 0.5 * (lo + hi)
            z0 = self._zone(mid % 1.0)
            if z0 is None:
                s = lo + 0.5 * (hi - lo) * (x + 1.0)
                vals = transform(_lagrange_vec(samples, s % 1.0))
                total += 0.5 * (hi - lo) * float(np.sum(w * vals))
            else:
                model, _ = self._model_for(mid % 1.0, z0)
                zs = z0 + round(mid - z0)  # unwrap to the local branch
                s_lo, s_hi = np.cbrt(abs(lo - zs)), np.cbrt(abs(hi - zs))
                if s_hi < s_lo:
                    s_lo, s_hi = s_hi, s_lo
                total += getattr(model, model_method)(s_hi, s_lo)
        return total

    def _build_prefix(self):
        self.cell_vals = self._cell_integrals(self.orbit.q, np.reciprocal, "integral_reciprocal")
        self.prefix = np.concatenate([[0.0], np.cumsum(self.cell_vals)])
        self.total = float(self.prefix[-1])
        if not np.isfinite(self.total) or self.total <= 0.0:
            raise NonRegularizableError("reciprocal integral failed to converge")

    def _segment_integral(self, a, b):
        """int_a^b 1/q for a short segment (may touch collision windows)."""
        return self._segment(a, b, self.orbit.q, np.reciprocal, "integral_reciprocal")

    # -- cumulative and its inverse ------------------------------------------

    def cumulative(self, ts):
        """F(t) = int_0^t ds/q(s) for t in [0, 1]."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty_like(ts)
        for j, tv in enumerate(ts):
            tv = min(max(float(tv), 0.0), 1.0)
            i = min(int(tv / self.h), self.n - 1)
            a = i * self.h
            out[j] = self.prefix[i]
            if tv > a + 1e-300:
                out[j] += self._segment_integral(a, tv)
        return out

    def solve(self, targets):
        """Invert F: find t with F(t) = target, for targets in [0, total].

        Inside a collision window the equation is solved in the cube-root
        variable sigma = |t - t*|^{1/3}, where the cumulative is smooth and
        Newton is well conditioned; elsewhere plain safeguarded Newton on
        the cell works.
        """
        targets = np.atleast_1d(np.asarray(targets, dtype=float))
        out = np.empty_like(targets)
        for j, target in enumerate(targets):
            i = int(np.clip(np.searchsorted(self.prefix, target) - 1, 0, self.n - 1))
            lo, hi = i * self.h, (i + 1) * self.h
            z0 = self._zone((0.5 * (lo + hi)) % 1.0)
            if z0 is not None:
                out[j] = self._solve_in_window(target, lo, hi, z0)
                continue
            a, flo = lo, self.prefix[i]
            x = 0.5 * (lo + hi)
            for _ in range(80):
                fx = flo + self._segment_integral(a, x) - target
                if fx > 0.0:
                    hi = x
                else:
                    lo = x
                qv = float(self.q_eval(np.array([x]))[0])
                x_new = x - fx * qv if qv > 0 else 0.5 * (lo + hi)
                if not (lo < x_new < hi):
                    x_new = 0.5 * (lo + hi)
                if abs(x_new - x) < 1e-16 or hi - lo < 1e-16:
                    x = x_new
                    break
                x = x_new
            out[j] = x
        return out

    def _solve_in_window(self, target, lo, hi, z0):
        """Solve F(t) = target for t near a collision, in sigma coordinates.

        The residual against the cumulative at the collision decides the
        side; on that side G(sigma) = int 1/q is smooth with slope 3/p(0),
        so Newton is well conditioned down to the collision itself.
        """
        zs = z0 + round(0.5 * (lo + hi) - z0)  # unwrap to this branch
        f_z = float(self.cumulative(np.array([min(max(zs, 0.0), 1.0)]))[0])
        resid = target - f_z
        if resid == 0.0:
            return min(max(zs, 0.0), 1.0)
        side = 1.0 if resid > 0.0 else -1.0
        model = self.models[(z0, +1 if side > 0 else -1)]
        goal = abs(resid)
        s_lo, s_hi = 0.0, np.cbrt(self.window + 2.0 * self.h)
        if model.integral_reciprocal(s_hi) < goal:
            # target outside the modeled window: bisect on the cumulative
            return self._solve_generic(target, lo, hi)
        s = 0.5 * s_hi
        for _ in range(60):
            g = model.integral_reciprocal(s) - goal
            if g > 0.0:
                s_hi = s
            else:
                s_lo = s
            dg = 3.0 / model.poly(s / model.scale)
            s_new = s - g / dg if dg > 0 else 0.5 * (s_lo + s_hi)
            if not (s_lo <= s_new <= s_hi):
                s_new = 0.5 * (s_lo + s_hi)
            if abs(s_new - s) < 1e-17:
                s = s_new
                break
            s = s_new
        return zs + side * s**3

    def _solve_generic(self, target, lo, hi):
        """Bisection on the cumulative over [lo, hi] (fallback path)."""
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(self.cumulative(np.array([mid]))[0]) > target:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


def _reciprocal(orbit: Orbit) -> ReciprocalIntegral:
    """The orbit's ReciprocalIntegral, built once and cached on the orbit."""
    rec = getattr(orbit, "_reciprocal", None)
    if rec is None:
        rec = ReciprocalIntegral(orbit)
        object.__setattr__(orbit, "_reciprocal", rec)
    return rec


def reciprocal_integral(orbit: Orbit):
    """int_0^1 dt/q(t) with collision regularization."""
    return _reciprocal(orbit).total


def qbar_from_samples(orbit: Orbit):
    """int_0^1 q dt from samples, with collision-window correction."""
    rec = _reciprocal(orbit)
    return float(np.sum(rec._cell_integrals(orbit.q, lambda v: v, "integral_q")))


def qdot_l2_sq(orbit: Orbit):
    """||qdot||^2 = int_0^1 qdot^2 dt, collision windows handled by model.

    The integrand has an integrable |t - t*|^{-2/3} singularity at each
    collision; inside the window the fitted Puiseux model integrates it in
    the cube-root variable.  With a source loop attached, qdot comes from
    the chain rule; otherwise from grid differences.
    """
    rec = _reciprocal(orbit)
    if orbit.source is not None and orbit.taus is not None:
        z = orbit.source
        l2sq = loops.norm_data(z)[0]
        zv = z(orbit.taus)
        zp = loops.derivative_values(z, orbit.taus)
        with np.errstate(divide="ignore", invalid="ignore"):
            qdot = np.where(np.abs(zv) > 1e-300, 2.0 * l2sq * zp / zv, 0.0)
    else:
        qdot = qdot_fd(orbit)
    return float(np.sum(rec._cell_integrals(qdot, np.square, "integral_qdot_sq")))


# ---------------------------------------------------------------------------
# the inverse transform
# ---------------------------------------------------------------------------


def inverse(orbit: Orbit, parity="odd", m_out=512) -> loops.Loop:
    """Reconstruct the loop z with z(tau)^2 = q(t_q(tau)) from orbit data.

    The sign convention takes z > 0 on (0, 1); for odd parity (an odd
    number of simple zeros per period) the result is a period-2 loop with
    z(1 + tau) = -z(tau).  The reconstruction uses only the sampled data,
    so a forward/inverse roundtrip is a genuine consistency check.
    """
    if parity not in ("odd", "even"):
        raise DomainError("parity must be 'odd' or 'even'", tag="levi_civita.parity")
    n_zeros = len(orbit.zeros)
    if parity == "odd" and n_zeros % 2 == 0:
        raise DomainError(
            f"odd parity needs an odd number of zeros, found {n_zeros}",
            tag="levi_civita.parity",
        )
    if parity == "even" and n_zeros % 2 == 1:
        raise DomainError(
            f"even parity needs an even number of zeros, found {n_zeros}",
            tag="levi_civita.parity",
        )

    half = m_out // 2
    taus = np.arange(half) / half  # uniform on [0, 1)
    rec = _reciprocal(orbit)
    t_of_tau = rec.solve(taus * rec.total)
    vals = np.sqrt(np.maximum(rec.q_eval(t_of_tau), 0.0))

    if n_zeros:
        zero_taus = np.sort(rec.cumulative(np.array(rec.zeros)).ravel() / rec.total)
        for zt in zero_taus:
            jr = round(zt * half)
            if abs(zt * half - jr) < 1e-6:
                vals[int(jr) % half] = 0.0
        if parity == "odd" and n_zeros > 1:
            interior = zero_taus[zero_taus > 1e-12]
            crossings = np.searchsorted(interior, taus, side="right")
            vals = vals * (-1.0) ** crossings

    full = np.empty(m_out)
    full[:half] = vals
    full[half:] = -vals if parity == "odd" else vals
    klass = loops.ODD_SINE if parity == "odd" else loops.EVEN_COSINE
    try:
        return loops.analyze(full, klass, tol=1e-5)
    except ClassMismatchError:
        return loops.analyze(full, loops.FULL)


# ---------------------------------------------------------------------------
# residual diagnostics of the collision ODE
# ---------------------------------------------------------------------------


def q_residual(orbit: Orbit, r, safe_fraction=0.05, method=None):
    """Residuals of the regularized collision ODE on the safe region.

    ode_res     = sup |qdd + 2/q^2 + r/qbar^2|  over  q >= safe_fraction * max q
    beta_mu_res = sup |beta q^3 + 2|  with  beta = (qdd + r/qbar^2)/q.

    With a source loop attached, qdd is evaluated through the chain rule of
    the transform (spectral accuracy); otherwise a five-point stencil on
    the sample grid is used, which is the best available from data alone.
    """
    if not 0.0 <= r < np.inf:
        raise DomainError(
            f"mean-interaction strength r must be finite and >= 0, got {r}", tag="frozen.r"
        )
    q = orbit.q
    qmax = float(np.max(q))
    mask = q >= safe_fraction * qmax
    if not np.any(mask):
        raise AllCollisionError("no samples away from the collision set")
    if method is None:
        method = "spectral" if orbit.source is not None else "fd"
    if method == "spectral":
        if orbit.source is None or orbit.taus is None:
            raise DomainError(
                "spectral residual needs the source loop", tag="levi_civita.source"
            )
        z = orbit.source
        taus = orbit.taus[mask]
        l2sq = loops.norm_data(z)[0]
        zv = z(taus)
        zp = loops.derivative_values(z, taus)
        zpp = loops.synthesize(z.klass, loops.second_derivative_coeffs(z), taus)
        qv = zv**2
        qdot = 2.0 * l2sq * zp / zv
        qdd = (2.0 * l2sq**2 * zpp / zv - 0.5 * qdot**2) / qv
    else:
        n = orbit.n
        h = 1.0 / n
        qp = np.concatenate([q[-2:], q, q[:2]])
        i = np.arange(n) + 2
        qdd_all = (
            -qp[i - 2] + 16 * qp[i - 1] - 30 * qp[i] + 16 * qp[i + 1] - qp[i + 2]
        ) / (12 * h * h)
        qdd = qdd_all[mask]
        qv = q[mask]
    qb = orbit.qbar
    ode = qdd + 2.0 / qv**2 + r / qb**2
    beta = (qdd + r / qb**2) / qv
    return {
        "ode_res": float(np.max(np.abs(ode))),
        "beta_mu_res": float(np.max(np.abs(beta * qv**3 + 2.0))),
    }


def qdot_fd(orbit: Orbit):
    """Central-difference first derivative of q on its grid (for export)."""
    q = orbit.q
    n = orbit.n
    return (np.roll(q, -1) - np.roll(q, 1)) * (0.5 * n)
