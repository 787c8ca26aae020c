"""Newton solving, parameter continuation, spectra, and the signed count.

Objectives expose the value/gradient/Hessian of a functional in an
orthonormal Galerkin coordinate system, and the derivative of the gradient
in the functional's parameter; Newton works on those coordinates with
backtracking damping and an admissibility guard.  ``FrozenObjective`` and
``helium.PairObjective`` are both ``loops.Packed``: the packed coordinates,
and the point, Hessian and certificate kept for the last few x, are
shared, and each objective holds only its functional's calls.
Continuation drives the parameter p with a tangent predictor and an
adaptive step (halve on failure, double when Newton's first contraction
is below ``GROWTH_CONTRACTION``), recording every accepted point with
its diagnostics and, on first read, its certificate.  Its hypothesis is
the paper's nondegeneracy: at a critical point with invertible Hessian H
the critical points form a smooth path, by the implicit function
theorem, with tangent
dx/dp = -H^{-1} d_p g, g the gradient.  The seed of the first step is the
Euler step along that tangent, and of every later step the cubic Hermite
interpolant through the last two accepted points and their tangents,
extrapolated.

Spectral reports count negative and null eigenvalues of the Galerkin
Hessian.  On the symmetry-reduced space a nondegenerate critical point has
nullity 0; the auxiliary full-loop-space mode re-embeds the point in the
unrestricted period-2 basis and forms the Hessian there, where time-shift
invariance forces a one-dimensional kernel spanned by z'.  One rule decides
"singular" everywhere (``detline.in_kernel``, beside ``detline.mu``): an
eigenvalue is null when its magnitude times 1e12 is at most the largest,
so a report has nullity 0 exactly when Newton's condition check
(cond_2 below 1e12) passes its matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import detline, frozen, levi_civita, loops
from .errors import (
    ContinuationStuckError,
    DegeneratePointError,
    DomainError,
    NonConvergenceError,
    SingularHessianError,
)

NEWTON_TOL = 1e-10
DEFAULT_MODES = 64
#: continuation doubles its step after a solve whose first contraction
#: r_1 / r_0 is below this (Deuflhard, Newton Methods, ch. 5)
GROWTH_CONTRACTION = 0.1
#: ``solve_frozen`` continues on at most this many modes, doubling them
#: while the endpoint's coefficient tail exceeds ``TAIL_FRACTION`` of its
#: l1 norm (Boyd, Chebyshev and Fourier Spectral Methods, ch. 2)
WORK_MODES = 16
TAIL_FRACTION = 1e-17


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


class FrozenObjective(loops.Packed):
    """The one-loop functional at fixed r, over odd-sine loops of N modes."""

    klass = loops.ODD_SINE

    def __init__(self, r, n_modes=DEFAULT_MODES):
        frozen.check_r(r)
        self.r = float(r)
        super().__init__(((self.klass, int(n_modes)),))

    def _parts(self, z):
        return (z,)

    def _join(self, zs):
        return zs[0]

    def admissible(self, x):
        return bool(np.all(np.isfinite(x))) and float(np.linalg.norm(x)) > 1e-6

    def value(self, x):
        return frozen.value(self.unpack(x), self.r)

    def gradient(self, x):
        return self._packed(frozen.gradient(self.unpack(x), self.r))

    def parameter_gradient(self, x):
        """d_r of ``gradient`` at x: F_r = 2 l d + 2/l + r l/s is affine in
        r, with the partials (1/s, 0, -l/s^2) in (l, d, s)."""
        z = self.unpack(x)
        l, _, s = frozen._norm_data(z)
        coeffs = frozen.norm_gradient(z, (1.0 / s, 0.0, -l / s**2))
        return self._packed(loops.from_coeffs(self.klass, coeffs))

    def hessian(self, x):
        """The Hessian at x, read-only and kept (``loops.Packed._kept``), so
        that the tangent of ``continuation`` reads the one the step
        diagnostics have just formed."""
        return self._kept(
            "hessian", x, lambda z: loops.read_only(frozen.hessian_analytic(z, self.r))
        )

    def certify(self, x):
        """The certificate at x, kept, so that a path step reads the one
        its diagnostics have made."""
        return self._kept("certify", x, lambda z: frozen.certify(z, self.r))


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------


@dataclass
class NewtonReport:
    x: np.ndarray
    residuals: list
    iterations: int


def _check_conditioned(h):
    """Raise SingularHessianError unless the symmetric Hessian h is finite
    with no eigenvalue in the kernel (``detline.in_kernel``): its 2-norm
    condition number is below ``detline.COND_LIMIT`` = 1e12.

    The Gershgorin discs |lambda - h_ii| <= sum_{j != i} |h_ij| enclose
    the spectrum (Horn and Johnson, Matrix Analysis, Thm 6.1.1).  Their
    union [lo, hi] is widened by n eps ||h||_inf, which covers the rounding
    of the sums and the error of an eigensolver.  When the widened
    enclosure is one-signed, cond_2 <= max(|lo|, |hi|) / min(|lo|, |hi|),
    and h passes without a factorization when that is below 1e12.
    Otherwise (an indefinite h, or discs too wide to tell) the kernel rule
    reads the ``eigvalsh`` spectrum, so the decision is the eigenvalue
    test's either way.  The positive definite Newton Hessians of the
    one-loop family all pass on the discs.
    """
    if not np.all(np.isfinite(h)):
        raise SingularHessianError("Hessian has non-finite entries")
    diag = np.diagonal(h)
    rows = np.abs(h).sum(axis=1)
    slack = h.shape[0] * np.finfo(float).eps * float(rows.max())
    radius = rows - np.abs(diag)
    lo = float(np.min(diag - radius)) - slack
    hi = float(np.max(diag + radius)) + slack
    limit = detline.COND_LIMIT
    if 0.0 < lo and hi < limit * lo or hi < 0.0 and -lo < -limit * hi:
        return
    mags = np.abs(np.linalg.eigvalsh(h))
    if np.any(detline.in_kernel(mags)):
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = mags.max() / mags.min()
        raise SingularHessianError(f"Hessian condition number {cond:.3e} is not below 1e12")


def newton(objective, x0, tol=NEWTON_TOL, jacobian="every"):
    """Damped Newton on the packed coordinates.

    Residuals are L2 norms of the projected gradient, one per iterate, so
    quadratic convergence can be read off them at nondegenerate points.
    Steps that leave the admissible set
    (or fail to reduce the residual) are halved up to 12 times, and at most
    30 steps are taken.  Each new Hessian is checked once
    (``_check_conditioned``): a non-finite one, or one with condition
    number of 1e12 or more, raises SingularHessianError.  At the nondegenerate
    minima of the one-loop family the Gershgorin discs decide that check,
    so those solves run no eigensolver.

    jacobian='frozen' factors the Hessian once at the seed and reuses it
    (cheap quasi-Newton for objectives with expensive Hessians); it is
    refreshed automatically if the line search stalls.
    """
    max_iter = 30
    x = np.asarray(x0, dtype=float).copy()
    if not objective.admissible(x):
        raise DomainError("initial guess outside the admissible set", tag="solve.seed")
    res_hist = []
    g = objective.gradient(x)
    res = float(np.linalg.norm(g))
    res_hist.append(res)
    h_frozen = None
    for it in range(max_iter):
        if res < tol:
            break
        if jacobian == "frozen" and h_frozen is not None:
            h = h_frozen
        else:
            h = objective.hessian(x)
            _check_conditioned(h)
            h_frozen = h
        step = np.linalg.solve(h, -g)
        lam = 1.0
        for _ in range(12):
            x_new = x + lam * step
            if objective.admissible(x_new):
                g_new = objective.gradient(x_new)
                res_new = float(np.linalg.norm(g_new))
                if res_new < res:
                    break
            lam *= 0.5
        else:
            if jacobian == "frozen" and h_frozen is not None and it > 0:
                h_frozen = None  # stale Jacobian; refresh and retry
                continue
            raise NonConvergenceError(
                "line search failed to find an admissible decreasing step",
                history=res_hist,
            )
        x, g, res = x_new, g_new, res_new
        res_hist.append(res)
    else:
        it = max_iter
        if not res < tol:
            raise NonConvergenceError(
                f"Newton did not reach {tol:.1e} in {max_iter} iterations "
                f"(last residual {res:.3e})",
                history=res_hist,
            )
    return NewtonReport(x, res_hist, it)


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def free_fall_seed(n_modes=DEFAULT_MODES) -> loops.Loop:
    """The explicit critical point at r = 0: A sin(pi tau), A = (2/pi)^{1/3},
    as an odd-sine loop of ``n_modes`` coefficients.

    Pure fundamental mode, a = 0, b = pi^2, so the gradient vanishes to
    rounding; ``frozen.certify(seed, 0.0)`` certifies it.  Callers that
    only continue from it pay no certificate.
    """
    if n_modes < 4:
        raise DomainError("need at least 4 modes", tag="solve.modes")
    amp = (2.0 / np.pi) ** (1.0 / 3.0)
    coeffs = np.zeros(n_modes)
    coeffs[0] = amp
    return loops.from_coeffs(loops.ODD_SINE, coeffs)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue data of a discretized Hessian."""

    eigenvalues: np.ndarray
    morse_index: int
    nullity: int
    mu: float
    min_abs: float
    kernel_alignment: float | None = None


def spectrum_report(h, align_with=None):
    """Morse data of a symmetric matrix, plus the cutoff spectral count
    (``detline.mu`` at the default ``detline.CutoffRho``).  The null
    eigenvalues are those of ``detline.in_kernel``, at most the spectral
    radius / 1e12 in magnitude.  Only the kernel alignment with
    ``align_with`` reads eigenvectors, so without it the spectrum comes
    from ``eigvalsh``, with it from ``eigh``."""
    h = 0.5 * (h + h.T)
    if align_with is None:
        evals = np.linalg.eigvalsh(h)
    else:
        evals, evecs = np.linalg.eigh(h)
    null_mask = detline.in_kernel(evals)
    nullity = int(np.sum(null_mask))
    morse = int(np.sum(evals[~null_mask] < 0.0))
    mu = detline.mu(evals)
    alignment = None
    if align_with is not None and nullity >= 1:
        vec = np.asarray(align_with, dtype=float)
        vec = vec / np.linalg.norm(vec)
        kernel = evecs[:, null_mask]
        alignment = float(np.max(np.abs(kernel.T @ vec)))
    min_abs = float(np.min(np.abs(evals))) if evals.size else 0.0
    return SpectrumReport(
        eigenvalues=evals,
        morse_index=morse,
        nullity=nullity,
        mu=float(mu),
        min_abs=min_abs,
        kernel_alignment=alignment,
    )


def spectrum(cert: frozen.CriticalPointCert, space="symmetric"):
    """Spectral report of a certificate's Hessian.

    space='symmetric' uses the odd-sine Galerkin space (expected nullity
    0); space='full' re-embeds the loop into the unrestricted period-2
    basis up to its top frequency (``loops.embed_full``), where the kernel
    is one-dimensional and aligned with z', whose orthonormal coordinates
    the report compares it with.
    """
    if space == "symmetric":
        return spectrum_report(frozen.hessian_analytic(cert.z, cert.r))
    if space != "full":
        raise DomainError("space must be 'symmetric' or 'full'", tag="solve.space")
    zf = loops.embed_full(cert.z)
    d1 = loops.derivative(zf)
    align = np.sqrt(loops.gram_diag(d1.klass, d1.n)) * d1.coeffs
    return spectrum_report(frozen.hessian_analytic(zf, cert.r), align_with=align)


def euler_count(points):
    """Signed count sum (-1)^index over critical points given as (Morse
    index, nullity) pairs; a positive nullity raises DegeneratePointError.

    The normalization is that of ``detline.sections``: a critical point
    whose Hessian is positive definite counts +1, since s = (-1)^i t.
    """
    total = 0
    for index, nullity in points:
        if nullity > 0:
            raise DegeneratePointError("degenerate critical point: count undefined")
        total += (-1) ** index
    return total


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


@dataclass
class PathStep:
    """An accepted point x of a path at ``parameter``, with its diagnostics.

    ``cert`` is ``make_cert()``, made the first time it is read and kept;
    the step then lets go of ``make_cert`` and what it holds (an
    objective).  A caller that reads only the points pays no
    certificate."""

    parameter: float
    x: np.ndarray
    make_cert: object = field(repr=False)
    diagnostics: dict = field(default_factory=dict)

    @property
    def cert(self):
        if self.make_cert is not None:
            self._cert, self.make_cert = self.make_cert(), None
        return self._cert


@dataclass
class ContinuationPath:
    steps: list
    step_history: list
    failures: list

    def last(self):
        return self.steps[-1]


def continuation(
    make_objective,
    p0,
    p1,
    x0,
    tol=NEWTON_TOL,
    diagnostics=None,
    through=(),
    newton_kwargs=None,
):
    """Track a critical point from parameter p0 to p1.

    ``make_objective(p)`` builds the objective at parameter p, with
    ``parameter_gradient``; ``x0`` must be (near-)critical at p0.  Every
    Newton solve starts from a tangent predictor.  At each accepted point
    the tangent dx/dp = -H^{-1} d_p g is solved, when the next step is
    seeded (the endpoint pays nothing), on the Hessian the objective keeps
    for x; it is checked like Newton's (``_check_conditioned``), so a
    degenerate accepted point raises SingularHessianError.  The first step
    is the Euler step along the tangent; every later one extrapolates the
    cubic Hermite interpolant through the last two accepted points and
    their tangents, exact on paths cubic in p.  The step starts at 1/16 of
    the range, halves on failure (and the same data predict again; below
    1e-6 the path is stuck) and doubles, up to 1/4 of the range,
    after a solve whose first contraction r_1 / r_0 is below
    ``GROWTH_CONTRACTION`` (a seed that is already converged counts as 0).
    Parameters listed in ``through`` that lie strictly between p0 and p1
    are forced onto the grid; the others are ignored.
    ``diagnostics(objective, x, report)`` may attach per-step data.  Each
    step certifies its point when its ``cert`` is first read
    (``PathStep``).
    """
    span = p1 - p0
    if not np.isfinite(span):
        raise DomainError(f"continuation range {p0}..{p1} must be finite", tag="solve.range")
    if span == 0.0:
        raise DomainError("empty continuation range", tag="solve.range")
    direction = 1.0 if span > 0 else -1.0
    step, max_step, min_step = abs(span) / 16.0, abs(span) / 4.0, 1e-6
    waypoints = sorted({p for p in through if min(p0, p1) < p < max(p0, p1)})
    newton_kwargs = newton_kwargs or {}

    obj = make_objective(p0)
    rep = newton(obj, x0, tol=tol, **newton_kwargs)
    steps = [_step(p0, obj, rep, diagnostics, make_objective)]
    step_history = []
    failures = []
    p, x = p0, rep.x
    prev = v = None  # the accepted (p, x, dx/dp) before (p, x), and dx/dp at x
    while direction * (p1 - p) > 1e-14:
        p_next = p + direction * step
        for wp in waypoints:
            if direction * (wp - p) > 1e-14 and direction * (p_next - wp) > -1e-14:
                p_next = wp
                break
        if direction * (p_next - p1) > 0:
            p_next = p1
        if v is None:
            v = _tangent(obj, x)
        try:
            # an overflowing seed fails with its tagged error, not with warnings
            with np.errstate(over="ignore", invalid="ignore"):
                seed = _predict(prev, (p, x, v), p_next)
                obj_next = make_objective(p_next)
                rep = newton(obj_next, seed, tol=tol, **newton_kwargs)
        except (NonConvergenceError, SingularHessianError, DomainError) as exc:
            failures.append((p_next, type(exc).__name__))
            step *= 0.5
            if step < min_step:
                raise ContinuationStuckError(
                    f"step underflow below {min_step:g} at parameter {p_next:.6g}",
                    partial=ContinuationPath(steps, step_history, failures),
                ) from exc
            continue
        prev, v = (p, x, v), None
        obj, p, x = obj_next, p_next, rep.x
        steps.append(_step(p, obj, rep, diagnostics, make_objective))
        step_history.append(step)
        res = rep.residuals
        if len(res) == 1 or res[1] < GROWTH_CONTRACTION * res[0]:
            step = min(2.0 * step, max_step)
    return ContinuationPath(steps, step_history, failures)


def _tangent(objective, x):
    """dx/dp = -H^{-1} d_p g at the critical point x, on the Hessian that
    the objective keeps for x, checked as Newton checks its own."""
    h = objective.hessian(x)
    _check_conditioned(h)
    return np.linalg.solve(h, -objective.parameter_gradient(x))


def _predict(prev, cur, p_next):
    """The seed at p_next from the accepted (p, x, dx/dp) ``cur``: the Euler
    step without an earlier point ``prev``, else the cubic Hermite
    interpolant through both, extrapolated in u = (p_next - p_a)/(p_b - p_a)."""
    p_b, x_b, v_b = cur
    if prev is None:
        return x_b + (p_next - p_b) * v_b
    p_a, x_a, v_a = prev
    dp = p_b - p_a
    u = (p_next - p_a) / dp
    u2, u3 = u * u, u * u * u
    return (
        (2.0 * u3 - 3.0 * u2 + 1.0) * x_a
        + (u3 - 2.0 * u2 + u) * dp * v_a
        + (3.0 * u2 - 2.0 * u3) * x_b
        + (u3 - u2) * dp * v_b
    )


def _step(p, obj, rep, diagnostics, make_objective):
    """The accepted step at p from Newton's report on obj.  Its
    certificate is the one obj keeps for the point, when the diagnostics
    made one (``loops.Packed.kept``), else that of a new objective at p,
    made on first read: an unread step holds nothing obj has built."""
    x = rep.x
    base = {"newton_residuals": list(rep.residuals)}
    if diagnostics is not None:
        base.update(diagnostics(obj, x, rep))
    cert = obj.kept("certify", x) if isinstance(obj, loops.Packed) else None
    if cert is not None:
        return PathStep(p, x, lambda: cert, base)
    return PathStep(p, x, functools.partial(make_objective(p).certify, x), base)


def frozen_step_diagnostics(objective, x, rep):
    """Per-step diagnostics for the one-loop family: identity residuals,
    spectral data, the C0 bounds, and the collision-ODE residuals of the
    orbit, sups over the default uniform tau-grid of
    ``levi_civita.loop_residual`` (no time map inverted).  The objective
    keeps the certificate made here, which the step's ``cert`` reads."""
    cert = objective.certify(x)
    h = objective.hessian(x)
    srep = spectrum_report(h)
    qres = levi_civita.loop_residual(cert.z, cert.r)
    bounds = frozen.sup_bounds(cert.z, cert.r)
    return {
        "vw_res": cert.identity_res,
        "energy_dev": cert.energy_dev,
        "ode_res": qres["ode_res"],
        "beta_mu_res": qres["beta_mu_res"],
        "morse_index": srep.morse_index,
        "nullity": srep.nullity,
        "min_abs_eig": srep.min_abs,
        "sup_upper_ok": bounds["upper_ok"],
        "sup": bounds["sup"],
        "bounded_quantities": {
            "r_w_sq": cert.r * cert.w**2,
            "a_sup_sq_plus_b": cert.coeffs.a * bounds["sup"] ** 2 + cert.coeffs.b,
        },
    }


def solve_frozen(r, n_modes=DEFAULT_MODES):
    """The one-loop critical point at r, certified at ``n_modes`` modes.

    Continuation from the free fall, through rho when r > rho, at the
    default Newton tolerance, on a working grid of n_w = min(N,
    ``WORK_MODES``) modes: the solutions are resolved far below N (at
    r = 5, |c_16| is 6e-16).  While the endpoint's last quarter of
    coefficients sums to more than ``TAIL_FRACTION`` of their l1 norm, n_w
    doubles (up to N) and Newton re-solves the zero-padded point there.
    Where that Newton fails (past r ~ 1e6 the loop concentrates, and the
    coarse point is too far from the resolved one), the continuation runs
    again from the free fall on the doubled grid, and its endpoint and
    steps replace the coarse ones.
    Then the point is zero-padded to N, one full Newton step is taken
    there unconditionally (a padded point is often already below the
    tolerance, and Newton at N would accept it with the working grid's
    residual) and Newton runs on to the tolerance.  The last step holds
    that point at N with the residuals of the N solve; the earlier steps
    stay at n_w modes, and each is certified only if its ``cert`` is read.
    r = 0 returns the analytic seed at N.
    """
    n = int(n_modes)
    seed = free_fall_seed(n)
    if r == 0.0:
        x0 = FrozenObjective(0.0, n).pack(seed)
        return ContinuationPath([PathStep(0.0, x0, lambda: frozen.certify(seed, 0.0))], [], [])
    n_w = min(n, WORK_MODES)
    path = _from_free_fall(r, n_w)
    z = FrozenObjective(r, n_w).unpack(path.last().x)
    while n_w < n and _tail_unresolved(z.coeffs):
        n_w = min(2 * n_w, n)
        obj = FrozenObjective(r, n_w)
        try:
            z = obj.unpack(newton(obj, obj.pack(z)).x)
        except (NonConvergenceError, SingularHessianError):
            path = _from_free_fall(r, n_w)
            z = obj.unpack(path.last().x)
    obj = FrozenObjective(r, n)
    x = obj.pack(z)
    g = obj.gradient(x)
    h = obj.hessian(x)
    _check_conditioned(h)
    rep = newton(obj, x + np.linalg.solve(h, -g))
    residuals = [float(np.linalg.norm(g))] + rep.residuals
    path.steps[-1] = PathStep(
        path.last().parameter,
        rep.x,
        functools.partial(obj.certify, rep.x),
        {"newton_residuals": residuals},
    )
    return path


def _from_free_fall(r, n):
    """The continuation from the free fall at 0 to r on n modes, through rho."""
    from .helium import RHO

    x0 = FrozenObjective(0.0, n).pack(free_fall_seed(n))
    return continuation(lambda p: FrozenObjective(p, n), 0.0, r, x0, through=(RHO,))


def _tail_unresolved(c):
    """Whether the last quarter of the coefficients c sums to more than
    ``TAIL_FRACTION`` of their l1 norm."""
    mags = np.abs(c)
    return float(np.sum(mags[mags.size - mags.size // 4 :])) > TAIL_FRACTION * float(np.sum(mags))
