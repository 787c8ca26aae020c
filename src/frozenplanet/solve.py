"""Newton solving, parameter continuation, spectra, and the signed count.

Objectives expose the value/gradient/Hessian of a functional in an
orthonormal Galerkin coordinate system; Newton works on those coordinates
with backtracking damping and an admissibility guard.  Continuation drives
a parameter with a zeroth-order predictor and an adaptive step (halve on
failure, double after three successes), recording a certificate and its
diagnostics at every accepted step.

Spectral reports count negative and near-null eigenvalues of the Galerkin
Hessian.  On the symmetry-reduced space a nondegenerate critical point has
nullity 0; the auxiliary full-loop-space mode re-embeds the point in the
unrestricted period-2 basis, where time-shift invariance forces a
one-dimensional kernel spanned by z'.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


class FrozenObjective:
    """The one-loop functional at fixed r, over odd-sine loops of N modes."""

    def __init__(self, r, n_modes=DEFAULT_MODES):
        if not 0.0 <= r < np.inf:
            raise DomainError(f"parameter r must be finite and >= 0, got {r}", tag="frozen.r")
        self.r = float(r)
        self.n = int(n_modes)
        self._sg = np.sqrt(loops.gram_diag(loops.ODD_SINE, self.n))

    def pack(self, z: loops.Loop):
        c = np.zeros(self.n)
        c[: min(z.n, self.n)] = z.coeffs[: self.n]
        return self._sg * c

    def unpack(self, x):
        return loops.from_coeffs(loops.ODD_SINE, x / self._sg)

    def admissible(self, x):
        return float(np.linalg.norm(x)) > 1e-6

    def value(self, x):
        return frozen.value(self.unpack(x), self.r)

    def gradient(self, x):
        gl = frozen.gradient(self.unpack(x), self.r)
        sg_out = np.sqrt(loops.gram_diag(gl.klass, gl.n))
        return (sg_out * gl.coeffs)[: self.n]

    def full_residual(self, x):
        return frozen.grad_res(self.unpack(x), self.r)

    def hessian(self, x):
        return frozen.hessian_analytic(self.unpack(x), self.r)

    def certify(self, x):
        return frozen.certify(self.unpack(x), self.r)


class FullLoopObjective(FrozenObjective):
    """The same functional over the unrestricted period-2 Fourier basis.

    Used only for the auxiliary checks: nullity 1 with kernel along z',
    and the Morse index of the orbit with the symmetry forgotten.
    """

    def __init__(self, r, n_modes=DEFAULT_MODES):
        super().__init__(r, 1)
        self.r = float(r)
        self.n_fourier = 2 * n_modes + 1
        self.n = self.n_fourier
        self._sg = np.sqrt(loops.gram_diag(loops.FULL, self.n_fourier))

    def unpack(self, x):
        return loops.from_coeffs(loops.FULL, x / self._sg)


def embed_cert_full(cert: frozen.CriticalPointCert, n_modes=None):
    """Embed an odd-sine certificate into the full period-2 basis."""
    zf = loops.embed_full(cert.z, n_modes)
    obj = FullLoopObjective(cert.r, n_modes=(zf.n - 1) // 2)
    return obj, obj.pack(zf)


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------


@dataclass
class NewtonReport:
    x: np.ndarray
    residuals: list
    iterations: int
    quadratic_ratios: list


def _check_conditioned(h):
    """Raise SingularHessianError unless the symmetric Hessian h is finite
    with 2-norm condition number at most 1e12, read from its eigenvalues."""
    if not np.all(np.isfinite(h)):
        raise SingularHessianError("Hessian has non-finite entries")
    mags = np.abs(np.linalg.eigvalsh(h))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = mags.max() / mags.min()
    if not cond <= 1e12:
        raise SingularHessianError(f"Hessian condition number {cond:.3e} exceeds 1e12")


def newton(objective, x0, tol=NEWTON_TOL, max_iter=30, jacobian="every"):
    """Damped Newton on the packed coordinates.

    Residuals are L2 norms of the projected gradient; the last-step
    ratios r_{k+1} / r_k^2 are reported so quadratic convergence can be
    asserted at nondegenerate points.  Steps that leave the admissible set
    (or fail to reduce the residual) are halved up to 12 times.  Each new
    Hessian is checked once: a non-finite one, or one with condition
    number above 1e12, raises SingularHessianError.

    jacobian='frozen' factors the Hessian once at the seed and reuses it
    (cheap quasi-Newton for objectives with expensive Hessians); it is
    refreshed automatically if the line search stalls.
    """
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
    ratios = [
        res_hist[k + 1] / res_hist[k] ** 2
        for k in range(len(res_hist) - 1)
        if res_hist[k] > 1e-13
    ]
    return NewtonReport(x, res_hist, it, ratios)


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def free_fall_seed(n_modes=DEFAULT_MODES) -> frozen.CriticalPointCert:
    """The explicit critical point at r = 0: A sin(pi tau), A = (2/pi)^{1/3}.

    Pure fundamental mode, a = 0, b = pi^2, so the gradient vanishes to
    rounding and the certificate is analytic rather than solved.
    """
    if n_modes < 4:
        raise DomainError("need at least 4 modes", tag="solve.modes")
    amp = (2.0 / np.pi) ** (1.0 / 3.0)
    coeffs = np.zeros(n_modes)
    coeffs[0] = amp
    z = loops.from_coeffs(loops.ODD_SINE, coeffs)
    return frozen.certify(z, 0.0)


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
    null_tol: float
    kernel_alignment: float | None = None

    @property
    def nondegenerate(self):
        return self.nullity == 0


def spectrum_report(h, null_tol=None, rho=None, align_with=None):
    """Morse data of a symmetric matrix, plus the cutoff spectral count."""
    h = 0.5 * (h + h.T)
    evals, evecs = np.linalg.eigh(h)
    radius = float(np.max(np.abs(evals))) if evals.size else 1.0
    if null_tol is None:
        null_tol = 1e-6 * radius
    null_mask = np.abs(evals) < null_tol
    nullity = int(np.sum(null_mask))
    morse = int(np.sum(evals < -null_tol))
    rho = rho or detline.CutoffRho()
    mu = detline.mu(evals[~null_mask], rho)
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
        null_tol=float(null_tol),
        kernel_alignment=alignment,
    )


def spectrum(cert: frozen.CriticalPointCert, null_tol=None, space="symmetric"):
    """Spectral report of a certificate's Hessian.

    space='symmetric' uses the odd-sine Galerkin space (expected nullity
    0); space='full' re-embeds into the unrestricted period-2 basis, where
    the kernel is one-dimensional and aligned with z'.
    """
    if space == "symmetric":
        h = frozen.hessian_analytic(cert.z, cert.r)
        return spectrum_report(h, null_tol)
    if space != "full":
        raise DomainError("space must be 'symmetric' or 'full'", tag="solve.space")
    obj, x = embed_cert_full(cert)
    h = obj.hessian(x)
    zf = obj.unpack(x)
    d1 = loops.derivative(zf)
    dcoef = np.zeros(obj.n)
    dcoef[: d1.n] = d1.coeffs[: obj.n]
    align = np.sqrt(loops.gram_diag(loops.FULL, obj.n)) * dcoef
    return spectrum_report(h, null_tol, align_with=align)


def euler_count(reports):
    """Signed count sum (-1)^index over nondegenerate critical points.

    The normalization is that of ``detline.sections``: a critical point
    whose Hessian is positive definite counts +1, since s = (-1)^i t.
    """
    total = 0
    for rep in reports:
        if rep.nullity > 0:
            raise DegeneratePointError(
                "Euler count undefined: a critical point has positive nullity"
            )
        total += (-1) ** rep.morse_index
    return total


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


@dataclass
class PathStep:
    parameter: float
    cert: object
    diagnostics: dict = field(default_factory=dict)


@dataclass
class ContinuationPath:
    steps: list
    step_history: list
    failures: list

    @property
    def parameters(self):
        return [s.parameter for s in self.steps]

    def last(self):
        return self.steps[-1]


def continuation(
    make_objective,
    p0,
    p1,
    x0,
    initial_step=None,
    min_step=1e-6,
    max_step=None,
    tol=NEWTON_TOL,
    diagnostics=None,
    through=(),
    newton_kwargs=None,
):
    """Track a critical point from parameter p0 to p1.

    ``make_objective(p)`` builds the objective at parameter p; ``x0`` must
    be (near-)critical at p0.  The previous solution seeds each Newton
    solve; the step halves on failure and doubles after three successes.
    Parameters listed in ``through`` are forced onto the grid.
    ``diagnostics(objective, x, report)`` may attach per-step data.
    """
    span = p1 - p0
    if not np.isfinite(span):
        raise DomainError(f"continuation range {p0}..{p1} must be finite", tag="solve.range")
    if span == 0.0:
        raise DomainError("empty continuation range", tag="solve.range")
    direction = 1.0 if span > 0 else -1.0
    step = abs(initial_step) if initial_step else abs(span) / 16.0
    max_step = max_step or abs(span) / 4.0
    waypoints = sorted({p for p in through if min(p0, p1) < p < max(p0, p1)})
    newton_kwargs = newton_kwargs or {}

    obj0 = make_objective(p0)
    rep0 = newton(obj0, x0, tol=tol, **newton_kwargs)
    steps = [PathStep(p0, obj0.certify(rep0.x), _diag(diagnostics, obj0, rep0))]
    step_history = []
    failures = []
    x = rep0.x
    p = p0
    successes = 0
    while direction * (p1 - p) > 1e-14:
        p_next = p + direction * step
        for wp in waypoints:
            if direction * (wp - p) > 1e-14 and direction * (p_next - wp) > -1e-14:
                p_next = wp
                break
        if direction * (p_next - p1) > 0:
            p_next = p1
        try:
            obj = make_objective(p_next)
            rep = newton(obj, x, tol=tol, **newton_kwargs)
        except (NonConvergenceError, SingularHessianError, DomainError) as exc:
            failures.append((p_next, type(exc).__name__))
            successes = 0
            step *= 0.5
            if step < min_step:
                raise ContinuationStuckError(
                    f"step underflow below {min_step:g} at parameter {p_next:.6g}",
                    partial=ContinuationPath(steps, step_history, failures),
                ) from exc
            continue
        x = rep.x
        p = p_next
        steps.append(PathStep(p, obj.certify(x), _diag(diagnostics, obj, rep)))
        step_history.append(step)
        successes += 1
        if successes >= 3:
            step = min(2.0 * step, max_step)
            successes = 0
    return ContinuationPath(steps, step_history, failures)


def _diag(diagnostics, obj, rep):
    base = {"newton_residuals": list(rep.residuals)}
    if diagnostics is not None:
        base.update(diagnostics(obj, rep.x, rep))
    return base


def frozen_step_diagnostics(objective, x, rep):
    """Per-step diagnostics for the one-loop family: identity residuals,
    collision-ODE residuals, spectral data, and the C0 bounds."""
    cert = objective.certify(x)
    h = objective.hessian(x)
    srep = spectrum_report(h)
    orbit = levi_civita.forward(cert.z, n_t=4096)
    qres = levi_civita.q_residual(orbit, cert.r)
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


def solve_frozen(r, n_modes=DEFAULT_MODES, through_rho=True, tol=NEWTON_TOL):
    """Continuation from the free fall to the requested parameter value."""
    from .helium import RHO

    seed = free_fall_seed(n_modes)
    obj0 = FrozenObjective(0.0, n_modes)
    x0 = obj0.pack(seed.z)
    if r == 0.0:
        return ContinuationPath([PathStep(0.0, seed, {})], [], [])
    through = (RHO,) if (through_rho and r > RHO) else ()
    return continuation(
        lambda p: FrozenObjective(p, n_modes), 0.0, r, x0, tol=tol, through=through
    )
