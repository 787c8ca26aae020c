"""Finite-dimensional determinant-line machinery for symmetric operators.

Three ingredients from the orientation story are realized at finite
truncation:

* the spectral count mu(T) = prod over nonzero eigenvalues of rho(lambda),
  where rho is a nondecreasing cutoff equal to the identity below a and to
  1 above b > a > 0 (``mu(spectrum, rho)``).  mu weights the
  tautological kernel section into a section s that stays continuous where
  kernel appears.  "Nonzero" is the package's one rule of singularity
  (``in_kernel``): a value is in the kernel when its magnitude times
  ``COND_LIMIT`` = 1e12 is at most the largest magnitude of its spectrum.
  Newton's condition check, the spectral reports and the stabilized-kernel
  tracking all read it;
* the sign relation s = (-1)^{i(T)} t on invertible operators, i(T) the
  number of negative eigenvalues (``sections``);
* a loop of symmetric operators with spectrum unbounded in both directions
  whose stabilized kernel bundle has holonomy -1 (non-orientable), built
  from two stages of one plane rotation (``_rotation``, ``bernd_unitary``)
  and tracked both numerically (SVD kernel, sign-aligned) and in closed form.

The complex sequence space of the counterexample is represented on its
real-coefficient invariant subspace (coordinates over the modes
e_n, |n| <= N): the loop's matrices have real entries there, the boundary
conditions that cut the kernel down to one real dimension hold identically
on that subspace, and the stabilized operators stay surjective at the loop
endpoints, which a blind (Re, Im)-doubling would break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, KernelTrackingError


#: the one bound of "singular": a value of magnitude at most 1/COND_LIMIT of
#: its spectrum's largest is in the kernel, so Newton refuses a Hessian of
#: 2-norm condition number COND_LIMIT or more
COND_LIMIT = 1e12


# ---------------------------------------------------------------------------
# cutoff and spectral count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffRho:
    """Nondecreasing cutoff: identity on (-inf, a], constant 1 on [b, inf).

    The bridge on [a, b] blends lambda toward 1 with a cubic smoothstep,
    which keeps rho monotone, <= 1, and C1.  Only these qualitative
    properties matter; different admissible choices give positively
    proportional section weights.
    """

    a: float = 0.5
    b: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise DomainError("cutoff needs 0 < a < b", tag="detline.cutoff")

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        u = np.clip((lam - self.a) / (self.b - self.a), 0.0, 1.0)
        s = u * u * (3.0 - 2.0 * u)
        out = lam + (1.0 - lam) * s
        return out if out.ndim else float(out)


def in_kernel(values):
    """The kernel mask of a finite spectrum (eigenvalues, or singular
    values): a value is in the kernel when its magnitude times
    ``COND_LIMIT`` is at most the largest magnitude, so every value of a
    zero spectrum is.  A symmetric matrix has no kernel value exactly when
    its 2-norm condition number is below ``COND_LIMIT``."""
    mags = np.abs(np.asarray(values, dtype=float))
    return mags * COND_LIMIT <= np.max(mags, initial=0.0)


def mu(spectrum, rho: CutoffRho | None = None):
    """Cutoff-weighted product over the nonzero part of a finite spectrum.

    Eigenvalues appear with multiplicity; the kernel (``in_kernel``) is
    excluded, and an empty product is 1.  A product beyond the float range
    is +-inf with the product's sign, without a warning.
    """
    rho = rho or CutoffRho()
    spec = np.asarray(spectrum, dtype=float)
    keep = ~in_kernel(spec)
    vals = rho(spec[keep])
    with np.errstate(over="ignore"):
        return float(np.prod(vals)) if np.any(keep) else 1.0


def sections(t_matrix, rho: CutoffRho | None = None):
    """Section data of a finite symmetric operator.

    For invertible T: the weighted-section sign sign(mu(T)), the
    tautological sign +1, the negative count i, and the verified relation
    s = (-1)^i t.  For singular T: the continuous weight mu(T) over the
    nonzero spectrum together with an orthonormal kernel basis.  The kernel
    holds the eigenvalues that ``in_kernel`` picks, so T is invertible here
    exactly when Newton's condition check passes it.
    """
    t_matrix = np.asarray(t_matrix, dtype=float)
    if np.max(np.abs(t_matrix - t_matrix.T)) > 1e-10 * max(
        1.0, float(np.max(np.abs(t_matrix)))
    ):
        raise DomainError("operator must be symmetric", tag="detline.symmetric")
    rho = rho or CutoffRho()
    evals, evecs = np.linalg.eigh(0.5 * (t_matrix + t_matrix.T))
    null_mask = in_kernel(evals)
    i_neg = int(np.sum(evals[~null_mask] < 0.0))
    weight = mu(evals, rho)
    if not np.any(null_mask):
        s_sign = 1 if weight > 0 else -1
        return {
            "invertible": True,
            "s_sign": s_sign,
            "i": i_neg,
            "mu": weight,
            "relation_ok": s_sign == (-1) ** i_neg,
        }
    return {
        "invertible": False,
        "mu": weight,
        "i": i_neg,
        "kernel": evecs[:, null_mask],
    }


def section_through_crossing(t_matrices, stabilizer, rho: CutoffRho | None = None):
    """Trivialized weighted-section values along a family with a crossing.

    ``stabilizer`` is a unit vector spanning the kernel at the crossing;
    each operator is stabilized to [T | Phi] and the section is expressed
    in the resulting rank-one kernel bundle, where its coordinates vary
    continuously through the crossing even though the kernel dimension
    jumps.  A member with a kernel (``in_kernel``) is expressed by the
    tautological wedge against the stabilizer.  Returns an array of section
    vectors (rows).
    """
    rho = rho or CutoffRho()
    phi = np.asarray(stabilizer, dtype=float)
    phi = phi / np.linalg.norm(phi)
    out = []
    w = None
    for t_matrix in t_matrices:
        t_matrix = np.asarray(t_matrix, dtype=float)
        n = t_matrix.shape[0]
        w = _kernel_line(np.hstack([t_matrix, phi[:, None]]), w)
        evals = np.linalg.eigvalsh(t_matrix)
        weight = mu(evals, rho)
        if np.any(in_kernel(evals)):
            coeff = -weight * float(w[:n] @ phi)
        else:
            coeff = weight / w[n]
        out.append(coeff * w)
    return np.array(out)


def _kernel_line(stabilized, ref):
    """The unit vector spanning the kernel of a stabilized operator
    [T | Phi] (its last right singular vector), signed to make a
    nonnegative product with ``ref`` when one is given.  KernelTrackingError
    when the kernel is more than a line: the least singular value of the
    wide matrix is in the kernel too (``in_kernel``)."""
    _, svals, vt = np.linalg.svd(stabilized)
    if in_kernel(svals)[-1]:
        raise KernelTrackingError("stabilized kernel dimension exceeded 1")
    w = vt[-1]
    return -w if ref is not None and float(w @ ref) < 0.0 else w


# ---------------------------------------------------------------------------
# the rotation path of the counterexample loop
# ---------------------------------------------------------------------------


def _mode_index(n, n_modes):
    return n + n_modes


def _rotation(n_modes, pairs, angle):
    """The rotation by ``angle`` in each plane (e_i, e_j) of the mode pairs
    (i, j), on modes |n| <= N: e_i -> cos e_i - sin e_j and
    e_j -> sin e_i + cos e_j; every other mode is fixed."""
    v = np.eye(2 * n_modes + 1)
    c, s = np.cos(angle), np.sin(angle)
    for i, j in pairs:
        i, j = _mode_index(i, n_modes), _mode_index(j, n_modes)
        v[i, i], v[j, j] = c, c
        v[j, i], v[i, j] = -s, s
    return v


def bernd_unitary(tau, n_modes):
    """The truncated unitary path U_tau, tau in [1, 2], on modes |n| <= N.

    U_tau = V_{2 - tau} where V is the concatenation of two rotation
    stages (``_rotation``): stage one rotates the pairs (e_{-n}, e_{n+1})
    for n >= 0, stage two the pairs (e_{-n}, e_n) for n >= 1 by the
    opposite angle.  U_2 is the identity and U_1 shifts e_n -> e_{n-1} on
    interior modes.  Rotation pairs that exit the mode window are frozen to
    the identity, so the matrix stays orthogonal; holonomy data downstream
    only uses interior modes.
    """
    if n_modes < 4:
        raise DomainError("need at least 4 modes", tag="detline.modes")
    if not 1.0 <= tau <= 2.0:
        raise DomainError("tau must lie in [1, 2]", tag="detline.tau")
    sigma = 2.0 - tau
    # (-N, N + 1) exits the window
    stage_one = [(-n, n + 1) for n in range(n_modes)]
    if sigma <= 0.5:
        return _rotation(n_modes, stage_one, np.pi * sigma)
    stage_two = _rotation(n_modes, [(-n, n) for n in range(1, n_modes + 1)], -np.pi * (sigma - 0.5))
    return stage_two @ _rotation(n_modes, stage_one, 0.5 * np.pi)


@dataclass(frozen=True)
class OperatorFamily:
    """The counterexample loop of stabilized symmetric operators.

    For tau in [0, 1] the operator is diagonal with eigenvalues
    pi (n - tau); for tau in [1, 2] it is the rotation conjugate
    U_tau^T diag(pi n) U_tau.  The stabilization column is
    G = a e_0 + b e_1, with a and b finite and not both zero.
    """

    n_modes: int = 8
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)) or self.a == self.b == 0.0:
            raise DomainError(
                "stabilizer needs finite a and b, not both zero", tag="detline.stabilizer"
            )

    def matrix(self, tau):
        n = self.n_modes
        modes = np.arange(-n, n + 1)
        if tau <= 1.0:
            return np.diag(np.pi * (modes - tau))
        u = bernd_unitary(tau, n)
        return u.T @ np.diag(np.pi * modes) @ u

    def stabilizer(self):
        g = np.zeros(2 * self.n_modes + 1)
        g[_mode_index(0, self.n_modes)] = self.a
        g[_mode_index(1, self.n_modes)] = self.b
        return g

    def stabilized(self, tau):
        return np.hstack([self.matrix(tau), self.stabilizer()[:, None]])


def closed_form_section(tau, family: OperatorFamily):
    """The explicit kernel section (f(tau), zeta(tau)) of the stabilized loop.

    On [0, 1]: f = a (tau - 1) e_0 + b tau e_1, zeta = pi tau (tau - 1).
    On [1, 2]: f is the positively scaled preimage U_tau^{-1} e_0 (which
    stays in the nonnegative span of e_0, e_1), zeta = 0, normalized to
    match b e_1 at tau = 1 and a e_0 at tau = 2.
    """
    n = family.n_modes
    dim = 2 * n + 1
    f = np.zeros(dim)
    if tau <= 1.0:
        f[_mode_index(0, n)] = family.a * (tau - 1.0)
        f[_mode_index(1, n)] = family.b * tau
        zeta = np.pi * tau * (tau - 1.0)
    else:
        u = bernd_unitary(tau, n)
        direction = u.T @ np.eye(dim)[:, _mode_index(0, n)]
        if tau <= 1.5:
            scale = family.b
        else:
            scale = family.b + (family.a - family.b) * (tau - 1.5) / 0.5
        f = scale * direction
        zeta = 0.0
    return f, zeta


def holonomy(family: OperatorFamily, n_steps=400):
    """Track the stabilized kernel line once around the loop.

    Returns the holonomy sign <section(2), section(0)> (expected -1: the
    bundle is non-orientable), the trace of tracked sections, and their
    worst alignment against the closed form.  The step count, at least 2
    (one step ends on its start line, which no alignment test can fail),
    refines until successive sections stay aligned above 0.99.
    """
    if n_steps < 2:
        raise DomainError("holonomy needs at least 2 steps", tag="detline.steps")
    # orient the start with the closed form, f(0) = -a e_0
    f0, z0 = closed_form_section(0.0, family)
    start = np.concatenate([f0, [z0]])
    for attempt in range(4):
        taus = np.linspace(0.0, 2.0, n_steps + 1)
        sectionvecs = []
        for tau in taus:
            w = _kernel_line(family.stabilized(tau), sectionvecs[-1] if sectionvecs else start)
            if sectionvecs and float(w @ sectionvecs[-1]) < 0.99:
                break
            sectionvecs.append(w)
        else:
            break
        n_steps *= 2
    else:
        raise KernelTrackingError("tracking failed to stabilize after refinement")

    sectionvecs = np.array(sectionvecs)
    sign = 1 if float(sectionvecs[-1] @ sectionvecs[0]) > 0 else -1
    alignments = []
    for tau, w in zip(taus, sectionvecs):
        f, zeta = closed_form_section(tau, family)
        ref = np.concatenate([f, [zeta]])
        nrm = np.linalg.norm(ref)
        if nrm > 1e-12:
            alignments.append(abs(float(w @ ref)) / nrm)
    return {
        "sign": sign,
        "taus": taus,
        "sections": sectionvecs,
        "min_alignment": float(np.min(alignments)),
    }
