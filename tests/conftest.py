"""Shared fixtures: solved continuation paths reused across test modules."""

import time

import numpy as np
import pytest

from frozenplanet import frozen, helium, loops, solve

TIMINGS = {}


def _timed(key, fn):
    t0 = time.perf_counter()
    out = fn()
    TIMINGS[key] = time.perf_counter() - t0
    return out


def _split_constant_mode(h):
    """Split a packed pair Hessian at e0, the constant outer mode.

    Returns H00 = e0.H.e0 and the spectral report of the Schur complement
    S = H[1:, 1:] - H[1:, 0] H[0, 1:] / H00, the Hessian reduced to the
    directions transverse to constant outer loops.  Haynsworth inertia
    additivity gives index(H) = index(H00) + index(S).
    """
    h00 = float(h[0, 0])
    schur = h[1:, 1:] - np.outer(h[1:, 0], h[0, 1:]) / h00
    return h00, solve.spectrum_report(schur)


@pytest.fixture(scope="session")
def split_constant_mode():
    """The constant-outer-mode split of a packed pair Hessian."""
    return _split_constant_mode


def _frozen_fd_hessian(z, r, step=1e-6):
    """Central-difference Jacobian of ``frozen.gradient`` in the orthonormal
    class basis: the oracle for ``frozen.hessian_analytic``."""
    n = z.n
    sg = np.sqrt(loops.gram_diag(z.klass, n))
    h = np.empty((n, n))
    for k in range(n):
        dc = np.zeros(n)
        dc[k] = step / sg[k]  # unit orthonormal direction
        gp = frozen.gradient(loops.from_coeffs(z.klass, z.coeffs + dc), r)
        gm = frozen.gradient(loops.from_coeffs(z.klass, z.coeffs - dc), r)
        sg_out = np.sqrt(loops.gram_diag(z.klass, gp.n))
        diff = (sg_out * gp.coeffs - sg_out * gm.coeffs) / (2.0 * step)
        h[:, k] = diff[:n]
    return h


@pytest.fixture(scope="session")
def frozen_fd_hessian():
    """The central-difference one-loop Hessian, ``(z, r, step=1e-6) -> H``."""
    return _frozen_fd_hessian


@pytest.fixture(scope="session")
def timings():
    """Construction times of the shared heavy fixtures (for budget checks)."""
    return TIMINGS


@pytest.fixture(scope="session")
def seed64():
    """The certificate of the analytic free fall at N = 64."""
    return frozen.certify(solve.free_fall_seed(64), 0.0)


@pytest.fixture(scope="session")
def frozen_path():
    """Continuation of the one-loop family from 0 through rho to 5, N = 64."""

    def run():
        obj0 = solve.FrozenObjective(0.0, 64)
        return solve.continuation(
            lambda p: solve.FrozenObjective(p, 64),
            0.0,
            5.0,
            obj0.pack(solve.free_fall_seed(64)),
            diagnostics=solve.frozen_step_diagnostics,
            through=(helium.RHO,),
        )

    return _timed("frozen_path", run)


@pytest.fixture(scope="session")
def cert_rho(frozen_path):
    """The certified critical point at r = rho from the shared path."""
    for step in frozen_path.steps:
        if abs(step.parameter - helium.RHO) < 1e-12:
            return step.cert
    raise AssertionError("rho waypoint missing from the continuation path")


@pytest.fixture(scope="session")
def mean_pair(cert_rho):
    """The mean-interaction critical pair, re-solved in pair coordinates."""

    def run():
        obj = helium.PairObjective(0.0, n1=12, n2=32)
        pair0 = helium.bridge_pair(
            loops.from_coeffs(loops.ODD_SINE, cert_rho.z.coeffs[:32]), n1=12
        )
        x0 = obj.pack(pair0)
        rng = np.random.default_rng(3)
        x0 = x0 + 1e-4 * rng.normal(size=x0.size)
        rep = solve.newton(obj, x0, tol=1e-10)
        return obj, rep.x

    return _timed("mean_pair", run)


def _homotopy_diagnostics(obj, x, rep):
    """The per-step diagnostics of the pair homotopy: spectrum, the split at
    the constant outer mode, the Garding bound, and a directional central
    difference of the value at x +- h xi against the gradient at x."""
    pair = obj.unpack(x)
    h = obj.hessian(x)
    srep = solve.spectrum_report(h)
    h00, schur = _split_constant_mode(h)
    hb = helium.hessian_bound(h, pair, obj.n1, obj.n2)
    rng = np.random.default_rng(11)
    xi = rng.normal(size=obj.n)
    xi /= np.linalg.norm(xi)
    hstep = 1e-5
    fd = (obj.value(x + hstep * xi) - obj.value(x - hstep * xi)) / (2 * hstep)
    ip = float(obj.gradient(x) @ xi)
    return {
        "morse_index": srep.morse_index,
        "nullity": srep.nullity,
        "min_abs_eig": srep.min_abs,
        "h00": h00,
        "schur_index": schur.morse_index,
        "schur_nullity": schur.nullity,
        "bound_ok": hb["ok"],
        "R_bound": hb["R_bound"],
        "min_hess_eig": hb["min_eig"],
        "grad_fd_rel": abs(fd - ip) / max(1.0, abs(fd)),
    }


def _homotopy(cert_rho, n1, n2, diagnostics=_homotopy_diagnostics):
    """The mean -> instantaneous pair continuation at (n1, n2) from the
    bridge pair of the rho certificate."""
    z32 = loops.from_coeffs(loops.ODD_SINE, cert_rho.z.coeffs[:32])
    x0 = helium.PairObjective(0.0, n1, n2).pack(helium.bridge_pair(z32, n1=n1))
    return solve.continuation(
        lambda s: helium.PairObjective(s, n1, n2),
        0.0,
        1.0,
        x0,
        tol=1e-9,
        diagnostics=diagnostics,
        newton_kwargs={"jacobian": "frozen"},
    )


@pytest.fixture(scope="session")
def homotopy():
    """``(cert_rho, n1, n2, diagnostics=...) -> path``, the pair homotopy
    with the per-step diagnostics of ``homotopy_path`` unless others (or
    None) are given."""
    return _homotopy


@pytest.fixture(scope="session")
def homotopy_path(cert_rho):
    """Pair continuation from the mean to the instantaneous interaction."""
    return _timed("homotopy_path", lambda: _homotopy(cert_rho, 16, 32))
