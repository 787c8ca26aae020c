"""Symmetry-adapted spectral representation of real loops on R/2Z.

A loop is stored as coefficients in one of three trigonometric bases:

* ``odd-sine``    sin((2k-1)*pi*tau), k >= 1.  Enforces the symmetries
  -z(1+tau) = z(tau) = z(1-tau) exactly (antiperiodic, even about 1/2).
* ``even-cosine`` cos(2k*pi*tau), k >= 0.  Enforces z(1+tau) = z(tau) = z(1-tau)
  (1-periodic and even).
* ``full``        c0 + sum_k a_k cos(k*pi*tau) + b_k sin(k*pi*tau).  Only
  2-periodicity.

All inner products are the half-period L2 pairing <u, v> = (1/2) int_0^2 u v,
which reduces to int_0^1 u v on both symmetric classes.  Nonlinear products
(squares, cubes, quartics) are formed on a dealiased uniform grid and
re-analyzed, so norms of z^2 and Galerkin projections of z^3 are exact for
band-limited loops.

Every basis function is cos or sin(pi f tau) with f an integer frequency.
The private table ``_layout(klass, n) -> (f, sine)`` and its inverse
``_slot`` hold that rule for all three classes; calculus is termwise on it
(z' swaps cos and sin with weights -pi f and +pi f), and ``_trig``
evaluates the cos or sin rows off the grid by angle addition down the
frequency table, one complex multiply per entry, with an error that grows
linearly in the row count.

A ``Loop`` is its class and coefficients only; samples are synthesized
when a computation asks for them.  On the uniform grid tau_i = 2i/M each
basis function is cos or sin(2 pi f i / M), so synthesis onto the grid
(``Loop.quad_samples``, the scan in ``sup_norm``) is one inverse FFT of
length M and ``project`` (hence ``analyze`` and ``cube``) reads its
coefficients from one forward FFT; frequencies above M/2 fold into their
aliased bins.  The dense table ``basis_matrix`` evaluates loops at
arbitrary points (``synthesize``, ``Loop.__call__``) and serves as the
reference the FFT paths are tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ClassMismatchError, DomainError

ODD_SINE = "odd-sine"
EVEN_COSINE = "even-cosine"
FULL = "full"

CLASSES = (ODD_SINE, EVEN_COSINE, FULL)

#: oversampling factor for dealiased products: a grid of 16*N points on [0,2)
#: integrates quartics exactly and resolves cubes at full resolution.
QUAD_FACTOR = 16

#: tolerance for symmetry checks in analyze()
SYMMETRY_TOL = 1e-8

def _validate_class(klass):
    if klass not in CLASSES:
        raise DomainError(f"unknown symmetry class {klass!r}", tag="loops.class")


@functools.cache
def _layout(klass, n_coeffs):
    """The frequency table of a class: coefficient k multiplies cos or
    sin(pi f[k] tau), a sine where ``sine[k]``.  Cached (it is read on
    every synthesis and projection), so both arrays are read-only."""
    j = np.arange(n_coeffs)
    if klass == ODD_SINE:
        f, sine = 2 * j + 1, np.ones(n_coeffs, dtype=bool)
    elif klass == EVEN_COSINE:
        f, sine = 2 * j, np.zeros(n_coeffs, dtype=bool)
    else:
        # full layout: [c0, a1, b1, a2, b2, ...]
        f, sine = (j + 1) // 2, (j > 0) & (j % 2 == 0)
    f.setflags(write=False)
    sine.setflags(write=False)
    return f, sine


def _slot(klass, f, sine):
    """Inverse of ``_layout``: the coefficient index of cos or sin(pi f tau)."""
    if klass != FULL:
        return f // 2
    return np.where(f > 0, 2 * f - 1 + sine, 0)


def _trig(f, sine, taus):
    """Rows cos(pi f[k] tau), or sin where ``sine[k]``, at the points ``taus``
    (flattened), for a non-decreasing frequency table f.

    By angle addition, e^{i pi f_k tau} = e^{i pi f_{k-1} tau} e^{i pi d tau}
    with d = f_k - f_{k-1}: one complex exponential per point for the first
    row and one per distinct step d (a single step in every layout), then
    one complex multiply per entry.  Row k is the real or imaginary part of
    the running product; its error grows linearly in k, to about
    2.5e-16 (1 + k + pi f_k |tau|) against a direct cos or sin.
    """
    phase = np.pi * np.ravel(np.asarray(taus, dtype=float))
    out = np.empty((len(f), phase.size))
    if not len(f):
        return out
    f = f.tolist()
    cur = np.exp(1j * f[0] * phase)
    parts = cur.view(float)  # interleaved real and imaginary parts
    re, im = parts[0::2], parts[1::2]
    steps = {}
    prev = f[0]
    for k, s in enumerate(sine.tolist()):
        d = f[k] - prev
        if d:
            if d not in steps:
                steps[d] = np.exp(1j * d * phase)
            cur *= steps[d]
            prev = f[k]
        out[k] = im if s else re
    return out


def mode_count(klass, n_coeffs):
    """Highest frequency (in units of pi) present in a coefficient vector."""
    return int(_layout(klass, n_coeffs)[0][-1])


def frequencies(klass, n_coeffs):
    """Angular frequencies omega_k (z_k'' = -omega_k^2 z_k) per coefficient."""
    return np.pi * _layout(klass, n_coeffs)[0]


def gram_diag(klass, n_coeffs):
    """Diagonal of the Gram matrix <e_j, e_k> of the raw basis."""
    return np.where(_layout(klass, n_coeffs)[0] == 0, 1.0, 0.5)


def basis_matrix(klass, n_coeffs, taus):
    """Matrix B[k, i] = e_k(taus[i]) of raw basis functions."""
    return _trig(*_layout(klass, n_coeffs), np.asarray(taus, dtype=float))


def synthesize(klass, coeffs, taus):
    """Evaluate the loop with the given coefficients at points ``taus``."""
    coeffs = np.asarray(coeffs, dtype=float)
    return basis_matrix(klass, coeffs.size, taus).T @ coeffs


def _synthesize_uniform(klass, coeffs, m):
    """``synthesize(klass, coeffs, grid_points(m))`` by one inverse FFT."""
    coeffs = np.asarray(coeffs, dtype=float)
    f, sine = _layout(klass, coeffs.size)
    # cos(2 pi f i/m) = Re e^{2 pi i f i/m} and sin(...) = Re(-1j e^{...});
    # add.at sums coefficients that alias into one bin
    spec = np.zeros(m, dtype=complex)
    np.add.at(spec, f % m, np.where(sine, -1j, 1.0) * coeffs)
    return m * np.fft.ifft(spec).real


def grid_points(m):
    """Uniform grid of m points on [0, 2)."""
    return 2.0 * np.arange(m) / m


@dataclass(frozen=True)
class Loop:
    """A loop on R/2Z in a symmetry class.

    ``coeffs`` are the real, finite coefficients in the class basis.
    """

    klass: str
    coeffs: np.ndarray
    symmetry_note: str | None = None

    def __post_init__(self):
        _validate_class(self.klass)
        # a private copy, so freezing it leaves the caller's array writable
        coeffs = np.array(self.coeffs, dtype=float, ndmin=1)
        if coeffs.size < 1:
            raise DomainError("loop needs at least one coefficient", tag="loops.size")
        if not np.all(np.isfinite(coeffs)):
            raise DomainError("loop coefficients must be finite", tag="loops.coeffs")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def n_active_modes(self):
        return _active_modes(self.klass, self.coeffs.size)

    @property
    def n(self):
        return self.coeffs.size

    def __call__(self, taus):
        return synthesize(self.klass, self.coeffs, taus)

    def quad_samples(self, factor=QUAD_FACTOR):
        """Samples on the internal dealiased grid (cached per loop)."""
        p = quad_size(self.n_active_modes(), factor)
        key = ("quad", p)
        cache = _loop_cache(self)
        if key not in cache:
            cache[key] = _synthesize_uniform(self.klass, self.coeffs, p)
        return cache[key]

    def with_coeffs(self, coeffs):
        return from_coeffs(self.klass, coeffs)


def _loop_cache(z: Loop) -> dict:
    cache = getattr(z, "_cache", None)
    if cache is None:
        object.__setattr__(z, "_cache", {})
        cache = z._cache
    return cache


def quad_size(n_modes, factor=QUAD_FACTOR):
    p = factor * max(int(n_modes), 4)
    return p + (-p) % 4


def _active_modes(klass, n_coeffs):
    """The mode count that sizes grids: the coefficient count of a symmetric
    class, the top frequency of a full loop (at least 1)."""
    return max(1, mode_count(FULL, n_coeffs)) if klass == FULL else n_coeffs


def from_coeffs(klass, coeffs):
    """Build a Loop from basis coefficients."""
    return Loop(klass, coeffs)


def _symmetry_residual(klass, samples):
    m = samples.size
    half = m // 2
    quarter = m // 4
    if klass == ODD_SINE:
        anti = samples[:half] + samples[half:]
        refl = samples[1:quarter] - samples[half - 1 : quarter:-1]
        return max(np.max(np.abs(anti)), np.max(np.abs(refl)) if refl.size else 0.0)
    if klass == EVEN_COSINE:
        per = samples[:half] - samples[half:]
        refl = samples[1:half] - samples[-1 : half:-1]
        return max(np.max(np.abs(per)), np.max(np.abs(refl)) if refl.size else 0.0)
    return 0.0


def analyze(samples, klass, tol=SYMMETRY_TOL):
    """Project M uniform samples on [0, 2) onto the class basis.

    Raises ClassMismatchError when the samples violate the class symmetry
    beyond ``tol``.  For band-limited input the synthesis reproduces the
    samples to ~1e-13.
    """
    _validate_class(klass)
    samples = np.asarray(samples, dtype=float)
    m = samples.size
    if m % 4 != 0:
        raise DomainError("sample count must be a multiple of 4", tag="loops.grid")
    scale = max(1.0, float(np.max(np.abs(samples))))
    res = _symmetry_residual(klass, samples)
    if res > tol * scale:
        raise ClassMismatchError(
            f"samples violate {klass} symmetry: residual {res:.3e} "
            f"exceeds tolerance {tol:.1e} (scale {scale:.3g})"
        )
    n = m // 4 if klass != FULL else m // 2 - 1
    return Loop(klass, project(klass, samples, n, p=m))


def norm_data(z: Loop):
    """The squared norms (||z||^2, ||z'||^2, ||z^2||^2), cached per loop.

    The first two are coefficient sums; ||z^2||^2 is the mean of z^4 on the
    dealiased grid, exact for band-limited loops.  A zero loop yields
    ||z||^2 = 0; callers that divide by it reject it themselves.
    """
    cache = _loop_cache(z)
    if "norm_data" not in cache:
        g = gram_diag(z.klass, z.n)
        w = frequencies(z.klass, z.n)
        cache["norm_data"] = (
            float(np.sum(g * z.coeffs**2)),
            float(np.sum(g * (w * z.coeffs) ** 2)),
            float(np.mean(z.quad_samples() ** 4)),
        )
    return cache["norm_data"]


def norms(z: Loop):
    """L2 data of a loop: ||z||, ||z'||, ||z^2||, and the sup norm ||z||_0.

    The first three are the square roots of ``norm_data``; the sup norm
    comes from ``sup_norm``.
    """
    l2_sq, d1_sq, sq_sq = norm_data(z)
    return {
        "l2": float(np.sqrt(l2_sq)),
        "l2_deriv": float(np.sqrt(d1_sq)),
        "l2_square": float(np.sqrt(sq_sq)),
        "sup": sup_norm(z),
    }


def sup_norm(z: Loop):
    """Max of |z|: the largest sample of a fine uniform scan, refined by
    Newton on z' = 0 in the two scan cells around it."""
    p = max(4 * quad_size(z.n_active_modes()), 512)
    vals = _synthesize_uniform(z.klass, z.coeffs, p)
    i = int(np.argmax(np.abs(vals)))
    h = 2.0 / p
    t0 = i * h
    f, dsine, d1 = _termwise_derivative(z.klass, z.coeffs)
    # oriented by the sign of z, z' decreases through the maximum of |z|
    orient = -np.sign(vals[i])
    d1, d2 = orient * d1, orient * second_derivative_coeffs(z)
    # z' and z'' take the other part (cos or sin) of the same rows: one
    # pass over the table with every frequency twice gives both
    f2, sine2 = np.repeat(f, 2), np.stack([dsine, ~dsine], axis=1).ravel()

    def slope(t, _):
        rows = _trig(f2, sine2, t)
        return d1 @ rows[0::2], d2 @ rows[1::2]

    t = _newton(slope, [t0 - h], [t0 + h], [t0], tol=1e-15, max_iter=8)
    return max(abs(float(vals[i])), abs(float(z(t)[0])))


def _newton(fn, lo, hi, x0, tol, max_iter, min_slope=0.0):
    """Safeguarded Newton for one root per bracket [lo[j], hi[j]], all
    points at once.

    ``fn(x, idx)`` returns (f, f') at the points x of the still-active
    indices idx, for an f that increases through its root.  Each
    evaluation shrinks the bracket to the side the root is on; a step that
    leaves the bracket, or a slope at or below ``min_slope``, is replaced
    by the bracket midpoint, and an exact root (f = 0) is kept as it is.
    A point stops once its step is below ``tol``, or after ``max_iter``
    evaluations.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.asarray(x0, dtype=float)
    out = x.copy()
    idx = np.arange(x.size)
    # lo, hi and x hold the still-active points only
    for _ in range(max_iter):
        if not idx.size:
            break
        fx, dfx = fn(x, idx)
        lo = np.where(fx <= 0.0, np.maximum(lo, x), lo)
        hi = np.where(fx > 0.0, np.minimum(hi, x), hi)
        mid = 0.5 * (lo + hi)
        ok = dfx > min_slope
        x_new = np.where(ok, x - fx / np.where(ok, dfx, 1.0), mid)
        x_new = np.where((x_new >= lo) & (x_new <= hi), x_new, mid)
        x_new = np.where(fx == 0.0, x, x_new)
        out[idx] = x_new
        moving = np.abs(x_new - x) >= tol
        idx, x, lo, hi = idx[moving], x_new[moving], lo[moving], hi[moving]
    return out


def _termwise_derivative(klass, coeffs):
    """Layout and coefficients of z' by termwise differentiation: cos(pi f tau)
    turns into -pi f sin(pi f tau) and sin into +pi f cos."""
    f, sine = _layout(klass, coeffs.size)
    w = np.pi * f
    return f, ~sine, np.where(sine, w, -w) * coeffs


def derivative_values(z: Loop, taus):
    """z'(taus), differentiated termwise in the class's own layout."""
    f, sine, d1 = _termwise_derivative(z.klass, z.coeffs)
    return d1 @ _trig(f, sine, np.asarray(taus, dtype=float))


#: residual symmetry of z' for the symmetric classes
_DERIVATIVE_NOTE = {ODD_SINE: "odd-cosine", EVEN_COSINE: "even-sine"}


def derivative(z: Loop) -> Loop:
    """Exact spectral derivative.

    The derivative of a symmetric-class loop leaves the class (sines map to
    cosines of the same frequencies), so it is returned as class ``full``
    with a note recording the residual symmetry.
    """
    f, sine, d1 = _termwise_derivative(z.klass, z.coeffs)
    coeffs = np.zeros(2 * int(f[-1]) + 1)
    coeffs[_slot(FULL, f, sine)] = d1
    return Loop(FULL, coeffs, symmetry_note=_DERIVATIVE_NOTE.get(z.klass))


def second_derivative_coeffs(z: Loop):
    """Coefficients of z'' in the same class basis."""
    w = frequencies(z.klass, z.n)
    return -(w**2) * z.coeffs


def project(klass, samples_fn_or_values, n_out, p=None):
    """Project sampled values onto ``n_out`` modes of a class basis.

    ``samples_fn_or_values`` is either an array of samples on the uniform
    [0, 2) grid of size p, or a callable evaluated there.  The discrete
    inner products with the basis are read from one FFT: Re F[f] for a
    cosine of frequency f, -Im F[f] for a sine.
    """
    if p is None:
        p = quad_size(n_out, factor=8)
    vals = (
        samples_fn_or_values(grid_points(p))
        if callable(samples_fn_or_values)
        else np.asarray(samples_fn_or_values, dtype=float)
    )
    if vals.shape != (p,):
        raise DomainError(
            f"projection needs {p} samples, got shape {vals.shape}", tag="loops.grid"
        )
    f, sine = _layout(klass, n_out)
    spec = np.fft.fft(vals)[f % p]
    return np.where(sine, -spec.imag, spec.real) / (p * gram_diag(klass, n_out))


def cube(z: Loop) -> Loop:
    """Pointwise cube, re-analyzed exactly in the class basis.

    Both symmetric classes are closed under the cube; the result carries
    triple the frequency content.
    """
    # the slot of the top frequency 3F of z^3, as its top sine for full loops
    n_coeffs = int(_slot(z.klass, 3 * mode_count(z.klass, z.n), True)) + 1
    p = quad_size(z.n_active_modes())
    vals = z.quad_samples() ** 3
    coeffs = project(z.klass, vals, n_coeffs, p=p)
    return from_coeffs(z.klass, coeffs)


def rescale_cover(z: Loop, n: int) -> Loop:
    """The covering rescaling tau -> n^{-1/3} z(n tau).

    Solutions of the critical-point equation map to solutions with
    coefficients (a, b) -> (n^{8/3} a, n^2 b).  The odd-sine class is
    preserved only for odd n.
    """
    if n < 1 or int(n) != n:
        raise DomainError("cover order must be a positive integer", tag="loops.cover")
    n = int(n)
    if n == 1:
        return z
    if z.klass == ODD_SINE and n % 2 == 0:
        raise ClassMismatchError("even cover order leaves the odd-sine class")
    f, sine = _layout(z.klass, z.n)
    slots = _slot(z.klass, n * f, sine)
    coeffs = np.zeros(slots[-1] + 1)
    coeffs[slots] = float(n) ** (-1.0 / 3.0) * z.coeffs
    return from_coeffs(z.klass, coeffs)


def embed_full(z: Loop, n_modes=None) -> Loop:
    """Embed a symmetric-class loop into the unrestricted period-2 basis."""
    if z.klass == FULL:
        return z
    max_freq = mode_count(z.klass, z.n)
    if n_modes is None:
        n_modes = max_freq
    if n_modes < max_freq:
        raise DomainError("embedding would truncate the loop", tag="loops.embed")
    coeffs = np.zeros(2 * n_modes + 1)
    coeffs[_slot(FULL, *_layout(z.klass, z.n))] = z.coeffs
    return from_coeffs(FULL, coeffs)


def loop_to_json(z: Loop):
    return {"class": z.klass, "coeffs": list(map(float, z.coeffs))}


def loop_from_json(data) -> Loop:
    return from_coeffs(data["class"], np.asarray(data["coeffs"], dtype=float))
