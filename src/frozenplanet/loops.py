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
``_slot`` hold that rule for all three classes.  Calculus is termwise on
it by one rule (``_rule``): a derivative swaps cos and sin with weights
-pi f and +pi f, a primitive divides by them.  ``basis_matrix(klass, n,
taus, order)`` gives the rows e_k^(order) for order -1 (the primitive
from 0), 0, 1 and 2, and ``jets(z, taus, orders)`` the values z^(j)(taus);
both read cos and sin off the grid from ``_trig``, by angle addition down
the frequency table with an error that grows linearly in the row count
(directly at a few points).

A ``Loop`` is its class and coefficients only; what is derived from them
is computed when a computation asks for it and then cached on the loop:
the dealiased quad samples (``Loop.quad_samples``), the norm data
(``norm_data``), the square and the cube (``square``, ``cube``), the sup
norm (``sup_norm``) and the Levi-Civita time maps (the z^2 primitive and
tau tables of ``levi_civita``).

On the uniform grid tau_i = 2i/M each basis function is cos or
sin(2 pi f i / M), so synthesis onto the grid (``Loop.quad_samples``, on
M = ``quad_size`` points) is one real inverse FFT of length M and
``project(klass, vals, n)`` (hence ``analyze``, ``square`` and ``cube``)
reads its coefficients from one real forward FFT of the M = vals.size
samples, both on the half spectrum of bins 0..M/2; frequencies above M/2
fold into their aliased bins (``_half_spectrum``).  ``sup_norm`` and
``loop_zeros`` scan the quad samples and refine by Newton the extrema of z
that the scan can miss: maxima of |z| for the sup norm, and extrema of
the other sign beside a small sample, which hide two zeros, for the zeros.
The dense ``basis_matrix`` evaluates loops off the grid (``Loop.__call__``)
and is the reference for the FFT paths and the product rule.

A product e_j e_k of two basis functions is half a signed sum of two basis
functions of the square's layout, at |f_j - f_k| and f_j + f_k
(``_product_to_sum``).  ``_product_sums`` applies that one rule to a linear
functional on the products: the Galerkin matrix M[z^2] of ``frozen``, read
off the cached square, and the node sums of the product primitives of
``helium``.

The solvers work on packed coordinates x = sqrt(g) c, orthonormal in the
half-period pairing, one block per loop (``Packed``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ClassMismatchError, DegenerateLoopError, DomainError

ODD_SINE = "odd-sine"
EVEN_COSINE = "even-cosine"
FULL = "full"

CLASSES = (ODD_SINE, EVEN_COSINE, FULL)

#: oversampling factor for dealiased products: a grid of 16*N points on [0,2)
#: integrates quartics exactly and resolves cubes at full resolution.
QUAD_FACTOR = 16

#: tolerance for symmetry checks in analyze()
SYMMETRY_TOL = 1e-8

#: ``_trig`` evaluates cos or sin directly at up to this many points, where
#: that was as fast as angle addition or faster at 8 to 64 rows
DIRECT_POINTS = 32

#: how many builds a ``LastBuild`` keeps: a diagnostic that probes x + h xi
#: and x - h xi and then asks at x again finds x still built
LAST_BUILDS = 3


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
    2.5e-16 (1 + k + pi f_k |tau|) against a direct cos or sin.  At up to
    ``DIRECT_POINTS`` points the rows are that direct cos and sin: the walk
    costs a few microseconds a row whatever the point count.
    """
    phase = np.pi * np.ravel(np.asarray(taus, dtype=float))
    if phase.size <= DIRECT_POINTS:
        arg = np.outer(f, phase)
        out = np.empty(arg.shape)
        out[sine] = np.sin(arg[sine])
        out[~sine] = np.cos(arg[~sine])
        return out
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


@functools.cache
def frequencies(klass, n_coeffs):
    """Angular frequencies omega_k (z_k'' = -omega_k^2 z_k), cached read-only."""
    return read_only(np.pi * _layout(klass, n_coeffs)[0])


@functools.cache
def gram_diag(klass, n_coeffs):
    """Diagonal of the Gram matrix <e_j, e_k> of the raw basis, cached
    read-only like ``_layout``."""
    return read_only(np.where(_layout(klass, n_coeffs)[0] == 0, 1.0, 0.5))


@functools.cache
def _rule(klass, n_coeffs, orders):
    """The termwise calculus rule for each order j in ``orders`` (-1 is the
    primitive from 0), cached read-only like ``_layout``: e_k^(j)(tau) is
    the sum over the rows r of frequency f[k] of w[j, r] (cos, or sin where
    ``sine[r]``, of pi f[r] tau) + c[j, r].  A derivative takes cos to
    -pi f sin and sin to +pi f cos; the primitive takes cos to sin/(pi f),
    sin to (1 - cos)/(pi f) and the constant (f = 0) to tau.  Orders of
    both parities share rows holding every frequency as cos and as sin,
    and an order's weights vanish on the other parity's rows."""
    if not set(orders) <= {-1, 0, 1, 2}:
        raise DomainError(f"calculus orders must be -1, 0, 1 or 2, got {orders}", tag="loops.order")
    parities = sorted({j % 2 for j in orders})
    f, sine = (np.repeat(arr, len(parities)) for arr in _layout(klass, n_coeffs))
    odd = np.tile(parities, n_coeffs) == 1  # the rows that odd orders read
    pf = np.pi * f
    inv = np.divide(1.0, pf, out=np.zeros(f.size), where=f > 0)
    by_order = {-1: np.where(sine, -inv, inv), 0: 1.0, 1: np.where(sine, pf, -pf), 2: -(pf**2)}
    w = np.array([np.where(odd == (j % 2 == 1), by_order[j], 0.0) for j in orders])
    c = np.array([np.where(sine & odd & (j == -1), inv, 0.0) for j in orders])
    sine = sine ^ odd
    for arr in (f, sine, w, c):
        arr.setflags(write=False)
    return f, sine, w, c


def basis_matrix(klass, n_coeffs, taus, order=0):
    """Matrix B[k, i] = e_k^(order)(taus[i]) of raw basis functions (order 0),
    their derivatives (1, 2) or their primitives from 0 (-1)."""
    f, sine, w, c = _rule(klass, n_coeffs, (order,))
    taus = np.ravel(np.asarray(taus, dtype=float))
    rows = _trig(f, sine, taus)
    if order:
        rows *= w[0][:, None]
    if order == -1:
        rows += c[0][:, None]
        rows[f == 0] = taus
    return rows


def jets(z: Loop, taus, orders):
    """The rows z^(j)(taus) for j in ``orders`` (each -1, 0, 1 or 2), from
    one ``_trig`` pass, with the weights of ``basis_matrix(j)`` folded into
    the coefficients rather than the rows."""
    orders = tuple(orders)
    taus = np.ravel(np.asarray(taus, dtype=float))
    f, sine, w, c = _rule(z.klass, z.n, orders)
    a = np.repeat(z.coeffs, f.size // z.n)
    out = (w * a) @ _trig(f, sine, taus) + (c @ a)[:, None]
    if -1 in orders and f[0] == 0:  # the primitive of the constant is tau
        out[orders.index(-1)] += z.coeffs[0] * taus
    return out


@functools.cache
def _half_spectrum(klass, n_coeffs, m):
    """Where each coefficient sits in the half spectrum of a real loop
    sampled on ``grid_points(m)``, cached read-only like ``_layout``.

    cos(2 pi f i/m) is Re e^{2 pi i f i/m} and sin(...) is Re(-1j e^{...}),
    so coefficient k adds c_k, or -1j c_k for a sine, to bin b = f mod m
    of the full spectrum.  A real transform keeps the bins 0..m//2; bin
    b > m/2 is the conjugate of bin m - b, so there a sine adds +1j c_k.
    In the interleaved (real, imaginary) parts of the half spectrum,
    coefficient k is entry ``slot[k]`` = 2 b' + sine with sign
    ``sign[k]``, -1 for an unfolded sine and +1 otherwise; the projection
    reads its coefficient off the same entry with the same sign.  Returns
    (slot, to_half, from_half): ``to_half`` scales coefficients to the
    entries that ``irfft`` inverts to the samples (m, halved on interior
    bins, which it counts twice), and ``from_half`` scales the entries of
    ``rfft`` back to coefficients (1/(m g_k)).
    """
    f, sine = _layout(klass, n_coeffs)
    b = f % m
    folded = 2 * b > m
    b = np.where(folded, m - b, b)
    slot = 2 * b + sine
    sign = np.where(sine & ~folded, -1.0, 1.0)
    interior = (b > 0) & (2 * b < m)
    to_half = np.where(interior, 0.5 * m, m) * sign
    from_half = sign / (m * gram_diag(klass, n_coeffs))
    return read_only(slot), read_only(to_half), read_only(from_half)


def _synthesize_uniform(klass, coeffs, m):
    """The loop's values on ``grid_points(m)`` by one real inverse FFT of
    the half spectrum (``_half_spectrum``); ``bincount`` sums the
    coefficients that alias into one bin."""
    coeffs = np.asarray(coeffs, dtype=float)
    slot, to_half, _ = _half_spectrum(klass, coeffs.size, m)
    half = np.bincount(slot, weights=to_half * coeffs, minlength=2 * (m // 2 + 1))
    return np.fft.irfft(half.view(complex), m)


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
        """The mode count that sizes grids: the coefficient count of a
        symmetric class, the top frequency of a full loop (at least 1)."""
        return max(1, mode_count(FULL, self.n)) if self.klass == FULL else self.n

    @property
    def n(self):
        return self.coeffs.size

    def __call__(self, taus):
        return basis_matrix(self.klass, self.n, taus).T @ self.coeffs

    def quad_samples(self):
        """Samples on the internal dealiased grid (cached per loop)."""
        p = quad_size(self.n_active_modes())
        key = ("quad", p)
        cache = _loop_cache(self)
        if key not in cache:
            cache[key] = _synthesize_uniform(self.klass, self.coeffs, p)
        return cache[key]


def _loop_cache(obj) -> dict:
    """The cache dict of a frozen object, a loop or an orbit."""
    cache = getattr(obj, "_cache", None)
    if cache is None:
        object.__setattr__(obj, "_cache", {})
        cache = obj._cache
    return cache


class LastBuild:
    """The values ``build(x)`` at the last ``LAST_BUILDS`` coefficient arrays
    x, keyed by their bytes, so that calls at one x share one loop and what
    is cached on it.  A hit makes its x the newest; a new x pushes out the
    oldest.  A failed build caches nothing for its x."""

    def __init__(self):
        self.values = {}  # key -> value, oldest first

    def __call__(self, x, build):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        values = self.values
        if key in values:
            values[key] = values.pop(key)
        else:
            values[key] = build(x)
            if len(values) > LAST_BUILDS:
                del values[next(iter(values))]
        return values[key]

    def get(self, x):
        """The value kept for x, or None; x does not become the newest."""
        return self.values.get(np.asarray(x, dtype=float).tobytes())


class Packed:
    """Loops in packed orthonormal coordinates x = sqrt(g) c, one block of x
    per loop, as ``layout``, a tuple of (class, size) blocks.  The point at
    x, and each form of it that ``_kept`` is asked for, are kept for the
    last few x (``LastBuild``).  A subclass splits its point into loops
    (``_parts``) and joins them (``_join``)."""

    def __init__(self, layout):
        self.layout = tuple(layout)
        self.n = sum(n for _, n in self.layout)
        self._sg = np.concatenate([np.sqrt(gram_diag(k, n)) for k, n in self.layout])
        self._last = LastBuild()
        self._forms = {}  # name -> LastBuild of that form

    def pack(self, point):
        return self._packed(*self._parts(point))

    def unpack(self, x):
        """The point at x, kept for the last few x, so that calls at one x
        share what is cached on its loops."""
        return self._last(x, self._build)

    def _build(self, x):
        c, start, parts = x / self._sg, 0, []
        for klass, n in self.layout:
            parts.append(from_coeffs(klass, c[start : start + n]))
            start += n
        return self._join(parts)

    def _packed(self, *zs):
        """Loops of the blocks' classes, one per block (a point's, or a
        gradient's), in packed coordinates, each truncated or zero-padded to
        its block."""
        blocks = [np.zeros(n) for _, n in self.layout]
        for c, z in zip(blocks, zs):
            c[: z.n] = z.coeffs[: c.size]
        return self._sg * np.concatenate(blocks)

    def _kept(self, name, x, form):
        """form(point at x), kept for the last few x like the point."""
        if name not in self._forms:
            self._forms[name] = LastBuild()
        return self._forms[name](x, lambda x: form(self.unpack(x)))

    def kept(self, name, x):
        """The form ``name`` kept for x, or None when none is."""
        last = self._forms.get(name)
        return None if last is None else last.get(x)


def read_only(a):
    """The array a, made read-only in place, as a cache hands it out."""
    a.setflags(write=False)
    return a


def quad_size(n_modes):
    """The size of the dealiased quad grid of a loop with ``n_modes`` active
    modes, a multiple of 4 as ``analyze`` needs."""
    return QUAD_FACTOR * max(int(n_modes), 4)


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
    return Loop(klass, project(klass, samples, n))


def norm_data(z: Loop):
    """The squared norms (||z||^2, ||z'||^2, ||z^2||^2), cached per loop.

    The first two are coefficient sums; ||z^2||^2 is the mean of z^4 on the
    dealiased grid, exact for band-limited loops, formed as (z z)(z z):
    numpy's ``**`` with exponent 4 calls libm ``pow``, which takes a slow
    path on every negative sample.  A zero loop yields
    ||z||^2 = 0; callers that divide by it reject it themselves.
    """
    cache = _loop_cache(z)
    if "norm_data" not in cache:
        g = gram_diag(z.klass, z.n)
        w = frequencies(z.klass, z.n)
        v = z.quad_samples()
        v2 = v * v
        cache["norm_data"] = (
            float(np.sum(g * z.coeffs**2)),
            float(np.sum(g * (w * z.coeffs) ** 2)),
            float(np.mean(v2 * v2)),
        )
    return cache["norm_data"]


def l2_norm(*zs):
    """The L2 norm of the loops zs taken together (a pair's gradient, say):
    sqrt(||z_1||^2 + ||z_2||^2 + ...), each term a gram-weighted sum of
    squared coefficients."""
    sums = (float(np.sum(gram_diag(z.klass, z.n) * z.coeffs**2)) for z in zs)
    return float(np.sqrt(sum(sums)))


def sup_norm(z: Loop):
    """Max of |z| from a scan of the loop's quad samples (``quad_samples``,
    cached): Newton on z' = 0 refines, in the two scan cells around it,
    every local maximum of the scan that can hide the true maximum, and the
    largest result is kept.  Cached per loop."""
    cache = _loop_cache(z)
    if "sup_norm" not in cache:
        cache["sup_norm"] = _scan_sup_norm(z)
    return cache["sup_norm"]


def _scan_sup_norm(z: Loop):
    """A sample t_i within h/2 of a maximum misses it by at most
    h^2/8 max|z''| <= h^2/8 sum |z''_k|, h the spacing; periodic scan."""
    vals = z.quad_samples()
    mags = np.abs(vals)
    top = float(np.max(mags))
    h = 2.0 / vals.size
    miss = h * h / 8.0 * float(np.sum(np.abs(second_derivative_coeffs(z))))
    i = np.flatnonzero((mags >= np.roll(mags, 1)) & (mags >= np.roll(mags, -1)) & (mags >= top - miss))
    t0 = i * h
    orient = -np.sign(vals[i])

    def slope(t, idx):
        return orient[idx] * jets(z, t, (1, 2))

    t = _newton(slope, t0 - h, t0 + h, t0, tol=1e-15, max_iter=8)
    return max(top, float(np.max(np.abs(z(t)))))


def loop_zeros(z: Loop):
    """The zeros of z on [0, 1], sorted.

    The scan starts from the quad samples (``Loop.quad_samples``, spacing
    h) on [-h, 1 + h], the grid being periodic, less those below 1e-13 of
    the peak: they are rounding noise, and a run of them between two
    samples of opposite sign is one zero, of high order.  Each round, one
    Newton call (``_newton``) refines every new sign change of the scan,
    all points at once, and the zeros join the scan with value 0.  Each
    piece [a, b] between two scan points then has one sign s.  Two more
    zeros in it bound an extremum of sign -s within (b - a)/2 of the nearer
    end, or within b - a of the nonzero end where the other is a zero, so
    that end is within (b - a)^2/8 sum |z''_k| of zero, or 4 times that.
    In every such new piece Newton refines, from its midpoint, the least of
    s z; the point joins the scan where s z is below minus the noise, and
    the next round refines the sign changes it makes, until no point joins.
    An end, 0 or 1, is a zero where |z| is below 1e-11 of the peak; it
    replaces a zero with no scan point between them.
    Raises DegenerateLoopError when z is zero or noise samples fill over
    1/20 of [0, 1] (no time change exists there).
    """
    vals = z.quad_samples()
    h = 2.0 / vals.size
    n = vals.size // 2 + 1  # the samples on [0, 1]
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise DegenerateLoopError("loop is identically zero")
    noise = 1e-13 * scale
    if np.count_nonzero(np.abs(vals[:n]) < noise) > max(8, (n - 1) // 20):
        raise DegenerateLoopError("loop vanishes on an interval")
    bend = float(np.sum(np.abs(second_derivative_coeffs(z)))) / 8.0
    ends = [end for end, v_end in ((0.0, vals[0]), (1.0, vals[n - 1])) if abs(v_end) < 1e-11 * scale]
    i = np.arange(-1, n + 1)
    i = i[np.abs(vals[i]) >= noise]
    t, v, fresh = i * h, vals[i], np.ones(i.size, dtype=bool)
    zeros = []

    def join(x, y):
        """t, v and fresh, with the points x, of values y, joined as fresh."""
        order = np.argsort(np.concatenate([t, x]))
        grown = ((t, x), (v, y), (fresh, np.ones(x.size, dtype=bool)))
        return (np.concatenate(pair)[order] for pair in grown)

    while fresh.any():
        c = np.flatnonzero((v[:-1] * v[1:] < 0.0) & (fresh[:-1] | fresh[1:]))
        lo, hi = t[c], t[c + 1]
        # -sign(z) at the left end of its cell: z times it increases there
        orient = -np.sign(v[c])

        def oriented(x, idx):
            return orient[idx] * jets(z, x, (0, 1))

        x = _newton(oriented, lo, hi, 0.5 * (lo + hi), tol=1e-15, max_iter=60)
        zeros.append(x)
        t, v, fresh = join(x, np.zeros(x.size))
        va, vb = v[:-1], v[1:]
        near = np.where((va == 0.0) | (vb == 0.0), np.abs(va + vb) / 4.0, np.minimum(np.abs(va), np.abs(vb)))
        j = np.flatnonzero((near <= bend * np.diff(t) ** 2) & (fresh[:-1] | fresh[1:]))
        lo, hi, sign = t[j], t[j + 1], np.sign(va[j] + vb[j])

        def slope(x, idx):
            return sign[idx] * jets(z, x, (1, 2))

        x = _newton(slope, lo, hi, 0.5 * (lo + hi), tol=1e-15, max_iter=8)
        y = z(x)
        new = sign * y <= -noise
        fresh[:] = False
        t, v, fresh = join(x[new], y[new])
    x = np.concatenate(zeros)
    for end in ends:  # no scan point between x and the end
        between = np.searchsorted(t, np.maximum(x, end)) - np.searchsorted(t, np.minimum(x, end), "right")
        x = np.where(between == 0, end, x)
    x = np.concatenate([x, ends])
    return np.unique(x[(x >= 0.0) & (x <= 1.0)])


def _newton(fn, lo, hi, x0, tol, max_iter, min_slope=0.0, ftol=0.0):
    """Safeguarded Newton for one root per bracket [lo[j], hi[j]], all
    points at once.

    ``fn(x, idx)`` returns (f, f') at the points x of the still-active
    indices idx, for an f that increases through its root.  Each
    evaluation shrinks the bracket to the side the root is on; a step that
    does not land strictly inside the bracket (or stay put), or a slope at
    or below ``min_slope``, is replaced by the bracket midpoint.  A point
    stops on a step below ``tol``, on |f(x)| <= ``ftol`` (after that step)
    or after ``max_iter`` evaluations, and keeps x once f(x) = 0 or its
    bracket holds no float strictly inside.
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
        x_new = np.where((x_new > lo) & (x_new < hi) | (x_new == x), x_new, mid)
        done = (fx == 0.0) | (np.nextafter(lo, hi) >= hi)
        x_new = np.where(done, x, x_new)
        out[idx] = x_new
        moving = ~done & (np.abs(x_new - x) >= tol) & (np.abs(fx) > ftol)
        idx, x, lo, hi = idx[moving], x_new[moving], lo[moving], hi[moving]
    return out


def derivative(z: Loop) -> Loop:
    """Exact spectral derivative.

    The derivative of a symmetric-class loop leaves the class (sines map to
    cosines of the same frequencies), so it is returned as class ``full``.
    """
    f, sine, w, _ = _rule(z.klass, z.n, (1,))
    coeffs = np.zeros(2 * int(f[-1]) + 1)
    coeffs[_slot(FULL, f, sine)] = w[0] * z.coeffs
    return Loop(FULL, coeffs)


def second_derivative_coeffs(z: Loop):
    """Coefficients of z'' in the same class basis."""
    return _rule(z.klass, z.n, (2,))[2][0] * z.coeffs


def project(klass, vals, n_out):
    """Project the samples ``vals`` on the uniform [0, 2) grid of their
    size p onto ``n_out`` modes of a class basis.  The discrete inner
    products with the basis are read from one real FFT: Re F[f] for a
    cosine of frequency f, -Im F[f] for a sine, where F[b] for b > p/2 is
    the conjugate of the half spectrum's F[p - b] (``_half_spectrum``).
    """
    vals = np.asarray(vals, dtype=float)
    slot, _, from_half = _half_spectrum(klass, n_out, vals.size)
    return from_half * np.fft.rfft(vals).view(float)[slot]


def _power(z: Loop, k):
    """z^k for k = 2 or 3, re-analyzed exactly from the dealiased grid, in
    z's class for odd k and in even-cosine for even k (full if z is).
    Cached per loop.  The samples are multiplied, v v or v v v: numpy's
    ``**`` with exponent 3 calls libm ``pow``, which takes a slow path on
    every negative sample."""
    cache = _loop_cache(z)
    if ("power", k) not in cache:
        klass, n_coeffs = _power_layout(z.klass, z.n, k)
        v = z.quad_samples()
        vals = v * v if k == 2 else v * v * v
        cache[("power", k)] = from_coeffs(klass, project(klass, vals, n_coeffs))
    return cache[("power", k)]


def _power_layout(klass, n_coeffs, k):
    """The class and the coefficient count of z^k for a loop z of ``klass``
    with ``n_coeffs`` coefficients, without forming it."""
    top = k * mode_count(klass, n_coeffs)
    klass = klass if k % 2 or klass == FULL else EVEN_COSINE
    # the slot of the top frequency kF of z^k, as its top sine for full loops
    return klass, int(_slot(klass, top, True)) + 1


@functools.cache
def _product_to_sum(klass, n_coeffs):
    """The product-to-sum rule of the basis: e_j e_k is half the sum of
    sd[j, k] times the basis function di[j, k] and sp[j, k] times the basis
    function pi[j, k] of the square's layout (``_power_layout(klass, n, 2)``).
    Cached read-only like ``_layout``.

    With frequencies a = f_j, b = f_k, d = a - b and p = a + b,

        cos cos = (cos d + cos p) / 2,    sin sin = (cos d - cos p) / 2,
        sin cos = (sin p + sin d) / 2,    cos sin = (sin p - sin d) / 2,

    and sin d = sign(d) sin |d|, which vanishes at d = 0.  Both symmetric
    classes have no mixed products and squares in even-cosine, so there
    di = |f_j - f_k| / 2 and pi = (f_j + f_k) / 2, with sd = 1 and sp = -1
    for the odd-sine class; a full loop's cos sin products give sines.
    """
    f, sine = _layout(klass, n_coeffs)
    sq_klass = _power_layout(klass, n_coeffs, 2)[0]
    d = f[:, None] - f[None, :]
    mixed = sine[:, None] != sine[None, :]
    di = _slot(sq_klass, np.abs(d), mixed)
    pi = _slot(sq_klass, f[:, None] + f[None, :], mixed)
    sd = np.where(mixed, np.where(sine[:, None], 1.0, -1.0) * np.sign(d), 1.0)
    sp = np.where(sine[:, None] & sine[None, :], -1.0, 1.0)
    return read_only(di), read_only(pi), read_only(sd), read_only(sp)


@functools.cache
def _product_weights(klass, n_coeffs):
    """sd and sp of ``_product_to_sum`` over 2 sqrt(g_j g_k), the weights
    of ``_product_sums``, cached read-only."""
    _, _, sd, sp = _product_to_sum(klass, n_coeffs)
    sg = np.sqrt(gram_diag(klass, n_coeffs))
    half = 0.5 / np.outer(sg, sg)
    return read_only(sd * half), read_only(sp * half)


def _product_sums(klass, n_coeffs, v):
    """(sd v[di] + sp v[pi]) / (2 sqrt(g_j g_k)) by ``_product_to_sum``: a
    linear functional, given by its values v on the basis of the square's
    layout, on the products of the orthonormal directions e_j / sqrt(g_j),
    as an exactly symmetric (n, n) table.  With v = g u, u the coefficients
    of a function and g their ``gram_diag``, the functional is the pairing
    with that function and the table its Galerkin multiplication matrix;
    with v = S @ c, S the primitive rows of the square's layout at some
    nodes, it is the weighted node sum of the primitives of the products.
    """
    di, pi, _, _ = _product_to_sum(klass, n_coeffs)
    wd, wp = _product_weights(klass, n_coeffs)
    return wd * v[di] + wp * v[pi]


def square(z: Loop) -> Loop:
    """Pointwise square, exact, cached per loop (``_power``)."""
    return _power(z, 2)


def cube(z: Loop) -> Loop:
    """Pointwise cube, exact in the class basis, which both symmetric
    classes are closed under; cached per loop, so the gradient and the
    Hessian at one point share one FFT."""
    return _power(z, 3)


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


def embed_full(z: Loop) -> Loop:
    """Embed a symmetric-class loop into the unrestricted period-2 basis,
    up to its top frequency."""
    if z.klass == FULL:
        return z
    coeffs = np.zeros(2 * mode_count(z.klass, z.n) + 1)
    coeffs[_slot(FULL, *_layout(z.klass, z.n))] = z.coeffs
    return from_coeffs(FULL, coeffs)


def loop_to_json(z: Loop):
    return {"class": z.klass, "coeffs": list(map(float, z.coeffs))}


def loop_from_json(data) -> Loop:
    return from_coeffs(data["class"], np.asarray(data["coeffs"], dtype=float))
