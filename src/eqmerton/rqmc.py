"""Randomized quasi-Monte Carlo for the coarse nodes of a Brownian path.

Four pieces, numpy only:

* ``sobol_directions``, ``sobol_points`` and ``sobol_net``: the Sobol
  sequence of Joe and Kuo (2008, direction numbers new-joe-kuo-6.21201) in
  up to 16 dimensions, as 52-bit integers, each net of 2^m points built once;
* ``shifted_points``: replicates of a net randomized by a random digital
  shift alone (L'Ecuyer and Lemieux, "Recent advances in randomized
  quasi-Monte Carlo methods", 2002), so each point is uniform on [0, 1)^d
  and each replicate keeps one point in each of the 2^m equal intervals of
  every coordinate; every replicate shares the one unrandomized net;
* ``norm_ppf``: the normal quantile of Wichura's algorithm AS241 (1988),
  evaluated on arrays, which ``statistics.NormalDist.inv_cdf`` evaluates on
  one number;
* ``BrownianBridge``: a path's values at 2^L coarse nodes from 2^L normals,
  the terminal node first and then the midpoints level by level
  (Glasserman, Monte Carlo Methods in Financial Engineering, 2004, sections
  3.1.2 and 5.5), and the law of the path between them given those values:
  the chord as its mean, formed by one routine at every node or at given
  ones, and the bridge variance; and a bound on each segment's rise, for
  the normals the stream can draw.

The points, normals, coarse values and chords of many paths are
coordinate- or node-major arrays, a row per coordinate or node and a column
per path, so every operation runs along contiguous rows of paths.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

# a coordinate is a BITS-digit binary fraction; with one digit to spare in the
# float64 mantissa, the centre of each interval of width 2^-BITS is exact
BITS = 52
MAX_DIM = 16

# Joe & Kuo, new-joe-kuo-6.21201, dimensions 2 to 16: the degree s of the
# primitive polynomial, its inner coefficients a (s - 1 bits, a_1 highest)
# and the initial m_1 .. m_s; dimension 1 has m_k = 1 throughout
_JOE_KUO = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
    (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)),
    (5, 14, (1, 3, 5, 5, 31)),
    (6, 1, (1, 3, 3, 9, 7, 49)),
    (6, 13, (1, 1, 1, 15, 21, 21)),
    (6, 16, (1, 3, 1, 13, 27, 49)),
)

_SHIFT = np.uint64(64 - BITS)  # a random 64-bit word's top BITS bits


def sobol_directions(dim: int, m: int) -> np.ndarray:
    """Direction numbers v_{d,k} = m_{d,k} / 2^k, k = 1..m, of the first dim
    coordinates, as BITS-bit integers (dim x m): all a net of 2^m points
    uses. The m_k follow Joe and Kuo's recurrence
    m_k = 2 a_1 m_{k-1} ^ ... ^ 2^{s-1} a_{s-1} m_{k-s+1} ^ 2^s m_{k-s} ^ m_{k-s}."""
    if not 1 <= dim <= MAX_DIM or not 0 <= m <= 32:
        raise ValueError(f"a Sobol net here has 1..{MAX_DIM} dimensions and 2^0..2^32 points")
    V = np.zeros((dim, m), dtype=np.uint64)
    for d in range(dim):
        mk = [1] * m
        if d:
            s, a, initial = _JOE_KUO[d - 1]
            mk = list(initial[:m])
            for k in range(s, m):
                new = mk[k - s] ^ (mk[k - s] << s)
                for i in range(1, s):
                    if (a >> (s - 1 - i)) & 1:
                        new ^= mk[k - i] << i
                mk.append(new)
        V[d] = [mk[k] << (BITS - 1 - k) for k in range(m)]
    return V


def sobol_points(V: np.ndarray, n: int) -> np.ndarray:
    """The first n = 2^m points of the net with direction numbers V
    (dim x m), as integers (n x dim): point i is the XOR of v_k over the set
    bits k of i, so points 2^k .. 2^{k+1} - 1 are the first 2^k XOR v_k.
    This is the set of ``scipy.stats.qmc.Sobol``'s first n points, which come
    in Gray-code order: its point i is point i ^ (i >> 1) here."""
    X = np.zeros((n, len(V)), dtype=np.uint64)
    size = 1
    while size < n:
        k = size.bit_length() - 1
        np.bitwise_xor(X[:size], V[:, k], out=X[size:2 * size])
        size *= 2
    return X


@lru_cache(maxsize=None)
def sobol_net(dim: int, m: int) -> np.ndarray:
    """The unrandomized net of 2^m points in dim coordinates, coordinate-major
    (dim x 2^m: a row per coordinate), built once and read-only."""
    X = np.ascontiguousarray(sobol_points(sobol_directions(dim, m), 1 << m).T)
    X.flags.writeable = False
    return X


def shifted_points(net: np.ndarray, words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Points ``rows`` of the net's randomized replicates, as floats in
    (0, 1), coordinate-major (dim x rows): point i is point i % 2^m of net
    (dim x 2^m) XOR the digital shift of replicate i // 2^m, the top BITS
    bits of that replicate's random 64-bit words (words: replicates x dim,
    one per coordinate; L'Ecuyer and Lemieux 2002). The shift permutes the
    2^m equal intervals of each coordinate, so a replicate keeps one point
    in each, and it makes each point uniform."""
    rep = net.shape[1]
    X = net[:, rows % rep]
    X ^= words.T[:, rows // rep] >> _SHIFT
    return to_unit(X)


def to_unit(X: np.ndarray) -> np.ndarray:
    """Integer points as floats in (0, 1): the centre of each point's
    interval of width 2^-BITS, exact in float64, so no coordinate is 0 or 1
    and 1 - u is the point of the complement of X."""
    u = X.astype(np.float64)
    u += 0.5
    u *= 2.0**-BITS
    return u


# AS241 (PPND16): per branch, numerator and denominator coefficients side by
# side (a column each), highest power first
_CENTRAL = np.array([
    (2.5090809287301226727e+3, 5.2264952788528545610e+3),
    (3.3430575583588128105e+4, 2.8729085735721942674e+4),
    (6.7265770927008700853e+4, 3.9307895800092710610e+4),
    (4.5921953931549871457e+4, 2.1213794301586595867e+4),
    (1.3731693765509461125e+4, 5.3941960214247511077e+3),
    (1.9715909503065514427e+3, 6.8718700749205790830e+2),
    (1.3314166789178437745e+2, 4.2313330701600911252e+1),
    (3.3871328727963666080e+0, 1.0)])[:, :, None]
_INTERMEDIATE = np.array([
    (7.74545014278341407640e-4, 1.05075007164441684324e-9),
    (2.27238449892691845833e-2, 5.47593808499534494600e-4),
    (2.41780725177450611770e-1, 1.51986665636164571966e-2),
    (1.27045825245236838258e+0, 1.48103976427480074590e-1),
    (3.64784832476320460504e+0, 6.89767334985100004550e-1),
    (5.76949722146069140550e+0, 1.67638483018380384940e+0),
    (4.63033784615654529590e+0, 2.05319162663775882187e+0),
    (1.42343711074968357734e+0, 1.0)])[:, :, None]
_FAR = np.array([
    (2.01033439929228813265e-7, 2.04426310338993978564e-15),
    (2.71155556874348757815e-5, 1.42151175831644588870e-7),
    (1.24266094738807843860e-3, 1.84631831751005468180e-5),
    (2.65321895265761230930e-2, 7.86869131145613259100e-4),
    (2.96560571828504891230e-1, 1.48753612908506148525e-2),
    (1.78482653991729133580e+0, 1.36929880922735805310e-1),
    (5.46378491116411436990e+0, 5.99832206555887937690e-1),
    (6.65790464350110377720e+0, 1.0)])[:, :, None]


def _ratio(coeffs: np.ndarray, r: np.ndarray, scale=1.0) -> np.ndarray:
    """num(r) scale / den(r), both by Horner's rule at once, in AS241's order
    of operations."""
    acc = coeffs[0] * r
    for c in coeffs[1:-1]:
        acc += c
        acc *= r
    acc += coeffs[-1]
    num = acc[0]
    num *= scale
    return np.divide(num, acc[1], out=num)


def norm_ppf(u: np.ndarray) -> np.ndarray:
    """Phi^{-1}(u) for u in (0, 1), by AS241 with its three branches: a
    rational function of q^2 for |q| = |u - 1/2| <= 0.425, and two of
    r = sqrt(-log(min(u, 1 - u))) beyond, split at r = 5."""
    shape, u = np.shape(u), np.ravel(u)
    q = u - 0.5
    x = _ratio(_CENTRAL, 0.180625 - q * q, q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        qt, ut = q[tail], u[tail]
        r = np.sqrt(-np.log(np.where(qt <= 0.0, ut, 1.0 - ut)))
        near = r <= 5.0
        if near.all():
            xt = _ratio(_INTERMEDIATE, r - 1.6)
        else:
            xt = np.empty_like(r)
            xt[near] = _ratio(_INTERMEDIATE, r[near] - 1.6)
            xt[~near] = _ratio(_FAR, r[~near] - 5.0)
        x[tail] = np.copysign(xt, qt)
    return x.reshape(shape)


class BrownianBridge:
    """The coarse nodes of a path of n_steps unit-variance steps, and the law
    of the path between them given its values there.

    The coarse nodes are N = 2^L steps apart by s = n_steps // N, the last
    node at n_steps, with L = min(4, floor(log2 n_steps)): 16 nodes, or all
    of them on a path of fewer than 16 steps, where s = 1. ``coarse`` builds
    W at those nodes from N normals, terminal node first and then the
    midpoints level by level, so the leading coordinates carry the path's
    large-scale moves. Given those values the path is a Brownian bridge on
    each segment lo < k < hi, independent of the other segments: W_k is
    normal with the chord of the coarse values as its mean (``chords``, the
    one routine that forms it, at every node or at given ones; at a coarse
    node, the coarse value itself) and variance (k - lo)(hi - k) / (hi - lo)
    (``variance``), and two nodes of one segment j <= k have covariance
    (j - lo)(hi - k) / (hi - lo). On each segment the chord is linear in the
    node's ``offset`` (k - lo) / (hi - lo) - 1/2, with the segment's rise
    W(hi) - W(lo) as its slope, which ``slope_bound`` bounds for every point
    the stream can draw."""

    def __init__(self, n_steps: int):
        if n_steps < 1:
            raise ValueError("a path needs at least one step")
        self.n_steps = n_steps
        self.dim = N = 1 << min(4, n_steps.bit_length() - 1)
        self.step = s = n_steps // N
        self.nodes = np.array([j * s for j in range(N)] + [n_steps])
        t = self.nodes.astype(np.float64)
        # coordinate d sets node mid from its neighbours left and right:
        # (mid, left, right, weight of left, weight of right, bridge sd)
        self._levels = []
        width = N
        while width > 1:
            half = width // 2
            for mid in range(half, N, width):
                left, right = mid - half, mid + half
                span = t[right] - t[left]
                self._levels.append((mid, left, right, (t[right] - t[mid]) / span,
                                     (t[mid] - t[left]) / span,
                                     math.sqrt((t[mid] - t[left]) * (t[right] - t[mid]) / span)))
            width = half
        k = np.arange(n_steps + 1)
        # node k lies on segment j, nodes[j] <= k < nodes[j + 1]; the last
        # node closes the last segment
        self.segment = np.minimum(k // s, N - 1)
        lo, hi = self.nodes[self.segment], self.nodes[self.segment + 1]
        self._fraction = (k - lo) / (hi - lo)
        # node k's place on its segment about the midpoint, in [-1/2, 1/2]
        self.offset = self._fraction - 0.5
        self.variance = (k - lo) * (hi - k) / (hi - lo)

    def coarse(self, xi: np.ndarray) -> np.ndarray:
        """W at nodes 1..N (N x paths) from normals xi (N x paths): W at node
        N is sqrt(n_steps) xi_0, and each midpoint is its neighbours' linear
        interpolation plus the bridge's standard deviation times the next
        coordinate, row by row."""
        W = np.empty((self.dim, xi.shape[1]))
        np.multiply(xi[0], math.sqrt(self.n_steps), out=W[-1])
        for d, (mid, left, right, w_left, w_right, sd) in enumerate(self._levels, 1):
            row = np.multiply(xi[d], sd, out=W[mid - 1])
            if left:
                row += w_left * W[left - 1]
            row += w_right * W[right - 1]
        return W

    @cached_property
    def slope_bound(self) -> np.ndarray:
        """The largest rise |W(hi) - W(lo)| of each segment (length N) over
        the normals the stream draws: ``coarse`` is linear, so the rise is
        A_j . xi for a row A_j of its coefficients, and Phi^{-1} of a point of
        ``to_unit``, whose coordinates lie in [2^-(BITS+1), 1 - 2^-(BITS+1)],
        is at most |Phi^{-1}(2^-(BITS+1))| = 8.21 in size: the bound is that
        times the sum of |A_j|, up to the rounding of ``coarse``."""
        xi_max = -float(norm_ppf(np.array([2.0 ** -(BITS + 1)]))[0])
        unit = np.zeros((self.dim, self.dim + 1))
        unit[:, 1:] = self.coarse(np.eye(self.dim)).T
        return xi_max * np.abs(np.diff(unit, axis=1)).sum(axis=0)

    def chords(self, Wc: np.ndarray, nodes=slice(None), out: np.ndarray | None = None
               ) -> np.ndarray:
        """The mean of W at the given nodes (an index, slice or index array of
        0..n_steps, every node by default) given its coarse values Wc
        ((N + 1) x paths, nodes 0..N, Wc[0] = 0), into out (nodes x paths, or
        paths for one node) when it is given: on each segment the chord
        Wc_lo + (k - lo) / (hi - lo) (Wc_hi - Wc_lo), elementwise, so each
        path's values do not depend on the other paths, and a node's value
        does not depend on the other nodes read; it takes the coarse values
        at the nodes exactly. Each run of consecutive nodes on one segment is
        filled in place, so no other array of out's size is formed. The
        terminal node read alone, without out, is Wc[-1] itself, a view."""
        k = np.arange(self.n_steps + 1)[nodes]
        if np.ndim(k) == 0:
            if out is None:
                return Wc[-1] if k == self.n_steps else self.chords(Wc, k[None])[0]
            self.chords(Wc, k[None], out[None])
            return out
        if out is None:
            out = np.empty((len(k), Wc.shape[1]))
        slope, fraction = Wc[1:] - Wc[:-1], self._fraction[k, None]
        j = self.segment[k]
        starts = np.flatnonzero(np.diff(j, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(k)]):
            np.multiply(slope[j[lo]], fraction[lo:hi], out=out[lo:hi])
            out[lo:hi] += Wc[j[lo]]
        out[k == self.n_steps] = Wc[-1]
        return out
