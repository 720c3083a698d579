import statistics

import numpy as np
from oracles import bridged_paths, path_major_chords, path_major_coarse
import pytest
from scipy.stats import qmc

from eqmerton.rqmc import (
    BITS,
    BrownianBridge,
    norm_ppf,
    shifted_points,
    sobol_directions,
    sobol_net,
    sobol_points,
    to_unit,
)


def gray(n):
    i = np.arange(n)
    return i ^ (i >> 1)


def random_words(seed, shape):
    return np.random.Generator(np.random.SFC64(seed)).integers(
        0, 2**64, size=shape, dtype=np.uint64, endpoint=False)


class TestSobol:
    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    @pytest.mark.parametrize("m", [0, 1, 4, 9, 12])
    def test_unscrambled_points_equal_scipy(self, dim, m):
        # scipy gives the same points in Gray-code order
        X = sobol_points(sobol_directions(dim, m), 2**m)
        expected = qmc.Sobol(dim, scramble=False).random(2**m)
        np.testing.assert_array_equal(X[gray(2**m)] * 2.0**-BITS, expected)

    @pytest.mark.parametrize("m", [0, 1, 5, 9])
    def test_every_scrambled_net_puts_one_point_in_each_interval(self, m):
        # 20 replicates, each the net XOR its own digital shift; a row per
        # coordinate
        net = sobol_net(16, m)
        words = random_words(m, (20, 16))
        for r in range(20):
            u = shifted_points(net, words, np.arange(r * 2**m, (r + 1) * 2**m))
            assert u.shape == (16, 2**m) and np.all((u > 0) & (u < 1))
            cells = np.sort(np.floor(u * 2**m).astype(int), axis=1)
            np.testing.assert_array_equal(cells, np.arange(2**m)[None, :].repeat(16, 0))

    def test_shifted_points_are_the_net_xor_each_replicates_word(self):
        # rows 3..20 of replicates of 8 points: row i is point i % 8 XOR the
        # top BITS bits of replicate i // 8's word for that coordinate
        net, words, rows = sobol_net(5, 3), random_words(1, (3, 5)), np.arange(3, 21)
        points = sobol_points(sobol_directions(5, 3), 8)
        np.testing.assert_array_equal(net, points.T)
        for i, u in zip(rows, shifted_points(net, words, rows).T):
            shift = [int(w) >> (64 - BITS) for w in words[i // 8]]
            expected = [(int(x) ^ e) for x, e in zip(points[i % 8], shift)]
            np.testing.assert_array_equal(u, (np.array(expected, dtype=float) + 0.5) * 2.0**-BITS)
        assert not net.flags.writeable and sobol_net(5, 3) is net

    def test_a_shift_makes_each_point_uniform(self):
        # the first point of an unrandomized net is 0; over many shifts its
        # first coordinate spreads evenly over (0, 1)
        first = shifted_points(sobol_net(1, 3), random_words(0, (4000, 1)),
                               np.arange(0, 8 * 4000, 8))[0]
        counts = np.histogram(first, bins=10, range=(0, 1))[0]
        assert counts.min() > 330 and counts.max() < 470, counts


class TestNormPpf:
    def test_agrees_with_as241_of_the_standard_library_within_2_ulp(self):
        nd = statistics.NormalDist()
        rng = np.random.default_rng(0)
        u = np.concatenate([
            rng.random(20000),
            10.0 ** -rng.uniform(1, 300, 2000),  # far lower tail
            1.0 - 10.0 ** -rng.uniform(1, 16, 2000),  # upper tail
            [5e-324, 2.0**-54, 1e-300, 1.4e-11, 1.3e-11, 0.075, 0.925, 0.0749999999,
             0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53],
        ])
        x = norm_ppf(u)
        expected = np.array([nd.inv_cdf(v) for v in u])
        ulps = np.abs(x - expected) / np.spacing(np.abs(expected))
        assert ulps.max() <= 2, u[np.argmax(ulps)]

    def test_keeps_its_argument_shape_and_symmetry(self):
        # the centre of the complement's interval is 1 - u exactly, and
        # AS241 is odd about 1/2 on these points, out to the extreme ones
        X = np.concatenate([np.arange(0, 2**BITS, 2**BITS // 62, dtype=np.uint64)[:62],
                            np.array([1, 2**BITS - 2], dtype=np.uint64)]).reshape(4, 16)
        x = norm_ppf(to_unit(X))
        assert x.shape == (4, 16) and np.all(np.isfinite(x))
        np.testing.assert_array_equal(norm_ppf(to_unit(np.uint64(2**BITS - 1) - X)), -x)


class TestBrownianBridge:
    @pytest.mark.parametrize("n_steps, dim", [(1, 1), (2, 2), (7, 4), (15, 8), (16, 16),
                                              (100, 16), (1000, 16)])
    def test_coarse_values_have_the_law_of_w_at_the_nodes(self, n_steps, dim):
        # W at nodes 1..N is linear in iid normals, so its law is fixed by
        # the covariance B B^T (B: nodes x normals), which must be
        # min(t_i, t_j)
        bridge = BrownianBridge(n_steps)
        assert bridge.dim == dim and bridge.nodes[-1] == n_steps
        assert np.all(np.diff(bridge.nodes) >= 1)
        B = bridge.coarse(np.eye(dim))[1:]
        t = bridge.nodes[1:]
        np.testing.assert_allclose(B @ B.T, np.minimum.outer(t, t), rtol=1e-13, atol=1e-13)
        # the terminal node takes the first coordinate alone
        np.testing.assert_array_equal(B[-1], np.sqrt(n_steps) * np.eye(dim)[0])

    @pytest.mark.parametrize("n_steps", [1, 15, 16, 17, 37, 100, 200, 1000])
    def test_coarse_is_the_level_recurrence(self, n_steps):
        # the bits of the bridge's level recurrence written out node by node,
        # into out's columns with its row 0 left at 0, or into a new array;
        # the chords built from them are the node-by-node chords too
        bridge = BrownianBridge(n_steps)
        xi = np.random.default_rng(n_steps).standard_normal((bridge.dim, 7))
        expected = path_major_coarse(bridge, xi.T).T
        np.testing.assert_array_equal(bridge.coarse(xi), expected)
        out = np.full((bridge.dim + 1, 9), np.nan)
        out[0] = 0.0
        assert bridge.coarse(xi, out[:, :7]).base is out
        np.testing.assert_array_equal(out[:, :7], expected)
        assert np.isnan(out[1:, 7:]).all() and np.all(out[0] == 0.0)
        np.testing.assert_array_equal(bridge.chords(out[:, :7]),
                                      path_major_chords(bridge, expected.T).T)

    @pytest.mark.parametrize("n_steps", [1, 3, 16, 17, 100, 1000])
    def test_paths_take_the_coarse_values_and_bridge_the_normals(self, n_steps):
        # the chords are the mean of the two-scale stream's bridged paths given
        # their coarse values, and the variances their spread about it: each
        # bridged path is the chord plus the normals' running sum less its
        # own chord, whose law given the coarse values does not depend on them
        rng = np.random.default_rng(n_steps)
        bridge = BrownianBridge(n_steps)
        rows, draws = 3, 4000
        Wc = bridge.coarse(rng.standard_normal((bridge.dim, rows)))
        chords = np.full((n_steps + 1, rows), np.nan)
        bridge.chords(Wc, out=chords)
        assert np.array_equal(chords[bridge.nodes], Wc) and np.all(chords[0] == 0.0)
        for row in range(rows):
            # the oracle's paths are row-major, a row per path
            coarse = np.repeat(Wc[:, row][None], draws, axis=0)
            W = bridged_paths(bridge.nodes, coarse, rng.standard_normal((draws, n_steps)))
            np.testing.assert_allclose(W[:, bridge.nodes], coarse, rtol=0, atol=1e-12)
            # 4000 draws: the sample mean is within 5 of its standard errors
            # of the chord, and at the coarse nodes within the mean's rounding
            se = np.sqrt(bridge.variance / draws)
            assert np.all(np.abs(W.mean(axis=0) - chords[:, row]) <= 5 * se + 1e-10)
            # and the sample variance within 5 of its standard errors,
            # sqrt(2 / draws) relative, of the bridge variance
            np.testing.assert_allclose(W.var(axis=0), bridge.variance,
                                       rtol=5 * np.sqrt(2.0 / draws), atol=1e-12)

    @pytest.mark.parametrize("n_steps", [1, 15, 16, 17, 37, 100, 200, 1000])
    def test_chord_columns_are_those_columns_of_the_chords(self, n_steps):
        # the chords at given nodes are those rows of the chords at every
        # node, bit for bit, with or without out: the terminal node (a view
        # of its coarse values without out), a coarse node, a node inside a
        # segment, a slice and index arrays, the segments' runs split anyhow
        bridge = BrownianBridge(n_steps)
        rng = np.random.default_rng(n_steps)
        Wc = bridge.coarse(rng.standard_normal((bridge.dim, 5)))
        W = bridge.chords(Wc)
        assert W.shape == (n_steps + 1, 5) and np.array_equal(W[bridge.nodes], Wc)
        terminal = bridge.chords(Wc, -1)
        assert terminal.base is Wc and np.array_equal(terminal, Wc[-1])
        inside = min(bridge.nodes[1] + bridge.step // 2, n_steps)
        for nodes in (-1, n_steps, 0, int(bridge.nodes[1]), inside, n_steps // 3,
                      slice(0, n_steps // 3 + 1), slice(1, None, 2), slice(None),
                      np.array([0, bridge.nodes[-2], n_steps]), np.array([n_steps, inside, 0]),
                      np.unique(np.linspace(0, n_steps, 5).round().astype(int))):
            expected = W[nodes]
            np.testing.assert_array_equal(bridge.chords(Wc, nodes), expected)
            out = np.full(expected.shape, np.nan)
            assert bridge.chords(Wc, nodes, out) is out
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("n_steps", [1, 17, 100, 1000, 2000])
    def test_slope_bound_is_the_largest_rise_of_the_drawable_normals(self, n_steps):
        # the normals of to_unit's extreme points are the largest, and each
        # segment's rise reaches its bound at the normals of that size with
        # the signs of its coefficients, and never passes it
        xi_max = -norm_ppf(np.array([2.0**-53]))[0]
        assert norm_ppf(to_unit(np.array([0, 2**52 - 1], dtype=np.uint64))).tolist() == \
            [-xi_max, xi_max]
        assert 8.2 < xi_max < 8.21
        bridge = BrownianBridge(n_steps)
        # A: each segment's rise (a column per segment) in the normals
        A = np.diff(bridge.coarse(np.eye(bridge.dim)), axis=0).T
        rises = np.diff(bridge.coarse(xi_max * np.sign(A)), axis=0)
        np.testing.assert_allclose(np.diag(rises), bridge.slope_bound, rtol=1e-13)
        rng = np.random.default_rng(n_steps)
        xi = np.clip(rng.standard_normal((bridge.dim, 2000)) * 3, -xi_max, xi_max)
        Wc = bridge.coarse(xi)
        assert np.all(np.abs(np.diff(Wc, axis=0)) <= bridge.slope_bound[:, None] * (1 + 1e-12))
