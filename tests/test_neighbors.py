"""The shared neighbour-search kernel.

Oracles: a direct O(N^2) loop over index pairs that measures every distance
as the norm of the difference, and scipy's k-d tree where scipy is
installed.
"""

import numpy as np
import pytest

from chaosid.neighbors import _squared_thresholds, nearest, pair_distance_counts


def _oracle_nearest(points, exclude):
    n = points.shape[0]
    nn = np.zeros(n, dtype=np.intp)
    dist = np.full(n, np.inf)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > exclude:
                d = np.linalg.norm(points[i] - points[j])
                if d < dist[i]:
                    nn[i], dist[i] = j, d
    return nn, dist


def _oracle_counts(points, edges, theiler):
    n = points.shape[0]
    d = [
        np.linalg.norm(points[i] - points[j])
        for i in range(n)
        for j in range(i + theiler + 1, n)
    ]
    return np.histogram(d, bins=edges)[0], len(d)


def _random_sets():
    rng = np.random.default_rng(5)
    for n, m in [(40, 1), (75, 2), (300, 3), (61, 4)]:
        yield rng.normal(size=(n, m)) * rng.uniform(0.1, 10.0) + rng.normal(size=m)


@pytest.mark.parametrize("exclude", [0, 1, 5])
def test_nearest_matches_direct_oracle(exclude):
    for points in _random_sets():
        nn, dist = nearest(points, exclude)
        nn_ref, dist_ref = _oracle_nearest(points, exclude)
        assert np.array_equal(nn, nn_ref)
        np.testing.assert_allclose(dist, dist_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("exclude", [0, 1, 5])
def test_nearest_ties_go_to_the_lowest_index(exclude):
    # integer lattices whose means are exact in binary, so every squared
    # distance is exact and equal distances tie exactly
    line = np.arange(16.0).reshape(-1, 1)
    grid = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
    for points in (line, grid):
        nn, dist = nearest(points, exclude)
        nn_ref, dist_ref = _oracle_nearest(points, exclude)
        assert np.array_equal(nn, nn_ref)
        assert np.array_equal(dist, dist_ref)


def test_nearest_without_admissible_partner_is_inf():
    points = np.random.default_rng(1).normal(size=(8, 2))
    _, dist = nearest(points[:5], 5)
    assert np.all(np.isinf(dist))
    # rows 2..5 of eight have no partner more than five steps away
    nn, dist = nearest(points, 5)
    nn_ref, dist_ref = _oracle_nearest(points, 5)
    assert np.array_equal(np.isinf(dist), np.isinf(dist_ref))
    assert np.array_equal(np.isinf(dist), (np.arange(8) >= 2) & (np.arange(8) <= 5))
    finite = np.isfinite(dist)
    assert np.array_equal(nn[finite], nn_ref[finite])
    np.testing.assert_allclose(dist[finite], dist_ref[finite], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shift", [1e4, 1e6])
def test_nearest_distance_is_exact_under_offset(shift):
    """An offset must not leak into the distances: each returned distance
    is the norm of the difference of the pair, and the pair is the nearest
    one."""
    k = np.arange(1500)
    rng = np.random.default_rng(2)
    s = np.sin(0.1 * k) + 0.5 * np.sin(0.37 * k) + 0.01 * rng.normal(size=k.size)
    tau, m = 5, 3
    idx = np.arange(k.size - (m - 1) * tau)[:, None] + np.arange(m) * tau
    points = s[idx] + shift
    nn, dist = nearest(points, 0)
    direct = np.linalg.norm(points - points[nn], axis=1)
    np.testing.assert_allclose(dist, direct, rtol=1e-12, atol=0.0)
    diff = points[:, None, :] - points[None, :, :]
    all_d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(all_d, np.inf)
    np.testing.assert_allclose(dist, all_d.min(axis=1), rtol=1e-12, atol=0.0)


def _assert_matches_oracle(points, exclude):
    nn, dist = nearest(points, exclude)
    nn_ref, dist_ref = _oracle_nearest(points, exclude)
    assert np.array_equal(nn, nn_ref)
    np.testing.assert_allclose(dist, dist_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("exclude", [0, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_nearest_two_far_clusters_leave_most_boxes_empty(m, exclude):
    rng = np.random.default_rng(6)
    near = rng.normal(size=(120, m))
    far = rng.normal(size=(79, m)) * 0.5 + 1000.0
    # a lone outlier whose neighbour is found only once the boxes span
    # the whole set
    lone = np.full((1, m), -3000.0)
    _assert_matches_oracle(np.concatenate([near, far, lone])[rng.permutation(200)], exclude)


@pytest.mark.parametrize("exclude", [40, 90])
def test_nearest_closed_curve_with_the_time_neighbours_banned(exclude):
    """Every in-box candidate of a row on a densely sampled loop is one of
    its time neighbours, inside the Theiler band; the admissible neighbours
    lie on the other turns."""
    t = np.arange(360) * (2.0 * np.pi / 120.0) + 0.013 * np.sin(np.arange(360) * 0.1)
    for m in (2, 3, 4):
        points = np.stack([np.cos(t), np.sin(t), 0.1 * np.sin(3.0 * t), 0.05 * np.cos(2.0 * t)], axis=1)
        _assert_matches_oracle(points[:, :m], exclude)


@pytest.mark.parametrize("exclude", [0, 2])
def test_nearest_constant_identical_and_duplicate_points(exclude):
    rng = np.random.default_rng(7)
    flat = rng.normal(size=(150, 3))
    flat[:, 0] = 4.0
    _assert_matches_oracle(flat, exclude)
    same = np.full((30, 2), 1.5)
    nn, dist = nearest(same, exclude)
    assert np.array_equal(nn, np.where(np.arange(30) <= exclude, np.arange(30) + exclude + 1, 0))
    assert not dist.any()
    _assert_matches_oracle(same, exclude)
    # duplicates at distance 0: the lowest admissible copy wins
    base = rng.normal(size=(60, 3))
    dup = base[rng.integers(0, 60, size=200)]
    _assert_matches_oracle(dup, exclude)


@pytest.mark.parametrize("exclude", [0, 1, 5])
def test_nearest_lattice_points_on_box_edges_tie_to_the_lowest_index(exclude):
    """Integer lattices: the box edge is a whole number, so points sit
    exactly on box edges and every row has several exactly tied
    neighbours."""
    rng = np.random.default_rng(8)
    cube = np.array(list(np.ndindex(5, 5, 5)), dtype=float)
    hyper = np.array(list(np.ndindex(3, 3, 3, 3)), dtype=float)
    for points in (cube, cube[rng.permutation(cube.shape[0])], hyper, 2.0 * hyper - 7.0):
        nn, dist = nearest(points, exclude)
        nn_ref, dist_ref = _oracle_nearest(points, exclude)
        assert np.array_equal(nn, nn_ref)
        assert np.array_equal(dist, dist_ref)


@pytest.mark.parametrize("m", [5, 6])
def test_nearest_quantised_delay_vectors_tie_to_the_lowest_index(m):
    """Delay vectors of an integer-valued series repeat and tie exactly.
    Their mean is not exact in binary, so a distance taken from centred
    points in the |a|^2 + |b|^2 - 2 a.b form breaks some of these ties."""
    s = np.round(5.0 * np.sin(0.07 * np.arange(300)))
    points = s[np.arange(300 - (m - 1) * 5)[:, None] + np.arange(m) * 5]
    nn, dist = nearest(points, 0)
    nn_ref, dist_ref = _oracle_nearest(points, 0)
    assert np.array_equal(nn, nn_ref)
    assert np.array_equal(dist, dist_ref)


@pytest.mark.parametrize("exclude", [9, 10, 50])
def test_nearest_exclude_beyond_the_set_leaves_every_row_inf(exclude):
    points = np.random.default_rng(9).normal(size=(10, 3))
    nn, dist = nearest(points, exclude)
    assert np.all(np.isinf(dist))
    assert not nn.any()


@pytest.mark.parametrize("theiler", [0, 3])
def test_pair_distance_counts_match_direct_oracle(theiler):
    for points in _random_sets():
        span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
        edges = np.concatenate([[0.0], np.geomspace(span * 1e-3, span, 12)])
        counts, total = pair_distance_counts(points, edges, theiler)
        counts_ref, total_ref = _oracle_counts(points, edges, theiler)
        assert total == total_ref
        assert np.array_equal(counts, counts_ref)


# geometric and square-root edges, each starting at 0 and above 0; the
# first is the correlation dimension's layout on the reference (r_max 35.6)
_EDGE_SETS = [
    np.concatenate([[0.0], np.geomspace(35.6e-3, 35.6, 32)]),
    np.geomspace(0.05, 7.0, 20),
    np.sqrt(np.arange(0.0, 40.0)),
    np.sqrt(np.arange(3.0, 40.0)),
]


def _ulp_steps(x, steps):
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


def test_squared_thresholds_bin_as_the_root_would():
    for edges in _EDGE_SETS:
        thresholds = _squared_thresholds(edges)
        d2 = [v for e in edges for v in _ulp_steps(e * e, 3)]
        d2 += [-1.0, -1e-300, -0.0, 0.0, 5e-324, np.inf]
        d2 += list(np.arange(0.0, 45.0))
        d2 = np.array(d2)
        d = np.sqrt(np.maximum(d2, 0.0))
        # one value at a time, so that a pair moved into the next bin and
        # another moved back cannot cancel
        for v2, v in zip(d2, d):
            assert np.array_equal(
                np.histogram([v2], bins=thresholds)[0], np.histogram([v], bins=edges)[0]
            ), (edges[0], v2)


@pytest.mark.parametrize("theiler", [0, 2])
def test_pair_distance_counts_with_distances_on_the_edges(theiler):
    # integer lattices whose means are exact in binary, so every squared
    # distance is an exact integer and lands on a square-root edge
    line = np.arange(16.0).reshape(-1, 1)
    grid = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
    cube = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)], dtype=float)
    for points in (line, grid, cube):
        top = int(np.ceil(np.linalg.norm(points.max(axis=0) - points.min(axis=0)) ** 2))
        for edges in (np.sqrt(np.arange(0.0, top + 1)), np.sqrt(np.arange(2.0, top))):
            counts, total = pair_distance_counts(points, edges, theiler)
            counts_ref, total_ref = _oracle_counts(points, edges, theiler)
            assert total == total_ref
            assert np.array_equal(counts, counts_ref)


def test_pair_distance_counts_window_beyond_the_set():
    points = np.random.default_rng(3).normal(size=(6, 2))
    counts, total = pair_distance_counts(points, np.array([0.0, 1.0, 10.0]), 5)
    assert total == 0
    assert not counts.any()


def test_kernel_matches_kd_tree():
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(4)
    points = rng.normal(size=(2000, 3)) * [1.0, 2.0, 0.5]
    tree = spatial.cKDTree(points)

    nn, dist = nearest(points, 0)
    tree_d, tree_i = tree.query(points, k=2)
    assert np.array_equal(nn, tree_i[:, 1])
    np.testing.assert_allclose(dist, tree_d[:, 1], rtol=1e-12, atol=0.0)

    edges = np.concatenate([[0.0], np.geomspace(0.01, 5.0, 16)])
    counts, total = pair_distance_counts(points, edges, 0)
    n = points.shape[0]
    assert total == n * (n - 1) // 2
    # the tree counts ordered pairs with d <= r, each point with itself too
    within = (tree.count_neighbors(tree, edges[1:]) - n) // 2
    assert np.array_equal(np.cumsum(counts), within)


@pytest.mark.parametrize("m", range(1, 9))
def test_nearest_matches_kd_tree_on_the_reference_delay_set(rossler_series, m):
    spatial = pytest.importorskip("scipy.spatial")
    s = rossler_series.values[:, 0]
    tau = 26
    rows = s.size - (m - 1) * tau
    points = s[np.arange(rows)[:, None] + np.arange(m) * tau]
    nn, dist = nearest(points, 0)
    tree_d, tree_i = spatial.cKDTree(points).query(points, k=2)
    assert np.array_equal(nn, tree_i[:, 1])
    np.testing.assert_allclose(dist, tree_d[:, 1], rtol=1e-12, atol=0.0)
