"""The shared neighbour-search kernel.

Oracles: a direct O(N^2) loop over index pairs that measures every distance
as the norm of the difference, and scipy's k-d tree where scipy is
installed.
"""

import numpy as np
import pytest

from chaosid.neighbors import nearest, pair_distance_counts


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


@pytest.mark.parametrize("theiler", [0, 3])
def test_pair_distance_counts_match_direct_oracle(theiler):
    for points in _random_sets():
        span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
        edges = np.concatenate([[0.0], np.geomspace(span * 1e-3, span, 12)])
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
