"""The shared neighbour-search kernel.

Oracles: a direct O(N^2) loop over index pairs that measures every distance
as the norm of the difference, scipy's k-d tree where scipy is installed,
and for the first box edge the dense (64, n) distance matrix it was once
computed from.
"""

import tracemalloc

import numpy as np
import pytest

import chaosid as ci
from chaosid import neighbors
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


def _dense_box_edge(coords, exclude, span):
    """The first box edge from one dense (64, n) matrix of squared
    distances, the squares added in coordinate order."""
    m, n = coords.shape
    sample = np.arange(0, n, -(-n // 64))
    d2 = np.zeros((sample.size, n))
    for x in coords:
        diff = x[None, :] - x[sample, None]
        d2 += diff * diff
    band = np.arange(-min(exclude, n), min(exclude, n) + 1)
    d2[np.arange(sample.size)[:, None], np.clip(sample[:, None] + band, 0, n - 1)] = np.inf
    d = np.sqrt(d2.min(axis=1))
    d = d[np.isfinite(d)]
    eps = float(np.quantile(d, 0.75)) if d.size else 0.0
    if eps == 0.0:
        eps = span / n ** (1.0 / min(m, 3))
    if eps == 0.0:
        return 1.0
    return max(eps, span / (1 << 20))


def _delay_set(s, tau, m):
    return s[np.arange(s.size - (m - 1) * tau)[:, None] + np.arange(m) * tau]


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


@pytest.mark.parametrize("m", range(1, 10))
def test_nearest_distance_is_the_root_of_the_squares_summed_in_coordinate_order(m):
    """The distance returned is the one the neighbour was chosen by, bit
    for bit.  From m = 8 on, np.linalg.norm sums the squares in another
    order and can differ from it in the last bit."""
    points = np.random.default_rng(m).normal(size=(3000, m))
    nn, dist = nearest(points, 0)
    d2 = np.zeros(points.shape[0])
    for k in range(m):
        d2 += (points[:, k] - points[nn, k]) ** 2
    assert np.array_equal(dist, np.sqrt(d2))


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


def _assert_counts_match_oracle(points, edges, theiler):
    """The full count, and each cut: a cut at bin k keeps the first k bins
    of the full histogram and leaves the rest empty, and the total still
    counts every pair."""
    counts_ref, total_ref = _oracle_counts(points, edges, theiler)
    for bins in [None, *range(1, edges.size - 1)]:
        counts, total = pair_distance_counts(points, edges, theiler, bins)
        kept = np.arange(counts.size) < (counts.size if bins is None else bins)
        assert total == total_ref
        assert np.array_equal(counts, np.where(kept, counts_ref, 0)), bins


@pytest.mark.parametrize("theiler", [0, 3])
def test_pair_distance_counts_match_direct_oracle(theiler):
    for points in _random_sets():
        span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
        edges = np.concatenate([[0.0], np.geomspace(span * 1e-3, span, 12)])
        _assert_counts_match_oracle(points, edges, theiler)


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


@pytest.mark.parametrize("theiler", [0, 2])
def test_pair_distance_counts_with_distances_on_the_edges(theiler):
    # integer lattices whose means are exact in binary, so every squared
    # distance is an exact integer and lands on a square-root edge, and a
    # pair exactly at a cut belongs to the first bin above it
    line = np.arange(16.0).reshape(-1, 1)
    grid = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
    cube = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)], dtype=float)
    for points in (line, grid, cube):
        top = int(np.ceil(np.linalg.norm(points.max(axis=0) - points.min(axis=0)) ** 2))
        for edges in (np.sqrt(np.arange(0.0, top + 1)), np.sqrt(np.arange(2.0, top))):
            _assert_counts_match_oracle(points, edges, theiler)


@pytest.mark.parametrize("theiler", [0, 2])
def test_pair_distance_counts_with_a_closed_last_edge_at_or_below_zero(theiler):
    """The closed last bin of edges [-1, 0] holds the pairs at distance 0,
    as np.histogram counts them; a closed last edge below 0 holds none."""
    rng = np.random.default_rng(14)
    points = rng.normal(size=(10, 2))[rng.integers(0, 10, size=40)]
    for edges in ([-1.0, 0.0], [-2.0, -1.0, 0.0], [-2.0, -1.0]):
        _assert_counts_match_oracle(points, np.array(edges), theiler)
    counts, _ = pair_distance_counts(points, np.array([-1.0, 0.0]), theiler)
    assert counts[0] > 0


@pytest.mark.parametrize("chunk", [1, 4, 7, 16, 128])
@pytest.mark.parametrize("n, theiler", [(10, 0), (30, 3), (131, 0), (301, 5), (1000, 77)])
def test_band_index_set_equals_the_per_block_tril_indices(monkeypatch, chunk, n, theiler):
    """The one triangular mask, cut to each block's shape, leaves out of
    every block exactly the entries ``np.tril_indices(rows, -1, cols)``
    gives, which together are the pairs j - i <= theiler: the counts equal
    the direct histogram at every cut.  Above height 1, the last block of
    each case has fewer columns than rows."""
    monkeypatch.setattr(neighbors, "_CHUNK", chunk)
    last = (n - theiler - 2) // chunk * chunk
    assert chunk == 1 or n - last - theiler - 1 < min(chunk, n - last)
    points = np.random.default_rng(n).normal(size=(n, 2))
    i, j = np.triu_indices(n, theiler + 1)
    span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    edges = np.concatenate([[0.0], np.geomspace(span * 1e-2, span, 8)])
    direct = np.histogram(np.linalg.norm(points[i] - points[j], axis=1), bins=edges)[0]
    for bins in [None, *range(1, edges.size - 1)]:
        counts, total = pair_distance_counts(points, edges, theiler, bins)
        kept = np.arange(counts.size) < (counts.size if bins is None else bins)
        assert total == i.size
        assert np.array_equal(counts, np.where(kept, direct, 0)), bins


def test_pair_distance_counts_window_beyond_the_set():
    points = np.random.default_rng(3).normal(size=(6, 2))
    counts, total = pair_distance_counts(points, np.array([0.0, 1.0, 10.0]), 5)
    assert total == 0
    assert not counts.any()


@pytest.mark.parametrize("bins", [0, -1, 3, 4, 50])
def test_pair_distance_counts_rejects_a_cut_outside_the_bins(bins):
    """A cut lies strictly inside the histogram: 0 < bins < number of bins."""
    points = np.random.default_rng(13).normal(size=(20, 2))
    with pytest.raises(ci.InvalidValue, match="bins"):
        pair_distance_counts(points, np.array([0.0, 0.5, 1.0, 10.0]), 0, bins)


_CHUNKS = [1, 7, 32, 128]


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_pair_distance_counts_equal_the_oracle_at_every_block_height(monkeypatch, chunk):
    """Random sets, also far from the origin, where the matrix product's
    rounding grows with the squared norms of the centred points."""
    monkeypatch.setattr(neighbors, "_CHUNK", chunk)
    for offset in (0.0, 1e4, 1e8):
        for points in _random_sets():
            span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
            edges = np.concatenate([[0.0], np.geomspace(span * 1e-3, span, 12)])
            _assert_counts_match_oracle(points + offset, edges, 3)


def _pair_at(target):
    """(a, b) whose squares sum to exactly ``target`` in double precision,
    a * a rounded first: the squared distance of (0, 0) and (a, b)
    summed from direct differences in coordinate order."""
    a = np.sqrt(target)
    while True:
        rest = target - a * a
        if rest >= 0.0:
            b = np.sqrt(rest)
            if a * a + b * b == target:
                return a, b
        a = np.nextafter(a, 0.0)


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_pair_distance_counts_with_pairs_on_and_beside_every_threshold(monkeypatch, chunk):
    """One pair at each squared edge e * e and one at each of the three
    doubles on either side of it, which span the exact threshold where the
    root crosses e, the last (closed) edge included.  The pairs sit
    4 * the last edge apart along a third axis, so the pairs across them
    fall beyond the last edge."""
    monkeypatch.setattr(neighbors, "_CHUNK", chunk)
    for edges in (np.geomspace(0.05, 7.0, 20), np.sqrt(np.arange(3.0, 40.0))):
        targets = [v for e in edges for v in _ulp_steps(e * e, 3)]
        spacing = np.ceil(4.0 * edges[-1])
        points = []
        for k, target in enumerate(targets):
            a, b = _pair_at(target)
            points += [[0.0, 0.0, spacing * k], [a, b, spacing * k]]
        points = np.array(points)
        _assert_counts_match_oracle(points, edges, 0)


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_guard_recount_runs_on_the_integer_lattices(monkeypatch, chunk):
    """Lattice pairs lie exactly on the square-root edges, inside every
    guard zone, so the direct recount decides their bins."""
    monkeypatch.setattr(neighbors, "_CHUNK", chunk)
    recounted = []
    recount = neighbors._recount

    def spy(*args):
        binned = recount(*args)
        recounted.append(int(binned.sum()))
        return binned

    monkeypatch.setattr(neighbors, "_recount", spy)
    grid = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
    cube = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)], dtype=float)
    for points in (grid, cube):
        top = int(np.ceil(np.linalg.norm(points.max(axis=0) - points.min(axis=0)) ** 2))
        recounted.clear()
        _assert_counts_match_oracle(points, np.sqrt(np.arange(0.0, top + 1)), 0)
        assert sum(recounted) > 0


def _reference_correlation_dimension(rossler_series):
    """The source correlation dimension of the reference pipeline: tau 26,
    m 3, Theiler window tau * m."""
    points = _delay_set(rossler_series.values[:, 0], 26, 3)
    return ci.correlation_dimension(points, theiler_window=78)


def test_reference_subsample_has_no_guard_pairs(monkeypatch, rossler_series):
    """The guard zones are about 4e-12 wide on the reference: no pair of the
    8000-point subsample, the pilot's or the cut count's, lands in one."""
    recounted = []
    recount = neighbors._recount

    def spy(*args):
        recounted.append(args[1].shape)
        return recount(*args)

    monkeypatch.setattr(neighbors, "_recount", spy)
    _reference_correlation_dimension(rossler_series)
    assert not recounted


def test_correlation_dimension_scratch_memory_stays_bounded_on_the_reference_delay_set(
    rossler_series,
):
    """Blocks of 16 rows of the 8000-point subsample: 1 MiB of squared
    distances, the pairs gathered below the cut and the product factors,
    about 3.1 MiB in all, bounded with a 0.9 MiB margin.  Blocks of 32
    rows took about 5 MiB, and blocks of 128 rows about 10 MiB."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        _reference_correlation_dimension(rossler_series)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak / 2**20


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


def _assert_box_edge_matches_dense(points, exclude):
    coords = np.ascontiguousarray(points.T, dtype=float)
    box = coords[:3]
    span = float((box.max(axis=1) - box.min(axis=1)).max())
    edge = neighbors._box_edge(coords, exclude, span)
    assert edge == _dense_box_edge(coords, exclude, span), (points.shape, exclude)
    return edge, span


@pytest.mark.parametrize("exclude", [0, 3])
def test_box_edge_matches_the_dense_matrix_below_64_rows(exclude):
    for n, m in [(2, 1), (17, 2), (40, 3), (63, 5)]:
        _assert_box_edge_matches_dense(np.random.default_rng(n).normal(size=(n, m)), exclude)


@pytest.mark.parametrize("exclude", [60, 120, 199])
def test_box_edge_matches_the_dense_matrix_with_the_band_clipped_at_both_ends(exclude):
    """Sample rows near either end have their band clipped at that end, and
    from exclude 100 on the middle rows' band covers the whole set."""
    points = np.random.default_rng(10).normal(size=(200, 3))
    _assert_box_edge_matches_dense(points, exclude)


@pytest.mark.parametrize("exclude", [50, 51, 80])
def test_box_edge_without_admissible_pairs_is_the_mean_spacing(exclude):
    points = np.random.default_rng(11).normal(size=(50, 2))
    edge, span = _assert_box_edge_matches_dense(points, exclude)
    assert edge == span / 50**0.5


@pytest.mark.parametrize("m", [2, 5])
def test_box_edge_of_quantised_delay_vectors_is_the_mean_spacing(m):
    s = np.round(5.0 * np.sin(0.07 * np.arange(3000)))
    edge, span = _assert_box_edge_matches_dense(_delay_set(s, 5, m), 0)
    assert edge == span / (3000 - (m - 1) * 5) ** (1.0 / min(m, 3))


@pytest.mark.parametrize("exclude", [0, 117])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_box_edge_matches_the_dense_matrix_on_the_reference_delay_set(rossler_series, m, exclude):
    _assert_box_edge_matches_dense(_delay_set(rossler_series.values[:, 0], 26, m), exclude)


def test_nearest_does_not_depend_on_the_pair_budget(monkeypatch):
    """The rows go in key order through chunks of at most budget / 3^(k-1)
    rows, and each chunk's pairs through parts of whole rows.  With budget
    1 every row is a chunk of its own; with 7, 16, 64 and 100 the chunks
    split the rows many times at k = 1, 2 and 3, and a row with more
    candidates than the budget starts a new part.  Indices equal the
    oracle's, and indices and distances those of the default budget, bit
    for bit."""
    rng = np.random.default_rng(12)
    t = np.arange(360) * (2.0 * np.pi / 120.0)
    wave = np.sin(0.3 * np.arange(260)) + 0.05 * rng.normal(size=260)
    cases = [(points, exclude) for points in _random_sets() for exclude in (0, 5)]
    cases += [
        (np.array(list(np.ndindex(5, 5, 5)), dtype=float), 1),
        (np.stack([np.cos(t), np.sin(t), 0.1 * np.sin(3.0 * t)], axis=1), 40),
        (rng.normal(size=(60, 3))[rng.integers(0, 60, size=200)], 0),
        (_delay_set(wave, 5, 1), 0),
        (_delay_set(wave, 5, 2), 3),
    ]
    for points, exclude in cases:
        nn_default, dist_default = nearest(points, exclude)
        nn_ref, dist_ref = _oracle_nearest(points, exclude)
        assert np.array_equal(nn_default, nn_ref)
        np.testing.assert_allclose(dist_default, dist_ref, rtol=1e-12, atol=0.0)
        for budget in (1, 7, 16, 64, 100):
            monkeypatch.setattr(neighbors, "_PAIR_BUDGET", budget)
            nn, dist = nearest(points, exclude)
            monkeypatch.undo()
            assert np.array_equal(nn, nn_ref), budget
            assert np.array_equal(dist, dist_default), budget


@pytest.mark.parametrize("exclude", [0, 117])
def test_nearest_scratch_memory_stays_bounded_on_the_reference_delay_set(rossler_series, exclude):
    """Scratch linear in n: about 4.5 MiB here, the results included; with
    every row's key ranges held at once it took 8.8 MiB.  A dense (64, n)
    distance matrix for the first box edge alone would take about 30 MiB.
    A first call on a few points leaves out what numpy allocates once."""
    points = _delay_set(rossler_series.values[:, 0], 26, 3)
    nearest(points[:200], exclude)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        nearest(points, exclude)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak / 2**20
