"""Neighbour search shared by false nearest neighbours, the correlation sum
and the Lyapunov estimate, with pairs close in time (the Theiler band) left
out.

``nearest`` is an exact box-assisted search in the style of TISEAN
(Schreiber 1995): the points are put into boxes of edge eps on their first
min(m, 3) coordinates, and each row is compared only with the points in the
3^k boxes around its own.  A row whose nearest candidate lies within eps is
final, and the other rows are searched again with eps doubled.  The
correlation sum needs every pair, so ``pair_distance_counts`` keeps an
O(n^2) pass over blocks of rows, each compared only with the later rows,
and bins the squared distances against squared thresholds without taking
a square root.
"""

import itertools

import numpy as np

_CHUNK = 128
# rows of the direct search that sets the first box edge
_EDGE_SAMPLE = 64
# candidate pairs expanded at once; bounds the memory of one box pass
_PAIR_BUDGET = 1 << 18
# a row is final only clearly inside eps, so that rounding in the box
# coordinates cannot push an equally near point two boxes away
_MARGIN = 1.0 - 1e-6
# boxes per axis, so that the combined box key of three axes fits int64
_MAX_CELLS = 1 << 20


def _box_edge(coords, exclude, span):
    """First box edge: the 0.75 quantile of the exact nearest distances of
    up to 64 strided rows, found by direct differences.  When that is 0, as
    in quantised data full of duplicates, it is the mean spacing of n
    points over the span of the box coordinates instead.  ``coords`` holds
    the points' coordinates as rows."""
    m, n = coords.shape
    sample = np.arange(0, n, -(-n // _EDGE_SAMPLE))
    d2 = np.zeros((sample.size, n))
    for x in coords:
        diff = x[None, :] - x[sample, None]
        d2 += diff * diff
    # a column index clipped at either end stays inside its row's band
    band = np.arange(-min(exclude, n), min(exclude, n) + 1)
    d2[np.arange(sample.size)[:, None], np.clip(sample[:, None] + band, 0, n - 1)] = np.inf
    d = np.sqrt(d2.min(axis=1))
    d = d[np.isfinite(d)]
    eps = float(np.quantile(d, 0.75)) if d.size else 0.0
    if eps == 0.0:
        eps = span / n ** (1.0 / min(m, 3))
    if eps == 0.0:
        return 1.0
    return max(eps, span / _MAX_CELLS)


def _box_pass(coords, exclude, eps, rows):
    """Nearest admissible candidate of each row in ``rows`` among the points
    in the 3^k boxes of edge ``eps`` around it.  ``coords`` holds the
    points' coordinates as rows.

    Returns (index, squared distance); a row without candidates gets index
    0 and inf.  Ties go to the lowest index.
    """
    m, n = coords.shape
    k = min(m, 3)
    box = coords[:k]
    cell = np.floor((box - box.min(axis=1, keepdims=True)) / eps).astype(np.int64) + 1
    # cells run from 1 to at most radix - 2, so the boxes on either side of
    # every cell have keys of their own
    radix = int(cell.max()) + 2
    weight = radix ** np.arange(k - 1, -1, -1, dtype=np.int64)
    key = weight @ cell
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # one key range per pair of leading offsets: the three boxes along the
    # last axis are contiguous in sorted order
    leading = np.array(list(itertools.product((-1, 0, 1), repeat=k - 1)), dtype=np.int64)
    shift = leading @ weight[: k - 1]
    centre = key[rows, None] + shift
    first = np.searchsorted(sorted_key, centre - 1, side="left")
    count = np.searchsorted(sorted_key, centre + 1, side="right") - first
    per_row = count.sum(axis=1)
    first, count = first.ravel(), count.ravel()

    nn = np.zeros(rows.size, dtype=np.intp)
    best = np.full(rows.size, np.inf)
    # split the rows so that each chunk expands about _PAIR_BUDGET pairs
    window = np.cumsum(per_row) // _PAIR_BUDGET
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(window)) + 1, [rows.size]])
    width = shift.size
    for a, b in zip(bounds[:-1], bounds[1:]):
        c_first, c_count = first[a * width : b * width], count[a * width : b * width]
        offset = np.cumsum(c_count) - c_count
        j = order[np.repeat(c_first - offset, c_count) + np.arange(c_count.sum())]
        local = np.repeat(np.arange(b - a), per_row[a:b])
        i = rows[a:b][local]
        keep = np.abs(i - j) > exclude
        i, j, local = i[keep], j[keep], local[keep]
        if j.size == 0:
            continue
        d2 = np.zeros(j.size)
        for x in coords:
            diff = x[i] - x[j]
            d2 += diff * diff
        start = np.flatnonzero(np.concatenate([[True], local[1:] != local[:-1]]))
        row_best = np.minimum.reduceat(d2, start)
        tied = d2 == np.repeat(row_best, np.diff(np.append(start, d2.size)))
        row_nn = np.minimum.reduceat(np.where(tied, j, n), start)
        best[a + local[start]] = row_best
        nn[a + local[start]] = row_nn
    return nn, best


def nearest(points, exclude):
    """Nearest neighbour of every row among the rows more than ``exclude``
    apart in index; ``exclude=0`` leaves out only the point itself.

    Returns (index, distance), one entry per row.  Ties go to the lowest
    index.  The distance is the norm of the difference of the pair; a row
    with no admissible partner gets index 0 and distance inf.

    Box-assisted and exact.  The points are boxed on their first
    k = min(m, 3) coordinates.  The first box edge eps is the 0.75 quantile
    of the nearest distances of 64 strided rows (the mean spacing when that
    is 0).  A row whose best candidate lies within eps is final: every
    point at most that far away is within eps in each box coordinate, so
    it sits in one of the 3^k adjacent boxes, ties included.  The other
    rows are searched again at 2 eps.  Once eps reaches the span of the box
    coordinates every point is in an adjacent box, so that pass is
    exhaustive and ends the search.
    """
    n = points.shape[0]
    nn = np.zeros(n, dtype=np.intp)
    if n > 1:
        coords = np.ascontiguousarray(points.T, dtype=float)
        box = coords[:3]
        span = float((box.max(axis=1) - box.min(axis=1)).max())
        eps = _box_edge(coords, exclude, span)
        rows = np.arange(n)
        while rows.size:
            found, d2 = _box_pass(coords, exclude, eps, rows)
            final = (d2 <= (eps * _MARGIN) ** 2) | (eps >= span)
            nn[rows[final]] = found[final]
            rows = rows[~final]
            eps *= 2.0
    dist = np.linalg.norm(points - points[nn], axis=1)
    i = np.arange(n)
    dist[(i <= exclude) & (i >= n - 1 - exclude)] = np.inf
    return nn, dist


def _last_double(t, ok, toward):
    """The last double from ``t`` toward ``toward`` for which ``ok`` holds,
    where ``ok`` holds on that side of some point and fails on the other."""
    while not ok(t):
        t = np.nextafter(t, -toward)
    while (u := np.nextafter(t, toward)) != t and ok(u):
        t = u
    return t


def _squared_thresholds(edges):
    """Thresholds on squared distances that bin them as ``np.histogram``
    bins their square roots against ``edges``, the last bin closed.

    A lower edge e becomes the smallest double t with sqrt(t) >= e, or -inf
    when e <= 0, so that a squared distance rounded below zero still counts
    as distance 0.  The last edge becomes the largest t with sqrt(t) <= e.
    Each is found by stepping one double at a time from e*e.  sqrt is
    correctly rounded and monotone, so sqrt(max(d2, 0)) >= e exactly when
    d2 >= t, and likewise for the closed edge.
    """
    out = np.full(edges.size, -np.inf)
    for i, e in enumerate(edges[:-1]):
        if e > 0.0:
            out[i] = _last_double(e * e, lambda t: np.sqrt(t) >= e, -np.inf)
    e = edges[-1]
    if e >= 0.0:
        out[-1] = _last_double(e * e, lambda t: np.sqrt(t) <= e, np.inf)
    return out


def pair_distance_counts(points, edges, theiler):
    """Histogram of the distances of the pairs j - i > ``theiler`` against
    ``edges``, each pair counted once; the bins are those of
    ``np.histogram``, the last one closed.

    Returns (counts per bin, total number of admissible pairs).  Each block
    of rows is compared only with the columns from its first row plus
    ``theiler`` + 1 on.  Centring first keeps an offset in the data from
    swamping the distances in the |a|^2 + |b|^2 - 2 a.b form.  The squared
    distances are binned against ``_squared_thresholds(edges)``, which puts
    every pair in the bin its distance sqrt(max(d2, 0)) falls in, so no
    root is taken.
    """
    p = points - points.mean(axis=0)
    p2 = 2.0 * p
    sq = np.einsum("ij,ij->i", p, p)
    n = p.shape[0]
    thresholds = _squared_thresholds(edges)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    # two reused buffers: fresh multi-megabyte temporaries cost page faults
    buf = np.empty((2, min(_CHUNK, n) * n))
    for start in range(0, n - theiler - 1, _CHUNK):
        first = start + theiler + 1
        rows, cols = min(_CHUNK, n - start), n - first
        d2 = buf[0, : rows * cols].reshape(rows, cols)
        dot = buf[1, : rows * cols].reshape(rows, cols)
        np.add(sq[start : start + rows, None], sq[None, first:], out=d2)
        # scaling by 2 is exact short of underflow, so this is 2 (p_i . p_j)
        np.matmul(p2[start : start + rows], p[first:].T, out=dot)
        d2 -= dot
        # entry (r, c) pairs row start + r with row first + c, which lies
        # inside the band when c < r; inf falls outside every bin
        d2[np.tril_indices(rows, -1, cols)] = np.inf
        counts += np.histogram(d2, bins=thresholds)[0]
    pairs = max(n - theiler - 1, 0)
    return counts, pairs * (pairs + 1) // 2
