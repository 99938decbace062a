"""Neighbour search shared by false nearest neighbours, the correlation sum
and the Lyapunov estimate, with pairs close in time (the Theiler band) left
out.

``nearest`` is an exact box-assisted search in the style of TISEAN
(Schreiber 1995): the points are put into boxes of edge eps on their first
min(m, 3) coordinates, and each row is compared only with the points in the
3^k boxes around its own.  A row whose nearest candidate lies within eps is
final, and the other rows are searched again with eps doubled.  Its
scratch memory grows with n, not with the sample or the pair count: the
first box edge is found one sample row at a time in two reused n-length
buffers, and a box pass takes its rows in key order, fewer than
``_PAIR_BUDGET`` (2^15) key ranges at a time, and expands their candidate
pairs in parts of whole rows, each fewer than that beyond its first row's.

The correlation sum needs every pair, so ``pair_distance_counts`` keeps an
O(n^2) pass over blocks of 16 rows, each compared only with the later rows.
One matrix product per block gives the squared distances, which are binned
against the squared edges without taking a square root.  A guard zone as
wide as the product's rounding bound lies around every squared edge, and
the few pairs that land in one are counted again by direct differences, so
every pair lands where ``np.histogram`` puts its directly computed
distance, whatever the block height or the BLAS.

Given a cut, the pass bins only the pairs below the cut and counts the
others only in the total.  The correlation dimension takes the cut from a
pilot count on every 8th point, with the Theiler window thinned by 8, at
the upper edge of the first bin where the pilot's C(r) reaches 0.3.  Its
scaling fit reads no bin with C(r) > 0.2, so a cut below which more than
0.2 of all pairs fall leaves every bin the fit reads exact; otherwise it
counts every pair again in full.

Every caller first passes its data through ``unit_scale``, which moves a
set far from unit scale to it by an exact power of two, so that squared
distances neither overflow nor underflow.
"""

import itertools
import math

import numpy as np

from .errors import InvalidValue

# rows of a block of the pair count
_CHUNK = 16
# rows of the direct search that sets the first box edge
_EDGE_SAMPLE = 64
# key ranges a box pass builds at once, and candidate pairs it expands at
# once beyond the first row of a part; it holds a few arrays of this length
_PAIR_BUDGET = 1 << 15
# a row is final only clearly inside eps, so that rounding in the box
# coordinates cannot push an equally near point two boxes away
_MARGIN = 1.0 - 1e-6
# boxes per axis, so that the combined box key of three axes fits int64
_MAX_CELLS = 1 << 20


def unit_scale(values):
    """``values`` times 2**shift, and shift.

    Far from unit scale squared distances and powers overflow or lose
    precision.  When the largest range of a column (of the array itself
    when it is 1-D) lies outside [2^-256, 2^256], shift brings it into
    [1, 2); multiplying by a power of two scales every distance exactly.
    Otherwise shift is 0 and ``values`` is returned as it is.  Halves keep
    the range finite.
    """
    half = float(np.max(values.max(axis=0) / 2 - values.min(axis=0) / 2))
    shift = -math.frexp(half)[1] if half and not 2.0**-257 <= half <= 2.0**255 else 0
    return (np.ldexp(values, shift) if shift else values), shift


def _squared_distances(coords, i, j):
    """Squared distances of the pairs (i, j) of the points whose coordinate
    rows are ``coords``, direct differences squared and summed in order."""
    d2 = np.zeros(len(i))
    for x in coords:
        diff = x[i]
        diff -= x[j]
        diff *= diff
        d2 += diff
    return d2


def _box_edge(coords, exclude, span):
    """First box edge: the 0.75 quantile of the exact nearest distances of
    up to 64 strided rows, found by direct differences.  When that is 0, as
    in quantised data full of duplicates, it is the mean spacing of n
    points over the span of the box coordinates instead.  ``coords`` holds
    the points' coordinates as rows.

    The sample rows are taken one at a time into two reused n-length
    buffers, each adding its squared coordinate differences in coordinate
    order, so the scratch memory is 2 n doubles whatever the sample size.
    """
    m, n = coords.shape
    sample = np.arange(0, n, -(-n // _EDGE_SAMPLE))
    d2 = np.empty(n)
    diff = np.empty(n)
    nearest2 = np.empty(sample.size)
    for r, i in enumerate(sample.tolist()):
        d2.fill(0.0)
        for x in coords:
            np.subtract(x, x[i], out=diff)
            np.multiply(diff, diff, out=diff)
            d2 += diff
        # the band clipped at either end of the row
        d2[max(i - exclude, 0) : i + exclude + 1] = np.inf
        nearest2[r] = d2.min()
    d = np.sqrt(nearest2)
    d = d[np.isfinite(d)]
    eps = float(np.quantile(d, 0.75)) if d.size else 0.0
    if eps == 0.0:
        eps = span / n ** (1.0 / min(m, 3))
    if eps == 0.0:
        return 1.0
    return max(eps, span / _MAX_CELLS)


def _nearest_in_ranges(coords, exclude, order, rows, first, count):
    """Nearest admissible point of row r of ``rows`` among the points
    order[first[r, s] : first[r, s] + count[r, s]] over its ranges s, as
    (positions in ``rows`` with a candidate, squared distances, indices);
    ties go to the lowest index.  Its pair-length scratch is freed on return."""
    per_row = count.sum(axis=1)
    first, count = first.ravel(), count.ravel()
    # each step reuses or rebinds the last pair-length array
    j = np.repeat(first - (np.cumsum(count) - count), count)
    j += np.arange(j.size)
    j = order[j]
    local = np.repeat(np.arange(rows.size), per_row)
    keep = np.abs(rows[local] - j) > exclude
    j, local = j[keep], local[keep]
    if j.size == 0:
        return local, np.empty(0), j
    d2 = _squared_distances(coords, rows[local], j)
    start = np.flatnonzero(np.concatenate([[True], local[1:] != local[:-1]]))
    row_best = np.minimum.reduceat(d2, start)
    tied = d2 == np.repeat(row_best, np.diff(np.append(start, d2.size)))
    return local[start], row_best, np.minimum.reduceat(np.where(tied, j, order.size), start)


def _box_pass(coords, exclude, eps, rows):
    """Nearest admissible candidate of each row in ``rows`` among the points
    in the 3^k boxes of edge ``eps`` around it.  ``coords`` holds the
    points' coordinates as rows.

    Returns (index, squared distance); a row without candidates gets index
    0 and inf.  Ties go to the lowest index.
    """
    k = min(coords.shape[0], 3)
    box = coords[:k]
    low = box.min(axis=1, keepdims=True)
    # cells run from 1 to at most radix - 2, so the boxes on either side of
    # every cell have keys of their own; floor is monotone, so the largest
    # cell is that of the largest coordinate
    radix = int(np.floor((box.max(axis=1) - low[:, 0]) / eps).max()) + 3
    weight = radix ** np.arange(k - 1, -1, -1, dtype=np.int64)
    key = weight @ (np.floor((box - low) / eps).astype(np.int64) + 1)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # one key range per pair of leading offsets: the three boxes along the
    # last axis are contiguous in sorted order
    leading = np.array(list(itertools.product((-1, 0, 1), repeat=k - 1)), dtype=np.int64)
    shift = leading @ weight[: k - 1]

    nn = np.zeros(rows.size, dtype=np.intp)
    best = np.full(rows.size, np.inf)
    # in key order the range queries of a chunk come sorted
    by_key = np.argsort(key[rows], kind="stable")
    step = max(_PAIR_BUDGET // shift.size, 1)
    for at in range(0, rows.size, step):
        pos = by_key[at : at + step]
        keys = key[rows[pos]]
        first = np.searchsorted(sorted_key, shift[:, None] + (keys - 1), side="left").T
        count = np.searchsorted(sorted_key, shift[:, None] + (keys + 1), side="right").T - first
        window = np.cumsum(count.sum(axis=1)) // _PAIR_BUDGET
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(window)) + 1, [pos.size]])
        for a, b in zip(bounds[:-1], bounds[1:]):
            found, d2, j = _nearest_in_ranges(
                coords, exclude, order, rows[pos[a:b]], first[a:b], count[a:b]
            )
            best[pos[a:b][found]] = d2
            nn[pos[a:b][found]] = j
    return nn, best


def nearest(points, exclude):
    """Nearest neighbour of every row among the rows more than ``exclude``
    apart in index; ``exclude=0`` leaves out only the point itself.

    Returns (index, distance), one entry per row.  Ties go to the lowest
    index.  The distance is the root of the squared distance the search
    compared; a row with no admissible partner gets index 0 and distance inf.

    Box-assisted and exact.  The points are boxed on their first
    k = min(m, 3) coordinates.  The first box edge eps is the 0.75 quantile
    of the nearest distances of 64 strided rows (the mean spacing when that
    is 0).  A row whose best candidate lies within eps is final: every
    point at most that far away is within eps in each box coordinate, so
    it sits in one of the 3^k adjacent boxes, ties included.  The other
    rows are searched again at 2 eps.  Once eps reaches the span of the box
    coordinates every point is in an adjacent box, so that pass is
    exhaustive and ends the search.

    The scratch memory is a few n-length arrays, the key ranges of one
    chunk of rows and the candidate pairs of one part of it, each fewer
    than ``_PAIR_BUDGET`` (pairs beyond the part's first row's): about
    4.5 MiB on the 20000-point reference delay set at m = 3.  Chunks and
    parts never split a row, so the result does not depend on the budget.
    """
    n = points.shape[0]
    nn = np.zeros(n, dtype=np.intp)
    i = np.arange(n)
    # a row within ``exclude`` of both ends has no admissible partner, and
    # searching for one would run every pass up to the exhaustive one
    alone = (i <= exclude) & (i >= n - 1 - exclude)
    rows = np.flatnonzero(~alone)
    coords = np.ascontiguousarray(points.T, dtype=float)
    if rows.size:
        box = coords[:3]
        span = float((box.max(axis=1) - box.min(axis=1)).max())
        eps = _box_edge(coords, exclude, span)
        while rows.size:
            found, d2 = _box_pass(coords, exclude, eps, rows)
            final = (d2 <= (eps * _MARGIN) ** 2) | (eps >= span)
            nn[rows[final]] = found[final]
            rows = rows[~final]
            eps *= 2.0
    dist = np.sqrt(_squared_distances(coords, i, nn))
    dist[alone] = np.inf
    return nn, dist


def _recount(points, d2, guarded, start, first, edges):
    """Histogram against ``edges`` of the roots of the block's pairs whose
    product value in ``d2`` lies in a guard zone of ``guarded``, their squared
    distances summed again from direct differences in coordinate order.
    Entry (r, c) of ``d2`` pairs row start + r with row first + c."""
    r, c = np.nonzero(np.searchsorted(guarded, d2, side="right") & 1)
    exact = _squared_distances(points.T, r + start, c + first)
    return np.histogram(np.sqrt(exact), bins=edges)[0]


def pair_distance_counts(points, edges, theiler, bins=None):
    """Histogram of the distances of the pairs j - i > ``theiler`` against
    ``edges``, each pair counted once; the bins are those of
    ``np.histogram``, the last one closed.

    Returns (counts per bin, total number of admissible pairs).  With
    ``bins`` (0 < bins < number of bins), the cut is the lower edge of bin
    ``bins``: only the pairs below it are binned, and that bin and the
    later ones stay empty, their pairs counted only in the total.  The
    counts of the first ``bins`` bins are those of the full histogram.

    Each block of ``_CHUNK`` rows is compared only with the columns from
    its first row plus ``theiler`` + 1 on, one triangular mask marking the
    band.  One matrix product per block gives the squared distances of the
    centred points p_i = x_i - mean: row i of lhs = [|p_i|^2, 1, -2 p_i]
    times column j of rhs = [1, |p_j|^2, p_j] is |p_i - p_j|^2.  Centring
    keeps an offset in the data from swamping the distances.  The values
    are binned against the squared edges, so no root is taken.

    The pairs are binned as ``np.histogram`` bins sqrt(d_ij), d_ij the
    squared distance summed from the direct differences x_i - x_j in
    coordinate order.  A dot product of length k, summed in any order, with
    or without fused multiply-adds, is off by at most
    gamma_k = k u / (1 - k u) times the sum of its absolute terms, with
    u = 2^-53 (Higham 2002, section 3.1).  With m coordinates and
    S = max |p_i|^2 as computed, the product value differs from d_ij by at
    most (10 m + 24) u S to first order in u:
    - the product, of length m + 2, whose absolute terms sum to at most
      4 S: 4 (m + 2) u S;
    - the computed |p_i|^2 and |p_j|^2: 2 m u S;
    - centring, which rounds each p_i by at most u |p_i| and so moves
      |p_i - p_j|^2 from |x_i - x_j|^2 by at most 8 u S;
    - d_ij itself, off from |x_i - x_j|^2 <= 4 S by gamma_(m+2):
      4 (m + 2) u S.
    B = 16 (m + 3) u S is at least 1.6 times that, which covers the
    higher-order terms and the rounding of B, and (m + 3) 2^-1070 more
    covers products that underflow.  It also covers the rounding of e*e:
    the exact threshold where sqrt(d_ij) crosses the edge e differs from
    e*e by at most about 4 u e^2, and B exceeds the first-order error by
    (6 m + 24) u S >= 30 u S, so only an edge with e^2 > 7.5 S could misbin
    a pair, and no pair is that far apart: every d_ij is at most about 4 S.
    Each edge e gets the guard zone [e*e - B, e*e + B), its ends rounded
    outward, but a lower edge at or below 0, which every pair reaches, gets
    none, nor does a negative closed last edge, which none reaches.  A
    product value outside every zone lies on the same side of every
    threshold as d_ij, so it is binned as it is.  A pair in a zone, the
    cut's included, is summed again by direct differences and binned by
    sqrt(d_ij).  Every count is therefore that of d_ij, for any block
    height and any BLAS that forms each entry of a product as such a dot
    product.

    Raises
    ------
    InvalidValue
        when ``bins`` is given outside 0 < bins < number of bins.
    """
    top = edges.size - 1
    if bins is not None:
        if not 0 < bins < top:
            raise InvalidValue(f"bins must lie in 1 .. {top - 1}, got {bins}")
        top = bins
    n, m = points.shape
    p = points - points.mean(axis=0)
    sq = np.einsum("ij,ij->i", p, p)
    lhs = np.column_stack([sq, np.ones(n), -2.0 * p])
    rhs = np.vstack([np.ones(n), sq, p.T])
    bound = 16 * (m + 3) * 2.0**-53 * sq.max(initial=0.0) + (m + 3) * 2.0**-1070
    t = np.where(edges > 0.0, edges * edges, -np.inf)
    # the closed last edge 0 holds the pairs at distance 0
    t[-1] = -np.inf if edges[-1] < 0.0 else edges[-1] * edges[-1]
    # the zone of edge k is bin 2k of ``guarded``, and bin k of the counts
    # lies between zones k and k + 1, in bin 2k + 1; where two zones
    # overlap, the running maximum empties the bin between them, so its
    # pairs are all recounted
    t = t[: top + 1]
    zones = [np.nextafter(t - bound, -np.inf), np.nextafter(t + bound, np.inf)]
    guarded = np.maximum.accumulate(np.where(np.isfinite(t), zones, t).T.ravel())
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    buf = np.empty(min(_CHUNK, n) * n)
    band = np.tri(_CHUNK, k=-1, dtype=bool)
    for start in range(0, n - theiler - 1, _CHUNK):
        first = start + theiler + 1
        rows, cols = min(_CHUNK, n - start), n - first
        w = min(rows, cols)
        d2 = buf[: rows * cols].reshape(rows, cols)
        np.matmul(lhs[start : start + rows], rhs[:, first:], out=d2)
        # entry (r, c) pairs row start + r with row first + c, inside the
        # band when c < r; a band pair becomes +inf, above every zone
        d2[:, :w][band[:rows, :w]] = np.inf
        kept = d2[d2 < guarded[-1]]
        # every kept value lies below the last zone end, so this is
        # np.histogram's count, without its sorted copy
        kept.sort()
        binned = np.diff(np.searchsorted(kept, guarded))
        counts[:top] += binned[1::2]
        if binned[::2].any():
            counts[:top] += _recount(points, d2, guarded, start, first, edges)[:top]
    pairs = max(n - theiler - 1, 0)
    return counts, pairs * (pairs + 1) // 2
