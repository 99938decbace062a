"""Brute-force neighbour search shared by false nearest neighbours, the
correlation sum and the Lyapunov estimate: O(n^2) work in blocks of rows,
with pairs close in time (the Theiler band) left out."""

import numpy as np

_CHUNK = 256


def _distance_blocks(points, exclude):
    """Yield (rows, d2): a column of row indices and the squared distances
    from those rows to every point, with pairs |i - j| <= ``exclude`` set to
    inf.  ``d2`` is overwritten by the next block.  Centring first keeps an
    offset in the data from swamping the distances in the |a|^2 + |b|^2 -
    2 a.b form.
    """
    p = points - points.mean(axis=0)
    sq = np.einsum("ij,ij->i", p, p)
    n = p.shape[0]
    # two reused buffers: fresh multi-megabyte temporaries cost page faults
    buf = np.empty((2, min(_CHUNK, n), n))
    # a column index clipped at either end stays inside its row's band
    offsets = np.arange(-min(exclude, n), min(exclude, n) + 1)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        d2, dot = buf[:, : stop - start]
        np.add(sq[start:stop, None], sq[None, :], out=d2)
        np.matmul(p[start:stop], p.T, out=dot)
        dot *= 2.0
        d2 -= dot
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(start, stop)[:, None]
        d2[rows - start, np.clip(rows + offsets, 0, n - 1)] = np.inf
        yield rows, d2


def nearest(points, exclude):
    """Nearest neighbour of every row among the rows more than ``exclude``
    apart in index; ``exclude=0`` leaves out only the point itself.

    Returns (index, distance), one entry per row.  Ties go to the lowest
    index.  The distance is the norm of the difference of the pair; a row
    with no admissible partner gets distance inf.
    """
    nn = np.concatenate([np.argmin(d2, axis=1) for _, d2 in _distance_blocks(points, exclude)])
    dist = np.linalg.norm(points - points[nn], axis=1)
    i = np.arange(nn.size)
    dist[(i <= exclude) & (i >= nn.size - 1 - exclude)] = np.inf
    return nn, dist


def pair_distance_counts(points, edges, theiler):
    """Histogram of the distances of the pairs j - i > ``theiler`` against
    ``edges``, each pair counted once.

    Returns (counts per bin, total number of admissible pairs).
    """
    n = points.shape[0]
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    total = 0
    for rows, d2 in _distance_blocks(points, theiler):
        # no row of the block pairs with a column before `first`, and every
        # row pairs with all columns from `far` on
        first = rows[0, 0] + theiler + 1
        far = min(rows[-1, 0] + theiler + 1, n)
        near = d2[:, first:far][np.arange(first, far) - rows > theiler]
        for part in (near, d2[:, far:]):
            total += part.size
            counts += np.histogram(np.sqrt(part), bins=edges)[0]
    return counts, total
