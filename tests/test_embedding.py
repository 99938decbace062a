"""Delay embedding, delay selection, and dimension selection.

Oracles: delay coordinates are checked index-by-index against the defining
formula; the autocorrelation delay against the analytic cosine crossing; the
mutual-information curve against a brute-force binned estimate written with
plain loops and, bit for bit, against a per-lag ``np.histogram2d``; the
false-neighbor fractions against an O(N^2) reimplementation
of the distance tests.  Both scans stop at their decision, so each curve is
compared with the oracle's prefix up to the stop point the oracle implies,
and a case that never decides compares the whole range.
"""

import numpy as np
import pytest

import chaosid as ci
from chaosid.errors import InsufficientData, LagOutOfRange, NotFoundError, ZeroVariance


def test_delay_embed_formula():
    series = ci.TimeSeries(np.arange(10.0), dt=1.0)
    emb = ci.delay_embed(series, tau=2, m=3)
    assert emb.states.shape == (6, 3)
    for i in range(6):
        for j in range(3):
            assert emb.states[i, j] == i + 2 * j


def test_delay_embed_row_count_and_reindexing():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(30, 200))
        s = rng.normal(size=n)
        tau = int(rng.integers(1, 6))
        m = int(rng.integers(2, 5))
        if (m - 1) * tau >= n:
            continue
        emb = ci.delay_embed(ci.TimeSeries(s, dt=0.5), tau=tau, m=m)
        assert emb.states.shape == (n - (m - 1) * tau, m)
        for j in range(m):
            assert np.array_equal(emb.states[:, j], s[j * tau : j * tau + emb.states.shape[0]])


def test_delay_embed_too_short():
    series = ci.TimeSeries(np.arange(10.0), dt=1.0)
    with pytest.raises(InsufficientData):
        ci.delay_embed(series, tau=5, m=3)


def test_scan_lag_out_of_range():
    series = ci.TimeSeries(np.arange(10.0), dt=1.0)
    with pytest.raises(LagOutOfRange):
        ci.autocorrelation_delay(series, max_lag=50)


def test_time_series_channel_bounds():
    series = ci.TimeSeries(np.arange(6.0), dt=1.0)
    with pytest.raises(NotFoundError):
        series.channel(1)


def test_acf_delay_matches_cosine_crossing():
    # cos(2 pi k / 80) first drops below 1/e at lag 16: arccos(1/e) = 1.1961
    # and 1.1961 / (2 pi / 80) = 15.23
    k = np.arange(4000)
    series = ci.TimeSeries(np.cos(2.0 * np.pi * k / 80.0), dt=1.0)
    scan = ci.autocorrelation_delay(series, max_lag=60)
    assert scan.crossed_threshold
    assert scan.lag == 16


def test_acf_delay_constant_raises():
    with pytest.raises(ZeroVariance):
        ci.autocorrelation_delay(ci.TimeSeries(np.ones(100), dt=1.0))


def _brute_force_ami(s, max_lag, bins):
    """Plug-in mutual information with digitize-and-count loops, shared
    [min, max] bin range for both marginals, natural log.  Index = lag,
    starting at the lag-0 self-information."""
    lo, hi = float(np.min(s)), float(np.max(s))
    edges = np.linspace(lo, hi, bins + 1)
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        a = s[: len(s) - lag]
        b = s[lag:]
        ia = np.clip(np.digitize(a, edges) - 1, 0, bins - 1)
        ib = np.clip(np.digitize(b, edges) - 1, 0, bins - 1)
        joint = np.zeros((bins, bins))
        for x, y in zip(ia, ib):
            joint[x, y] += 1.0
        joint /= joint.sum()
        pa = joint.sum(axis=1)
        pb = joint.sum(axis=0)
        mi = 0.0
        for x in range(bins):
            for y in range(bins):
                if joint[x, y] > 0.0:
                    mi += joint[x, y] * np.log(joint[x, y] / (pa[x] * pb[y]))
        out[lag] = mi
    return out


def _first_strict_minimum(curve):
    """The first lag L with curve[L - 1] > curve[L] < curve[L + 1], or None."""
    for lag in range(1, len(curve) - 1):
        if curve[lag] < curve[lag - 1] and curve[lag] < curve[lag + 1]:
            return lag
    return None


def _assert_ami_stops_at_oracle_minimum(scan, oracle):
    """The scan ends one lag past the oracle's first strict minimum, or
    covers every lag when the oracle has none."""
    expected = _first_strict_minimum(oracle)
    stop = len(oracle) if expected is None else expected + 2
    assert scan.minimum_found == (expected is not None)
    assert np.array_equal(scan.lags, np.arange(stop))
    assert scan.ami.shape == (stop,)
    if expected is not None:
        assert scan.lag == expected


def test_ami_matches_brute_force():
    rng = np.random.default_rng(3)
    s = np.sin(0.17 * np.arange(600)) + 0.1 * rng.normal(size=600)
    series = ci.TimeSeries(s, dt=1.0)
    scan = ci.average_mutual_information(series, max_lag=30)
    oracle = _brute_force_ami(s, 30, scan.bins)
    assert _first_strict_minimum(oracle) is not None
    _assert_ami_stops_at_oracle_minimum(scan, oracle)
    assert np.allclose(scan.ami, oracle[: scan.ami.size], atol=1e-10)


def _histogram2d_ami(s, max_lag, bins):
    """The AMI curve from a fresh ``np.histogram2d`` of (s[k], s[k+lag]) at
    each lag over the shared [min, max] range, reduced in the same order as
    the library so that the two curves can be compared bit for bit."""
    lo, hi = float(np.min(s)), float(np.max(s))
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        joint, _, _ = np.histogram2d(
            s[: len(s) - lag], s[lag:], bins=bins, range=[[lo, hi], [lo, hi]]
        )
        pxy = joint / joint.sum()
        outer = np.outer(pxy.sum(axis=1), pxy.sum(axis=0))
        mask = pxy > 0
        out[lag] = float(np.sum(pxy[mask] * np.log(pxy[mask] / outer[mask])))
    return out


@pytest.mark.parametrize("case", ["noisy sine", "integer valued", "two bins", "no minimum"])
def test_ami_equals_per_lag_histogram2d(case):
    rng = np.random.default_rng(41)
    bins = None
    max_lag = 60
    if case == "noisy sine":
        s = np.sin(0.13 * np.arange(1500)) + 0.2 * rng.normal(size=1500)
    elif case == "integer valued":
        # values 0..24 on 12 bins of width 2: every even value sits on an
        # edge, and every 24 on the closed top edge
        s = rng.integers(0, 25, size=5000).astype(float)
        bins = 12
    elif case == "two bins":
        s = np.cos(0.05 * np.arange(800)) + 0.1 * rng.normal(size=800)
        bins = 2
    else:
        # a random walk's AMI falls at every lag up to 20: the scan runs to
        # max_lag and falls back to the autocorrelation delay
        s = rng.normal(size=2000).cumsum()
        max_lag = 20
    series = ci.TimeSeries(s, dt=1.0)
    scan = ci.average_mutual_information(series, max_lag=max_lag, bins=bins)
    oracle = _histogram2d_ami(s, max_lag, scan.bins)
    _assert_ami_stops_at_oracle_minimum(scan, oracle)
    assert np.array_equal(scan.ami, oracle[: scan.ami.size])
    if case == "no minimum":
        assert scan.lag == ci.autocorrelation_delay(series, max_lag=max_lag).lag
        assert scan.warnings


def test_ami_shuffled_series_is_flat():
    rng = np.random.default_rng(5)
    s = np.sin(0.12 * np.arange(2000))
    shuffled = rng.permutation(s)
    original = ci.average_mutual_information(ci.TimeSeries(s, dt=1.0), max_lag=40)
    flat = ci.average_mutual_information(ci.TimeSeries(shuffled, dt=1.0), max_lag=40)
    # compare past the lag-0 self-information spike, which both curves share
    assert np.ptp(flat.ami[1:]) < 0.25 * np.ptp(original.ami[1:])


def test_ami_deterministic():
    rng = np.random.default_rng(9)
    s = rng.normal(size=500).cumsum()
    a = ci.average_mutual_information(ci.TimeSeries(s, dt=1.0), max_lag=25)
    b = ci.average_mutual_information(ci.TimeSeries(s, dt=1.0), max_lag=25)
    assert a.lag == b.lag
    assert np.array_equal(a.ami, b.ami)


def _brute_force_fnn(s, tau, m_max, r_tol, a_tol):
    """Straight-loop false-neighbor fractions for every m in 1..m_max."""
    sigma = float(np.std(s))
    fractions = []
    for m in range(1, m_max + 1):
        rows = len(s) - m * tau
        if rows < 2:
            fractions.append(np.nan)
            continue
        states = np.column_stack([s[j * tau : j * tau + rows] for j in range(m)])
        false = 0
        for i in range(rows):
            d2 = np.sum((states - states[i]) ** 2, axis=1)
            d2[i] = np.inf
            j = int(np.argmin(d2))
            d = np.sqrt(d2[j])
            gap = abs(s[i + m * tau] - s[j + m * tau])
            if d == 0.0:
                false += 1 if gap > a_tol * sigma else 0
                continue
            if gap / d > r_tol or gap > a_tol * sigma:
                false += 1
        fractions.append(false / rows)
    return np.asarray(fractions)


def _assert_fnn_matches_brute_force(s, qualifies):
    """The scan ends at the oracle's first dimension below 0.05, or at
    m_max = 4 when none is, and matches the oracle up to there."""
    scan = ci.false_nearest_neighbors(ci.TimeSeries(s, dt=1.0), tau=3, m_max=4)
    oracle = _brute_force_fnn(s, 3, 4, r_tol=10.0, a_tol=2.0)
    below = np.nonzero(oracle < 0.05)[0]
    assert (below.size > 0) == qualifies
    stop = below[0] + 1 if qualifies else 4
    assert scan.finite_dimension == qualifies
    assert scan.m == stop
    assert np.array_equal(scan.dims, np.arange(1, stop + 1))
    assert np.allclose(scan.fractions, oracle[:stop], atol=1e-12)


def test_fnn_matches_brute_force():
    rng = np.random.default_rng(13)
    s = np.sin(0.11 * np.arange(400)) + 0.05 * rng.normal(size=400)
    _assert_fnn_matches_brute_force(s, qualifies=True)


def test_fnn_matches_brute_force_when_no_dimension_qualifies():
    _assert_fnn_matches_brute_force(np.random.default_rng(13).normal(size=400), qualifies=False)


def test_fnn_ramp_is_one_dimensional():
    series = ci.TimeSeries(np.linspace(0.0, 1.0, 500), dt=1.0)
    scan = ci.false_nearest_neighbors(series, tau=1, m_max=4)
    assert scan.finite_dimension
    assert scan.m == 1


def test_fnn_stops_before_dimensions_the_series_cannot_embed():
    # m = 5 at tau 12 leaves no states of a 60-sample series, but m = 2
    # already qualifies on this closed curve
    s = np.sin(0.1237 * np.arange(60))
    scan = ci.false_nearest_neighbors(ci.TimeSeries(s, dt=1.0), tau=12)
    assert scan.m == 2
    assert scan.dims.tolist() == [1, 2]


def test_fnn_white_noise_never_settles():
    rng = np.random.default_rng(21)
    series = ci.TimeSeries(rng.normal(size=1500), dt=1.0)
    scan = ci.false_nearest_neighbors(series, tau=1, m_max=5)
    assert not scan.finite_dimension
    assert scan.warnings


def test_fnn_deterministic():
    rng = np.random.default_rng(17)
    s = rng.normal(size=600).cumsum()
    series = ci.TimeSeries(s, dt=1.0)
    a = ci.false_nearest_neighbors(series, tau=2, m_max=5)
    b = ci.false_nearest_neighbors(series, tau=2, m_max=5)
    assert a.m == b.m
    assert np.array_equal(a.fractions, b.fractions)


def test_reference_series_selects_m3(rossler_embedding):
    assert rossler_embedding.m == 3
