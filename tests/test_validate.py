"""Tests for the correlation dimension, Lyapunov exponent, spectral period
helper, and series comparison metrics."""

import numpy as np
import pytest

import chaosid as ci
from chaosid import validate
from chaosid.neighbors import nearest


def _embedding_from_states(states, dt=1.0):
    states = np.asarray(states, dtype=float)
    return ci.DelayEmbedding(states=states, tau=1, m=states.shape[1], dt=dt)


# ---------------------------------------------------------------------------
# correlation dimension


def test_correlation_dimension_of_a_line():
    rng = np.random.default_rng(41)
    t = rng.uniform(0.0, 1.0, 4000)
    points = np.column_stack([t, 2.0 * t])
    est = ci.correlation_dimension(points)
    assert 0.95 < est.dimension < 1.05
    assert est.reliable
    assert est.n_points == 4000


def test_correlation_dimension_of_a_square():
    rng = np.random.default_rng(42)
    points = rng.uniform(0.0, 1.0, size=(4000, 2))
    est = ci.correlation_dimension(points)
    assert 1.9 < est.dimension < 2.1
    assert est.reliable


def test_correlation_dimension_scale_invariant():
    rng = np.random.default_rng(43)
    points = rng.uniform(0.0, 1.0, size=(2000, 2))
    a = ci.correlation_dimension(points)
    # a power-of-two factor rescales distances and radii exactly, so the
    # pair counts and the fitted slope must not move
    b = ci.correlation_dimension(4.0 * points)
    assert abs(a.dimension - b.dimension) < 1e-9


@pytest.mark.parametrize(
    "scale, offset",
    [(1e160, 0.0), (2.0**600, 0.0), (1e-160, 0.0), (1e-200, 0.0), (1.6e308, -0.8e308)],
    ids=["1e160", "2**600", "1e-160", "1e-200", "range beyond the largest double"],
)
def test_correlation_dimension_at_extreme_scales(scale, offset):
    """Squared distances of such sets overflow or go subnormal; the points
    are brought to unit scale by a power of two first.  Warnings are
    errors in this suite, so an overflow fails here too."""
    points = np.random.default_rng(0).uniform(size=(500, 2))
    unit = ci.correlation_dimension(points)
    scaled = ci.correlation_dimension(points * scale + offset)
    assert scaled.dimension == pytest.approx(unit.dimension, rel=1e-9)
    assert scaled.r_squared == pytest.approx(unit.r_squared, rel=1e-9)
    assert scaled.fit_range == pytest.approx([r * scale for r in unit.fit_range], rel=1e-9)


def test_correlation_dimension_coincident_points():
    with pytest.raises(ci.NoScalingRegion):
        ci.correlation_dimension(np.ones((100, 2)))


def test_correlation_dimension_too_few_points():
    with pytest.raises(ci.InsufficientData):
        ci.correlation_dimension(np.zeros((9, 2)))


def test_correlation_dimension_accepts_embedding():
    rng = np.random.default_rng(44)
    t = rng.uniform(0.0, 1.0, 2000)
    emb = _embedding_from_states(np.column_stack([t, t]))
    est = ci.correlation_dimension(emb)
    assert 0.9 < est.dimension < 1.1


def test_correlation_dimension_subsample_bound():
    rng = np.random.default_rng(45)
    points = rng.uniform(0.0, 1.0, size=(3000, 2))
    est = ci.correlation_dimension(points, max_points=1000)
    assert est.n_points == 1000
    assert 1.8 < est.dimension < 2.2


def test_correlation_dimension_theiler_excludes_all_pairs():
    points = np.column_stack([np.linspace(0.0, 1.0, 50), np.zeros(50)])
    with pytest.raises(ci.InsufficientData):
        ci.correlation_dimension(points, theiler_window=60)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_correlation_dimension_rejects_non_finite_points(bad):
    points = np.random.default_rng(46).uniform(0.0, 1.0, size=(500, 2))
    points[123, 1] = bad
    with pytest.raises(ci.InvalidValue, match="finite"):
        ci.correlation_dimension(points)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"theiler_window": 2.0},
        {"theiler_window": np.float64(3.0)},
        {"max_points": 10.5},
        {"max_points": 1000.0},
    ],
)
def test_correlation_dimension_rejects_non_integral_counts(kwargs):
    points = np.random.default_rng(47).uniform(0.0, 1.0, size=(500, 2))
    with pytest.raises(ci.InvalidValue, match="integer"):
        ci.correlation_dimension(points, **kwargs)


@pytest.mark.parametrize("integer", [int, np.int64, np.int32, np.intp])
def test_correlation_dimension_accepts_python_and_numpy_integers(integer):
    points = np.random.default_rng(48).uniform(0.0, 1.0, size=(1500, 2))
    ref = ci.correlation_dimension(points, theiler_window=3, max_points=1000)
    est = ci.correlation_dimension(points, theiler_window=integer(3), max_points=integer(1000))
    assert est == ref


_PAIR_DISTANCE_COUNTS = validate.pair_distance_counts


def _full_count_only(points, edges, theiler, bins=None):
    """``pair_distance_counts`` that ignores the cut: the uncut oracle."""
    return _PAIR_DISTANCE_COUNTS(points, edges, theiler)


def test_correlation_dimension_recounts_in_full_when_the_cut_is_too_low(monkeypatch):
    """Every 8th point lies in a small square inside the unit square, so
    the pilot, which takes exactly those points, reaches C = 0.3 where the
    whole set's C is far below 0.2.  The cut fails the check, the pairs are
    counted again in full, and the fit reads bins above the cut."""
    rng = np.random.default_rng(50)
    points = rng.uniform(0.0, 1.0, size=(2000, 2))
    points[::8] = 0.4 + 0.2 * rng.uniform(0.0, 1.0, size=(250, 2))
    calls = []

    def spy(points, edges, theiler, bins=None):
        counts, total = _PAIR_DISTANCE_COUNTS(points, edges, theiler, bins)
        calls.append((points.shape[0], bins, counts.sum() / total, edges))
        return counts, total

    monkeypatch.setattr(validate, "pair_distance_counts", spy)
    est = ci.correlation_dimension(points)
    (pilot, _, _, _), (_, cut, below, edges), (_, full, _, _) = calls
    assert pilot == 250 and cut is not None and below < 0.2 and full is None
    assert est.fit_range[1] > edges[cut]
    monkeypatch.setattr(validate, "pair_distance_counts", _full_count_only)
    assert est == ci.correlation_dimension(points)


def test_correlation_dimension_cut_count_matches_the_full_count(monkeypatch, rossler_series):
    s = rossler_series.values[:, 0]
    points = s[np.arange(s.size - 52)[:, None] + np.arange(3) * 26]
    bins = []

    def spy(points, edges, theiler, cut=None):
        bins.append(cut)
        return _PAIR_DISTANCE_COUNTS(points, edges, theiler, cut)

    monkeypatch.setattr(validate, "pair_distance_counts", spy)
    est = ci.correlation_dimension(points, theiler_window=78)
    # the pilot, then the cut count, and no recount
    assert len(bins) == 2 and bins[0] is None and bins[1] is not None
    monkeypatch.setattr(validate, "pair_distance_counts", _full_count_only)
    assert est == ci.correlation_dimension(points, theiler_window=78)


# ---------------------------------------------------------------------------
# largest Lyapunov exponent


def test_lyapunov_contracting_sequence():
    # x(k+1) = 0.9 x(k): every pair distance shrinks by exactly 0.9 per
    # step, so the divergence slope is ln 0.9
    states = (0.9 ** np.arange(60.0)).reshape(-1, 1)
    est = ci.largest_lyapunov(_embedding_from_states(states), mean_period=5)
    assert np.isclose(est.exponent, np.log(0.9), atol=1e-9)
    assert est.n_pairs > 0


def test_lyapunov_expanding_sequence_and_time_reversal():
    states = (1.05 ** np.arange(120.0)).reshape(-1, 1)
    forward = ci.largest_lyapunov(_embedding_from_states(states), mean_period=5)
    backward = ci.largest_lyapunov(
        _embedding_from_states(states[::-1]), mean_period=5
    )
    assert np.isclose(forward.exponent, np.log(1.05), atol=1e-9)
    assert np.isclose(backward.exponent, -np.log(1.05), atol=1e-9)
    assert np.isclose(forward.exponent, -backward.exponent, atol=1e-9)


def test_lyapunov_circle_is_neutral():
    # an incommensurate phase step keeps revisits close but never exactly
    # coincident; rigid rotation leaves every pair distance constant
    k = np.arange(600)
    phase = 0.1237 * k
    states = np.column_stack([np.sin(phase), np.cos(phase)])
    est = ci.largest_lyapunov(_embedding_from_states(states), mean_period=51)
    assert abs(est.exponent) < 1e-6


def test_lyapunov_dt_scales_exponent():
    states = (0.9 ** np.arange(60.0)).reshape(-1, 1)
    emb = _embedding_from_states(states, dt=0.5)
    est = ci.largest_lyapunov(emb, mean_period=5)
    assert np.isclose(est.exponent, np.log(0.9) / 0.5, atol=1e-9)


def test_lyapunov_identical_points_rejected():
    states = np.ones((100, 2))
    with pytest.raises(ci.InsufficientData):
        ci.largest_lyapunov(_embedding_from_states(states), mean_period=5)


def test_lyapunov_needs_enough_states():
    with pytest.raises(ci.InsufficientData):
        ci.largest_lyapunov(_embedding_from_states(np.zeros((10, 2))))


def test_lyapunov_explicit_fit_range():
    states = (0.9 ** np.arange(80.0)).reshape(-1, 1)
    est = ci.largest_lyapunov(
        _embedding_from_states(states), mean_period=5, fit_range=(2, 10)
    )
    assert est.fit_range == (2, 10)
    assert np.isclose(est.exponent, np.log(0.9), atol=1e-9)


def _norm_loop_exponent(embedding, mean_period):
    """The exponent as the earlier divergence loop computed it: every step
    of the default horizon, with np.linalg.norm on gathered pair rows."""
    states = embedding.states
    n = states.shape[0]
    separation = max(1, int(round(mean_period)))
    max_steps = int(min(max(3 * separation, 10), n // 4))
    neighbor, dist = nearest(states[: n - max_steps], separation)
    i_idx = np.flatnonzero(np.isfinite(dist) & (dist > 0.0))
    j_idx = neighbor[i_idx]
    curve = np.empty(max_steps)
    for step in range(max_steps):
        d = np.linalg.norm(states[i_idx + step] - states[j_idx + step], axis=1)
        curve[step] = np.mean(np.log(d[d > 0.0]))
    hi = max(2, max_steps // 2)
    return np.polyfit(np.arange(hi), curve[:hi], 1)[0] / embedding.dt


@pytest.mark.parametrize("m", [3, 8, 9, 10])
def test_lyapunov_matches_the_norm_loop(m):
    # the loop sums squares in coordinate order: the same bits as the row
    # norm below 8 coordinates, where numpy's row sum is sequential, and
    # the same value to rounding from 8 on, where it is pairwise
    x = np.empty(1500)
    x[0] = 0.3
    for k in range(1, x.size):
        x[k] = 3.9 * x[k - 1] * (1.0 - x[k - 1])
    emb = ci.delay_embed(ci.TimeSeries(x, dt=0.1), tau=1, m=m)
    est = ci.largest_lyapunov(emb, mean_period=20)
    reference = _norm_loop_exponent(emb, mean_period=20)
    assert est.exponent == pytest.approx(reference, rel=1e-12)
    if m < 8:
        assert est.exponent == reference


# ---------------------------------------------------------------------------
# dominant period


def test_dominant_period_pure_tone():
    k = np.arange(1000)
    values = np.sin(2.0 * np.pi * 20.0 * k / 1000.0)
    assert ci.dominant_period(values) == 50.0


def test_dominant_period_picks_stronger_tone():
    k = np.arange(1000)
    values = 3.0 * np.sin(2.0 * np.pi * 10.0 * k / 1000.0) + 0.5 * np.sin(
        2.0 * np.pi * 40.0 * k / 1000.0
    )
    assert ci.dominant_period(values) == 100.0


def test_dominant_period_rejects_degenerate_input():
    with pytest.raises(ci.InsufficientData):
        ci.dominant_period(np.zeros(3))
    with pytest.raises(ci.InsufficientData):
        ci.dominant_period(np.full(100, 7.0))


# ---------------------------------------------------------------------------
# comparison metrics


def test_compare_identical_series():
    rng = np.random.default_rng(46)
    values = rng.normal(size=(200, 2))
    ref = ci.TimeSeries(values, dt=0.1)
    report = ci.compare(ref, ci.TimeSeries(values.copy(), dt=0.1), with_dimension=False)
    assert np.allclose(report.nrmse, 0.0)
    assert np.allclose(report.histogram_distance, 0.0)
    assert report.dimension_delta is None


def test_compare_constant_offset_nrmse():
    rng = np.random.default_rng(47)
    values = rng.normal(size=(500, 2))
    offset = np.array([1.0, 2.0])
    ref = ci.TimeSeries(values, dt=1.0)
    mod = ci.TimeSeries(values + offset, dt=1.0)
    report = ci.compare(ref, mod, with_dimension=False)
    expected = offset / np.std(values, axis=0)
    assert np.allclose(report.nrmse, expected, atol=1e-12)
    assert np.all(report.histogram_distance > 0.0)


def test_compare_uses_common_overlap():
    rng = np.random.default_rng(48)
    values = rng.normal(size=(300, 1))
    ref = ci.TimeSeries(values, dt=1.0)
    mod = ci.TimeSeries(values[:200], dt=1.0)
    report = ci.compare(ref, mod, with_dimension=False)
    assert np.allclose(report.nrmse, 0.0)


def test_compare_channel_mismatch():
    ref = ci.TimeSeries(np.zeros((50, 2)) + np.arange(50)[:, None], dt=1.0)
    mod = ci.TimeSeries(np.arange(50.0), dt=1.0)
    with pytest.raises(ci.ChannelMismatch):
        ci.compare(ref, mod)


def test_compare_dimension_warning_on_short_series():
    rng = np.random.default_rng(49)
    values = rng.normal(size=(11, 1))
    ref = ci.TimeSeries(values, dt=1.0)
    mod = ci.TimeSeries(values + 0.1, dt=1.0)
    report = ci.compare(ref, mod, tau=2, m=2)
    assert report.dimension_delta is None
    assert any("correlation dimension unavailable" in w for w in report.warnings)
