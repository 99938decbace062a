"""Validation metrics: correlation dimension, largest Lyapunov exponent,
and series-to-series comparison.

The correlation dimension follows the Grassberger-Procaccia construction:
count pairs closer than r over log-spaced radii, then read the dimension off
the slope of log C(r) against log r inside an automatically selected scaling
region.  The Lyapunov estimate follows Rosenstein's method: track the mean
log divergence of nearest neighbour pairs and fit the initial slope.  Both
search neighbours with :mod:`chaosid.neighbors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import DelayEmbedding, average_mutual_information, delay_embed
from .errors import ChannelMismatch, InsufficientData, NoScalingRegion, _finite, _integer, _positive
from .neighbors import _squared_distances, nearest, pair_distance_counts, unit_scale

#: Number of log-spaced radius bins of the correlation sum.
R_COUNT = 32
#: Largest point set the correlation sum counts; a larger one is subsampled
#: with an even stride.
MAX_POINTS = 8000
# the scaling fit reads only bins with C(r) at or below this level
_FIT_LEVEL = 0.2
# the pilot count takes every this many points, and places the cut at the
# first bin where its C(r) reaches _PILOT_LEVEL
_PILOT_STRIDE = 8
_PILOT_LEVEL = 0.3


@dataclass
class CorrelationDimension:
    """Correlation dimension estimate with its scaling-region diagnostics."""

    dimension: float
    r_squared: float
    fit_range: tuple
    reliable: bool
    n_points: int
    warnings: list = field(default_factory=list)


def _fit_counts(points, edges, theiler):
    """Pair counts per bin, exact in every bin the scaling fit can read,
    and the number of admissible pairs.

    A pilot count on every ``_PILOT_STRIDE``-th point, with the Theiler
    window thinned by the same factor, puts the cut at the upper edge of
    the first bin where the pilot's C(r) reaches ``_PILOT_LEVEL``; only
    the pairs below it are binned.  When more than ``_FIT_LEVEL`` of all
    pairs fall below the cut, C(r) exceeds that level in every later bin,
    so the fit reads none of them.  Otherwise the pairs are counted again
    in full.
    """
    pilot, pilot_total = pair_distance_counts(
        points[::_PILOT_STRIDE], edges, -(-theiler // _PILOT_STRIDE)
    )
    reached = np.flatnonzero(np.cumsum(pilot) >= _PILOT_LEVEL * pilot_total)
    if pilot_total and reached.size and reached[0] + 1 < pilot.size:
        counts, total = pair_distance_counts(points, edges, theiler, int(reached[0]) + 1)
        if counts.sum() / total > _FIT_LEVEL:
            return counts, total
    return pair_distance_counts(points, edges, theiler)


def correlation_dimension(data, theiler_window=0):
    """Grassberger-Procaccia correlation dimension.

    A set of more than ``MAX_POINTS`` (8000) points is first subsampled to
    that many with an even stride, the Theiler window thinned by the same
    factor.  Pairs are counted over ``R_COUNT`` (32) log-spaced radii from
    1e-3 of the point set's diameter up to the diameter.  Only the pairs below a
    cut taken from a pilot count on every 8th point are binned; unless more
    than 0.2 of all pairs fall below it, the pairs are counted again in
    full.  Either way every bin the scaling fit reads is exact, so the
    result is that of a full count.

    Parameters
    ----------
    data : DelayEmbedding or ndarray
        Point set; an embedding contributes its states.
    theiler_window : int
        Pairs closer than this in time are excluded.  Python and numpy
        integers are accepted.

    Returns
    -------
    CorrelationDimension
        ``reliable`` is False when the fit explains less than 0.98 of the
        variance inside the chosen region.

    Raises
    ------
    NoScalingRegion
        when no stretch of at least four bins has a locally constant slope.
    InvalidValue
        when a point is not finite, theiler_window is not an integer or
        theiler_window < 0.
    """
    if isinstance(data, DelayEmbedding):
        points = data.states
    else:
        points = _finite("points", data)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
    n = points.shape[0]
    if n < 10:
        raise InsufficientData(f"correlation dimension needs >= 10 points, got {n}")
    theiler_window = _integer("theiler_window", theiler_window, 0)
    if n > MAX_POINTS:
        keep = np.linspace(0, n - 1, MAX_POINTS).astype(np.intp)
        points = points[keep]
        # thin the Theiler window with the same factor so it keeps excluding
        # the same time span
        theiler_window = int(np.ceil(theiler_window * MAX_POINTS / n))
        n = MAX_POINTS

    points, shift = unit_scale(points)
    span = points.max(axis=0) - points.min(axis=0)
    r_max = float(np.linalg.norm(span))
    if r_max == 0.0:
        raise NoScalingRegion("all points coincide")
    r_min = r_max * 1e-3
    radii = np.geomspace(r_min, r_max, R_COUNT)
    # a catch-all first bin keeps pairs closer than r_min inside C(r)
    edges = np.concatenate([[0.0], radii])
    counts, total = _fit_counts(points, edges, theiler_window)
    if total == 0:
        raise InsufficientData("Theiler window excluded every pair")
    cumulative = np.cumsum(counts)
    c_r = cumulative / total

    # keep bins with enough pairs for a stable log value, and stay below the
    # saturation shoulder where edge effects flatten the curve
    valid = (cumulative >= 10) & (c_r <= _FIT_LEVEL)
    log_r = np.log(radii)
    with np.errstate(divide="ignore"):
        log_c = np.where(valid, np.log(np.maximum(c_r, 1e-300)), np.nan)

    slopes = np.diff(log_c) / np.diff(log_r)
    ok = np.isfinite(slopes) & (slopes > 0.0)
    best = _longest_stable_run(slopes, ok, rel_tol=0.10)
    if best is None:
        raise NoScalingRegion(
            "no run of at least 4 radius bins with a locally constant slope"
        )
    lo, hi = best  # slope indices, inclusive; edges lo .. hi+1
    seg = slice(lo, hi + 2)
    coeff = np.polyfit(log_r[seg], log_c[seg], 1)
    fitted = np.polyval(coeff, log_r[seg])
    ss_res = float(np.sum((log_c[seg] - fitted) ** 2))
    ss_tot = float(np.sum((log_c[seg] - np.mean(log_c[seg])) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    reliable = r_squared >= 0.98
    warnings = []
    if not reliable:
        warnings.append(
            f"scaling-region fit explains only r^2={r_squared:.4f} of the variance"
        )
    return CorrelationDimension(
        dimension=float(coeff[0]),
        r_squared=r_squared,
        fit_range=(math.ldexp(radii[lo], -shift), math.ldexp(radii[hi + 1], -shift)),
        reliable=reliable,
        n_points=n,
        warnings=warnings,
    )


def _longest_stable_run(slopes, ok, rel_tol, min_len=4):
    """Longest index run where every slope stays within rel_tol of the
    run median.  Returns (first, last) slope indices or None."""
    n = slopes.size
    best = None
    for lo in range(n):
        if not ok[lo]:
            continue
        for hi in range(lo + min_len - 1, n):
            if not ok[hi] or not np.all(ok[lo : hi + 1]):
                break
            window = slopes[lo : hi + 1]
            # every slope passed ``ok``, so the median is above 0
            center = np.median(window)
            if np.max(np.abs(window - center)) > rel_tol * center:
                break
            if best is None or (hi - lo) > (best[1] - best[0]):
                best = (lo, hi)
    return best


@dataclass
class LyapunovEstimate:
    """Largest Lyapunov exponent estimate from divergence tracking."""

    exponent: float
    fit_range: tuple
    n_pairs: int
    warnings: list = field(default_factory=list)


def dominant_period(values):
    """Period of the dominant spectral peak, in samples.

    Computed from the power spectrum of the mean-removed signal; multiply by
    the sample interval for the period in time units.  Intended to supply
    ``mean_period`` for :func:`largest_lyapunov`.  NaN or infinity in
    ``values`` raises InvalidValue.
    """
    x = _finite("values", values).ravel()
    n = x.size
    if n < 4:
        raise InsufficientData(f"period estimate needs >= 4 samples, got {n}")
    x = unit_scale(x)[0]
    power = np.abs(np.fft.rfft(x - x.mean())) ** 2
    power[0] = 0.0
    peak = int(np.argmax(power))
    if power[peak] == 0.0:
        raise InsufficientData("signal has no spectral peak")
    return float(n / peak)


def largest_lyapunov(embedding, mean_period=10.0):
    """Largest Lyapunov exponent by nearest neighbour divergence tracking.

    Every state is paired with its nearest neighbour at least
    ``mean_period`` samples away in time.  The divergence horizon is
    min(max(3 * mean_period, 10), n/4) steps, and only states that many
    steps before the end are paired.  The mean log distance of the
    surviving pairs is tracked over the first half of the horizon, and the
    exponent is its least squares slope there divided by the embedding's
    sample interval.

    Parameters
    ----------
    embedding : DelayEmbedding
    mean_period : float
        Minimum temporal separation between neighbour pairs, in samples,
        finite and above 0.  Use the dominant oscillation period of the
        series.

    Returns
    -------
    LyapunovEstimate
        exponent in units of 1 / time; ``fit_range`` is the step range
        fitted, (0, horizon // 2).
    """
    n = embedding.n_states
    if n < 20:
        raise InsufficientData(f"Lyapunov estimate needs >= 20 states, got {n}")
    _positive("mean_period", mean_period)
    # a power-of-two scale moves every log distance by one constant, which
    # the slope does not see
    states = unit_scale(embedding.states)[0]
    separation = max(1, int(round(mean_period)))
    # at least 5 steps (2 fitted) and 15 states to pair, from n >= 20
    horizon = min(max(3 * separation, 10), n // 4)
    neighbor, dist = nearest(states[: n - horizon], separation)
    i_idx = np.flatnonzero(np.isfinite(dist) & (dist > 0.0))
    j_idx = neighbor[i_idx]
    if i_idx.size < 1:
        raise InsufficientData("no separated neighbour pairs with nonzero distance")

    hi = horizon // 2

    # squares summed in coordinate order, as np.linalg.norm does below m = 8
    curve = np.empty(hi)
    for step in range(hi):
        d = np.sqrt(_squared_distances(states[step:].T, i_idx, j_idx))
        good = d > 0.0
        if not np.any(good):
            curve[step] = curve[step - 1] if step else 0.0
            continue
        curve[step] = float(np.mean(np.log(d[good])))

    slope = np.polyfit(np.arange(hi), curve, 1)[0]
    return LyapunovEstimate(
        exponent=float(slope / embedding.dt),
        fit_range=(0, hi),
        n_pairs=int(i_idx.size),
    )


@dataclass
class ComparisonReport:
    """Per-channel agreement metrics between a reference and a model run."""

    nrmse: np.ndarray
    histogram_distance: np.ndarray
    dimension_delta: float = None
    reference_dimension: float = None
    modeled_dimension: float = None
    warnings: list = field(default_factory=list)


def _histogram_l1(a, b, bins=64):
    lo = min(float(np.min(a)), float(np.min(b)))
    hi = max(float(np.max(a)), float(np.max(b)))
    if hi == lo:
        hi = lo + 1.0
    pa = np.histogram(a, bins=bins, range=(lo, hi))[0] / a.size
    pb = np.histogram(b, bins=bins, range=(lo, hi))[0] / b.size
    return float(np.sum(np.abs(pa - pb)))


def _nrmse(error, reference):
    """The RMS of each column of ``error`` over the standard deviation of the
    same column of ``reference``, a zero deviation read as 1."""
    scale = np.std(reference, axis=0)
    scale[scale == 0.0] = 1.0
    return np.sqrt(np.mean(error**2, axis=0)) / scale


def compare(reference, modeled, with_dimension=True):
    """Compare a modeled series against its reference channel by channel.

    The NRMSE normalizes each channel's pointwise RMS error by the standard
    deviation of the reference channel.  The histogram distance is the L1
    distance between 64-bin normalized histograms over the common value
    range.  When ``with_dimension`` is set, channel 0 of both series is
    delay embedded with tau at the reference's first mutual-information
    minimum and m = 3, and the difference of the two correlation dimensions,
    each with a Theiler window of tau * m, is reported.

    Raises
    ------
    ChannelMismatch
        when the two series have different channel counts.
    """
    if reference.n_channels != modeled.n_channels:
        raise ChannelMismatch(
            f"reference has {reference.n_channels} channels, modeled has {modeled.n_channels}"
        )
    rows = min(reference.n_samples, modeled.n_samples)
    ref = reference.values[:rows]
    nrmse = _nrmse(modeled.values[:rows] - ref, ref)
    hist = np.array(
        [
            _histogram_l1(reference.values[:, c], modeled.values[:, c])
            for c in range(reference.n_channels)
        ]
    )
    report = ComparisonReport(nrmse=nrmse, histogram_distance=hist)
    if not with_dimension:
        return report
    try:
        tau = average_mutual_information(reference, 0).lag
        ref_emb = delay_embed(reference, 0, tau, 3)
        mod_emb = delay_embed(modeled, 0, tau, 3)
        ref_dim = correlation_dimension(ref_emb, theiler_window=3 * tau)
        mod_dim = correlation_dimension(mod_emb, theiler_window=3 * tau)
        report.reference_dimension = ref_dim.dimension
        report.modeled_dimension = mod_dim.dimension
        report.dimension_delta = abs(ref_dim.dimension - mod_dim.dimension)
        report.warnings.extend(ref_dim.warnings)
        report.warnings.extend(mod_dim.warnings)
    except (InsufficientData, NoScalingRegion) as exc:
        report.warnings.append(f"correlation dimension unavailable: {exc}")
    return report
