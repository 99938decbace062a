"""Delay-coordinate embedding of scalar time series.

The reconstruction pipeline starts from a single observed channel and builds
state vectors

    x(i) = (s[i], s[i + tau], ..., s[i + (m-1)*tau])

following the usual delay-coordinate construction.  This module provides the
two standard delay estimators (autocorrelation decay and average mutual
information), the false nearest neighbour test for the embedding dimension,
and the embedding itself.  FNN finds neighbours with :mod:`chaosid.neighbors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, InvalidValue, NotFoundError, ZeroVariance
from .neighbors import nearest, unit_scale

#: False nearest neighbour criteria (Kennedy, Brown & Abarbanel 1992): a
#: neighbour is false when the lifted coordinate separates it by more than
#: FNN_R_TOL times the original distance or FNN_A_TOL series standard
#: deviations, and m is the first dimension whose false fraction is below
#: FNN_THRESHOLD.
FNN_R_TOL = 10.0
FNN_A_TOL = 2.0
FNN_THRESHOLD = 0.05
#: Largest dimension the false nearest neighbour scan tries by default.
FNN_M_MAX = 8


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly sampled multichannel series.

    Parameters
    ----------
    values : ndarray, shape (n_samples, n_channels)
        Sample values.  A one dimensional array is treated as one channel.
    dt : float
        Sampling interval, must be positive.
    labels : tuple of str, optional
        Channel names.  Defaults to ch0, ch1, ...
    """

    values: np.ndarray
    dt: float
    labels: tuple = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2:
            raise InvalidValue(f"values must be 1-D or 2-D, got shape {values.shape}")
        if values.shape[0] < 2:
            raise InsufficientData(f"need at least 2 samples, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise InvalidValue("values contain NaN or infinity")
        if not 0 < self.dt < np.inf:
            raise InvalidValue(f"dt must be finite and positive, got {self.dt}")
        labels = self.labels
        if labels is None:
            labels = tuple(f"ch{i}" for i in range(values.shape[1]))
        else:
            labels = tuple(labels)
            if len(labels) != values.shape[1]:
                raise InvalidValue(
                    f"{len(labels)} labels for {values.shape[1]} channels"
                )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_channels(self):
        return self.values.shape[1]

    def channel(self, index):
        if not 0 <= index < self.n_channels:
            raise NotFoundError(
                f"channel {index} out of range, series has {self.n_channels} channels"
            )
        return self.values[:, index]


@dataclass(frozen=True)
class DelayEmbedding:
    """Delay-coordinate states built from one channel of a series."""

    states: np.ndarray
    tau: int
    m: int
    source_channel: int = 0
    dt: float = 1.0

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2:
            raise InvalidValue(f"states must be 2-D, got shape {states.shape}")
        if self.tau < 1:
            raise InvalidValue(f"tau must be >= 1, got {self.tau}")
        if self.m < 1:
            raise InvalidValue(f"m must be >= 1, got {self.m}")
        if states.shape[1] != self.m:
            raise InvalidValue(f"states have {states.shape[1]} columns, expected m={self.m}")
        if not 0 < self.dt < np.inf:
            raise InvalidValue(f"dt must be finite and positive, got {self.dt}")
        object.__setattr__(self, "states", states)

    @property
    def n_states(self):
        return self.states.shape[0]


@dataclass
class DelayScan:
    """Result of the autocorrelation delay estimate."""

    lag: int
    acf: np.ndarray
    crossed_threshold: bool
    warnings: list = field(default_factory=list)


@dataclass
class AmiScan:
    """AMI delay estimate; ``ami`` runs from lag 0 to one past the minimum, or to n // 4."""

    lag: int
    lags: np.ndarray
    ami: np.ndarray
    bins: int
    minimum_found: bool
    warnings: list = field(default_factory=list)


@dataclass
class FnnScan:
    """FNN dimension scan; ``fractions`` cover dimensions 1..m, or 1..m_max if none qualifies."""

    m: int
    dims: np.ndarray
    fractions: np.ndarray
    finite_dimension: bool
    threshold: float
    warnings: list = field(default_factory=list)


def _get_channel(series, channel):
    s = series.channel(channel)
    if np.max(s) == np.min(s):
        raise ZeroVariance(f"channel {channel} is constant")
    return s


def autocorrelation_delay(series, channel=0):
    """Pick the smallest lag where the autocorrelation drops below 1/e.

    Parameters
    ----------
    series : TimeSeries
    channel : int
        Channel to analyse.

    Returns
    -------
    DelayScan
        ``lag`` is the first lag with normalized autocorrelation below 1/e.
        The lags examined run to n_samples // 4 (at least 1); if none of
        them crosses the threshold, ``lag`` is the last one and
        ``crossed_threshold`` is False with a warning.
    """
    s = _get_channel(series, channel)
    max_lag = max(1, s.size // 4)
    centered = s - s.mean()
    denom = float(np.dot(centered, centered))
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for lag in range(1, max_lag + 1):
        acf[lag] = float(np.dot(centered[:-lag], centered[lag:])) / denom
    threshold = 1.0 / np.e
    below = np.nonzero(acf[1:] < threshold)[0]
    if below.size:
        return DelayScan(lag=int(below[0] + 1), acf=acf, crossed_threshold=True)
    return DelayScan(
        lag=int(max_lag),
        acf=acf,
        crossed_threshold=False,
        warnings=[f"autocorrelation never fell below 1/e within max_lag={max_lag}"],
    )


def _mutual_information(joint):
    """Plug-in mutual information (natural log) of a joint count table."""
    pxy = joint / joint.sum()
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    mask = pxy > 0
    outer = np.outer(px, py)
    return float(np.sum(pxy[mask] * np.log(pxy[mask] / outer[mask])))


def average_mutual_information(series, channel=0):
    """Average mutual information between s[k] and s[k+lag] for each lag.

    The estimator is the plug-in mutual information of an equal-width joint
    histogram of min(64, ceil(sqrt(n_samples))) bins, whose range is fixed
    to the full range of the channel so that every lag is measured on the
    same grid.  Each sample is binned once; the joint counts at a lag pair
    the bins of s[k] and s[k+lag].

    Returns
    -------
    AmiScan
        ``lag`` is the first strict local minimum L of the AMI curve; the
        scan stops at lag L + 1, which confirms it, so ``lags`` and ``ami``
        hold lags 0..L+1.  When no local minimum exists up to n_samples // 4
        (at least 1), they hold every lag up to it, the autocorrelation delay
        is used as a fallback and a warning is recorded.
    """
    s = _get_channel(series, channel)
    n = s.size
    max_lag = max(1, n // 4)
    bins = int(min(64, np.ceil(np.sqrt(n))))
    # digitizing on the inner edges closes the top bin, as np.histogram2d does
    cell = np.digitize(s, np.linspace(np.min(s), np.max(s), bins + 1)[1:-1])
    lags = np.arange(max_lag + 1)
    ami = np.empty(max_lag + 1)
    for lag in lags:
        joint = np.bincount(cell[: n - lag] * bins + cell[lag:], minlength=bins * bins)
        ami[lag] = _mutual_information(joint.reshape(bins, bins))
        # lag confirms lag - 1 as the first strict local minimum
        if lag >= 2 and ami[lag - 2] > ami[lag - 1] < ami[lag]:
            return AmiScan(int(lag - 1), lags[: lag + 1], ami[: lag + 1], bins, minimum_found=True)
    fallback = autocorrelation_delay(series, channel)
    warnings = [
        f"no strict local minimum of AMI within max_lag={max_lag}; "
        f"fell back to the autocorrelation delay {fallback.lag}"
    ]
    warnings.extend(fallback.warnings)
    return AmiScan(
        lag=fallback.lag,
        lags=lags,
        ami=ami,
        bins=bins,
        minimum_found=False,
        warnings=warnings,
    )


def false_nearest_neighbors(series, channel=0, tau=1, m_max=FNN_M_MAX):
    """False nearest neighbour fractions for dimensions 1, 2, ... up to
    ``m_max``, which defaults to ``FNN_M_MAX`` (8).

    For each dimension m the series is embedded at m and m+1 with the same
    delay.  A neighbour pair is false when the coordinate added by the lift
    separates it: either the gap in the new coordinate exceeds ``FNN_R_TOL``
    (10) times the original distance, or it exceeds ``FNN_A_TOL`` (2) times
    the standard deviation of the series.

    Returns
    -------
    FnnScan
        ``m`` is the smallest dimension whose fraction falls below
        ``FNN_THRESHOLD`` (0.05), which ``threshold`` reports.  The scan
        stops there: ``dims`` and ``fractions`` hold dimensions 1..m.  If no
        dimension qualifies, they hold 1..m_max, ``m`` is ``m_max`` and
        ``finite_dimension`` is False with a warning.
    """
    s = _get_channel(series, channel)
    n = s.size
    if tau < 1:
        raise InvalidValue(f"tau must be >= 1, got {tau}")
    if m_max < 1:
        raise InvalidValue(f"m_max must be >= 1, got {m_max}")
    # a power-of-two scale changes no distance ratio and no comparison
    # with sigma
    s = unit_scale(s)[0]
    sigma = float(np.std(s))
    dims = np.arange(1, m_max + 1)
    fractions = np.empty(m_max)
    for m in dims:
        rows = n - m * tau
        if rows < 2:
            raise InsufficientData(
                f"embedding at m={m + 1}, tau={tau} leaves {rows} states; need >= 2"
            )
        idx = np.arange(rows)[:, None] + np.arange(m)[None, :] * tau
        pts = s[idx]
        added = s[np.arange(rows) + m * tau]
        nn, dist = nearest(pts, 0)
        gap = np.abs(added - added[nn])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dist > 0.0, gap / dist, np.where(gap > 0.0, np.inf, 0.0))
        false = (ratio > FNN_R_TOL) | (gap > FNN_A_TOL * sigma)
        fractions[m - 1] = float(np.mean(false))
        if fractions[m - 1] < FNN_THRESHOLD:
            return FnnScan(
                int(m), dims[:m], fractions[:m], finite_dimension=True, threshold=FNN_THRESHOLD
            )
    return FnnScan(
        m=int(m_max),
        dims=dims,
        fractions=fractions,
        finite_dimension=False,
        threshold=FNN_THRESHOLD,
        warnings=[
            f"false neighbour fraction never fell below {FNN_THRESHOLD} up to m_max={m_max}; "
            "the series may have no finite embedding dimension"
        ],
    )


def delay_embed(series, channel=0, tau=1, m=2):
    """Build delay-coordinate states x(i) = (s[i], s[i+tau], ..., s[i+(m-1)tau]).

    Returns
    -------
    DelayEmbedding
        with states of shape (n_samples - (m-1)*tau, m).
    """
    s = series.channel(channel)
    n = s.size
    if tau < 1:
        raise InvalidValue(f"tau must be >= 1, got {tau}")
    if m < 1:
        raise InvalidValue(f"m must be >= 1, got {m}")
    rows = n - (m - 1) * tau
    if rows < 1:
        raise InsufficientData(
            f"embedding with m={m}, tau={tau} needs more than {(m - 1) * tau} samples, got {n}"
        )
    idx = np.arange(rows)[:, None] + np.arange(m)[None, :] * tau
    return DelayEmbedding(
        states=s[idx], tau=tau, m=m, source_channel=channel, dt=series.dt
    )
