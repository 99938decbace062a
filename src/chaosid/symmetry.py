"""Symmetry detection between trajectory segments.

Segments of the embedded trajectory, (window, m) views of its states, are
compared pairwise by fitting a transform of a fixed class (translation,
rotation, scaling, rotation plus scaling, or general affine) that carries
one segment onto the other.  The first four are one map, scale * R p + t,
with the class fixing R and the scale.  A genetic search explores the
space of (source segment, target segment, class) triples and returns every
fit it evaluated; ``classify_symmetry`` accepts as detected symmetries the
ones whose residual beats a threshold tied to the attractor size.  The
search is one loop over generations with its random draws replayed from
the raw PCG64 stream, and it computes each segment's mean and centred norm
once, up front, for all the fits of that segment.  The distribution of
accepted classes then picks the forcing basis family for the
identification stage: rotations vote for sinusoids, scalings for
exponentials, and everything else falls back to a low order polynomial.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateSegment,
    InsufficientData,
    InvalidValue,
    LengthMismatch,
    WindowTooSmall,
    _integer,
    _positive,
    _real,
)
from .model import Exponential, ForcingBasis, Sinusoid, polynomial_basis


class TransformClass(enum.Enum):
    TRANSLATION = "translation"
    ROTATION = "rotation"
    SCALING = "scaling"
    ROTATION_SCALING = "rotation_scaling"
    AFFINE = "affine"


_CLASS_ORDER = list(TransformClass)

#: Genetic search probabilities: each gene of a child mutates with
#: MUTATION_RATE, and each pair of parents crosses over with CROSSOVER_RATE.
MUTATION_RATE = 0.1
CROSSOVER_RATE = 0.7

#: A transform is accepted when its residual is below RESIDUAL_THRESHOLD
#: times the attractor diameter.
RESIDUAL_THRESHOLD = 0.05


@dataclass(frozen=True)
class SymmetryTransform:
    """A fitted map T(p) = scale * R p + t, or a general affine map.

    For the affine class ``affine`` holds the linear part M and the map is
    T(p) = M p + t; ``rotation`` is the identity and ``scale`` is 1 there.
    The stored parameters are sufficient to recompute the residual.
    """

    transform_class: TransformClass
    rotation: np.ndarray
    scale: float
    translation: np.ndarray
    affine: np.ndarray
    residual: float
    source_segment: int = -1
    target_segment: int = -1

    def apply(self, points):
        points = np.asarray(points, dtype=float)
        if self.transform_class is TransformClass.AFFINE:
            return points @ self.affine.T + self.translation
        return self.scale * (points @ self.rotation.T) + self.translation


def _procrustes_rotation(a_c, b_c):
    """Orthogonal Procrustes with the determinant corrected to +1."""
    h = a_c.T @ b_c
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    signs = np.ones(a_c.shape[1])
    signs[-1] = d
    rotation = vt.T @ (signs[:, None] * u.T)
    return rotation, s, signs


def _residual(transformed, target):
    """RMS point mismatch: the mean over rows of each row's squared distance."""
    diff = transformed - target
    return math.sqrt(np.add.reduce(np.add.reduce(diff * diff, axis=1)) / len(diff))


def _check_shapes(p, q):
    if p.ndim != 2 or p.shape != q.shape:
        raise LengthMismatch(f"segments must be equal 2-D arrays, got {p.shape} and {q.shape}")


def _segment_stats(points):
    """A segment's (points, mean, centred norm), the statistics ``_fit`` reads."""
    mean = points.mean(axis=0)
    return points, mean, float(np.linalg.norm(points - mean))


def _fit(a, b, transform_class, source_segment=-1, target_segment=-1):
    """``fit_transform`` of checked segments, given as their ``_segment_stats``."""
    p, p_mean, p_norm = a
    q, q_mean, q_norm = b
    dim = p.shape[1]
    rotation = linear = np.eye(dim)
    scale = 1.0
    if transform_class is TransformClass.AFFINE:
        design = np.concatenate((p, np.ones((len(p), 1))), axis=1)
        coeff, *_ = np.linalg.lstsq(design, q, rcond=None)
        linear, translation = coeff[:dim].T, coeff[dim]
        mapped = p @ linear.T + translation
    else:
        if transform_class is not TransformClass.TRANSLATION:
            if p_norm == 0.0 or q_norm == 0.0:
                raise DegenerateSegment("all points of a segment coincide")
            if transform_class is TransformClass.SCALING:
                scale = q_norm / p_norm
            else:
                rotation, s, signs = _procrustes_rotation(p - p_mean, q - q_mean)
                if transform_class is TransformClass.ROTATION_SCALING:
                    scale = float(np.sum(s * signs)) / p_norm**2
                    if scale <= 0.0:
                        # pathological reflection-heavy pair; fall back to the norm ratio
                        scale = q_norm / p_norm
        # a product with 1.0 or the identity is exact, so each class does the
        # same floating point operations as a formula written for it alone
        translation = q_mean - scale * (rotation @ p_mean)
        mapped = scale * (p @ rotation.T) + translation
    return SymmetryTransform(transform_class, rotation, scale, translation, linear,
                             _residual(mapped, q), source_segment, target_segment)


def fit_transform(source, target, transform_class):
    """Least squares transform of one class mapping source onto target.

    Every class but affine is the map scale * R p + t, and the class fixes
    (R, scale): (I, 1) for translation, (Procrustes R, 1) for rotation, (I,
    centred norm ratio) for scaling and (Procrustes R, its least squares
    scale) for rotation-scaling; t carries the source centroid onto the
    target's.  Affine fits a free linear part M p + t by ``lstsq``.

    Parameters
    ----------
    source, target : ndarray
        Equal shaped (window, m) arrays of states, such as two segments.
    transform_class : TransformClass

    Returns
    -------
    SymmetryTransform
        with the RMS point mismatch as its residual.

    Raises
    ------
    LengthMismatch
        when the two segments are not 2-D or disagree in length or dimension.
    DegenerateSegment
        when a shape-carrying class is requested and all points of a
        segment coincide.
    InvalidValue
        for an unknown class.
    """
    p = np.asarray(source, dtype=float)
    q = np.asarray(target, dtype=float)
    _check_shapes(p, q)
    if transform_class not in _CLASS_ORDER:
        raise InvalidValue(f"unknown transform class {transform_class!r}")
    return _fit(_segment_stats(p), _segment_stats(q), transform_class)


def extract_segments(embedding, window, stride):
    """Cut the embedded trajectory into equal windows.

    Segments start at 0, stride, 2*stride, ... and are the rows of one
    read-only (k, window, m) view of ``embedding.states``; each row has
    the shape and strides of the slice ``states[start : start + window]``.

    Raises
    ------
    InvalidValue
        when window or stride is not an integer, or stride < 1.
    WindowTooSmall
        when window < m + 1.
    InsufficientData
        when fewer than two full segments fit.
    """
    _integer("stride", stride, 1)
    if _integer("window", window) < embedding.m + 1:
        raise WindowTooSmall(
            f"window={window} shorter than m+1={embedding.m + 1}"
        )
    n = embedding.n_states
    count = len(range(0, n - window + 1, stride))
    if count < 2:
        raise InsufficientData(f"only {count} segment(s) of window {window} fit into {n} states")
    return sliding_window_view(embedding.states, window, axis=0)[::stride].transpose(0, 2, 1)


@dataclass(frozen=True)
class GaConfig:
    """Settings for the genetic transform search.

    The mutation and crossover probabilities are the module constants
    ``MUTATION_RATE`` and ``CROSSOVER_RATE``.
    """

    population: int = 64
    generations: int = 200
    seed: int = 0

    def __post_init__(self):
        for name, low in (("population", 2), ("generations", 1), ("seed", 0)):
            _integer(name, getattr(self, name), low)


def attractor_diameter(points):
    """Largest per-coordinate range over the given points: an array whose
    last axis is the coordinate, such as (rows, m) states or (k, window, m)
    segments."""
    points = np.asarray(points)
    axes = tuple(range(points.ndim - 1))
    return float(np.max(points.max(axis=axes) - points.min(axis=axes)))


def _pcg64_draws(seed):
    """The scalar ``random()`` and ``integers(n)`` draws of
    ``np.random.default_rng(seed)``, as two closures ``(uniform, below)``
    over one stream of its raw PCG64 words (O'Neill 2014), at a fraction
    of the generator's per-call cost.

    ``uniform()`` takes a whole word.  ``below(n)`` takes a 32-bit half,
    the low one of a fresh word first, the high one on the next call, and
    bounds it by Lemire's multiply-and-reject method (Lemire 2019), the way
    numpy's ``Generator`` does for ranges up to 2**32; ``below(1)`` returns
    0 without drawing, as numpy does.
    """
    bits = np.random.PCG64(seed)
    # the words as Python ints, 1024 at a time, forever
    word = itertools.chain.from_iterable(
        iter(lambda: bits.random_raw(1024).tolist(), None)
    ).__next__
    high = None  # the unused high half of the last word split in two

    def uniform():
        return (word() >> 11) * 2.0**-53

    def below(n):
        nonlocal high
        if n == 1:
            return 0
        while True:
            if high is None:
                w = word()
                high = w >> 32
                product = (w & 0xFFFFFFFF) * n
            else:
                product = high * n
                high = None
            low = product & 0xFFFFFFFF
            # the threshold (2**32 - n) % n is below n
            if low >= n or low >= (0x100000000 - n) % n:
                return product >> 32

    return uniform, below


def ga_search(segments, config=None):
    """Genetic search for well fitting segment-pair transforms.

    Each genome is a (source index, target index, class) triple with
    fitness equal to minus the fit residual.  The search remembers the fit
    of every genome it ever evaluated and returns them all, deduplicated
    and sorted by (residual, source, target, class); it accepts none, which
    is ``classify_symmetry``'s part.  Segments of more than one shape, or
    not 2-D, raise ``LengthMismatch``.

    Each generation keeps its fittest genome and fills the rest by
    tournaments of two, one-point crossover with ``CROSSOVER_RATE`` and
    per-gene mutation with ``MUTATION_RATE``; a child whose source and
    target coincide draws a new target.  Every segment's mean and centred
    norm are computed once before the search, so a new genome costs one
    ``_fit`` on the two segments' statistics; one memo per genome holds
    its transform and one its fitness.

    The search is fully deterministic for a fixed seed: its draws are
    those of ``np.random.default_rng(config.seed)``, replayed from the
    generator's raw words by ``_pcg64_draws``.
    """
    if config is None:
        config = GaConfig()
    n_segments = len(segments)
    if n_segments < 2:
        raise InsufficientData(f"need at least 2 segments, got {n_segments}")
    shapes = {np.shape(seg) for seg in segments}
    if len(shapes) != 1 or np.ndim(segments[0]) != 2:
        raise LengthMismatch(f"segments must share one 2-D shape, got {sorted(shapes)}")
    uniform, below = _pcg64_draws(config.seed)
    size = config.population
    n_classes = len(_CLASS_ORDER)
    stats = [_segment_stats(np.asarray(seg, dtype=float)) for seg in segments]
    fits = {}  # genome -> its transform, or None for a degenerate segment
    scores = {}  # genome -> its fitness

    def score(genome):
        """Fit a genome not seen before into both memos; returns its fitness."""
        src, tgt, cls = genome
        try:
            fits[genome] = _fit(stats[src], stats[tgt], _CLASS_ORDER[cls], src, tgt)
            scores[genome] = -fits[genome].residual
        except DegenerateSegment:
            fits[genome], scores[genome] = None, -np.inf
        return scores[genome]

    population = []
    for _ in range(size):
        src = below(n_segments)
        tgt = below(n_segments - 1)
        population.append((src, tgt + (tgt >= src), below(n_classes)))
    fitness = [scores[g] if g in scores else score(g) for g in population]
    for _ in range(config.generations):
        next_pop = [population[int(np.array(fitness).argmax())]]
        while len(next_pop) < size:
            i, j = below(size), below(size)
            parent_a = population[i] if fitness[i] >= fitness[j] else population[j]
            i, j = below(size), below(size)
            parent_b = population[i] if fitness[i] >= fitness[j] else population[j]
            if uniform() < CROSSOVER_RATE:
                cut = 1 + below(2)
                children = (parent_a[:cut] + parent_b[cut:], parent_b[:cut] + parent_a[cut:])
            else:
                children = (parent_a, parent_b)
            for src, tgt, cls in children:
                if len(next_pop) == size:
                    break
                if uniform() < MUTATION_RATE:
                    src = below(n_segments)
                if uniform() < MUTATION_RATE:
                    tgt = below(n_segments)
                if uniform() < MUTATION_RATE:
                    cls = below(n_classes)
                if src == tgt:
                    tgt = below(n_segments - 1)
                    tgt += tgt >= src
                next_pop.append((src, tgt, cls))
        population = next_pop
        fitness = [scores[g] if g in scores else score(g) for g in population]

    # by (residual, source, target, class): the genome is (source, target,
    # class index) and negating a residual is exact
    return [fits[g] for g in sorted(fits, key=lambda g: (-scores[g], g)) if fits[g] is not None]


@dataclass
class SymmetryReport:
    """Outcome of the symmetry detection stage."""

    transforms: list
    class_histogram: dict
    dominant_class: TransformClass
    recommended_basis: ForcingBasis
    threshold: float
    diameter: float
    tie: bool = False
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        # a threshold of +inf accepts every fit
        if self.threshold != np.inf:
            self.threshold = _real("threshold", self.threshold)
        self.diameter = _real("diameter", self.diameter)
        if not isinstance(self.tie, bool):
            raise InvalidValue(f"tie must be a bool, got {self.tie!r}")
        if not (isinstance(self.warnings, list) and all(isinstance(w, str) for w in self.warnings)):
            raise InvalidValue(f"warnings must be a list of strings, got {self.warnings!r}")


def _dominance_scores(histogram):
    """Fold the combined class into its two parents for the vote.

    Affine transforms are counted in the histogram but carry no vote: every
    other class is a special case of an affine map, so an affine fit is never
    evidence against rotation or scaling structure and would otherwise win
    the argmax on any data where the general fit is cheap.
    """
    rs = histogram.get(TransformClass.ROTATION_SCALING, 0)
    return {
        TransformClass.TRANSLATION: histogram.get(TransformClass.TRANSLATION, 0),
        TransformClass.ROTATION: histogram.get(TransformClass.ROTATION, 0) + rs,
        TransformClass.SCALING: histogram.get(TransformClass.SCALING, 0) + rs,
    }


def _basis_for(cls):
    """The basis family a class votes for; translation and no class (None)
    get the polynomial fallback."""
    if cls is TransformClass.ROTATION:
        return ForcingBasis((Sinusoid(omega=1.0, phi=0.0),))
    if cls is TransformClass.SCALING:
        return ForcingBasis((Exponential(rate=1.0),))
    return polynomial_basis()


def classify_symmetry(transforms, threshold, diameter=None):
    """Accept the transforms below ``threshold``, in their order, histogram
    them by class and recommend a basis family.

    Parameters
    ----------
    transforms : list of SymmetryTransform
    threshold : float
        Absolute residual acceptance threshold.
    diameter : float, optional
        Recorded in the report for reference only.

    Returns
    -------
    SymmetryReport
        The recommended basis carries unit placeholder parameters; basis
        refinement in ``fit_model`` replaces them with the best values on
        its parameter grid and fitted sinusoid phases.
    """
    accepted = [t for t in transforms if t.residual < threshold]
    histogram = {cls: 0 for cls in _CLASS_ORDER}
    for t in accepted:
        histogram[t.transform_class] += 1
    scores = _dominance_scores(histogram)
    best = max(scores.values())
    leaders = [cls for cls, v in scores.items() if v == best] if best else []
    warnings = []
    if not accepted:
        warnings.append("no transform fell below the acceptance threshold")
    elif not leaders:
        warnings.append("accepted transforms are all affine; no structured class to vote")
    elif len(leaders) > 1:
        warnings.append(
            "dominance tie between "
            + ", ".join(cls.value for cls in leaders)
            + "; recommending the union of their bases"
        )
    # a tie recommends the union of the leaders' bases, no leader the fallback
    terms = dict.fromkeys(term for cls in leaders or [None] for term in _basis_for(cls).terms)
    return SymmetryReport(
        transforms=accepted,
        class_histogram=histogram,
        dominant_class=leaders[0] if len(leaders) == 1 else None,
        recommended_basis=ForcingBasis(tuple(terms)),
        threshold=threshold,
        diameter=diameter if diameter is not None else 0.0,
        tie=len(leaders) > 1,
        warnings=warnings,
    )


def rotation_angle(rotation):
    """Principal rotation angle of an orthogonal matrix.

    Taken as the largest absolute argument over the eigenvalues, which for
    two and three dimensional rotations agrees with the usual formulas.
    """
    eigenvalues = np.linalg.eigvals(rotation)
    return float(np.max(np.abs(np.angle(eigenvalues))))


@dataclass
class BasisSeed:
    """A seeded basis plus any degeneracy warnings raised on the way."""

    basis: ForcingBasis
    warnings: list = field(default_factory=list)


def seed_basis_parameters(report, transforms, dt, window):
    """Turn detected transforms into initial basis parameters.

    For a rotation-dominant report the seed frequency is the median rotation
    angle per segment window divided by the window duration; for a
    scaling-dominant report the seed rate is the median log scale divided by
    the window duration.  Phase starts at zero.  A scaling vote whose median
    scale is 1 would produce a constant forcing term, so it falls back to
    the polynomial basis with a warning.  ``fit_model`` does not call it:
    refinement over the parameter grid sets the basis parameters.
    """
    if report.dominant_class is None:
        raise InvalidValue("report has no dominant class to seed from")
    _positive("dt", dt)
    span = _integer("window", window, 1) * dt

    if report.dominant_class is TransformClass.ROTATION:
        angles = [
            rotation_angle(t.rotation)
            for t in transforms
            if t.transform_class
            in (TransformClass.ROTATION, TransformClass.ROTATION_SCALING)
        ]
        if not angles:
            return BasisSeed(
                basis=polynomial_basis(),
                warnings=["no rotation transforms to seed from; polynomial fallback"],
            )
        omega = float(np.median(angles)) / span
        if omega == 0.0:
            return BasisSeed(
                basis=polynomial_basis(),
                warnings=["median rotation angle is zero; polynomial fallback"],
            )
        return BasisSeed(basis=ForcingBasis((Sinusoid(omega=omega, phi=0.0),)))

    if report.dominant_class is TransformClass.SCALING:
        rates = [
            float(np.log(t.scale))
            for t in transforms
            if t.transform_class
            in (TransformClass.SCALING, TransformClass.ROTATION_SCALING)
            and t.scale > 0.0
        ]
        if not rates:
            return BasisSeed(
                basis=polynomial_basis(),
                warnings=["no scaling transforms to seed from; polynomial fallback"],
            )
        rate = float(np.median(rates)) / span
        if abs(rate) < 1e-15:
            return BasisSeed(
                basis=polynomial_basis(),
                warnings=[
                    "median scale is 1, the exponential term would be constant; "
                    "polynomial fallback"
                ],
            )
        return BasisSeed(basis=ForcingBasis((Exponential(rate=rate),)))

    return BasisSeed(basis=polynomial_basis())
