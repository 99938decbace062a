"""Symmetry detection between trajectory segments.

Segments of the embedded trajectory are compared pairwise by fitting a
transform of a fixed class (translation, rotation, scaling, rotation plus
scaling, or general affine) that carries one segment onto the other.  A
genetic search explores the space of (source segment, target segment,
class) triples and keeps every fit it evaluated; the ones whose residual
beats a threshold tied to the attractor size count as detected symmetries.
The distribution of accepted classes then picks the forcing basis family
for the identification stage: rotations vote for sinusoids, scalings for
exponentials, and everything else falls back to a low order polynomial.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSegment,
    InsufficientData,
    InvalidValue,
    LengthMismatch,
    WindowTooSmall,
)
from .model import Exponential, ForcingBasis, Polynomial, Sinusoid, polynomial_basis


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


@dataclass(frozen=True)
class Segment:
    """A contiguous run of embedded states."""

    points: np.ndarray
    start_index: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2:
            raise InvalidValue(f"segment points must be 2-D, got shape {points.shape}")
        object.__setattr__(self, "points", points)

    @property
    def length(self):
        return self.points.shape[0]

    @property
    def dimension(self):
        return self.points.shape[1]


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


def _centered(points):
    centroid = points.mean(axis=0)
    return points - centroid, centroid


def _procrustes_rotation(a_c, b_c):
    """Orthogonal Procrustes with the determinant corrected to +1."""
    h = a_c.T @ b_c
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        d = 1.0
    signs = np.ones(a_c.shape[1])
    signs[-1] = d
    rotation = vt.T @ (signs[:, None] * u.T)
    return rotation, s, signs


def _residual(transformed, target):
    diff = transformed - target
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=1))))


def fit_transform(source, target, transform_class):
    """Least squares transform of one class mapping source onto target.

    Parameters
    ----------
    source, target : Segment
        Equal length segments of equal dimension.
    transform_class : TransformClass

    Returns
    -------
    SymmetryTransform
        with the RMS point mismatch as its residual.

    Raises
    ------
    LengthMismatch
        when the two segments disagree in length or dimension.
    DegenerateSegment
        when a shape-carrying class is requested and all points of a
        segment coincide.
    """
    p = source.points
    q = target.points
    if p.shape != q.shape:
        raise LengthMismatch(f"segment shapes differ: {p.shape} vs {q.shape}")
    dim = p.shape[1]
    p_c, p_mean = _centered(p)
    q_c, q_mean = _centered(q)
    identity = np.eye(dim)

    if transform_class is TransformClass.TRANSLATION:
        translation = q_mean - p_mean
        transform = SymmetryTransform(
            transform_class=transform_class,
            rotation=identity,
            scale=1.0,
            translation=translation,
            affine=identity,
            residual=_residual(p + translation, q),
        )
        return transform

    p_norm = float(np.linalg.norm(p_c))
    q_norm = float(np.linalg.norm(q_c))
    if transform_class is not TransformClass.AFFINE and (p_norm == 0.0 or q_norm == 0.0):
        raise DegenerateSegment("all points of a segment coincide")

    if transform_class is TransformClass.ROTATION:
        rotation, _, _ = _procrustes_rotation(p_c, q_c)
        translation = q_mean - rotation @ p_mean
        return SymmetryTransform(
            transform_class=transform_class,
            rotation=rotation,
            scale=1.0,
            translation=translation,
            affine=identity,
            residual=_residual(p @ rotation.T + translation, q),
        )

    if transform_class is TransformClass.SCALING:
        scale = q_norm / p_norm
        translation = q_mean - scale * p_mean
        return SymmetryTransform(
            transform_class=transform_class,
            rotation=identity,
            scale=scale,
            translation=translation,
            affine=identity,
            residual=_residual(scale * p + translation, q),
        )

    if transform_class is TransformClass.ROTATION_SCALING:
        rotation, s, signs = _procrustes_rotation(p_c, q_c)
        scale = float(np.sum(s * signs)) / p_norm**2
        if scale <= 0.0:
            # pathological reflection-heavy pair; fall back to the norm ratio
            scale = q_norm / p_norm
        translation = q_mean - scale * (rotation @ p_mean)
        return SymmetryTransform(
            transform_class=transform_class,
            rotation=rotation,
            scale=scale,
            translation=translation,
            affine=identity,
            residual=_residual(scale * (p @ rotation.T) + translation, q),
        )

    if transform_class is TransformClass.AFFINE:
        ones = np.ones((p.shape[0], 1))
        design = np.hstack([p, ones])
        coeff, *_ = np.linalg.lstsq(design, q, rcond=None)
        linear = coeff[:dim].T
        translation = coeff[dim]
        return SymmetryTransform(
            transform_class=transform_class,
            rotation=identity,
            scale=1.0,
            translation=translation,
            affine=linear,
            residual=_residual(p @ linear.T + translation, q),
        )

    raise InvalidValue(f"unknown transform class {transform_class!r}")


def extract_segments(embedding, window, stride):
    """Cut the embedded trajectory into equal windows.

    Segments start at 0, stride, 2*stride, ... and each one covers exactly
    ``window`` consecutive states.

    Raises
    ------
    WindowTooSmall
        when window < m + 1.
    InsufficientData
        when fewer than two full segments fit.
    """
    if stride < 1:
        raise InvalidValue(f"stride must be >= 1, got {stride}")
    if window < embedding.m + 1:
        raise WindowTooSmall(
            f"window={window} shorter than m+1={embedding.m + 1}"
        )
    n = embedding.n_states
    segments = []
    start = 0
    while start + window <= n:
        segments.append(Segment(points=embedding.states[start : start + window], start_index=start))
        start += stride
    if len(segments) < 2:
        raise InsufficientData(
            f"only {len(segments)} segment(s) of window {window} fit into {n} states"
        )
    return segments


@dataclass(frozen=True)
class GaConfig:
    """Settings for the genetic transform search.

    The mutation and crossover probabilities are the module constants
    ``MUTATION_RATE`` and ``CROSSOVER_RATE``.
    """

    population: int = 64
    generations: int = 200
    seed: int = 0
    residual_threshold: float = 0.05

    def __post_init__(self):
        if self.population < 2:
            raise InvalidValue(f"population must be >= 2, got {self.population}")
        if self.generations < 1:
            raise InvalidValue(f"generations must be >= 1, got {self.generations}")
        if self.seed < 0:
            raise InvalidValue(f"seed must be >= 0, got {self.seed}")
        if not self.residual_threshold > 0.0:
            raise InvalidValue(
                f"residual_threshold must be positive, got {self.residual_threshold}"
            )


def attractor_diameter(segments):
    """Largest per-coordinate range over the given points.

    Accepts either a (rows, m) array of states or a list of Segment objects.
    """
    if isinstance(segments, np.ndarray):
        points = segments
    else:
        points = np.vstack([seg.points for seg in segments])
    return float(np.max(points.max(axis=0) - points.min(axis=0)))


def _random_genome(rng, n_segments):
    src = int(rng.integers(n_segments))
    tgt = int(rng.integers(n_segments - 1))
    if tgt >= src:
        tgt += 1
    cls = int(rng.integers(len(_CLASS_ORDER)))
    return (src, tgt, cls)


def _fix_genome(genome, rng, n_segments):
    src, tgt, cls = genome
    if src == tgt:
        tgt = int(rng.integers(n_segments - 1))
        if tgt >= src:
            tgt += 1
    return (src, tgt, cls)


def _mutate(genome, rng, n_segments):
    src, tgt, cls = genome
    if rng.random() < MUTATION_RATE:
        src = int(rng.integers(n_segments))
    if rng.random() < MUTATION_RATE:
        tgt = int(rng.integers(n_segments))
    if rng.random() < MUTATION_RATE:
        cls = int(rng.integers(len(_CLASS_ORDER)))
    return _fix_genome((src, tgt, cls), rng, n_segments)


def _crossover(a, b, rng):
    cut = int(rng.integers(1, 3))
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def _tournament(population, fitness, rng):
    i = int(rng.integers(len(population)))
    j = int(rng.integers(len(population)))
    return population[i] if fitness[i] >= fitness[j] else population[j]


def ga_search(segments, config=None):
    """Genetic search for well fitting segment-pair transforms.

    Each genome is a (source index, target index, class) triple with
    fitness equal to minus the fit residual.  The search keeps a hall of
    fame of every genome it ever evaluated; at the end, the transforms
    whose residual beats ``residual_threshold`` times the attractor
    diameter are returned, deduplicated and sorted by residual.

    The search is fully deterministic for a fixed seed.
    """
    if config is None:
        config = GaConfig()
    n_segments = len(segments)
    if n_segments < 2:
        raise InsufficientData(f"need at least 2 segments, got {n_segments}")
    lengths = {seg.length for seg in segments}
    if len(lengths) != 1:
        raise LengthMismatch(f"segments have mixed lengths {sorted(lengths)}")
    diameter = attractor_diameter(segments)
    threshold = config.residual_threshold * diameter
    rng = np.random.default_rng(config.seed)
    hall = {}
    cache = {}

    def fitness_of(genome):
        if genome in cache:
            return cache[genome]
        src, tgt, cls = genome
        try:
            transform = fit_transform(
                segments[src], segments[tgt], _CLASS_ORDER[cls]
            )
        except DegenerateSegment:
            cache[genome] = -np.inf
            return -np.inf
        transform = dataclasses.replace(transform, source_segment=src, target_segment=tgt)
        hall[genome] = transform
        cache[genome] = -transform.residual
        return cache[genome]

    population = [_random_genome(rng, n_segments) for _ in range(config.population)]
    fitness = [fitness_of(g) for g in population]
    for _ in range(config.generations):
        elite_idx = int(np.argmax(fitness))
        next_pop = [population[elite_idx]]
        while len(next_pop) < config.population:
            parent_a = _tournament(population, fitness, rng)
            parent_b = _tournament(population, fitness, rng)
            if rng.random() < CROSSOVER_RATE:
                child_a, child_b = _crossover(parent_a, parent_b, rng)
            else:
                child_a, child_b = parent_a, parent_b
            child_a = _mutate(child_a, rng, n_segments)
            next_pop.append(child_a)
            if len(next_pop) < config.population:
                child_b = _mutate(child_b, rng, n_segments)
                next_pop.append(child_b)
        population = next_pop
        fitness = [fitness_of(g) for g in population]

    accepted = [t for t in hall.values() if t.residual < threshold]
    accepted.sort(
        key=lambda t: (
            t.residual,
            t.source_segment,
            t.target_segment,
            _CLASS_ORDER.index(t.transform_class),
        )
    )
    return accepted


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
    return polynomial_basis(2)


def classify_symmetry(transforms, threshold, diameter=None):
    """Histogram accepted transforms by class and recommend a basis family.

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
    if not dt > 0:
        raise InvalidValue(f"dt must be positive, got {dt}")
    if window < 1:
        raise InvalidValue(f"window must be >= 1, got {window}")
    span = window * dt

    if report.dominant_class is TransformClass.ROTATION:
        angles = [
            rotation_angle(t.rotation)
            for t in transforms
            if t.transform_class
            in (TransformClass.ROTATION, TransformClass.ROTATION_SCALING)
        ]
        if not angles:
            return BasisSeed(
                basis=polynomial_basis(2),
                warnings=["no rotation transforms to seed from; polynomial fallback"],
            )
        omega = float(np.median(angles)) / span
        if omega == 0.0:
            return BasisSeed(
                basis=polynomial_basis(2),
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
                basis=polynomial_basis(2),
                warnings=["no scaling transforms to seed from; polynomial fallback"],
            )
        rate = float(np.median(rates)) / span
        if abs(rate) < 1e-15:
            return BasisSeed(
                basis=polynomial_basis(2),
                warnings=[
                    "median scale is 1, the exponential term would be constant; "
                    "polynomial fallback"
                ],
            )
        return BasisSeed(basis=ForcingBasis((Exponential(rate=rate),)))

    return BasisSeed(basis=polynomial_basis(2))
