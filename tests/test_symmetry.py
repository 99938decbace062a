"""Tests for segment extraction, transform fitting, the genetic search,
and the class vote that picks a forcing basis.

Oracles: ``_oracle_fit_transform`` is the earlier five-branch form of
``fit_transform``, one formula per class, kept verbatim apart from taking
arrays; the one-construction form must agree with it bit for bit.
``_oracle_ga_search`` is ``ga_search`` as it was when it drew from
``np.random.default_rng``, kept verbatim with the genome helpers it called
apart from the acceptance threshold, which the search no longer applies;
the one-loop search on replayed draws must return the same transforms, bit
for bit and in the same order.
"""

import dataclasses

import numpy as np
import pytest

import chaosid as ci
from chaosid.errors import DegenerateSegment, InsufficientData, InvalidValue, LengthMismatch
from chaosid.symmetry import (
    _CLASS_ORDER,
    CROSSOVER_RATE,
    MUTATION_RATE,
    GaConfig,
    SymmetryTransform,
    TransformClass,
    _pcg64_draws,
    _procrustes_rotation,
    _residual,
    attractor_diameter,
    fit_transform,
)


def _rotation_2d(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotation_3d_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _embedding_from_states(states):
    states = np.asarray(states, dtype=float)
    return ci.DelayEmbedding(states=states, tau=1, m=states.shape[1])


# ---------------------------------------------------------------------------
# segment extraction


def test_extract_segments_positions():
    states = np.arange(20.0).reshape(10, 2)
    emb = _embedding_from_states(states)
    segments = ci.extract_segments(emb, window=4, stride=3)
    assert len(segments) == 3
    for start, segment in zip([0, 3, 6], segments):
        assert np.array_equal(segment, states[start : start + 4])
        # a view of the embedding, not a copy
        assert np.shares_memory(segment, emb.states)


def test_extract_segments_window_too_small():
    emb = _embedding_from_states(np.zeros((10, 2)))
    with pytest.raises(ci.WindowTooSmall):
        ci.extract_segments(emb, window=2, stride=1)


def test_extract_segments_needs_two_windows():
    emb = _embedding_from_states(np.arange(10.0).reshape(5, 2))
    with pytest.raises(ci.InsufficientData):
        ci.extract_segments(emb, window=6, stride=1)
    # one full window fits but a second does not
    emb7 = _embedding_from_states(np.arange(14.0).reshape(7, 2))
    with pytest.raises(ci.InsufficientData):
        ci.extract_segments(emb7, window=6, stride=5)


def test_extract_segments_rows_are_the_slices_as_views():
    """One read-only (k, window, m) view whose rows have the values, shape
    and strides of the slices ``states[start : start + window]``."""
    states = np.cumsum(np.random.default_rng(3).normal(size=(50, 3)), axis=0)
    emb = _embedding_from_states(states)
    for window, stride in [(4, 1), (7, 3), (10, 10), (25, 25), (20, 30)]:
        segments = ci.extract_segments(emb, window=window, stride=stride)
        starts = range(0, len(states) - window + 1, stride)
        assert segments.shape == (len(starts), window, 3)
        assert not segments.flags.writeable
        for start, segment in zip(starts, segments):
            expected = emb.states[start : start + window]
            assert np.array_equal(segment, expected)
            assert segment.strides == expected.strides
            assert np.shares_memory(segment, emb.states)


# ---------------------------------------------------------------------------
# single-class fits on planted data


def test_translation_fit_recovers_planted_offset():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.normal(size=(14, 3))
        t = rng.normal(size=3)
        fit = ci.fit_transform(p, p + t, ci.TransformClass.TRANSLATION)
        assert fit.residual < 1e-12
        assert np.allclose(fit.translation, t, atol=1e-12)
        assert np.allclose(fit.rotation, np.eye(3))
        assert fit.scale == 1.0


def test_rotation_fit_recovers_planted_rotation():
    rng = np.random.default_rng(12)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        rot = _rotation_2d(theta)
        p = rng.normal(size=(10, 2))
        t = rng.normal(size=2)
        q = p @ rot.T + t
        fit = ci.fit_transform(p, q, ci.TransformClass.ROTATION)
        assert fit.residual < 1e-9
        assert np.allclose(fit.rotation, rot, atol=1e-9)
        assert np.allclose(fit.translation, t, atol=1e-9)


def test_rotation_fit_is_proper_orthogonal():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = rng.normal(size=(8, 3))
        q = rng.normal(size=(8, 3))
        fit = ci.fit_transform(p, q, ci.TransformClass.ROTATION)
        r = fit.rotation
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-9)


def test_scaling_fit_recovers_planted_scale():
    rng = np.random.default_rng(14)
    for _ in range(20):
        s = rng.uniform(0.2, 3.0)
        p = rng.normal(size=(12, 2))
        t = rng.normal(size=2)
        fit = ci.fit_transform(p, s * p + t, ci.TransformClass.SCALING)
        assert fit.residual < 1e-9
        assert np.isclose(fit.scale, s, atol=1e-9)
        assert np.allclose(fit.translation, t, atol=1e-9)


def test_rotation_scaling_fit_recovers_both():
    rng = np.random.default_rng(15)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        s = rng.uniform(0.3, 2.5)
        rot = _rotation_2d(theta)
        p = rng.normal(size=(10, 2))
        t = rng.normal(size=2)
        q = s * (p @ rot.T) + t
        fit = ci.fit_transform(p, q, ci.TransformClass.ROTATION_SCALING)
        assert fit.residual < 1e-8
        assert np.isclose(fit.scale, s, atol=1e-8)
        assert np.allclose(fit.rotation, rot, atol=1e-8)


def test_affine_fit_recovers_planted_map():
    rng = np.random.default_rng(16)
    for _ in range(20):
        m = rng.normal(size=(3, 3))
        t = rng.normal(size=3)
        p = rng.normal(size=(15, 3))
        q = p @ m.T + t
        fit = ci.fit_transform(p, q, ci.TransformClass.AFFINE)
        assert fit.residual < 1e-8
        assert np.allclose(fit.affine, m, atol=1e-8)
        assert np.allclose(fit.translation, t, atol=1e-8)
        assert np.allclose(fit.apply(p), q, atol=1e-8)


def test_affine_never_beaten_by_special_classes():
    """Every structured class is a special case of the affine map, so the
    affine residual can only be lower (up to solver round-off)."""
    rng = np.random.default_rng(17)
    for _ in range(15):
        p = rng.normal(size=(12, 2))
        q = rng.normal(size=(12, 2))
        affine = ci.fit_transform(p, q, ci.TransformClass.AFFINE)
        for cls in (
            ci.TransformClass.TRANSLATION,
            ci.TransformClass.ROTATION,
            ci.TransformClass.SCALING,
            ci.TransformClass.ROTATION_SCALING,
        ):
            special = ci.fit_transform(p, q, cls)
            assert affine.residual <= special.residual + 1e-12


@pytest.mark.parametrize("cls", list(ci.TransformClass))
def test_apply_recomputes_stored_residual(cls):
    """The stored parameters alone reproduce the fit's residual."""
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = rng.normal(size=(15, 3))
        q = 1.3 * p @ _rotation_3d_z(0.7).T + 0.5 + 0.05 * rng.normal(size=(15, 3))
        fit = ci.fit_transform(p, q, cls)
        assert _residual(fit.apply(p), q) == pytest.approx(fit.residual, rel=1e-12)


def test_fit_transform_shape_mismatch():
    p = np.zeros((5, 2))
    q = np.zeros((6, 2))
    with pytest.raises(ci.LengthMismatch):
        ci.fit_transform(p, q, ci.TransformClass.ROTATION)
    with pytest.raises(ci.LengthMismatch):
        ci.fit_transform(np.zeros((5, 2)), np.zeros((5, 3)), ci.TransformClass.ROTATION)
    with pytest.raises(ci.LengthMismatch):
        ci.fit_transform(np.zeros(5), np.zeros(5), ci.TransformClass.TRANSLATION)


def test_fit_transform_unknown_class():
    p = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ci.InvalidValue):
        ci.fit_transform(p, p, "rotation")


def test_fit_transform_degenerate_segment():
    p = np.ones((6, 2))
    q = np.arange(12.0).reshape(6, 2)
    for cls in (
        ci.TransformClass.ROTATION,
        ci.TransformClass.SCALING,
        ci.TransformClass.ROTATION_SCALING,
    ):
        with pytest.raises(ci.DegenerateSegment):
            ci.fit_transform(p, q, cls)
    # translation has no shape to lose and must still work
    fit = ci.fit_transform(p, p + 2.0, ci.TransformClass.TRANSLATION)
    assert fit.residual < 1e-12


def _centered(points):
    centroid = points.mean(axis=0)
    return points - centroid, centroid


def _oracle_fit_transform(source, target, transform_class):
    """One formula per class, as ``fit_transform`` was written before the
    classes shared the map scale * R p + t."""
    p = np.asarray(source, dtype=float)
    q = np.asarray(target, dtype=float)
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


def _assert_bitwise_equal(fit, oracle):
    assert fit.transform_class is oracle.transform_class
    assert np.array_equal(fit.rotation, oracle.rotation)
    assert np.array_equal(fit.translation, oracle.translation)
    assert np.array_equal(fit.affine, oracle.affine)
    assert fit.scale == oracle.scale
    assert fit.residual == oracle.residual


def _random_pairs(seed, count):
    """Unrelated and planted pairs in dimensions 1-4, with offsets and
    scales spread over 0.1-100."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        dim = int(rng.integers(1, 5))
        rows = int(rng.integers(dim + 1, 40))
        spread = 10.0 ** rng.uniform(-1, 2, size=2)
        offset = rng.choice([-1.0, 1.0], size=(2, dim)) * 10.0 ** rng.uniform(-1, 2, size=(2, dim))
        p = spread[0] * rng.normal(size=(rows, dim)) + offset[0]
        if k % 2:
            q = spread[1] * rng.normal(size=(rows, dim)) + offset[1]
        else:
            q = (spread[1] / spread[0]) * p @ rng.normal(size=(dim, dim)) + offset[1]
        yield p, q


def _rossler_segments():
    """Delay-embedded Rossler segments, as the pipeline cuts them."""
    trajectory = ci.rk4_integrate(ci.rossler(), np.array([1.0, 1.0, 1.0]), dt=0.05,
                                  steps=3000, transient_skip=500)
    emb = ci.delay_embed(ci.TimeSeries(trajectory.channel(0), dt=0.05), tau=26, m=3)
    return ci.extract_segments(emb, window=156, stride=78)


def _rossler_pairs(count):
    """Pairs of Rossler segments."""
    segments = _rossler_segments()
    rng = np.random.default_rng(5)
    for _ in range(count):
        src, tgt = rng.choice(len(segments), size=2, replace=False)
        yield segments[src], segments[tgt]


def test_fit_transform_equals_five_branch_oracle_bitwise():
    pairs = list(_random_pairs(70, 300)) + list(_rossler_pairs(40))
    for p, q in pairs:
        for cls in _CLASS_ORDER:
            _assert_bitwise_equal(ci.fit_transform(p, q, cls), _oracle_fit_transform(p, q, cls))


@pytest.mark.parametrize(
    "p, q",
    [
        (np.ones((6, 2)), np.arange(12.0).reshape(6, 2)),
        (np.arange(12.0).reshape(6, 2), np.full((6, 2), -3.0)),
        (np.zeros((5, 2)), np.zeros((6, 2))),
        (np.zeros((5, 2)), np.zeros((5, 3))),
    ],
    ids=["constant source", "constant target", "length mismatch", "dimension mismatch"],
)
def test_fit_transform_raises_where_the_oracle_raises(p, q):
    for cls in _CLASS_ORDER:
        try:
            expected = _oracle_fit_transform(p, q, cls)
        except (DegenerateSegment, LengthMismatch) as exc:
            with pytest.raises(type(exc)):
                ci.fit_transform(p, q, cls)
        else:
            _assert_bitwise_equal(ci.fit_transform(p, q, cls), expected)


def test_residual_equals_the_numpy_mean_of_row_sums_bitwise():
    """``_residual`` calls the reductions under ``np.sum`` and ``np.mean``."""
    rng = np.random.default_rng(9)
    for _ in range(300):
        shape = (int(rng.integers(1, 300)), int(rng.integers(1, 5)))
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5)
        b = rng.normal(size=shape)
        diff = a - b
        assert _residual(a, b) == float(np.sqrt(np.mean(np.sum(diff**2, axis=1))))


def test_rotation_angle_known_values():
    assert np.isclose(ci.rotation_angle(_rotation_2d(0.7)), 0.7, atol=1e-9)
    assert np.isclose(ci.rotation_angle(_rotation_2d(-1.2)), 1.2, atol=1e-9)
    assert np.isclose(ci.rotation_angle(_rotation_3d_z(0.4)), 0.4, atol=1e-9)
    assert np.isclose(ci.rotation_angle(np.eye(3)), 0.0, atol=1e-9)


def test_attractor_diameter_is_max_coordinate_range():
    points = np.array([[0.0, -3.0], [4.0, 4.0], [1.0, 0.0]])
    assert ci.attractor_diameter(points) == 7.0
    segments = [points[:2], points[1:]]
    assert ci.attractor_diameter(segments) == 7.0


# ---------------------------------------------------------------------------
# genetic search


def _random_walk_segments(seed, n_segments=6, window=10, dim=2):
    rng = np.random.default_rng(seed)
    states = np.cumsum(rng.normal(size=(n_segments * window, dim)), axis=0)
    emb = _embedding_from_states(states)
    return ci.extract_segments(emb, window=window, stride=window)


def _exhaustive_accepted(segments, threshold_fraction):
    """Every ordered segment pair under every class, thresholded like the
    search itself."""
    threshold = threshold_fraction * ci.attractor_diameter(segments)
    found = []
    for src in range(len(segments)):
        for tgt in range(len(segments)):
            if src == tgt:
                continue
            for cls in _CLASS_ORDER:
                try:
                    fit = ci.fit_transform(segments[src], segments[tgt], cls)
                except ci.DegenerateSegment:
                    continue
                if fit.residual < threshold:
                    found.append((fit.residual, src, tgt, cls))
    found.sort(key=lambda item: (item[0], item[1], item[2], _CLASS_ORDER.index(item[3])))
    return found


def test_ga_search_subset_of_exhaustive_and_finds_best():
    for seed in range(5):
        segments = _random_walk_segments(100 + seed)
        config = ci.GaConfig(population=64, generations=60, seed=seed)
        threshold = 0.3 * ci.attractor_diameter(segments)
        accepted = [t for t in ci.ga_search(segments, config) if t.residual < threshold]
        oracle = _exhaustive_accepted(segments, 0.3)
        oracle_keys = {(s, t, c): r for r, s, t, c in oracle}
        assert oracle, "exhaustive sweep found nothing; threshold too tight for this data"
        assert accepted, "search found nothing although the exhaustive sweep did"
        for fit in accepted:
            key = (fit.source_segment, fit.target_segment, fit.transform_class)
            assert key in oracle_keys
            assert np.isclose(fit.residual, oracle_keys[key], atol=1e-12)
        # the elitist search must locate the global best pair
        best = accepted[0]
        assert np.isclose(best.residual, oracle[0][0], atol=1e-12)
        residuals = [f.residual for f in accepted]
        assert residuals == sorted(residuals)


def test_ga_search_deterministic_for_fixed_seed():
    segments = _random_walk_segments(7)
    config = ci.GaConfig(population=48, generations=40, seed=3)
    first = ci.ga_search(segments, config)
    second = ci.ga_search(segments, config)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.source_segment == b.source_segment
        assert a.target_segment == b.target_segment
        assert a.transform_class == b.transform_class
        assert a.residual == b.residual


def test_ga_search_needs_two_segments():
    seg = np.random.default_rng(0).normal(size=(8, 2))
    with pytest.raises(ci.InsufficientData):
        ci.ga_search([seg])


def test_ga_search_rejects_mixed_lengths():
    """Mixed lengths, mixed column counts and segments that are not 2-D."""
    rng = np.random.default_rng(1)
    for shapes in ([(8, 2), (9, 2)], [(8, 2), (8, 3)], [(8,), (8,)], [(8, 2, 1)] * 2):
        with pytest.raises(ci.LengthMismatch):
            ci.ga_search([rng.normal(size=shape) for shape in shapes])


def test_ga_search_returns_every_fit_and_classify_symmetry_accepts(monkeypatch):
    """The search measures no diameter and accepts nothing: it returns fits
    above the pipeline's threshold, and ``classify_symmetry`` keeps the
    same objects, in order, that lie below it."""
    segments = _rossler_segments()
    threshold = ci.symmetry.RESIDUAL_THRESHOLD * attractor_diameter(segments)

    def unused(*args):
        raise AssertionError("ga_search measured a diameter")

    monkeypatch.setattr(ci.symmetry, "attractor_diameter", unused)
    found = ci.ga_search(segments, GaConfig(generations=40))
    accepted = [t for t in found if t.residual < threshold]
    assert accepted and len(accepted) < len(found)
    assert ci.classify_symmetry(found, threshold).transforms == accepted


@pytest.mark.parametrize(
    "field, value", [("population", 1), ("generations", 0), ("seed", -1)]
)
def test_ga_config_rejects_out_of_range_values(field, value):
    with pytest.raises(InvalidValue, match=f"{field} must be >= "):
        GaConfig(**{field: value})


def test_ga_config_holds_only_the_search_settings():
    assert [f.name for f in dataclasses.fields(GaConfig)] == ["population", "generations", "seed"]


@pytest.mark.parametrize("seed", range(4))
def test_pcg64_replay_draws_what_numpy_draws(seed):
    """Long random interleavings of every draw the search makes, with
    bounds near 2**32 where Lemire's method rejects; a numpy release that
    changes ``Generator``'s draws fails here."""
    bounds = [1, 2, 5, 64, 65, 253, 2**31 + 7, 2**32 - 1]
    generator = np.random.default_rng(seed)
    uniform, below = _pcg64_draws(seed)
    picks = np.random.default_rng(100 + seed).integers(len(bounds) + 2, size=20000)
    for pick in picks.tolist():
        if pick == len(bounds):
            expected, drawn = generator.random(), uniform()
        elif pick == len(bounds) + 1:
            expected, drawn = generator.integers(1, 3), 1 + below(2)
        else:
            expected, drawn = generator.integers(bounds[pick]), below(bounds[pick])
        assert drawn == expected, (pick, drawn, expected)
    # both streams still stand at the same place
    assert uniform() == generator.random()


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


def _oracle_ga_search(segments, config=None):
    """``ga_search`` as it was when it drew from numpy's generator."""
    if config is None:
        config = GaConfig()
    n_segments = len(segments)
    if n_segments < 2:
        raise InsufficientData(f"need at least 2 segments, got {n_segments}")
    lengths = {len(seg) for seg in segments}
    if len(lengths) != 1:
        raise LengthMismatch(f"segments have mixed lengths {sorted(lengths)}")
    rng = np.random.default_rng(config.seed)
    fits = {}  # genome -> its transform, or None for a degenerate segment

    def fitness_of(genome):
        if genome not in fits:
            src, tgt, cls = genome
            try:
                fit = fit_transform(segments[src], segments[tgt], _CLASS_ORDER[cls])
            except DegenerateSegment:
                fit = None
            if fit is not None:
                fit = dataclasses.replace(fit, source_segment=src, target_segment=tgt)
            fits[genome] = fit
        transform = fits[genome]
        return -np.inf if transform is None else -transform.residual

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

    found = [t for t in fits.values() if t is not None]
    found.sort(
        key=lambda t: (
            t.residual,
            t.source_segment,
            t.target_segment,
            _CLASS_ORDER.index(t.transform_class),
        )
    )
    return found


def _assert_same_search(segments, config, fraction=0.05):
    """The two searches return the same fits, bit for bit and in order, the
    best of them below ``fraction`` times the segments' diameter."""
    found = ci.ga_search(segments, config)
    oracle = _oracle_ga_search(segments, config)
    threshold = fraction * attractor_diameter(segments)
    assert found[0].residual < threshold, "nothing accepted; the comparison would be empty"
    assert len(found) == len(oracle)
    for fit, expected in zip(found, oracle):
        assert (fit.source_segment, fit.target_segment) == (
            expected.source_segment, expected.target_segment)
        _assert_bitwise_equal(fit, expected)


@pytest.mark.parametrize("seed", range(5))
def test_ga_search_equals_numpy_generator_oracle_on_rossler(seed):
    _assert_same_search(_rossler_segments(), GaConfig(generations=100, seed=seed))


@pytest.mark.parametrize(
    "n_segments, population, generations",
    [(2, 4, 2), (6, 2, 40), (6, 3, 40)],
    ids=["two-segments", "population-2", "population-3"],
)
def test_ga_search_equals_numpy_generator_oracle_at_the_edges(
    n_segments, population, generations
):
    """Two segments make ``integers(1)``, which draws nothing; the search is
    kept short there, since a long one visits all ten genomes whatever it
    draws.  An odd population skips the second child's mutation."""
    segments = _random_walk_segments(11, n_segments=n_segments)
    for seed in range(3):
        config = GaConfig(population=population, generations=generations, seed=seed)
        _assert_same_search(segments, config, fraction=0.5)


def _damped_segments():
    """A noisy damped sinusoid, embedded and cut as the pipeline cuts a
    2000-sample series of that family (tau 16, m 2, window 64, stride 32)."""
    t = np.arange(2000) * 0.1
    clean = np.exp(-0.005 * t) * np.sin(t + 1.0)
    noise = np.random.default_rng(4).standard_normal(t.size)
    emb = ci.delay_embed(ci.TimeSeries(clean + 0.001 * np.std(clean) * noise, dt=0.1),
                         tau=16, m=2)
    return ci.extract_segments(emb, window=64, stride=32)


@pytest.mark.parametrize("seed", range(2))
def test_ga_search_equals_numpy_generator_oracle_at_the_defaults(seed):
    """The pipeline's population and generation count, on segments of the
    shape the pipeline cuts."""
    _assert_same_search(_damped_segments(), GaConfig(seed=seed))


def test_ga_search_equals_numpy_generator_oracle_with_a_constant_segment():
    """Shape-carrying fits to a constant segment get fitness -inf."""
    segments = list(_random_walk_segments(12))
    segments[2] = np.full_like(segments[2], 3.0)
    _assert_same_search(segments, GaConfig(generations=60, seed=1), fraction=0.5)


# ---------------------------------------------------------------------------
# classification


def _stub_transform(cls, residual=0.0, scale=1.0, rotation=None, src=0, tgt=1):
    dim = 2
    return ci.SymmetryTransform(
        transform_class=cls,
        rotation=np.eye(dim) if rotation is None else rotation,
        scale=scale,
        translation=np.zeros(dim),
        affine=np.eye(dim),
        residual=residual,
        source_segment=src,
        target_segment=tgt,
    )


def _stub_histogram(**counts):
    out = []
    names = {
        "translation": ci.TransformClass.TRANSLATION,
        "rotation": ci.TransformClass.ROTATION,
        "scaling": ci.TransformClass.SCALING,
        "rotation_scaling": ci.TransformClass.ROTATION_SCALING,
        "affine": ci.TransformClass.AFFINE,
    }
    for name, n in counts.items():
        out.extend(_stub_transform(names[name]) for _ in range(n))
    return out


def test_classify_rotation_majority_recommends_sinusoid():
    report = ci.classify_symmetry(_stub_histogram(rotation=10, scaling=2, translation=1), threshold=1.0)
    assert report.dominant_class is ci.TransformClass.ROTATION
    assert len(report.recommended_basis.terms) == 1
    assert isinstance(report.recommended_basis.terms[0], ci.Sinusoid)
    assert not report.tie


def test_classify_scaling_majority_recommends_exponential():
    report = ci.classify_symmetry(_stub_histogram(scaling=7, rotation=1), threshold=1.0)
    assert report.dominant_class is ci.TransformClass.SCALING
    assert isinstance(report.recommended_basis.terms[0], ci.Exponential)


def test_classify_combined_class_counts_for_both_parents():
    # rotation 2 + combined 3 = 5 beats scaling 0 + combined 3 = 3
    report = ci.classify_symmetry(
        _stub_histogram(rotation=2, rotation_scaling=3), threshold=1.0
    )
    assert report.class_histogram[ci.TransformClass.ROTATION_SCALING] == 3
    assert report.dominant_class is ci.TransformClass.ROTATION


def test_classify_pure_combined_ties_and_unions_bases():
    report = ci.classify_symmetry(_stub_histogram(rotation_scaling=4), threshold=1.0)
    assert report.tie
    assert report.dominant_class is None
    kinds = {type(t) for t in report.recommended_basis.terms}
    assert kinds == {ci.Sinusoid, ci.Exponential}
    assert any("tie" in w for w in report.warnings)


def test_classify_no_acceptances_falls_back_to_polynomial():
    report = ci.classify_symmetry([], threshold=1.0)
    assert report.dominant_class is None
    assert all(isinstance(t, ci.Polynomial) for t in report.recommended_basis.terms)
    assert report.warnings


def test_classify_threshold_filters_transforms():
    transforms = [
        _stub_transform(ci.TransformClass.ROTATION, residual=0.1),
        _stub_transform(ci.TransformClass.SCALING, residual=5.0),
    ]
    report = ci.classify_symmetry(transforms, threshold=1.0)
    assert report.class_histogram[ci.TransformClass.ROTATION] == 1
    assert report.class_histogram[ci.TransformClass.SCALING] == 0
    assert report.dominant_class is ci.TransformClass.ROTATION


def test_classify_affine_only_cannot_vote():
    report = ci.classify_symmetry(_stub_histogram(affine=9), threshold=1.0)
    assert report.class_histogram[ci.TransformClass.AFFINE] == 9
    assert report.dominant_class is None
    assert all(isinstance(t, ci.Polynomial) for t in report.recommended_basis.terms)
    assert any("affine" in w for w in report.warnings)


def test_classify_affine_majority_does_not_outvote_structure():
    report = ci.classify_symmetry(_stub_histogram(affine=50, rotation=2), threshold=1.0)
    assert report.dominant_class is ci.TransformClass.ROTATION


def test_classify_order_invariant():
    transforms = _stub_histogram(rotation=4, scaling=2, affine=6, translation=1)
    forward = ci.classify_symmetry(transforms, threshold=1.0)
    backward = ci.classify_symmetry(list(reversed(transforms)), threshold=1.0)
    assert forward.dominant_class is backward.dominant_class
    assert forward.class_histogram == backward.class_histogram


# ---------------------------------------------------------------------------
# seeding basis parameters from transforms


def test_seed_frequency_from_rotation_angle():
    rot = _rotation_2d(np.pi / 10)
    transforms = [_stub_transform(ci.TransformClass.ROTATION, rotation=rot)]
    report = ci.classify_symmetry(transforms, threshold=1.0)
    seed = ci.seed_basis_parameters(report, transforms, dt=0.05, window=20)
    term = seed.basis.terms[0]
    assert isinstance(term, ci.Sinusoid)
    # angle per window over the window duration: (pi/10) / (20 * 0.05)
    assert np.isclose(term.omega, np.pi / 10, atol=1e-12)
    assert term.phi == 0.0


def test_seed_rate_from_log_scale():
    transforms = [
        _stub_transform(ci.TransformClass.SCALING, scale=np.exp(0.3)),
        _stub_transform(ci.TransformClass.SCALING, scale=np.exp(0.3)),
    ]
    report = ci.classify_symmetry(transforms, threshold=1.0)
    seed = ci.seed_basis_parameters(report, transforms, dt=0.1, window=30)
    term = seed.basis.terms[0]
    assert isinstance(term, ci.Exponential)
    assert np.isclose(term.rate, 0.3 / 3.0, atol=1e-12)


def test_seed_unit_scale_falls_back_to_polynomial():
    transforms = [_stub_transform(ci.TransformClass.SCALING, scale=1.0) for _ in range(3)]
    report = ci.classify_symmetry(transforms, threshold=1.0)
    seed = ci.seed_basis_parameters(report, transforms, dt=0.05, window=20)
    assert all(isinstance(t, ci.Polynomial) for t in seed.basis.terms)
    assert seed.warnings


def test_seed_requires_dominant_class():
    report = ci.classify_symmetry([], threshold=1.0)
    with pytest.raises(ValueError):
        ci.seed_basis_parameters(report, [], dt=0.05, window=20)


# ---------------------------------------------------------------------------
# end to end on planted trajectories


def test_circle_trajectory_votes_rotation():
    """States on a circle: every segment pair is an exact rotation, so the
    vote must land on rotation and recommend a sinusoid."""
    dt = 0.05
    k = np.arange(400)
    states = np.column_stack([np.cos(k * dt), np.sin(k * dt)])
    segments = ci.extract_segments(_embedding_from_states(states), window=20, stride=20)
    config = ci.GaConfig(population=48, generations=80, seed=0)
    threshold = 0.01 * ci.attractor_diameter(segments)
    report = ci.classify_symmetry(ci.ga_search(segments, config), threshold=threshold)
    assert report.transforms
    assert report.dominant_class is ci.TransformClass.ROTATION
    assert isinstance(report.recommended_basis.terms[0], ci.Sinusoid)


def test_spiral_consecutive_fits_recover_frequency_and_rate():
    """A logarithmic spiral sampled at dt: consecutive windows are related
    by a rotation-scaling whose angle and log scale encode the true
    frequency and growth rate."""
    dt = 0.05
    omega_true = 1.0
    rate_true = 0.1
    k = np.arange(600)
    t = k * dt
    radius = np.exp(rate_true * t)
    states = np.column_stack([radius * np.cos(omega_true * t), radius * np.sin(omega_true * t)])
    window = 20
    segments = ci.extract_segments(_embedding_from_states(states), window=window, stride=window)
    transforms = []
    for a, b in zip(segments[:-1], segments[1:]):
        fit = ci.fit_transform(a, b, ci.TransformClass.ROTATION_SCALING)
        assert fit.residual < 1e-9
        transforms.append(fit)

    rotation_report = ci.SymmetryReport(
        transforms=transforms,
        class_histogram={},
        dominant_class=ci.TransformClass.ROTATION,
        recommended_basis=ci.ForcingBasis((ci.Sinusoid(omega=1.0),)),
        threshold=0.0,
        diameter=0.0,
    )
    seed = ci.seed_basis_parameters(rotation_report, transforms, dt=dt, window=window)
    assert np.isclose(seed.basis.terms[0].omega, omega_true, rtol=5e-3)

    scaling_report = ci.SymmetryReport(
        transforms=transforms,
        class_histogram={},
        dominant_class=ci.TransformClass.SCALING,
        recommended_basis=ci.ForcingBasis((ci.Exponential(rate=1.0),)),
        threshold=0.0,
        diameter=0.0,
    )
    seed = ci.seed_basis_parameters(scaling_report, transforms, dt=dt, window=window)
    assert np.isclose(seed.basis.terms[0].rate, rate_true, rtol=5e-3)


def test_scaled_ray_votes_scaling():
    """Points marching out along a ray with geometric spacing: only maps
    with a scale can match a segment onto the next, so the vote lands on
    scaling and recommends an exponential."""
    k = np.arange(400)
    radius = np.exp(0.005 * k)
    states = np.column_stack([radius, 0.3 * radius])
    segments = ci.extract_segments(_embedding_from_states(states), window=20, stride=20)
    config = ci.GaConfig(population=48, generations=80, seed=0)
    threshold = 0.001 * ci.attractor_diameter(segments)
    report = ci.classify_symmetry(ci.ga_search(segments, config), threshold=threshold)
    assert report.transforms
    assert report.dominant_class is ci.TransformClass.SCALING
    assert isinstance(report.recommended_basis.terms[0], ci.Exponential)
