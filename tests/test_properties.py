"""Property tests: the artifact readers round-trip what the writers wrote,
the canonical JSON rendering is json's on any document, the config parser
rejects every malformed line, basis refinement recovers any planted
sinusoid phase and, bounded, fits at most two candidates of a
planted sinusoid for the exhaustive loop's winner, the delay and dimension
scans, the dominant period and the Lyapunov exponent do not see an exact
power-of-two rescaling of the series, even one far from unit scale, a
change of units moves no fitted transform's shape, and the cut pair count
gives the correlation dimension of a full count."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import chaosid as ci  # noqa: E402
from chaosid import identify, io, validate  # noqa: E402
from chaosid.cli import CONFIG_DEFAULTS  # noqa: E402
from conftest import exhaustive_best_fit, json_oracle  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)


def _matrix(rows, cols):
    return st.lists(finite, min_size=rows * cols, max_size=rows * cols).map(
        lambda values: np.array(values, dtype=float).reshape(rows, cols)
    )


leaf_terms = st.one_of(
    st.builds(ci.Sinusoid, omega=finite, phi=finite, time_power=finite),
    st.builds(ci.Exponential, rate=finite, time_power=finite),
    st.builds(
        ci.Polynomial,
        degree=st.integers(0, 6),
        coeffs=st.none() | st.lists(finite, max_size=4).map(tuple),
        time_power=finite,
    ),
)
terms = st.recursive(leaf_terms, lambda inner: st.builds(ci.Product, inner, inner), max_leaves=4)
bases = st.lists(terms, max_size=4).map(lambda items: ci.ForcingBasis(tuple(items)))


@st.composite
def models(draw):
    basis = draw(bases)
    n = draw(st.integers(1, 4))
    q = draw(st.integers(0, 3))
    return ci.StateSpaceModel(
        A=draw(_matrix(n, n)),
        B=draw(_matrix(n, basis.size)),
        C=draw(_matrix(q, n)),
        basis=basis,
        dt=draw(positive),
        embedding_tau=draw(st.integers(0, 100)),
        embedding_channel=draw(st.integers(0, 8)),
    )


@st.composite
def embeddings(draw):
    m = draw(st.integers(1, 4))
    return ci.DelayEmbedding(
        states=draw(_matrix(draw(st.integers(0, 12)), m)),
        tau=draw(st.integers(1, 50)),
        m=m,
        source_channel=draw(st.integers(0, 8)),
        dt=draw(positive),
    )


@st.composite
def transforms(draw, m):
    return ci.SymmetryTransform(
        transform_class=draw(st.sampled_from(list(ci.TransformClass))),
        rotation=draw(_matrix(m, m)),
        scale=draw(finite),
        translation=draw(_matrix(1, m)).ravel(),
        affine=draw(st.none() | _matrix(m, m)),
        residual=draw(finite),
        source_segment=draw(st.integers(-1, 300)),
        target_segment=draw(st.integers(-1, 300)),
    )


@st.composite
def symmetry_reports(draw):
    m = draw(st.integers(1, 3))
    return ci.SymmetryReport(
        transforms=draw(st.lists(transforms(m), max_size=3)),
        class_histogram={cls: draw(st.integers(0, 10**6)) for cls in ci.TransformClass},
        dominant_class=draw(st.none() | st.sampled_from(list(ci.TransformClass))),
        recommended_basis=draw(bases),
        threshold=draw(finite),
        diameter=draw(finite),
        tie=draw(st.booleans()),
        warnings=draw(st.lists(text, max_size=2)),
    )


def _rewrites_identically(write, read, value):
    """write -> read -> write gives the same bytes as the first write."""
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "first.json")
        second = os.path.join(tmp, "second.json")
        write(first, value)
        write(second, read(first))
        with open(first, "rb") as fh_first, open(second, "rb") as fh_second:
            assert fh_first.read() == fh_second.read()


@PROPERTY
@given(models())
def test_model_json_round_trips_byte_for_byte(model):
    _rewrites_identically(io.write_model, io.read_model, model)


@PROPERTY
@given(embeddings())
def test_embedding_json_round_trips_byte_for_byte(embedding):
    _rewrites_identically(io.write_embedding, io.read_embedding, embedding)


@PROPERTY
@given(symmetry_reports())
def test_symmetry_json_round_trips_byte_for_byte(report):
    _rewrites_identically(io.write_symmetry_report, io.read_symmetry_report, report)


FLOAT_DTYPES = (np.float16, np.float32, np.float64, np.longdouble)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=8),  # any code point but a surrogate: control characters, non-ASCII
    *(st.floats(width=min(64, 8 * np.dtype(t).itemsize)).map(t) for t in FLOAT_DTYPES),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    hnp.arrays(st.sampled_from(FLOAT_DTYPES),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
)
# json sorts the keys of a dict, so they must compare: strings, numbers or None
json_key_kinds = st.sampled_from(
    [st.text(max_size=4), st.one_of(st.integers(), st.floats(), st.booleans()), st.none()]
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        json_key_kinds.flatmap(lambda keys: st.dictionaries(keys, inner, max_size=4)),
    ),
    max_leaves=16,
)


@PROPERTY
@given(json_documents)
@example({10: "ten", 2: [np.float32(0.1), {-0.5: np.ones((2, 0))}],
          3: np.array([[0.1, -np.inf]], dtype=np.longdouble)})
@example({"\x00\x1f\u00e9": [("\u2028", np.float16(np.inf)), {None: [[np.array([np.nan])]]}]})
def test_canonical_json_is_plain_json_on_any_document(document):
    assert io.canonical_json(document) == json_oracle(document)


@PROPERTY
@given(
    # a config sets each key once
    st.lists(st.sampled_from(["", "# note", "input.dt = 0.5", "  "]), max_size=3).filter(
        lambda lines: lines.count("input.dt = 0.5") < 2),
    text.filter(lambda line: "=" not in line and "\n" not in line and "\r" not in line
                and line.strip() and not line.strip().startswith("#")),
)
def test_parse_config_rejects_any_line_without_equals(valid_lines, bad_line):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join([*valid_lines, bad_line]) + "\n")
        with pytest.raises(ci.ConfigError, match=f":{len(valid_lines) + 1}: expected key=value"):
            io.parse_config(path, CONFIG_DEFAULTS)


@PROPERTY
@given(
    st.floats(0.5, 0.95),
    # a rotation keeps (A, B) controllable; A = r I could not tell its
    # free response from the forcing
    st.floats(0.2, np.pi - 0.2),
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2).filter(
        lambda b: max(map(abs, b)) >= 0.1
    ),
    st.integers(0, 31),
    st.floats(-np.pi, np.pi, exclude_max=True),
)
def test_refine_basis_recovers_any_planted_phase(radius, angle, b, omega_index, phi):
    omega = ci.ParameterGrid().resolved(n_states=401, dt=1.0)[0][omega_index]
    A = radius * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    B = np.array(b).reshape(2, 1)
    truth = ci.ForcingBasis((ci.Sinusoid(omega, phi),))
    forcing = truth.evaluate(np.arange(400), 1.0) @ B.T
    x = np.array([0.3, -0.2])
    states = [x]
    for row in forcing:
        x = A @ x + row
        states.append(x)
    emb = ci.DelayEmbedding(states=np.array(states), tau=1, m=2)
    start = ci.ForcingBasis((ci.Sinusoid(1.0),))
    best, report = ci.refine_basis(emb, start)
    Z, X_next = ci.build_regression(emb, best)
    _, B_fit, _ = ci.solve_least_squares(Z, X_next)
    refined = best.evaluate(np.arange(400), 1.0) @ B_fit.T
    assert np.max(np.abs(refined - forcing)) < 1e-6
    assert np.max(report.residual_rms) < 1e-9


@settings(PROPERTY, max_examples=40)
@given(
    st.floats(0.5, 0.95),
    st.floats(0.2, np.pi - 0.2),
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2).filter(
        lambda b: max(map(abs, b)) >= 0.1
    ),
    # not the Nyquist point, where sin(pi k + phi) shrinks to sin(phi) (-1)^k
    # and a phase near 0 plants almost nothing
    st.integers(0, 30),
    st.floats(-np.pi, np.pi, exclude_max=True),
    st.integers(0, 2**32 - 1),
)
def test_bounded_refinement_fits_few_candidates_of_a_planted_sinusoid(
    radius, angle, b, omega_index, phi, seed
):
    # with one sinusoid the bound is the exact score, so a clear winner is
    # fitted alone or with one more; the exhaustive loop fits all 32
    omega = ci.ParameterGrid().resolved(n_states=401, dt=1.0)[0][omega_index]
    A = radius * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    forcing = ci.ForcingBasis((ci.Sinusoid(omega, phi),)).evaluate(np.arange(400), 1.0)
    noise = 1e-3 * np.random.default_rng(seed).normal(size=(400, 2))
    x = np.array([0.3, -0.2])
    states = [x]
    for row in forcing @ np.array(b).reshape(1, 2) + noise:
        x = A @ x + row
        states.append(x)
    emb = ci.DelayEmbedding(states=np.array(states), tau=1, m=2)
    start = ci.ForcingBasis((ci.Sinusoid(1.0),))
    candidates = list(identify._candidate_bases(start, ci.ParameterGrid(), emb))
    with mock.patch.object(identify, "_fit_phases", wraps=identify._fit_phases) as fitted:
        got = identify._best_fit(emb, candidates, 0.0)
    want = exhaustive_best_fit(emb, candidates, 0.0)
    assert repr(got[0]) == repr(want[0])
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    assert got[0].terms[0].omega == omega
    assert 1 <= fitted.call_count <= 2


def _scans(s):
    """The AMI delay scan and the FNN scan at its delay, as ``embed`` runs them."""
    series = ci.TimeSeries(s, dt=1.0)
    ami = ci.average_mutual_information(series)
    return ami, ci.false_nearest_neighbors(series, tau=ami.lag)


# scales at which squared distances or powers overflow or underflow
EXTREME_SCALES = (-600, -540, 500, 600)


@settings(PROPERTY, max_examples=40)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random walk", "noisy two-tone"]),
    st.integers(-8, 8) | st.sampled_from(EXTREME_SCALES),
)
@example(0, "random walk", -600)
@example(1, "noisy two-tone", -540)
@example(2, "random walk", 500)
@example(3, "noisy two-tone", 600)
def test_delay_and_dimension_scans_ignore_power_of_two_rescaling(seed, kind, k):
    rng = np.random.default_rng(seed)
    if kind == "random walk":
        s = rng.normal(size=600).cumsum()
    else:
        t = np.arange(600)
        s = np.sin(0.09 * t) + 0.5 * np.sin(0.23 * t + rng.uniform(0, 2 * np.pi))
        s += 0.01 * rng.normal(size=600)
    # multiplying by 2**k is exact in binary floating point
    ami, fnn = _scans(s)
    ami_scaled, fnn_scaled = _scans(s * 2.0**k)
    assert (ami_scaled.lag, fnn_scaled.m) == (ami.lag, fnn.m)
    assert np.array_equal(ami_scaled.lags, ami.lags)
    assert np.array_equal(ami_scaled.ami, ami.ami)
    assert np.array_equal(fnn_scaled.dims, fnn.dims)
    assert np.array_equal(fnn_scaled.fractions, fnn.fractions)


@pytest.mark.parametrize("k", EXTREME_SCALES)
def test_period_and_lyapunov_ignore_extreme_power_of_two_rescaling(rossler_series, k):
    """2**k moves every log distance of the divergence curve by one
    constant, so only rounding can move the slope."""
    s = rossler_series.values[:2000, 0]
    period = ci.dominant_period(s)
    assert ci.dominant_period(s * 2.0**k) == period

    def exponent(values):
        emb = ci.delay_embed(ci.TimeSeries(values, dt=0.05), tau=20, m=3)
        return ci.largest_lyapunov(emb, mean_period=period).exponent

    assert exponent(s * 2.0**k) == pytest.approx(exponent(s), rel=1e-9, abs=0.0)


@PROPERTY
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.floats(0.1, 10.0),
    st.floats(-100.0, 100.0),
)
def test_change_of_units_keeps_every_transform_shape(seed, dim, a, b):
    """s -> a s + b maps every delay vector x to a x + b; each class's
    rotation and scale and the affine linear part stay, and the residual,
    a distance, is multiplied by a."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(dim + 2, 30))
    p = rng.normal(size=(rows, dim))
    q = rng.normal(size=(rows, dim))
    for cls in ci.TransformClass:
        fit = ci.fit_transform(p, q, cls)
        moved = ci.fit_transform(a * p + b, a * q + b, cls)
        assert np.allclose(moved.rotation, fit.rotation, rtol=0.0, atol=1e-9)
        assert moved.scale == pytest.approx(fit.scale, rel=1e-9)
        assert np.allclose(moved.affine, fit.affine, rtol=0.0, atol=1e-9)
        assert moved.residual == pytest.approx(a * fit.residual, rel=1e-9)


def _dimension_outcome(points, theiler):
    try:
        est = ci.correlation_dimension(points, theiler_window=theiler)
    except (ci.InsufficientData, ci.NoScalingRegion) as exc:
        return type(exc), str(exc)
    return est.dimension, est.fit_range, est.r_squared, est.reliable


@settings(PROPERTY, max_examples=80)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["cube", "nested", "curve", "clusters", "cycle", "walk"]),
    st.integers(10, 800),
    st.integers(1, 4),
    st.integers(0, 40),
    st.sampled_from([200, 8000]),
)
def test_cut_pair_count_gives_the_full_count_fit(seed, kind, n, dim, theiler, max_points):
    """Whether the cut holds or the pairs are counted again, dimension,
    fit range, r^2 and reliability are those of a full count."""
    rng = np.random.default_rng(seed)
    if kind == "cube":
        points = rng.uniform(size=(n, dim))
    elif kind == "nested":
        # every 8th point in a small box, which a pilot of every 8th sees alone
        points = rng.uniform(size=(n, dim))
        points[::8] = 0.4 + 0.2 * rng.uniform(size=points[::8].shape)
    elif kind == "curve":
        t = np.sort(rng.uniform(0.0, 20.0, n))
        points = np.stack([np.sin((k + 1) * t + k) for k in range(dim)], axis=1)
    elif kind == "clusters":
        centres = rng.normal(size=(int(rng.integers(1, 12)), dim))
        points = centres[rng.integers(0, centres.shape[0], n)] + 0.05 * rng.normal(size=(n, dim))
    elif kind == "cycle":
        # visited in turn, so a strided pilot may see only some of them
        centres = rng.normal(size=(int(rng.integers(2, 17)), dim))
        points = centres[np.arange(n) % centres.shape[0]] + 0.05 * rng.uniform(size=(n, dim))
    else:
        points = rng.normal(size=(n, dim)).cumsum(axis=0)
    full_count = validate.pair_distance_counts

    def uncut(points, edges, theiler, bins=None):
        return full_count(points, edges, theiler)

    with mock.patch.object(validate, "MAX_POINTS", max_points):
        cut = _dimension_outcome(points, theiler)
        with mock.patch.object(validate, "pair_distance_counts", uncut):
            assert _dimension_outcome(points, theiler) == cut
