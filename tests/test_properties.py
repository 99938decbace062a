"""Property tests: the artifact readers round-trip what the writers wrote,
and the config parser rejects every malformed line."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import chaosid as ci  # noqa: E402
from chaosid import io  # noqa: E402
from chaosid.cli import CONFIG_DEFAULTS  # noqa: E402

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
    q = draw(st.integers(1, 3))
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
        states=draw(_matrix(draw(st.integers(1, 12)), m)),
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


@PROPERTY
@given(
    st.lists(st.sampled_from(["", "# note", "input.dt = 0.5", "  "]), max_size=3),
    text.filter(lambda line: "=" not in line and "\n" not in line and "\r" not in line
                and line.strip() and not line.strip().startswith("#")),
)
def test_parse_config_rejects_any_line_without_equals(valid_lines, bad_line):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join([*valid_lines, bad_line]) + "\n")
        with pytest.raises(ci.ConfigError):
            io.parse_config(path, CONFIG_DEFAULTS)
