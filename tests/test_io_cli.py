"""Tests for serialization, config parsing, and the command line tool."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import chaosid as ci
from chaosid import io
from chaosid.cli import CONFIG_DEFAULTS, main
from conftest import json_oracle


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_is_order_independent():
    a = io.canonical_json({"b": 1, "a": [1.5, 2.5], "c": {"y": 2, "x": 1}})
    b = io.canonical_json({"c": {"x": 1, "y": 2}, "a": [1.5, 2.5], "b": 1})
    assert a == b


def test_canonical_json_round_trips_floats():
    values = [1.0 / 3.0, 1e-17, 6.02e23, -0.1, 2.0**-52, -0.0, 1.0]
    text = io.canonical_json({"v": values})
    back = json.loads(text)
    assert back["v"] == values
    for got, want in zip(back["v"], values):
        assert type(got) is float
        assert np.copysign(1.0, got) == np.copysign(1.0, want)


def test_canonical_json_non_finite_literals():
    text = io.canonical_json({"a": float("inf"), "b": float("-inf"), "c": float("nan")})
    assert "Infinity" in text and "-Infinity" in text and "NaN" in text
    back = json.loads(text)
    assert back["a"] == float("inf")
    assert back["b"] == float("-inf")
    assert np.isnan(back["c"])


def test_canonical_json_handles_arrays_and_bools():
    doc = {
        "m": np.arange(4.0).reshape(2, 2),
        "flag": True,
        "n": 3,
        "i64": np.int64(7),
        "f32": np.float32(0.5),
        "nb": np.bool_(False),
        "scalar": np.array(2.5),
        "pair": (1, "a"),
    }
    back = json.loads(io.canonical_json(doc))
    assert back["m"] == [[0.0, 1.0], [2.0, 3.0]]
    assert back["flag"] is True
    assert back["n"] == 3
    assert back["i64"] == 7 and type(back["i64"]) is int
    assert back["f32"] == 0.5 and type(back["f32"]) is float
    assert back["nb"] is False
    assert back["scalar"] == 2.5
    assert back["pair"] == [1, "a"]


def _longer_than_a_block(rng, shape):
    """An array of more than ``io._BLOCK`` leading-axis rows, with NaN,
    infinities and -0.0 in blocks other than the first."""
    assert shape[0] > io._BLOCK
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    rows = a.reshape(shape[0], -1)
    rows[1, 0], rows[io._BLOCK, -1], rows[-1, 0], rows[io._BLOCK + 1, 0] = np.nan, np.inf, -np.inf, -0.0
    return a


def _float_array_documents():
    rng = np.random.default_rng(2)
    cube = rng.normal(size=(2, 3, 4)) * 10.0 ** rng.integers(-20, 20, size=(2, 3, 4))
    cube[0, 1, 2], cube[1, 0, 0], cube[1, 2, 3], cube[0, 0, 0] = np.nan, np.inf, -np.inf, -0.0
    # rendered a block of leading-axis rows at a time
    long = [_longer_than_a_block(rng, shape) for shape in [(1025, 3), (600, 2, 2), (1500,)]]
    return [
        rng.normal(size=5),
        rng.normal(size=(4, 3)),
        cube,
        np.zeros((1, 0)),
        np.zeros((0, 3)),
        np.zeros(0),
        np.array(2.5),
        np.float32([0.1, 1e-8, 3.0]),
        np.array([0.1, 1.5], dtype=np.longdouble),
        np.arange(4),
        {"b": np.zeros((1, 0)), "a": cube, "c": [1, np.ones((1, 1)), "x"]},
        [[{"deep": [cube[0], {"deeper": [rng.normal(size=2), np.array([np.nan])]}]}]],
        {"many": [rng.normal(size=2) for _ in range(12)], "empty": [], "nested": {}},
        *long,
        {"b": long, "a": long[0]},
    ]


def test_canonical_json_renders_float_arrays_as_json_does():
    for doc in _float_array_documents():
        assert io.canonical_json(doc) == json_oracle(doc)


def test_canonical_json_placeholders_cannot_collide_with_strings():
    # NUL-bearing strings, as keys and values, next to float arrays
    nul = "\0"
    doc = {
        nul: nul + "0",
        nul * 2 + "1": [nul * 3, np.ones(2)],
        '"' + nul: np.ones((2, 1)),
        "x": {nul + "0": np.arange(3.0), "y": nul * 2 + "0"},
    }
    assert io.canonical_json(doc) == json_oracle(doc)


def _small_arrays(rng, count):
    """Small float arrays of mixed shapes, with -0.0, NaN and +-inf among
    values spread over many decades."""
    shapes = [(1,), (2,), (3,), (1, 1), (2, 2), (3, 1), (1, 3), (2, 3), (2, 1, 2)]
    arrays = []
    for k in range(count):
        shape = shapes[k % len(shapes)]
        array = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
        flat = array.reshape(-1)
        flat[rng.integers(flat.size)] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0][k % 6]
        arrays.append(array)
    return arrays


def _symmetry_document():
    """The symmetry document of a search: hundreds of transforms, with
    non-finite values planted in one."""
    states = np.cumsum(np.random.default_rng(8).normal(size=(600, 3)), axis=0)
    segments = ci.extract_segments(ci.DelayEmbedding(states=states, tau=1, m=3),
                                   window=30, stride=15)
    found = ci.ga_search(segments, ci.GaConfig(generations=20))
    found[3] = dataclasses.replace(found[3], rotation=np.full((3, 3), np.nan),
                                   translation=np.array([np.inf, -0.0, -np.inf]))
    doc = io.symmetry_report_to_dict(ci.classify_symmetry(found, np.inf, diameter=1.0))
    assert len(doc["transforms"]) > 100
    return doc


def test_canonical_json_renders_many_small_arrays_as_json_does():
    """Many arrays of a few shapes, each shape at several nesting levels,
    and documents holding more of them nested deeper."""
    rng = np.random.default_rng(5)
    arrays = iter(_small_arrays(rng, 400))
    inner = {"z": [next(arrays) for _ in range(5)], "a": {"deep": [[next(arrays)]]}}
    symmetry = _symmetry_document()
    doc = {
        "records": [
            {"m": next(arrays), "t": next(arrays), "r": float(rng.normal()), "i": k, "s": "x"}
            for k in range(60)
        ],
        "nested": [[{"q": [next(arrays), {"w": next(arrays)}]} for _ in range(20)]],
        "flat": [next(arrays) for _ in range(100)],
        "inner": [inner, next(arrays)],
        "symmetry": symmetry,
        "transforms": symmetry["transforms"][:9],
        "empty": [np.zeros(0), {}, []],
    }
    assert io.canonical_json(symmetry) == json_oracle(symmetry)
    assert io.canonical_json(doc) == json_oracle(doc)


def test_canonical_json_rejects_unsupported_objects():
    with pytest.raises(TypeError):
        io.canonical_json({"x": object()})
    with pytest.raises(TypeError):
        io.canonical_json({"z": np.complex128(1j)})


def test_write_json_writes_the_canonical_text(tmp_path):
    """The pieces written as they come make the text canonical_json joins."""
    path = tmp_path / "doc.json"
    for doc in [*_float_array_documents(), _symmetry_document()]:
        io.write_json(path, doc)
        assert path.read_bytes() == (io.canonical_json(doc) + "\n").encode("utf-8")


def test_write_embedding_scratch_memory_on_the_reference(tmp_path, rossler_embedding):
    """Written a block of 512 states at a time: about 0.25 MiB for the
    19948 reference states, whose whole text took 3.95 MiB.  A first write
    of a small embedding leaves out what is allocated once."""
    io.write_embedding(tmp_path / "small.json", ci.DelayEmbedding(np.ones((3, 1)), tau=1, m=1))
    path = tmp_path / "embedding.json"
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        io.write_embedding(path, rossler_embedding)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.array_equal(io.read_embedding(path).states, rossler_embedding.states)
    assert peak < 0.5 * 2**20, peak / 2**20


def test_write_and_load_json(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"schema": "test/1", "x": [1.25, 2.5], "name": "abc"}
    io.write_json(path, doc)
    assert io.load_json(path) == doc


# ---------------------------------------------------------------------------
# CSV


def test_read_series_with_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("left,right\n1,2\n3,4\n5,6\n")
    series = io.read_series(path, dt=0.5)
    assert series.labels == ("left", "right")
    assert series.dt == 0.5
    assert np.array_equal(series.values, [[1, 2], [3, 4], [5, 6]])


def test_read_series_without_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.5\n2.5\n3.5\n")
    series = io.read_series(path)
    # the series fills in default channel names when the file has no header
    assert series.labels == ("ch0",)
    assert np.array_equal(series.values[:, 0], [1.5, 2.5, 3.5])


def test_read_series_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# generated\nv\n1\n\n# middle note\n2\n3\n")
    series = io.read_series(path)
    assert series.labels == ("v",)
    assert series.values.shape == (3, 1)


def test_read_series_crlf(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"a,b\r\n1,2\r\n3,4\r\n")
    series = io.read_series(path)
    assert series.labels == ("a", "b")
    assert np.array_equal(series.values, [[1, 2], [3, 4]])


@pytest.mark.parametrize("header", ["", "v\n"], ids=["no header", "header"])
def test_read_series_ignores_a_byte_order_mark(tmp_path, header):
    path = tmp_path / "s.csv"
    path.write_bytes(("\ufeff" + header + "1.0\n2.0\n3.0\n").encode("utf-8"))
    series = io.read_series(path)
    assert series.labels == (("v",) if header else ("ch0",))
    assert np.array_equal(series.values[:, 0], [1.0, 2.0, 3.0])


def test_read_series_ragged_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ci.InputError):
        io.read_series(path)


def test_read_series_non_numeric_cell(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ci.InputError):
        io.read_series(path)


@pytest.mark.parametrize("first_row", ["1.0,", "1.0,x"])
def test_read_series_rejects_a_first_row_with_numeric_and_other_cells(tmp_path, first_row):
    # such a row is a data row with a bad cell, not a header
    path = tmp_path / "s.csv"
    path.write_text(first_row + "\n2.0,3.0\n4.0,5.0\n")
    with pytest.raises(ci.InputError, match=r"s\.csv:1: non-numeric cell in data row"):
        io.read_series(path)


def test_read_series_scratch_memory_on_the_reference(tmp_path, rossler_series):
    """One flat list of floats: about 0.8 MiB for the 20000 rows, the
    result included; a list per row took 3.1 MiB.  A first read of a small
    file leaves out what is allocated once."""
    io.write_series(tmp_path / "small.csv", ci.TimeSeries(np.ones((3, 1)), dt=1.0))
    io.read_series(tmp_path / "small.csv")
    path = tmp_path / "ref.csv"
    io.write_series(path, rossler_series)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        series = io.read_series(path)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.array_equal(series.values, rossler_series.values)
    assert peak < 1.5 * 2**20, peak / 2**20


@pytest.mark.parametrize("crlf", [False, True], ids=["LF", "CRLF"])
@pytest.mark.parametrize("bom", [False, True], ids=["no BOM", "BOM"])
@pytest.mark.parametrize("channels", [1, 2, 5])
def test_read_series_reads_back_what_write_table_wrote(tmp_path, channels, bom, crlf):
    rng = np.random.default_rng(channels)
    shape = (2 * io._BLOCK + 5, channels)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    big = np.finfo(float).max
    values[0, 0], values[1, -1], values[2, 0], values[3, -1] = -0.0, 5e-324, big, -big
    labels = tuple(f"c{i}" for i in range(channels))
    path = tmp_path / "t.csv"
    io.write_table(path, labels, values, comments=("a note",))
    data = path.read_bytes()
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    if bom:
        data = "\ufeff".encode("utf-8") + data
    path.write_bytes(data)
    back = io.read_series(path)
    assert back.labels == labels
    assert np.array_equal(back.values, values)


def test_read_series_missing_file(tmp_path):
    with pytest.raises(ci.NotFoundError):
        io.read_series(tmp_path / "nothing.csv")


def test_series_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(51)
    values = rng.normal(size=(40, 3))
    series = ci.TimeSeries(values, dt=0.01, labels=("p", "q", "r"))
    path = tmp_path / "rt.csv"
    io.write_series(path, series, comments=("tail note",))
    back = io.read_series(path, dt=0.01)
    assert back.labels == ("p", "q", "r")
    assert np.array_equal(back.values, values)


@pytest.mark.parametrize(
    "labels", [("s",), ("lag", "acf"), ("x0", "y0"), ("a b", "b#", "\u03bb"), ("", "1a")]
)
def test_series_round_trip_keeps_every_label_it_accepts(tmp_path, labels):
    values = np.arange(3.0 * len(labels)).reshape(3, len(labels))
    path = tmp_path / "rt.csv"
    io.write_series(path, ci.TimeSeries(values, dt=1.0, labels=labels))
    back = io.read_series(path)
    assert back.labels == labels
    assert np.array_equal(back.values, values)


@pytest.mark.parametrize(
    "labels",
    [("1", "2"), ("a", "nan"), ("a,b", "c"), ("a\nb", "c"), ("a", "b\r"), (" a", "b"),
     ("a", "b\t"), ("#a", "b"), ("\ufeffa", "b"), ("",)],
)
def test_write_series_rejects_labels_that_do_not_read_back(tmp_path, labels):
    # numeric cells read as data, separators split the row, whitespace is
    # stripped, a leading '#' makes a comment, a leading byte-order mark is
    # dropped and an empty row is skipped
    series = ci.TimeSeries(np.ones((3, len(labels))), dt=1.0, labels=labels)
    path = tmp_path / "bad.csv"
    with pytest.raises(ci.InvalidValue, match="header cell"):
        io.write_series(path, series)
    assert not path.exists()


@pytest.mark.parametrize("comment", ["first\nsecond", "first\rsecond", "trailing\r\n", "\n"])
def test_write_series_rejects_comments_with_a_line_break(tmp_path, comment):
    path = tmp_path / "bad.csv"
    with pytest.raises(ci.InvalidValue, match="line break"):
        io.write_series(path, ci.TimeSeries(np.ones((3, 1)), dt=1.0), comments=("ok", comment))
    assert not path.exists()


def _oracle_write_table(path, header, rows, comments=()):
    """The table writer that renders every cell from the row's own items,
    numpy scalars included."""

    def cell(value):
        return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")
        for comment in comments:
            fh.write(f"# {comment}\n")


def _tables():
    rng = np.random.default_rng(25)
    # more rows than two of write_table's blocks, the last one partial
    wide = rng.normal(scale=1e3, size=(2 * io._BLOCK + 3, 3)) ** 3
    wide[0] = [0.0, -0.0, 5e-324]
    wide[1] = [1e308, 1 / 3, np.nan]
    with np.errstate(over="ignore"):  # 1e308 becomes inf in float32
        narrow = wide.astype(np.float32)
    return {
        "float64": wide,
        "float32": narrow,
        "int64": rng.integers(-(2**62), 2**62, size=(20, 2)),
        "scalar tuples": list(zip(np.arange(30), rng.random(30), np.float32(rng.random(30)))),
        "bools": np.array([[True, False], [False, True]]),
    }


@pytest.mark.parametrize("name", sorted(_tables()))
def test_write_table_is_byte_identical_to_the_per_cell_writer(tmp_path, name):
    rows = _tables()[name]
    header = [f"c{i}" for i in range(len(rows[0]))]
    comments = ("spectral_radius=0.9997", "second note")
    io.write_table(tmp_path / "new.csv", header, rows, comments=comments)
    _oracle_write_table(tmp_path / "old.csv", header, rows, comments=comments)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


_SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.1, 5e-324, 1e308]


def _array_table(dtype, count, width):
    """``count`` rows of ``width`` columns of one dtype, the special values
    first; an object table holds numpy scalars of four types."""
    rng = np.random.default_rng([count, width])
    values = rng.normal(scale=1e3, size=(count, width)) ** 3
    specials = min(len(_SPECIAL_VALUES), values.size)
    values.flat[:specials] = _SPECIAL_VALUES[:specials]
    if dtype == "int64":
        return rng.integers(-(2**62), 2**62, size=(count, width))
    if dtype == "bool":
        return rng.random((count, width)) < 0.5
    with np.errstate(over="ignore"):  # 1e308 becomes inf in float32
        if dtype == "float32":
            return values.astype(np.float32)
        if dtype == "object":
            table = np.empty((count, width), dtype=object)
            for k, v in enumerate(values.flat):
                table.flat[k] = (np.float64(v), np.float32(v), np.int64(k), np.bool_(k % 2))[k % 4]
            return table
    return values


@pytest.mark.parametrize("count", [0, 1, io._BLOCK, io._BLOCK + 1])
@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("dtype", ["float64", "float32", "int64", "bool", "object"])
def test_write_table_blocks_match_a_per_cell_rendering(tmp_path, dtype, width, count):
    rows = _array_table(dtype, count, width)
    header = [f"c{i}" for i in range(width)]
    comments = ("spectral_radius=0.9997", "second note")
    io.write_table(tmp_path / "t.csv", header, rows, comments=comments)
    lines = [",".join(header)]
    lines += [",".join(io._csv_cell(v) for v in row) for row in rows]
    lines += [f"# {comment}" for comment in comments]
    assert (tmp_path / "t.csv").read_bytes() == "".join(l + "\n" for l in lines).encode()


def test_write_series_then_read_series_is_bitwise(tmp_path):
    values = _array_table("float64", io._BLOCK + 1, 3)
    values[~np.isfinite(values)] = -0.0  # a series holds finite values only
    path = tmp_path / "s.csv"
    io.write_series(path, ci.TimeSeries(values, dt=1.0))
    assert io.read_series(path).values.tobytes() == values.tobytes()


@pytest.mark.parametrize(
    "header, rows",
    [
        (["a"], np.arange(3.0)),
        (["a", "b"], np.ones((2, 2, 2))),
        (["a", "b"], np.ones((3, 3))),
        (["a", "b"], [(1.0, 2.0), (3.0,)]),
        (["a", "b"], [(1.0, 2.0), (3.0, 4.0, 5.0)]),
    ],
    ids=["1-D", "3-D", "wrong width", "short row", "long row"],
)
def test_write_table_refuses_rows_that_do_not_fit_the_header(tmp_path, header, rows):
    path = tmp_path / "t.csv"
    path.write_text("kept\n")
    with pytest.raises(ci.InvalidValue):
        io.write_table(path, header, rows)
    assert path.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# structured documents


def test_embedding_round_trip(tmp_path):
    rng = np.random.default_rng(52)
    emb = ci.DelayEmbedding(states=rng.normal(size=(30, 3)), tau=4, m=3, source_channel=1, dt=0.05)
    path = tmp_path / "embedding.json"
    io.write_embedding(path, emb)
    back = io.read_embedding(path)
    assert np.array_equal(back.states, emb.states)
    assert (back.tau, back.m, back.source_channel, back.dt) == (4, 3, 1, 0.05)


def test_an_integer_dt_writes_as_the_float_it_reads_back_as(tmp_path):
    """A series built with ``dt=1`` stores 1.0, so its embedding writes the
    bytes that a read and rewrite of the file give."""
    emb = ci.delay_embed(ci.TimeSeries(np.sin(np.arange(40.0)), dt=1), tau=2, m=2)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    io.write_embedding(first, emb)
    io.write_embedding(second, io.read_embedding(first))
    assert '"dt": 1.0,' in first.read_text()
    assert first.read_bytes() == second.read_bytes()


def test_model_round_trip_every_term_type(tmp_path):
    basis = ci.ForcingBasis(
        (
            ci.Sinusoid(omega=3.2227, phi=0.17, time_power=1.0),
            ci.Exponential(rate=-0.25),
            ci.Polynomial(degree=2),
            ci.Polynomial(degree=2, coeffs=(-0.93, -2.0, 1.0)),
            ci.Product(ci.Exponential(rate=1.0, time_power=0.0001), ci.Sinusoid(omega=1.0, phi=0.0, time_power=0.4)),
        )
    )
    rng = np.random.default_rng(53)
    model = ci.StateSpaceModel(
        A=rng.normal(size=(3, 3)),
        B=rng.normal(size=(3, 5)),
        C=rng.normal(size=(1, 3)),
        basis=basis,
        dt=0.05,
        embedding_tau=26,
        embedding_channel=0,
    )
    path = tmp_path / "model.json"
    io.write_model(path, model)
    back = io.read_model(path)
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(back.B, model.B)
    assert np.array_equal(back.C, model.C)
    assert back.basis.terms == basis.terms
    assert back.dt == model.dt
    assert back.embedding_tau == 26


def test_model_schema_checked(tmp_path):
    emb = ci.DelayEmbedding(states=np.zeros((5, 2)), tau=1, m=2)
    path = tmp_path / "embedding.json"
    io.write_embedding(path, emb)
    with pytest.raises(ci.InputError):
        io.read_model(path)


def test_symmetry_report_round_trip(tmp_path):
    theta = 0.61
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    transforms = [
        ci.SymmetryTransform(
            transform_class=ci.TransformClass.ROTATION,
            rotation=rot,
            scale=1.0,
            translation=np.array([0.1, -0.2]),
            affine=np.eye(2),
            residual=0.003,
            source_segment=0,
            target_segment=2,
        ),
        ci.SymmetryTransform(
            transform_class=ci.TransformClass.SCALING,
            rotation=np.eye(2),
            scale=1.4,
            translation=np.zeros(2),
            affine=np.eye(2),
            residual=0.004,
            source_segment=1,
            target_segment=3,
        ),
    ]
    report = ci.classify_symmetry(transforms, threshold=0.01, diameter=2.5)
    path = tmp_path / "symmetry.json"
    io.write_symmetry_report(path, report)
    back = io.read_symmetry_report(path)
    assert back.dominant_class is report.dominant_class
    assert back.class_histogram == report.class_histogram
    assert back.threshold == report.threshold
    assert back.diameter == report.diameter
    assert len(back.transforms) == 2
    assert np.array_equal(back.transforms[0].rotation, rot)
    assert back.transforms[0].source_segment == 0
    assert back.transforms[1].scale == 1.4
    assert back.recommended_basis.terms == report.recommended_basis.terms


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "input.path = wave.csv\n"
        "embedding.tau=80\n"
        "input.dt = 0.25\n"
        "validate.enabled = false\n"
    )
    config = io.parse_config(path, CONFIG_DEFAULTS)
    assert config["input.path"] == "wave.csv"
    assert config["embedding.tau"] == 80
    assert config["input.dt"] == 0.25
    assert config["validate.enabled"] is False
    # untouched keys keep their defaults
    assert config["embedding.m"] == CONFIG_DEFAULTS["embedding.m"]
    path.write_text("validate.enabled = 1\n")
    assert io.parse_config(path, CONFIG_DEFAULTS)["validate.enabled"] is True


def test_parse_config_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes("\ufeffinput.path = wave.csv\n".encode("utf-8"))
    assert io.parse_config(path, CONFIG_DEFAULTS)["input.path"] == "wave.csv"


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nope.key=1\n")
    with pytest.raises(ci.ConfigError, match="nope.key"):
        io.parse_config(path, CONFIG_DEFAULTS)


def test_parse_config_rejects_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("embedding.tau=many\n")
    with pytest.raises(ci.ConfigError, match="embedding.tau"):
        io.parse_config(path, CONFIG_DEFAULTS)


def test_parse_config_rejects_bad_bool(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("validate.enabled=maybe\n")
    with pytest.raises(ci.ConfigError):
        io.parse_config(path, CONFIG_DEFAULTS)


def test_parse_config_rejects_a_repeated_key(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("embedding.tau = 5\n# later\nembedding.tau = 7\n")
    message = r"run\.cfg:3: config key 'embedding\.tau' already set on line 1"
    with pytest.raises(ci.ConfigError, match=message):
        io.parse_config(path, CONFIG_DEFAULTS)
    assert main(["pipeline", str(path)]) == 2
    assert "already set on line 1" in capsys.readouterr().err


def test_parse_config_rejects_missing_file(tmp_path):
    with pytest.raises(ci.NotFoundError):
        io.parse_config(tmp_path / "none.cfg", CONFIG_DEFAULTS)


def test_parse_config_rejects_bare_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ci.ConfigError):
        io.parse_config(path, CONFIG_DEFAULTS)


# ---------------------------------------------------------------------------
# command line, stage by stage


def _write_wave_csv(path, n=400):
    """A clean quasi-periodic wave: embeds to a closed curve."""
    k = np.arange(n)
    values = np.sin(0.1237 * k)
    io.write_series(path, ci.TimeSeries(values.reshape(-1, 1), dt=1.0, labels=("y",)))


def test_cli_stage_chain(tmp_path, capsys):
    csv = tmp_path / "wave.csv"
    _write_wave_csv(csv)
    out = str(tmp_path)

    rc = main(["embed", str(csv), "--tau", "12", "--m", "2", "--out-dir", out])
    assert rc == 0
    assert (tmp_path / "embedding.json").exists()
    assert (tmp_path / "diagnostics_acf.csv").exists()
    assert (tmp_path / "diagnostics_ami.csv").exists()
    assert (tmp_path / "diagnostics_fnn.csv").exists()

    rc = main(["symmetry", str(tmp_path / "embedding.json"), "--out-dir", out])
    assert rc == 0
    report = io.read_symmetry_report(tmp_path / "symmetry.json")
    assert report.dominant_class is ci.TransformClass.ROTATION

    rc = main(
        [
            "identify",
            str(tmp_path / "embedding.json"),
            str(tmp_path / "symmetry.json"),
            "--out-dir",
            out,
        ]
    )
    assert rc == 0
    model = io.read_model(tmp_path / "model.json")
    assert model.A.shape == (2, 2)
    fit_doc = io.load_json(tmp_path / "fit.json")
    assert "one_step_nrmse" in fit_doc

    rc = main(
        ["simulate", str(tmp_path / "model.json"), "--steps", "200", "--x0", "0.1,0.2", "--out-dir", out]
    )
    assert rc == 0
    trajectory = io.read_series(tmp_path / "trajectory.csv")
    assert trajectory.values.shape == (200, 3)

    rc = main(
        [
            "validate",
            str(csv),
            str(tmp_path / "model.json"),
            "--no-dimension",
            "--out-dir",
            out,
        ]
    )
    assert rc == 0
    comparison = io.load_json(tmp_path / "comparison.json")
    assert "nrmse" in comparison

    capsys.readouterr()


def _assert_pinned_embed_diagnostics(tmp_path, csv, stop):
    """``embed`` with tau 12 and m 2 pinned on a 60-sample series writes
    the FNN table of dimensions 1..stop, equal to the library's scan."""
    rc = main(["embed", str(csv), "--tau", "12", "--m", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    fnn = io.read_series(tmp_path / "diagnostics_fnn.csv")
    oracle = ci.false_nearest_neighbors(io.read_series(csv), tau=12, m_max=4)
    assert oracle.finite_dimension == (stop < 4)
    assert fnn.values[:, 0].tolist() == list(range(1, stop + 1))
    assert np.array_equal(fnn.values[:, 1], oracle.fractions)


def test_cli_embed_diagnostics_stop_at_the_longest_scan_the_series_allows(tmp_path, capsys):
    csv = tmp_path / "short.csv"
    _write_wave_csv(csv, n=60)
    # m = 2 is the wave's first dimension below the FNN threshold
    _assert_pinned_embed_diagnostics(tmp_path, csv, stop=2)
    capsys.readouterr()


def test_cli_embed_diagnostics_end_at_the_cap_when_no_dimension_qualifies(tmp_path, capsys):
    csv = tmp_path / "noise.csv"
    values = np.random.default_rng(0).normal(size=(60, 1))
    io.write_series(csv, ci.TimeSeries(values, dt=1.0, labels=("y",)))
    # no dimension qualifies, and m = 5 would leave 60 - 5 * 12 = 0 states
    _assert_pinned_embed_diagnostics(tmp_path, csv, stop=4)
    capsys.readouterr()


def test_cli_embed_scans_only_the_dimensions_it_needs(tmp_path, capsys):
    csv = tmp_path / "short.csv"
    _write_wave_csv(csv, n=60)
    # m = 2 qualifies, so the scan never reaches m = 5, which at tau 12
    # leaves no states of the 60 samples
    rc = main(["embed", str(csv), "--tau", "12", "--out-dir", str(tmp_path)])
    assert rc == 0
    embedding = io.read_embedding(tmp_path / "embedding.json")
    assert (embedding.tau, embedding.m) == (12, 2)
    assert "m=2 from false-nearest-neighbor threshold" in capsys.readouterr().out


def test_cli_missing_input_exits_2(capsys):
    rc = main(["embed", "no_such_file.csv"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cli_symmetry_rejects_a_non_finite_embedding_state(tmp_path, capsys, value):
    emb = ci.DelayEmbedding(states=np.random.default_rng(0).normal(size=(400, 2)), tau=1, m=2)
    path = tmp_path / "embedding.json"
    io.write_embedding(path, emb)
    doc = json.loads(path.read_text())
    doc["states"][7][1] = value
    path.write_text(json.dumps(doc))
    assert main(["symmetry", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "states holds NaN or infinity" in _one_error_line(capsys)
    assert not (tmp_path / "symmetry.json").exists()


@pytest.mark.parametrize("field", ["a", "c"])
def test_cli_simulate_rejects_a_non_finite_model_matrix(tmp_path, capsys, field):
    path = tmp_path / "model.json"
    _decay_model(path)
    doc = json.loads(path.read_text())
    doc[field][0][1] = np.nan
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--steps", "5", "--out-dir", str(tmp_path)]) == 2
    assert f"{field.upper()} holds NaN or infinity" in _one_error_line(capsys)
    assert not (tmp_path / "trajectory.csv").exists()


def _traffic_model_doc(tmp_path):
    """The ``Example5_Traffic`` fixture dump, whose one basis term is an
    exponential ("first") times a sinusoid ("second")."""
    assert main(["fixtures", "--dump", "Example5_Traffic", "--out-dir", str(tmp_path)]) == 0
    return json.loads((tmp_path / "Example5_Traffic_model.json").read_text())


def _assert_simulate_refuses(tmp_path, capsys, doc, expected):
    """``chaosid simulate`` on model document ``doc`` exits 2 with one
    error line holding ``expected`` and writes no trajectory."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", str(path), "--steps", "5", "--out-dir", str(tmp_path)]) == 2
    assert expected in _one_error_line(capsys)
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "factor, field, value",
    [
        ("second", "omega", np.nan),
        ("second", "phi", np.inf),
        ("first", "rate", -np.inf),
        ("first", "time_power", np.nan),
    ],
)
def test_cli_simulate_rejects_a_non_finite_basis_parameter(tmp_path, capsys, factor, field, value):
    doc = _traffic_model_doc(tmp_path)
    doc["basis"][0][factor][field] = value
    _assert_simulate_refuses(tmp_path, capsys, doc, f"{field} must be a finite number, got {value!r}")


@pytest.mark.parametrize(
    "term, expected",
    [
        ({"degree": 2, "coeffs": [1.0, np.nan, 0.5]}, "coeffs must be a finite number, got nan"),
        ({"degree": -1}, "degree must be >= 0, got -1"),
    ],
    ids=["nan-coeff", "negative-degree"],
)
def test_cli_simulate_rejects_a_bad_polynomial_term(tmp_path, capsys, term, expected):
    doc = _traffic_model_doc(tmp_path)
    doc["basis"] = [{"type": "polynomial", **term}]
    _assert_simulate_refuses(tmp_path, capsys, doc, expected)


@pytest.fixture(scope="module")
def stage_artifacts(tmp_path_factory):
    """``embedding.json``, ``symmetry.json`` and a ``model.json`` with a
    polynomial term, as the stages write them, by file name."""
    out = tmp_path_factory.mktemp("stages")
    csv = out / "wave.csv"
    _write_wave_csv(csv)
    assert main(["embed", str(csv), "--tau", "12", "--m", "2", "--out-dir", str(out)]) == 0
    assert main(["symmetry", str(out / "embedding.json"), "--out-dir", str(out)]) == 0
    model = ci.StateSpaceModel(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=np.eye(2),
                               basis=ci.ForcingBasis((ci.Polynomial(2),)), dt=1.0,
                               embedding_tau=3, embedding_channel=1)
    io.write_model(out / "model.json", model)
    return {name: json.loads((out / name).read_text())
            for name in ("embedding.json", "symmetry.json", "model.json")}


@pytest.mark.parametrize(
    "name, keys, value, field",
    [
        ("embedding.json", ("tau",), 2.5, "tau"),
        ("embedding.json", ("m",), 2.9, "m"),
        ("embedding.json", ("source_channel",), True, "source_channel"),
        ("symmetry.json", ("transforms", 0, "source_segment"), 1.5, "source_segment"),
        ("symmetry.json", ("transforms", 0, "target_segment"), "1", "target_segment"),
        ("symmetry.json", ("class_histogram", "rotation"), 2.5, "class_histogram"),
        ("model.json", ("basis", 0, "degree"), 2.7, "degree"),
        ("model.json", ("embedding_tau",), 1.5, "embedding_tau"),
        ("model.json", ("embedding_channel",), False, "embedding_channel"),
    ],
    ids=["tau", "m", "source_channel", "source_segment", "target_segment", "histogram",
         "degree", "embedding_tau", "embedding_channel"],
)
def test_cli_rejects_an_integer_field_that_is_no_integer(
    tmp_path, capsys, stage_artifacts, name, keys, value, field
):
    """Before, ``int`` truncated a fraction: tau 2.5 ran as tau 2."""
    docs = {key: json.loads(json.dumps(doc)) for key, doc in stage_artifacts.items()}
    *path, last = keys
    target = docs[name]
    for key in path:
        target = target[key]
    target[last] = value
    for key, doc in docs.items():
        (tmp_path / key).write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    argv = {
        "embedding.json": ["symmetry", str(tmp_path / "embedding.json")],
        "symmetry.json": ["identify", str(tmp_path / "embedding.json"),
                          str(tmp_path / "symmetry.json")],
        "model.json": ["simulate", str(tmp_path / "model.json"), "--steps", "5"],
    }[name]
    capsys.readouterr()
    assert main([*argv, "--out-dir", out]) == 2
    assert f"field {field!r} must be an integer, got {value!r}" in _one_error_line(capsys)
    assert not os.path.exists(out) or not os.listdir(out)


def test_an_integral_float_reads_as_an_integer_field(tmp_path, stage_artifacts):
    """JSON may write an integer as 26.0; it reads as the int 26."""
    doc = json.loads(json.dumps(stage_artifacts["embedding.json"]))
    doc["tau"] = 26.0
    path = tmp_path / "embedding.json"
    path.write_text(json.dumps(doc))
    tau = io.read_embedding(path).tau
    assert tau == 26 and type(tau) is int


def test_model_json_term_parameters_read_as_python_floats(tmp_path, capsys):
    """An integer parameter reads, and rewrites, as a float; a string or a
    bool, which a float conversion would take, is refused."""
    doc = _traffic_model_doc(tmp_path)
    doc["basis"][0]["second"]["omega"] = 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    model = io.read_model(path)
    assert type(model.basis.terms[0].second.omega) is float
    io.write_model(path, model)
    assert json.loads(path.read_text())["basis"][0]["second"]["omega"] == 1.0
    assert '"omega": 1.0' in path.read_text()
    for value in ("1.5", True):
        doc["basis"][0]["second"]["omega"] = value
        _assert_simulate_refuses(
            tmp_path, capsys, doc, f"omega must be a finite number, got {value!r}")


def test_cli_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    csv = tmp_path / "wave.csv"
    _write_wave_csv(csv)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["embed", str(csv), "--out-dir", str(taken)]) == 2
    assert str(taken) in _one_error_line(capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input.path = {csv}\n")
    for out in (taken, taken / "sub"):
        assert main(["pipeline", str(cfg), "--out-dir", str(out)]) == 2
        assert str(out) in _one_error_line(capsys)


def test_cli_input_path_that_is_a_directory_exits_2(tmp_path, capsys):
    for argv in (["pipeline"], ["embed"], ["symmetry"]):
        assert main([*argv, str(tmp_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert str(tmp_path) in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_cli_constant_series_exits_3(tmp_path, capsys):
    csv = tmp_path / "flat.csv"
    csv.write_text("y\n" + "1.0\n" * 50)
    rc = main(["embed", str(csv), "--out-dir", str(tmp_path)])
    assert rc == 3
    capsys.readouterr()


def test_cli_divergent_simulation_exits_4(tmp_path, capsys):
    model = ci.StateSpaceModel(
        A=np.array([[2.0]]),
        B=np.zeros((1, 0)),
        C=np.eye(1),
        basis=ci.ForcingBasis(()),
        dt=1.0,
    )
    path = tmp_path / "model.json"
    io.write_model(path, model)
    rc = main(["simulate", str(path), "--steps", "1200", "--x0", "1.0", "--out-dir", str(tmp_path)])
    assert rc == 4
    capsys.readouterr()


def test_cli_bad_x0_exits_2(tmp_path, capsys):
    model = ci.StateSpaceModel(
        A=np.eye(1), B=np.zeros((1, 0)), C=np.eye(1), basis=ci.ForcingBasis(()), dt=1.0
    )
    path = tmp_path / "model.json"
    io.write_model(path, model)
    rc = main(["simulate", str(path), "--x0", "a,b", "--out-dir", str(tmp_path)])
    assert rc == 2
    rc = main(["simulate", str(path), "--x0", "1,2,3", "--out-dir", str(tmp_path)])
    assert rc == 2
    # a non-finite start is bad input, not a divergence of the model
    csv = tmp_path / "wave.csv"
    _write_wave_csv(csv)
    for x0 in ("nan", "inf", "-inf"):
        capsys.readouterr()
        rc = main(["simulate", str(path), f"--x0={x0}", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "x0 holds NaN or infinity; it must be finite" in capsys.readouterr().err
        rc = main(["validate", str(csv), str(path), f"--x0={x0}", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "x0 holds NaN or infinity; it must be finite" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "comparison.json").exists()


def _decay_model(path):
    """A two-state model that halves its state every step, observing both."""
    model = ci.StateSpaceModel(
        A=0.5 * np.eye(2), B=np.zeros((2, 0)), C=np.eye(2), basis=ci.ForcingBasis(()), dt=1.0
    )
    io.write_model(path, model)
    return model


@pytest.mark.parametrize("form", [["--x0", "-1,0.5"], ["--x0=-1,0.5"]])
def test_cli_simulate_starts_at_a_negative_x0(tmp_path, capsys, form):
    path = tmp_path / "model.json"
    _decay_model(path)
    rc = main(["simulate", str(path), "--steps", "5", *form, "--out-dir", str(tmp_path)])
    assert rc == 0
    trajectory = io.read_series(tmp_path / "trajectory.csv").values
    assert trajectory[0].tolist() == [-1.0, 0.5, -1.0, 0.5]
    assert trajectory[-1].tolist() == [-1 / 16, 1 / 32, -1 / 16, 1 / 32]
    capsys.readouterr()


@pytest.mark.parametrize("form", [["--x0", "-1,0.5"], ["--x0=-1,0.5"]])
def test_cli_validate_starts_the_free_run_at_a_negative_x0(tmp_path, capsys, form):
    path = tmp_path / "model.json"
    model = _decay_model(path)
    _, outputs = ci.simulate(model, x0=[-1.0, 0.5], steps=40)
    csv = tmp_path / "reference.csv"
    io.write_series(csv, ci.TimeSeries(outputs, dt=1.0))
    rc = main(["validate", str(csv), str(path), *form, "--no-dimension", "--out-dir", str(tmp_path)])
    assert rc == 0
    # the run from zeros would miss the reference entirely
    assert io.load_json(tmp_path / "comparison.json")["nrmse"] == [0.0, 0.0]
    capsys.readouterr()


def test_cli_validate_needs_a_model(tmp_path, capsys):
    csv = tmp_path / "wave.csv"
    _write_wave_csv(csv)
    rc = main(["validate", str(csv), "--out-dir", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


def test_cli_symmetry_insufficient_segments_exits_3(tmp_path, capsys):
    emb = ci.DelayEmbedding(states=np.random.default_rng(0).normal(size=(5, 2)), tau=1, m=2)
    path = tmp_path / "embedding.json"
    io.write_embedding(path, emb)
    rc = main(["symmetry", str(path), "--out-dir", str(tmp_path)])
    assert rc == 3
    capsys.readouterr()


def test_cli_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nope.key=1\n")
    rc = main(["pipeline", str(cfg)])
    assert rc == 2
    assert "nope.key" in capsys.readouterr().err
    # refinement has no switch, so identify.refine is unknown too
    cfg.write_text("identify.refine = true\n")
    assert main(["pipeline", str(cfg)]) == 2
    assert "unknown config key 'identify.refine'" in capsys.readouterr().err


def test_cli_fixtures_list_dump_verify(tmp_path, capsys):
    rc = main(["fixtures"])
    assert rc == 0
    text = capsys.readouterr().out
    for label in ci.fixture_names():
        assert label in text

    rc = main(["fixtures", "--dump", "Example3_ViscousFluid", "--out-dir", str(tmp_path)])
    assert rc == 0
    model = io.read_model(tmp_path / "Example3_ViscousFluid_model.json")
    assert model.A.shape == (6, 6)
    capsys.readouterr()

    rc = main(["fixtures", "--verify"])
    assert rc == 0
    assert "verified" in capsys.readouterr().out


def test_cli_unknown_fixture_exits_2(tmp_path, capsys):
    rc = main(["fixtures", "--dump", "Example9_Missing", "--out-dir", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# pipeline


def _pipeline_config(tmp_path, out_name, settings=""):
    csv = tmp_path / "wave.csv"
    if not csv.exists():
        _write_wave_csv(csv, n=1500)
    cfg = tmp_path / f"{out_name}.cfg"
    cfg.write_text(f"input.path = {csv}\n{settings}output.dir = {tmp_path / out_name}\n")
    return cfg


def test_cli_pipeline_end_to_end_and_deterministic(tmp_path, capsys):
    cfg = _pipeline_config(tmp_path, "run1")
    rc = main(["pipeline", str(cfg)])
    assert rc == 0
    run1 = tmp_path / "run1"
    for name in ("embedding.json", "symmetry.json", "model.json", "fit.json", "report.json"):
        assert (run1 / name).exists()
    report = io.load_json(run1 / "report.json")
    assert report["schema"] == "run-report/1"
    assert report["metrics"] is not None
    assert report["embedding"]["m"] >= 2
    # the report keeps the decision; the transforms live in symmetry.json
    symmetry = io.load_json(run1 / "symmetry.json")
    del symmetry["transforms"]
    assert report["symmetry"] == symmetry
    assert report["symmetry_path"] == "symmetry.json"
    assert "transforms" not in report["symmetry"]

    rc = main(["pipeline", str(cfg), "--out-dir", str(tmp_path / "run2")])
    assert rc == 0
    other = io.load_json(tmp_path / "run2" / "report.json")
    report.pop("timings")
    other.pop("timings")
    report["config"]["output.dir"] = ""
    other["config"]["output.dir"] = ""
    assert report == other
    capsys.readouterr()


def test_cli_stages_chain_to_the_pipeline_artifacts(tmp_path, capsys):
    cfg = _pipeline_config(tmp_path, "run")
    assert main(["pipeline", str(cfg)]) == 0
    stages = str(tmp_path / "stages")
    assert main(["embed", str(tmp_path / "wave.csv"), "--out-dir", stages]) == 0
    embedding = os.path.join(stages, "embedding.json")
    assert main(["symmetry", embedding, "--out-dir", stages]) == 0
    symmetry = os.path.join(stages, "symmetry.json")
    assert main(["identify", embedding, symmetry, "--out-dir", stages]) == 0
    for name in ("embedding.json", "symmetry.json", "model.json", "fit.json"):
        assert (tmp_path / "stages" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    capsys.readouterr()


def test_cli_symmetry_threshold_is_the_one_the_search_applied(tmp_path, capsys):
    # the appended extreme lies after the last full window (2*tau*m = 20
    # states at a stride of 10), so the diameter of all states is three
    # times that of the segments
    csv = tmp_path / "tail.csv"
    values = np.append(np.sin(0.3 * np.arange(200)), 5.0)
    io.write_series(csv, ci.TimeSeries(values.reshape(-1, 1), dt=1.0, labels=("y",)))
    out = str(tmp_path)
    assert main(["embed", str(csv), "--tau", "5", "--m", "2", "--out-dir", out]) == 0
    assert main(["symmetry", str(tmp_path / "embedding.json"), "--out-dir", out]) == 0
    segments = ci.extract_segments(io.read_embedding(tmp_path / "embedding.json"), 20, 10)
    diameter = ci.attractor_diameter(segments)
    doc = io.load_json(tmp_path / "symmetry.json")
    assert doc["diameter"] == pytest.approx(diameter, rel=1e-12)
    assert doc["threshold"] == pytest.approx(0.05 * diameter, rel=1e-12)
    capsys.readouterr()


def test_bundled_template_lists_every_key_with_its_default():
    template = os.path.join(os.path.dirname(ci.__file__), "data", "rossler_pipeline.cfg")
    with open(template, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    keys = {line.partition("=")[0].strip() for line in lines if line and not line.startswith("#")}
    assert keys == set(CONFIG_DEFAULTS)
    config = io.parse_config(template, CONFIG_DEFAULTS)
    differing = {key for key in CONFIG_DEFAULTS if config[key] != CONFIG_DEFAULTS[key]}
    assert differing == {"input.path", "input.dt", "output.dir"}


def test_cli_pipeline_skips_scans_for_pinned_values(tmp_path, monkeypatch, capsys):
    from chaosid import cli

    def unused(*args, **kwargs):
        raise AssertionError("scan ran although its result is not used")

    for name in ("autocorrelation_delay", "average_mutual_information", "false_nearest_neighbors"):
        monkeypatch.setattr(cli, name, unused)
    cfg = _pipeline_config(tmp_path, "pinned")
    cfg.write_text(cfg.read_text() + "embedding.tau = 12\nembedding.m = 2\nvalidate.enabled = false\n")
    assert main(["pipeline", str(cfg)]) == 0
    report = io.load_json(tmp_path / "pinned" / "report.json")
    assert (report["embedding"]["tau"], report["embedding"]["m"]) == (12, 2)
    capsys.readouterr()


def test_cli_pipeline_pinned_constant_channel_fails_up_front(tmp_path, capsys):
    csv = tmp_path / "flat.csv"
    io.write_series(csv, ci.TimeSeries(np.ones((300, 1)), dt=1.0, labels=("y",)))
    cfg = tmp_path / "flat.cfg"
    out = tmp_path / "flat"
    cfg.write_text(f"input.path = {csv}\nembedding.tau = 5\nembedding.m = 2\noutput.dir = {out}\n")
    assert main(["pipeline", str(cfg)]) == 3
    assert "constant" in capsys.readouterr().err
    assert not (out / "model.json").exists()


def _pinned_config(tmp_path, extra, out_name="pinned"):
    """A fast pipeline config (tau and m pinned) with the line ``extra``,
    ``key = value``, in place of any pinned line of its key: a config sets
    each key once."""
    pinned = {"embedding.tau": "12", "embedding.m": "2"}
    key, _, value = extra.partition("=")
    if key.strip():
        pinned[key.strip()] = value.strip()
    settings = "".join(f"{k} = {v}\n" for k, v in pinned.items())
    return _pipeline_config(tmp_path, out_name, settings)


def _counting(calls, function):
    """``function`` wrapped to append its positional arguments to ``calls``."""

    def wrapper(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    return wrapper


def test_cli_pipeline_simulates_the_model_once(tmp_path, monkeypatch, capsys):
    from chaosid import cli, dynamics

    calls = []
    monkeypatch.setattr(dynamics, "simulate", _counting(calls, dynamics.simulate))
    monkeypatch.setattr(cli, "simulate", _counting(calls, cli.simulate))
    assert main(["pipeline", str(_pinned_config(tmp_path, ""))]) == 0
    assert len(calls) == 1
    report = io.load_json(tmp_path / "pinned" / "report.json")
    assert report["fit"]["free_run_nrmse"] == report["metrics"]["free_run_comparison"]["nrmse"]
    capsys.readouterr()


def test_cli_pipeline_measures_the_attractor_diameter_once(tmp_path, monkeypatch, capsys):
    from chaosid import cli, symmetry

    calls = []
    diameter = symmetry.attractor_diameter
    monkeypatch.setattr(symmetry, "attractor_diameter", _counting(calls, diameter))
    monkeypatch.setattr(cli, "attractor_diameter", _counting(calls, diameter))
    assert main(["pipeline", str(_pinned_config(tmp_path, ""))]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_cli_pipeline_dimensions_use_the_default_radii_and_a_tau_m_theiler_window(
    tmp_path, capsys
):
    assert main(["pipeline", str(_pinned_config(tmp_path, ""))]) == 0
    out = tmp_path / "pinned"
    embedding = io.read_embedding(out / "embedding.json")
    outputs = ci.TimeSeries(embedding.states[:, 0], dt=embedding.dt)
    _, fit = ci.fit_model(embedding, outputs, io.read_symmetry_report(out / "symmetry.json"))
    theiler = embedding.tau * embedding.m
    metrics = io.load_json(out / "report.json")["metrics"]
    for name, points in (("source_dimension", embedding.states), ("model_dimension", fit.free_run)):
        estimate = ci.correlation_dimension(points, theiler_window=theiler)
        assert json.loads(io.canonical_json(io.dimension_to_dict(estimate))) == metrics[name]
    capsys.readouterr()


def test_cli_pipeline_one_step_nrmse_follows_from_the_written_model(tmp_path, capsys):
    # the source channel is coordinate 0 of the embedding, so the output
    # error is the model's prediction Z [A B]^T mapped through C against it
    assert main(["pipeline", str(_pinned_config(tmp_path, ""))]) == 0
    out = tmp_path / "pinned"
    embedding = io.read_embedding(out / "embedding.json")
    model = io.read_model(out / "model.json")
    Z, _ = ci.build_regression(embedding, model.basis)
    y = embedding.states[:, :1]
    err = (Z @ np.hstack([model.A, model.B]).T) @ model.C.T - y[1:]
    nrmse = np.sqrt(np.mean(err**2, axis=0)) / np.std(y, axis=0)
    assert nrmse.tolist() == io.load_json(out / "fit.json")["one_step_nrmse"]
    capsys.readouterr()


_FIT_KEYS = {"residual_rms", "one_step_nrmse", "free_run_nrmse", "condition_estimate",
             "ridge_lambda", "basis_description", "warnings"}
_COMPARISON_KEYS = {"schema", "nrmse", "histogram_distance", "dimension_delta",
                    "reference_dimension", "modeled_dimension", "warnings"}
_TERM_KEYS = {
    "sinusoid": {"type", "omega", "phi", "time_power"},
    "exponential": {"type", "rate", "time_power"},
    "polynomial": {"type", "degree", "coeffs", "time_power"},
    "product": {"type", "first", "second"},
}


def test_documents_hold_exactly_their_keys(tmp_path, capsys):
    """fit.json, the report's fit and metrics blocks, comparison.json and
    every basis-term type hold these keys and no others, so a field added
    to one of their dataclasses does not leak into a document unseen."""
    assert main(["pipeline", str(_pinned_config(tmp_path, ""))]) == 0
    out = tmp_path / "pinned"
    assert set(io.load_json(out / "fit.json")) == _FIT_KEYS
    report = io.load_json(out / "report.json")
    assert set(report["fit"]) == _FIT_KEYS
    metrics = report["metrics"]
    assert set(metrics) == {"source_dimension", "model_dimension", "dimension_delta",
                            "source_lyapunov", "free_run_comparison"}
    for name in ("source_dimension", "model_dimension"):
        assert set(metrics[name]) == {"dimension", "r_squared", "fit_range", "reliable",
                                      "n_points", "warnings"}
    assert set(metrics["source_lyapunov"]) == {"exponent", "fit_range", "n_pairs", "warnings"}
    assert set(metrics["free_run_comparison"]) == _COMPARISON_KEYS
    argv = ["validate", str(tmp_path / "wave.csv"), str(out / "model.json"), "--out-dir", str(out)]
    assert main(argv) == 0
    assert set(io.load_json(out / "comparison.json")) == _COMPARISON_KEYS

    # the fixtures hold every term type, a Product and a Polynomial with coefficients among them
    terms = []
    for name in ci.fixture_names():
        assert main(["fixtures", "--dump", name, "--out-dir", str(tmp_path)]) == 0
        terms += io.load_json(tmp_path / f"{name}_model.json")["basis"]
    seen = set()
    while terms:
        term = terms.pop()
        seen.add(term["type"])
        assert set(term) == _TERM_KEYS[term["type"]]
        if term["type"] == "product":
            terms += [term["first"], term["second"]]
        elif term["type"] == "polynomial":
            assert term["coeffs"] == [-0.93, -2.0, 1.0]
    assert seen == set(_TERM_KEYS)
    capsys.readouterr()


def test_compare_artifacts_tool_finds_only_a_flipped_digit(tmp_path, capsys):
    """Two runs of one config differ only in their reports' timings and
    output.dir, which the tool ignores; one changed digit in model.json
    makes it name that file and exit 1, and so does a report whose
    symmetry block is indented one space too deep, although it parses the
    same, a trajectory CSV and a fixture dump with one changed digit."""
    for name in ("a", "b"):
        assert main(["pipeline", str(_pinned_config(tmp_path, "", out_name=name))]) == 0
    for name in ("a", "b"):
        model = str(tmp_path / "a" / "model.json")
        assert main(["simulate", model, "--steps", "30", "--out-dir", str(tmp_path / name)]) == 0
        argv = ["fixtures", "--dump", "Example3_ViscousFluid", "--out-dir", str(tmp_path / name)]
        assert main(argv) == 0
    capsys.readouterr()
    tool = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "compare_artifacts.py")
    argv = [sys.executable, tool, str(tmp_path / "a"), str(tmp_path / "b")]
    same = subprocess.run(argv, capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout == ""

    model = tmp_path / "b" / "model.json"
    text = model.read_text()
    at = next(i for i, c in enumerate(text) if c in "123456789")
    model.write_text(text[:at] + ("2" if text[at] == "1" else "1") + text[at + 1 :])
    differ = subprocess.run(argv, capture_output=True, text=True)
    assert differ.returncode == 1
    assert differ.stdout.split() == ["model.json"]

    report = tmp_path / "b" / "report.json"
    text = report.read_text()
    doc = json.loads(text)
    # the block as written at its nesting level, then one space deeper
    block = '"symmetry": ' + io.canonical_json(doc["symmetry"]).replace("\n", "\n ")
    assert text.count(block) == 1
    report.write_text(text.replace(block, block.replace("\n", "\n ")))
    assert json.loads(report.read_text()) == doc
    differ = subprocess.run(argv, capture_output=True, text=True)
    assert differ.returncode == 1
    assert differ.stdout.split() == ["model.json", "report.json"]

    trajectory = tmp_path / "b" / "trajectory.csv"
    text = trajectory.read_text()
    at = next(i for i in range(text.index("\n"), len(text)) if text[i] in "123456789")
    trajectory.write_text(text[:at] + ("2" if text[at] == "1" else "1") + text[at + 1 :])
    differ = subprocess.run(argv, capture_output=True, text=True)
    assert differ.returncode == 1
    assert differ.stdout.split() == ["model.json", "report.json", "trajectory.csv"]
    assert "7 artifacts in both trees, 3 differ" in differ.stderr

    dump = tmp_path / "b" / "Example3_ViscousFluid_model.json"
    text = dump.read_text()
    at = next(i for i, c in enumerate(text) if c in "123456789")
    dump.write_text(text[:at] + ("2" if text[at] == "1" else "1") + text[at + 1 :])
    differ = subprocess.run(argv, capture_output=True, text=True)
    assert differ.returncode == 1
    assert differ.stdout.split() == [
        "Example3_ViscousFluid_model.json", "model.json", "report.json", "trajectory.csv"
    ]
    assert "7 artifacts in both trees, 4 differ" in differ.stderr


def test_compare_artifacts_tool_exits_2_when_nothing_is_compared(tmp_path):
    """Two trees without artifacts, as a mistyped path gives, pass no gate."""
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    (tmp_path / "b" / "notes.txt").write_text("not an artifact\n")
    tool = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "compare_artifacts.py")
    proc = subprocess.run(
        [sys.executable, tool, str(tmp_path / "a"), str(tmp_path / "b")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "0 artifacts in both trees, 0 differ" in proc.stderr


def test_cli_pipeline_model_json_reproduces_the_free_run_bitwise(tmp_path, capsys):
    """Simulating the written model.json gives the pipeline's own free run,
    bit for bit, whatever memory layout the fitted matrices had."""
    assert main(["pipeline", str(_pinned_config(tmp_path, ""))]) == 0
    out = tmp_path / "pinned"
    embedding = io.read_embedding(out / "embedding.json")
    outputs = ci.TimeSeries(embedding.states[:, 0], dt=embedding.dt)
    _, fit = ci.fit_model(embedding, outputs, io.read_symmetry_report(out / "symmetry.json"))
    model = io.read_model(out / "model.json")
    states, _ = ci.simulate(model, embedding.states[0], len(fit.free_run))
    assert np.array_equal(states, fit.free_run)
    capsys.readouterr()


@pytest.mark.parametrize("validate", [True, False])
def test_cli_pipeline_diverged_free_run(tmp_path, monkeypatch, capsys, validate):
    from chaosid import cli, dynamics

    def diverged(*args, **kwargs):
        raise ci.NonFiniteState("simulation diverged at step 7", step=7)

    monkeypatch.setattr(dynamics, "simulate", diverged)
    monkeypatch.setattr(cli, "simulate", diverged)
    cfg = _pinned_config(tmp_path, f"validate.enabled = {str(validate).lower()}")
    rc = main(["pipeline", str(cfg)])
    err = capsys.readouterr().err
    report = tmp_path / "pinned" / "report.json"
    if validate:
        # no attractor to measure: one error line, and no report
        assert rc == 4
        assert err.startswith("error:") and err.count("\n") == 1
        assert not report.exists()
    else:
        assert rc == 0
        doc = io.load_json(report)
        assert doc["fit"]["free_run_nrmse"] == [float("inf")]
        assert "Infinity" in report.read_text()
        assert any(w.startswith("free run diverged") for w in doc["warnings"])


def _run_chaosid(argv):
    """Run ``python -m chaosid argv``; returns the completed process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ci.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "chaosid", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _run_expecting_exit_2(argv):
    """Run ``python -m chaosid argv`` and return its stderr, which must be a
    single ``error:`` report with exit code 2 and no traceback."""
    proc = _run_chaosid(argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    return proc.stderr


# config keys that no longer exist: each took the one value every run used,
# which is now a constant or follows from tau and m
_REMOVED_KEYS = (
    "embedding.max_lag",
    "embedding.m_max",
    "ga.population",
    "ga.generations",
    "ga.mutation_rate",
    "ga.crossover_rate",
    "ga.residual_threshold",
    "ga.segment_window",
    "ga.segment_stride",
    "run.seed",
    "identify.ridge_lambda",
    "identify.free_run_steps",
    "validate.r_count",
    "validate.theiler",
    "validate.max_points",
)


@pytest.mark.parametrize(
    "case",
    [
        "embedding.m_max = 0",
        "ga.population = 1",
        "ga.generations = 60",
        "ga.residual_threshold = 0.2",
        "ga.mutation_rate = 0.1",
        "ga.crossover_rate = 0.7",
        "validate.r_count = 4",
        "identify.ridge_lambda = -1",
        "identify.ridge_lambda = nan",
        "identify.ridge_lambda = inf",
        "input.dt = inf",
        "validate.theiler = -3",
        "validate.max_points = 0",
        "embedding.tau = -5",
        "embedding.m = -1",
        "embedding.max_lag = -1",
        "embedding.max_lag = 99999",
        "ga.segment_window = -4",
        "ga.segment_stride = -2",
        "run.seed = -1",
        "identify.free_run_steps = 0",
        "embed --tau -5",
        "embed with a nan cell",
    ],
)
def test_cli_invalid_value_exits_2_without_traceback(tmp_path, case):
    if "=" in case:
        argv = ["pipeline", str(_pinned_config(tmp_path, case))]
    else:
        csv = tmp_path / "series.csv"
        flags = []
        if case.endswith("nan cell"):
            csv.write_text("y\n1.0\n2.0\nnan\n3.0\n")
        else:
            _write_wave_csv(csv)
            flags = case.split()[1:]
        argv = ["embed", str(csv), *flags, "--out-dir", str(tmp_path)]
    stderr = _run_expecting_exit_2(argv)
    if case.startswith(("validate.", "embedding.")):
        # rejected before the first stage writes its artifact
        assert not (tmp_path / "pinned" / "embedding.json").exists()
    if case.startswith(_REMOVED_KEYS):
        assert "unknown config key" in stderr


@pytest.mark.parametrize(
    "case",
    [
        "symmetry --population 1",
        "symmetry --generations 60",
        "symmetry --seed -1",
        "symmetry --threshold 0.2",
        "symmetry --window -4",
        "symmetry --stride 10",
        "pipeline --seed 1",
    ],
)
def test_cli_removed_flag_exits_2_without_traceback(tmp_path, case):
    """The GA and segment settings are constants: argparse refuses their
    flags as unrecognized arguments, before any stage runs."""
    command, *flags = case.split()
    if command == "symmetry":
        target = tmp_path / "embedding.json"
        states = np.random.default_rng(0).normal(size=(50, 2))
        io.write_embedding(target, ci.DelayEmbedding(states=states, tau=1, m=2))
    else:
        target = _pinned_config(tmp_path, "")
    proc = _run_chaosid([command, str(target), *flags, "--out-dir", str(tmp_path / "out")])
    assert proc.returncode == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


_HUGE = "1" + "0" * 400

# a top-level field set to a JSON value that its type refuses; the readers
# once took each through float(), bool() or list(), met it with a raw
# OverflowError, or (past 4300 digits) with json's raw ValueError:
# case: (artifact, field, the value's JSON text, what the error line says)
_BAD_FIELDS = {
    "embedding dt is a string": ("embedding", "dt", '"0.05"', ": dt must be finite"),
    "embedding dt is a bool": ("embedding", "dt", "true", ": dt must be finite"),
    "model dt is a string": ("model", "dt", '"0.05"', ": dt must be finite"),
    "model dt is a bool": ("model", "dt", "true", ": dt must be finite"),
    "model dt has 401 digits": ("model", "dt", _HUGE, ": dt must be finite"),
    "model a holds 401 digits": ("model", "a", f"[[{_HUGE}]]", ": A holds an integer too large"),
    "model a holds a string": ("model", "a", '[["0.5"]]', ": A must hold only integers and"),
    "model dt has 5001 digits": ("model", "dt", "1" + "0" * 5000, " is not valid JSON: "),
    "symmetry threshold has 401 digits": ("symmetry", "threshold", _HUGE, ": threshold must"),
    "symmetry diameter is a string": ("symmetry", "diameter", '"2.5"', ": diameter must"),
    "symmetry tie is a string": ("symmetry", "tie", '"false"', ": tie must be a bool"),
    "symmetry warnings is a string": ("symmetry", "warnings", '"abc"', ": warnings must"),
}


@pytest.mark.parametrize(
    "case",
    [
        "embedding tau is a string",
        "embedding states are ragged",
        "embedding dt is infinite",
        "symmetry threshold is null",
        "symmetry basis holds a number",
        "symmetry histogram is a list",
        "model basis holds a string",
        "embedding is not JSON",
        "model basis holds an unknown term type",
        "model misses a field",
        "model basis has a negative time_power",
        *_BAD_FIELDS,
    ],
)
def test_cli_malformed_artifact_exits_2_without_traceback(tmp_path, case):
    embedding = tmp_path / "embedding.json"
    states = np.random.default_rng(0).normal(size=(50, 2))
    io.write_embedding(embedding, ci.DelayEmbedding(states=states, tau=1, m=2))
    symmetry = tmp_path / "symmetry.json"
    io.write_symmetry_report(symmetry, ci.classify_symmetry([], threshold=0.01, diameter=1.0))
    model = tmp_path / "model.json"
    io.write_model(model, ci.load_fixture(ci.fixture_names()[0]).model)
    if case in _BAD_FIELDS:
        artifact, field, text, _ = _BAD_FIELDS[case]
        path = tmp_path / f"{artifact}.json"
        doc = json.loads(path.read_text())
        doc[field] = "@"
        path.write_text(json.dumps(doc).replace('"@"', text))
    elif case.endswith("JSON"):
        embedding.write_text('{"schema": "embedding/1", ')
    elif case.startswith("embedding"):
        doc = json.loads(embedding.read_text())
        if case.endswith("string"):
            doc["tau"] = "x"
        elif case.endswith("ragged"):
            doc["states"][3] = [1.0]
        else:
            doc["dt"] = float("inf")
        embedding.write_text(json.dumps(doc))
    elif case.startswith("symmetry"):
        doc = json.loads(symmetry.read_text())
        if case.endswith("null"):
            doc["threshold"] = None
        elif case.endswith("number"):
            doc["recommended_basis"] = [1]
        else:
            doc["class_histogram"] = []
        symmetry.write_text(json.dumps(doc))
    else:
        doc = json.loads(model.read_text())
        if case.endswith("string"):
            doc["basis"] = ["x"]
        elif case.endswith("type"):
            doc["basis"] = [{"type": "spline"}]
        elif case.endswith("time_power"):
            # t**-1 is infinite at t = 0, which once ran into numpy's
            # divide-by-zero warning and a divergence at step 1
            doc["basis"][1]["time_power"] = -1.0
        else:
            del doc["a"]
        model.write_text(json.dumps(doc))
    if case.startswith("model"):
        argv = ["simulate", str(model), "--out-dir", str(tmp_path)]
    elif case.startswith("embedding") and "dt" not in case:
        argv = ["symmetry", str(embedding), "--out-dir", str(tmp_path)]
    else:
        argv = ["identify", str(embedding), str(symmetry), "--out-dir", str(tmp_path)]
    stderr = _run_expecting_exit_2(argv)
    assert str(tmp_path) in stderr and len(stderr.splitlines()) == 1
    assert "Warning" not in stderr
    if case.endswith("time_power"):
        assert ": time_power must be >= 0" in stderr
    if case in _BAD_FIELDS:
        assert _BAD_FIELDS[case][3] in stderr


def test_cli_pipeline_requires_input_path(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("embedding.tau = 1\n")
    rc = main(["pipeline", str(cfg)])
    assert rc == 2
    capsys.readouterr()
