"""File formats shared by the command line tools.

Three formats live here: a strict CSV dialect for time series and plot-ready
tables, a canonical JSON rendering for every structured artifact, and a flat
key=value configuration format.

CSV dialect: comma separators, '.' decimal point, UTF-8 with or without a
byte-order mark, LF or CRLF line endings, lines starting with '#' ignored,
an optional single header row: a first row none of whose cells parses as a
number.  :func:`write_table` refuses a header cell that would not read back,
and a comment with a line break.

JSON artifacts are written through :func:`canonical_json`: the text of
``json.dumps(value, sort_keys=True, indent=1)``, which sorts object keys,
indents by one space and renders floats in Python's shortest round-trip repr,
so that a rewrite of the same data is byte-identical and doubles survive a
round trip exactly.  Indented, json renders every float in Python, so one
recursive generator, :func:`_chunks`, yields that text itself piece by
piece.  A float array is the list of its leading-axis entries, rendered in
bulk one block of ``_BLOCK`` rows at a time and nested by their shape.
:func:`write_json` writes each piece as it comes, so no document's whole
text is held in memory.

Config files hold one ``key = value`` per line; an unknown or repeated key
is an error.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .embedding import DelayEmbedding, TimeSeries
from .errors import ConfigError, InputError, InvalidValue, NotFoundError, _finite, _integer, _real
from .model import (
    Exponential,
    ForcingBasis,
    Polynomial,
    Product,
    Sinusoid,
    StateSpaceModel,
)
from .symmetry import SymmetryReport, SymmetryTransform, TransformClass

EMBEDDING_SCHEMA = "embedding/1"
MODEL_SCHEMA = "model/1"
SYMMETRY_SCHEMA = "symmetry/1"
COMPARISON_SCHEMA = "comparison/1"
REPORT_SCHEMA = "run-report/1"


def _builtin(value):
    """The numpy values json cannot encode, as builtins."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


#: leading-axis rows of an array turned into Python scalars at a time
_BLOCK = 512


def _nest(cells, shape, level):
    """Runs of cell texts nested as lists of this shape, ``level`` deep."""
    # innermost axis first: each pass joins runs of cells into one list
    for depth in range(len(shape) - 1, -1, -1):
        pad = "\n" + " " * (level + depth + 1)
        close = "\n" + " " * (level + depth) + "]"
        width = shape[depth]
        cells = [
            "[" + pad + ("," + pad).join(cells[i : i + width]) + close
            for i in range(0, len(cells), width)
        ]
    return cells


def _float_texts(array):
    """The values of a float array as json writes them, in C order."""
    values = np.ravel(array).tolist()
    cells = list(map(float.__repr__, values))
    # a sum that is not finite has a non-finite term, or overflowed
    if not math.isfinite(sum(values)):
        cells = [_NON_FINITE.get(cell, cell) for cell in cells]
    return cells


def _key(key):
    """A dict key as json writes it: a string, or a scalar's text quoted."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else next(_chunks(key, 0)))


def _chunks(value, level):
    """The text ``json.dumps(value, sort_keys=True, indent=1)`` writes for
    ``value`` ``level`` deep, a piece at a time: a scalar, the start of a
    dict entry or list item, or a block of ``_BLOCK`` rows of a float array."""
    pad = "\n" + " " * (level + 1)
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None or value is True or value is False:
        yield json.dumps(value)
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, float):
        text = float.__repr__(value)
        yield _NON_FINITE.get(text, text)
    # half, single or double: the float dtypes whose tolist() yields Python floats
    elif isinstance(value, np.ndarray) and value.dtype.char in "efd" and value.size and value.ndim:
        for at in range(0, len(value), _BLOCK):
            cells = _nest(_float_texts(value[at : at + _BLOCK]), value.shape[1:], level + 1)
            yield ("," if at else "[") + pad + ("," + pad).join(cells)
        yield "\n" + " " * level + "]"
    elif isinstance(value, (dict, list, tuple)):
        if isinstance(value, dict):  # sorted as json sorts them: by key, not by key text
            items, brackets = ((_key(k) + ": ", v) for k, v in sorted(value.items())), "{}"
        else:
            items, brackets = (("", item) for item in value), "[]"
        sep = brackets[0] + pad
        for head, item in items:
            yield sep + head
            yield from _chunks(item, level + 1)
            sep = "," + pad
        yield "\n" + " " * level + brackets[1] if value else brackets
    else:
        yield from _chunks(_builtin(value), level)


def canonical_json(value):
    """Render ``value`` as ``json.dumps(value, sort_keys=True, indent=1)`` does
    with numpy values as builtins: the pieces of :func:`_chunks`, joined."""
    return "".join(_chunks(value, 0))


def path_error(path, exc):
    """The InputError for OSError ``exc`` on ``path``: NotFoundError if the
    path does not exist."""
    if isinstance(exc, FileNotFoundError):
        return NotFoundError(f"no such file: {path}")
    return InputError(f"{path}: {exc.strerror or exc}")


def _open(path, *args, **kwargs):
    """``open(path, ...)``, whose OSError becomes :func:`path_error`'s."""
    try:
        return open(path, *args, **kwargs)
    except OSError as exc:
        raise path_error(path, exc) from exc


def write_json(path, value):
    """Write ``canonical_json(value)`` and a newline, each piece of
    :func:`_chunks` as it comes."""
    with _open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chunks(value, 0))
        fh.write("\n")


def load_json(path):
    with _open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
            raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _fields(obj, **extra):
    """The fields of dataclass ``obj`` by name, with ``extra`` added or in
    their place, as the JSON renderer writes them: numpy values as
    builtins, tuples as lists.  The names come from ``__dataclass_fields__``
    (no field here is a ClassVar): ``dataclasses.fields`` builds a tuple on
    each call, which over a report's transforms raised the peak RSS."""
    return {**{name: getattr(obj, name) for name in obj.__dataclass_fields__}, **extra}


def _read_artifact(path, schema, what, build):
    """``build(doc)`` on the JSON document at ``path`` after its schema check;
    a missing field or malformed data becomes an InputError naming the file."""
    doc = load_json(path)
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise InputError(f"{path} has schema {found!r}, expected {schema!r}")
    try:
        return build(doc)
    except KeyError as exc:
        raise InputError(f"{path}: missing {what} field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad {what} data: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV


def _is_number(cell):
    """Whether a CSV cell parses as a float: a header row has no such cell."""
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_row(cells):
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            return None
    return values


def read_series(path, dt=1.0):
    """Read a multi-channel time series CSV into a TimeSeries.

    Columns are channels.  A single leading header row supplies channel
    labels when none of its cells parses as a number; a first row with both
    kinds of cell is a data row with a non-numeric cell.
    """
    labels = None
    values = []  # of all rows: a list per row takes more than its floats
    width = None
    with _open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            parsed = _parse_row(cells)
            if parsed is None:
                if values or labels is not None or any(map(_is_number, cells)):
                    raise InputError(f"{path}:{lineno}: non-numeric cell in data row")
                labels = cells
                continue
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise InputError(
                    f"{path}:{lineno}: row has {len(parsed)} cells, expected {width}"
                )
            values.extend(parsed)
    if not values:
        raise InputError(f"{path}: no data rows")
    values = np.array(values).reshape(-1, width)
    if labels is not None and len(labels) != values.shape[1]:
        raise InputError(
            f"{path}: header names {len(labels)} columns, data has {values.shape[1]}"
        )
    return TimeSeries(values=values, dt=dt, labels=tuple(labels) if labels else None)


def write_table(path, header, rows, comments=()):
    """Write a plot-ready CSV table.

    ``rows`` is an iterable of value sequences, or a 2-D array.  Floats are
    rendered with repr so they round-trip exactly.  An array is written a
    block of ``_BLOCK`` rows at a time, one write per block; a bool, int or
    float array's block is first turned into lists of Python scalars, whose
    ``str`` is the cell's text at a fraction of a numpy scalar's cost.
    ``comments`` become '#' footer lines, one line each.  A header cell
    that :func:`read_series` would not read back as its column's name, a
    comment holding a line break (it would start a line that is no
    comment), or rows not 2-D or not as wide as the header raise
    InvalidValue before anything is written.
    """
    # a number reads as data, a separator or line break splits the row,
    # whitespace is stripped, a leading '#' comments the row out, a leading
    # byte-order mark is dropped, and a blank row is skipped
    for k, cell in enumerate(header):
        if (
            _is_number(cell)
            or cell != cell.strip()
            or "," in cell
            or "\n" in cell
            or "\r" in cell
            or (k == 0 and cell.startswith(("#", "\ufeff")))
            or (len(header) == 1 and not cell)
        ):
            raise InvalidValue(f"header cell {cell!r} would not read back as a column name")
    comments = [str(comment) for comment in comments]
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise InvalidValue(f"comment {comment!r} holds a line break")
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != len(header):
            raise InvalidValue(f"array of shape {rows.shape} under {len(header)} header cells")
        # these dtypes' tolist() yields Python scalars, whose str is their _csv_cell
        builtin = rows.dtype.kind in "biu" or rows.dtype.char in "efd"
        cell = str if builtin else _csv_cell
        blocks = (rows[at : at + _BLOCK].tolist() for at in range(0, len(rows), _BLOCK))
    else:
        rows = list(rows)
        if any(len(row) != len(header) for row in rows):
            raise InvalidValue(f"a row is not as wide as the {len(header)} header cells")
        cell, blocks = _csv_cell, [rows]
    with _open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write("".join([",".join(map(cell, row)) + "\n" for row in block]))
        for comment in comments:
            fh.write(f"# {comment}\n")


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_series(path, series, comments=()):
    write_table(path, series.labels, series.values, comments=comments)


# ---------------------------------------------------------------------------
# Embedding

def write_embedding(path, embedding):
    write_json(path, _fields(embedding, schema=EMBEDDING_SCHEMA))


def _int_field(value, name):
    """An integer field as an int; a float with an integral value, as JSON
    may write one, reads as that integer."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _integer(f"field {name!r}", value)


def _rows(values, width):
    """A JSON list of rows; ``[]``, the way zero rows are written, becomes
    zero rows of ``width`` columns."""
    return np.zeros((0, width)) if values == [] else values


def _embedding_from_doc(doc):
    m = _int_field(doc["m"], "m")
    return DelayEmbedding(
        states=_rows(doc["states"], m),
        tau=_int_field(doc["tau"], "tau"),
        m=m,
        source_channel=_int_field(doc["source_channel"], "source_channel"),
        dt=doc["dt"],
    )


def read_embedding(path):
    return _read_artifact(path, EMBEDDING_SCHEMA, "embedding", _embedding_from_doc)


# ---------------------------------------------------------------------------
# Forcing basis terms

def term_to_dict(term):
    doc = _fields(term, type=type(term).__name__.lower())
    if isinstance(term, Product):
        doc.update(first=term_to_dict(term.first), second=term_to_dict(term.second))
    return doc


def term_from_dict(doc):
    kind = doc.get("type")
    time_power = doc.get("time_power", 1.0)
    if kind == "sinusoid":
        return Sinusoid(omega=doc["omega"], phi=doc["phi"], time_power=time_power)
    if kind == "exponential":
        return Exponential(rate=doc["rate"], time_power=time_power)
    if kind == "polynomial":
        return Polynomial(
            degree=_int_field(doc["degree"], "degree"),
            coeffs=doc.get("coeffs"),
            time_power=time_power,
        )
    if kind == "product":
        return Product(
            first=term_from_dict(doc["first"]), second=term_from_dict(doc["second"])
        )
    raise InvalidValue(f"unknown basis term type {kind!r}")


def basis_to_list(basis):
    return [term_to_dict(t) for t in basis.terms]


def basis_from_list(items):
    return ForcingBasis(tuple(term_from_dict(d) for d in items))


# ---------------------------------------------------------------------------
# Model

def write_model(path, model):
    doc = _fields(model, schema=MODEL_SCHEMA, basis=basis_to_list(model.basis))
    for name in ("A", "B", "C"):  # written in lower case
        doc[name.lower()] = doc.pop(name)
    write_json(path, doc)


def _model_from_doc(doc):
    return StateSpaceModel(
        A=doc["a"],
        B=doc["b"],
        C=_rows(doc["c"], len(doc["a"])),
        basis=basis_from_list(doc["basis"]),
        dt=doc["dt"],
        embedding_tau=_int_field(doc.get("embedding_tau", 0), "embedding_tau"),
        embedding_channel=_int_field(doc.get("embedding_channel", 0), "embedding_channel"),
    )


def read_model(path):
    return _read_artifact(path, MODEL_SCHEMA, "model", _model_from_doc)


def fit_report_to_dict(report):
    doc = _fields(report)
    del doc["free_run"]
    return doc


# ---------------------------------------------------------------------------
# Symmetry report

def transform_to_dict(t):
    doc = _fields(t)
    doc["class"] = doc.pop("transform_class").value
    return doc


def transform_from_dict(doc):
    affine = doc.get("affine")
    return SymmetryTransform(
        transform_class=TransformClass(doc["class"]),
        rotation=_finite("rotation", doc["rotation"]),
        scale=_real("scale", doc["scale"]),
        translation=_finite("translation", doc["translation"]),
        affine=_finite("affine", affine) if affine is not None else None,
        residual=_real("residual", doc["residual"]),
        source_segment=_int_field(doc["source_segment"], "source_segment"),
        target_segment=_int_field(doc["target_segment"], "target_segment"),
    )


def symmetry_report_to_dict(report):
    return _fields(
        report,
        schema=SYMMETRY_SCHEMA,
        class_histogram={cls.value: n for cls, n in report.class_histogram.items()},
        dominant_class=report.dominant_class.value if report.dominant_class else None,
        recommended_basis=basis_to_list(report.recommended_basis),
        transforms=[transform_to_dict(t) for t in report.transforms],
    )


def write_symmetry_report(path, report):
    write_json(path, symmetry_report_to_dict(report))


def _symmetry_report_from_doc(doc):
    dominant = doc.get("dominant_class")
    return SymmetryReport(
        transforms=[transform_from_dict(d) for d in doc["transforms"]],
        class_histogram={
            TransformClass(name): _int_field(n, "class_histogram")
            for name, n in doc["class_histogram"].items()
        },
        dominant_class=TransformClass(dominant) if dominant else None,
        recommended_basis=basis_from_list(doc["recommended_basis"]),
        threshold=doc["threshold"],
        diameter=doc["diameter"],
        tie=doc.get("tie", False),
        warnings=doc.get("warnings", []),
    )


def read_symmetry_report(path):
    return _read_artifact(path, SYMMETRY_SCHEMA, "symmetry", _symmetry_report_from_doc)


# ---------------------------------------------------------------------------
# Validation metrics

def dimension_to_dict(est):
    return _fields(est)


def lyapunov_to_dict(est):
    return _fields(est)


def comparison_to_dict(report):
    return _fields(report, schema=COMPARISON_SCHEMA)


# ---------------------------------------------------------------------------
# Config

def parse_config(path, defaults):
    """Parse a flat key=value config file against ``defaults``.

    Unknown and repeated keys are rejected.  Values are coerced to the type
    of the default for the same key; booleans accept true/false/1/0.
    """
    values = dict(defaults)
    set_on = {}  # the line number that set each key
    with _open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in defaults:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in set_on:
                raise ConfigError(
                    f"{path}:{lineno}: config key {key!r} already set on line {set_on[key]}"
                )
            set_on[key] = lineno
            values[key] = _coerce(key, text, defaults[key], path, lineno)
    return values


def _coerce(key, text, default, path, lineno):
    kind = type(default)
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "1"):
                return True
            if lowered in ("false", "0"):
                return False
            raise InvalidValue(text)
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(
            f"{path}:{lineno}: bad value {text!r} for {key!r}, expected {kind.__name__}"
        ) from exc
