"""File formats shared by the command line tools.

Three formats live here: a strict CSV dialect for time series and plot-ready
tables, a canonical JSON rendering for every structured artifact, and a flat
key=value configuration format.

CSV dialect: comma separators, '.' decimal point, UTF-8 with or without a
byte-order mark, LF or CRLF line endings, lines starting with '#' ignored,
optional single header row detected by being non-numeric.

JSON artifacts are written through :func:`canonical_json`, which sorts object
keys, indents by one space and renders floats in Python's shortest round-trip
repr, so that a rewrite of the same data is byte-identical and doubles
survive a round trip exactly.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

from .embedding import DelayEmbedding, TimeSeries
from .errors import ConfigError, InputError, InvalidValue, NotFoundError
from .model import (
    Exponential,
    FitReport,
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
    """``json.dumps`` hook: the numpy values json cannot encode, as builtins."""
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


def _render_floats(array, level):
    """A non-empty float array as ``json.dumps(array.tolist(), indent=1)``
    renders it ``level`` levels deep, without json's per-value encoder."""
    cells = list(map(float.__repr__, np.ravel(array).tolist()))
    if not np.isfinite(array).all():
        cells = [_NON_FINITE.get(cell, cell) for cell in cells]
    # innermost axis first: each pass joins runs of cells into one list
    for depth in range(array.ndim - 1, -1, -1):
        pad = "\n" + " " * (level + depth + 1)
        close = "\n" + " " * (level + depth) + "]"
        width = array.shape[depth]
        cells = [
            "[" + pad + ("," + pad).join(cells[i : i + width]) + close
            for i in range(0, len(cells), width)
        ]
    return cells[0]


def canonical_json(value):
    """Render ``value`` as deterministic JSON text.

    Keys are sorted, the indent is one space, floats use Python's shortest
    round-trip repr, and non-finite numbers use the Infinity/NaN literals
    that :func:`json.loads` accepts.

    ``json`` renders each float of an indented document in Python, so
    non-empty float arrays are rendered by :func:`_render_floats` instead,
    to the same text.  ``json.dumps`` first writes a placeholder string for
    each; the placeholder is lengthened until no other text contains it.
    """
    arrays = []
    tag = "\0"

    def default(obj):
        # tolist() yields Python floats only for dtypes no wider than double
        if (
            isinstance(obj, np.ndarray)
            and obj.dtype.kind == "f"
            and obj.dtype.itemsize <= 8
            and obj.ndim
            and obj.size
        ):
            arrays.append(obj)
            return f"{tag}{len(arrays) - 1}"
        return _builtin(obj)

    while True:
        arrays.clear()
        text = json.dumps(value, sort_keys=True, indent=1, default=default)
        # the quote that opens a placeholder, then the escaped tag
        opening = json.dumps(tag)[:-1]
        if text.count(opening) == len(arrays):
            break
        tag += "\0"
    parts = re.split(re.escape(opening) + r'(\d+)"', text)
    out = [parts[0]]
    for index, tail in zip(parts[1::2], parts[2::2]):
        # the placeholder's line is indented by its nesting level
        line = out[-1].rsplit("\n", 1)[-1]
        level = len(line) - len(line.lstrip(" "))
        out += [_render_floats(arrays[int(index)], level), tail]
    return "".join(out)


def write_json(path, value):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(value))
        fh.write("\n")


def load_json(path):
    if not os.path.exists(path):
        raise NotFoundError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc


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
    labels when its cells do not parse as numbers.
    """
    if not os.path.exists(path):
        raise NotFoundError(f"no such file: {path}")
    labels = None
    rows = []
    width = None
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            parsed = _parse_row(cells)
            if parsed is None:
                if not rows and labels is None:
                    labels = cells
                    continue
                raise InputError(f"{path}:{lineno}: non-numeric cell in data row")
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise InputError(
                    f"{path}:{lineno}: row has {len(parsed)} cells, expected {width}"
                )
            rows.append(parsed)
    if not rows:
        raise InputError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float)
    if labels is not None and len(labels) != values.shape[1]:
        raise InputError(
            f"{path}: header names {len(labels)} columns, data has {values.shape[1]}"
        )
    return TimeSeries(values=values, dt=dt, labels=tuple(labels) if labels else None)


def write_table(path, header, rows, comments=()):
    """Write a plot-ready CSV table.

    ``rows`` is an iterable of value sequences; floats are rendered with
    repr so they round-trip exactly.  ``comments`` become '#' footer lines.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")
        for comment in comments:
            fh.write(f"# {comment}\n")


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_series(path, series, comments=()):
    labels = series.labels or tuple(f"ch{i}" for i in range(series.values.shape[1]))
    write_table(path, labels, series.values, comments=comments)


# ---------------------------------------------------------------------------
# Embedding

def write_embedding(path, embedding):
    doc = {
        "schema": EMBEDDING_SCHEMA,
        "tau": embedding.tau,
        "m": embedding.m,
        "dt": embedding.dt,
        "source_channel": embedding.source_channel,
        "states": embedding.states,
    }
    write_json(path, doc)


def _rows(values, width):
    """A JSON list of rows as a 2-D float array; ``[]``, the way zero rows
    are written, becomes zero rows of ``width`` columns."""
    array = np.asarray(values, dtype=float)
    return array.reshape(0, width) if array.shape == (0,) else array


def _embedding_from_doc(doc):
    m = int(doc["m"])
    return DelayEmbedding(
        states=_rows(doc["states"], m),
        tau=int(doc["tau"]),
        m=m,
        source_channel=int(doc["source_channel"]),
        dt=float(doc["dt"]),
    )


def read_embedding(path):
    return _read_artifact(path, EMBEDDING_SCHEMA, "embedding", _embedding_from_doc)


# ---------------------------------------------------------------------------
# Forcing basis terms

def term_to_dict(term):
    if isinstance(term, Sinusoid):
        return {
            "type": "sinusoid",
            "omega": term.omega,
            "phi": term.phi,
            "time_power": term.time_power,
        }
    if isinstance(term, Exponential):
        return {"type": "exponential", "rate": term.rate, "time_power": term.time_power}
    if isinstance(term, Polynomial):
        return {
            "type": "polynomial",
            "degree": term.degree,
            "coeffs": list(term.coeffs) if term.coeffs is not None else None,
            "time_power": term.time_power,
        }
    if isinstance(term, Product):
        return {
            "type": "product",
            "first": term_to_dict(term.first),
            "second": term_to_dict(term.second),
        }
    raise TypeError(f"unknown basis term {type(term).__name__}")


def term_from_dict(doc):
    kind = doc.get("type")
    if kind == "sinusoid":
        return Sinusoid(
            omega=float(doc["omega"]),
            phi=float(doc["phi"]),
            time_power=float(doc.get("time_power", 1.0)),
        )
    if kind == "exponential":
        return Exponential(
            rate=float(doc["rate"]), time_power=float(doc.get("time_power", 1.0))
        )
    if kind == "polynomial":
        coeffs = doc.get("coeffs")
        return Polynomial(
            degree=int(doc["degree"]),
            coeffs=tuple(float(c) for c in coeffs) if coeffs is not None else None,
            time_power=float(doc.get("time_power", 1.0)),
        )
    if kind == "product":
        return Product(
            first=term_from_dict(doc["first"]), second=term_from_dict(doc["second"])
        )
    raise InputError(f"unknown basis term type {kind!r}")


def basis_to_list(basis):
    return [term_to_dict(t) for t in basis.terms]


def basis_from_list(items):
    return ForcingBasis(tuple(term_from_dict(d) for d in items))


# ---------------------------------------------------------------------------
# Model

def write_model(path, model):
    doc = {
        "schema": MODEL_SCHEMA,
        "a": model.A,
        "b": model.B,
        "c": model.C,
        "dt": model.dt,
        "basis": basis_to_list(model.basis),
        "embedding_tau": model.embedding_tau,
        "embedding_channel": model.embedding_channel,
    }
    write_json(path, doc)


def _model_from_doc(doc):
    return StateSpaceModel(
        A=np.asarray(doc["a"], dtype=float),
        B=np.asarray(doc["b"], dtype=float),
        C=_rows(doc["c"], len(doc["a"])),
        basis=basis_from_list(doc["basis"]),
        dt=float(doc["dt"]),
        embedding_tau=int(doc.get("embedding_tau", 0)),
        embedding_channel=int(doc.get("embedding_channel", 0)),
    )


def read_model(path):
    return _read_artifact(path, MODEL_SCHEMA, "model", _model_from_doc)


def fit_report_to_dict(report):
    return {
        "residual_rms": list(np.atleast_1d(report.residual_rms)),
        "one_step_nrmse": list(np.atleast_1d(report.one_step_nrmse)),
        "free_run_nrmse": list(np.atleast_1d(report.free_run_nrmse)),
        "condition_estimate": report.condition_estimate,
        "ridge_lambda": report.ridge_lambda,
        "basis_description": list(report.basis_description),
        "warnings": list(report.warnings),
    }


# ---------------------------------------------------------------------------
# Symmetry report

def transform_to_dict(t):
    return {
        "class": t.transform_class.value,
        "source_segment": t.source_segment,
        "target_segment": t.target_segment,
        "residual": t.residual,
        "rotation": t.rotation,
        "scale": t.scale,
        "translation": t.translation,
        "affine": t.affine,
    }


def transform_from_dict(doc):
    affine = doc.get("affine")
    return SymmetryTransform(
        transform_class=TransformClass(doc["class"]),
        rotation=np.asarray(doc["rotation"], dtype=float),
        scale=float(doc["scale"]),
        translation=np.asarray(doc["translation"], dtype=float),
        affine=np.asarray(affine, dtype=float) if affine is not None else None,
        residual=float(doc["residual"]),
        source_segment=int(doc["source_segment"]),
        target_segment=int(doc["target_segment"]),
    )


def symmetry_report_to_dict(report):
    return {
        "schema": SYMMETRY_SCHEMA,
        "class_histogram": {cls.value: n for cls, n in report.class_histogram.items()},
        "dominant_class": report.dominant_class.value if report.dominant_class else None,
        "tie": report.tie,
        "threshold": report.threshold,
        "diameter": report.diameter,
        "recommended_basis": basis_to_list(report.recommended_basis),
        "transforms": [transform_to_dict(t) for t in report.transforms],
        "warnings": list(report.warnings),
    }


def write_symmetry_report(path, report):
    write_json(path, symmetry_report_to_dict(report))


def _symmetry_report_from_doc(doc):
    dominant = doc.get("dominant_class")
    return SymmetryReport(
        transforms=[transform_from_dict(d) for d in doc["transforms"]],
        class_histogram={
            TransformClass(name): int(n) for name, n in doc["class_histogram"].items()
        },
        dominant_class=TransformClass(dominant) if dominant else None,
        recommended_basis=basis_from_list(doc["recommended_basis"]),
        threshold=float(doc["threshold"]),
        diameter=float(doc["diameter"]),
        tie=bool(doc.get("tie", False)),
        warnings=list(doc.get("warnings", [])),
    )


def read_symmetry_report(path):
    return _read_artifact(path, SYMMETRY_SCHEMA, "symmetry", _symmetry_report_from_doc)


# ---------------------------------------------------------------------------
# Validation metrics

def dimension_to_dict(est):
    if est is None:
        return None
    return {
        "dimension": est.dimension,
        "r_squared": est.r_squared,
        "fit_range": list(est.fit_range),
        "reliable": est.reliable,
        "n_points": est.n_points,
        "warnings": list(est.warnings),
    }


def lyapunov_to_dict(est):
    if est is None:
        return None
    return {
        "exponent": est.exponent,
        "fit_range": list(est.fit_range),
        "n_pairs": est.n_pairs,
        "warnings": list(est.warnings),
    }


def comparison_to_dict(report):
    return {
        "schema": COMPARISON_SCHEMA,
        "nrmse": list(np.atleast_1d(report.nrmse)),
        "histogram_distance": list(np.atleast_1d(report.histogram_distance)),
        "dimension_delta": report.dimension_delta,
        "reference_dimension": report.reference_dimension,
        "modeled_dimension": report.modeled_dimension,
        "warnings": list(report.warnings),
    }


# ---------------------------------------------------------------------------
# Config

def parse_config(path, defaults):
    """Parse a flat key=value config file against ``defaults``.

    Unknown keys are rejected.  Values are coerced to the type of the
    default for the same key; booleans accept true/false/1/0.
    """
    if not os.path.exists(path):
        raise NotFoundError(f"no such config file: {path}")
    values = dict(defaults)
    with open(path, "r", encoding="utf-8-sig") as fh:
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
