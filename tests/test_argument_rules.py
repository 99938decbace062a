"""The library's four argument rules (``errors._integer``, ``_positive``,
``_real`` and ``_finite``) and the entry points and value types that read
their arguments through them: each bad value raises InvalidValue naming the
argument, where it once raised a raw numpy or Python exception, diverged,
or was taken silently."""

import dataclasses
import re

import numpy as np
import pytest

import chaosid as ci
from chaosid import errors

WAVE = np.sin(2.0 * np.pi * np.arange(1000) / 62.5)
SERIES = ci.TimeSeries(np.column_stack([WAVE, np.cos(0.3 * np.arange(1000))]), dt=0.1)
EMB = ci.delay_embed(SERIES, tau=16, m=2)
DECAY = ci.OdeSystem(name="decay", dimension=1, rhs=lambda x: [-v for v in x])
STILL = ci.StateSpaceModel(A=0.5 * np.eye(2), B=np.zeros((2, 0)), C=np.eye(2),
                           basis=ci.ForcingBasis(()), dt=1.0)
REPORT = ci.classify_symmetry([], threshold=1.0, diameter=2.0)
#: an integer too large for a double: float() of it raises OverflowError
HUGE = 10**400


def _with_nan(values):
    values = values.copy()
    values[500] = np.nan
    return values


# argument name in the message, and a call that breaks its rule
CASES = {
    "fnn-fractional-tau": ("tau", lambda: ci.false_nearest_neighbors(SERIES, tau=2.5)),
    "fnn-fractional-m_max": ("m_max", lambda: ci.false_nearest_neighbors(SERIES, m_max=2.5)),
    "embed-fractional-tau": ("tau", lambda: ci.delay_embed(SERIES, tau=2.5)),
    "embed-fractional-m": ("m", lambda: ci.delay_embed(SERIES, m=2.5)),
    "embedding-fractional-tau": ("tau", lambda: ci.DelayEmbedding(EMB.states, tau=2.5, m=2)),
    "embedding-bool-tau": ("tau", lambda: ci.DelayEmbedding(EMB.states, tau=True, m=2)),
    "segments-fractional-window": ("window", lambda: ci.extract_segments(EMB, 2.5, 8)),
    "segments-fractional-stride": ("stride", lambda: ci.extract_segments(EMB, 32, 2.5)),
    "ga-fractional-population": ("population", lambda: ci.symmetry.GaConfig(population=2.5)),
    "fractional-channel": ("channel", lambda: SERIES.channel(0.5)),
    "bool-channel": ("channel", lambda: SERIES.channel(True)),
    "ami-bool-channel": ("channel", lambda: ci.average_mutual_information(SERIES, channel=True)),
    "lyapunov-nan-period": ("mean_period", lambda: ci.largest_lyapunov(EMB, mean_period=np.nan)),
    "lyapunov-inf-period": ("mean_period", lambda: ci.largest_lyapunov(EMB, mean_period=np.inf)),
    "polynomial-fractional-degree": ("degree", lambda: ci.Polynomial(degree=2.5)),
    "model-fractional-embedding_tau": ("embedding_tau", lambda: ci.StateSpaceModel(
        STILL.A, STILL.B, STILL.C, STILL.basis, dt=1.0, embedding_tau=2.5)),
    "rk4-inf-dt": ("dt", lambda: ci.rk4_integrate(DECAY, [1.0], dt=np.inf, steps=5)),
    "rk4-nan-x0": ("x0", lambda: ci.rk4_integrate(DECAY, [np.nan], dt=0.1, steps=5)),
    "period-of-nan": ("values", lambda: ci.dominant_period(_with_nan(WAVE))),
    "simulate-nan-x0": ("x0", lambda: ci.simulate(STILL, x0=[np.nan, 0.0], steps=5)),
    "simulate-short-x0": ("x0", lambda: ci.simulate(STILL, x0=[0.0], steps=5)),
    "model-oblong-A": ("A", lambda: ci.StateSpaceModel(
        np.ones((2, 3)), STILL.B, STILL.C, STILL.basis, dt=1.0)),
    "model-short-B": ("B", lambda: ci.StateSpaceModel(
        STILL.A, np.zeros((1, 0)), STILL.C, STILL.basis, dt=1.0)),
    "model-wide-B": ("B", lambda: ci.StateSpaceModel(
        STILL.A, np.zeros((2, 1)), STILL.C, STILL.basis, dt=1.0)),
    "model-wide-C": ("C", lambda: ci.StateSpaceModel(
        STILL.A, STILL.B, np.eye(3), STILL.basis, dt=1.0)),
    # refused by the value types themselves, whether built in Python or read
    # from a file; the parent release took each or raised a raw exception
    "nan-omega": ("omega", lambda: ci.Sinusoid(np.nan)),
    "bool-phi": ("phi", lambda: ci.Sinusoid(1.0, phi=True)),
    "inf-rate": ("rate", lambda: ci.Exponential(np.inf)),
    "string-rate": ("rate", lambda: ci.Exponential("1.5")),
    "nan-coeff": ("coeffs", lambda: ci.Polynomial(1, coeffs=(1, np.nan))),
    "nan-time_power": ("time_power", lambda: ci.Polynomial(1, time_power=np.nan)),
    # t**time_power is infinite at t = 0, the first step of every run
    "negative-time_power-sinusoid": ("time_power", lambda: ci.Sinusoid(1.0, time_power=-1.0)),
    "negative-time_power-exponential": ("time_power", lambda: ci.Exponential(1.0, time_power=-1.0)),
    "negative-time_power-polynomial": ("time_power", lambda: ci.Polynomial(2, time_power=-0.5)),
    "product-of-a-string": ("first", lambda: ci.Product("x", ci.Sinusoid(1.0))),
    "basis-of-a-string": ("terms[0]", lambda: ci.ForcingBasis(("x",))),
    "model-nan-A": ("A", lambda: ci.StateSpaceModel(
        [[np.nan, 0.0], [0.0, 0.5]], STILL.B, STILL.C, STILL.basis, dt=1.0)),
    "embedding-inf-state": ("states", lambda: ci.DelayEmbedding([[0.0], [np.inf]], tau=1, m=1)),
    "solve-nan-regressor": ("Z", lambda: ci.solve_least_squares(
        [[1.0, 0.0], [0.0, np.nan], [1.0, 1.0]], np.ones((3, 1)))),
    "output-map-nan-output": ("targets", lambda: ci.fit_output_map(
        EMB, np.where(np.arange(EMB.n_states) == 7, np.nan, 1.0))),
    # an integer too large for a double once raised a raw OverflowError, or
    # was taken as a dt; a basis of bare terms raised a raw AttributeError;
    # a report took any tie and any iterable of warnings
    "huge-omega": ("omega", lambda: ci.Sinusoid(HUGE)),
    "huge-dt": ("dt", lambda: ci.TimeSeries(WAVE, dt=HUGE)),
    "huge-state": ("states", lambda: ci.DelayEmbedding([[0.0], [HUGE]], tau=1, m=1)),
    "model-tuple-basis": ("basis", lambda: ci.StateSpaceModel(
        STILL.A, np.zeros((2, 1)), STILL.C, (ci.Sinusoid(1.0),), dt=1.0)),
    "report-string-tie": ("tie", lambda: dataclasses.replace(REPORT, tie="false")),
    "report-string-warnings": ("warnings", lambda: dataclasses.replace(REPORT, warnings="abc")),
    "report-number-warning": ("warnings", lambda: dataclasses.replace(REPORT, warnings=[1])),
    "report-nan-threshold": ("threshold", lambda: ci.classify_symmetry([], np.nan)),
}


@pytest.mark.parametrize("name, call", CASES.values(), ids=list(CASES))
def test_a_bad_argument_raises_invalid_value_naming_it(name, call):
    with pytest.raises(ci.InvalidValue, match=f"^{re.escape(name)} "):
        call()


def test_entry_points_take_numpy_integers():
    i = np.int64
    assert np.array_equal(ci.delay_embed(SERIES, i(1), i(16), i(2)).states,
                          ci.delay_embed(SERIES, 1, 16, 2).states)
    assert (ci.false_nearest_neighbors(SERIES, i(0), i(16), i(3)).fractions.tolist()
            == ci.false_nearest_neighbors(SERIES, 0, 16, 3).fractions.tolist())
    assert ci.extract_segments(EMB, i(32), i(16)).shape == ci.extract_segments(EMB, 32, 16).shape
    assert np.array_equal(SERIES.channel(np.int32(1)), SERIES.values[:, 1])
    assert ci.symmetry.GaConfig(population=i(4)).population == 4


@pytest.mark.parametrize("value", [2.0, np.float64(2.0), True, np.bool_(True), "2", None])
def test_the_integer_rule_refuses_what_is_no_integer(value):
    with pytest.raises(ci.InvalidValue, match=f"^n must be an integer, got {re.escape(repr(value))}$"):
        errors._integer("n", value)


@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_the_integer_rule_takes_python_and_numpy_integers(value):
    got = errors._integer("n", value, 3)
    assert got == 3 and type(got) is int
    with pytest.raises(ci.InvalidValue, match="^n must be >= 4, got 3$"):
        errors._integer("n", value, 4)


@pytest.mark.parametrize("value", [0, 0.0, -0.0, -0.5, np.nan, np.inf, -np.inf, True, "0.1", None,
                                   pytest.param(HUGE, id="10**400"),
                                   pytest.param(-HUGE, id="-10**400")])
def test_the_positive_rule_refuses_what_is_not_finite_and_above_zero(value):
    with pytest.raises(ci.InvalidValue, match="^dt must be finite and positive, got "):
        errors._positive("dt", value)


@pytest.mark.parametrize("value", [1, 0.05, 5e-324, np.float32(0.5), np.int64(2)])
def test_the_positive_rule_takes_finite_values_above_zero(value):
    got = errors._positive("dt", value)
    assert type(got) is float and got == value


def test_the_finite_rule_returns_a_float_array():
    got = errors._finite("x", [[1, 2], [3, 4]])
    assert got.dtype == float and got.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ci.InvalidValue, match="^x holds NaN or infinity; it must be finite$"):
            errors._finite("x", [1.0, bad])
    with pytest.raises(ci.InvalidValue, match="^x holds an integer too large for a double$"):
        errors._finite("x", [[1.0], [HUGE]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, np.bool_(True), "0.1", None, [1.0],
                                   pytest.param(HUGE, id="10**400"),
                                   pytest.param(-HUGE, id="-10**400")])
def test_the_real_rule_refuses_what_is_no_finite_number(value):
    with pytest.raises(ci.InvalidValue, match="^omega must be a finite number, got "):
        errors._real("omega", value)


@pytest.mark.parametrize("value", [2, -0.5, 0.0, np.float32(0.5), np.int64(2), np.float64(-3.25)])
def test_the_real_rule_returns_a_python_float(value):
    got = errors._real("omega", value)
    assert type(got) is float and got == float(value)


# a valid instance of each value type; the guard below tries every field
# that holds a float, a float array or a tuple of floats
VALUE_TYPES = [
    ci.Sinusoid(1.0, 0.5, 1.0),
    ci.Exponential(-0.5, 2.0),
    ci.Polynomial(2, coeffs=(1.0, 2.0, 3.0), time_power=0.5),
    ci.StateSpaceModel(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=np.eye(2),
                       basis=ci.ForcingBasis((ci.Sinusoid(1.0),)), dt=0.1),
    EMB,
    SERIES,
    REPORT,
]


def _number_fields(value):
    """(field name, held value) of each field of ``value`` annotated as a
    float or an array, or holding a tuple of floats."""
    for f in dataclasses.fields(value):
        held = getattr(value, f.name)
        floats = isinstance(held, tuple) and all(isinstance(v, float) for v in held)
        if f.type in ("float", "np.ndarray") or floats:
            yield f.name, held


def _scalar(held):
    return held is None or np.ndim(held) == 0


def _with_entry(held, bad):
    """``held`` with its first entry (itself, for a scalar) set to ``bad``;
    an array becomes nested lists, which hold an integer of any size."""
    if isinstance(held, tuple):
        return (bad, *held[1:])
    if _scalar(held):
        return bad
    rows = np.array(held, dtype=object)
    rows.flat[0] = bad
    return rows.tolist()


# (id, value) of the bad values each field, or its first entry, is tried with
BAD_NUMBERS = [("nan", np.nan), ("inf", np.inf), ("10**400", HUGE)]
BAD_SCALARS = [("string", "1.5"), ("bool", True)]

GUARDED = [
    pytest.param(value, name, _with_entry(held, bad), id=f"{type(value).__name__}-{name}-{label}")
    for value in VALUE_TYPES
    for name, held in _number_fields(value)
    for label, bad in BAD_NUMBERS + BAD_SCALARS
    # a threshold of +inf accepts every fit
    if (type(value), name, label) != (ci.SymmetryReport, "threshold", "inf")
]


def test_the_guard_tries_every_known_number_field():
    tried = {(type(value).__name__, name) for value, name, _ in (p.values for p in GUARDED)}
    assert tried >= {
        ("Sinusoid", "omega"), ("Sinusoid", "phi"), ("Sinusoid", "time_power"),
        ("Exponential", "rate"), ("Exponential", "time_power"),
        ("Polynomial", "coeffs"), ("Polynomial", "time_power"),
        ("StateSpaceModel", "A"), ("StateSpaceModel", "B"), ("StateSpaceModel", "C"),
        ("StateSpaceModel", "dt"), ("DelayEmbedding", "states"), ("DelayEmbedding", "dt"),
        ("TimeSeries", "values"), ("TimeSeries", "dt"),
        ("SymmetryReport", "threshold"), ("SymmetryReport", "diameter"),
    }


@pytest.mark.parametrize("value, name, bad", GUARDED)
def test_every_number_field_refuses_nan_and_infinity(value, name, bad):
    """A float or array field added without its rule fails here; so does a
    field that takes a string, a bool or an integer too large for a double,
    as itself or as an array's entry among numbers."""
    with pytest.raises(ci.InvalidValue, match=f"^{name} "):
        dataclasses.replace(value, **{name: bad})


def test_a_number_field_stores_a_python_float():
    """``dt``, ``threshold`` and ``diameter`` given as integers or numpy
    floats are stored as Python floats, so an artifact writes ``1.0``."""
    stored = [ci.TimeSeries(WAVE, dt=1).dt, ci.DelayEmbedding(EMB.states, 16, 2, dt=np.int64(1)).dt,
              dataclasses.replace(STILL, dt=np.float32(1.0)).dt,
              dataclasses.replace(REPORT, threshold=1, diameter=np.float64(2.0)).diameter]
    assert [(type(v), v) for v in stored] == [(float, 1.0)] * 3 + [(float, 2.0)]
    assert ci.classify_symmetry([], np.inf).threshold == np.inf
