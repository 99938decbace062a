"""Reference dynamics, integration, and playback of identified models.

The continuous side provides the Rossler system and a fixed-step fourth
order Runge-Kutta integrator for generating benchmark data; both work on
Python floats, one list per state.  The discrete side iterates identified
models x(k+1) = A x(k) + B phi(k).  The module also bundles three published
reference models (a cooling process, viscous fluid heating, and a traffic
flow model) as plain-text matrix files so they can be played back and
exercised by the command line tool.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .embedding import TimeSeries
from .errors import InvalidValue, NonFiniteState, NotFoundError, _finite, _integer, _positive
from .model import Exponential, ForcingBasis, Polynomial, Product, Sinusoid, StateSpaceModel


@dataclass(frozen=True)
class OdeSystem:
    """A continuous system dx/dt = rhs(x).

    ``rhs`` takes a list of ``dimension`` floats and returns a sequence of
    ``dimension`` floats: a list, a tuple or a 1-D array.
    """

    name: str
    dimension: int
    rhs: object
    params: dict = field(default_factory=dict)


def rossler_rhs(state, a=0.2, b=0.2, c=5.7):
    """Right hand side of the Rossler system.

    dx1/dt = -(x2 + x3)
    dx2/dt = x1 + a*x2
    dx3/dt = b + x3*(x1 - c)

    ``state`` is any sequence of three coordinates, unpacked as it is: on
    Python floats the six operations are the float64 operations of the
    array form, without numpy's per-call cost.  The result is a list.
    """
    x1, x2, x3 = state
    return [-(x2 + x3), x1 + a * x2, b + x3 * (x1 - c)]


def rossler(a=0.2, b=0.2, c=5.7):
    """The Rossler system as an OdeSystem with the classic parameters."""
    params = {"a": a, "b": b, "c": c}
    return OdeSystem(
        name="rossler",
        dimension=3,
        rhs=lambda x: rossler_rhs(x, a, b, c),
        params=params,
    )


def rk4_integrate(system, x0, dt, steps, transient_skip=0):
    """Integrate with the classical fourth order Runge-Kutta scheme.

    The integrator advances ``transient_skip + steps`` fixed steps from
    ``x0`` and returns the last ``steps`` states as a TimeSeries, one
    channel per state coordinate.  The initial condition itself is not part
    of the output.  ``steps`` and ``transient_skip`` must be integers
    (numpy integers included).

    Each ``system.rhs`` call receives a fresh list of ``dimension`` floats,
    and may return any sequence of ``dimension`` floats (Python or float64
    values); its first result's shape is checked, and an array result of any
    other dtype is refused (float32 stages would lose precision).  The state
    and the four stages stay lists from step to step, and ``x + h*k`` and
    ``x + dt/6*(k1 + 2k2 + 2k3 + k4)`` are formed per component in the order
    numpy evaluates the array expressions.  Each operation is one binary64
    operation either way, so every state is bitwise the state of the array
    form.  Each recorded state is written straight into the output array.

    Raises
    ------
    InvalidValue
        on a bad argument, or when the first ``rhs`` result does not have
        shape (dimension,) or is an array that is not float64.
    NonFiniteState
        if any step produces NaN or infinity; the first such step is
        reported, as a check of every state after its step would report it.
    """
    dimension = system.dimension
    x = _finite("x0", x0)
    if x.shape != (dimension,):
        raise InvalidValue(f"x0 has shape {x.shape}, expected ({dimension},)")
    steps = _integer("steps", steps, 2)  # two states form the shortest series
    transient_skip = _integer("transient_skip", transient_skip, 0)
    _positive("dt", dt)
    # the coefficients as the array form computes them from dt, then as floats
    half, full, sixth = float(0.5 * dt), float(dt), float(dt / 6.0)
    out = np.empty((steps, dimension))
    rhs = system.rhs
    xs = x.tolist()
    for k in range(transient_skip + steps):
        k1 = rhs(xs[:])  # a copy: the stages below read xs
        if not k and (np.shape(k1) != (dimension,) or getattr(k1, "dtype", float) != float):
            raise InvalidValue(
                f"rhs of {system.name} returned shape {np.shape(k1)} of "
                f"{getattr(k1, 'dtype', type(k1).__name__)}, expected ({dimension},) of float64"
            )
        k2 = rhs([a + half * b for a, b in zip(xs, k1)])
        k3 = rhs([a + half * b for a, b in zip(xs, k2)])
        k4 = rhs([a + full * b for a, b in zip(xs, k3)])
        xs = [
            a + sixth * (p + 2.0 * q + 2.0 * r + s)
            for a, p, q, r, s in zip(xs, k1, k2, k3, k4)
        ]
        # value by value: a sum of an array rhs's float64 scalars warns on overflow
        if not all(map(math.isfinite, xs)):
            raise NonFiniteState(
                f"integration of {system.name} diverged at step {k + 1}", step=k + 1
            )
        if k >= transient_skip:
            out[k - transient_skip] = xs
    labels = tuple(f"x{i + 1}" for i in range(dimension))
    return TimeSeries(values=out, dt=dt, labels=labels)


def simulate(model, x0=None, steps=1000):
    """Iterate a discrete model and return its states and outputs.

    Parameters
    ----------
    model : StateSpaceModel
    x0 : array_like, optional
        Initial state, zeros by default.
    steps : int
        Number of recorded states x(0) .. x(steps-1).

    Returns
    -------
    (states, outputs)
        Arrays of shape (steps, n) and (steps, q).

    Raises
    ------
    InvalidValue
        if ``steps`` is not an integer of at least 1, or ``x0`` has the
        wrong shape or is not finite.
    NonFiniteState
        if iteration overflows; the failing step index is reported.
    """
    steps = _integer("steps", steps, 1)
    n = model.n
    if x0 is None:
        x = np.zeros(n)
    else:
        x = _finite("x0", x0)
        if x.shape != (n,):
            raise InvalidValue(f"x0 has shape {x.shape}, expected ({n},)")
    states = np.empty((steps, n))
    states[0] = x
    if steps > 1:
        phi = model.basis.evaluate(np.arange(steps - 1), model.dt)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps - 1):
                x = model.A @ x + model.B @ phi[k]
                states[k + 1] = x
        # checked once after the loop: the first non-finite row is the step
        # that diverged
        bad = np.flatnonzero(~np.isfinite(states[1:]).all(axis=1))
        if bad.size:
            step = int(bad[0]) + 1
            raise NonFiniteState(f"simulation diverged at step {step}", step=step)
    outputs = states @ model.C.T
    return states, outputs


def spectral_radius(A):
    """Largest eigenvalue magnitude of a square matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise InvalidValue(f"matrix must be square, got {A.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(A))))


# ---------------------------------------------------------------------------
# Bundled reference models
# ---------------------------------------------------------------------------

#: Sampling interval used when playing back the bundled models.  The source
#: publication prints the matrices without a time base, so one is fixed here:
#: with dt = 0.01 a thousand playback steps span t in [0, 10), over which all
#: three forcing expressions stay finite in double precision.
FIXTURE_DT = 0.01


@dataclass(frozen=True)
class FixtureModel:
    """A bundled reference model with its label and description."""

    label: str
    description: str
    model: StateSpaceModel


def _read_matrix(name):
    """Parse a whitespace separated matrix file, '#' starts a comment."""
    text = resources.files("chaosid.data").joinpath(name).read_text(encoding="utf-8")
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([float(tok) for tok in line.split()])
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise InvalidValue(f"ragged matrix in {name}: row widths {sorted(width)}")
    return np.array(rows, dtype=float)


def fixture_checksums():
    """SHA-256 digests of the bundled matrix files, keyed by file name."""
    text = resources.files("chaosid.data").joinpath("checksums.sha256").read_text()
    out = {}
    for line in text.strip().splitlines():
        digest, name = line.split()
        out[name] = digest
    return out


def verify_fixture_files():
    """Recompute and compare the digests of every bundled matrix file."""
    expected = fixture_checksums()
    mismatches = []
    for name, digest in expected.items():
        data = resources.files("chaosid.data").joinpath(name).read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            mismatches.append(name)
    return mismatches


_FIXTURE_SPECS = {
    "Example2_Cooling": {
        "description": "ninth order cooling process model, quadratic plus sinusoid forcing",
        "files": ("cooling_A.txt", "cooling_B.txt", "cooling_C.txt"),
        "basis": ForcingBasis(
            (
                Polynomial(degree=2, coeffs=(-0.93, -2.0, 1.0)),
                Sinusoid(omega=1.0, phi=-10.0),
            )
        ),
    },
    "Example3_ViscousFluid": {
        "description": "sixth order viscous fluid heating model, exponential forcing",
        "files": ("viscous_fluid_A.txt", "viscous_fluid_B.txt", "viscous_fluid_C.txt"),
        "basis": ForcingBasis((Exponential(rate=10.0),)),
    },
    "Example5_Traffic": {
        "description": "fourth order traffic flow model, exponential-sinusoid product forcing",
        "files": ("traffic_A.txt", "traffic_B.txt", "traffic_C.txt"),
        "basis": ForcingBasis(
            (
                Product(
                    Exponential(rate=1.0, time_power=0.0001),
                    Sinusoid(omega=1.0, phi=0.0, time_power=0.4),
                ),
            )
        ),
    },
}


def fixture_names():
    return list(_FIXTURE_SPECS)


def load_fixture(label):
    """Load one bundled reference model by its label."""
    if label not in _FIXTURE_SPECS:
        raise NotFoundError(
            f"unknown fixture {label!r}; available: {', '.join(_FIXTURE_SPECS)}"
        )
    spec = _FIXTURE_SPECS[label]
    a_file, b_file, c_file = spec["files"]
    model = StateSpaceModel(
        A=_read_matrix(a_file),
        B=_read_matrix(b_file),
        C=_read_matrix(c_file),
        basis=spec["basis"],
        dt=FIXTURE_DT,
    )
    return FixtureModel(label=label, description=spec["description"], model=model)


def load_all_fixtures():
    return [load_fixture(name) for name in fixture_names()]
