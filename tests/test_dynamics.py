"""Tests for the reference integrator, discrete model playback, and the
bundled reference models."""

import numpy as np
import pytest

import chaosid as ci


def _decay_system():
    return ci.OdeSystem(name="decay", dimension=1, rhs=lambda x: [-v for v in x])


def _model(A, B=None, C=None, basis=None, dt=1.0):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if B is None:
        B = np.zeros((n, 0))
    if C is None:
        C = np.eye(n)
    if basis is None:
        basis = ci.ForcingBasis(())
    return ci.StateSpaceModel(A=A, B=np.asarray(B, dtype=float), C=np.asarray(C, dtype=float), basis=basis, dt=dt)


# ---------------------------------------------------------------------------
# continuous side


def test_rossler_rhs_known_point():
    assert np.allclose(ci.rossler_rhs(np.array([1.0, 2.0, 3.0])), [-5.0, 1.4, -13.9])


def test_rossler_system_object():
    system = ci.rossler()
    assert system.dimension == 3
    assert system.params == {"a": 0.2, "b": 0.2, "c": 5.7}
    assert np.allclose(system.rhs(np.array([1.0, 2.0, 3.0])), [-5.0, 1.4, -13.9])


def test_rk4_single_step_linear_decay():
    # for dx/dt = -x the classical scheme multiplies by
    # 1 - h + h^2/2 - h^3/6 + h^4/24 = 0.9048375 at h = 0.1
    series = ci.rk4_integrate(_decay_system(), [1.0], dt=0.1, steps=2)
    assert abs(series.values[0, 0] - 0.9048375) < 1e-12
    assert abs(series.values[1, 0] - 0.9048375**2) < 1e-12


def test_rk4_fourth_order_convergence():
    exact = np.exp(-1.0)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        steps = round(1.0 / dt)
        series = ci.rk4_integrate(_decay_system(), [1.0], dt=dt, steps=steps)
        errors.append(abs(series.values[-1, 0] - exact))
    assert errors[0] / errors[1] > 14.0
    assert errors[1] / errors[2] > 14.0


def test_rk4_transient_skip_matches_tail():
    system = ci.rossler()
    x0 = [1.0, 1.0, 1.0]
    full = ci.rk4_integrate(system, x0, dt=0.05, steps=40)
    tail = ci.rk4_integrate(system, x0, dt=0.05, steps=20, transient_skip=20)
    assert np.array_equal(tail.values, full.values[20:])
    assert tail.dt == 0.05
    assert tail.labels == ("x1", "x2", "x3")


def test_rk4_divergence_reports_step():
    blowup = ci.OdeSystem(name="blowup", dimension=1, rhs=lambda x: [v * v for v in x])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ci.NonFiniteState) as info:
        ci.rk4_integrate(blowup, [1e3], dt=1.0, steps=50)
    assert info.value.step is not None and info.value.step >= 1
    assert info.value.exit_code == 4


def test_rk4_argument_validation():
    with pytest.raises(ValueError):
        ci.rk4_integrate(_decay_system(), [1.0, 2.0], dt=0.1, steps=5)
    with pytest.raises(ValueError):
        ci.rk4_integrate(_decay_system(), [1.0], dt=0.0, steps=5)
    with pytest.raises(ValueError):
        ci.rk4_integrate(_decay_system(), [1.0], dt=0.1, steps=1)


def _oracle_rk4_integrate(system, x0, dt, steps, transient_skip=0):
    """The integrator on float64 arrays, every stage one numpy expression
    on the rhs result as an array: the states and divergence step
    ``rk4_integrate`` must reproduce."""
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((steps, system.dimension))
    rhs = system.rhs
    half = 0.5 * dt
    for k in range(transient_skip + steps):
        k1 = np.asarray(rhs(x))
        k2 = np.asarray(rhs(x + half * k1))
        k3 = np.asarray(rhs(x + half * k2))
        k4 = np.asarray(rhs(x + dt * k3))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise ci.NonFiniteState(f"diverged at step {k + 1}", step=k + 1)
        if k >= transient_skip:
            out[k - transient_skip] = x
    return out


def _lorenz_rhs(x, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    return np.array([sigma * (x[1] - x[0]), x[0] * (rho - x[2]) - x[1], x[0] * x[1] - beta * x[2]])


def _lorenz_list_rhs(x, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    x1, x2, x3 = x
    return [sigma * (x2 - x1), x1 * (rho - x3) - x2, x1 * x2 - beta * x3]


def _oracle_rossler_rhs(state, a=0.2, b=0.2, c=5.7):
    """The Rossler right hand side on numpy scalars."""
    x1, x2, x3 = np.asarray(state, dtype=float)
    return np.array([-(x2 + x3), x1 + a * x2, b + x3 * (x1 - c)])


def test_rossler_rhs_is_bitwise_its_numpy_scalar_form():
    states = np.random.default_rng(5).normal(scale=20.0, size=(200, 3))
    for state in states:
        result = ci.rossler_rhs(state.tolist())
        assert type(result) is list and all(type(v) is float for v in result) and len(result) == 3
        assert np.array(result).tobytes() == _oracle_rossler_rhs(state).tobytes()
    result = ci.rossler_rhs([1, 2, 3], a=0.1)
    assert np.array(result, dtype=float).tobytes() == _oracle_rossler_rhs([1, 2, 3], a=0.1).tobytes()


_ROTATION = np.array([[-0.1, 2.0], [-2.0, -0.1]])

_ORACLE_CASES = {
    "rossler": (ci.rossler(), [1.0, 1.0, 1.0], 0.05, 500, 2000),
    "decay": (_decay_system(), [1.0], 0.1, 300, 0),
    "rotation": (ci.OdeSystem("rotation", 2, lambda x: _ROTATION @ x), [1.0, -0.5], 0.03, 400, 17),
    "lorenz": (ci.OdeSystem("lorenz", 3, _lorenz_rhs), [1.0, 1.0, 1.05], 0.01, 1500, 300),
    # an rhs may return a list, a tuple or an array; perfbench wraps its list in np.array
    "lorenz list": (ci.OdeSystem("lorenz", 3, _lorenz_list_rhs), [1.0, 1.0, 1.05], 0.01, 1500, 300),
    "lorenz tuple": (
        ci.OdeSystem("lorenz", 3, lambda x: tuple(_lorenz_list_rhs(x))), [1.0, 1.0, 1.05], 0.01, 1500, 300
    ),
    "lorenz array": (
        ci.OdeSystem("lorenz", 3, lambda x: np.array(_lorenz_list_rhs(x))), [1.0, 1.0, 1.05], 0.01, 1500, 300
    ),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_rk4_states_are_bitwise_the_array_oracle(name):
    system, x0, dt, steps, skip = _ORACLE_CASES[name]
    series = ci.rk4_integrate(system, x0, dt=dt, steps=steps, transient_skip=skip)
    if name == "rossler":  # the oracle integrates the numpy-scalar right hand side
        system = ci.OdeSystem("rossler", 3, _oracle_rossler_rhs)
    expected = _oracle_rk4_integrate(system, x0, dt, steps, skip)
    assert series.values.dtype == np.float64 and series.values.shape == (steps, system.dimension)
    assert series.values.tobytes() == expected.tobytes()


def test_rk4_numpy_integer_counts_and_float32_step_match_the_oracle():
    system, x0, _, _, _ = _ORACLE_CASES["rossler"]
    dt = np.float32(0.05)
    series = ci.rk4_integrate(system, x0, dt=dt, steps=np.int64(50), transient_skip=np.int32(7))
    assert series.values.tobytes() == _oracle_rk4_integrate(system, x0, dt, 50, 7).tobytes()


def test_rk4_rhs_always_receives_a_fresh_float64_state():
    seen = []

    def rhs(x):
        seen.append(x)
        return _ROTATION @ x

    ci.rk4_integrate(ci.OdeSystem("rotation", 2, rhs), [1, 2], dt=0.1, steps=3, transient_skip=2)
    assert len(seen) == 4 * 5
    assert all(type(x) is list and len(x) == 2 and all(isinstance(v, float) for v in x) for x in seen)
    assert len({id(x) for x in seen}) == len(seen)


def test_rk4_states_do_not_change_when_the_rhs_mutates_its_argument():
    def rhs(x):
        result = ci.rossler_rhs(x)
        x[:] = [np.nan] * len(x)
        return result

    system = ci.OdeSystem("rossler", 3, rhs)
    series = ci.rk4_integrate(system, [1.0, 1.0, 1.0], dt=0.05, steps=200, transient_skip=100)
    expected = ci.rk4_integrate(ci.rossler(), [1.0, 1.0, 1.0], dt=0.05, steps=200, transient_skip=100)
    assert series.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.longdouble, np.int64])
def test_rk4_rejects_an_rhs_array_that_is_not_float64(dtype):
    system = ci.OdeSystem("narrow", 3, lambda x: np.asarray(ci.rossler_rhs(x), dtype=dtype))
    with pytest.raises(ci.InvalidValue, match=f"narrow returned shape \\(3,\\) of {np.dtype(dtype)}"):
        ci.rk4_integrate(system, [1.0, 1.0, 1.0], dt=0.05, steps=5)


def test_rk4_float64_array_rhs_is_bitwise_the_list_form():
    array = ci.OdeSystem("rossler", 3, lambda x: np.asarray(ci.rossler_rhs(x), dtype=np.float64))
    series = ci.rk4_integrate(array, [1.0, 1.0, 1.0], dt=0.05, steps=500, transient_skip=200)
    expected = ci.rk4_integrate(ci.rossler(), [1.0, 1.0, 1.0], dt=0.05, steps=500, transient_skip=200)
    assert series.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("result", [np.zeros(1), np.zeros((3, 1)), np.zeros(4), np.float64(0.0)])
def test_rk4_rejects_an_rhs_result_of_the_wrong_shape(result):
    system = ci.OdeSystem(name="misshapen", dimension=3, rhs=lambda x: result)
    with pytest.raises(ci.InvalidValue, match="misshapen"):
        ci.rk4_integrate(system, [1.0, 1.0, 1.0], dt=0.1, steps=5)


@pytest.mark.parametrize("skip, inside", [(0, False), (3, False), (40, True)])
def test_rk4_divergence_step_matches_the_oracle(skip, inside):
    """The quadratic blow-up overflows at one step; the integrator reports
    the oracle's step whether it falls after the transient or inside it."""
    blowup = ci.OdeSystem(name="blowup", dimension=2, rhs=lambda x: [v * v for v in x])
    steps = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, integrate in (("oracle", _oracle_rk4_integrate), ("rk4", ci.rk4_integrate)):
            with pytest.raises(ci.NonFiniteState) as info:
                integrate(blowup, [2.0, 1.0], 0.05, 60, skip)
            steps[name] = info.value.step
    assert steps["rk4"] == steps["oracle"]
    assert (steps["oracle"] <= skip) == inside


def test_rk4_finite_states_whose_sum_overflows_do_not_diverge():
    still = ci.OdeSystem(name="still", dimension=2, rhs=lambda x: np.zeros(2))
    series = ci.rk4_integrate(still, [1e308, 1e308], dt=0.1, steps=3)
    assert np.array_equal(series.values, np.full((3, 2), 1e308))


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"steps": 2.5}, "steps"),
        ({"steps": "5"}, "steps"),
        ({"steps": 5.0}, "steps"),
        ({"steps": 5, "transient_skip": 1.5}, "transient_skip"),
        ({"steps": 5, "transient_skip": None}, "transient_skip"),
    ],
)
def test_rk4_rejects_non_integral_step_counts(kwargs, name):
    with pytest.raises(ci.InvalidValue, match=f"^{name} must be an integer"):
        ci.rk4_integrate(_decay_system(), [1.0], dt=0.1, **kwargs)


# ---------------------------------------------------------------------------
# discrete playback


@pytest.mark.parametrize("steps", [2.5, "3", 3.0, None])
def test_simulate_rejects_non_integral_step_counts(steps):
    with pytest.raises(ci.InvalidValue, match="^steps must be an integer"):
        ci.simulate(_model(np.eye(2)), x0=[1.0, 2.0], steps=steps)


def test_simulate_identity_holds_state():
    model = _model(np.eye(2), C=np.array([[1.0, 1.0]]))
    states, outputs = ci.simulate(model, x0=[1.0, 2.0], steps=10)
    assert states.shape == (10, 2)
    assert outputs.shape == (10, 1)
    assert np.array_equal(states, np.tile([1.0, 2.0], (10, 1)))
    assert np.allclose(outputs, 3.0)


def test_simulate_halving_is_exact():
    model = _model(0.5 * np.eye(1))
    states, _ = ci.simulate(model, x0=[1.0], steps=30)
    assert np.array_equal(states[:, 0], 0.5 ** np.arange(30))


def test_simulate_forced_matches_manual_iteration():
    A = np.array([[0.7, 0.1], [0.0, 0.9]])
    B = np.array([[0.5], [-0.2]])
    basis = ci.ForcingBasis((ci.Sinusoid(omega=0.3, phi=0.1),))
    model = _model(A, B=B, C=np.eye(2), basis=basis, dt=0.5)
    states, _ = ci.simulate(model, x0=[1.0, -1.0], steps=25)
    x = np.array([1.0, -1.0])
    for k in range(24):
        x = A @ x + B @ np.array([np.sin(0.3 * (k * 0.5) + 0.1)])
        assert np.allclose(states[k + 1], x, atol=1e-12)


def test_simulate_default_start_is_zero():
    model = _model(0.9 * np.eye(3))
    states, _ = ci.simulate(model, steps=5)
    assert np.array_equal(states, np.zeros((5, 3)))


def test_simulate_divergence_reports_step():
    model = _model(np.array([[2.0]]))
    with pytest.raises(ci.NonFiniteState) as info:
        ci.simulate(model, x0=[1.0], steps=1200)
    # 2^k leaves double range near k = 1024
    assert 1000 < info.value.step < 1100
    assert info.value.exit_code == 4


def _first_divergent_step(model, x0, steps):
    """Per-step oracle: the first step whose state is not finite, or None."""
    phi = model.basis.evaluate(np.arange(steps - 1), model.dt)
    x = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps - 1):
            x = model.A @ x + model.B @ phi[k]
            if not np.all(np.isfinite(x)):
                return k + 1
    return None


@pytest.mark.parametrize(
    "A, B, x0",
    [
        ([[2.0]], np.zeros((1, 0)), [1.0]),
        ([[1.5, -1.2], [1.2, 1.5]], np.zeros((2, 0)), [1e-3, 0.0]),
        # forcing pushes one coordinate past the double range first, and
        # inf - inf then makes NaN
        ([[1.0, 0.0], [1.0, -1.0]], [[1e308], [-1e308]], [0.0, 0.0]),
    ],
)
def test_simulate_divergence_step_matches_a_per_step_check(A, B, x0):
    basis = ci.ForcingBasis((ci.Sinusoid(omega=0.7, phi=0.3),)) if np.size(B) else None
    model = _model(A, B=B, basis=basis, dt=0.5)
    step = _first_divergent_step(model, x0, 2000)
    assert step is not None
    with pytest.raises(ci.NonFiniteState, match=f"simulation diverged at step {step}$") as info:
        ci.simulate(model, x0=x0, steps=2000)
    assert info.value.step == step
    # one step short of the divergence the run completes
    states, _ = ci.simulate(model, x0=x0, steps=step)
    assert np.all(np.isfinite(states))


def test_simulate_is_reproducible():
    model = _model(np.array([[0.99, 0.1], [-0.1, 0.97]]))
    a, _ = ci.simulate(model, x0=[0.3, 0.7], steps=500)
    b, _ = ci.simulate(model, x0=[0.3, 0.7], steps=500)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# spectral radius


def test_spectral_radius_scaled_rotation():
    theta = 0.7
    r = 0.85
    A = r * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert abs(ci.spectral_radius(A) - r) < 1e-12


def test_spectral_radius_diagonal():
    assert ci.spectral_radius(np.diag([0.2, -0.9, 0.5])) == 0.9


def test_spectral_radius_rejects_non_square():
    with pytest.raises(ValueError):
        ci.spectral_radius(np.zeros((2, 3)))


def _gelfand_radius(A, squarings=30):
    """Spectral radius by the limit ||A^(2^k)||^(1/2^k), with per-step
    normalization so powers of stable matrices do not underflow."""
    M = np.array(A, dtype=float)
    acc = 0.0
    for i in range(squarings):
        s = np.linalg.norm(M, 2)
        if s == 0.0:
            return 0.0
        acc += np.log(s) / 2.0**i
        M = (M / s) @ (M / s)
    acc += np.log(np.linalg.norm(M, 2)) / 2.0**squarings
    return float(np.exp(acc))


def test_spectral_radius_matches_power_limit():
    rng = np.random.default_rng(31)
    for _ in range(10):
        A = rng.normal(size=(4, 4)) * 0.4
        assert np.isclose(ci.spectral_radius(A), _gelfand_radius(A), rtol=1e-6)


# ---------------------------------------------------------------------------
# bundled reference models


EXPECTED_SHAPES = {
    "Example2_Cooling": ((9, 9), (9, 2), (2, 9)),
    "Example3_ViscousFluid": ((6, 6), (6, 1), (2, 6)),
    "Example5_Traffic": ((4, 4), (4, 1), (1, 4)),
}

EXPECTED_RADII = {
    "Example2_Cooling": 0.972309,
    "Example3_ViscousFluid": 0.994522,
    "Example5_Traffic": 0.998636,
}


def test_fixture_names_and_shapes():
    assert ci.fixture_names() == list(EXPECTED_SHAPES)
    for label, (sa, sb, sc) in EXPECTED_SHAPES.items():
        fixture = ci.load_fixture(label)
        assert fixture.label == label
        assert fixture.model.A.shape == sa
        assert fixture.model.B.shape == sb
        assert fixture.model.C.shape == sc
        assert fixture.model.dt == ci.FIXTURE_DT
        assert fixture.model.B.shape[1] == fixture.model.basis.size


def test_fixture_spectral_radii():
    for label, expected in EXPECTED_RADII.items():
        radius = ci.spectral_radius(ci.load_fixture(label).model.A)
        assert np.isclose(radius, expected, atol=1e-4)
        assert radius < 1.0


def test_fixture_radii_match_power_limit():
    for label in EXPECTED_RADII:
        A = ci.load_fixture(label).model.A
        assert np.isclose(ci.spectral_radius(A), _gelfand_radius(A), rtol=1e-6)


def test_fixture_checksums_verify():
    sums = ci.fixture_checksums()
    assert len(sums) == 9
    assert ci.verify_fixture_files() == []


def test_fixture_playback_stays_finite():
    for label in EXPECTED_SHAPES:
        model = ci.load_fixture(label).model
        states, outputs = ci.simulate(model, steps=1000)
        assert np.all(np.isfinite(states))
        assert np.all(np.isfinite(outputs))
        assert outputs.shape == (1000, model.C.shape[0])
        # the forcing drives the playback away from the zero start
        assert float(np.max(np.abs(states))) > 0.0


def test_unknown_fixture_rejected():
    with pytest.raises(ci.NotFoundError):
        ci.load_fixture("Example9_Missing")


def test_load_all_fixtures():
    fixtures = ci.load_all_fixtures()
    assert [f.label for f in fixtures] == ci.fixture_names()
