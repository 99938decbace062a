"""End-to-end acceptance checks.

Each test exercises one numbered claim about the package, records a summary
line for the terminal report, and then asserts it.  The first criterion is
the full round trip on the reference chaotic series; the rest are
property-based checks with analytic or exhaustive oracles.
"""

import time

import numpy as np
import pytest

import chaosid as ci
from chaosid import io
from chaosid.cli import main
from chaosid.symmetry import _CLASS_ORDER

from conftest import record_criterion


def _rotation_2d(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotation_3d(alpha, beta):
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    return rz @ rx


def _embedding_from_states(states, dt=1.0):
    states = np.asarray(states, dtype=float)
    return ci.DelayEmbedding(states=states, tau=1, m=states.shape[1], dt=dt)


# ---------------------------------------------------------------------------
# criterion 1: full round trip on the reference chaotic series


def test_criterion_1_reference_round_trip(rossler_series):
    started = time.perf_counter()

    tau = ci.average_mutual_information(rossler_series).lag
    fnn = ci.false_nearest_neighbors(rossler_series, tau=tau)
    m = fnn.m
    embedding = ci.delay_embed(rossler_series, tau=tau, m=m)
    m_ok = m == 3

    window = 2 * tau * m
    stride = max(window // 2, 1)
    segments = ci.extract_segments(embedding, window, stride)
    transforms = ci.ga_search(segments, ci.GaConfig())
    diameter = ci.attractor_diameter(embedding.states)
    report = ci.classify_symmetry(
        transforms, ci.symmetry.RESIDUAL_THRESHOLD * diameter, diameter=diameter
    )

    outputs = ci.TimeSeries(embedding.states[:, 0], dt=embedding.dt)
    model, fit = ci.fit_model(embedding, outputs, report)
    nrmse = float(np.max(fit.one_step_nrmse))
    nrmse_ok = nrmse < 0.01

    steps = embedding.n_states
    free_states, _ = ci.simulate(model, x0=embedding.states[0], steps=steps)
    peak = float(np.max(np.abs(free_states)))
    bounded_ok = bool(np.all(np.isfinite(free_states))) and peak < 1e3

    theiler = tau * m
    source_dim = ci.correlation_dimension(embedding.states, theiler_window=theiler)
    model_dim = ci.correlation_dimension(free_states, theiler_window=theiler)
    delta = abs(model_dim.dimension - source_dim.dimension)
    dimension_ok = delta < 0.25

    elapsed = time.perf_counter() - started
    runtime_ok = elapsed < 120.0

    ok = m_ok and nrmse_ok and bounded_ok and dimension_ok and runtime_ok
    detail = (
        f"m={m} ({'ok' if m_ok else 'want 3'}), "
        f"one-step NRMSE {nrmse:.4f} ({'ok' if nrmse_ok else 'target < 0.01 not met'}), "
        f"free run {'bounded' if bounded_ok else 'unbounded'} (peak {peak:.1f}), "
        f"dimension delta {delta:.3f} ({'ok' if dimension_ok else 'target < 0.25 not met'}, "
        f"source {source_dim.dimension:.3f} vs model {model_dim.dimension:.3f}), "
        f"runtime {elapsed:.0f}s ({'ok' if runtime_ok else 'over 120s'})"
    )
    record_criterion(1, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 2: identification exactness


def test_criterion_2_identification_exactness():
    A_true = np.array([[0.9, 0.1], [-0.2, 0.8]])
    x = np.array([1.0, -0.5])
    rows = [x]
    for _ in range(100):
        x = A_true @ x
        rows.append(x)
    states = np.array(rows)
    Z, X_next = ci.build_regression(_embedding_from_states(states), ci.ForcingBasis(()))
    A, _, _ = ci.solve_least_squares(Z, X_next)
    linear_err = float(np.max(np.abs(A - A_true)))
    linear_ok = linear_err < 1e-8

    B_true = np.array([[0.5], [-0.3]])
    omega_true = 0.2
    truth = ci.ForcingBasis((ci.Sinusoid(omega=omega_true, phi=0.0),))
    x = np.array([0.3, 0.4])
    rows = [x]
    phi = truth.evaluate(np.arange(200), 1.0)
    for k in range(200):
        x = A_true @ x + B_true @ phi[k]
        rows.append(x)
    states = np.array(rows)
    emb = _embedding_from_states(states)
    grid = ci.ParameterGrid(omega=np.array([0.05, omega_true, 0.7]))
    best, _ = ci.refine_basis(emb, ci.ForcingBasis((ci.Sinusoid(omega=1.0),)), grid=grid)
    Z, X_next = ci.build_regression(emb, best)
    A, B, _ = ci.solve_least_squares(Z, X_next)
    forced_err = float(
        np.max(np.abs(np.hstack([A, B]) - np.hstack([A_true, B_true])))
    )
    forced_ok = forced_err < 1e-6 and np.isclose(best.terms[0].omega, omega_true)

    ok = linear_ok and forced_ok
    detail = (
        f"linear recovery max error {linear_err:.2e} (target 1e-8), "
        f"forced recovery max error {forced_err:.2e} (target 1e-6, "
        f"omega {best.terms[0].omega:g})"
    )
    record_criterion(2, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 3: transform-fitting exactness


def _planted_pair(rng, cls, dim):
    p = rng.normal(size=(10, dim))
    t = rng.normal(size=dim)
    if cls is ci.TransformClass.TRANSLATION:
        return p, p + t
    if cls is ci.TransformClass.ROTATION:
        rot = _rotation_2d(rng.uniform(-np.pi, np.pi)) if dim == 2 else _rotation_3d(
            rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)
        )
        return p, p @ rot.T + t
    if cls is ci.TransformClass.SCALING:
        return p, rng.uniform(0.3, 2.5) * p + t
    if cls is ci.TransformClass.ROTATION_SCALING:
        rot = _rotation_2d(rng.uniform(-np.pi, np.pi)) if dim == 2 else _rotation_3d(
            rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)
        )
        return p, rng.uniform(0.3, 2.5) * (p @ rot.T) + t
    mat = rng.normal(size=(dim, dim))
    return p, p @ mat.T + t


def test_criterion_3_transform_fitting_exactness():
    rng = np.random.default_rng(300)
    per_class = {}
    affine_dominates = True
    for cls in _CLASS_ORDER:
        hits = 0
        for trial in range(1000):
            dim = 2 if trial % 2 == 0 else 3
            p, q = _planted_pair(rng, cls, dim)
            fit = ci.fit_transform(p, q, cls)
            if fit.residual < 1e-9:
                hits += 1
            affine = ci.fit_transform(p, q, ci.TransformClass.AFFINE)
            for other in _CLASS_ORDER:
                if other is ci.TransformClass.AFFINE:
                    continue
                rival = ci.fit_transform(p, q, other)
                if affine.residual > rival.residual + 1e-12:
                    affine_dominates = False
        per_class[cls.value] = hits

    recovery_ok = all(hits >= 999 for hits in per_class.values())
    ok = recovery_ok and affine_dominates
    detail = (
        "recoveries/1000 " + ", ".join(f"{k}={v}" for k, v in per_class.items())
        + f"; affine never beaten: {affine_dominates}"
    )
    record_criterion(3, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 4: genetic search matches the exhaustive oracle


def test_criterion_4_ga_matches_exhaustive():
    worst_gap = 0.0
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        n_segments = int(rng.integers(4, 13))
        states = np.cumsum(rng.normal(size=(n_segments * 10, 2)), axis=0)
        emb = _embedding_from_states(states)
        segments = ci.extract_segments(emb, window=10, stride=10)
        best_oracle = np.inf
        for src in range(len(segments)):
            for tgt in range(len(segments)):
                if src == tgt:
                    continue
                for cls in _CLASS_ORDER:
                    fit = ci.fit_transform(segments[src], segments[tgt], cls)
                    best_oracle = min(best_oracle, fit.residual)
        # the first returned entry is the best the search ever saw
        found = ci.ga_search(segments, ci.GaConfig(seed=seed))[0].residual
        worst_gap = max(worst_gap, abs(found - best_oracle))
    ok = worst_gap < 1e-9
    detail = f"worst |search - exhaustive| best-residual gap {worst_gap:.2e} over 20 seeds (target < 1e-9)"
    record_criterion(4, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 5: symmetry class maps to the right basis family


def _classify_states(states, seed, threshold):
    emb = _embedding_from_states(states)
    segments = ci.extract_segments(emb, window=20, stride=20)
    config = ci.GaConfig(population=48, generations=60, seed=seed)
    transforms = ci.ga_search(segments, config)
    diameter = ci.attractor_diameter(emb.states)
    return ci.classify_symmetry(transforms, threshold * diameter, diameter=diameter)


def test_criterion_5_symmetry_to_basis_rule():
    rotation_hits = 0
    scaling_hits = 0
    noise_hits = 0
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)

        step = rng.uniform(0.08, 0.15)
        phase0 = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(0.5, 2.0)
        center = rng.normal(size=2)
        k = np.arange(400)
        angles = phase0 + step * k
        circle = center + radius * np.column_stack([np.cos(angles), np.sin(angles)])
        report = _classify_states(circle, seed, threshold=0.01)
        if report.dominant_class is ci.TransformClass.ROTATION and isinstance(
            report.recommended_basis.terms[0], ci.Sinusoid
        ):
            rotation_hits += 1

        rate = rng.uniform(0.004, 0.008)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        center = rng.normal(size=2)
        ray = center + np.exp(rate * k)[:, None] * direction
        report = _classify_states(ray, seed, threshold=0.005)
        if report.dominant_class is ci.TransformClass.SCALING and isinstance(
            report.recommended_basis.terms[0], ci.Exponential
        ):
            scaling_hits += 1

        noise = rng.normal(size=(400, 2))
        report = _classify_states(noise, seed, threshold=0.05)
        if report.dominant_class is None and all(
            isinstance(t, ci.Polynomial) for t in report.recommended_basis.terms
        ):
            noise_hits += 1

    ok = rotation_hits == 10 and scaling_hits == 10 and noise_hits == 10
    detail = (
        f"rotation->sinusoid {rotation_hits}/10, "
        f"scaling->exponential {scaling_hits}/10, "
        f"noise->polynomial {noise_hits}/10"
    )
    record_criterion(5, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 6: chaos metric sanity


def test_criterion_6_chaos_metric_sanity():
    rng = np.random.default_rng(600)
    t = rng.uniform(0.0, 1.0, 5000)
    line = np.column_stack([t, 2.0 * t])
    line_dim = ci.correlation_dimension(line).dimension
    line_ok = abs(line_dim - 1.0) < 0.05

    square = rng.uniform(0.0, 1.0, size=(5000, 2))
    square_dim = ci.correlation_dimension(square).dimension
    square_ok = abs(square_dim - 2.0) < 0.1

    decay = ci.OdeSystem(name="decay", dimension=1, rhs=lambda x: [-v for v in x])
    exact = np.exp(-1.0)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        series = ci.rk4_integrate(decay, [1.0], dt=dt, steps=round(1.0 / dt))
        errors.append(abs(series.values[-1, 0] - exact))
    ratios = (errors[0] / errors[1], errors[1] / errors[2])
    rk4_ok = all(r >= 14.0 for r in ratios)

    ok = line_ok and square_ok and rk4_ok
    detail = (
        f"segment dimension {line_dim:.4f} (1.0 +/- 0.05), "
        f"square dimension {square_dim:.4f} (2.0 +/- 0.1), "
        f"RK4 halving ratios {ratios[0]:.1f}, {ratios[1]:.1f} (>= 14)"
    )
    record_criterion(6, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 7: bundled model fidelity


def _power_limit_radius(A, squarings=30):
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


def test_criterion_7_fixture_fidelity(tmp_path):
    problems = []
    radii = {}
    for label in ci.fixture_names():
        model = ci.load_fixture(label).model

        first = tmp_path / f"{label}_1.json"
        second = tmp_path / f"{label}_2.json"
        io.write_model(first, model)
        reloaded = io.read_model(first)
        io.write_model(second, reloaded)
        if first.read_bytes() != second.read_bytes():
            problems.append(f"{label}: serialize/reload not byte-identical")
        if not (
            np.array_equal(reloaded.A, model.A)
            and np.array_equal(reloaded.B, model.B)
            and np.array_equal(reloaded.C, model.C)
        ):
            problems.append(f"{label}: matrices changed on reload")

        rho = ci.spectral_radius(model.A)
        oracle = _power_limit_radius(model.A)
        radii[label] = rho
        if not np.isclose(rho, oracle, rtol=1e-6):
            problems.append(f"{label}: spectral radius {rho} vs oracle {oracle}")

        try:
            states, _ = ci.simulate(model, steps=1000)
            if not np.all(np.isfinite(states)):
                problems.append(f"{label}: non-finite playback")
        except ci.NonFiniteState:
            if rho <= 1.0:
                problems.append(f"{label}: diverged although spectral radius {rho} <= 1")

    ok = not problems
    detail = (
        "; ".join(problems)
        if problems
        else "3 models round-trip byte-identically, "
        + ", ".join(f"{k} rho={v:.6f}" for k, v in radii.items())
        + " all match the power-limit oracle and play 1000 steps finite"
    )
    record_criterion(7, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 8: pipeline determinism


def test_criterion_8_pipeline_determinism(tmp_path, monkeypatch, capsys):
    csv = tmp_path / "wave.csv"
    k = np.arange(1500)
    io.write_series(
        csv, ci.TimeSeries(np.sin(0.1237 * k).reshape(-1, 1), dt=1.0, labels=("y",))
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input.path = {csv}\n"
        "output.dir = out\n"
    )
    reports = []
    for run in ("first", "second"):
        base = tmp_path / run
        base.mkdir()
        monkeypatch.chdir(base)
        rc = main(["pipeline", str(cfg)])
        assert rc == 0
        doc = io.load_json(base / "out" / "report.json")
        doc.pop("timings")
        reports.append(io.canonical_json(doc))
    capsys.readouterr()

    ok = reports[0] == reports[1]
    detail = (
        "two identically seeded runs agree byte-for-byte outside timings"
        if ok
        else "reports differ outside timings"
    )
    record_criterion(8, ok, detail)
    assert ok, detail
