"""Tests for the regression assembly, the SVD least-squares solver, basis
refinement, and the end-to-end model fit."""

import numpy as np
import pytest

import chaosid as ci


def _embedding(states, dt=1.0, tau=1):
    states = np.asarray(states, dtype=float)
    return ci.DelayEmbedding(states=states, tau=tau, m=states.shape[1], dt=dt)


def _iterate(A, B, basis, x0, steps, dt=1.0):
    """Ground-truth playback of x(k+1) = A x(k) + B phi(k)."""
    A = np.asarray(A, dtype=float)
    x = np.asarray(x0, dtype=float)
    out = [x]
    phi = basis.evaluate(np.arange(steps), dt)
    for k in range(steps):
        x = A @ x + (B @ phi[k] if basis.size else 0.0)
        out.append(x)
    return np.array(out)


# ---------------------------------------------------------------------------
# regression assembly


def test_build_regression_layout():
    states = np.arange(12.0).reshape(6, 2)
    emb = _embedding(states)
    basis = ci.ForcingBasis((ci.Polynomial(0),))
    Z, X_next = ci.build_regression(emb, basis)
    assert Z.shape == (5, 3)
    assert X_next.shape == (5, 2)
    assert np.array_equal(Z[:, :2], states[:-1])
    assert np.array_equal(Z[:, 2], np.ones(5))
    assert np.array_equal(X_next, states[1:])


def test_build_regression_time_column_uses_dt():
    states = np.zeros((5, 1))
    emb = _embedding(states, dt=0.5)
    basis = ci.ForcingBasis((ci.Polynomial(1),))
    Z, _ = ci.build_regression(emb, basis)
    assert np.allclose(Z[:, 1], np.arange(4) * 0.5)


def test_build_regression_too_few_states():
    emb = _embedding(np.zeros((3, 2)))
    basis = ci.ForcingBasis((ci.Polynomial(0), ci.Polynomial(1)))
    with pytest.raises(ci.InsufficientData):
        ci.build_regression(emb, basis)


def test_build_regression_overflow_guard():
    emb = _embedding(np.random.default_rng(0).normal(size=(50, 2)))
    basis = ci.ForcingBasis((ci.Exponential(rate=100.0),))
    with pytest.raises(ci.OverflowUnsafe):
        ci.build_regression(emb, basis)


# ---------------------------------------------------------------------------
# least squares solver


def test_solver_recovers_unforced_linear_system():
    A_true = np.array([[0.9, 0.1], [-0.2, 0.8]])
    states = _iterate(A_true, np.zeros((2, 0)), ci.ForcingBasis(()), [1.0, -0.5], 60)
    Z, X_next = ci.build_regression(_embedding(states), ci.ForcingBasis(()))
    A, B, cond = ci.solve_least_squares(Z, X_next)
    assert A.shape == (2, 2)
    assert B.shape == (2, 0)
    assert np.allclose(A, A_true, atol=1e-8)
    assert np.isfinite(cond)


def test_solver_recovers_sinusoidally_forced_system():
    A_true = np.array([[0.7, 0.2], [-0.1, 0.9]])
    B_true = np.array([[0.5], [-0.3]])
    basis = ci.ForcingBasis((ci.Sinusoid(omega=0.1, phi=0.2),))
    states = _iterate(A_true, B_true, basis, [0.3, 0.4], 80)
    Z, X_next = ci.build_regression(_embedding(states), basis)
    A, B, _ = ci.solve_least_squares(Z, X_next)
    assert np.allclose(A, A_true, atol=1e-6)
    assert np.allclose(B, B_true, atol=1e-6)


def test_solver_matches_normal_equations():
    rng = np.random.default_rng(21)
    Z = rng.normal(size=(40, 5))
    Y = rng.normal(size=(40, 3))
    for lam in (0.0, 1e-3, 0.1, 2.0):
        A, B, _ = ci.solve_least_squares(Z, Y, ridge_lambda=lam)
        W = np.hstack([A, B])
        gram = Z.T @ Z + lam * np.eye(5)
        W_oracle = np.linalg.solve(gram, Z.T @ Y).T
        assert np.allclose(W, W_oracle, atol=1e-8)


def test_solver_solution_is_local_minimum():
    rng = np.random.default_rng(22)
    Z = rng.normal(size=(30, 4))
    Y = rng.normal(size=(30, 2))
    A, B, _ = ci.solve_least_squares(Z, Y)
    W = np.hstack([A, B])
    base = np.sum((Z @ W.T - Y) ** 2)
    for _ in range(10):
        delta = np.zeros_like(W)
        delta[rng.integers(2), rng.integers(4)] = rng.choice([-1e-3, 1e-3])
        perturbed = np.sum((Z @ (W + delta).T - Y) ** 2)
        assert perturbed > base


def test_solver_flags_duplicate_columns():
    rng = np.random.default_rng(23)
    col = rng.normal(size=(25, 1))
    Z = np.hstack([col, col, rng.normal(size=(25, 1))])
    Y = rng.normal(size=(25, 2))
    with pytest.raises(ci.RankDeficient):
        ci.solve_least_squares(Z, Y)
    # a ridge penalty makes the same system solvable
    A, B, _ = ci.solve_least_squares(Z, Y, ridge_lambda=1e-6)
    assert np.all(np.isfinite(A))


def test_ridge_shrinks_the_solution():
    rng = np.random.default_rng(24)
    Z = rng.normal(size=(30, 4))
    Y = rng.normal(size=(30, 2))
    norms = []
    for lam in (0.0, 0.01, 0.1, 1.0, 10.0):
        A, B, _ = ci.solve_least_squares(Z, Y, ridge_lambda=lam)
        norms.append(np.linalg.norm(np.hstack([A, B])))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_negative_ridge_rejected():
    with pytest.raises(ValueError):
        ci.solve_least_squares(np.eye(3), np.eye(3), ridge_lambda=-1.0)


# ---------------------------------------------------------------------------
# output map


def test_output_map_identity_channel():
    rng = np.random.default_rng(25)
    states = rng.normal(size=(40, 3))
    y = states[:, 0]
    C = ci.fit_output_map(_embedding(states), y)
    assert C.shape == (1, 3)
    assert np.allclose(C, [[1.0, 0.0, 0.0]], atol=1e-10)


def test_output_map_linear_combination():
    rng = np.random.default_rng(26)
    states = rng.normal(size=(50, 3))
    target = np.array([[2.0, 3.0, 0.0], [-1.0, 0.5, 4.0]])
    y = states @ target.T
    C = ci.fit_output_map(_embedding(states), y)
    assert C.shape == (2, 3)
    assert np.allclose(C, target, atol=1e-8)


def test_output_map_uses_overlap_only():
    rng = np.random.default_rng(27)
    states = rng.normal(size=(30, 2))
    y = np.concatenate([states[:20, 0], np.full(5, 1e6)])
    # only the first 25 samples align with states; the garbage tail beyond
    # the state count must not enter the fit
    C = ci.fit_output_map(_embedding(states[:20]), y)
    assert np.allclose(C, [[1.0, 0.0]], atol=1e-8)


def test_output_map_too_few_rows():
    with pytest.raises(ci.InsufficientData):
        ci.fit_output_map(_embedding(np.zeros((5, 3))), np.zeros(2))


# ---------------------------------------------------------------------------
# basis refinement


def test_parameter_grid_defaults():
    omega, phi, rate = ci.ParameterGrid().resolved(n_states=1000, dt=0.1)
    assert omega.shape == (32,)
    assert np.isclose(omega[0], 2.0 * np.pi / 100.0)
    assert np.isclose(omega[-1], np.pi / 0.1)
    assert phi.shape == (8,)
    assert phi[0] == 0.0 and phi[-1] < 2.0 * np.pi
    assert rate.shape == (17,)
    assert np.isclose(rate[0], -rate[-1])
    assert rate[8] == 0.0


def test_refine_basis_recovers_exact_grid_point():
    A_true = np.array([[0.8, 0.1], [0.0, 0.7]])
    B_true = np.array([[1.0], [0.5]])
    truth = ci.ForcingBasis((ci.Sinusoid(omega=0.3, phi=np.pi / 2),))
    states = _iterate(A_true, B_true, truth, [0.1, 0.2], 120)
    emb = _embedding(states)
    grid = ci.ParameterGrid(omega=np.array([0.1, 0.3, 0.9]))
    start = ci.ForcingBasis((ci.Sinusoid(omega=1.0, phi=0.0),))
    best, report = ci.refine_basis(emb, start, grid=grid)
    term = best.terms[0]
    assert np.isclose(term.omega, 0.3)
    assert np.isclose(term.phi, np.pi / 2)
    assert float(np.max(report.residual_rms)) < 1e-10


def test_refine_basis_default_grid_recovers_planted_point():
    """When the planted parameters sit exactly on the default grids, the
    refinement must find them.  (Off-grid frequencies are only weakly
    identifiable here: the state columns absorb the steady-state sinusoid,
    so nearby candidates fit almost equally well.)"""
    omega_grid, phi_grid, _ = ci.ParameterGrid().resolved(n_states=401, dt=1.0)
    omega_true = float(omega_grid[16])
    phi_true = float(phi_grid[2])
    A_true = np.array([[0.85, 0.0], [0.1, 0.75]])
    B_true = np.array([[0.7], [-0.2]])
    truth = ci.ForcingBasis((ci.Sinusoid(omega=omega_true, phi=phi_true),))
    states = _iterate(A_true, B_true, truth, [0.0, 0.0], 400)
    best, report = ci.refine_basis(_embedding(states), ci.ForcingBasis((ci.Sinusoid(omega=1.0),)))
    assert np.isclose(best.terms[0].omega, omega_true, atol=1e-12)
    assert np.isclose(best.terms[0].phi, phi_true, atol=1e-12)
    assert float(np.max(report.residual_rms)) < 1e-9


def test_refine_basis_exponential_rate():
    A_true = np.array([[0.9]])
    B_true = np.array([[0.4]])
    truth = ci.ForcingBasis((ci.Exponential(rate=-0.02),))
    states = _iterate(A_true, B_true, truth, [1.0], 150)
    grid = ci.ParameterGrid(rate=np.array([-0.1, -0.02, 0.0, 0.05]))
    best, report = ci.refine_basis(_embedding(states), ci.ForcingBasis((ci.Exponential(rate=1.0),)), grid=grid)
    assert np.isclose(best.terms[0].rate, -0.02)
    assert float(np.max(report.residual_rms)) < 1e-10


def test_refine_basis_without_free_parameters_is_identity():
    rng = np.random.default_rng(28)
    states = np.cumsum(rng.normal(size=(60, 2)), axis=0)
    basis = ci.polynomial_basis(2)
    best, report = ci.refine_basis(_embedding(states), basis)
    assert best.terms == basis.terms
    assert report.residual_rms.shape == (2,)


# ---------------------------------------------------------------------------
# end-to-end fit


def test_fit_model_polynomial_fallback_recovers_linear_part():
    A_true = np.array([[0.9, 0.05], [-0.1, 0.8]])
    B_true = np.array([[0.3], [0.1]])
    truth = ci.ForcingBasis((ci.Polynomial(0),))
    states = _iterate(A_true, B_true, truth, [1.0, 0.0], 60)
    emb = _embedding(states)
    report = ci.classify_symmetry([], threshold=1.0)
    outputs = ci.TimeSeries(states[:, 0], dt=1.0)
    model, fit = ci.fit_model(emb, outputs, report)
    assert np.allclose(model.A, A_true, atol=1e-6)
    assert np.allclose(model.C, [[1.0, 0.0]], atol=1e-8)
    assert float(np.max(fit.one_step_nrmse)) < 1e-8
    assert float(np.max(fit.free_run_nrmse)) < 1e-6
    assert model.dt == emb.dt
    assert model.embedding_tau == emb.tau


def test_fit_model_solves_the_winning_regression_once(monkeypatch):
    from chaosid import identify

    calls = []
    solve = identify.solve_least_squares
    monkeypatch.setattr(
        identify, "solve_least_squares", lambda *args: calls.append(1) or solve(*args)
    )
    basis = ci.ForcingBasis((ci.Polynomial(0),))
    states = _iterate([[0.9, 0.05], [-0.1, 0.8]], [[0.3], [0.1]], basis, [1.0, 0.0], 60)
    report = ci.classify_symmetry([], threshold=1.0)
    ci.fit_model(_embedding(states), ci.TimeSeries(states[:, 0], dt=1.0), report)
    assert len(calls) == 1  # one candidate basis, one solve


def test_fit_model_seeds_frequency_from_rotation_report():
    # planted rotation transforms carry the angle that seeds the sinusoid
    A_true = np.array([[0.6, 0.2], [-0.2, 0.9]])
    B_true = np.array([[0.8], [0.4]])
    omega_true = 0.3
    truth = ci.ForcingBasis((ci.Sinusoid(omega=omega_true, phi=0.0),))
    states = _iterate(A_true, B_true, truth, [0.5, -0.3], 300)
    emb = _embedding(states)
    theta = omega_true * 8  # angle advanced over one window of 8 steps at dt=1
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    transforms = [
        ci.SymmetryTransform(
            transform_class=ci.TransformClass.ROTATION,
            rotation=rot,
            scale=1.0,
            translation=np.zeros(2),
            affine=np.eye(2),
            residual=0.0,
            source_segment=0,
            target_segment=1,
        )
    ]
    report = ci.classify_symmetry(transforms, threshold=1.0)
    # with refinement off, the fitted basis is exactly the seeded one:
    # omega = rotation angle / window duration = (0.3 * 8) / (8 * 1.0)
    options = ci.FitOptions(segment_window=8, refine=False)
    model, fit = ci.fit_model(emb, ci.TimeSeries(states[:, 0], dt=1.0), report, options)
    term = model.basis.terms[0]
    assert isinstance(term, ci.Sinusoid)
    assert np.isclose(term.omega, omega_true, atol=1e-12)
    assert term.phi == 0.0
    assert np.allclose(model.A, A_true, atol=1e-6)
    assert np.allclose(model.B, B_true, atol=1e-6)
    assert float(np.max(fit.one_step_nrmse)) < 1e-8


def test_fit_model_auto_ridge_on_rank_deficiency():
    # a dead coordinate leaves a zero regressor column
    k = np.arange(50.0)
    states = np.column_stack([0.5**k, np.zeros(50)])
    emb = _embedding(states)
    report = ci.SymmetryReport(
        transforms=[],
        class_histogram={},
        dominant_class=None,
        recommended_basis=ci.ForcingBasis(()),
        threshold=0.0,
        diameter=0.0,
    )
    options = ci.FitOptions(refine=False)
    model, fit = ci.fit_model(emb, ci.TimeSeries(states[:, 0], dt=1.0), report, options)
    assert fit.ridge_lambda > 0.0
    assert any("rank deficient" in w for w in fit.warnings)
    assert np.all(np.isfinite(model.A))


def test_fit_model_reports_divergent_free_run():
    # an expanding system fitted exactly still diverges in free run only if
    # the horizon overflows; here the fit is exact and stays finite, so the
    # free-run error must be tiny instead
    A_true = np.array([[1.01, 0.0], [0.0, 0.99]])
    states = _iterate(A_true, np.zeros((2, 0)), ci.ForcingBasis(()), [1e-3, 1e-3], 80)
    emb = _embedding(states)
    report = ci.SymmetryReport(
        transforms=[],
        class_histogram={},
        dominant_class=None,
        recommended_basis=ci.ForcingBasis(()),
        threshold=0.0,
        diameter=0.0,
    )
    model, fit = ci.fit_model(
        emb, ci.TimeSeries(states[:, 0], dt=1.0), report, ci.FitOptions(refine=False)
    )
    assert np.allclose(model.A, A_true, atol=1e-8)
    assert float(np.max(fit.free_run_nrmse)) < 1e-6
