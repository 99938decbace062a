"""Tests for the regression assembly, the SVD least-squares solver, basis
refinement, and the end-to-end model fit."""

import numpy as np
import pytest

import chaosid as ci
from chaosid import identify
from conftest import exhaustive_best_fit


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


def test_check_horizon_reads_the_exponential_inside_a_product():
    basis = ci.ForcingBasis((ci.Product(ci.Sinusoid(1.0), ci.Exponential(rate=2.0)),))
    basis.check_horizon(350.0)  # exp argument 700, the limit itself
    with pytest.raises(ci.OverflowUnsafe, match="reaches exp argument 702 "):
        basis.check_horizon(351.0)


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
    omega, rate = ci.ParameterGrid().resolved(n_states=1000, dt=0.1)
    assert omega.shape == (32,)
    assert np.isclose(omega[0], 2.0 * np.pi / 100.0)
    assert np.isclose(omega[-1], np.pi / 0.1)
    assert rate.shape == (17,)
    assert np.isclose(rate[0], -rate[-1])
    assert rate[8] == 0.0


@pytest.mark.parametrize(
    "grid",
    [
        ci.ParameterGrid(omega=[]),
        ci.ParameterGrid(omega=[np.nan]),
        ci.ParameterGrid(omega=[np.inf]),
        ci.ParameterGrid(omega=0.5),
        ci.ParameterGrid(omega=[[0.1, 0.2]]),
        ci.ParameterGrid(rate=[np.nan]),
        ci.ParameterGrid(rate=[]),
    ],
)
def test_parameter_grid_rejects_a_grid_that_cannot_be_searched(grid):
    with pytest.raises(
        ci.InvalidValue,
        match="^(omega|rate) grid (must be a non-empty 1-D array|holds NaN or infinity; it must be finite)",
    ):
        grid.resolved(n_states=100, dt=1.0)
    states = np.cumsum(np.random.default_rng(2).normal(size=(100, 2)), axis=0)
    with pytest.raises(ci.InvalidValue):
        ci.refine_basis(_embedding(states), ci.ForcingBasis((ci.Sinusoid(1.0),)), grid=grid)


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
    """When the planted frequency sits exactly on the default grid, the
    refinement must find it, and the fitted phase must recover any planted
    phase.  (Off-grid frequencies are only weakly identifiable here: the
    state columns absorb the steady-state sinusoid, so nearby candidates fit
    almost equally well.)"""
    omega_grid, _ = ci.ParameterGrid().resolved(n_states=401, dt=1.0)
    omega_true = float(omega_grid[16])
    phi_true = 1.0
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


def _one_step_rms(emb, basis):
    Z, X_next = ci.build_regression(emb, basis)
    A, B, _ = ci.solve_least_squares(Z, X_next)
    return float(np.sqrt(np.mean((X_next - Z @ np.hstack([A, B]).T) ** 2)))


def test_refine_basis_fitted_phase_beats_a_fine_phase_grid():
    trajectory = ci.rk4_integrate(
        ci.rossler(), np.array([1.0, 1.0, 1.0]), dt=0.05, steps=2000, transient_skip=2000
    )
    x = trajectory.channel(0)
    x = x + 0.01 * np.std(x) * np.random.default_rng(0).normal(size=x.size)
    emb = ci.delay_embed(ci.TimeSeries(x, dt=0.05), tau=26, m=3)
    best, report = ci.refine_basis(emb, ci.ForcingBasis((ci.Sinusoid(omega=1.0),)))
    fitted = _one_step_rms(emb, best)
    assert np.isclose(fitted, np.sqrt(np.mean(report.residual_rms**2)), rtol=1e-12)
    omega = best.terms[0].omega
    turn = np.linspace(-np.pi, np.pi, 720, endpoint=False)
    grid = min(_one_step_rms(emb, ci.ForcingBasis((ci.Sinusoid(omega, ph),))) for ph in turn)
    assert fitted <= grid * (1.0 + 1e-12)


@pytest.mark.parametrize("with_constant", [False, True])
def test_refine_basis_phase_at_the_nyquist_rate(with_constant):
    # sin(pi k) vanishes, so only the cosine direction can carry the phase;
    # the fit must match the best point of an eight-step phase grid
    rng = np.random.default_rng(3)
    terms = (ci.Polynomial(0),) if with_constant else ()
    truth = ci.ForcingBasis(terms + (ci.Sinusoid(omega=np.pi, phi=0.4),))
    B_true = np.array([[0.6] * truth.size, [-0.3] * truth.size])
    states = _iterate([[0.8, 0.1], [-0.1, 0.7]], B_true, truth, [0.5, 0.0], 300)
    emb = _embedding(states + 1e-3 * rng.normal(size=states.shape))
    start = ci.ForcingBasis(terms + (ci.Sinusoid(omega=1.0),))
    best, report = ci.refine_basis(emb, start, grid=ci.ParameterGrid(omega=np.array([np.pi])))
    phi = best.terms[-1].phi
    assert np.isfinite(phi) and np.isclose(abs(phi), np.pi / 2)
    eighths = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    grid = min(
        _one_step_rms(emb, ci.ForcingBasis(terms + (ci.Sinusoid(np.pi, ph),)))
        for ph in eighths[[1, 2, 3, 5, 6, 7]]  # 0 and pi leave a zero column
    )
    assert np.isclose(np.sqrt(np.mean(report.residual_rms**2)), grid, rtol=1e-9)


def test_refine_basis_fits_several_phases_in_term_order():
    # each phase is fitted with the others held, so the result is never
    # worse than the starting phases at the same frequencies
    truth = ci.ForcingBasis((ci.Sinusoid(0.3, 0.5), ci.Sinusoid(0.9, -2.0)))
    states = _iterate([[0.8, 0.1], [0.0, 0.7]], [[1.0, 0.4], [0.5, -0.6]], truth, [0.1, 0.2], 200)
    emb = _embedding(states)
    start = ci.ForcingBasis((ci.Sinusoid(1.0), ci.Sinusoid(1.0)))
    best, report = ci.refine_basis(emb, start, grid=ci.ParameterGrid(omega=np.array([0.3, 0.9])))
    assert sorted(term.omega for term in best.terms) == [0.3, 0.9]
    held = ci.ForcingBasis(tuple(ci.Sinusoid(term.omega) for term in best.terms))
    assert np.sqrt(np.mean(report.residual_rms**2)) <= _one_step_rms(emb, held)


def test_refine_basis_without_free_parameters_is_identity():
    rng = np.random.default_rng(28)
    states = np.cumsum(rng.normal(size=(60, 2)), axis=0)
    basis = ci.polynomial_basis()
    best, report = ci.refine_basis(_embedding(states), basis)
    assert best.terms == basis.terms
    assert report.residual_rms.shape == (2,)


# ---------------------------------------------------------------------------
# bounded refinement against the exhaustive loop


def _bits(value):
    return np.ascontiguousarray(value, dtype=float).tobytes()


def _assert_same_fit(got, want):
    """Bitwise equality of basis, A, B, the one-step prediction, residual
    RMS and the condition estimate of two ``_best_fit`` results.  Z and the
    targets follow from the basis."""
    assert repr(got[0]) == repr(want[0])
    for a, b in zip(got[1:4], want[1:4]):
        assert a.shape == b.shape and _bits(a) == _bits(b)
    for field in ("residual_rms", "condition_estimate", "ridge_lambda"):
        assert _bits(getattr(got[4], field)) == _bits(getattr(want[4], field))
    assert got[4].basis_description == want[4].basis_description


def _bounded_and_exhaustive(emb, basis, grid=None, ridge_lambda=0.0):
    """(bounded result, exhaustive result, candidates fitted by the bounded loop)."""
    candidates = list(identify._candidate_bases(basis, grid or ci.ParameterGrid(), emb))
    fitted = []
    fit_phases = identify._fit_phases

    def counted(embedding, candidate):
        fitted.append(candidate)
        return fit_phases(embedding, candidate)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identify, "_fit_phases", counted)
        got = identify._best_fit(emb, candidates, ridge_lambda)
    return got, exhaustive_best_fit(emb, candidates, ridge_lambda), fitted


def _exact_rms(emb, candidate):
    Z, X_next = ci.build_regression(emb, identify._fit_phases(emb, candidate))
    A, B, _ = ci.solve_least_squares(Z, X_next)
    return float(np.sqrt(np.mean((X_next - Z @ np.hstack([A, B]).T) ** 2)))


def _damped_embedding(seed):
    """A slowly damped oscillation with 0.1% noise, dt 0.1, like the damped
    benchmark series, embedded at tau 15, m 2."""
    rng = np.random.default_rng(seed)
    t = np.arange(2000) * 0.1
    clean = np.exp(-0.005 * t) * np.sin(t + rng.uniform(0.0, 2.0 * np.pi))
    x = clean + 0.001 * np.std(clean) * rng.standard_normal(t.size)
    return ci.delay_embed(ci.TimeSeries(x, dt=0.1), tau=15, m=2)


SINE = ci.ForcingBasis((ci.Sinusoid(omega=1.0),))


def test_bounded_refinement_matches_the_exhaustive_loop_on_the_reference(rossler_embedding):
    got, want, fitted = _bounded_and_exhaustive(rossler_embedding, SINE)
    _assert_same_fit(got, want)
    assert len(fitted) == 1  # the runner-up trails by 1%


def test_bounded_refinement_fits_the_nyquist_point_whose_bound_undercuts_the_winner():
    # sin(w t) vanishes at the Nyquist rate, where _fit_phases keeps only
    # the cosine: that candidate's exact RMS lies above its bound, which
    # here lies below the winner's RMS, so it must be fitted to be ruled out
    emb = _damped_embedding(10)
    candidates = list(identify._candidate_bases(SINE, ci.ParameterGrid(), emb))
    bounds = identify._lower_bounds(emb, candidates)
    exact = np.array([_exact_rms(emb, c) for c in candidates])
    winner = int(np.argmin(exact))
    assert winner != 31 and bounds[31] < exact[winner] < exact[31]
    assert np.sort(exact)[1] / exact[winner] - 1.0 < 1e-3  # a near tie
    got, want, fitted = _bounded_and_exhaustive(emb, SINE)
    _assert_same_fit(got, want)
    assert [c.terms[0].omega for c in fitted] == [candidates[31].terms[0].omega,
                                                  candidates[winner].terms[0].omega]


@pytest.mark.parametrize("rates, signed", [([0.05, -0.0, 0.0], True), ([0.05, 0.0, -0.0], False)])
def test_bounded_refinement_keeps_the_earliest_of_an_exact_tie(rates, signed):
    # exp(-0.0 t) and exp(0.0 t) are the same column, so the two grid points
    # tie bitwise; the sign of the winning rate tells them apart
    states = _iterate([[0.9, 0.05], [-0.1, 0.8]], [[0.3], [0.1]],
                      ci.ForcingBasis((ci.Polynomial(0),)), [1.0, 0.0], 80)
    states = states + 1e-4 * np.random.default_rng(5).normal(size=states.shape)
    grid = ci.ParameterGrid(rate=np.array(rates))
    got, want, _ = _bounded_and_exhaustive(_embedding(states), ci.ForcingBasis((ci.Exponential(1.0),)), grid)
    _assert_same_fit(got, want)
    assert got[0].terms[0].rate == 0.0 and bool(np.signbit(got[0].terms[0].rate)) is signed


def test_bounded_refinement_matches_on_the_exponential_grid():
    # the default rate grid has rate 0 at its middle
    truth = ci.ForcingBasis((ci.Exponential(rate=-0.01),))
    states = _iterate([[0.9, 0.05], [-0.1, 0.8]], [[0.4], [-0.2]], truth, [1.0, 0.0], 300)
    states = states + 1e-3 * np.random.default_rng(6).normal(size=states.shape)
    emb = _embedding(states)
    assert ci.ParameterGrid().resolved(emb.n_states, emb.dt)[1][8] == 0.0
    got, want, fitted = _bounded_and_exhaustive(emb, ci.ForcingBasis((ci.Exponential(1.0),)))
    _assert_same_fit(got, want)
    assert len(fitted) < 17


@pytest.mark.parametrize(
    "basis",
    [
        ci.ForcingBasis((ci.Sinusoid(omega=1.0), ci.Exponential(rate=1.0))),
        # two sinusoids: the bound frees both pairs, so it is loose
        ci.ForcingBasis((ci.Sinusoid(omega=1.0), ci.Sinusoid(omega=1.0))),
    ],
    ids=["sinusoid-and-exponential", "two-sinusoids"],
)
def test_bounded_refinement_matches_on_multi_term_bases(basis):
    omega = np.geomspace(0.1, np.pi, 12)
    truth = ci.ForcingBasis((ci.Sinusoid(omega[3], 0.7), ci.Sinusoid(omega[8], -1.0)))
    states = _iterate([[0.8, 0.1], [-0.1, 0.7]], [[1.0, 0.4], [0.5, -0.6]], truth, [0.1, 0.2], 200)
    emb = _embedding(states + 1e-3 * np.random.default_rng(7).normal(size=states.shape))
    grid = ci.ParameterGrid(omega=omega, rate=np.linspace(-0.02, 0.02, 5))
    candidates = list(identify._candidate_bases(basis, grid, emb))
    got, want, fitted = _bounded_and_exhaustive(emb, basis, grid)
    _assert_same_fit(got, want)
    assert len(fitted) < len(candidates)


def test_bounded_refinement_skips_rank_deficient_candidates():
    # at dt 1, sin(2 pi j k) is rounding noise and cos(2 pi j k) repeats the
    # constant term, so those grid points leave the regression rank
    # deficient; their relaxed bounds lie lowest, so they are fitted first
    terms = (ci.Polynomial(0), ci.Sinusoid(omega=1.0))
    trend = ci.ForcingBasis((ci.Polynomial(0), ci.Polynomial(1)))
    states = _iterate([[0.8, 0.1], [-0.1, 0.7]], [[0.2, 0.01], [0.1, -0.005]], trend, [0.1, 0.2], 150)
    emb = _embedding(states + 1e-3 * np.random.default_rng(8).normal(size=states.shape))
    deficient = [2 * np.pi, 4 * np.pi, 6 * np.pi]
    grid = ci.ParameterGrid(omega=np.array([0.3, deficient[0], 0.9] + deficient[1:]))
    for omega in deficient:
        with pytest.raises(ci.RankDeficient):
            _exact_rms(emb, ci.ForcingBasis((ci.Polynomial(0), ci.Sinusoid(omega))))
    got, want, fitted = _bounded_and_exhaustive(emb, ci.ForcingBasis(terms), grid)
    _assert_same_fit(got, want)
    assert sorted(c.terms[1].omega for c in fitted[:3]) == deficient
    assert len(fitted) == 4 and got[0].terms[1].omega == 0.3


def test_bounded_refinement_fits_every_candidate_with_a_ridge():
    emb = _damped_embedding(10)
    got, want, fitted = _bounded_and_exhaustive(emb, SINE, ridge_lambda=1e-6)
    _assert_same_fit(got, want)
    assert len(fitted) == 32


TWO_SINES = ci.ForcingBasis((ci.Sinusoid(omega=1.0), ci.Sinusoid(omega=1.0)))


@pytest.mark.parametrize(
    "n_states, basis, grid, skipped, outcome",
    [
        # two sines split into four columns, more than the 5 transitions
        # leave beside m = 2 states; each one alone still fits
        (6, TWO_SINES, ci.ParameterGrid(omega=np.array([0.3, 0.9, 1.7])), [True] * 9, None),
        # the one sine's pair does not fit beside the states either
        (4, SINE, ci.ParameterGrid(omega=np.array([0.3, 0.9])), [True] * 2, ci.InsufficientData),
        # exp(50 t) overflows over 29 transitions, exp(0.05 t) does not
        (30, ci.ForcingBasis((ci.Exponential(1.0),)), ci.ParameterGrid(rate=np.array([0.05, 50.0])),
         [False, True], ci.OverflowUnsafe),
    ],
    ids=["more-columns-than-transitions-fit", "more-columns-than-transitions-fail",
         "overflowing-rate"],
)
def test_bounded_refinement_matches_where_a_bound_skips_its_candidate(
    n_states, basis, grid, skipped, outcome
):
    """A candidate that ``_lower_bounds`` skips gets bound 0: it is fitted
    first, and wins or fails as it does in the exhaustive loop."""
    states = _iterate([[0.8, 0.1], [-0.1, 0.7]], [[0.3], [0.1]],
                      ci.ForcingBasis((ci.Polynomial(0),)), [1.0, 0.0], n_states - 1)
    emb = _embedding(states + 1e-3 * np.random.default_rng(9).normal(size=states.shape))
    candidates = list(identify._candidate_bases(basis, grid, emb))
    assert (identify._lower_bounds(emb, candidates) == 0.0).tolist() == skipped
    results = []
    for search in (identify._best_fit, exhaustive_best_fit):
        try:
            results.append(search(emb, candidates, 0.0))
        except (ci.InsufficientData, ci.OverflowUnsafe) as exc:
            results.append(type(exc))
    got, want = results
    if outcome is None:
        _assert_same_fit(got, want)
    else:
        assert got is want is outcome


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


def test_fit_model_refines_the_voted_family_whatever_the_transforms():
    # the vote picks the sinusoid family; its parameters come from the
    # refinement, not from the transforms, whose angle here points elsewhere
    omega_grid, _ = ci.ParameterGrid().resolved(n_states=401, dt=1.0)
    omega_true = float(omega_grid[16])
    phi_true = 1.0
    A_true = np.array([[0.85, 0.0], [0.1, 0.75]])
    B_true = np.array([[0.7], [-0.2]])
    truth = ci.ForcingBasis((ci.Sinusoid(omega=omega_true, phi=phi_true),))
    states = _iterate(A_true, B_true, truth, [0.0, 0.0], 400)
    theta = 2.9  # far from omega_true times any window of a few steps
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
    assert report.dominant_class is ci.TransformClass.ROTATION
    model, fit = ci.fit_model(_embedding(states), ci.TimeSeries(states[:, 0], dt=1.0), report)
    term = model.basis.terms[0]
    assert isinstance(term, ci.Sinusoid)
    assert np.isclose(term.omega, omega_true, atol=1e-12)
    assert np.isclose(term.phi, phi_true, atol=1e-12)
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
    model, fit = ci.fit_model(emb, ci.TimeSeries(states[:, 0], dt=1.0), report)
    assert fit.ridge_lambda > 0.0
    assert any("rank deficient" in w for w in fit.warnings)
    assert np.all(np.isfinite(model.A))


@pytest.mark.parametrize("n", [300, 1200])
def test_fit_model_sizes_the_automatic_ridge_from_the_states(n):
    # collinear delay coordinates: x(k+2) = 0.998001 x(k), so every candidate
    # of the exponential vote is rank deficient; the vote's placeholder
    # exp(1 t) would size the ridge at 1e249 (n 300) or overflow (n 1200)
    x = 5.0 * 0.999 ** np.arange(n)
    emb = ci.delay_embed(ci.TimeSeries(x, dt=1.0), tau=2, m=2)
    report = ci.SymmetryReport(
        transforms=[],
        class_histogram={},
        dominant_class=ci.TransformClass.SCALING,
        recommended_basis=ci.ForcingBasis((ci.Exponential(rate=1.0),)),
        threshold=0.0,
        diameter=0.0,
    )
    model, fit = ci.fit_model(emb, ci.TimeSeries(x[: emb.n_states], dt=1.0), report)
    ridge = identify.AUTO_RIDGE_FACTOR * np.linalg.norm(emb.states, 2) ** 2
    assert fit.ridge_lambda == ridge
    assert fit.warnings[0] == f"regression rank deficient; retried with ridge_lambda={ridge:.3e}"
    assert np.all(np.isfinite(model.A)) and float(np.max(fit.one_step_nrmse)) < 1e-5


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
    model, fit = ci.fit_model(emb, ci.TimeSeries(states[:, 0], dt=1.0), report)
    assert np.allclose(model.A, A_true, atol=1e-8)
    assert float(np.max(fit.free_run_nrmse)) < 1e-6
