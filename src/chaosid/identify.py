"""Least-squares identification of the model x(k+1) = A x(k) + B phi(k).

The regression stacks one row per transition: the regressor is the current
state followed by the forcing basis evaluated at the current time, and the
target is the next state.  All solves go through a single SVD of the
regressor matrix, which keeps the solution path orthogonal (no explicit
normal equations) and yields the condition estimate for free.  Ridge
regularization reuses the same factorization through its filter factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import InsufficientData, InvalidValue, NonFiniteState, RankDeficient
from .model import Exponential, FitReport, ForcingBasis, Sinusoid, StateSpaceModel

#: Singular value ratio below which the regressor counts as rank deficient.
RANK_TOLERANCE = 1e-12

#: Automatic ridge used when an unregularized solve is rank deficient,
#: expressed as a multiple of the largest squared singular value.
AUTO_RIDGE_FACTOR = 1e-8


def build_regression(embedding, basis, dt=None):
    """Assemble the regression Z w = X+ for one delay embedding.

    Row k of Z is [x(k), phi(k)] and row k of X+ is x(k+1), for
    k = 0 .. n_states-2.  Time enters the basis as t = k * dt.

    Returns
    -------
    (Z, X_next) : ndarray pair with shapes (T, m+p) and (T, m).
    """
    states = embedding.states
    n_states, m = states.shape
    p = basis.size
    if n_states < m + p + 1:
        raise InsufficientData(
            f"regression needs at least {m + p + 1} states for m={m}, p={p}; got {n_states}"
        )
    if dt is None:
        dt = embedding.dt
    horizon = (n_states - 1) * dt
    basis.check_horizon(horizon)
    phi = basis.evaluate(np.arange(n_states - 1), dt)
    Z = np.hstack([states[:-1], phi])
    return Z, states[1:]


def solve_least_squares(Z, X_next, ridge_lambda=0.0):
    """Solve min ||Z W^T - X+||^2 + ridge_lambda ||W||^2 by SVD.

    The first m columns of W (m = number of target columns) form A and the
    rest form B.

    Returns
    -------
    (A, B, condition_estimate)

    Raises
    ------
    RankDeficient
        when ridge_lambda is 0 and the smallest singular value of Z is
        below RANK_TOLERANCE times the largest.
    """
    Z = np.asarray(Z, dtype=float)
    X_next = np.asarray(X_next, dtype=float)
    if Z.shape[0] != X_next.shape[0]:
        raise InvalidValue(
            f"Z has {Z.shape[0]} rows but targets have {X_next.shape[0]}"
        )
    m = X_next.shape[1]
    W, cond = _svd_solve(Z, X_next, ridge_lambda)
    return W[:, :m], W[:, m:], cond


def _svd_solve(Z, Y, ridge_lambda):
    """Minimum of ||Z W^T - Y||_F^2 + ridge ||W||_F^2 via one SVD of Z."""
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        raise RankDeficient("regressor matrix is zero")
    cond = float(smax / s[-1]) if s[-1] > 0.0 else float("inf")
    if ridge_lambda < 0.0:
        raise InvalidValue(f"ridge_lambda must be >= 0, got {ridge_lambda}")
    if ridge_lambda == 0.0:
        if s[-1] / smax < RANK_TOLERANCE:
            raise RankDeficient(
                f"singular value ratio {s[-1] / smax:.3e} below {RANK_TOLERANCE:g}; "
                "consider a ridge penalty"
            )
        filt = 1.0 / s
    else:
        filt = s / (s**2 + ridge_lambda)
    # W^T = V diag(filt) U^T Y
    Wt = Vt.T @ (filt[:, None] * (U.T @ Y))
    return Wt.T, cond


def fit_output_map(embedding, outputs, ridge_lambda=0.0):
    """Least squares output map C with y(k) = C x(k).

    The embedding state with row index i is aligned with sample i of
    ``outputs``; the overlap of the two determines the fitted rows.  When an
    output channel is exactly the first embedding coordinate, the
    corresponding row of C comes back as the first unit vector to solver
    precision.
    """
    states = embedding.states
    y = np.asarray(outputs.values if hasattr(outputs, "values") else outputs, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    rows = min(states.shape[0], y.shape[0])
    if rows < states.shape[1]:
        raise InsufficientData(
            f"output fit needs at least {states.shape[1]} aligned rows, got {rows}"
        )
    Ct, _ = _svd_solve(states[:rows], y[:rows], ridge_lambda)
    return Ct


@dataclass(frozen=True)
class ParameterGrid:
    """Search grids for the free basis parameters.

    Any field left as None gets the documented default, computed from the
    data size: omega is log-spaced between one cycle over the record and the
    Nyquist rate, the exponential rate spans decay or growth by 10^3 over
    the record, and the phase covers a full turn in eight steps.
    """

    omega: np.ndarray = None
    phi: np.ndarray = None
    rate: np.ndarray = None

    def resolved(self, n_states, dt):
        span = n_states * dt
        omega = self.omega
        if omega is None:
            omega = np.geomspace(2.0 * np.pi / span, np.pi / dt, 32)
        phi = self.phi
        if phi is None:
            phi = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        rate = self.rate
        if rate is None:
            bound = 2.0 / span * np.log(1e3)
            rate = np.linspace(-bound, bound, 17)
        return (
            np.asarray(omega, dtype=float),
            np.asarray(phi, dtype=float),
            np.asarray(rate, dtype=float),
        )


def _candidate_bases(basis, grid, n_states, dt):
    """Yield bases with every combination of free parameter values.

    Terms without free parameters pass through unchanged.  Sinusoids range
    over (omega, phi) and exponentials over the rate grid.  The input basis
    itself defines the term order.
    """
    omega_grid, phi_grid, rate_grid = grid.resolved(n_states, dt)
    per_term = []
    for term in basis.terms:
        if isinstance(term, Sinusoid):
            per_term.append(
                [
                    Sinusoid(float(w), float(ph), term.time_power)
                    for w in omega_grid
                    for ph in phi_grid
                ]
            )
        elif isinstance(term, Exponential):
            per_term.append(
                [Exponential(float(r), term.time_power) for r in rate_grid]
            )
        else:
            per_term.append([term])
    for combo in itertools.product(*per_term):
        yield ForcingBasis(combo)


def refine_basis(embedding, basis, dt=None, grid=None, ridge_lambda=0.0):
    """Grid search over free basis parameters, minimizing one-step residual.

    Every candidate basis is fitted with the same solver, and the candidate
    with the smallest total one-step residual wins; on ties the earliest
    grid point is kept.  A basis with no free parameters (or an empty one)
    is returned unchanged along with its fit.

    Returns
    -------
    (best_basis, report) : (ForcingBasis, FitReport)
    """
    if dt is None:
        dt = embedding.dt
    if grid is None:
        grid = ParameterGrid()
    candidates = _candidate_bases(basis, grid, embedding.n_states, dt)
    best = _best_fit(embedding, candidates, dt, ridge_lambda)
    return best[0], best[-1]


def _best_fit(embedding, candidates, dt, ridge_lambda):
    """Fit every candidate basis; return (basis, A, B, Z, X_next, report) of
    the smallest one-step residual, the earliest on ties."""
    best = None
    for candidate in candidates:
        Z, X_next = build_regression(embedding, candidate, dt)
        try:
            A, B, cond = solve_least_squares(Z, X_next, ridge_lambda)
        except RankDeficient:
            continue
        resid = X_next - Z @ np.hstack([A, B]).T
        total = float(np.sqrt(np.mean(resid**2)))
        if best is None or total < best[0]:
            best = (total, candidate, A, B, cond, Z, X_next, resid)
    if best is None:
        raise RankDeficient("every candidate basis left the regression rank deficient")
    _, candidate, A, B, cond, Z, X_next, resid = best
    report = FitReport(
        residual_rms=np.sqrt(np.mean(resid**2, axis=0)),
        condition_estimate=cond,
        ridge_lambda=ridge_lambda,
        basis_description=candidate.describe(),
    )
    return candidate, A, B, Z, X_next, report


def fit_model(embedding, outputs, report, ridge_lambda=0.0, free_run_steps=None):
    """Identify a full model from an embedding and a symmetry report.

    The basis family the symmetry vote recommends is refined over the
    default ``ParameterGrid`` (refinement replaces its placeholder
    parameters), and the best candidate is fitted by least squares; the
    output map is fitted separately.  One-step and free-run errors are
    measured against ``outputs``.

    Parameters
    ----------
    embedding : DelayEmbedding
    outputs : TimeSeries
        Observed output channels aligned with the embedding rows.
    report : SymmetryReport
    ridge_lambda : float
        Ridge weight of the state regression.  At 0, a regression that is
        rank deficient for every candidate is refitted with an automatic
        ridge taken from the recommended basis.
    free_run_steps : int, optional
        Free-run horizon; None uses the embedding length.

    Returns
    -------
    (model, fit_report) : (StateSpaceModel, FitReport)
    """
    dt = embedding.dt
    warnings = []
    basis = report.recommended_basis
    candidates = list(_candidate_bases(basis, ParameterGrid(), embedding.n_states, dt))
    try:
        basis, A, B, Z, X_next, fit = _best_fit(embedding, candidates, dt, ridge_lambda)
    except RankDeficient:
        Z, _ = build_regression(embedding, basis, dt)
        ridge_lambda = AUTO_RIDGE_FACTOR * np.linalg.norm(Z, 2) ** 2
        warnings.append(
            f"regression rank deficient; retried with ridge_lambda={ridge_lambda:.3e}"
        )
        basis, A, B, Z, X_next, fit = _best_fit(embedding, candidates, dt, ridge_lambda)
    try:
        C = fit_output_map(embedding, outputs)
    except RankDeficient:
        ridge_c = AUTO_RIDGE_FACTOR * float(np.linalg.norm(embedding.states, 2)) ** 2
        warnings.append(
            f"output map rank deficient; retried with ridge_lambda={ridge_c:.3e}"
        )
        C = fit_output_map(embedding, outputs, ridge_lambda=ridge_c)
    model = StateSpaceModel(
        A=A,
        B=B,
        C=C,
        basis=basis,
        dt=dt,
        embedding_tau=embedding.tau,
        embedding_channel=embedding.source_channel,
    )
    fit.ridge_lambda = ridge_lambda
    fit.warnings = warnings + fit.warnings
    _measure_errors(model, embedding, outputs, Z, X_next, A, B, fit, free_run_steps)
    return model, fit


def _measure_errors(model, embedding, outputs, Z, X_next, A, B, fit, steps):
    """Fill one-step and free-run output errors into the fit report."""
    y = outputs.values
    rows = min(embedding.n_states, y.shape[0])
    y = y[:rows]
    scale = np.std(y, axis=0)
    scale[scale == 0.0] = 1.0

    # one step ahead: predict x(k+1) from the data, map through C
    X_pred = Z @ np.hstack([A, B]).T
    y_pred = X_pred[: rows - 1] @ model.C.T
    err = y_pred - y[1:rows]
    fit.one_step_nrmse = np.sqrt(np.mean(err**2, axis=0)) / scale

    if steps is None:
        steps = rows
    try:
        _, y_free = dynamics.simulate(model, embedding.states[0], steps)
        k = min(steps, rows)
        err = y_free[:k] - y[:k]
        fit.free_run_nrmse = np.sqrt(np.mean(err**2, axis=0)) / scale
    except NonFiniteState as exc:
        fit.free_run_nrmse = np.full(y.shape[1], np.inf)
        fit.warnings.append(f"free run diverged: {exc}")
