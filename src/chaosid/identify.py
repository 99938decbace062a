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


def build_regression(embedding, basis):
    """Assemble the regression Z w = X+ for one delay embedding.

    Row k of Z is [x(k), phi(k)] and row k of X+ is x(k+1), for
    k = 0 .. n_states-2.  Time enters the basis as t = k * dt with the
    embedding's sample interval.

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
    basis.check_horizon((n_states - 1) * embedding.dt)
    phi = basis.evaluate(np.arange(n_states - 1), embedding.dt)
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
    if not 0.0 <= ridge_lambda < np.inf:
        raise InvalidValue(f"ridge_lambda must be finite and >= 0, got {ridge_lambda}")
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        raise RankDeficient("regressor matrix is zero")
    cond = float(smax / s[-1]) if s[-1] > 0.0 else float("inf")
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
    """Search grids for the nonlinear basis parameters.

    Any field left as None gets the documented default, computed from the
    data size: omega is log-spaced between one cycle over the record and the
    Nyquist rate, and the exponential rate spans decay or growth by 10^3
    over the record.  Sinusoid phases are fitted, not searched.
    """

    omega: np.ndarray = None
    rate: np.ndarray = None

    def resolved(self, n_states, dt):
        span = n_states * dt
        omega = self.omega
        if omega is None:
            omega = np.geomspace(2.0 * np.pi / span, np.pi / dt, 32)
        rate = self.rate
        if rate is None:
            bound = 2.0 / span * np.log(1e3)
            rate = np.linspace(-bound, bound, 17)
        return np.asarray(omega, dtype=float), np.asarray(rate, dtype=float)


def _candidate_bases(basis, grid, embedding):
    """Yield bases with every combination of free parameter values.

    Terms without free parameters pass through unchanged.  Sinusoids range
    over the omega grid (``_fit_phases`` fits their phase) and exponentials
    over the rate grid, resolved for the embedding.  The input basis itself
    defines the term order.
    """
    omega_grid, rate_grid = grid.resolved(embedding.n_states, embedding.dt)
    per_term = []
    for term in basis.terms:
        if isinstance(term, Sinusoid):
            per_term.append([Sinusoid(float(w), term.phi, term.time_power) for w in omega_grid])
        elif isinstance(term, Exponential):
            per_term.append(
                [Exponential(float(r), term.time_power) for r in rate_grid]
            )
        else:
            per_term.append([term])
    for combo in itertools.product(*per_term):
        yield ForcingBasis(combo)


def _fit_phases(embedding, basis):
    """Give each sinusoid its least-squares phase, in term order with the
    other terms held (variable projection, Golub & Pereyra 1973).

    sin(w t + phi) = c0 sin(w t) + c1 cos(w t) for c = (cos phi, sin phi).
    With that pair last in Z = QR, the best c maps through R22 onto the top
    left singular vector of Q2^T X+.  Directions of R22 below RANK_TOLERANCE
    ||Z||_2 cannot carry the phase (sin(w t) vanishes at the Nyquist rate).
    Of phi and phi + pi, the one giving B a positive largest entry is taken.
    """
    terms = basis.terms
    for i, term in enumerate(terms):
        if not isinstance(term, Sinusoid):
            continue
        pair = tuple(Sinusoid(term.omega, ph, term.time_power) for ph in (0.0, np.pi / 2))
        others = ForcingBasis(terms[:i] + terms[i + 1 :] + pair)
        Z, X_next = build_regression(embedding, others)
        Q, R = np.linalg.qr(Z)
        U, s, Vt = np.linalg.svd(R[-2:, -2:])
        keep = s >= RANK_TOLERANCE * np.linalg.norm(R, 2)
        if keep.any():
            u, _, vt = np.linalg.svd(U[:, keep].T @ (Q[:, -2:].T @ X_next))
            top = u[:, 0] * np.sign(vt[0, np.argmax(np.abs(vt[0]))])
            c = Vt[keep].T @ (top / s[keep])
            term = Sinusoid(term.omega, float(np.arctan2(c[1], c[0])), term.time_power)
            terms = terms[:i] + (term,) + terms[i + 1 :]
    return ForcingBasis(terms)


def refine_basis(embedding, basis, grid=None):
    """Grid search over nonlinear basis parameters, minimizing one-step residual.

    Every candidate basis gets fitted sinusoid phases and the same
    unregularized solver, and the candidate with the smallest total one-step
    residual wins; on ties the earliest grid point is kept.  ``grid``
    defaults to ``ParameterGrid()`` resolved for the embedding, whose
    sample interval is the time step.  A basis with no free parameters (or
    an empty one) is returned unchanged along with its fit.

    Returns
    -------
    (best_basis, report) : (ForcingBasis, FitReport)
    """
    candidates = _candidate_bases(basis, grid or ParameterGrid(), embedding)
    best = _best_fit(embedding, candidates, 0.0)
    return best[0], best[-1]


def _best_fit(embedding, candidates, ridge_lambda):
    """Fit every candidate basis with its phases fitted; return (basis, A, B,
    Z, X_next, report) of the smallest one-step residual, the earliest on ties."""
    best = None
    for candidate in candidates:
        candidate = _fit_phases(embedding, candidate)
        Z, X_next = build_regression(embedding, candidate)
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


def fit_model(embedding, outputs, report):
    """Identify a full model from an embedding and a symmetry report.

    The basis family the symmetry vote recommends is refined over the
    default ``ParameterGrid`` (refinement replaces its placeholder
    parameters), and the best candidate is fitted by least squares with no
    ridge; the output map is fitted separately.  A state regression that is
    rank deficient for every candidate is refitted with an automatic ridge
    taken from the recommended basis, and the report's ``ridge_lambda``
    holds the ridge of the winning fit.  One-step and free-run errors are
    measured against ``outputs``.  The free run starts from the first
    embedding state and covers every row the embedding and ``outputs``
    share; the report keeps its states in ``free_run`` (None when the run
    diverged, with a warning and an infinite ``free_run_nrmse``).

    Parameters
    ----------
    embedding : DelayEmbedding
    outputs : TimeSeries
        Observed output channels aligned with the embedding rows.
    report : SymmetryReport

    Returns
    -------
    (model, fit_report) : (StateSpaceModel, FitReport)
    """
    warnings = []
    basis = report.recommended_basis
    candidates = list(_candidate_bases(basis, ParameterGrid(), embedding))
    try:
        basis, A, B, Z, X_next, fit = _best_fit(embedding, candidates, 0.0)
    except RankDeficient:
        Z, _ = build_regression(embedding, basis)
        ridge_lambda = AUTO_RIDGE_FACTOR * np.linalg.norm(Z, 2) ** 2
        warnings.append(
            f"regression rank deficient; retried with ridge_lambda={ridge_lambda:.3e}"
        )
        basis, A, B, Z, X_next, fit = _best_fit(embedding, candidates, ridge_lambda)
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
        dt=embedding.dt,
        embedding_tau=embedding.tau,
        embedding_channel=embedding.source_channel,
    )
    fit.warnings = warnings + fit.warnings
    _measure_errors(model, embedding, outputs, Z, X_next, A, B, fit)
    return model, fit


def _measure_errors(model, embedding, outputs, Z, X_next, A, B, fit):
    """Fill one-step and free-run output errors and the free-run states
    into the fit report."""
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

    try:
        fit.free_run, y_free = dynamics.simulate(model, embedding.states[0], rows)
        err = y_free - y
        fit.free_run_nrmse = np.sqrt(np.mean(err**2, axis=0)) / scale
    except NonFiniteState as exc:
        fit.free_run_nrmse = np.full(y.shape[1], np.inf)
        fit.warnings.append(f"free run diverged: {exc}")
