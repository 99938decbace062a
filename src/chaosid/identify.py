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
from .errors import (InsufficientData, InvalidValue, NonFiniteState, OverflowUnsafe, RankDeficient,
                     _finite, _real)
from .model import Exponential, FitReport, ForcingBasis, Sinusoid, StateSpaceModel
from .validate import _nrmse

#: Singular value ratio below which the regressor counts as rank deficient.
RANK_TOLERANCE = 1e-12

#: Automatic ridge used when an unregularized solve is rank deficient,
#: expressed as a multiple of the largest squared singular value of the
#: embedding states.
AUTO_RIDGE_FACTOR = 1e-8

#: Relative margin by which a candidate's lower bound must exceed the best
#: exact one-step RMS before that candidate, and every later one in bound
#: order, is left unfitted.  It covers rounding in both scores: on the
#: benchmark series no bound came out more than 3e-15 relative above its
#: exact score.  Only fits exact to rounding, whose order is rounding
#: noise, could need more.
BOUND_SLACK = 1e-6


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
    InvalidValue
        when Z or X_next holds NaN or infinity, or ridge_lambda is below 0.
    """
    if len(Z) != len(X_next):
        raise InvalidValue(f"Z has {len(Z)} rows but targets have {len(X_next)}")
    W, cond = _svd_solve(Z, X_next, ridge_lambda)
    m = np.shape(X_next)[1]
    return W[:, :m], W[:, m:], cond


def _svd_solve(Z, Y, ridge_lambda):
    """Minimum of ||Z W^T - Y||_F^2 + ridge ||W||_F^2 via one SVD of Z; Z and Y must be finite."""
    if _real("ridge_lambda", ridge_lambda) < 0.0:
        raise InvalidValue(f"ridge_lambda must be >= 0, got {ridge_lambda}")
    Y = _finite("targets", Y)
    U, s, Vt = np.linalg.svd(_finite("Z", Z), full_matrices=False)
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
        """(omega, rate) as float arrays; raises InvalidValue for a grid
        that is empty, not 1-D or not finite."""
        span = n_states * dt
        omega = self.omega
        if omega is None:
            omega = np.geomspace(2.0 * np.pi / span, np.pi / dt, 32)
        rate = self.rate
        if rate is None:
            bound = 2.0 / span * np.log(1e3)
            rate = np.linspace(-bound, bound, 17)
        grids = _finite("omega grid", omega), _finite("rate grid", rate)
        for name, values in zip(("omega", "rate"), grids):
            if values.ndim != 1 or values.size == 0:
                raise InvalidValue(
                    f"{name} grid must be a non-empty 1-D array, got shape {values.shape}"
                )
        return grids


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
            per_term.append([Sinusoid(w, term.phi, term.time_power) for w in omega_grid])
        elif isinstance(term, Exponential):
            per_term.append([Exponential(r, term.time_power) for r in rate_grid])
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

    Every candidate basis that a lower bound cannot rule out gets fitted
    sinusoid phases and the same unregularized solver, and the candidate
    with the smallest total one-step residual wins; on ties the earliest
    grid point is kept.  The bound (``_lower_bounds``) is the one-step RMS
    of the candidate's regression with every sinusoid split into its free
    sin/cos pair, so candidates are fitted in ascending bound order until
    the next bound exceeds the best exact RMS by the relative margin
    ``BOUND_SLACK`` (1e-6); no skipped candidate could have won.  ``grid``
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


def _lower_bounds(embedding, candidates):
    """A lower bound on each candidate's exact one-step RMS.

    The state columns are projected out of the targets Y and of the
    forcing columns once (one QR of the states), and each sinusoid becomes
    its sin/cos pair.  With Q from a QR of the candidate's projected
    columns, one sinusoid (its pair last) gives
    ||Y||^2 - ||Q_others^T Y||^2 - sigma_max(Q_pair^T Y)^2, the optimum
    over its shared phase, which ``_fit_phases`` attains; any other basis
    gives ||Y||^2 - ||Q^T Y||_F^2, the fit with every pair free.  Both are
    taken as the norm of a residual, not as a difference.  Where
    ``_fit_phases`` drops a direction (sin(w t) vanishes at the Nyquist
    rate) the exact score only rises.  A candidate too large for the
    record, whose forcing would overflow or whose bound is not finite gets
    0, so it is fitted first and fails as it did before bounds.
    """
    states = embedding.states
    T, m = states.shape[0] - 1, states.shape[1]
    bounds = np.zeros(len(candidates))
    Qx, _ = np.linalg.qr(states[:-1])
    Y = states[1:] - Qx @ (Qx.T @ states[1:])
    for j, basis in enumerate(candidates):
        sines = [term for term in basis.terms if isinstance(term, Sinusoid)]
        split = ForcingBasis(
            [term for term in basis.terms if not isinstance(term, Sinusoid)]
            + [Sinusoid(w.omega, ph, w.time_power) for w in sines for ph in (0.0, np.pi / 2)]
        )
        if m + split.size > T:
            continue
        try:
            split.check_horizon(T * embedding.dt)
        except OverflowUnsafe:
            continue
        F = split.evaluate(np.arange(T), embedding.dt)
        Q, _ = np.linalg.qr(F - Qx @ (Qx.T @ F))
        C = Q.T @ Y
        if len(sines) == 1:
            u, s, vt = np.linalg.svd(C[-2:])
            C[-2:] = s[0] * np.outer(u[:, 0], vt[0])
        bounds[j] = np.sqrt(np.mean((Y - Q @ C) ** 2))
    return np.where(np.isfinite(bounds), bounds, 0.0)


def _best_fit(embedding, candidates, ridge_lambda):
    """Fit the candidate bases with their phases fitted; return (basis, A, B,
    prediction, report) of the smallest one-step residual, the earliest on
    ties.  ``prediction`` is the winner's one-step state prediction
    Z [A B]^T, the product its residual was scored from.

    Candidates are fitted in ascending order of ``_lower_bounds`` (grid
    order on equal bounds) until the next bound exceeds the best exact RMS
    times 1 + ``BOUND_SLACK``.  With a ridge, and for a lone candidate,
    every bound is 0, so every candidate is fitted in grid order."""
    candidates = list(candidates)
    bounds = np.zeros(len(candidates))
    if ridge_lambda == 0.0 and len(candidates) > 1:
        bounds = _lower_bounds(embedding, candidates)
    best = None
    for j in np.argsort(bounds, kind="stable"):
        if best is not None and bounds[j] > best[0] * (1.0 + BOUND_SLACK):
            break
        candidate = _fit_phases(embedding, candidates[j])
        Z, X_next = build_regression(embedding, candidate)
        try:
            A, B, cond = solve_least_squares(Z, X_next, ridge_lambda)
        except RankDeficient:
            continue
        prediction = Z @ np.hstack([A, B]).T
        resid = X_next - prediction
        total = float(np.sqrt(np.mean(resid**2)))
        if best is None or (total, j) < best[:2]:
            best = (total, j, candidate, A, B, cond, prediction, resid)
    if best is None:
        raise RankDeficient("every candidate basis left the regression rank deficient")
    _, _, candidate, A, B, cond, prediction, resid = best
    report = FitReport(
        residual_rms=np.sqrt(np.mean(resid**2, axis=0)),
        condition_estimate=cond,
        ridge_lambda=ridge_lambda,
        basis_description=candidate.describe(),
    )
    return candidate, A, B, prediction, report


def fit_model(embedding, outputs, report):
    """Identify a full model from an embedding and a symmetry report.

    The basis family the symmetry vote recommends is refined over the
    default ``ParameterGrid`` (refinement replaces its placeholder
    parameters), and the best candidate is fitted by least squares with no
    ridge; the output map is fitted separately.  Both solves follow one
    rule: a solve that is rank deficient at ridge 0 (for the state
    regression, for every candidate) is retried with the ridge
    ``AUTO_RIDGE_FACTOR`` times the largest squared singular value of the
    states, with a warning, and the report's ``ridge_lambda`` holds the
    ridge of the winning state fit.  One-step and free-run errors are
    measured against ``outputs``, the one-step ones from the winning
    candidate's own prediction.  The free run starts from the first
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

    def solve(what, at_ridge):
        try:
            return at_ridge(0.0)
        except RankDeficient:
            ridge = AUTO_RIDGE_FACTOR * float(np.linalg.norm(embedding.states, 2)) ** 2
            warnings.append(f"{what} rank deficient; retried with ridge_lambda={ridge:.3e}")
            return at_ridge(ridge)

    candidates = list(_candidate_bases(report.recommended_basis, ParameterGrid(), embedding))
    basis, A, B, prediction, fit = solve(
        "regression", lambda ridge: _best_fit(embedding, candidates, ridge))
    C = solve("output map", lambda ridge: fit_output_map(embedding, outputs, ridge))
    model = StateSpaceModel(
        A=A,
        B=B,
        C=C,
        basis=basis,
        dt=embedding.dt,
        embedding_tau=embedding.tau,
        embedding_channel=embedding.source_channel,
    )
    fit.warnings = warnings
    _measure_errors(model, embedding, outputs, prediction, fit)
    return model, fit


def _measure_errors(model, embedding, outputs, prediction, fit):
    """Fill one-step and free-run output errors and the free-run states
    into the fit report; ``prediction`` is the one-step state prediction
    of ``_best_fit``, x(k+1) predicted from the data."""
    y = outputs.values
    rows = min(embedding.n_states, y.shape[0])
    y = y[:rows]
    # scaled by the deviation of all rows, not only of the predicted ones
    fit.one_step_nrmse = _nrmse(prediction[: rows - 1] @ model.C.T - y[1:rows], y)

    try:
        fit.free_run, y_free = dynamics.simulate(model, embedding.states[0], rows)
        fit.free_run_nrmse = _nrmse(y_free - y, y)
    except NonFiniteState as exc:
        fit.free_run_nrmse = np.full(y.shape[1], np.inf)
        fit.warnings.append(f"free run diverged: {exc}")
