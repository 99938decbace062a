"""Shared fixtures: the reference chaotic series is expensive, so it is
built once per session, the acceptance tests register one summary line
per criterion that is printed after the run, the exhaustive refinement
loop serves as the oracle of the bounded one, and plain json as the
oracle of the canonical JSON rendering."""

import json

import numpy as np
import pytest

import chaosid as ci
from chaosid import io

ACCEPTANCE_LINES = {}


def record_criterion(number, passed, detail):
    ACCEPTANCE_LINES[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_LINES):
        passed, detail = ACCEPTANCE_LINES[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {detail}")


@pytest.fixture(scope="session")
def rossler_series():
    """x1 of the reference chaotic system: dt=0.05, 20000 samples after a
    2000-step transient."""
    trajectory = ci.rk4_integrate(
        ci.rossler(), np.array([1.0, 1.0, 1.0]), dt=0.05,
        steps=20000, transient_skip=2000,
    )
    return ci.TimeSeries(trajectory.channel(0), dt=0.05, labels=("x1",))


@pytest.fixture(scope="session")
def rossler_embedding(rossler_series):
    tau = ci.average_mutual_information(rossler_series).lag
    m = ci.false_nearest_neighbors(rossler_series, tau=tau).m
    return ci.delay_embed(rossler_series, tau=tau, m=m)


def json_oracle(value):
    """The plain json rendering, which renders every float in Python."""
    return json.dumps(value, sort_keys=True, indent=1, default=io._builtin)


def exhaustive_best_fit(embedding, candidates, ridge_lambda):
    """The refinement loop before lower bounds: every candidate is fitted in
    grid order, rank-deficient ones are skipped, and the smallest one-step
    RMS wins, the earliest on ties.  Returns what ``identify._best_fit``
    returns."""
    from chaosid import identify

    best = None
    for candidate in candidates:
        candidate = identify._fit_phases(embedding, candidate)
        Z, X_next = identify.build_regression(embedding, candidate)
        try:
            A, B, cond = identify.solve_least_squares(Z, X_next, ridge_lambda)
        except ci.RankDeficient:
            continue
        prediction = Z @ np.hstack([A, B]).T
        resid = X_next - prediction
        total = float(np.sqrt(np.mean(resid**2)))
        if best is None or total < best[0]:
            best = (total, candidate, A, B, cond, prediction, resid)
    if best is None:
        raise ci.RankDeficient("every candidate basis left the regression rank deficient")
    _, candidate, A, B, cond, prediction, resid = best
    report = ci.FitReport(
        residual_rms=np.sqrt(np.mean(resid**2, axis=0)),
        condition_estimate=cond,
        ridge_lambda=ridge_lambda,
        basis_description=candidate.describe(),
    )
    return candidate, A, B, prediction, report
