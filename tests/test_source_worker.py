"""The pipeline's forked worker for the source-side validation metrics.

Each case runs ``chaosid pipeline`` in a fresh interpreter with one BLAS
thread, so the process decides for itself whether to fork: with two CPUs it
starts the worker, pinned to one CPU it computes everything in-process.  A
small runner script counts the forks, can swap in a failing worker body, and
after ``cli.main`` returns checks that no child process is left.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chaosid as ci
from chaosid import io

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="the worker needs Linux and two CPUs",
)

RUNNER = r"""
import json, os, pickle, sys, warnings
from chaosid import cli, errors

cfg, mode = sys.argv[1], sys.argv[2]
caller = os.getpid()
forks = []
real_fork, real_body = os.fork, cli._source_metrics


def fork():
    forks.append(os.getpid())
    return real_fork()


# the failing bodies fail in the worker only: the caller's fallback runs the
# same function in-process
def exit_1(embedding):
    if os.getpid() != caller:
        os._exit(1)
    return real_body(embedding)


def raise_error(embedding):
    if os.getpid() != caller:
        raise RuntimeError("worker body failed")
    return real_body(embedding)


def exit_after_first(embedding):
    parts = real_body(embedding)
    yield next(parts)
    if os.getpid() != caller:
        os._exit(1)
    yield next(parts)


def warning_after_first(embedding):
    parts = real_body(embedding)
    yield next(parts)
    warnings.warn("a warning from the worker body's second part", RuntimeWarning)
    yield next(parts)


def truncated_dump(result, fh):
    fh.write(pickle.dumps(result)[:100])
    fh.flush()
    raise OSError("the pipe broke")


def warning_body(embedding):
    warnings.warn("a warning from the worker body", RuntimeWarning)
    return real_body(embedding)


def symmetry_error(*args, **kwargs):
    raise errors.InsufficientData("no segments for the symmetry search")


os.fork = fork
if mode == "exit":
    cli._source_metrics = exit_1
elif mode == "raise":
    cli._source_metrics = raise_error
elif mode == "exit-second":
    cli._source_metrics = exit_after_first
elif mode == "warn-second":
    cli._source_metrics = warning_after_first
elif mode == "truncate":
    pickle.dump = truncated_dump
elif mode == "warn":
    cli._source_metrics = warning_body
elif mode == "symmetry-error":
    cli.ga_search = symmetry_error
rc = cli.main(["pipeline", cfg])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"rc": rc, "forks": len(forks), "child_left": left}))
"""

ARTIFACTS = ("embedding.json", "symmetry.json", "model.json", "fit.json")


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """2000 samples of Rossler x1, and two runs of 2000 samples of the Henon
    map in whose validation no scaling region is found: from (0.05, 0.05)
    for the source's correlation dimension, from (0, 0) for the model's."""
    root = tmp_path_factory.mktemp("worker")
    rossler = ci.rk4_integrate(ci.rossler(), [1.0, 1.0, 1.0], dt=0.05, steps=2000,
                               transient_skip=2000)
    io.write_series(root / "rossler.csv",
                    ci.TimeSeries(rossler.values[:, :1], dt=0.05, labels=("x1",)))
    for name, state in (("henon-source", (0.05, 0.05)), ("henon-model", (0.0, 0.0))):
        henon = []
        for _ in range(3000):
            state = (1.0 - 1.4 * state[0] ** 2 + state[1], 0.3 * state[0])
            henon.append(state[0])
        values = np.array(henon[1000:]).reshape(-1, 1)
        io.write_series(root / f"{name}.csv", ci.TimeSeries(values, dt=1.0, labels=("x",)))
    return root


def _run(root, series, mode, serial=False, blas_threads="1"):
    """Run ``RUNNER`` on ``series``.csv; returns (its result line, stdout
    before it, stderr, output directory)."""
    out = root / f"{series}-{mode}-{'serial' if serial else 'fork'}-{blas_threads}"
    cfg = out.with_suffix(".cfg")
    cfg.write_text(f"input.path = {root / series}.csv\noutput.dir = {out}\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ci.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas_threads)
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(cfg), mode], capture_output=True,
                          text=True, env=env, timeout=300,
                          preexec_fn=_one_cpu if serial else None)
    *printed, last = proc.stdout.splitlines()
    return json.loads(last), printed, proc.stderr, out


def _report(out):
    doc = io.load_json(out / "report.json")
    assert "source_metrics" in doc.pop("timings")
    doc["config"].pop("output.dir")
    return doc


@pytest.fixture(scope="module")
def serial(inputs):
    return _run(inputs, "rossler", "plain", serial=True)


def test_worker_and_serial_runs_write_identical_artifacts(inputs, serial):
    forked = _run(inputs, "rossler", "plain")
    assert forked[0] == {"rc": 0, "forks": 1, "child_left": False}
    assert serial[0] == {"rc": 0, "forks": 0, "child_left": False}
    for name in ARTIFACTS:
        assert (forked[3] / name).read_bytes() == (serial[3] / name).read_bytes(), name
    assert _report(forked[3]) == _report(serial[3])
    assert forked[2] == serial[2] == ""
    # the printed lines differ only in the paths of the output directories
    assert len(forked[1]) == len(serial[1])
    assert forked[1][:-1] == serial[1][:-1]


def test_no_worker_while_blas_runs_threads(inputs, serial):
    result, _, _, out = _run(inputs, "rossler", "plain", blas_threads="2")
    assert result == {"rc": 0, "forks": 0, "child_left": False}
    assert _report(out) == _report(serial[3])


@pytest.mark.parametrize("mode", ["exit", "raise", "truncate", "exit-second"])
def test_a_failed_worker_leaves_the_report_unchanged(inputs, serial, mode):
    result, printed, err, out = _run(inputs, "rossler", mode)
    assert result == {"rc": 0, "forks": 1, "child_left": False}
    assert err == ""
    assert _report(out) == _report(serial[3])
    assert printed[:-1] == serial[1][:-1]


@pytest.mark.parametrize("mode", ["warn", "warn-second"])
def test_a_worker_warning_reaches_the_caller_once_as_in_a_serial_run(inputs, serial, mode):
    forked = _run(inputs, "rossler", mode)
    alone = _run(inputs, "rossler", mode, serial=True)
    assert forked[0] == {"rc": 0, "forks": 1, "child_left": False}
    assert alone[0] == {"rc": 0, "forks": 0, "child_left": False}
    assert forked[2] == alone[2]
    assert forked[2].count("RuntimeWarning: a warning from the worker body") == 1
    assert _report(forked[3]) == _report(alone[3]) == _report(serial[3])


def test_a_symmetry_error_leaves_no_worker_behind(inputs):
    result, _, err, out = _run(inputs, "rossler", "symmetry-error")
    assert result == {"rc": 3, "forks": 1, "child_left": False}
    assert err == "error: no segments for the symmetry search\n"
    assert (out / "embedding.json").exists() and not (out / "report.json").exists()


@pytest.mark.parametrize("series", ["henon-source", "henon-model"])
def test_a_dimension_error_reads_as_in_a_serial_run(inputs, series):
    forked = _run(inputs, series, "plain")
    alone = _run(inputs, series, "plain", serial=True)
    assert forked[0] == {"rc": 3, "forks": 1, "child_left": False}
    assert alone[0] == {"rc": 3, "forks": 0, "child_left": False}
    assert forked[2] == alone[2]
    assert forked[2].startswith("error: no run of at least 4 radius bins")
    assert forked[1] == alone[1]
