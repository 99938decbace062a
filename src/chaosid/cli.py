"""Batch command line front end.

Commands mirror the library stages: ``embed`` turns a CSV time series into a
delay embedding with delay/dimension diagnostics, ``symmetry`` runs the
genetic transform search, ``identify`` fits the state-space model,
``simulate`` plays a model forward, ``validate`` compares a model against
reference data, ``pipeline`` chains everything from one config file, and
``fixtures`` lists or dumps the bundled example models.

Exit codes: 0 success, 2 input or configuration problem, 3 data or
precondition problem, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pickle
import signal
import sys
import time
from dataclasses import replace
from warnings import catch_warnings, simplefilter

import numpy as np

from . import __version__, io
from .dynamics import fixture_names, load_fixture, simulate, spectral_radius, verify_fixture_files
from .embedding import (
    FNN_M_MAX,
    TimeSeries,
    _get_channel,
    autocorrelation_delay,
    average_mutual_information,
    delay_embed,
    false_nearest_neighbors,
)
from .errors import ChaosidError, ConfigError, InputError, InvalidValue, NonFiniteState
from .identify import fit_model
from .symmetry import GaConfig, attractor_diameter, classify_symmetry, extract_segments, ga_search
from .validate import compare, correlation_dimension, dominant_period, largest_lyapunov

CONFIG_DEFAULTS = {
    "input.path": "",
    "input.channel": 0,
    "input.dt": 1.0,
    "embedding.tau": 0,
    "embedding.m": 0,
    "validate.enabled": True,
    "output.dir": ".",
}


def _overlay(config, args):
    """``config`` with the values of the config-key flags in ``args``."""
    return {**config, **{k: v for k, v in vars(args).items() if k in config}}


def _automatic(config, key):
    """``config[key]``, or None for the 0 that leaves it to be chosen
    automatically; a negative value is rejected."""
    value = config[key]
    if value < 0:
        raise InvalidValue(f"{key} must be >= 0 (0 chooses it automatically), got {value}")
    return value or None


def _artifact(config, name):
    """Path of artifact ``name`` in the output directory, which is created."""
    os.makedirs(config["output.dir"], exist_ok=True)
    return os.path.join(config["output.dir"], name)


# One function per stage, shared by ``pipeline`` and the stage subcommand:
# it takes the flat config dict and writes the stage's artifact.  Library
# calls go through this module's globals, which tracers may wrap.


def _embed(config):
    """Read the series, resolve tau and m and write ``embedding.json``.

    Only an unset (0) tau or m is scanned for; the scan of a pinned value
    comes back as None.  Returns (series, embedding, ami, fnn, notes).
    """
    tau, m = _automatic(config, "embedding.tau"), _automatic(config, "embedding.m")
    series = io.read_series(config["input.path"], dt=config["input.dt"])
    channel = config["input.channel"]
    # a constant channel fails here even with no scan to run
    _get_channel(series, channel)
    notes = []
    ami = fnn = None
    if tau is None:
        ami = average_mutual_information(series, channel=channel)
        tau = ami.lag
        notes.append(f"tau={tau} from first mutual-information minimum")
        notes.extend(ami.warnings)
    else:
        notes.append(f"tau={tau} pinned by flag")
    if m is None:
        fnn = false_nearest_neighbors(series, channel=channel, tau=tau)
        m = fnn.m
        notes.append(f"m={m} from false-nearest-neighbor threshold {fnn.threshold}")
        notes.extend(fnn.warnings)
    else:
        notes.append(f"m={m} pinned by flag")
    embedding = delay_embed(series, channel=channel, tau=tau, m=m)
    io.write_embedding(_artifact(config, "embedding.json"), embedding)
    return series, embedding, ami, fnn, notes


def _symmetry(config, embedding):
    """Search transforms between segments of 2*tau*m states, half a window
    apart, with the default ``GaConfig``; classify them, write
    ``symmetry.json`` and return the report."""
    window = 2 * embedding.tau * embedding.m
    ga_config = GaConfig()
    segments = extract_segments(embedding, window, window // 2)
    transforms = ga_search(segments, ga_config)
    # the search accepts against the diameter of the segments, not of all states
    diameter = attractor_diameter(segments)
    report = classify_symmetry(
        transforms, ga_config.residual_threshold * diameter, diameter=diameter
    )
    io.write_symmetry_report(_artifact(config, "symmetry.json"), report)
    return report


def _identify(config, embedding, report, outputs=None):
    """Fit the model the symmetry report selects; write ``model.json`` and
    ``fit.json``.  Returns (model, fit)."""
    if outputs is None:
        # pure Takens case: the embedding was built from the selected channel,
        # so its coordinate 0 is the observed series whatever the CSV column
        outputs = TimeSeries(embedding.states[:, 0], dt=embedding.dt)
    model, fit = fit_model(embedding, outputs, report)
    io.write_model(_artifact(config, "model.json"), model)
    io.write_json(_artifact(config, "fit.json"), io.fit_report_to_dict(fit))
    return model, fit


def _source_metrics(embedding):
    """Yield the embedding's correlation dimension, then its largest Lyapunov
    exponent with the seconds both took; ``_validate`` measures the model's
    dimension in between."""
    theiler = embedding.tau * embedding.m
    t0 = time.perf_counter()
    source_dim = correlation_dimension(embedding.states, theiler_window=theiler)
    seconds = time.perf_counter() - t0
    yield source_dim
    t0 = time.perf_counter()
    lyap = largest_lyapunov(embedding, mean_period=dominant_period(embedding.states[:, 0]))
    yield lyap, seconds + time.perf_counter() - t0


@contextlib.contextmanager
def _source_worker(embedding, start):
    """Yield an iterator over the two parts of ``_source_metrics(embedding)``.

    A forked worker computes them ahead of the caller if ``start`` is set,
    os.fork exists, two CPUs are ours and this process runs one thread.  It
    sends each part once it was computed with no exception or warning, stops
    at the first that was not, and leaves by ``os._exit``, so no inherited
    stdio is flushed; its last part counts only if it exited 0.  A part it
    did not send is computed here in its turn, so errors and warnings read
    as in a run without the worker.  Every way out of the block reaps it.
    """
    try:
        start = start and hasattr(os, "fork") and len(os.sched_getaffinity(0)) > 1
        start = start and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):
        start = False
    if not start:
        yield _source_metrics(embedding)
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            with open(write_fd, "wb") as fh, catch_warnings(record=True) as caught:
                simplefilter("always")
                for part in _source_metrics(embedding):
                    if caught:
                        os._exit(1)
                    pickle.dump(part, fh)
                    fh.flush()
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    reader = open(read_fd, "rb")
    status = []

    def receive():  # [the next part], or None once the worker stopped
        with contextlib.suppress(EOFError, pickle.UnpicklingError):
            return [pickle.load(reader)]

    def parts():
        first = receive()
        if first is None:
            yield from _source_metrics(embedding)
            return
        yield first[0]
        last = receive()
        status.append(os.waitpid(pid, 0)[1])
        # the worker computed the first part cleanly, so computing it again is silent
        yield last[0] if last and status == [0] else list(_source_metrics(embedding))[1]

    try:
        yield parts()
    finally:
        reader.close()
        if not status:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _validate(config, embedding, model, fit, source_parts):
    """Measure the attractors of the embedding and of the free run that
    ``fit_model`` made from its first state; returns the report's
    ``metrics`` block, the comparison's warnings and the seconds the
    embedding's metrics took.  Those are the two ``source_parts``, taken in
    the order the metrics are computed in."""
    if fit.free_run is None:
        raise NonFiniteState("the model's free run diverged; fit.json records the step")
    theiler = embedding.tau * embedding.m
    observed = embedding.states[:, 0]
    free_outputs = fit.free_run @ model.C.T
    source_dim = next(source_parts)
    model_dim = correlation_dimension(fit.free_run, theiler_window=theiler)
    lyap, seconds = next(source_parts)
    comparison = compare(
        TimeSeries(observed, dt=embedding.dt),
        TimeSeries(free_outputs[:, 0], dt=embedding.dt),
        with_dimension=False,
    )
    metrics = {
        "source_dimension": io.dimension_to_dict(source_dim),
        "model_dimension": io.dimension_to_dict(model_dim),
        "dimension_delta": abs(model_dim.dimension - source_dim.dimension),
        "source_lyapunov": io.lyapunov_to_dict(lyap),
        "free_run_comparison": io.comparison_to_dict(comparison),
    }
    return metrics, comparison.warnings, seconds


def cmd_embed(args):
    config = _overlay(CONFIG_DEFAULTS, args)
    series, embedding, ami, fnn, notes = _embed(config)
    # the diagnostics tables hold each scan up to its decision, pinned values included
    channel = config["input.channel"]
    acf = autocorrelation_delay(series, channel=channel)
    if ami is None:
        ami = average_mutual_information(series, channel=channel)
    if fnn is None:
        # a pinned embedding may be valid where a scan that never qualifies
        # is not: stop at the largest dimension that leaves two states
        tau = embedding.tau
        m_max = min(FNN_M_MAX, max(1, (len(series.values) - 2) // tau))
        fnn = false_nearest_neighbors(series, channel=channel, tau=tau, m_max=m_max)
    tables = {
        "acf": (("lag", "acf"), enumerate(acf.acf)),
        "ami": (("lag", "ami"), zip(ami.lags, ami.ami)),
        "fnn": (("m", "fraction"), zip(fnn.dims, fnn.fractions)),
    }
    for name, (header, rows) in tables.items():
        io.write_table(_artifact(config, f"diagnostics_{name}.csv"), header, list(rows))
    for note in notes:
        print(note)
    print(f"embedding: {embedding.states.shape[0]} states, m={embedding.m}, tau={embedding.tau}")
    print(f"wrote {os.path.join(config['output.dir'], 'embedding.json')}")
    return 0


def cmd_symmetry(args):
    config = _overlay(CONFIG_DEFAULTS, args)
    report = _symmetry(config, io.read_embedding(args.embedding))
    histogram = {cls.value: n for cls, n in report.class_histogram.items()}
    print(f"accepted transforms: {len(report.transforms)}")
    print(f"class histogram: {histogram}")
    dominant = report.dominant_class.value if report.dominant_class else "none"
    print(f"dominant class: {dominant}")
    print(f"recommended basis: {report.recommended_basis.describe()}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"wrote {os.path.join(config['output.dir'], 'symmetry.json')}")
    return 0


def cmd_identify(args):
    config = _overlay(CONFIG_DEFAULTS, args)
    embedding = io.read_embedding(args.embedding)
    report = io.read_symmetry_report(args.symmetry)
    outputs = io.read_series(args.series, dt=embedding.dt) if args.series else None
    model, fit = _identify(config, embedding, report, outputs)
    print(f"basis: {model.basis.describe()}")
    print(f"one-step NRMSE: {np.atleast_1d(fit.one_step_nrmse)}")
    print(f"free-run NRMSE: {np.atleast_1d(fit.free_run_nrmse)}")
    print(f"spectral radius: {spectral_radius(model.A):.6f}")
    print(f"condition estimate: {fit.condition_estimate:.3e}")
    for warning in fit.warnings:
        print(f"warning: {warning}")
    out = config["output.dir"]
    print(f"wrote {os.path.join(out, 'model.json')} and {os.path.join(out, 'fit.json')}")
    return 0


def _parse_x0(text, n):
    if not text:
        return None
    try:
        values = [float(c) for c in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --x0 value: {exc}") from exc
    if len(values) != n:
        raise InputError(f"--x0 has {len(values)} components, model needs {n}")
    if not np.isfinite(values).all():
        raise InputError(f"--x0 components must be finite, got {text!r}")
    return np.asarray(values)


def cmd_simulate(args):
    model = io.read_model(args.model)
    x0 = _parse_x0(args.x0, model.n)
    states, outputs = simulate(model, x0=x0, steps=args.steps)
    path = _artifact(vars(args), "trajectory.csv")
    header = [f"x{i}" for i in range(model.n)] + [f"y{i}" for i in range(model.q)]
    rows = np.hstack([states, outputs])
    rho = spectral_radius(model.A)
    io.write_table(path, header, rows, comments=(f"spectral_radius={rho!r}",))
    print(f"simulated {args.steps} steps, spectral radius {rho:.6f}")
    print(f"wrote {path}")
    return 0


def cmd_validate(args):
    dt = vars(args)["input.dt"]
    reference = io.read_series(args.reference, dt=dt)
    if args.modeled:
        modeled = io.read_series(args.modeled, dt=dt)
    elif args.model:
        model = io.read_model(args.model)
        x0 = _parse_x0(args.x0, model.n)
        steps = reference.values.shape[0]
        _, outputs = simulate(model, x0=x0, steps=steps)
        modeled = TimeSeries(outputs, dt=dt)
    else:
        raise InputError("validate needs either a model JSON or --modeled CSV")
    report = compare(reference, modeled, with_dimension=not args.no_dimension)
    path = _artifact(vars(args), "comparison.json")
    io.write_json(path, io.comparison_to_dict(report))
    print(f"NRMSE per channel: {np.atleast_1d(report.nrmse)}")
    print(f"histogram distance: {np.atleast_1d(report.histogram_distance)}")
    if report.dimension_delta is not None:
        print(f"correlation dimension delta: {report.dimension_delta:.4f}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"wrote {path}")
    return 0


def cmd_pipeline(args):
    config = _overlay(io.parse_config(args.config, CONFIG_DEFAULTS), args)
    if not config["input.path"]:
        raise ConfigError("config must set input.path")
    timings = {}
    warnings = []

    def timed(name, stage, *inputs):
        t0 = time.perf_counter()
        result = stage(config, *inputs)
        timings[name] = time.perf_counter() - t0
        return result

    _, embedding, _, _, notes = timed("embed", _embed)
    with _source_worker(embedding, config["validate.enabled"]) as source_parts:
        for note in notes:
            print(note)

        report = timed("symmetry", _symmetry, embedding)
        warnings.extend(report.warnings)
        dominant = report.dominant_class.value if report.dominant_class else "none"
        print(f"dominant class: {dominant}")

        model, fit = timed("identify", _identify, embedding, report)
        warnings.extend(fit.warnings)
        print(f"basis: {model.basis.describe()}")
        print(f"one-step NRMSE: {np.atleast_1d(fit.one_step_nrmse)}")

        metrics = None
        if config["validate.enabled"]:
            metrics, free_run_warnings, timings["source_metrics"] = timed(
                "validate", _validate, embedding, model, fit, source_parts)
            warnings.extend(free_run_warnings)
            print(f"correlation dimension: source {metrics['source_dimension']['dimension']:.3f}, "
                  f"model {metrics['model_dimension']['dimension']:.3f}")

    # the decision; the transforms are only in symmetry.json
    symmetry_doc = io.symmetry_report_to_dict(replace(report, transforms=[]))
    del symmetry_doc["transforms"]
    report_doc = {
        "schema": io.REPORT_SCHEMA,
        "version": __version__,
        "config": config,
        "embedding": {
            "tau": embedding.tau,
            "m": embedding.m,
            "n_states": embedding.states.shape[0],
            "notes": notes,
        },
        "symmetry": symmetry_doc,
        "symmetry_path": "symmetry.json",
        "model_path": "model.json",
        "fit": io.fit_report_to_dict(fit),
        "metrics": metrics,
        "warnings": warnings,
        "timings": timings,
    }
    path = _artifact(config, "report.json")
    io.write_json(path, report_doc)
    print(f"wrote {path}")
    return 0


def cmd_fixtures(args):
    if args.verify:
        mismatches = verify_fixture_files()
        if mismatches:
            raise InputError(
                "fixture checksum mismatch: " + ", ".join(sorted(mismatches))
            )
        print("fixture checksums verified")
        return 0
    if args.dump:
        fixture = load_fixture(args.dump)
        path = _artifact(vars(args), f"{fixture.label}_model.json")
        io.write_model(path, fixture.model)
        print(f"wrote {path}")
        return 0
    for name in fixture_names():
        fixture = load_fixture(name)
        model = fixture.model
        rho = spectral_radius(model.A)
        print(f"{name}: n={model.n} p={model.p} q={model.q} "
              f"spectral_radius={rho:.6f}")
        print(f"  {fixture.description}")
        print(f"  basis: {model.basis.describe()}")
    return 0


def _config_flag(parser, flag, key, **kwargs):
    """Add ``flag``, which sets config ``key`` and takes its type and default
    from ``CONFIG_DEFAULTS``."""
    default = CONFIG_DEFAULTS[key]
    parser.add_argument(flag, dest=key, type=type(default), **{"default": default, **kwargs})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chaosid",
        description="Reconstruct state-space models from chaotic time series.",
    )
    parser.add_argument("--version", action="version", version=f"chaosid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="delay-embed a CSV time series")
    p.add_argument("input.path", metavar="input", help="time series CSV, one column per channel")
    _config_flag(p, "--channel", "input.channel", help="observed channel index")
    _config_flag(p, "--dt", "input.dt", help="sample interval")
    _config_flag(p, "--tau", "embedding.tau", help="delay; 0 chooses by mutual information")
    _config_flag(p, "--m", "embedding.m", help="dimension; 0 chooses by false nearest neighbors")
    _config_flag(p, "--out-dir", "output.dir", help="output directory")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("symmetry", help="search segment-to-segment transforms")
    p.add_argument("embedding", help="embedding JSON from the embed command")
    _config_flag(p, "--out-dir", "output.dir")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("identify", help="fit the state-space model")
    p.add_argument("embedding", help="embedding JSON")
    p.add_argument("symmetry", help="symmetry report JSON")
    p.add_argument("--series", default="", help="optional output CSV; default uses embedding coordinate 0")
    _config_flag(p, "--out-dir", "output.dir")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("simulate", help="play a model forward")
    p.add_argument("model", help="model JSON")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--x0", default="", help="comma-separated initial state; default zeros")
    _config_flag(p, "--out-dir", "output.dir")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="compare a model against reference data")
    p.add_argument("reference", help="reference CSV")
    p.add_argument("model", nargs="?", default="", help="model JSON to free-run")
    p.add_argument("--modeled", default="", help="compare against this CSV instead of simulating")
    _config_flag(p, "--dt", "input.dt")
    p.add_argument("--x0", default="", help="initial state for the free run")
    p.add_argument("--no-dimension", action="store_true", help="skip correlation dimension")
    _config_flag(p, "--out-dir", "output.dir")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("config", help="flat key=value config file")
    _config_flag(p, "--out-dir", "output.dir", default=argparse.SUPPRESS,
                 help="override output.dir")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("fixtures", help="list or dump bundled example models")
    p.add_argument("--dump", default="", help="write this fixture as model JSON")
    p.add_argument("--verify", action="store_true", help="check bundled file checksums")
    _config_flag(p, "--out-dir", "output.dir")
    p.set_defaults(func=cmd_fixtures)

    return parser


def _join_x0(argv):
    """``argv`` with each ``--x0 VALUE`` as ``--x0=VALUE``: argparse takes a
    VALUE such as -1,0,0, not a plain number but led by '-', for a flag."""
    joined = []
    for token in argv:
        if joined and joined[-1] == "--x0":
            joined[-1] = "--x0=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_x0(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ChaosidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
