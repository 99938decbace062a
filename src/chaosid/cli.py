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
import os
import sys
import time

import numpy as np

from . import __version__, io
from .dynamics import fixture_names, load_fixture, simulate, spectral_radius, verify_fixture_files
from .embedding import (
    TimeSeries,
    _get_channel,
    _resolve_max_lag,
    autocorrelation_delay,
    average_mutual_information,
    delay_embed,
    false_nearest_neighbors,
)
from .errors import ChaosidError, ConfigError, InputError, InvalidValue
from .identify import FitOptions, fit_model
from .symmetry import GaConfig, attractor_diameter, classify_symmetry, extract_segments, ga_search
from .validate import compare, correlation_dimension, dominant_period, largest_lyapunov

CONFIG_DEFAULTS = {
    "input.path": "",
    "input.channel": 0,
    "input.dt": 1.0,
    "embedding.tau": 0,
    "embedding.m": 0,
    "embedding.max_lag": 0,
    "embedding.m_max": 8,
    "ga.population": 64,
    "ga.generations": 200,
    "ga.mutation_rate": 0.1,
    "ga.crossover_rate": 0.7,
    "ga.residual_threshold": 0.05,
    "ga.segment_window": 0,
    "ga.segment_stride": 0,
    "identify.ridge_lambda": 0.0,
    "identify.refine": True,
    "identify.free_run_steps": 0,
    "validate.enabled": True,
    "validate.r_count": 32,
    "validate.theiler": 0,
    "validate.max_points": 8000,
    "run.seed": 0,
    "output.dir": ".",
}


def _ensure_out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _choose_embedding(series, channel, tau, m, max_lag, m_max):
    """Resolve delay and dimension, scanning only for what is unset (0); the
    scan of a pinned value comes back as None."""
    # a constant channel and out-of-range limits fail here even with no scan to run
    n = _get_channel(series, channel).size
    max_lag = _resolve_max_lag(max_lag if max_lag > 0 else None, n)
    if m_max < 1:
        raise InvalidValue(f"m_max must be >= 1, got {m_max}")
    notes = []
    ami = fnn = None
    if tau <= 0:
        ami = average_mutual_information(series, channel=channel, max_lag=max_lag)
        tau = ami.lag
        notes.append(f"tau={tau} from first mutual-information minimum")
        notes.extend(ami.warnings)
    else:
        notes.append(f"tau={tau} pinned by flag")
    if m <= 0:
        fnn = false_nearest_neighbors(series, channel=channel, tau=tau, m_max=m_max)
        m = fnn.m
        notes.append(f"m={m} from false-nearest-neighbor threshold {fnn.threshold}")
        notes.extend(fnn.warnings)
    else:
        notes.append(f"m={m} pinned by flag")
    return tau, m, ami, fnn, notes


def cmd_embed(args):
    series = io.read_series(args.input, dt=args.dt)
    tau, m, ami, fnn, notes = _choose_embedding(
        series, args.channel, args.tau, args.m, args.max_lag, args.m_max
    )
    # the diagnostics tables hold every scan, pinned values included
    max_lag = args.max_lag if args.max_lag > 0 else None
    acf = autocorrelation_delay(series, channel=args.channel, max_lag=max_lag)
    if ami is None:
        ami = average_mutual_information(series, channel=args.channel, max_lag=max_lag)
    if fnn is None:
        fnn = false_nearest_neighbors(series, channel=args.channel, tau=tau, m_max=args.m_max)
    embedding = delay_embed(series, channel=args.channel, tau=tau, m=m)
    out = _ensure_out_dir(args.out_dir)
    io.write_embedding(os.path.join(out, "embedding.json"), embedding)
    io.write_table(
        os.path.join(out, "diagnostics_acf.csv"),
        ("lag", "acf"),
        list(enumerate(acf.acf)),
    )
    io.write_table(
        os.path.join(out, "diagnostics_ami.csv"),
        ("lag", "ami"),
        list(zip(ami.lags, ami.ami)),
    )
    io.write_table(
        os.path.join(out, "diagnostics_fnn.csv"),
        ("m", "fraction"),
        list(zip(fnn.dims, fnn.fractions)),
    )
    for note in notes:
        print(note)
    print(f"embedding: {embedding.states.shape[0]} states, m={m}, tau={tau}")
    print(f"wrote {os.path.join(out, 'embedding.json')}")
    return 0


def _run_symmetry(embedding, population, generations, mutation_rate, crossover_rate,
                  seed, threshold_fraction, window, stride):
    window = window if window > 0 else 2 * embedding.tau * embedding.m
    stride = stride if stride > 0 else max(window // 2, 1)
    config = GaConfig(
        population=population,
        generations=generations,
        mutation_rate=mutation_rate,
        crossover_rate=crossover_rate,
        seed=seed,
        residual_threshold=threshold_fraction,
        segment_window=window,
        segment_stride=stride,
    )
    segments = extract_segments(embedding, window, stride)
    transforms = ga_search(segments, config)
    diameter = attractor_diameter(embedding.states)
    report = classify_symmetry(
        transforms, threshold_fraction * diameter, diameter=diameter
    )
    return report, config


def cmd_symmetry(args):
    embedding = io.read_embedding(args.embedding)
    report, config = _run_symmetry(
        embedding,
        args.population,
        args.generations,
        args.mutation_rate,
        args.crossover_rate,
        args.seed,
        args.threshold,
        args.window,
        args.stride,
    )
    out = _ensure_out_dir(args.out_dir)
    path = os.path.join(out, "symmetry.json")
    io.write_symmetry_report(path, report)
    histogram = {cls.value: n for cls, n in report.class_histogram.items()}
    print(f"accepted transforms: {len(report.transforms)}")
    print(f"class histogram: {histogram}")
    dominant = report.dominant_class.value if report.dominant_class else "none"
    print(f"dominant class: {dominant}")
    print(f"recommended basis: {report.recommended_basis.describe()}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"wrote {path}")
    return 0


def cmd_identify(args):
    embedding = io.read_embedding(args.embedding)
    report = io.read_symmetry_report(args.symmetry)
    if args.series:
        outputs = io.read_series(args.series, dt=embedding.dt)
    else:
        # pure Takens case: the observed channel is embedding coordinate 0
        outputs = TimeSeries(embedding.states[:, 0], dt=embedding.dt)
    options = FitOptions(
        ridge_lambda=args.ridge,
        refine=not args.no_refine,
        free_run_steps=args.free_run_steps if args.free_run_steps > 0 else None,
        segment_window=args.window if args.window > 0 else None,
    )
    model, fit = fit_model(embedding, outputs, report, options)
    out = _ensure_out_dir(args.out_dir)
    model_path = os.path.join(out, "model.json")
    fit_path = os.path.join(out, "fit.json")
    io.write_model(model_path, model)
    io.write_json(fit_path, io.fit_report_to_dict(fit))
    print(f"basis: {model.basis.describe()}")
    print(f"one-step NRMSE: {np.atleast_1d(fit.one_step_nrmse)}")
    print(f"free-run NRMSE: {np.atleast_1d(fit.free_run_nrmse)}")
    print(f"spectral radius: {spectral_radius(model.A):.6f}")
    print(f"condition estimate: {fit.condition_estimate:.3e}")
    for warning in fit.warnings:
        print(f"warning: {warning}")
    print(f"wrote {model_path} and {fit_path}")
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
    return np.asarray(values)


def cmd_simulate(args):
    model = io.read_model(args.model)
    x0 = _parse_x0(args.x0, model.n)
    states, outputs = simulate(model, x0=x0, steps=args.steps)
    out = _ensure_out_dir(args.out_dir)
    path = os.path.join(out, "trajectory.csv")
    header = [f"x{i}" for i in range(model.n)] + [f"y{i}" for i in range(model.q)]
    rows = np.hstack([states, outputs])
    rho = spectral_radius(model.A)
    io.write_table(path, header, rows, comments=(f"spectral_radius={rho!r}",))
    print(f"simulated {args.steps} steps, spectral radius {rho:.6f}")
    print(f"wrote {path}")
    return 0


def cmd_validate(args):
    reference = io.read_series(args.reference, dt=args.dt)
    if args.modeled:
        modeled = io.read_series(args.modeled, dt=args.dt)
    elif args.model:
        model = io.read_model(args.model)
        x0 = _parse_x0(args.x0, model.n)
        steps = reference.values.shape[0]
        _, outputs = simulate(model, x0=x0, steps=steps)
        modeled = TimeSeries(outputs, dt=args.dt)
    else:
        raise InputError("validate needs either a model JSON or --modeled CSV")
    report = compare(reference, modeled, with_dimension=not args.no_dimension)
    out = _ensure_out_dir(args.out_dir)
    path = os.path.join(out, "comparison.json")
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
    config = io.parse_config(args.config, CONFIG_DEFAULTS)
    if args.seed is not None:
        config["run.seed"] = args.seed
    if args.out_dir is not None:
        config["output.dir"] = args.out_dir
    if not config["input.path"]:
        raise ConfigError("config must set input.path")
    out = _ensure_out_dir(config["output.dir"])
    timings = {}
    warnings = []

    t0 = time.perf_counter()
    series = io.read_series(config["input.path"], dt=config["input.dt"])
    channel = config["input.channel"]
    tau, m, _, _, notes = _choose_embedding(
        series,
        channel,
        config["embedding.tau"],
        config["embedding.m"],
        config["embedding.max_lag"],
        config["embedding.m_max"],
    )
    embedding = delay_embed(series, channel=channel, tau=tau, m=m)
    io.write_embedding(os.path.join(out, "embedding.json"), embedding)
    timings["embed"] = time.perf_counter() - t0
    for note in notes:
        print(note)

    t0 = time.perf_counter()
    report, ga_config = _run_symmetry(
        embedding,
        config["ga.population"],
        config["ga.generations"],
        config["ga.mutation_rate"],
        config["ga.crossover_rate"],
        config["run.seed"],
        config["ga.residual_threshold"],
        config["ga.segment_window"],
        config["ga.segment_stride"],
    )
    io.write_symmetry_report(os.path.join(out, "symmetry.json"), report)
    warnings.extend(report.warnings)
    timings["symmetry"] = time.perf_counter() - t0
    dominant = report.dominant_class.value if report.dominant_class else "none"
    print(f"dominant class: {dominant}")

    t0 = time.perf_counter()
    # the embedding was built from the selected channel, so its coordinate 0
    # is the observed series regardless of the CSV column index
    outputs = TimeSeries(embedding.states[:, 0], dt=embedding.dt)
    options = FitOptions(
        ridge_lambda=config["identify.ridge_lambda"],
        refine=config["identify.refine"],
        free_run_steps=config["identify.free_run_steps"] or None,
        segment_window=ga_config.segment_window,
    )
    model, fit = fit_model(embedding, outputs, report, options)
    io.write_model(os.path.join(out, "model.json"), model)
    io.write_json(os.path.join(out, "fit.json"), io.fit_report_to_dict(fit))
    warnings.extend(fit.warnings)
    timings["identify"] = time.perf_counter() - t0
    print(f"basis: {model.basis.describe()}")
    print(f"one-step NRMSE: {np.atleast_1d(fit.one_step_nrmse)}")

    metrics = None
    if config["validate.enabled"]:
        t0 = time.perf_counter()
        theiler = config["validate.theiler"] or tau * m
        r_count = config["validate.r_count"]
        max_points = config["validate.max_points"]
        steps = embedding.states.shape[0]
        free_states, free_outputs = simulate(model, x0=embedding.states[0], steps=steps)
        source_dim = correlation_dimension(
            embedding.states, r_count=r_count, theiler_window=theiler,
            max_points=max_points,
        )
        model_dim = correlation_dimension(
            free_states, r_count=r_count, theiler_window=theiler,
            max_points=max_points,
        )
        period = dominant_period(embedding.states[:, 0])
        lyap = largest_lyapunov(embedding, dt=embedding.dt, mean_period=period)
        reference = TimeSeries(embedding.states[:steps, 0], dt=embedding.dt)
        comparison = compare(
            reference, TimeSeries(free_outputs[:, 0], dt=embedding.dt),
            with_dimension=False,
        )
        warnings.extend(comparison.warnings)
        metrics = {
            "source_dimension": io.dimension_to_dict(source_dim),
            "model_dimension": io.dimension_to_dict(model_dim),
            "dimension_delta": abs(model_dim.dimension - source_dim.dimension),
            "source_lyapunov": io.lyapunov_to_dict(lyap),
            "free_run_comparison": io.comparison_to_dict(comparison),
        }
        timings["validate"] = time.perf_counter() - t0
        print(f"correlation dimension: source {source_dim.dimension:.3f}, "
              f"model {model_dim.dimension:.3f}")

    report_doc = {
        "schema": io.REPORT_SCHEMA,
        "version": __version__,
        "config": config,
        "embedding": {
            "tau": tau,
            "m": m,
            "n_states": embedding.states.shape[0],
            "notes": notes,
        },
        "symmetry": io.symmetry_report_to_dict(report),
        "model_path": "model.json",
        "fit": io.fit_report_to_dict(fit),
        "metrics": metrics,
        "warnings": warnings,
        "timings": timings,
    }
    path = os.path.join(out, "report.json")
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
        out = _ensure_out_dir(args.out_dir)
        path = os.path.join(out, f"{fixture.label}_model.json")
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chaosid",
        description="Reconstruct state-space models from chaotic time series.",
    )
    parser.add_argument("--version", action="version", version=f"chaosid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="delay-embed a CSV time series")
    p.add_argument("input", help="time series CSV, one column per channel")
    p.add_argument("--channel", type=int, default=0, help="observed channel index")
    p.add_argument("--dt", type=float, default=1.0, help="sample interval")
    p.add_argument("--tau", type=int, default=0, help="delay; 0 chooses by mutual information")
    p.add_argument("--m", type=int, default=0, help="dimension; 0 chooses by false nearest neighbors")
    p.add_argument("--max-lag", type=int, default=0, help="largest lag scanned; 0 for automatic")
    p.add_argument("--m-max", type=int, default=8, help="largest dimension scanned")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("symmetry", help="search segment-to-segment transforms")
    p.add_argument("embedding", help="embedding JSON from the embed command")
    p.add_argument("--population", type=int, default=64)
    p.add_argument("--generations", type=int, default=200)
    p.add_argument("--mutation-rate", type=float, default=0.1)
    p.add_argument("--crossover-rate", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.05,
                   help="acceptance residual as a fraction of attractor diameter")
    p.add_argument("--window", type=int, default=0, help="segment length; 0 for 2*tau*m")
    p.add_argument("--stride", type=int, default=0, help="segment stride; 0 for window/2")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("identify", help="fit the state-space model")
    p.add_argument("embedding", help="embedding JSON")
    p.add_argument("symmetry", help="symmetry report JSON")
    p.add_argument("--series", default="", help="optional output CSV; default uses embedding coordinate 0")
    p.add_argument("--ridge", type=float, default=0.0, help="ridge regularization weight")
    p.add_argument("--no-refine", action="store_true", help="skip basis-parameter grid search")
    p.add_argument("--free-run-steps", type=int, default=0, help="free-run horizon; 0 for embedding length")
    p.add_argument("--window", type=int, default=0, help="segment window used for seeding; 0 for 2*tau*m")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("simulate", help="play a model forward")
    p.add_argument("model", help="model JSON")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--x0", default="", help="comma-separated initial state; default zeros")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="compare a model against reference data")
    p.add_argument("reference", help="reference CSV")
    p.add_argument("model", nargs="?", default="", help="model JSON to free-run")
    p.add_argument("--modeled", default="", help="compare against this CSV instead of simulating")
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--x0", default="", help="initial state for the free run")
    p.add_argument("--no-dimension", action="store_true", help="skip correlation dimension")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override run.seed")
    p.add_argument("--out-dir", default=None, help="override output.dir")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("fixtures", help="list or dump bundled example models")
    p.add_argument("--dump", default="", help="write this fixture as model JSON")
    p.add_argument("--verify", action="store_true", help="check bundled file checksums")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChaosidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
