"""Benchmark of ``chaosid pipeline`` on generated inputs.

    python3 perfbench/run.py --workload rossler-ref --seed 0 --seconds 10 --trace 0

One process, one caller: the pipelines of a workload run one after another
through ``chaosid.cli.main(["pipeline", cfg])``, the function behind the
``chaosid`` console script.  A run makes passes over the workload's series
until ``--seconds`` have elapsed, and at least two; every pass after the
first is an identical rerun whose reports must match the first pass outside
``timings``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the first pass runs
with span recorders around every layer call (see layers.py), the reruns
without, and the object carries the per-layer metrics instead.  The exit
code is 0 only when a result was printed.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as _io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3  # more would cost rossler-ref runs the time budget's margin
TAIL_BEYOND = 10  # samples a tail percentile must leave above it

# span names reported by the traced run, by layer
SPANS = (
    "embedding.autocorrelation_delay",
    "embedding.average_mutual_information",
    "embedding.false_nearest_neighbors",
    "embedding.delay_embed",
    "symmetry.extract_segments",
    "symmetry.ga_search",
    "symmetry.fit_transform",
    "symmetry.attractor_diameter",
    "symmetry.classify_symmetry",
    "symmetry.seed_basis_parameters",
    "identify.fit_model",
    "identify.refine_basis",
    "identify.build_regression",
    "identify.solve_least_squares",
    "identify.fit_output_map",
    "dynamics.simulate",
    "dynamics.rk4_integrate",
    "validate.correlation_dimension",
    "validate.largest_lyapunov",
    "validate.dominant_period",
    "validate.compare",
    "io.read_series",
    "io.write_json",
    "io.write_series",
    "cli.main",
)
COUNTS = {
    "embedding.false_nearest_neighbors.points": "count",
    "embedding.average_mutual_information.lags": "count",
    "validate.largest_lyapunov.points": "count",
    "validate.correlation_dimension.points": "count",
    "symmetry.accepted": "count",
    "identify.rank_deficient": "count",
    "dynamics.simulate.steps": "count",
    "io.bytes_written": "B",
}

# (tau, m, dominant class, basis families) recorded at the seed commit.
# Series whose input does not depend on the seed are checked at every seed,
# the others at seed 0.
EXPECTED = {
    "rossler-ref": {"rossler": (26, 3, "rotation", "sinusoid")},
    "rossler-pinned": {"rossler": (26, 3, "rotation", "sinusoid")},
    "short-mix": {
        "rossler-0": (20, 2, "scaling", "exponential"),
        "quasi-0": (13, 3, None, "polynomial"),
        "quasi-1": (13, 3, None, "polynomial"),
        "quasi-2": (12, 3, "rotation", "sinusoid"),
        "quasi-3": (13, 3, None, "polynomial"),
        "damped-0": (16, 2, "rotation", "sinusoid"),
        "damped-1": (16, 2, "rotation", "sinusoid"),
        "damped-2": (15, 2, "rotation", "sinusoid"),
        "damped-3": (16, 2, "rotation", "sinusoid"),
        "damped-4": (15, 2, "rotation", "sinusoid"),
        "damped-5": (14, 2, "rotation", "sinusoid"),
        "damped-6": (15, 2, "rotation", "sinusoid"),
    },
}


def per_layer_units():
    units = {}
    for name in SPANS:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
        if name != "cli.main":
            units[f"{name}.self_s"] = "s"
    units["cli.self.s"] = "s"
    units.update(COUNTS)
    units["symmetry.accept_ratio"] = "ratio"
    for layer in layers.LAYERS:
        units[f"{layer}.share"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


END_TO_END_UNITS = {
    "pipeline_s": "s",
    "pipeline_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "one_step_nrmse": "ratio",
    "holdout_nrmse": "ratio",
    "dimension_delta": "dim",
    "lyapunov_err": "1/time",
}


class Failed(Exception):
    """A pipeline run counted as failed; ``check`` marks a wrong output."""

    def __init__(self, reason, check=False):
        super().__init__(reason)
        self.check = check


# ---------------------------------------------------------------------------
# set-up


def run_setup(workload, seed, out, trace):
    """One fresh interpreter that imports chaosid and writes the inputs."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--out", out] + (["--trace"] if trace else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


def same_inputs(dirs, manifest):
    """Every set-up must have written byte-identical series."""
    for spec in manifest:
        for suffix in (".csv", "_tail.csv"):
            name = spec["id"] + suffix
            blobs = set()
            for d in dirs:
                with open(os.path.join(d, name), "rb") as fh:
                    blobs.add(fh.read())
            if len(blobs) != 1:
                return False
    return True


def criterion_prefix_ok(chaosid, spec, work):
    """The pipeline record is byte-identical to the criterion-1 input."""
    series = chaosid.rk4_integrate(chaosid.rossler(), [1.0, 1.0, 1.0], dt=workloads.ROSSLER_DT,
                                   steps=workloads.ROSSLER_N,
                                   transient_skip=workloads.ROSSLER_TRANSIENT)
    path = os.path.join(work, "criterion1_x1.csv")
    chaosid.io.write_series(path, chaosid.TimeSeries(series.values[:, :1], dt=series.dt,
                                                     labels=("s",)))
    with open(path, "rb") as a, open(spec["csv"], "rb") as b:
        return a.read() == b.read()


# ---------------------------------------------------------------------------
# one pipeline run and its output checks


def report_path(cfg):
    return os.path.join(cfg[: -len(".cfg")] + "_out", "report.json")


def run_pipeline(cli, cfg, recorder=None):
    """Run one pipeline; returns (seconds, report document)."""
    path = report_path(cfg)
    if os.path.exists(path):
        os.remove(path)
    sink = _io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if recorder is None:
                rc = cli.main(["pipeline", cfg])
            else:
                rc = recorder.call("cli.main", cli.main, ["pipeline", cfg])
    except Exception as exc:  # counted as a failure, the benchmark goes on
        return time.perf_counter() - start, Failed(f"raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if rc != 0:
        last = sink.getvalue().strip().splitlines()[-1:] or [""]
        return elapsed, Failed(f"exit {rc}: {last[0]}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return elapsed, Failed(f"report does not parse: {exc}", check=True)
    nrmse = doc.get("fit", {}).get("one_step_nrmse") or [float("nan")]
    if not all(isinstance(v, (int, float)) and abs(v) < float("inf") for v in nrmse):
        return elapsed, Failed(f"non-finite one-step NRMSE {nrmse}", check=True)
    return elapsed, doc


def without_timings(doc):
    return json.dumps({k: v for k, v in doc.items() if k != "timings"}, sort_keys=True)


def basis_families(model):
    return "+".join(sorted({type(t).__name__.lower() for t in model.basis.terms}))


def one_step_nrmse(model, s, k_lo, k_hi, scale):
    """One-step output NRMSE of ``model`` on transitions k -> k+1, k_lo <= k < k_hi.

    The state is the delay vector (s[k], s[k+tau], ..., s[k+(m-1)tau]) and the
    forcing is evaluated at t = k * dt, as in identification.
    """
    import numpy as np

    tau, m = model.embedding_tau, model.n
    k = np.arange(k_lo, k_hi)
    states = s[k[:, None] + tau * np.arange(m)[None, :]]
    phi = model.basis.evaluate(k, model.dt)
    pred = (states @ model.A.T + phi @ model.B.T) @ model.C.T
    err = pred - s[k + 1][:, None]
    return float(np.max(np.sqrt(np.mean(err**2, axis=0)) / scale))


def score(chaosid, spec, doc):
    """Held-out NRMSE plus the in-sample NRMSE recomputed from model.json."""
    import numpy as np

    model = chaosid.io.read_model(os.path.join(os.path.dirname(report_path(spec["configs"]["run"])),
                                               "model.json"))
    head = chaosid.io.read_series(spec["csv"]).values[:, 0]
    tail = chaosid.io.read_series(spec["tail_csv"]).values[:, 0]
    s = np.concatenate([head, tail])
    n = head.size
    reach = (model.n - 1) * model.embedding_tau
    rows = n - reach  # states the pipeline embedded
    in_sample = one_step_nrmse(model, s, 0, rows - 1, np.std(s[:rows]))
    # transitions whose states hold only samples the pipeline never saw
    k_hi = s.size - reach - 1
    holdout = one_step_nrmse(model, s, n, k_hi, np.std(s[n + 1:k_hi + 1]))
    reported = max(doc["fit"]["one_step_nrmse"])
    if not abs(in_sample - reported) <= 1e-8 * max(abs(reported), 1e-300):
        raise Failed(f"model.json gives one-step NRMSE {in_sample!r}, report says {reported!r}",
                     check=True)
    return holdout, basis_families(model)


def expectation_errors(workload, seed, spec, doc, families):
    expected = EXPECTED.get(workload, {}).get(spec["id"])
    if expected is None or (seed != 0 and spec["seeded"]):
        return []
    found = (doc["embedding"]["tau"], doc["embedding"]["m"],
             doc["symmetry"]["dominant_class"], families)
    return [] if found == expected else [f"{spec['id']}: expected {expected}, got {found}"]


# ---------------------------------------------------------------------------
# aggregation


def tail_percentile(values):
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile.

    With TAIL_BEYOND samples or fewer no percentile qualifies, and the maximum
    is reported as percentile 100.  Below 2 * TAIL_BEYOND samples the
    qualifying percentile lies below the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / n


def layer_metrics(spans, counts, setup_spans):
    """Duration, calls and self time per span name, plus counts and shares."""
    offset = len(spans)
    all_spans = spans + [[name, start, end, parent + offset if parent >= 0 else -1, series]
                         for name, start, end, parent, series in setup_spans]
    child = [0.0] * len(all_spans)
    for i, (_, start, end, parent, _) in enumerate(all_spans):
        if parent >= 0:
            child[parent] += end - start
    out = {"cli.self.s": 0.0}
    for name in SPANS:
        out[f"{name}.s"] = 0.0
        out[f"{name}.calls"] = 0
        if name != "cli.main":
            out[f"{name}.self_s"] = 0.0
    layer_self = {layer: 0.0 for layer in layers.LAYERS}
    for i, (name, start, end, parent, _) in enumerate(all_spans):
        own = end - start - child[i]
        p = parent
        while p >= 0 and all_spans[p][0] != name:
            p = all_spans[p][3]
        if p < 0:  # outermost span of this name
            out[f"{name}.s"] += end - start
            out[f"{name}.calls"] += 1
        if name == "cli.main":
            out["cli.self.s"] += own
        else:
            out[f"{name}.self_s"] += own
        if i < len(spans):
            layer_self[name.split(".")[0]] += own
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    calls = out["symmetry.fit_transform.calls"]
    out["symmetry.accept_ratio"] = out["symmetry.accepted"] / calls if calls else 0.0
    total = out["cli.main.s"] or 1.0
    for layer, own in layer_self.items():
        out[f"{layer}.share"] = own / total
    return out


def provenance(seed, samples, workload, trace):
    import numpy as np

    def cache_sizes():
        sizes = {}
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for entry in sorted(os.listdir(base)):
                with open(os.path.join(base, entry, "level")) as lv, \
                        open(os.path.join(base, entry, "type")) as ty, \
                        open(os.path.join(base, entry, "size")) as sz:
                    sizes[f"L{lv.read().strip()}-{ty.read().strip().lower()}"] = sz.read().strip()
        except OSError:
            pass
        return sizes or None

    # a checkout without .git has no revision; never report an enclosing repository's
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(layers.ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=layers.ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = os.path.join(layers.ROOT, "src", "chaosid")
    files = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        files += [os.path.relpath(os.path.join(dirpath, f), src) for f in filenames]
    digest = hashlib.sha256()
    for rel in sorted(files):
        with open(os.path.join(src, rel), "rb") as fh:
            digest.update(rel.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        "machine": platform.machine(),
        "samples": samples,
    }


# ---------------------------------------------------------------------------


def run_passes(cli, jobs, seconds, recorder):
    """Passes over ``jobs`` until ``seconds`` have elapsed, and at least two.

    Every pass after the first is an identical rerun whose reports must equal
    the first pass outside ``timings``.  With a recorder, the first pass is
    traced and the reruns are not.

    Returns (untraced seconds per key, traced seconds per key, first-pass
    reports, failures as (reason, is_output_check), passes).
    """
    timings, traced, first, failures = {}, {}, {}, []
    start = time.perf_counter()
    passes = 0
    while passes < 2 or time.perf_counter() - start < seconds:
        use = recorder if passes == 0 else None
        if recorder is not None and passes == 1:
            recorder.restore()
        for key, cfg in jobs:
            if use is not None:
                use.series = key
            elapsed, doc = run_pipeline(cli, cfg, use)
            (traced if use else timings).setdefault(key, []).append(elapsed)
            if isinstance(doc, Failed):
                failures.append((f"{key}: {doc}", doc.check))
            elif passes == 0:
                first[key] = doc
            elif key not in first:
                failures.append((f"{key}: first run failed, rerun succeeded", True))
            elif without_timings(doc) != without_timings(first[key]):
                failures.append((f"{key}: report differs from an identical rerun "
                                 "outside timings", True))
        passes += 1
    return timings, traced, first, failures, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    traced = args.trace == 1

    with open(os.path.join(layers.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    want = {m["name"]: m["unit"] for m in declared["per_layer" if traced else "end_to_end"]}
    units = per_layer_units() if traced else END_TO_END_UNITS
    if want != units:
        raise SystemExit("BENCHMARK.json metrics differ from the ones this script reports")

    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # set-up, each time in a fresh interpreter
    dirs = [os.path.join(work, f"setup-{i}") for i in range(1 if traced else SETUP_REPEATS)]
    setups = [run_setup(args.workload, args.seed, d, traced) for d in dirs]
    setup_times = [t for t, _ in setups]
    with open(os.path.join(dirs[0], "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)

    chaosid = layers.import_chaosid()
    from chaosid import cli

    problems = []
    if not same_inputs(dirs, manifest):
        problems.append("set-up runs wrote different inputs")
    for spec in manifest:
        if spec["family"] == "rossler-ref" and not criterion_prefix_ok(chaosid, spec, work):
            problems.append("pipeline record differs from the criterion-1 input")
    # accuracy comes from the anchors, whose inputs and outputs do not depend
    # on the seed, and in short-edge from every series
    scored = [spec for spec in manifest if spec["anchor"]] or manifest
    lyap_ref = {spec["id"]: workloads.lyapunov_reference(spec) for spec in scored}

    recorder = None
    if traced:
        recorder = layers.Recorder()
        layers.install(recorder)
    jobs = [(spec["id"], spec["configs"]["run"]) for spec in manifest]
    by_series, traced_by_series, first, failures, passes = run_passes(
        cli, jobs, args.seconds, recorder)
    timings = [t for times in by_series.values() for t in times]
    attempted = len(timings) + sum(len(times) for times in traced_by_series.values())

    # untimed: the unpinned twin of rossler-pinned, then scoring of first-pass outputs
    if args.workload == "rossler-pinned":
        _, ref = run_pipeline(cli, manifest[0]["configs"]["ref"])
        attempted += 1
        if isinstance(ref, Failed):
            failures.append((f"unpinned run: {ref}", ref.check))
        elif "rossler" in first:
            for block in ("symmetry", "fit", "metrics"):
                if json.dumps(first["rossler"][block]) != json.dumps(ref[block]):
                    failures.append((f"pinned run's {block} block differs from the "
                                     "unpinned run", True))
    accuracy = {"one_step": [], "holdout": [], "dimension": [], "lyapunov": []}
    for spec in manifest:
        doc = first.get(spec["id"])
        if doc is None:
            continue
        try:
            holdout, families = score(chaosid, spec, doc)
        except Failed as exc:
            failures.append((f"{spec['id']}: {exc}", exc.check))
            continue
        problems += expectation_errors(args.workload, args.seed, spec, doc, families)
        if spec["id"] in lyap_ref:
            accuracy["one_step"].append(max(doc["fit"]["one_step_nrmse"]))
            accuracy["holdout"].append(holdout)
            accuracy["dimension"].append(doc["metrics"]["dimension_delta"])
            accuracy["lyapunov"].append(
                abs(doc["metrics"]["source_lyapunov"]["exponent"] - lyap_ref[spec["id"]]))
    problems += [reason for reason, check in failures if check]
    failed = len(failures)

    samples = {"pipeline_s": len(timings), "setup_s": len(setup_times), "passes": passes,
               "accuracy_runs": len(accuracy["one_step"]), "series_seconds": by_series}
    if traced:
        metrics = layer_metrics(recorder.spans, recorder.counts, setups[0][1]["spans"])
        # traced minus untraced time of the same series
        metrics["trace.overhead_s"] = statistics.median(
            traced_by_series[key][0] - statistics.median(by_series[key])
            for key in traced_by_series)
        samples["traced_series_seconds"] = traced_by_series
        with open(os.path.join(work, f"spans-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "series"],
                       "spans": recorder.spans, "setup": setups[0][1]["spans"]}, fh)
    else:
        tail, samples["pipeline_s_tail_percentile"] = tail_percentile(timings)

        def median(values):
            return statistics.median(values) if values else None

        metrics = {
            "pipeline_s": statistics.median(timings),
            "pipeline_s_tail": tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "one_step_nrmse": median(accuracy["one_step"]),
            "holdout_nrmse": median(accuracy["holdout"]),
            "dimension_delta": median(accuracy["dimension"]),
            "lyapunov_err": median(accuracy["lyapunov"]),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, failed_frac=failed / attempted, problems=problems,
                  failures=[reason for reason, _ in failures],
                  provenance=provenance(args.seed, samples, args.workload, args.trace))
    with open(os.path.join(work, f"result-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]!s:>24} {unit}")
    print(f"{'failed_frac':48s} {failed / attempted!s:>24} ratio ({failed}/{attempted})")
    for line in dict.fromkeys(problems + record["failures"]):
        print(f"note: {line}")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # one BLAS thread: a second one bought 3% on rossler-ref for 60% more CPU,
    # and made every timing depend on whether the other CPU was free
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
