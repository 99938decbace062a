"""Import of the checked-out package and the outside-in span recorder.

The traced run replaces the module attributes that ``cli``, ``identify``,
``symmetry`` and ``io`` look up at call time with wrappers that record one
span per call: name, start, end, parent span and series id.  (``validate``
calls other layers only from ``compare(with_dimension=True)``, which the
pipeline does not use.)
Spans stay in memory until the run ends.  Nothing inside the package
changes; a later in-program trace can replace these wrappers.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("embedding", "symmetry", "identify", "dynamics", "validate", "io", "cli")


def import_chaosid():
    """Import chaosid from ``src/`` of this checkout and from nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chaosid", "__init__.py")):
        raise SystemExit(f"no chaosid sources under {src}")
    sys.path.insert(0, src)
    chaosid = importlib.import_module("chaosid")
    if not os.path.abspath(chaosid.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported chaosid from {chaosid.__file__}, not {src}")
    importlib.import_module("chaosid.cli")
    return chaosid


class Recorder:
    """Span store plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, series id]
        self.counts = {}
        self.series = None
        self._stack = []
        self._patched = []

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.series]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def patch(self, module, attr, name, on_result=None, on_error=None):
        """Replace ``module.attr`` with a recording wrapper.

        ``on_result(recorder, args, kwargs, result)`` and
        ``on_error(recorder, exc)`` record counts at the boundary.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            try:
                result = self.call(name, original, *args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def install(recorder):
    """Wrap every public function the pipeline reaches, where it is looked up."""
    from chaosid import cli, dynamics, identify, io, symmetry
    from chaosid.errors import RankDeficient

    def rows(arg):
        states = getattr(arg, "states", None)
        if states is None:
            states = getattr(arg, "values", arg)
        return len(states)

    def fnn_points(rec, args, kwargs, result):
        rec.count("embedding.false_nearest_neighbors.points", rows(args[0]))

    def ami_lags(rec, args, kwargs, result):
        rec.count("embedding.average_mutual_information.lags", len(result.lags))

    def lyap_points(rec, args, kwargs, result):
        rec.count("validate.largest_lyapunov.points", rows(args[0]))

    def cd_points(rec, args, kwargs, result):
        rec.count("validate.correlation_dimension.points", rows(args[0]))

    def accepted(rec, args, kwargs, result):
        rec.count("symmetry.accepted", len(result.transforms))

    def sim_steps(rec, args, kwargs, result):
        rec.count("dynamics.simulate.steps", len(result[0]))

    def rank_deficient(rec, exc):
        if isinstance(exc, RankDeficient):
            rec.count("identify.rank_deficient")

    def bytes_written(rec, args, kwargs, result):
        # nested writers (write_model -> write_json) count their file once
        if not any(rec.spans[i][0] == "io.write_json" for i in rec._stack):
            rec.count("io.bytes_written", os.path.getsize(args[0]))

    plan = [
        (cli, "autocorrelation_delay", "embedding.autocorrelation_delay", None),
        (cli, "average_mutual_information", "embedding.average_mutual_information", ami_lags),
        (cli, "false_nearest_neighbors", "embedding.false_nearest_neighbors", fnn_points),
        (cli, "delay_embed", "embedding.delay_embed", None),
        (cli, "extract_segments", "symmetry.extract_segments", None),
        (cli, "ga_search", "symmetry.ga_search", None),
        (cli, "attractor_diameter", "symmetry.attractor_diameter", None),
        (cli, "classify_symmetry", "symmetry.classify_symmetry", accepted),
        (symmetry, "fit_transform", "symmetry.fit_transform", None),
        (symmetry, "attractor_diameter", "symmetry.attractor_diameter", None),
        (symmetry, "seed_basis_parameters", "symmetry.seed_basis_parameters", None),
        (cli, "fit_model", "identify.fit_model", None),
        (identify, "refine_basis", "identify.refine_basis", None),
        (identify, "build_regression", "identify.build_regression", None),
        (identify, "fit_output_map", "identify.fit_output_map", None),
        (cli, "simulate", "dynamics.simulate", sim_steps),
        (dynamics, "simulate", "dynamics.simulate", sim_steps),
        (cli, "correlation_dimension", "validate.correlation_dimension", cd_points),
        (cli, "dominant_period", "validate.dominant_period", None),
        (cli, "largest_lyapunov", "validate.largest_lyapunov", lyap_points),
        (cli, "compare", "validate.compare", None),
        (io, "read_series", "io.read_series", None),
    ]
    for module, attr, name, on_result in plan:
        recorder.patch(module, attr, name, on_result)
    recorder.patch(identify, "solve_least_squares", "identify.solve_least_squares",
                   on_error=rank_deficient)
    for attr in ("write_json", "write_embedding", "write_symmetry_report", "write_model"):
        recorder.patch(io, attr, "io.write_json", on_result=bytes_written)
