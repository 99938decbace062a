"""Workload inputs: generated series, pipeline configs and Lyapunov references.

Every input is a pure function of the workload name and the seed.  Run as a
script, this module is the timed set-up step: a fresh interpreter imports
chaosid, generates the workload's series and writes them with
``io.write_series`` next to one pipeline config per series.

    python3 perfbench/workloads.py --workload short-mix --seed 0 --out DIR [--trace]

It prints one JSON line naming the written series; with ``--trace`` the line
also carries the set-up spans (``dynamics.rk4_integrate``, ``io.write_series``).

numpy is imported inside the functions so that run.py can set the BLAS
thread variables before numpy first loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

ROSSLER_DT = 0.05
ROSSLER_N = 20000  # the criterion-1 record
ROSSLER_TAIL = 5000  # held-out continuation, never shown to the pipeline
ROSSLER_TRANSIENT = 2000
PINNED_TAU, PINNED_M = 26, 3

SHORT_N = 2000
SHORT_TAIL = SHORT_N * ROSSLER_TAIL // ROSSLER_N
# series per family in one short-mix pass.  Replicate 0 of each family is its
# anchor.  Every draw is fixed except the noise of damped replicates 1..6,
# which the seed draws: seeded initial conditions, phases or GA seeds made
# runs fail at random (see SHORT_EDGE) and moved the pipeline's decisions, its
# cost and its accuracy from seed to seed.
SHORT_MIX = {"rossler": 1, "quasi": 4, "damped": 7}
# anchor draws, picked so that at the seed commit the anchors cover the three
# basis rules: scaling -> exponential (rossler), none -> polynomial (quasi),
# rotation -> sinusoid (damped)
ANCHOR_DRAW = {"rossler": 0, "quasi": 1, "damped": 0}
# seeded series on which the pipeline exits 3 today: Henon always (validate
# finds no scaling region), Lorenz x on some initial conditions (no
# neighbour pair survives the Lyapunov separation) and about one 2000-sample
# Rossler series in thirty (no scaling region)
SHORT_EDGE = {"henon": 3, "lorenz": 3, "rossler": 3}

DAMPED_RATE = 0.005  # decay rate of the damped family, 1 / time unit
WORKLOADS = ("rossler-ref", "rossler-pinned", "short-mix", "short-edge")


def lorenz_rhs(state, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    x, y, z = state
    return [sigma * (y - x), x * (rho - z) - y, x * y - beta * z]


def rossler_rhs(state, a=0.2, b=0.2, c=5.7):
    x, y, z = state
    return [-(y + z), x + a * y, b + z * (x - c)]


def henon_map(state, a=1.4, b=0.3):
    x, y = state
    return [1.0 - a * x * x + y, b * x]


def lorenz_system():
    import numpy as np
    from chaosid import OdeSystem

    return OdeSystem(name="lorenz", dimension=3, rhs=lambda s: np.array(lorenz_rhs(s)))


def series_specs(workload, seed):
    """The series of one workload pass: dicts with id, family and their draws.

    ``rossler-*`` is the fixed criterion-1 run.  In short-mix the seed draws
    only the noise of the damped replicates; in short-edge it draws the
    initial conditions and the noise of every series.
    """
    import numpy as np

    if workload in ("rossler-ref", "rossler-pinned"):
        return [{"id": "rossler", "family": "rossler-ref", "dt": ROSSLER_DT,
                 "n": ROSSLER_N, "tail": ROSSLER_TAIL, "anchor": True, "seeded": False}]
    mix = workload == "short-mix"
    specs = []
    for family, count in (SHORT_MIX if mix else SHORT_EDGE).items():
        key = [ord(c) for c in family]
        for rep in range(count) if mix else range(1, count + 1):
            if not mix:
                draw = key + [seed, rep]
            elif rep == 0:
                draw = key + [ANCHOR_DRAW[family]]
            else:
                draw = key + [1000 + rep]
            rng = np.random.default_rng(draw)
            noise_seed = int(rng.integers(2**31))
            seeded = not mix or (family == "damped" and rep > 0)
            if mix and seeded:
                noise_seed = int(np.random.default_rng(key + [seed, rep]).integers(2**31))
            spec = {"id": f"{family}-{rep}", "family": family, "n": SHORT_N,
                    "tail": SHORT_TAIL, "anchor": mix and rep == 0, "seeded": seeded,
                    "noise_seed": noise_seed}
            if family == "rossler":
                spec.update(dt=0.05, x0=[1.0 + d for d in rng.uniform(-1.0, 1.0, 3)])
            elif family == "lorenz":
                spec.update(dt=0.01, x0=[1.0, 1.0, 20.0] + rng.uniform(-5.0, 5.0, 3))
            elif family == "henon":
                spec.update(dt=1.0, x0=[0.1, 0.1] + rng.uniform(-0.05, 0.05, 2))
            else:
                spec.update(dt=0.1, phase=list(rng.uniform(0.0, 2.0 * math.pi, 2)))
            spec["x0"] = [float(v) for v in spec.get("x0", [])]
            specs.append(spec)
    return specs


def generate(spec, chaosid):
    """Full series (pipeline record followed by its held-out tail), shape (n,)."""
    import numpy as np

    total = spec["n"] + spec["tail"]
    family = spec["family"]
    dyn = chaosid.dynamics
    if family == "rossler-ref":
        series = dyn.rk4_integrate(chaosid.rossler(), [1.0, 1.0, 1.0], dt=ROSSLER_DT,
                                   steps=total, transient_skip=ROSSLER_TRANSIENT)
        return series.values[:, 0]
    if family == "rossler":
        series = dyn.rk4_integrate(chaosid.rossler(), spec["x0"], dt=spec["dt"],
                                   steps=total, transient_skip=2000)
        return series.values[:, 0]
    if family == "lorenz":
        series = dyn.rk4_integrate(lorenz_system(), spec["x0"], dt=spec["dt"],
                                   steps=total, transient_skip=2000)
        return series.values[:, 0]
    if family == "henon":
        state = list(spec["x0"])
        out = np.empty(total)
        for k in range(1000 + total):
            state = henon_map(state)
            if k >= 1000:
                out[k - 1000] = state[0]
        return out
    rng = np.random.default_rng(spec["noise_seed"])
    t = np.arange(total) * spec["dt"]
    phase = spec["phase"]
    if family == "quasi":
        clean = np.sin(t + phase[0]) + 0.6 * np.sin((1.0 + math.sqrt(5.0)) / 2.0 * t + phase[1])
        level = 0.01
    else:  # damped
        clean = np.exp(-DAMPED_RATE * t) * np.sin(t + phase[0])
        level = 0.001
    return clean + level * np.std(clean) * rng.standard_normal(total)


def config_text(workload, spec, input_path, out_dir):
    lines = [f"input.path = {input_path}", f"input.dt = {spec['dt']!r}",
             f"output.dir = {out_dir}"]
    if workload == "rossler-pinned":
        lines += [f"embedding.tau = {PINNED_TAU}", f"embedding.m = {PINNED_M}"]
    return "\n".join(lines) + "\n"


def write_inputs(workload, seed, out, chaosid):
    """Generate and write every input of one workload; returns the manifest."""
    from chaosid import TimeSeries

    os.makedirs(out, exist_ok=True)
    manifest = []
    for spec in series_specs(workload, seed):
        values = generate(spec, chaosid)
        stem = os.path.join(out, spec["id"])
        n = spec["n"]
        chaosid.io.write_series(stem + ".csv", TimeSeries(values[:n], dt=spec["dt"], labels=("s",)))
        chaosid.io.write_series(stem + "_tail.csv",
                                TimeSeries(values[n:], dt=spec["dt"], labels=("s",)))
        configs = {"run": stem + ".cfg"}
        with open(configs["run"], "w", encoding="utf-8") as fh:
            fh.write(config_text(workload, spec, stem + ".csv", stem + "_out"))
        if workload == "rossler-pinned":
            # the unpinned run whose symmetry, fit and metrics blocks must match
            configs["ref"] = stem + "_ref.cfg"
            with open(configs["ref"], "w", encoding="utf-8") as fh:
                fh.write(config_text("rossler-ref", spec, stem + ".csv", stem + "_ref_out"))
        manifest.append(dict(spec, csv=stem + ".csv", tail_csv=stem + "_tail.csv",
                             configs=configs))
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


# ---------------------------------------------------------------------------
# Lyapunov references (Benettin two-trajectory renormalisation), untimed


def _rk4_step(rhs, x, dt):
    k1 = rhs(x)
    k2 = rhs([a + 0.5 * dt * b for a, b in zip(x, k1)])
    k3 = rhs([a + 0.5 * dt * b for a, b in zip(x, k2)])
    k4 = rhs([a + dt * b for a, b in zip(x, k3)])
    return [a + dt / 6.0 * (p + 2.0 * q + 2.0 * r + s)
            for a, p, q, r, s in zip(x, k1, k2, k3, k4)]


def benettin(step, x0, time_step, transient, steps, d0=1e-8):
    """Largest Lyapunov exponent of ``step`` from a trajectory and its shadow.

    The shadow starts ``d0`` away along the first axis and is pulled back to
    distance ``d0`` after every step; the exponent is the mean log stretch
    per unit time.
    """
    x = list(x0)
    for _ in range(transient):
        x = step(x)
    y = [x[0] + d0] + x[1:]
    total = 0.0
    for _ in range(steps):
        x, y = step(x), step(y)
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
        total += math.log(d / d0)
        y = [a + (b - a) * d0 / d for a, b in zip(x, y)]
    return total / (steps * time_step)


def lyapunov_reference(spec):
    """Largest exponent of the generating system, in 1 / time unit."""
    family = spec["family"]
    if family in ("rossler-ref", "rossler"):
        dt = 0.05
        x0 = spec.get("x0") or [1.0, 1.0, 1.0]
        return benettin(lambda x: _rk4_step(rossler_rhs, x, dt), x0, dt, 2000, 40000)
    if family == "lorenz":
        dt = 0.01
        return benettin(lambda x: _rk4_step(lorenz_rhs, x, dt), spec["x0"], dt, 2000, 40000)
    if family == "henon":
        return benettin(henon_map, spec["x0"], 1.0, 1000, 20000)
    if family == "quasi":
        return 0.0
    return -DAMPED_RATE


# ---------------------------------------------------------------------------
# fresh-interpreter set-up


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from layers import import_chaosid

    chaosid = import_chaosid()
    recorder = None
    if args.trace:
        from layers import Recorder

        recorder = Recorder()
        recorder.patch(chaosid.dynamics, "rk4_integrate", "dynamics.rk4_integrate")
        recorder.patch(chaosid.io, "write_series", "io.write_series")
    manifest = write_inputs(args.workload, args.seed, args.out, chaosid)
    result = {"series": [spec["id"] for spec in manifest]}
    if recorder is not None:
        result["spans"] = recorder.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
