"""Benchmark of the wmqkd simulator: one workload per call.

    python3 benchmarks/run.py --workload ref30 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer metrics
of a traced run.  The two times are rescaled to a fixed host speed with
a reference kernel timed between the rounds (see ``reference_s``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` for the
workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
RUNS = os.path.join(BENCH_DIR, "_runs")

MIN_ROUNDS = 4
DEADLINE_S = 170.0

# The reference kernel's median time on the machine the bounds were set
# on; rescaled times read as seconds on that machine at that speed.
REF_S = 0.167
# Over 60 runs, a run's mean round time moved with its mean kernel time
# to this power (the slope of log on log within each workload), so the
# times are rescaled by the kernel's ratio to this power: a control
# variate.
REF_POWER = 0.34


def fail(message: str):
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(1)


def child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_s() -> float:
    """Time of a fixed kernel that does not use the program: numpy sorts
    of a small and of a large array.

    The host changes the speed of the virtual CPU by up to ±20% over
    tens of seconds.  Timed in this process just before every round and
    after the last, the kernel follows that speed.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    small, big = rng.random(300_000), rng.random(2_000_000)
    t0 = time.perf_counter()
    for _ in range(6):
        np.searchsorted(np.sort(small), small[::7])
    np.cumsum(np.sort(big))
    return time.perf_counter() - t0


def measure(config_path: str, work: str, seconds: float, trace: bool,
            deadline: float) -> tuple[list[dict], list[float]]:
    """Scenario rounds, each in a fresh process, until ``seconds`` have
    passed; with ``trace`` every other round is traced.  Also returns
    the reference kernel's times, one before each round and one after
    the last."""
    # Warm-up: compiles the program's bytecode in a fresh checkout.
    child(["setup", SRC, config_path], deadline - time.monotonic())
    reference_s()
    rounds, refs = [], []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        refs.append(reference_s())
        traced = trace and len(rounds) % 2 == 1
        out = os.path.join(work, f"round_{len(rounds)}")
        t0 = time.monotonic()
        r = child(["run", SRC, config_path, out, "1" if traced else "0"],
                  deadline - t0)
        r["setup_s"] = r["done"] - t0
        rounds.append(r)
    refs.append(reference_s())
    return rounds, refs


def end_to_end(rounds: list[dict], refs: list[float]) -> dict:
    """Mean times over the rounds, rescaled by ``(REF_S / mean kernel
    time) ** REF_POWER``; median peak RSS."""
    scale = (REF_S / statistics.fmean(refs)) ** REF_POWER
    return {
        "wall_s": {"value": statistics.fmean(r["wall_s"] for r in rounds) * scale,
                   "unit": "s"},
        "setup_s": {"value": statistics.fmean(r["setup_s"] for r in rounds) * scale,
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
    }


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def merge_keep_frac(config: dict, out_dir: str) -> float:
    """Merged-baseline singles over the sum of the channels' singles."""
    if config["scenario"] == "fig3d":
        return 0.0
    _, rows = checks.read_curve(checks.curve_path(config, out_dir))
    sides = ("singles_alice_mc", "singles_bob_mc")
    merged = sum(r[s] for r in rows if r["configuration"] == "no_wm" for s in sides)
    channels = sum(r[s] for r in rows if r["configuration"].startswith("ch")
                   for s in sides)
    return merged / channels


def layer_metrics(r: dict) -> dict:
    """Per-layer figures of one traced round."""
    spans, config_spans = r["spans"], r["config_spans"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    detect_s = get("detection.detect", "total")
    match_s = get("coincidence.match", "total")
    optimize_calls = get("keyrate.optimize", "calls")
    analytic = ("keyrate.analytic", "keyrate.analytic_in_optimize")
    return {
        "simulate.sample_s": get("simulate.sample", "self"),
        "simulate.point_self_s": get("simulate.point", "self"),
        "detection.detect_s": detect_s,
        "detection.detect_calls": get("detection.detect", "calls"),
        "detection.arrivals_in": get("detection.detect", "inputs"),
        "detection.tags_out": get("detection.detect", "outputs"),
        "detection.tags_per_s": (get("detection.detect", "inputs") / detect_s
                                 if detect_s else 0.0),
        "detection.merge_s": get("detection.merge", "total"),
        "detection.merge_calls": get("detection.merge", "calls"),
        "detection.merge_tags_in": get("detection.merge", "inputs"),
        "detection.concat_s": get("detection.concat", "total"),
        "coincidence.match_s": match_s,
        "coincidence.match_tags_in": get("coincidence.match", "inputs"),
        "coincidence.matches": get("coincidence.match", "outputs"),
        "coincidence.match_tags_per_s": (get("coincidence.match", "inputs") / match_s
                                         if match_s else 0.0),
        "coincidence.accidental_s": get("coincidence.accidental", "total"),
        "coincidence.accidentals": get("coincidence.accidental", "outputs"),
        "keyrate.optimize_s": get("keyrate.optimize", "total"),
        "keyrate.optimize_calls": optimize_calls,
        "keyrate.evals_per_optimize": (get("keyrate.analytic_in_optimize", "calls")
                                       / optimize_calls if optimize_calls else 0.0),
        "keyrate.analytic_s": sum(get(n, "total") for n in analytic),
        "keyrate.analytic_calls": sum(get(n, "calls") for n in analytic),
        "calibration.predict_s": get("calibration.predict", "total"),
        "calibration.predict_calls": get("calibration.predict", "calls"),
        "runner.predict_s": get("runner.predict", "total"),
        "runner.self_s": get("runner.scenario", "self"),
        "runner.out_bytes": _dir_bytes(r["out"]),
        "runner.config_s": config_spans["runner.config"]["total"],
        "channels.plan_s": (get("channels.plan", "total")
                            + config_spans.get("channels.plan", {}).get("total", 0.0)),
        "wmqkd.import_s": r["import_s"],
        "trace.uncovered_s": r["wall_s"] - sum(s["self"] for s in spans.values()),
    }


UNITS = {
    "simulate.sample_s": "s", "simulate.point_self_s": "s",
    "detection.detect_s": "s", "detection.detect_calls": "count",
    "detection.arrivals_in": "count", "detection.tags_out": "count",
    "detection.tags_per_s": "1/s", "detection.merge_s": "s",
    "detection.merge_calls": "count", "detection.merge_tags_in": "count",
    "detection.merge_keep_frac": "ratio", "detection.concat_s": "s",
    "coincidence.match_s": "s", "coincidence.match_tags_in": "count",
    "coincidence.matches": "count", "coincidence.match_tags_per_s": "1/s",
    "coincidence.accidental_s": "s", "coincidence.accidentals": "count",
    "keyrate.optimize_s": "s", "keyrate.optimize_calls": "count",
    "keyrate.evals_per_optimize": "count", "keyrate.analytic_s": "s",
    "keyrate.analytic_calls": "count", "calibration.predict_s": "s",
    "calibration.predict_calls": "count", "runner.predict_s": "s",
    "runner.self_s": "s", "runner.out_bytes": "B", "runner.config_s": "s",
    "channels.plan_s": "s", "wmqkd.import_s": "s",
    "trace.uncovered_s": "s", "trace.wall_s": "s", "trace.cpu_s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}


def per_layer(config: dict, rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    rows = [layer_metrics(r) for r in traced]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values["detection.merge_keep_frac"] = merge_keep_frac(config, plain[0]["out"])
    wall_plain = statistics.median(r["wall_s"] for r in plain)
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    values["trace.wall_s"] = wall_plain
    values["trace.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    values["trace.overhead_s"] = wall_traced - wall_plain
    values["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's own, see README)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long the repeated scenario runs are measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "wmqkd", "__init__.py")):
        fail(f"the program is not in this checkout: no {SRC}/wmqkd")
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    config = workloads.WORKLOADS[args.workload](seed)
    work = os.path.join(RUNS, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)

    try:
        rounds, refs = measure(config_path, work, args.seconds, bool(args.trace), deadline)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {DEADLINE_S:.0f} s")

    per_round = workloads.operations_per_round(config)
    attempted = failed = 0
    problems = []
    for r in rounds:
        attempted += per_round
        verdicts = checks.check_outputs(config, r["out"]) if r["error"] is None \
            else {}
        failed += per_round - sum(v is not None for v in verdicts.values())
        problems += [f"{os.path.basename(r['out'])} loss {loss}: {msg}"
                     for loss, msgs in verdicts.items() for msg in (msgs or [])]
    for line in problems:
        print("CHECK FAILED", line)
    print(f"{args.workload} seed {seed}, per round, not rescaled (* traced):")
    for r, ref in zip(rounds, refs):
        print(f"  wall_s {r['wall_s']:.3f}{'*' if r['traced'] else ' '} "
              f"cpu_s {r['cpu_s']:.3f} setup_s {r['setup_s']:.3f} "
              f"peak_rss_mb {r['peak_rss_mb']:.1f} reference_s {ref:.4f}")
    print(f"  last reference_s {refs[-1]:.4f}")

    metrics = (per_layer(config, rounds) if args.trace
               else end_to_end(rounds, refs))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
