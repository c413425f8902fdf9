"""Paired benchmark of a parent and a change checkout.

For each workload it runs alternating pairs of

    python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, with the side that runs first alternating from
pair to pair (the parent first in even pairs).  Pair ``i`` takes seed
``first_seed + i``, or the workload's own seed when no first seed is
given.  Run from the repository root::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --label NAME \\
        --pairs 10 --seconds 30 --first-seed 5001 --workloads ref30 wdm_grid

It writes ``BENCH_<label>.json`` in the working directory and prints a
Markdown table for ``CHANGES.md``.  For each workload and end-to-end
metric of ``BENCHMARK.json`` (read from the change's checkout) the file
holds the per-pair values, each side's median and quartiles, the
relative change of the medians, the pairs the change won, the claim
rule and the bound check (:func:`summarize`), and for each side whether
every run was ``correct`` and how many operations ``failed``.  With
``--scaling`` it also runs ``tools/channel_scaling.py --one`` on each of
that tool's grids, once per side, and records the rows as an unpaired
section.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

# A gain is claimed when the change wins at least this share of the
# pairs and the medians lie further apart than the parent's quartiles.
CLAIM_WIN_SHARE = 0.9
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartiles, interpolated between order
    statistics (``statistics.quantiles``'s inclusive method)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None) -> dict:
    """Statistics of one metric over pairs, ``parent[i]`` against
    ``change[i]``.  ``wins`` counts the pairs in which the change is
    better (strictly).  ``claim`` holds when the change wins at least
    ``CLAIM_WIN_SHARE`` of the pairs and its median is better than the
    parent's by more than the parent's interquartile range.
    ``within_bound`` holds when the change's median is worse than the
    parent's by at most ``bound``, relative (always, without a bound)."""
    sign = 1.0 if better == "lower" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q_p = quartiles(parent)
    gain = sign * (med_p - med_c)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    rel = (med_c - med_p) / med_p if med_p else math.nan
    return {
        "parent": parent, "change": change,
        "median": {"parent": med_p, "change": med_c},
        "quartiles": {"parent": q_p, "change": quartiles(change)},
        "rel_change": rel, "wins": wins, "pairs": len(parent),
        "claim": wins >= CLAIM_WIN_SHARE * len(parent) and gain > q_p[1] - q_p[0],
        "within_bound": bound is None or sign * rel <= bound,
    }


def run_once(root: str, workload: str, seed: int | None, seconds: float) -> dict:
    """One benchmark run in checkout ``root``: its last stdout line."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seconds", repr(seconds), "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                "error": proc.stderr.strip()[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_workload(dirs: dict, workload: str, seeds: list, seconds: float,
                   metrics: list[dict]) -> dict:
    """Alternating pairs of runs of one workload; its section of the file."""
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(dirs[side], workload, seed, seconds))
            print(f"{workload} pair {i} seed {seed} {side}: "
                  + json.dumps({m: r["value"] for m, r in runs[side][-1]["metrics"].items()}),
                  file=sys.stderr)
    out = {
        "seeds": seeds,
        "first": [SIDES[i % 2] for i in range(len(seeds))],
        "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
        "failed": {s: sum(r["failed"] or 0 for r in runs[s]) for s in SIDES},
        "crashed": {s: sum(r["failed"] is None for r in runs[s]) for s in SIDES},
        "metrics": {},
    }
    ok = [i for i in range(len(seeds)) if all(runs[s][i]["metrics"] for s in SIDES)]
    for m in metrics:
        values = {s: [runs[s][i]["metrics"][m["name"]]["value"] for i in ok] for s in SIDES}
        if ok:
            out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                         "bound": m.get("bound"),
                                         **summarize(values["parent"], values["change"],
                                                     m["better"], m.get("bound"))}
    return out


def bench_scaling(dirs: dict) -> dict:
    """``tools/channel_scaling.py --one`` on each of its grids, once per
    side, the parent first on even rows: single runs, not paired."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from channel_scaling import GRIDS_HZ
    rows = []
    for k, (spacing, bandwidth) in enumerate(GRIDS_HZ):
        row = {"spacing_hz": spacing, "bandwidth_hz": bandwidth}
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            proc = subprocess.run([sys.executable, "tools/channel_scaling.py", "--one",
                                   repr(spacing), repr(bandwidth)], cwd=dirs[side],
                                  capture_output=True, text=True, check=True)
            row[side] = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(row)
    return {"tool": "tools/channel_scaling.py --one SPACING BANDWIDTH",
            "note": "one run per row and side, not paired", "rows": rows}


def table(doc: dict) -> str:
    """The Markdown table of every workload and metric."""
    lines = ["| workload | metric | parent median (IQR) | change median (IQR) | change "
             "| wins | claim | bound |", "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for workload, w in doc["workloads"].items():
        for name, m in w["metrics"].items():
            (p1, p3), (c1, c3) = m["quartiles"]["parent"], m["quartiles"]["change"]
            lines.append(
                f"| `{workload}` | `{name}` | {m['median']['parent']:.4g} ({p1:.4g}–{p3:.4g}) "
                f"| {m['median']['change']:.4g} ({c1:.4g}–{c3:.4g}) "
                f"| {100 * m['rel_change']:+.1f}% | {m['wins']}/{m['pairs']} "
                f"| {'yes' if m['claim'] else 'no'} "
                f"| {'within' if m['within_bound'] else 'OUTSIDE'} {m['bound']} |")
    for workload, w in doc["workloads"].items():
        lines.append(f"\n`{workload}`: correct {w['correct']}, failed {w['failed']} "
                     f"of {w['attempted']}, runs crashed {w['crashed']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--first-seed", type=int, default=None,
                   help="seed of the first pair (default: each workload's own seed)")
    p.add_argument("--workloads", nargs="+", default=None,
                   help="default: every workload of BENCHMARK.json")
    p.add_argument("--scaling", action="store_true",
                   help="also record tools/channel_scaling.py's rows, unpaired")
    p.add_argument("--revs", nargs=2, metavar=("PARENT", "CHANGE"), default=None,
                   help="what the two checkouts hold, e.g. their commits")
    args = p.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent_dir),
            "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = [None if args.first_seed is None else args.first_seed + i
             for i in range(args.pairs)]
    doc = {
        "label": args.label,
        "command": "python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0",
        "revs": dict(zip(SIDES, args.revs or (None, None))),
        "pairs": args.pairs, "seconds": args.seconds, "first_seed": args.first_seed,
        "claim_rule": f"wins >= {CLAIM_WIN_SHARE} x pairs and the medians apart by more "
                      "than the parent's interquartile range, in the better direction",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {w: bench_workload(dirs, w, seeds, args.seconds, bench["end_to_end"])
                      for w in workloads},
    }
    if args.scaling:
        doc["unpaired"] = bench_scaling(dirs)
    with open(f"BENCH_{args.label}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(table(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
