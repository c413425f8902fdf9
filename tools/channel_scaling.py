"""Channel-count probe: how the Monte Carlo's time grows with the number
of channel pairs, at a fixed rate per channel and at a fixed summed rate.

Each run is the `custom` scenario, Monte Carlo only, at 30 dB with the
calibrated brightness, over 0.2 s with seed 1, on a grid over
795-825 nm.  Three runs take 20 GHz passbands at 100, 50 and 25 GHz
spacing (n = 67, 134 and 268 channel pairs), so the summed rate grows
with n.  A fourth takes 1.25 GHz passbands at 6.25 GHz spacing
(n = 1,073) and a fifth 0.09 GHz passbands at 0.457 GHz spacing
(n = 14,675, near the channel counts of the fig3d projection): the
summed passband of each, and so its summed rate, is about that of the
100 GHz run.  Each run is a fresh process, so its peak resident set
(``VmHWM``) is its own; the fifth takes tens of seconds.  Run from the
repository root::

    python tools/channel_scaling.py

It prints, per run, the spacing and passband, the channel pairs n, the
time chunks per basis block, the wall time of ``run_scenario`` (import and set-up left out),
the wall time per channel pair, the minor page faults and the system CPU
seconds taken during ``run_scenario`` (``getrusage`` deltas: the fault
churn of freed and re-faulted memory) and the peak resident set.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (channel spacing, passband) of each run, in Hz.
GRIDS_HZ = ((100e9, 20e9), (50e9, 20e9), (25e9, 20e9), (6.25e9, 1.25e9), (0.457e9, 0.09e9))


def config(spacing_hz: float, bandwidth_hz: float) -> dict:
    return {
        "scenario": "custom", "mode": "montecarlo", "seed": 1, "duration": 0.2,
        "loss_grid_db": [30.0], "brightness": "calibrated",
        "plan": {"grid": {"window_low_nm": 795.0, "window_high_nm": 825.0,
                          "channel_spacing_hz": spacing_hz,
                          "channel_bandwidth_hz": bandwidth_hz,
                          "spdc_center_nm": 810.05}},
    }


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def one_run(spacing_hz: float, bandwidth_hz: float) -> dict:
    """Run one grid in this process; returns its row."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from wmqkd.runner import _brightness_scale, config_from_dict, run_scenario
    from wmqkd.simulate import block_chunks, resolve_channels

    cfg = config_from_dict(config(spacing_hz, bandwidth_hz))
    loss = cfg.loss_grid_db[0]
    chans = resolve_channels(cfg.source, cfg.plan, loss, cfg.channel_visibilities,
                             _brightness_scale(cfg, loss))
    chunks = len(list(block_chunks(chans, cfg.detector, cfg.duration / 2.0)))
    with tempfile.TemporaryDirectory() as out:
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        run_scenario(cfg, out)
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
    return {"n": len(chans), "chunks": chunks, "wall_s": wall,
            "minor_faults": r1.ru_minflt - r0.ru_minflt, "sys_s": r1.ru_stime - r0.ru_stime,
            "peak_rss_mb": peak_rss_mb()}


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--one":
        print(json.dumps(one_run(float(sys.argv[2]), float(sys.argv[3]))))
        return
    print("| spacing | passband | channels n | chunks per basis | wall | wall / n "
          "| minor faults | system CPU | peak RSS |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for spacing, bandwidth in GRIDS_HZ:
        proc = subprocess.run([sys.executable, __file__, "--one", repr(spacing),
                               repr(bandwidth)], capture_output=True, text=True, check=True)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"| {spacing / 1e9:g} GHz | {bandwidth / 1e9:g} GHz | {row['n']} | "
              f"{row['chunks']} | {row['wall_s']:.2f} s | "
              f"{1e3 * row['wall_s'] / row['n']:.1f} ms | "
              f"{row['minor_faults']} | {row['sys_s']:.2f} s | {row['peak_rss_mb']:.0f} MB |")


if __name__ == "__main__":
    main()
