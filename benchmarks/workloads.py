"""Benchmark workloads: the run configuration each one hands the program.

A workload is a function of the seed alone; the program receives only
the configuration dict built here, through ``config_from_dict``.
Why each workload exists is written in ``README.md``.
"""

from __future__ import annotations

# Ports of a table-1 style grid: 795-825 nm, 400 GHz pitch, 50 GHz
# passbands, mirrored about 810.05 nm, which pairs 17 channels.
WDM_GRID_PLAN = {"grid": {
    "window_low_nm": 795.0,
    "window_high_nm": 825.0,
    "channel_spacing_hz": 400e9,
    "channel_bandwidth_hz": 50e9,
    "spdc_center_nm": 810.05,
}}

# 40 dB to 100 dB every 0.25 dB; multiples of 0.25 are exact floats.
FIG3D_LOSS_GRID_DB = [40.0 + 0.25 * k for k in range(241)]

DEFAULT_SEEDS = {"ref30": 20240810, "wdm_grid": 7, "fig3d_sweep": 12345}


def ref30(seed: int) -> dict:
    return {
        "scenario": "fig3b", "seed": seed, "mode": "both", "duration": 2.0,
        "loss_grid_db": [30.0], "plan": "table1", "brightness": "calibrated",
    }


def wdm_grid(seed: int) -> dict:
    return {
        "scenario": "custom", "seed": seed, "mode": "both", "duration": 0.5,
        "loss_grid_db": [30.0], "plan": WDM_GRID_PLAN,
        "brightness": "calibrated",
    }


def fig3d_sweep(seed: int) -> dict:
    # Analytic: the seed is recorded in the outputs but draws nothing.
    return {
        "scenario": "fig3d", "seed": seed, "mode": "analytic",
        "fig3d_loss_grid_db": FIG3D_LOSS_GRID_DB,
    }


WORKLOADS = {"ref30": ref30, "wdm_grid": wdm_grid, "fig3d_sweep": fig3d_sweep}


def operations_per_round(config: dict) -> int:
    """One operation is one loss point of the scenario with its checks."""
    if config["scenario"] == "fig3d":
        return len(config["fig3d_loss_grid_db"])
    return len(config["loss_grid_db"])
