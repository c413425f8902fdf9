"""The channel-count probe of ``tools/channel_scaling.py``: each of its
grids resolves to the number of channel pairs that its docstring gives.
No Monte Carlo is run."""

import importlib.util
from pathlib import Path

import pytest

from wmqkd.runner import config_from_dict


def channel_scaling_module():
    path = Path(__file__).resolve().parents[1] / "tools" / "channel_scaling.py"
    spec = importlib.util.spec_from_file_location("channel_scaling", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = channel_scaling_module()


@pytest.mark.parametrize("grid, n", zip(TOOL.GRIDS_HZ, (67, 134, 268, 1073, 14675),
                                        strict=True))
def test_each_grid_has_the_channel_count_of_the_docstring(grid, n):
    assert len(config_from_dict(TOOL.config(*grid)).plan.pairs) == n
    assert f"{n:,}" in " ".join(TOOL.__doc__.split())
