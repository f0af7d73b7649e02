from __future__ import annotations

import pytest

from dwptload import INDOT, EvParams


@pytest.fixture
def cfg():
    """Test-track roadway used by most tests."""
    return INDOT


@pytest.fixture
def truck(cfg):
    """Full-demand 1.83 m receiver at the posted segment speed."""
    return EvParams(
        rx_len_m=1.83,
        peak_demand_kw=cfg.power_density_kw_per_m * 1.83,
        speed_mps=24.6,
    )


@pytest.fixture
def evparams_built(monkeypatch):
    """A list that grows by one for each ``EvParams`` built in the test."""
    built = []
    post_init = EvParams.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(EvParams, "__post_init__", counting)
    return built
