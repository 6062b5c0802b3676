"""A campaign's cells reach the fleet in cell order.

Points stream in cell order, so a fleet that runs cell 1 before cell 0
only delays the first point.  The order must not depend on how fast
each cell's cache probe returns: here the probe of cell 0 is the
slowest, and at ``fleet=1`` cell 0 must still execute first.
"""

from __future__ import annotations

import time

from repro.obs import progress
from repro.runner.cache import ResultCache
from repro.service import (
    ServiceClient,
    serve_in_thread,
    spec_campaign,
    sweep_spec,
)

from .conftest import small_config

GRID = (0.3, 0.4, 0.5)


def test_cells_execute_in_cell_order_at_fleet_one(service_root,
                                                  monkeypatch):
    spec = sweep_spec("GS", small_config("GS"), GRID)
    _, _, keys = spec_campaign(spec)

    real_load = ResultCache.load
    slowed: set[str] = set()

    def load(self, key):
        if key == keys[0] and key not in slowed:
            slowed.add(key)
            time.sleep(0.2)
        return real_load(self, key)

    monkeypatch.setattr(ResultCache, "load", load)
    started: list[str] = []

    def probe(kind: str, key: str, _description: str) -> None:
        if kind == "start":
            started.append(key)

    progress.subscribe(probe)
    try:
        with serve_in_thread(service_root / "cache",
                             service_root / "svc.sock",
                             fleet=1) as server:
            result = ServiceClient(server.socket_path).run(spec)
    finally:
        progress.unsubscribe(probe)

    assert result.statuses == ["computed"] * len(GRID)
    assert started == keys
