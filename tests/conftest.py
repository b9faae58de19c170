import os

import pytest
from hypothesis import settings

from qcsol import charac, kkt, sets, subdiff

# Tier-1 draws the same hypothesis examples on every run, so that it
# passes or fails on the code alone.  QCSOL_HYPOTHESIS_PROFILE=explore
# draws fresh examples on each run, and keeps the failing ones in
# .hypothesis/, to search beyond them; each @settings block keeps its own
# max_examples under either profile.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("QCSOL_HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(autouse=True)
def _cold_records():
    """Every test starts with no kept record (feasible grid, anchor, GP
    grid, ML window, dichotomy report or problem document, with what is
    derived from it), so that no result, grid count or evaluation count
    depends on the tests that ran before it."""
    sets._KEPT.clear()


@pytest.fixture()
def grid_work(monkeypatch):
    """The grids built (their resolutions), feasible or GP, and the
    gradient batches (their row counts) taken on grid records and by
    classify_dichotomy from now on, in call order, with the kept records
    cleared first.  A kept dichotomy report or grid record takes no batch,
    so a batch counted twice is work done twice."""
    work = {"grids": [], "gradients": []}
    nodes, gradients = sets.grid_nodes, kkt.grad_many

    def counted_nodes(window, resolution):
        work["grids"].append(resolution)
        return nodes(window, resolution)

    def counted_gradients(f, X, n):
        work["gradients"].append(len(X))
        return gradients(f, X, n)

    monkeypatch.setattr(sets, "grid_nodes", counted_nodes)
    monkeypatch.setattr(subdiff, "grid_nodes", counted_nodes)
    monkeypatch.setattr(kkt, "grad_many", counted_gradients)
    monkeypatch.setattr(charac, "grad_many", counted_gradients)
    sets._KEPT.clear()
    return work
