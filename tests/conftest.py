import pytest

from qcsol import kkt, sets


@pytest.fixture(autouse=True)
def _cold_grids():
    """Every test starts with no evaluated grid, so that no result or grid
    count depends on the tests that ran before it."""
    kkt._GRIDS.clear()


@pytest.fixture()
def grid_work(monkeypatch):
    """The grids built (their resolutions) and the gradient batches taken
    on grid records (their row counts) from now on, in call order, with
    the grid memo cleared first."""
    work = {"grids": [], "gradients": []}
    nodes, gradients = sets.grid_nodes, kkt.grad_many

    def counted_nodes(window, resolution):
        work["grids"].append(resolution)
        return nodes(window, resolution)

    def counted_gradients(f, X, n):
        work["gradients"].append(len(X))
        return gradients(f, X, n)

    monkeypatch.setattr(sets, "grid_nodes", counted_nodes)
    monkeypatch.setattr(kkt, "grad_many", counted_gradients)
    kkt._GRIDS.clear()
    return work
