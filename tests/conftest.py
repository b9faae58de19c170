import pytest

from qcsol import charac, kkt, sets, subdiff


@pytest.fixture(autouse=True)
def _cold_records():
    """Every test starts with no kept record (feasible grid, GP grid or
    problem document), so that no result or grid count depends on the
    tests that ran before it."""
    sets._KEPT.clear()


@pytest.fixture()
def grid_work(monkeypatch):
    """The grids built (their resolutions), feasible or GP, and the
    gradient batches (their row counts) taken on grid records and by
    classify_dichotomy from now on, in call order, with the kept records
    cleared first."""
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
