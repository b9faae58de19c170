"""Golden file for the simplex kernel and its callers.

tests/data/lp_golden.json holds, as ``float.hex`` strings:
- ``solve_lp``'s status, x and objective on seeded random LPs in the
  ``<=``, ``=`` and mixed forms, and on cases that reach each branch of
  the kernel (LP_CASES);
- ``strict_feasibility``'s point and margin on seeded systems with weak
  and strict rows;
- ``gordan_alternative``, ``primal_margin`` and ``dual_certificate`` on
  the matrices of acceptance criterion 7;
- ``check_gmfcq``, ``solve_multipliers`` and ``stationarity_residual`` at
  the ex2_3_constrained anchor.

The tests compare each section with the file bit for bit.  Regenerate
the file after an intended change with

    PYTHONPATH=src python tests/test_lp_golden.py

and name the entries that changed in the change's notes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcsol import kkt
from qcsol.alternatives import (
    dual_certificate,
    gordan_alternative,
    primal_margin,
    solve_lp,
    strict_feasibility,
)
from qcsol.config import DEFAULT_CONFIG
from qcsol.registry import get_example

GOLDEN = Path(__file__).parent / "data" / "lp_golden.json"

SEEDS = 200

# name -> (c, A_ub, b_ub, A_eq, b_eq)
LP_CASES = {
    "infeasible": ([0.0], None, None, [[1.0]], [-1.0]),
    "infeasible_mixed": ([1.0, 1.0], [[1.0, 1.0]], [1.0], [[1.0, 1.0]], [3.0]),
    "unbounded_no_rows": ([1.0], None, None, None, None),
    "unbounded_after_phase_1": ([1.0, 1.0], None, None, [[1.0, -1.0]], [1.0]),
    "no_rows_zero_cost": ([0.0, -0.0], None, None, None, None),
    # the second row is twice the first: its artificial stays basic at zero
    "redundant_equality": ([1.0, 2.0], None, None, [[1.0, 1.0], [2.0, 2.0]], [2.0, 4.0]),
    "redundant_equality_unbounded": (
        [1.0, 0.0, 1.0], None, None, [[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]], [1.0, 2.0],
    ),
    "degenerate_vertex": (
        [1.0, 1.0, 1.0],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [1.0, 1.0, 2.0, 0.0], None, None,
    ),
    # every row ties in the first ratio test
    "ratio_ties": (
        [1.0, 1.0], [[1.0, 1.0], [1.0, 0.0], [2.0, 1.0], [1.0, 2.0]],
        [1.0, 1.0, 2.0, 2.0], [[1.0, -1.0]], [0.0],
    ),
    "negative_zero_rhs": ([1.0], None, None, [[1.0]], [-0.0]),
    "negative_zero_entries": (
        [-0.0, 1.0, 0.0], [[-0.0, 1.0, -1.0], [1.0, -0.0, 0.0]], [-0.0, 2.0],
        [[-1.0, -0.0, 1.0]], [-0.0],
    ),
    "flipped_rows": ([1.0, -1.0], [[-1.0, -1.0], [1.0, 2.0]], [-1.0, 4.0], None, None),
    "numpy_empty_blocks": (
        np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([3.0]),
        np.zeros((0, 2)), np.zeros(0),
    ),
}


def _hex(v):
    return None if v is None else [float(t).hex() for t in np.ravel(v)]


def _random_lp(seed):
    """m, n in 1..6, entries in [-1, 1], every seventh rounded to integers
    so that it is degenerate."""
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(1, 7, size=2))
    A, b, c = rng.uniform(-1.0, 1.0, (m, n)), rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, n)
    if seed % 7 == 0:
        A, b, c = np.round(A), np.round(b), np.round(c)
    return A, b, c


def _lp(c, A_ub, b_ub, A_eq, b_eq):
    res = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    return {"status": res.status, "x": _hex(res.x), "objective": res.objective.hex()}


def _solve_lp_section():
    out = {name: _lp(*case) for name, case in LP_CASES.items()}
    for seed in range(SEEDS):
        A, b, c = _random_lp(seed)
        out[f"ub-{seed}"] = _lp(c, A, b, None, None)
        out[f"eq-{seed}"] = _lp(c, None, None, A, b)
        h = len(A) // 2
        out[f"mixed-{seed}"] = _lp(c, A[:h], b[:h], A[h:], b[h:])
    return out


def _strict_feasibility_section():
    out = {}
    for seed in range(SEEDS):
        A, b, _ = _random_lp(seed)
        k = len(A) // 2
        A_le, b_le = (A[:k], b[:k]) if k else (None, None)
        res = strict_feasibility(A_le, b_le, A[k:], b[k:])
        out[str(seed)] = {"point": _hex(res.point), "margin": res.margin.hex()}
    return out


def _gordan_section():
    """The first SEEDS matrices of acceptance criterion 7."""
    rng = np.random.default_rng(DEFAULT_CONFIG.seed)
    out = {}
    for k in range(SEEDS):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = rng.uniform(-1.0, 1.0, size=(m, n))
        res = gordan_alternative(A)
        out[str(k)] = {
            "branch": res.branch,
            "witness": _hex(res.witness),
            "margin": res.margin.hex(),
            "primal_margin": primal_margin(A).hex(),
            "dual_certificate": _hex(dual_certificate(A)),
        }
    return out


def _kkt_section():
    e = get_example("ex2_3_constrained")
    cq = kkt.check_gmfcq(e.problem, e.anchor)
    lam = kkt.solve_multipliers(e.problem, e.anchor)
    return {
        "check_gmfcq": {"holds": cq.holds, "direction": _hex(cq.direction)},
        "solve_multipliers": {
            "lambdas": _hex(lam.lambdas), "rank_deficient": lam.rank_deficient,
        },
        "stationarity_residual": kkt.stationarity_residual(e.problem, e.anchor, lam).hex(),
    }


SECTIONS = {
    "solve_lp": _solve_lp_section,
    "strict_feasibility": _strict_feasibility_section,
    "gordan": _gordan_section,
    "kkt": _kkt_section,
}


def _stored() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_section_is_unchanged(section):
    got, want = SECTIONS[section](), _stored()[section]
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} entries changed, first {changed[0]}: {got[changed[0]]}"


def test_the_branch_cases_reach_their_branches():
    stored = _stored()["solve_lp"]
    assert stored["infeasible"]["status"] == "infeasible"
    assert stored["unbounded_after_phase_1"]["status"] == "unbounded"
    assert stored["redundant_equality"]["status"] == "optimal"
    assert stored["negative_zero_rhs"]["x"] == [(-0.0).hex()]
    statuses = {v["status"] for k, v in stored.items() if k.startswith("mixed-")}
    assert statuses == {"optimal", "infeasible", "unbounded"}


if __name__ == "__main__":
    golden = {name: build() for name, build in SECTIONS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
