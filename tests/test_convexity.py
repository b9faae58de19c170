"""Sampled generalized convexity checks."""

import tracemalloc

import numpy as np
import pytest

from qcsol import convexity
from qcsol.config import DEFAULT_CONFIG, Config
from qcsol.convexity import (
    ConvexityReport,
    check_first_order_qcx,
    check_levelset_convex,
    check_pseudoconvex_at,
    check_quasiconvex,
)
from qcsol.errors import EvalError, InputError, QcsolError
from qcsol.expr import _dot, _norm, evaluate, grad, parse
from qcsol.registry import get_example
from qcsol.sets import Box, grid_nodes


def test_ratio_is_quasiconvex_on_its_window():
    e = get_example("ex2_1")
    rep = check_quasiconvex(e.problem.objective, e.problem.domain_window)
    assert rep.holds and rep.counterexample is None
    assert rep.checked > 0


def test_surd_is_quasiconvex():
    e = get_example("ex2_3")
    assert check_quasiconvex(e.problem.objective, e.problem.domain_window).holds


def test_concave_parabola_is_not_quasiconvex():
    f = parse("-(x1^2)", 1)
    rep = check_quasiconvex(f, Box((-1.0,), (1.0,)))
    assert not rep.holds
    assert rep.counterexample is not None


def test_levelset_convexity():
    e = get_example("ex2_1")
    assert check_levelset_convex(e.problem.objective, 0.5, e.problem.domain_window)
    f = parse("-(x1^2)", 1)
    assert not check_levelset_convex(f, -0.25, Box((-1.0,), (1.0,)))


def test_first_order_quasiconvexity():
    e = get_example("ex2_1")
    assert check_first_order_qcx(e.problem.objective, e.problem.domain_window).holds


def test_pointwise_pseudoconvexity():
    e = get_example("ex2_2")
    window = e.problem.domain_window
    # gradient vanishes at the origin but lower values exist: not pseudoconvex there
    assert not check_pseudoconvex_at(e.problem.objective, (0.0, 0.0), window)
    # at the anchor no lower value exists inside the window
    assert check_pseudoconvex_at(e.problem.objective, (-1.0, 0.0), window)


# ---------------------------------------------------------------------------
# The batched samplers against per-sample references
# ---------------------------------------------------------------------------


def _sample_box(window, rng, margin):
    return rng.uniform(np.asarray(window.lo) + margin, np.asarray(window.hi) - margin)


# The per-sample loops the samplers replace, with one change: a found
# violation no longer ends the loop, so every sample is evaluated and the
# first failing evaluation raises.


def _ref_quasiconvex(f, window, pairs, t_steps, cfg):
    rng = np.random.default_rng(cfg.seed)
    ts = np.linspace(0.0, 1.0, t_steps + 1)
    found = None
    for _ in range(pairs):
        x = _sample_box(window, rng, cfg.delta_open)
        y = _sample_box(window, rng, cfg.delta_open)
        bound = max(evaluate(f, x), evaluate(f, y))
        for t in ts:
            z = x + t * (y - x)
            if evaluate(f, z) > bound + cfg.eps_feas and found is None:
                found = ConvexityReport(False, pairs, (tuple(x), tuple(y), float(t)))
    return found or ConvexityReport(True, pairs)


def _ref_levelset_convex(f, alpha, window, resolution, cfg):
    level = [x for x in grid_nodes(window, resolution) if evaluate(f, x) <= alpha]
    holds = True
    for i, u in enumerate(level):
        for v in level[i + 1:]:
            if evaluate(f, 0.5 * (u + v)) > alpha + cfg.eps_feas:
                holds = False
    return holds


def _ref_first_order_qcx(f, window, pairs, cfg):
    rng = np.random.default_rng(cfg.seed)
    found = None
    for _ in range(pairs):
        x = _sample_box(window, rng, cfg.delta_open)
        y = _sample_box(window, rng, cfg.delta_open)
        if evaluate(f, y) <= evaluate(f, x):
            if _dot(grad(f, x), y - x) > cfg.eps_feas and found is None:
                found = ConvexityReport(False, pairs, (tuple(x), tuple(y)))
    return found or ConvexityReport(True, pairs)


def _ref_pseudoconvex_at(f, x, window, samples, cfg):
    rng = np.random.default_rng(cfg.seed)
    xv = np.asarray(x, dtype=float)
    fx = evaluate(f, xv)
    g = grad(f, xv)
    holds = True
    for _ in range(samples):
        y = _sample_box(window, rng, cfg.delta_open)
        if evaluate(f, y) < fx - cfg.eps_feas:
            if _dot(g, y - xv) >= -cfg.eps_feas * _norm(y - xv):
                holds = False
    return holds


def _hex(value):
    if isinstance(value, tuple):
        return tuple(_hex(v) for v in value)
    return float(value).hex()


def _outcome(fn):
    """A sampler's result with counterexamples as hex, or its error."""
    try:
        got = fn()
    except QcsolError as exc:
        return type(exc), str(exc)
    if isinstance(got, ConvexityReport):
        return got.holds, got.checked, got.counterexample and _hex(got.counterexample)
    return got


_BUILTINS = ("ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex4_1", "ex2_3_constrained")
_EXTRA = {
    "concave": ("-(x1^2)", Box((-1.0,), (1.0,)), (0.0,)),
    # quasiconvex, but not pseudoconvex where its gradient vanishes
    "cubic": ("x1^3", Box((-1.0,), (1.0,)), (0.0,)),
    "saddle": ("x1^3 - x2^2", Box((-1.0, -1.0), (1.0, 1.0)), (0.5, 0.0)),
    "sqrt": ("sqrt(x1)", Box((-1.0,), (1.0,)), (0.5,)),
    # violates quasiconvexity everywhere and fails to evaluate for x1 < -0.95
    "partial": ("sqrt(x1 + 0.95) - x1^2", Box((-1.0,), (1.0,)), (0.3,)),
}


def _case(name):
    if name in _EXTRA:
        text, window, anchor = _EXTRA[name]
        return parse(text, len(anchor)), window, anchor
    e = get_example(name)
    return e.problem.objective, e.problem.domain_window, e.anchor


@pytest.mark.parametrize("name", _BUILTINS + tuple(_EXTRA))
def test_samplers_equal_per_sample_references(name, monkeypatch):
    f, window, anchor = _case(name)
    outcomes = set()
    for seed in (0, 1, 7):
        cfg = Config(seed=seed)
        calls = [
            (lambda: convexity.check_quasiconvex(f, window, 40, 5, cfg),
             lambda: _ref_quasiconvex(f, window, 40, 5, cfg)),
            (lambda: convexity.check_first_order_qcx(f, window, 60, cfg),
             lambda: _ref_first_order_qcx(f, window, 60, cfg)),
            (lambda: convexity.check_pseudoconvex_at(f, anchor, window, 60, cfg),
             lambda: _ref_pseudoconvex_at(f, anchor, window, 60, cfg)),
        ] + [
            (lambda a=alpha: convexity.check_levelset_convex(f, a, window, 7, cfg),
             lambda a=alpha: _ref_levelset_convex(f, a, window, 7, cfg))
            for alpha in (-0.3, 0.25, 1.0)
        ]
        for batched, reference in calls:
            want = _outcome(reference)
            # the result does not depend on how the samples are batched
            for rows in (1, 5, 64, 4096):
                monkeypatch.setattr(convexity, "_CHUNK_ROWS", rows)
                assert _outcome(batched) == want, (seed, rows)
            outcomes.add(want if isinstance(want, bool) else want[0])
    if name in ("concave", "cubic", "saddle"):
        assert False in outcomes
    if name in ("sqrt", "partial"):
        assert EvalError in outcomes


def test_a_failing_later_sample_raises_after_a_violation():
    # the loop this replaces returned the earlier violation
    f = parse("sqrt(x1 + 0.95) - x1^2", 1)
    window = Box((-1.0,), (1.0,))
    with pytest.raises(EvalError, match="sqrt of negative value"):
        convexity.check_quasiconvex(f, window, 60, 7, Config(seed=1))


@pytest.mark.parametrize("sampler", [
    lambda f, w, n: check_quasiconvex(f, w, pairs=n),
    lambda f, w, n: check_quasiconvex(f, w, t_steps=n),
    lambda f, w, n: check_first_order_qcx(f, w, pairs=n),
    lambda f, w, n: check_pseudoconvex_at(f, (0.5,), w, samples=n),
])
def test_negative_sample_counts_are_rejected(sampler):
    f, w = parse("x1^2", 1), Box((0.0,), (1.0,))
    for n in (-1, -3):
        with pytest.raises(ValueError, match="must be >= 0"):
            sampler(f, w, n)
    got = sampler(f, w, 0)
    assert got is True or got.holds


def test_the_level_set_check_refuses_a_grid_of_two_nodes_per_axis():
    f, w = parse("x1^2", 1), Box((0.0,), (1.0,))
    with pytest.raises(InputError, match="resolution must be >= 3"):
        check_levelset_convex(f, 0.5, w, resolution=2)
    assert check_levelset_convex(f, 0.5, w, resolution=3)


@pytest.mark.parametrize("sampler", [
    lambda f, w: check_quasiconvex(f, w, pairs=5),
    lambda f, w: check_first_order_qcx(f, w, pairs=5),
    lambda f, w: check_pseudoconvex_at(f, (2.0,), w, samples=5),
], ids=["quasiconvex", "first-order", "pseudoconvex"])
def test_a_window_narrower_than_the_open_margin_is_refused(sampler):
    f, margin = parse("x1^2", 1), DEFAULT_CONFIG.delta_open
    with pytest.raises(ValueError, match=(
        r"^window Box\(lo=\(2.0,\), hi=\(2.0,\)\) is narrower than 2 \* delta_open = 2e-09$"
    )):
        sampler(f, Box((2.0,), (2.0,)))
    got = sampler(f, Box((2.0,), (2.0 + 4 * margin,)))
    assert got is True or got.holds


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_memory_is_bounded():
    f = parse("x1 * x1 + x2 * x2", 2)
    w = Box((0.0, 0.0), (1.0, 1.0))
    # 10^5 pairs of 2 + 9 points: 1.1 * 10^6 evaluations
    rep, peak = _peak_bytes(lambda: check_quasiconvex(f, w, 100_000, 8))
    assert rep == ConvexityReport(True, 100_000)
    assert peak < 2 << 20
    # all 484 nodes of the 22-grid are in the level set: 116,886 midpoints
    holds, peak = _peak_bytes(lambda: check_levelset_convex(f, 3.0, w, 22))
    assert holds
    assert peak < 2 << 20


def test_levelset_failing_midpoint_after_a_violation(monkeypatch):
    # nodes -1, -4/15, 7/15, 6/5 all lie in the level set; the third
    # midpoint, 0.1, violates it and the last, 5/6, fails to evaluate
    f = parse("-(x1^2) + 0 * sqrt((x1 - 0.8333)^2 - 0.0001)", 1)
    window = Box((-1.0,), (1.2,))
    with pytest.raises(EvalError, match="sqrt of negative value"):
        _ref_levelset_convex(f, -0.05, window, 4, DEFAULT_CONFIG)
    for rows in (1, 2, 4096):
        monkeypatch.setattr(convexity, "_CHUNK_ROWS", rows)
        with pytest.raises(EvalError, match="sqrt of negative value"):
            check_levelset_convex(f, -0.05, window, 4)
    assert not check_levelset_convex(f, -0.05, Box((-1.0,), (0.6,)), 4)


def test_pseudoconvex_gap_is_the_left_to_right_dot():
    # From x = 0 to the one point of a degenerate window, y - x = (0.6,
    # -0.6) against the gradient (0.1, 0.1): the left-to-right sum is
    # exactly 0, which a fused multiply-add would round below it
    f = parse("0.1 * x1 + 0.1 * x2 - x1^2", 2)
    window = Box((0.6, -0.6), (0.6, -0.6))
    cfg = Config(eps_feas=0.0, delta_open=0.0)
    assert _dot(grad(f, [0.0, 0.0]), np.array([0.6, -0.6])) == 0.0
    assert not _ref_pseudoconvex_at(f, (0.0, 0.0), window, 3, cfg)
    assert not check_pseudoconvex_at(f, (0.0, 0.0), window, 3, cfg)
