"""The two curve residuals of ``validate_instance`` are bounds over all of
[0, t_max]: no sampled difference of the curves they are read from may
exceed them, at the 64 times the checks once sampled or on a 2001-point
grid, with ``conftest.probs_at`` as the sampling oracle.  A curve is the
triple (levels, weights, beta) of float tuples that both models hand the
bound.
"""

import math

import numpy as np
import pytest
from conftest import probs_at

import qwsearch as qw
from qwsearch import validation

# Every graph with N <= 500.
_SMALL = [(n, k) for k in range(1, 9) for n in range(2 * k, 501) if math.comb(n, k) <= 500]


def _reduced(params):
    # What validate_instance keeps per graph: gamma*, the reduced model's
    # curve (levels, weights, beta = 0) and t_max = 2*run_time.
    gamma = qw.gamma_star(params)
    reduced = validation._reduced_curve(qw.spectral_data(params), gamma)
    return gamma, reduced, 2 * qw.run_time(params)


def _checked_bounds(params, reduced, t_max, curves_w, curves_w2):
    # curves_w[i] and curves_w2[i] are the curves of a mark and of its
    # neighbour w + 1 mod N.  Returns the oracle_equivalence and
    # vertex_independence bounds of every mark, after checking each against
    # the sampled curves on both grids.  Equal curves are bounded and
    # sampled once: the N marks of J(n,1) give a handful.  Like the runs of
    # validate_instance, the two curves of a pair are distinct objects.
    pairs_or = [(curve, reduced) for curve in curves_w]
    pairs_vi = list(zip(curves_w, curves_w2))
    bound = {
        (a, b): validation._sup_distance(a, (*b,), t_max) for a, b in set(pairs_or + pairs_vi)
    }
    # sampling ignores beta: one row per (levels, weights), one difference
    # per pair
    rows = {}
    for curve in (reduced, *curves_w, *curves_w2):
        rows.setdefault(curve[:2], len(rows))
    row_pairs = {pair: (rows[pair[0][:2]], rows[pair[1][:2]]) for pair in bound}
    sampled_pairs = sorted(set(row_pairs.values()))
    first, second = ([pair[i] for pair in sampled_pairs] for i in (0, 1))
    for times in (np.linspace(0.0, t_max, 64), np.linspace(0.0, t_max, 2001)):
        probs = np.array([probs_at(*row, times) for row in rows])
        sampled = dict(zip(sampled_pairs, np.abs(probs[first] - probs[second]).max(axis=1)))
        short = [
            (sampled[row_pairs[pair]], b)
            for pair, b in bound.items()
            if sampled[row_pairs[pair]] > b
        ]
        assert not short, (params, short[:3])
    return [bound[pair] for pair in pairs_or], [bound[pair] for pair in pairs_vi]


def test_every_mark_of_every_small_graph_is_bounded():
    # All N marks run as one Lanczos block; validate_instance runs w and
    # w + 1 together, whose bits may differ in the last place.
    worst = 0.0
    for n, k in _SMALL:
        params = qw.GraphParams(n, k)
        gamma, reduced, t_max = _reduced(params)
        a = qw.adjacency_matrix(params)
        curves = list(validation._lanczos(a, gamma, tuple(range(len(a))), params))
        oracle, vertex = _checked_bounds(params, reduced, t_max, curves, curves[1:] + curves[:1])
        worst = max(worst, *oracle, *vertex)
    assert worst <= 1e-11


@pytest.mark.parametrize(
    "n,k,marks", [(6, 3, (0, 5, 19)), (9, 4, (17,)), (14, 6, (0, 100, 3002))]
)
def test_reported_bounds_hold_on_the_sampled_curves(n, k, marks):
    # the reported residuals, and the curves of the pair runs they come from
    params = qw.GraphParams(n, k)
    gamma, reduced, t_max = _reduced(params)
    a = qw.adjacency_matrix(params)
    pairs = [validation._lanczos(a, gamma, (w, (w + 1) % len(a)), params) for w in marks]
    oracle, vertex = _checked_bounds(
        params, reduced, t_max, [p[0] for p in pairs], [p[1] for p in pairs]
    )
    for w, bounds in zip(marks, zip(oracle, vertex)):
        checks = {c.name: c.residual for c in qw.validate_instance(params, w).checks}
        assert (checks["oracle_equivalence"], checks["vertex_independence"]) == bounds
    assert max(oracle + vertex) <= 1e-11


def _weights_moved(levels, weights, beta, rng):
    moved = np.array(weights) * (1 + 1e-3 * rng.standard_normal(len(weights)))
    return levels, tuple(moved.tolist()), beta


def _levels_moved(levels, weights, beta, rng):
    moved = np.array(levels) + 1e-4 * rng.standard_normal(len(weights))
    return tuple(moved.tolist()), weights, beta


def _top_level_dropped(levels, weights, beta, rng):
    # a run that closed one step early
    return levels[:-1], weights[:-1], beta


@pytest.mark.parametrize("move", [_weights_moved, _levels_moved, _top_level_dropped])
def test_the_bound_covers_curves_that_differ(move):
    # Every term of the bound is needed once two curves really differ.
    params = qw.GraphParams(6, 3)
    _, reduced, t_max = _reduced(params)
    moved = move(*reduced, np.random.default_rng(3))
    times = np.linspace(0.0, t_max, 2001)
    sampled = float(np.max(np.abs(probs_at(*moved[:2], times) - probs_at(*reduced[:2], times))))
    assert sampled > 1e-5
    for a, b in ((moved, reduced), (reduced, moved)):
        assert sampled <= validation._sup_distance(a, b, t_max)
