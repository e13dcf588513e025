import itertools

import numpy as np
import pytest

from mgv.errors import NodeNotOnFrontier
from mgv.planning import (DiscretePrior, PlanningState, frontier,
                          make_initial_state, myopic_voc, plan_value,
                          run_myopic_planner)


def coin(lo=0.0, hi=1.0, p=0.5):
    return DiscretePrior((lo, hi), (1.0 - p, p))


def all_tree_shapes(n):
    """Every rooted tree on nodes 0..n-1 where parent(i) < i."""
    if n == 1:
        yield (None,)
        return
    for tail in itertools.product(*[range(i) for i in range(1, n)]):
        yield (None,) + tail


def both_labellings(n):
    """Each shape of ``all_tree_shapes(n)``, then the same shape with its
    non-root labels reversed, so parents carry higher indices than children."""
    relabel = [0] + list(range(n - 1, 0, -1))
    for parents in all_tree_shapes(n):
        yield parents
        reversed_parents = [None] * n
        for i in range(1, n):
            reversed_parents[relabel[i]] = relabel[parents[i]]
        yield tuple(reversed_parents)


def oracle_plan_value(parents, priors, values):
    """Best root-to-leaf sum, unexpanded nodes at their prior mean."""
    kids = {i: [] for i in range(len(parents))}
    for i, p in enumerate(parents):
        if p is not None:
            kids[p].append(i)

    def node_value(i):
        v = values[i]
        if v is not None:
            return v
        pr = priors[i]
        return sum(s * p for s, p in zip(pr.support, pr.probs))

    def best(i):
        if not kids[i]:
            return node_value(i)
        return node_value(i) + max(best(c) for c in kids[i])

    return best(0)


def oracle_voc(state, node, cost):
    pr = state.priors[node]
    base = oracle_plan_value(state.parents, state.priors, state.values)
    gain = 0.0
    for support, prob in zip(pr.support, pr.probs):
        values = list(state.values)
        values[node] = support
        gain += prob * oracle_plan_value(state.parents, state.priors, values)
    return gain - base - cost


# --- priors -----------------------------------------------------------------

def test_prior_mean_and_validation():
    assert coin(0.0, 1.0, 0.25).mean() == pytest.approx(0.25)
    with pytest.raises(ValueError):
        DiscretePrior((0.0, 1.0), (0.5, 0.4))
    with pytest.raises(ValueError):
        DiscretePrior((0.0,), (0.5, 0.5))


def test_prior_round_trip():
    pr = DiscretePrior((-1.0, 2.0), (0.3, 0.7))
    assert DiscretePrior.from_dict(pr.to_dict()) == pr


# --- state and frontier -----------------------------------------------------

def chain3():
    return make_initial_state([None, 0, 1], [coin(), coin(0, 2), coin(0, 3)])


def test_initial_state_has_expanded_root_only():
    state = chain3()
    assert state.values == [0.0, None, None]
    assert frontier(state) == [1]


def test_frontier_grows_with_expansion():
    state = chain3()
    state.values[1] = 1.0
    assert frontier(state) == [2]
    state.values[2] = 0.0
    assert frontier(state) == []


def test_state_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PlanningState([0, 0], [coin(), coin()], [0.0, None])
    with pytest.raises(ValueError):
        PlanningState([None, 2, 1], [coin()] * 3, [0.0, None, None])
    with pytest.raises(ValueError):
        make_initial_state([None, 5], [coin(), coin()])


def test_plan_value_uses_prior_means_for_unexpanded():
    state = make_initial_state(
        [None, 0, 0], [coin(), coin(0, 1, 0.5), coin(0, 1, 0.9)])
    assert plan_value(state) == pytest.approx(0.9)


def test_plan_value_matches_oracle_on_all_small_trees():
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        for parents in both_labellings(n):
            priors = [coin(float(rng.uniform(-1, 0)), float(rng.uniform(0, 2)),
                           float(rng.uniform(0.1, 0.9))) for _ in range(n)]
            state = make_initial_state(list(parents), priors)
            for node in list(frontier(state))[:1]:
                state.values[node] = float(rng.uniform(-1, 1))
            assert plan_value(state) == pytest.approx(
                oracle_plan_value(state.parents, state.priors, state.values),
                abs=1e-12)


# --- myopic value of computation -------------------------------------------

def test_voc_hand_example():
    # Two leaves under the root: one known-ish (mean .5), one informative.
    state = make_initial_state(
        [None, 0, 0], [coin(), coin(0, 1, 0.5), coin(0, 1, 0.5)])
    # Expanding leaf 1: worlds are (0 -> max(0, .5) = .5) and (1 -> 1.0).
    assert myopic_voc(state, 1, 0.1) == pytest.approx(0.75 - 0.5 - 0.1)


def test_voc_matches_oracle_on_all_trees_up_to_five_nodes():
    rng = np.random.default_rng(21)
    for n in range(2, 6):
        for parents in both_labellings(n):
            priors = [coin(float(rng.uniform(-1, 0)), float(rng.uniform(0, 2)),
                           float(rng.uniform(0.1, 0.9))) for _ in range(n)]
            state = make_initial_state(list(parents), priors)
            cost = float(rng.uniform(0, 0.3))
            for node in frontier(state):
                assert myopic_voc(state, node, cost) == pytest.approx(
                    oracle_voc(state, node, cost), abs=1e-9)


def test_voc_leaves_state_untouched():
    state = chain3()
    before = list(state.values)
    myopic_voc(state, 1, 0.0)
    assert state.values == before


def test_voc_rejects_non_frontier_nodes():
    state = chain3()
    with pytest.raises(NodeNotOnFrontier):
        myopic_voc(state, 2, 0.0)  # parent still unexpanded
    with pytest.raises(NodeNotOnFrontier):
        myopic_voc(state, 0, 0.0)  # already expanded


# --- greedy planner ---------------------------------------------------------

def test_planner_stops_immediately_under_huge_cost():
    result = run_myopic_planner(chain3(), expansion_cost=100.0,
                                rng=np.random.default_rng(0))
    assert result.expansions == []
    assert result.net_reward == pytest.approx(plan_value(chain3()))


def test_planner_expands_informative_nodes_first():
    state = make_initial_state(
        [None, 0, 0],
        [coin(), coin(0.0, 1.0, 0.5), DiscretePrior((0.4,), (1.0,))])
    result = run_myopic_planner(state, 0.05, rng=np.random.default_rng(3))
    assert result.expansions[0][0] == 1


def test_planner_tie_breaks_toward_lowest_index():
    state = make_initial_state(
        [None, 0, 0], [coin(), coin(0, 1, 0.5), coin(0, 1, 0.5)])
    result = run_myopic_planner(state, 0.01, rng=np.random.default_rng(5))
    assert result.expansions[0][0] == 1


def test_planner_with_injected_reveal_is_deterministic():
    world = {1: 1.0, 2: 0.0}
    state = make_initial_state(
        [None, 0, 0], [coin(), coin(0, 1, 0.5), coin(0, 1, 0.5)])
    result = run_myopic_planner(state, 0.05, reveal=world.__getitem__)
    assert result.state.values[1] == 1.0
    assert result.net_reward == pytest.approx(
        plan_value(result.state) - 0.05 * len(result.expansions))


def test_planner_requires_a_value_source():
    with pytest.raises(ValueError):
        run_myopic_planner(chain3(), 0.1)


def test_free_computation_matches_baseline_in_expectation():
    """With zero cost, expected achieved value dominates acting blind."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        parents = [None] + [int(rng.integers(0, i)) for i in range(1, n)]
        priors = [coin(float(rng.uniform(-1, 0)), float(rng.uniform(0, 2)),
                       float(rng.uniform(0.1, 0.9))) for _ in range(n)]
        baseline = plan_value(make_initial_state(parents, priors))
        expected = 0.0
        for picks in itertools.product(*[range(2)] * (n - 1)):
            world = {i + 1: priors[i + 1].support[k]
                     for i, k in enumerate(picks)}
            weight = 1.0
            for i, k in enumerate(picks):
                weight *= priors[i + 1].probs[k]
            result = run_myopic_planner(
                make_initial_state(parents, priors), 0.0,
                reveal=world.__getitem__)
            expected += weight * result.net_reward
        assert expected >= baseline - 1e-9
