import itertools
import math

import numpy as np
import pytest

from mgv.errors import NodeNotOnFrontier, ValidationError
from mgv.floats import fold_sum
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
        return fold_sum(s * p for s, p in zip(pr.support, pr.probs))

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


def test_prior_rejects_a_mean_that_overflows():
    # probs may sum to 1 within 1e-9, so a finite support's mean can overflow.
    big, over = 1.7976931348623157e308, 1.0 + 5e-10
    for support in ((big,), (-big,), (big, big)):
        with pytest.raises(ValidationError, match="^support: mean must be finite$"):
            DiscretePrior(support, (over,) if len(support) == 1 else (0.5, 0.5 + 5e-10))
    assert DiscretePrior((big,), (1.0,)).mean() == big


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


# --- bit-for-bit fence ------------------------------------------------------
# The reference below is the straightforward algorithm: every plan worth
# re-sums every root-to-leaf path, recomputing each unrevealed node's prior
# mean, and the value of computation re-scores the whole tree once for the
# base and once per support value.  The library must give the same floats,
# compared with ``==``, not within a tolerance: its results reach the trace.

def reference_paths(parents):
    """Root-to-leaf paths in leaf index order."""
    inner = set(parents)
    paths = []
    for leaf in range(len(parents)):
        if leaf in inner:
            continue
        walk, j = [], leaf
        while j != 0:
            walk.append(j)
            j = parents[j]
        paths.append((0, *reversed(walk)))
    return paths


def reference_plan_value(parents, priors, values):
    def contribution(n):
        if values[n] is not None:
            return values[n]
        pr = priors[n]
        return float(fold_sum(s * p for s, p in zip(pr.support, pr.probs)))
    return max(fold_sum(contribution(n) for n in path)
               for path in reference_paths(parents))


def reference_frontier(parents, values):
    return [i for i in range(1, len(parents))
            if values[i] is None and values[parents[i]] is not None]


def reference_voc(parents, priors, values, node, cost):
    base = reference_plan_value(parents, priors, values)
    prior = priors[node]
    expected_after = 0.0
    for v, p in zip(prior.support, prior.probs):
        after = list(values)
        after[node] = v
        expected_after += p * reference_plan_value(parents, priors, after)
    return expected_after - base - cost


def reference_planner(parents, priors, cost, rng):
    values = [0.0] + [None] * (len(parents) - 1)
    expansions = []
    while True:
        best_node, best_voc = None, -np.inf
        for node in reference_frontier(parents, values):
            voc = reference_voc(parents, priors, values, node, cost)
            if voc > best_voc:
                best_node, best_voc = node, voc
        if best_node is None or best_voc <= 0:
            break
        prior = priors[best_node]
        idx = rng.choice(len(prior.support), p=np.asarray(prior.probs))
        values[best_node] = prior.support[int(idx)]
        expansions.append((best_node, values[best_node]))
    net = (reference_plan_value(parents, priors, values)
           - cost * len(expansions))
    return values, expansions, net


def seeded_tree(rng, reverse):
    """A tree of 7-40 nodes with at most 2-4 children per node.

    A third of the trees hide rare jackpots, as the benchmark's plan
    documents do, so that the planner keeps expanding; the rest draw 1-3
    support values in [-3, 3], half of them on a half-unit grid so that
    equal path sums are common.
    """
    n, arity = int(rng.integers(7, 41)), int(rng.integers(2, 5))
    children = [0] * n
    parents = [None] * n
    for i in range(1, n):
        open_nodes = [j for j in range(i) if children[j] < arity]
        parents[i] = open_nodes[int(rng.integers(len(open_nodes)))]
        children[parents[i]] += 1
    if reverse:
        relabel = [0] + list(range(n - 1, 0, -1))
        flipped = [None] * n
        for i in range(1, n):
            flipped[relabel[i]] = relabel[parents[i]]
        parents = flipped
    kind = int(rng.integers(3))
    priors = [DiscretePrior((0.0,), (1.0,))]
    for _ in range(1, n):
        if kind == 0:
            p = float(rng.uniform(0.01, 0.2))
            priors.append(DiscretePrior((0.0, float(rng.uniform(2.0, 10.0))),
                                        (1.0 - p, p)))
            continue
        k = int(rng.integers(1, 4))
        support = rng.uniform(-3.0, 3.0, size=k)
        if kind == 1:
            support = np.round(support * 2.0) / 2.0
        probs = rng.dirichlet(np.ones(k))
        priors.append(DiscretePrior(tuple(float(s) for s in support),
                                    tuple(float(p) for p in probs)))
    return parents, priors


def reveal_walk(parents, priors, rng):
    """Yield a fresh state, then the same state after each reveal of a random
    frontier node, until none is left; so deep nodes, which the myopic
    planner seldom reaches, are scored too."""
    state = make_initial_state(parents, priors)
    while True:
        yield state
        nodes = frontier(state)
        if not nodes:
            return
        node = nodes[int(rng.integers(len(nodes)))]
        support = priors[node].support
        state.values[node] = support[int(rng.integers(len(support)))]


@pytest.mark.parametrize("seed", range(40))
def test_planner_matches_full_rescoring_bit_for_bit(seed):
    rng = np.random.default_rng(1000 + seed)
    parents, priors = seeded_tree(rng, reverse=seed % 2 == 1)
    cost = float(rng.choice([0.0, rng.uniform(0.0, 0.2)]))
    planner_seed = int(rng.integers(2**32))

    values, expansions, net = reference_planner(
        parents, priors, cost, np.random.default_rng(planner_seed))
    result = run_myopic_planner(make_initial_state(parents, priors), cost,
                                rng=np.random.default_rng(planner_seed))
    assert result.expansions == expansions
    assert result.net_reward == net
    assert result.state.values == values

    for state in reveal_walk(parents, priors, rng):
        before = list(state.values)
        assert plan_value(state) == reference_plan_value(parents, priors, before)
        for node in frontier(state):
            assert myopic_voc(state, node, cost) == reference_voc(
                parents, priors, before, node, cost)
        assert state.values == before


def test_voc_keeps_full_rescoring_choice_among_nan_path_sums():
    """``max`` keeps the first argument that nothing compares greater than,
    so with a NaN path sum its result depends on the order of every path:
    the worth after a reveal must be the max over all path sums in leaf
    order, not the max of the best path avoiding the node and the best path
    through it.  Nodes 3 and 4 hold +inf and -inf means, so the path through
    both sums to NaN.  A prior rejects a mean that overflows, so those means,
    and the supports the reference reads them from, are set on priors
    already built."""
    parents = [None, 0, 0, 1, 3, 1]  # paths (0, 2), (0, 1, 3, 4), (0, 1, 5)
    priors = [coin(), coin(0.0, 1.0), DiscretePrior((-1.0,), (1.0,)),
              DiscretePrior((1.0,), (1.0,)), DiscretePrior((-1.0,), (1.0,)),
              DiscretePrior((2.0,), (1.0,))]
    for prior, mean in ((priors[3], math.inf), (priors[4], -math.inf)):
        object.__setattr__(prior, "support", (mean,))
        object.__setattr__(prior, "_mean", mean)
    assert (priors[3].mean(), priors[4].mean()) == (math.inf, -math.inf)
    state = make_initial_state(parents, priors)
    assert plan_value(state) == 2.5
    # After node 1 shows v, the sums are [-1.0, nan, v + 2.0].
    assert myopic_voc(state, 1, 0.0) == 0.0
    for node in frontier(state):
        assert repr(myopic_voc(state, node, 0.0)) == repr(
            reference_voc(parents, priors, state.values, node, 0.0))


def test_voc_sums_each_path_once_and_rescores_only_paths_through_the_node(
        monkeypatch):
    from mgv import planning

    calls = {"sum": 0, "path_sums": 0}
    path_sums, fold_sum = planning._path_sums, planning.fold_sum

    def counting_sum(*args):
        calls["sum"] += 1
        return fold_sum(*args)

    def counting_path_sums(contributions, paths):
        calls["path_sums"] += len(paths)
        return path_sums(contributions, paths)

    rng = np.random.default_rng(5)
    states = []
    for seed in range(6):
        parents, priors = seeded_tree(rng, reverse=seed % 2 == 1)
        states.append(make_initial_state(parents, priors))
    monkeypatch.setattr(planning, "fold_sum", counting_sum)
    monkeypatch.setattr(planning, "_path_sums", counting_path_sums)
    for state in states:
        for _ in range(3):  # the same calls again: no work is cached away
            for node in frontier(state):
                before = dict(calls)
                myopic_voc(state, node, 0.0)
                expected = (len(state.paths) + len(state.priors[node].support)
                            * len(state.through[node]))
                assert calls["path_sums"] - before["path_sums"] == expected
                # Every float sum is a path sum: no prior mean is computed
                # again, however many times the node is scored.
                assert calls["sum"] - before["sum"] == expected
        for node in frontier(state):
            support = state.priors[node].support
            state.values[node] = support[0]


def test_planner_sums_the_base_paths_once_per_expansion(monkeypatch):
    """Within one expansion every frontier node is scored against the same
    base, so the planner sums all ``len(paths)`` paths once per frontier
    scan, not once per node scored, and each node then re-sums only the
    paths through it."""
    from mgv import planning

    calls = {"path_sums": 0, "rescored": 0, "scored": 0}
    path_sums, voc = planning._path_sums, planning.myopic_voc

    def counting_path_sums(contributions, paths):
        calls["path_sums"] += len(paths)
        return path_sums(contributions, paths)

    def counting_voc(state, node, *args):
        calls["scored"] += 1
        calls["rescored"] += len(state.priors[node].support) * len(state.through[node])
        return voc(state, node, *args)

    monkeypatch.setattr(planning, "_path_sums", counting_path_sums)
    monkeypatch.setattr(planning, "myopic_voc", counting_voc)
    rng = np.random.default_rng(11)
    extra_nodes_scored = 0
    for seed in range(12):
        parents, priors = seeded_tree(rng, reverse=seed % 2 == 1)
        state = make_initial_state(parents, priors)
        calls.update(path_sums=0, rescored=0, scored=0)
        result = run_myopic_planner(state, 0.0, rng=np.random.default_rng(seed))
        scans = result.num_expansions + bool(frontier(result.state))
        # One base sum per scan, the rescored paths, and the final plan_value.
        assert calls["path_sums"] == ((scans + 1) * len(state.paths)
                                      + calls["rescored"]), seed
        extra_nodes_scored += calls["scored"] - scans
    assert extra_nodes_scored > 0  # some scans scored several nodes


def test_voc_reads_a_shared_base_without_changing_it():
    from mgv.planning import _contributions, _path_sums

    rng = np.random.default_rng(12)
    for seed in range(10):
        parents, priors = seeded_tree(rng, reverse=seed % 2 == 1)
        for state in reveal_walk(parents, priors, rng):
            contributions = _contributions(state)
            sums = _path_sums(contributions, state.paths)
            base = (list(contributions), list(sums))
            for node in frontier(state):
                assert myopic_voc(state, node, 0.05, base) == myopic_voc(state, node, 0.05)
            assert base == (contributions, sums)


def test_through_table_lists_the_paths_crossing_each_node():
    for parents in both_labellings(5):
        state = make_initial_state(list(parents), [coin()] * 5)
        for node in range(5):
            assert state.through[node] == tuple(
                i for i, path in enumerate(state.paths) if node in path)
