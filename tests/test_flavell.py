import math
from types import SimpleNamespace

import numpy as np
import pytest

from mgv.envs import SyntheticTaskEnvironment
from mgv.errors import NoApplicableStrategy
from mgv.experience import ExperienceTuple, ExperienceVector
from mgv.flavell import (AbandonReason, CycleState, CycleStatus,
                         EvaluativeSignal, FlavellConfig, GoalSpec,
                         MetaStrategyKind, check_termination,
                         classify_evaluative_signal, run_cycle,
                         select_cognitive_strategy, select_meta_strategy)
from mgv.knowledge import KnowledgeCategory, KnowledgeItem, KnowledgeStore


def goal(**kw):
    defaults = dict(success_threshold=0.8, max_cycles=20)
    defaults.update(kw)
    return GoalSpec(**defaults)


def state_with(outcomes, g=None):
    s = CycleState(task_tags={"t"}, goal=g or goal())
    for i, q in enumerate(outcomes):
        s.history.append(ExperienceTuple(
            cycle=i, experience=ExperienceVector(0.5), strategy_id="s",
            resources=1.0, outcome_quality=q))
    return s


def strategy(iid, tags=("t",), successes=0, failures=0):
    return KnowledgeItem(id=iid, category=KnowledgeCategory.STRATEGY,
                         tags=set(tags), successes=successes, failures=failures)


# --- meta-strategy dispatch -----------------------------------------------

def test_meta_dispatch_is_a_total_bijection():
    mapping = {sig: select_meta_strategy(sig) for sig in EvaluativeSignal}
    assert set(mapping.values()) == set(MetaStrategyKind)
    assert mapping[EvaluativeSignal.FRAGMENTED] is MetaStrategyKind.COHERENCE
    assert mapping[EvaluativeSignal.DOUBTFUL] is MetaStrategyKind.PLAUSIBILITY
    assert mapping[EvaluativeSignal.UNEXPECTED] is MetaStrategyKind.CONSISTENCY
    assert mapping[EvaluativeSignal.UNCERTAIN_PROGRESS] is MetaStrategyKind.GOAL_CONDUCIVENESS


def test_classify_priority_order():
    # negative outcome dominates everything
    assert classify_evaluative_signal(-0.1, 0.9, 0.2) is EvaluativeSignal.DOUBTFUL
    # a large swing beats incompleteness
    assert classify_evaluative_signal(0.9, 0.1, 0.5) is EvaluativeSignal.UNEXPECTED
    # incomplete output without a swing
    assert classify_evaluative_signal(0.4, 0.3, 0.5) is EvaluativeSignal.FRAGMENTED
    # nothing notable
    assert classify_evaluative_signal(0.4, 0.3, 1.0) is EvaluativeSignal.UNCERTAIN_PROGRESS
    # first cycle has no previous outcome to be surprised by
    assert classify_evaluative_signal(0.9, None, 1.0) is EvaluativeSignal.UNCERTAIN_PROGRESS


# --- strategy selection ----------------------------------------------------

def test_select_prefers_higher_smoothed_rate():
    items = [strategy("a", successes=1, failures=3), strategy("b", successes=3, failures=1)]
    assert select_cognitive_strategy(ExperienceVector(0.5), items, {"t"}) == "b"


def test_select_breaks_ties_lexicographically():
    items = [strategy("zeta"), strategy("alpha")]
    assert select_cognitive_strategy(ExperienceVector(0.5), items, {"t"}) == "alpha"


def test_select_filters_by_tag_overlap():
    items = [strategy("a", tags=("other",)), strategy("b", successes=0, failures=9)]
    assert select_cognitive_strategy(ExperienceVector(0.5), items, {"t"}) == "b"


def test_select_without_candidates_raises():
    with pytest.raises(NoApplicableStrategy):
        select_cognitive_strategy(ExperienceVector(0.5), [strategy("a", tags=("x",))], {"t"})
    with pytest.raises(NoApplicableStrategy):
        select_cognitive_strategy(ExperienceVector(0.5), [], {"t"})


# --- termination rules ------------------------------------------------------

def test_goal_achievement_wins_over_everything():
    s = state_with([-1.0, -1.0, 0.9], goal(failure_streak_limit=2, max_cycles=3))
    status, reason = check_termination(s, 0.9)
    assert status is CycleStatus.TERMINATED and reason is None


def test_failure_streak_abandons():
    s = state_with([0.1, -0.2, -0.3, -0.4])
    status, reason = check_termination(s, -0.4)
    assert status is CycleStatus.ABANDONED
    assert reason is AbandonReason.STRATEGY_FAILURE


def test_streak_needs_the_full_window():
    s = state_with([-0.2, -0.3])
    assert check_termination(s, -0.3) == (CycleStatus.ACTIVE, None)


def test_max_cycles_abandons_as_resource_exhausted():
    s = state_with([0.1] * 5, goal(max_cycles=5))
    status, reason = check_termination(s, 0.1)
    assert status is CycleStatus.ABANDONED
    assert reason is AbandonReason.RESOURCE_EXHAUSTED


def test_resource_budget_abandons():
    s = state_with([0.1, 0.2], goal(resource_budget=1.5))
    status, reason = check_termination(s, 0.2)
    assert (status, reason) == (CycleStatus.ABANDONED, AbandonReason.RESOURCE_EXHAUSTED)


def test_non_improving_windows_abandon_as_irreducible():
    # best of the last 3 (0.3) does not beat the best of the 3 before (0.3)
    s = state_with([0.1, 0.3, 0.2, 0.3, 0.25, 0.1])
    status, reason = check_termination(s, 0.1)
    assert (status, reason) == (CycleStatus.ABANDONED,
                                AbandonReason.IRREDUCIBLE_DISCREPANCY)


def test_improving_windows_stay_active():
    s = state_with([0.1, 0.2, 0.1, 0.3, 0.25, 0.35])
    assert check_termination(s, 0.35) == (CycleStatus.ACTIVE, None)


def test_discrepancy_rule_needs_two_windows():
    s = state_with([0.1, 0.1, 0.1, 0.1, 0.1])  # five < 2 * 3
    assert check_termination(s, 0.1) == (CycleStatus.ACTIVE, None)


def test_termination_reads_only_the_last_two_windows():
    reads = []

    class Record:
        resources = 1.0

        def __init__(self, quality):
            self.quality = quality

        @property
        def outcome_quality(self):
            reads.append(self)
            return self.quality

    for cycles in (10, 1000):
        reads.clear()
        s = CycleState(task_tags={"t"}, goal=goal(max_cycles=10**6))
        s.history.extend(Record(i * 1e-4) for i in range(cycles))  # improving
        assert check_termination(s, 0.2) == (CycleStatus.ACTIVE, None)
        assert len(reads) <= 2 * s.goal.failure_streak_limit


def test_termination_work_per_cycle_does_not_grow_with_the_history():
    """trace-heavy's shape: a streak limit as long as the run and improving
    outcomes.  Each check reads a bounded number of outcomes and resources."""
    reads = {"outcome_quality": 0, "resources": 0}

    class Record:
        def __init__(self, quality):
            self.quality = quality

        @property
        def outcome_quality(self):
            reads["outcome_quality"] += 1
            return self.quality

        @property
        def resources(self):
            reads["resources"] += 1
            return 1.0

    s = CycleState(task_tags={"t"}, goal=goal(max_cycles=500, failure_streak_limit=500))
    per_call = []
    for i in range(500):
        s.history.append(Record(0.1 + i * 1e-4))
        for key in reads:
            reads[key] = 0
        status, _ = check_termination(s, 0.1)
        per_call.append((reads["outcome_quality"], reads["resources"]))
    assert status is CycleStatus.ABANDONED  # at max_cycles
    assert max(q for q, _ in per_call) <= 1
    assert max(r for _, r in per_call) <= 1


def left_to_right(values):
    """The reference total: folded in order from int 0, like 3.11's ``sum``."""
    total = 0
    for v in values:
        total += v
    return total


def test_resources_spent_is_a_left_to_right_fold_however_history_changes():
    """Every answer equals a fresh fold of the current history, in value and
    type, whether the history grew, shrank, was regrown or replaced."""
    def spend(*amounts):
        return [SimpleNamespace(resources=r) for r in amounts]

    s = CycleState(task_tags={"t"}, goal=goal())

    def check():
        got, want = s.resources_spent(), left_to_right(t.resources for t in s.history)
        assert (got, type(got)) == (want, type(want))

    check()  # empty: int 0
    for record in spend(1e16, 1.0, -1e16, 1.0, 0.1, 0.2):  # order-sensitive
        s.history.append(record)
        check()
    s.history.extend(spend(0.3, 0.7))  # grown by more than one record
    check()
    del s.history[3:]  # truncated
    check()
    del s.history[1:]
    s.history.extend(spend(2.5, 1e16, 3.0, 1.0))  # truncated, then regrown past
    check()
    s.history = spend(1.0, 1e-16, 1e-16)  # replaced by a new list
    check()
    s.history = list(s.history)  # an equal copy is still a new list
    s.history.append(spend(1e-16)[0])
    check()
    s.history = spend(1, 2, 3)  # ints stay ints
    check()
    s.history = []
    check()


def test_goal_spec_validation():
    with pytest.raises(ValueError):
        GoalSpec(success_threshold=0.5, max_cycles=0)
    with pytest.raises(ValueError):
        GoalSpec(success_threshold=2.0, max_cycles=5)


# --- full runs --------------------------------------------------------------

def seeded_store(*items):
    store = KnowledgeStore()
    for it in items:
        store.add(it)
    return store


def test_run_terminates_on_good_strategy():
    store = seeded_store(strategy("good"))
    env = SyntheticTaskEnvironment({"good": 0.9})
    state, trace = run_cycle({"t"}, goal(), env, store, rng=np.random.default_rng(0))
    assert state.status is CycleStatus.TERMINATED
    assert state.abandon_reason is None
    assert state.cycle == 1 and len(trace) == 1
    assert trace[0].strategy_id == "good"


def test_run_abandons_on_failure_streak():
    store = seeded_store(strategy("bad"))
    env = SyntheticTaskEnvironment({"bad": -0.7})
    state, trace = run_cycle({"t"}, goal(failure_streak_limit=3), env, store,
                             rng=np.random.default_rng(0))
    assert state.status is CycleStatus.ABANDONED
    assert state.abandon_reason is AbandonReason.STRATEGY_FAILURE
    assert state.cycle == 3


def test_run_abandons_at_cycle_budget():
    store = seeded_store(strategy("meh"))
    env = SyntheticTaskEnvironment({"meh": 0.2})
    state, _ = run_cycle({"t"}, goal(max_cycles=4), env, store,
                         rng=np.random.default_rng(0))
    assert state.status is CycleStatus.ABANDONED
    assert state.abandon_reason is AbandonReason.RESOURCE_EXHAUSTED
    assert state.cycle == 4


def test_run_abandons_without_applicable_strategy():
    store = seeded_store(strategy("a", tags=("unrelated",)))
    env = SyntheticTaskEnvironment({})
    state, trace = run_cycle({"t"}, goal(), env, store, rng=np.random.default_rng(0))
    assert state.status is CycleStatus.ABANDONED
    assert state.abandon_reason is AbandonReason.STRATEGY_FAILURE
    assert trace == [] and state.cycle == 0


def test_run_without_rng_raises_and_leaves_the_store_untouched():
    store = seeded_store(strategy("good"))
    before = store.to_json()
    with pytest.raises(ValueError):
        run_cycle({"t"}, goal(), SyntheticTaskEnvironment({"good": 0.9}), store)
    assert store.to_json() == before


def test_history_length_always_equals_cycle_count():
    store = seeded_store(strategy("a"), strategy("b"))
    env = SyntheticTaskEnvironment({"a": 0.3, "b": 0.5}, noise=0.2)
    state, trace = run_cycle({"t"}, goal(max_cycles=8, success_threshold=0.99),
                             env, store, rng=np.random.default_rng(5))
    assert len(state.history) == state.cycle == len(trace)


def test_run_learns_away_from_the_bad_strategy():
    store = seeded_store(strategy("bad"), strategy("good"))
    env = SyntheticTaskEnvironment({"bad": -0.5, "good": 0.6})
    state, trace = run_cycle({"t"}, goal(success_threshold=0.55, max_cycles=10),
                             env, store, rng=np.random.default_rng(0))
    assert state.status is CycleStatus.TERMINATED
    # the loser may be probed first (tie on priors) but cannot be chosen again
    assert [t.strategy_id for t in trace].count("bad") <= 1


def test_run_updates_meta_strategy_record():
    store = seeded_store(strategy("good"))
    env = SyntheticTaskEnvironment({"good": 0.9})
    run_cycle({"t"}, goal(), env, store, rng=np.random.default_rng(0))
    meta_ids = [iid for iid in store.ltm if iid.startswith("meta-")]
    assert meta_ids
    assert all(store.ltm[i].category is KnowledgeCategory.META_STRATEGY
               for i in meta_ids)


def test_run_is_deterministic_for_a_seed():
    def once():
        store = seeded_store(strategy("a"), strategy("b"))
        env = SyntheticTaskEnvironment({"a": 0.2, "b": 0.6}, noise=0.3)
        state, trace = run_cycle({"t"}, goal(max_cycles=12), env, store,
                                 config=FlavellConfig(feel_prob=0.5),
                                 rng=np.random.default_rng(99))
        return state.status, [t.to_dict() for t in trace]

    assert once() == once()


def test_resource_budget_counts_spent_resources():
    store = seeded_store(strategy("meh"))
    env = SyntheticTaskEnvironment({"meh": 0.0})
    cfg = FlavellConfig(resources_per_cycle=2.0)
    state, _ = run_cycle({"t"}, goal(max_cycles=50, resource_budget=5.0), env,
                         store, config=cfg, rng=np.random.default_rng(0))
    assert state.status is CycleStatus.ABANDONED
    assert state.abandon_reason is AbandonReason.RESOURCE_EXHAUSTED
    assert state.resources_spent() == pytest.approx(6.0)  # first time past 5.0
    assert math.isfinite(state.resources_spent())
