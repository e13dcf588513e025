"""The monitor-generate-verify control loop.

Each cycle reads a difficulty signal, picks the most promising activated
strategy, executes it, then verifies the outcome with a meta-strategy chosen
by the flavor of what went wrong.  The loop ends by achieving the goal or by
one of three abandonment rules: a failure streak, exhausted resources, or a
discrepancy that repeated attempts cannot reduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from math import inf

import numpy as np

from .errors import AT_LEAST_1, NONNEG, POSITIVE, SIGNED_UNIT, UNIT, NoApplicableStrategy
from .experience import (ExperienceTuple, ExperienceVector, clamp01,
                         generate_experience)
from .knowledge import (KnowledgeCategory, KnowledgeItem, KnowledgeStore,
                        retrieve_probabilistic, update_knowledge)


class CycleStatus(Enum):
    ACTIVE = "active"
    TERMINATED = "terminated"
    ABANDONED = "abandoned"


class AbandonReason(Enum):
    STRATEGY_FAILURE = "strategy_failure"
    RESOURCE_EXHAUSTED = "resource_exhausted"
    IRREDUCIBLE_DISCREPANCY = "irreducible_discrepancy"


class EvaluativeSignal(Enum):
    """What the verification step noticed about the latest outcome."""

    FRAGMENTED = "fragmented"
    DOUBTFUL = "doubtful"
    UNEXPECTED = "unexpected"
    UNCERTAIN_PROGRESS = "uncertain_progress"


class MetaStrategyKind(Enum):
    """The check dispatched to interrogate an outcome."""

    COHERENCE = "coherence"
    PLAUSIBILITY = "plausibility"
    CONSISTENCY = "consistency"
    GOAL_CONDUCIVENESS = "goal_conduciveness"


# Each evaluative flavor maps to exactly one check.
_META_DISPATCH = {
    EvaluativeSignal.FRAGMENTED: MetaStrategyKind.COHERENCE,
    EvaluativeSignal.DOUBTFUL: MetaStrategyKind.PLAUSIBILITY,
    EvaluativeSignal.UNEXPECTED: MetaStrategyKind.CONSISTENCY,
    EvaluativeSignal.UNCERTAIN_PROGRESS: MetaStrategyKind.GOAL_CONDUCIVENESS,
}


@dataclass
class GoalSpec:
    success_threshold: float
    max_cycles: int
    failure_streak_limit: int = 3
    resource_budget: float = inf

    def __post_init__(self):
        SIGNED_UNIT.check("success_threshold", self.success_threshold)
        AT_LEAST_1.check("max_cycles", self.max_cycles)
        AT_LEAST_1.check("failure_streak_limit", self.failure_streak_limit)
        POSITIVE.check("resource_budget", self.resource_budget)


@dataclass
class FlavellConfig:
    feel_prob: float = 0.5
    resources_per_cycle: float = 1.0
    prune_margin: int = 5

    def __post_init__(self):
        UNIT.check("feel_prob", self.feel_prob)
        POSITIVE.check("resources_per_cycle", self.resources_per_cycle)
        NONNEG.check("prune_margin", self.prune_margin)


@dataclass
class CycleState:
    task_tags: set[str]
    goal: GoalSpec
    status: CycleStatus = CycleStatus.ACTIVE
    abandon_reason: AbandonReason | None = None
    history: list[ExperienceTuple] = field(default_factory=list)
    # (history list, records counted, last record counted, their total)
    _spent: tuple = field(default=(None, 0, None, 0), init=False, repr=False,
                          compare=False)

    @property
    def cycle(self) -> int:
        """Completed cycles so far; always equals the history length."""
        return len(self.history)

    def resources_spent(self) -> float:
        """Resources over the history, folded left to right from int 0.

        The last answer's total is reused, and only the records appended since
        are added, while ``history`` is the same list and still holds the last
        counted record at its place.  A replaced, shrunk or rewritten history
        is folded again from the start.
        """
        history = self.history
        known, counted, last, total = self._spent
        if not (known is history and len(history) >= counted
                and (counted == 0 or history[counted - 1] is last)):
            counted, total = 0, 0
        for t in islice(history, counted, None):
            total += t.resources
        self._spent = (history, len(history), history[-1] if history else None, total)
        return total


def classify_evaluative_signal(outcome: float, previous_outcome: float | None,
                               completeness: float) -> EvaluativeSignal:
    """Name the dominant worry about an outcome, most specific flavor first."""
    if outcome < 0:
        return EvaluativeSignal.DOUBTFUL
    if previous_outcome is not None and abs(outcome - previous_outcome) > 0.5:
        return EvaluativeSignal.UNEXPECTED
    if completeness < 1.0:
        return EvaluativeSignal.FRAGMENTED
    return EvaluativeSignal.UNCERTAIN_PROGRESS


def select_meta_strategy(signal: EvaluativeSignal) -> MetaStrategyKind:
    """Total mapping from evaluative flavor to verification check."""
    return _META_DISPATCH[signal]


def select_cognitive_strategy(difficulty: ExperienceVector,
                              stm_strategies: list[KnowledgeItem],
                              task_tags: set[str]) -> str:
    """Pick the activated strategy with the best smoothed win rate.

    Candidates are first narrowed to strategies sharing at least one task tag;
    the difficulty signal rides along as diagnostic context.  Ties break to
    the lexicographically smallest id so runs are reproducible.
    """
    candidates = [it for it in stm_strategies
                  if it.category is KnowledgeCategory.STRATEGY and it.tags & task_tags]
    if not candidates:
        raise NoApplicableStrategy(f"no activated strategy matches {sorted(task_tags)}")
    return min(candidates, key=lambda it: (-it.success_rate(), it.id)).id


def check_termination(state: CycleState,
                      last_outcome: float) -> tuple[CycleStatus, AbandonReason | None]:
    """Decide whether the loop is done, and how.

    Goal achievement wins over every abandonment rule.  The discrepancy rule
    compares the best outcome of the last ``failure_streak_limit`` cycles with
    the best of the window before, so it needs two full windows of history.
    """
    goal = state.goal
    if last_outcome >= goal.success_threshold:
        return CycleStatus.TERMINATED, None
    k = goal.failure_streak_limit
    history = state.history
    # Two full windows feed both rules from one read.  Before that only the
    # streak rule applies, and it stops at the newest non-negative outcome.
    if len(history) >= 2 * k:
        recent = [t.outcome_quality for t in history[-2 * k:]]
        failing = all(o < 0 for o in recent[k:])
    else:
        recent = None
        failing = len(history) >= k and all(
            t.outcome_quality < 0 for t in islice(reversed(history), k))
    if failing:
        return CycleStatus.ABANDONED, AbandonReason.STRATEGY_FAILURE
    if state.resources_spent() > goal.resource_budget or state.cycle >= goal.max_cycles:
        return CycleStatus.ABANDONED, AbandonReason.RESOURCE_EXHAUSTED
    if recent is not None and max(recent[k:]) <= max(recent[:k]):
        return CycleStatus.ABANDONED, AbandonReason.IRREDUCIBLE_DISCREPANCY
    return CycleStatus.ACTIVE, None


def run_cycle(task_tags: set[str], goal: GoalSpec, env, store: KnowledgeStore,
              config: FlavellConfig | None = None,
              rng=None) -> tuple[CycleState, list[ExperienceTuple]]:
    """Run the full loop against ``env`` until it terminates or abandons.

    ``env`` must provide ``execute(strategy_id, resources, rng) -> (outcome,
    completeness)`` and ``meta_evaluate(outcome, kind) -> float``.  Knowledge
    is revised in place every cycle; meta-strategies accrue their own win/loss
    record under ``meta-<kind>`` ids.
    """
    if rng is None:
        raise ValueError("need an rng")
    config = config or FlavellConfig()
    state = CycleState(task_tags=set(task_tags), goal=goal)
    prev_outcome: float | None = None
    prev_strategy: str | None = None
    prev_meta: MetaStrategyKind | None = None

    while state.status is CycleStatus.ACTIVE:
        tau = state.cycle

        # Monitor: refresh working memory, read a difficulty signal.
        query = set(state.task_tags)
        if prev_strategy is not None and prev_meta is not None:
            query |= {prev_strategy, f"meta-{prev_meta.value}"}
        retrieve_probabilistic(store, query, rng)
        # The activated strategies that fit the task feed both the
        # knowledge-based difficulty (1 minus their mean win rate) and the
        # choice below.
        candidates = [it for it in store.stm_items()
                      if it.category is KnowledgeCategory.STRATEGY and it.tags & state.task_tags]
        raw = 0.5 if prev_outcome is None else (1.0 - prev_outcome) / 2.0
        assessment = (1.0 - float(np.mean([it.success_rate() for it in candidates]))
                      if candidates else None)
        difficulty = generate_experience(raw, assessment, config.feel_prob, rng.random())

        # Generate: dispatch the best activated strategy.
        try:
            strategy_id = select_cognitive_strategy(difficulty, candidates, state.task_tags)
        except NoApplicableStrategy:
            state.status = CycleStatus.ABANDONED
            state.abandon_reason = AbandonReason.STRATEGY_FAILURE
            break
        outcome, completeness = env.execute(strategy_id, config.resources_per_cycle, rng)

        # Verify: classify the outcome, run the matching check, record everything.
        signal = classify_evaluative_signal(outcome, prev_outcome, completeness)
        meta_kind = select_meta_strategy(signal)
        meta_outcome = env.meta_evaluate(outcome, meta_kind)
        experience = ExperienceVector(primary=difficulty.primary,
                                      secondary=clamp01((outcome + 1.0) / 2.0),
                                      mode=difficulty.mode)
        record = ExperienceTuple(cycle=tau, experience=experience,
                                 strategy_id=strategy_id,
                                 resources=config.resources_per_cycle,
                                 outcome_quality=outcome)
        state.history.append(record)
        update_knowledge(store, record, config.prune_margin)
        meta_record = ExperienceTuple(cycle=tau, experience=experience,
                                      strategy_id=f"meta-{meta_kind.value}",
                                      resources=0.0, outcome_quality=meta_outcome)
        update_knowledge(store, meta_record, config.prune_margin,
                         category=KnowledgeCategory.META_STRATEGY)

        state.status, state.abandon_reason = check_termination(state, outcome)
        prev_outcome, prev_strategy, prev_meta = outcome, strategy_id, meta_kind

    return state, list(state.history)
