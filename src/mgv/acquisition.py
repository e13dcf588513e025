"""Study scheduling: norm of study, inverse-proportional allocation, the learn loop.

A batch of items is studied cycle by cycle.  Monitoring produces ease-of-learning
signals on the first pass and feeling-of-knowing signals afterwards; budget flows
inversely to those signals, so shaky items soak up study time.  An item leaves
the active set once its judgment of learning clears the norm of study, and the
run's records are consolidated into knowledge at the end.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import AT_LEAST_1, NONEMPTY, NONNEG, OPEN_UNIT, POSITIVE, UNIT, ValidationError
from .experience import (ExperienceTuple, ExperienceVector, clamp01,
                         generate_experience)
from .knowledge import (KnowledgeCategory, KnowledgeItem, KnowledgeStore,
                        consolidate, retrieve_probabilistic)
from .flavell import select_cognitive_strategy
from .floats import fold_sum

BASELINE_STRATEGY_ID = "baseline-study"

log = logging.getLogger("mgv.acquisition")


def compute_norm_of_study(target_performance: float, retention_discount: float) -> float:
    """Mastery level worth studying to, padded for expected forgetting.

    Written in distributed form because the factored product drifts off
    decimal targets (0.9 * 1.1 rounds away from 0.99 in binary floats).
    """
    UNIT.check("target_performance", target_performance)
    NONNEG.check("retention_discount", retention_discount)
    return target_performance + target_performance * retention_discount


def allocate_resources(signals: dict[int, float], total: float,
                       signal_floor: float = 1e-6) -> dict[int, float]:
    """Split a budget inversely proportional to per-item mastery signals.

    Signals are clamped to [signal_floor, 1] so a zero reading cannot swallow
    the whole budget.  The allocations sum to ``total`` exactly up to float
    rounding.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    if not signals:
        return {}
    weights = {j: 1.0 / min(1.0, max(signal_floor, s)) for j, s in signals.items()}
    weight_sum = fold_sum(weights.values())
    return {j: total * w / weight_sum for j, w in weights.items()}


@dataclass
class LearnItem:
    """One thing to be learned, with a hidden difficulty the monitor can only
    sense through its signals."""

    id: int
    latent_difficulty: float
    mastery: float = 0.0

    def __post_init__(self):
        OPEN_UNIT.check("latent_difficulty", self.latent_difficulty)
        UNIT.check("mastery", self.mastery)


@dataclass
class AcquisitionConfig:
    target_performance: float
    retention_discount: float
    total_resources_per_cycle: float
    items: list[LearnItem]
    max_cycles: int
    feel_prob: float = 0.5
    jol_noise_sigma: float = 0.05
    signal_floor: float = 1e-6
    mastery_gain: float = 0.2
    task_tags: set[str] = field(default_factory=lambda: {"study"})

    def __post_init__(self):
        POSITIVE.check("total_resources_per_cycle", self.total_resources_per_cycle)
        AT_LEAST_1.check("max_cycles", self.max_cycles)
        NONEMPTY.check("items", self.items)
        if len({it.id for it in self.items}) != len(self.items):
            raise ValidationError("items", "ids must be unique")
        UNIT.check("feel_prob", self.feel_prob)
        NONNEG.check("jol_noise_sigma", self.jol_noise_sigma)
        POSITIVE.check("signal_floor", self.signal_floor)
        POSITIVE.check("mastery_gain", self.mastery_gain)


@dataclass
class AcquisitionState:
    norm_of_study: float
    active_items: set[int]
    cycle: int = 0
    jols: dict[int, float] = field(default_factory=dict)
    mastery: dict[int, float] = field(default_factory=dict)
    trace: list[ExperienceTuple] = field(default_factory=list)
    # the active set at the start of each cycle, then the final survivors
    active_history: list[frozenset[int]] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """True once every item's judgment of learning has cleared the norm."""
        return not self.active_items


def run_acquisition(config: AcquisitionConfig, store: KnowledgeStore,
                    rng) -> tuple[AcquisitionState, list[ExperienceTuple]]:
    """Study the batch until every item clears the norm or cycles run out.

    The reference learning world is linear: studying item j with resources r
    raises mastery by ``mastery_gain * r * (1 - latent_difficulty)``, capped
    at 1.  First-cycle signals are ease-of-learning feelings (1 - difficulty);
    later cycles blend current mastery with the previous judgment of learning
    through the feel/assess channel choice.  Judgments of learning observe
    mastery under Gaussian noise.
    """
    norm = compute_norm_of_study(config.target_performance, config.retention_discount)
    if norm > 1.0:
        log.warning("norm of study %.4f exceeds attainable mastery 1.0; "
                    "items may never clear it", norm)

    if BASELINE_STRATEGY_ID not in store.ltm:
        store.add(KnowledgeItem(BASELINE_STRATEGY_ID, KnowledgeCategory.STRATEGY,
                                tags=set(config.task_tags)))
    store.stm.add(BASELINE_STRATEGY_ID)
    retrieve_probabilistic(store, set(config.task_tags), rng)

    difficulty = {it.id: it.latent_difficulty for it in config.items}
    state = AcquisitionState(norm_of_study=norm, active_items=set(difficulty),
                             mastery={it.id: it.mastery for it in config.items})

    while state.active_items and state.cycle < config.max_cycles:
        cycle = state.cycle
        active = sorted(state.active_items)
        state.active_history.append(frozenset(active))

        # Monitor: one signal per active item, in fixed id order.  Each item
        # takes one uniform; drawn as one array, they are the same numbers.
        retrieve_probabilistic(store, set(config.task_tags), rng)
        vectors: dict[int, ExperienceVector] = {}
        for j, u in zip(active, rng.random(len(active)).tolist()):
            if cycle == 0:
                vec = generate_experience(1.0 - difficulty[j], None, config.feel_prob, u)
            else:
                vec = generate_experience(state.mastery[j], state.jols.get(j),
                                          config.feel_prob, u)
            vectors[j] = vec
        signals = {j: vectors[j].primary for j in active}

        # Generate: split the budget, study each item.
        allocation = allocate_resources(signals, config.total_resources_per_cycle,
                                        config.signal_floor)
        # The store does not change within a cycle and the choice ignores the
        # signal, so one choice serves every item.
        strategy_id = select_cognitive_strategy(vectors[active[0]], store.stm_items(),
                                                set(config.task_tags))
        # One judgment-of-learning noise per item, drawn as one array.
        noise = (rng.normal(0.0, config.jol_noise_sigma, len(active)).tolist()
                 if config.jol_noise_sigma > 0 else None)
        for i, j in enumerate(active):
            before = state.mastery[j]
            mastery = min(1.0, before + config.mastery_gain
                          * allocation[j] * (1.0 - difficulty[j]))

            # Verify: judge learning from the updated mastery.
            jol = mastery if noise is None else clamp01(mastery + noise[i])
            record = ExperienceTuple(
                cycle=cycle,
                experience=ExperienceVector(vectors[j].primary, jol, vectors[j].mode),
                strategy_id=strategy_id,
                resources=allocation[j],
                outcome_quality=min(1.0, mastery - before),
            )
            state.trace.append(record)
            state.jols[j] = jol
            state.mastery[j] = mastery

        # Items whose judgment clears the norm leave the active set.
        state.active_items = {j for j in active if state.jols[j] < norm}
        state.cycle = cycle + 1

    state.active_history.append(frozenset(state.active_items))
    consolidate(store, state.trace, rng)
    return state, list(state.trace)
