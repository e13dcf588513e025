"""Memory search with satisficing: dual-counter evidence, decaying thresholds.

Each cycle glances at the cue, folds the evidence into feeling-of-knowing
counters, and sets search intensity: weak feelings trigger intensive search,
match-dominant feelings standard search, mismatch-dominant feelings stop the
attempt.  Candidates are output once confidence clears a threshold that decays
as cycles and failed attempts pile up, so the searcher settles for less the
longer it struggles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import AT_LEAST_1, NONNEG, OPEN_UNIT, POSITIVE, NoCalibrationHistory
from .experience import (ExperienceTuple, ExperienceVector, FokCounters,
                         clamp01, fok_dual)
from .knowledge import (KnowledgeStore, calibrate_thresholds, consolidate,
                        retrieve_probabilistic)


class SearchIntensity(Enum):
    INTENSIVE = "intensive"
    STANDARD = "standard"
    TERMINATE = "terminate"


class OutputDecision(Enum):
    OUTPUT = "output"
    CONTINUE = "continue"
    OUTPUT_NULL = "output_null"


@dataclass
class RetrievalConfig:
    satisficing_rate: float = 0.1
    default_lambda_fok: float = 0.5
    default_lambda_confidence: float = 0.5
    max_cycles: int = 25
    # When set, thresholds decay from their previous value instead of the
    # calibrated base, compounding the satisficing factor.
    compound_decay: bool = False

    def __post_init__(self):
        NONNEG.check("satisficing_rate", self.satisficing_rate)
        POSITIVE.check("default_lambda_fok", self.default_lambda_fok)
        OPEN_UNIT.check("default_lambda_confidence", self.default_lambda_confidence)
        AT_LEAST_1.check("max_cycles", self.max_cycles)


@dataclass
class RetrievalResult:
    decision: str  # "output" | "output_null" | "terminate" | "exhausted"
    answer: str | None
    cycles: int
    lambda_fok: float
    lambda_confidence: float
    fok: FokCounters
    # post-decay (fok, confidence) thresholds after each executed cycle
    threshold_history: list[tuple[float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "decision": self.decision,
            "answer": self.answer,
            "cycles": self.cycles,
            "final_thresholds": {"fok": self.lambda_fok,
                                 "confidence": self.lambda_confidence},
            "fok": self.fok.to_dict(),
        }


def search_intensity(fok: FokCounters, lambda_fok: float) -> SearchIntensity:
    """Map the current feeling to a search effort level.

    A feeling weaker than the threshold calls for intensive search regardless
    of direction; otherwise match-dominance continues at standard effort and
    anything else (mismatch-dominant or dead ties) stops the attempt.
    """
    if fok.magnitude < lambda_fok:
        return SearchIntensity.INTENSIVE
    if fok.plus > fok.minus:
        return SearchIntensity.STANDARD
    return SearchIntensity.TERMINATE


def satisficing_factor(cycle: int, failed_attempts: int, rate: float) -> float:
    """exp(-rate * burden) where burden counts cycles plus failed attempts."""
    if cycle < 0 or failed_attempts < 0:
        raise ValueError("cycle and failed_attempts must be nonnegative")
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    return math.exp(-rate * (cycle + failed_attempts))


def update_thresholds(lambda_fok: float, lambda_confidence: float,
                      factor: float) -> tuple[float, float]:
    return lambda_fok * factor, lambda_confidence * factor


def decide_output(answer: str | None, confidence: float,
                  lambda_confidence: float, fok: FokCounters) -> OutputDecision:
    """Commission/omission rule for one cycle's candidate.

    A candidate is emitted once confidence clears the threshold; with no
    candidate, a match-dominant feeling keeps searching while anything else
    concedes the answer is not there.
    """
    if answer is not None:
        if confidence >= lambda_confidence:
            return OutputDecision.OUTPUT
        return OutputDecision.CONTINUE
    if fok.plus > fok.minus:
        return OutputDecision.CONTINUE
    return OutputDecision.OUTPUT_NULL


def run_retrieval(query: set[str], store: KnowledgeStore, env,
                  config: RetrievalConfig,
                  rng) -> tuple[RetrievalResult, list[ExperienceTuple]]:
    """Search memory for the query until output, give-up, or cycle budget.

    Thresholds start from the calibrated medians of remembered correct
    outputs when working memory has any, otherwise from the config defaults.
    Every executed cycle appends a record -- including the final one -- and
    re-decays both thresholds from their base by the satisficing factor.
    ``env`` is consulted for cue glances (``monitor_evidence``), attention
    (``attend``), candidates (``search``) and confidence (``assess_confidence``).
    """
    retrieve_probabilistic(store, query, rng)
    try:
        base_fok, base_conf = calibrate_thresholds(store)
    except NoCalibrationHistory:
        base_fok, base_conf = config.default_lambda_fok, config.default_lambda_confidence

    lambda_fok, lambda_confidence = base_fok, base_conf
    failed_attempts = 0
    fok = FokCounters()
    output = None
    trace: list[ExperienceTuple] = []
    threshold_history: list[tuple[float, float]] = []
    decision_kind = "exhausted"

    for tau in range(config.max_cycles):
        # Monitor: a rapid cue glance feeds the feeling-of-knowing counters.
        retrieve_probabilistic(store, query, rng)
        match_ev, mismatch_ev = env.monitor_evidence(rng)
        fok = fok_dual(match_ev, mismatch_ev, fok)
        intensity = search_intensity(fok, lambda_fok)
        if intensity is SearchIntensity.TERMINATE:
            decision_kind = "terminate"
            break

        # Generate: attend to the cue at the chosen intensity, then search.
        multiplier = 2 if intensity is SearchIntensity.INTENSIVE else 1
        samples = env.attend(multiplier, rng)
        answer = env.search()

        # Verify: judge the candidate, record the cycle, decay thresholds.
        confidence = env.assess_confidence() if answer is not None else 0.0
        decision = decide_output(answer, confidence, lambda_confidence, fok)
        trace.append(ExperienceTuple(
            cycle=tau,
            experience=ExperienceVector(clamp01(fok.magnitude),
                                        confidence if answer is not None else None),
            strategy_id=f"attend-{intensity.value}",
            resources=float(samples),
            outcome_quality=(2.0 * confidence - 1.0) if answer is not None else -1.0,
            fok=fok,
            confidence=confidence if answer is not None else None,
        ))

        if answer is None or confidence < lambda_confidence:
            failed_attempts += 1
        factor = satisficing_factor(tau, failed_attempts, config.satisficing_rate)
        base = (lambda_fok, lambda_confidence) if config.compound_decay else (base_fok, base_conf)
        lambda_fok, lambda_confidence = update_thresholds(*base, factor)
        threshold_history.append((lambda_fok, lambda_confidence))

        if decision is OutputDecision.OUTPUT:
            output = answer
            decision_kind = "output"
            break
        if decision is OutputDecision.OUTPUT_NULL:
            decision_kind = "output_null"
            break

    consolidate(store, trace, rng)
    result = RetrievalResult(decision_kind, output, len(trace), lambda_fok,
                             lambda_confidence, fok, threshold_history)
    return result, trace
