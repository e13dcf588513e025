"""Online metacognitive signals: experience vectors, dual-counter feelings of knowing.

An experience is either a raw feeling read directly off the task surface or a
knowledge-based assessment recalled from the store -- never a blend of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ExperienceMode(Enum):
    FEEL = "feel"
    ASSESS = "assess"


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, float(x)))


@dataclass
class ExperienceVector:
    """A monitoring signal in [0, 1] plus the channel it came through.

    ``primary`` is the difficulty/familiarity reading; ``secondary`` is filled
    in later by verification (judgment of learning, evaluative signal) and may
    be absent.
    """

    primary: float
    secondary: float | None = None
    mode: ExperienceMode = ExperienceMode.FEEL

    def __post_init__(self):
        if not 0.0 <= self.primary <= 1.0:
            raise ValueError(f"primary {self.primary} outside [0, 1]")
        if self.secondary is not None and not 0.0 <= self.secondary <= 1.0:
            raise ValueError(f"secondary {self.secondary} outside [0, 1]")

    def to_dict(self) -> dict:
        return {"primary": self.primary, "secondary": self.secondary, "mode": self.mode.value}


@dataclass
class FokCounters:
    """Feeling-of-knowing evidence split into match and mismatch tallies.

    The strength of the feeling is the total evidence seen (L1 magnitude);
    its direction is whichever counter dominates.
    """

    plus: float = 0.0
    minus: float = 0.0

    def __post_init__(self):
        if self.plus < 0 or self.minus < 0:
            raise ValueError("counters must be nonnegative")

    @property
    def magnitude(self) -> float:
        return self.plus + self.minus

    def to_dict(self) -> dict:
        return {"plus": self.plus, "minus": self.minus}


def fok_dual(match_evidence: float, mismatch_evidence: float,
             counters: FokCounters | None = None) -> FokCounters:
    """Accumulate one glance of cue evidence into (a copy of) the counters."""
    if match_evidence < 0 or mismatch_evidence < 0:
        raise ValueError("evidence must be nonnegative")
    base = counters or FokCounters()
    return FokCounters(base.plus + match_evidence, base.minus + mismatch_evidence)


def generate_experience(raw_signal: float, knowledge_assessment: float | None,
                        feel_prob: float, uniform: float) -> ExperienceVector:
    """Produce one monitoring signal through exactly one channel.

    The raw task-surface signal is used as-is when ``uniform``, a draw from
    [0, 1), falls below ``feel_prob``; otherwise the knowledge-based
    assessment is used when one exists, falling back to the raw feeling when
    it does not.  The caller draws ``uniform`` on every call, so run
    reproducibility does not depend on which branch fires.
    """
    if not 0.0 <= feel_prob <= 1.0:
        raise ValueError(f"feel_prob {feel_prob} outside [0, 1]")
    primary, mode = experience_channel(raw_signal, knowledge_assessment, feel_prob, uniform)
    return ExperienceVector(primary, mode=mode)


def experience_channel(raw_signal: float, knowledge_assessment: float | None,
                       feel_prob: float, uniform: float) -> tuple[float, ExperienceMode]:
    """The (primary, mode) ``generate_experience`` builds its vector from,
    for callers that check ``feel_prob`` once and build their own vector."""
    if uniform < feel_prob or knowledge_assessment is None:
        return clamp01(raw_signal), ExperienceMode.FEEL
    return clamp01(knowledge_assessment), ExperienceMode.ASSESS


@dataclass
class ExperienceTuple:
    """One cycle's record: what was felt, what was tried, what came of it."""

    cycle: int
    experience: ExperienceVector
    strategy_id: str
    resources: float
    outcome_quality: float
    fok: FokCounters | None = None
    confidence: float | None = None

    def __post_init__(self):
        if self.cycle < 0:
            raise ValueError("cycle must be nonnegative")
        if self.resources < 0:
            raise ValueError("resources must be nonnegative")
        if not -1.0 <= self.outcome_quality <= 1.0:
            raise ValueError(f"outcome_quality {self.outcome_quality} outside [-1, 1]")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")

    def to_dict(self) -> dict:
        d = {
            "cycle": self.cycle,
            "experience": self.experience.to_dict(),
            "strategy_id": self.strategy_id,
            "resources": self.resources,
            "outcome_quality": self.outcome_quality,
        }
        if self.fok is not None:
            d["fok"] = self.fok.to_dict()
        if self.confidence is not None:
            d["confidence"] = self.confidence
        return d
