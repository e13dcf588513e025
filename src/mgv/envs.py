"""Reference task environments the control loops and solvers run against.

These are deliberately small synthetic worlds: a strategy-aptness table for
the main loop, a cue-statistics world for memory search, and stationary /
feature-conditioned bandit worlds for strategy selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AT_LEAST_1, NONNEG, POSITIVE, UNIT, ValidationError
from .experience import clamp01


def _clamp_signed(x: float) -> float:
    return min(1.0, max(-1.0, float(x)))


class SyntheticTaskEnvironment:
    """Scores strategies from a fixed aptness table.

    ``strategy_quality`` maps strategy id to an expected outcome in [-1, 1];
    unknown strategies fall back to ``default_quality``.  Gaussian noise and a
    fixed completeness reading are optional.
    """

    def __init__(self, strategy_quality: dict[str, float], completeness: float = 1.0,
                 noise: float = 0.0, default_quality: float = -0.5):
        UNIT.check("completeness", completeness)
        NONNEG.check("noise", noise)
        self.strategy_quality = dict(strategy_quality)
        self.completeness = completeness
        self.noise = noise
        self.default_quality = default_quality

    def execute(self, strategy_id: str, resources: float, rng) -> tuple[float, float]:
        quality = self.strategy_quality.get(strategy_id, self.default_quality)
        if self.noise > 0:
            quality += rng.normal(0.0, self.noise)
        return _clamp_signed(quality), self.completeness

    def meta_evaluate(self, outcome: float, kind) -> float:
        # All four checks agree with the base outcome in this reference world.
        return _clamp_signed(outcome)


class CueRetrievalEnvironment:
    """Cue-statistics world for memory search.

    Each glance samples ``cue_samples`` binary cue features that match the
    probe with probability ``match_prob``.  Attention accumulates matches; a
    candidate answer surfaces once ``min_matches`` cumulative matches have
    been seen (and a target exists at all).  Confidence is the cumulative
    match fraction.
    """

    def __init__(self, target: str | None, match_prob: float, cue_samples: int = 4,
                 evidence_scale: float = 0.25, min_matches: int = 6,
                 confidence_gain: float = 1.0):
        UNIT.check("match_prob", match_prob)
        AT_LEAST_1.check("cue_samples", cue_samples)
        POSITIVE.check("evidence_scale", evidence_scale)
        NONNEG.check("min_matches", min_matches)
        POSITIVE.check("confidence_gain", confidence_gain)
        self.target = target
        self.match_prob = match_prob
        self.cue_samples = cue_samples
        self.evidence_scale = evidence_scale
        self.min_matches = min_matches
        self.confidence_gain = confidence_gain
        self.cum_matches = 0
        self.cum_samples = 0

    def monitor_evidence(self, rng) -> tuple[float, float]:
        """One rapid glance: (match, mismatch) evidence scaled to a step size."""
        k = int(rng.binomial(self.cue_samples, self.match_prob))
        n = self.cue_samples
        return (k / n) * self.evidence_scale, ((n - k) / n) * self.evidence_scale

    def attend(self, multiplier: int, rng) -> int:
        """Spend attention on the cue; returns how many features were sampled."""
        n = self.cue_samples * multiplier
        self.cum_matches += int(rng.binomial(n, self.match_prob))
        self.cum_samples += n
        return n

    def search(self) -> str | None:
        if self.target is not None and self.cum_matches >= self.min_matches:
            return self.target
        return None

    def assess_confidence(self) -> float:
        if self.cum_samples == 0:
            return 0.0
        return clamp01(self.cum_matches / self.cum_samples * self.confidence_gain)


@dataclass
class StationaryBanditEnvironment:
    """Arms with fixed expected payoff and duration, observed under noise."""

    utilities: list[float]
    times: list[float]
    reward_noise: float = 0.1
    time_noise: float = 0.0

    def __post_init__(self):
        if len(self.utilities) != len(self.times):
            raise ValidationError("utilities", "utilities and times must align")
        for i, t in enumerate(self.times):
            POSITIVE.check(f"times[{i}]", t)
        NONNEG.check("reward_noise", self.reward_noise)
        NONNEG.check("time_noise", self.time_noise)

    @property
    def num_arms(self) -> int:
        return len(self.utilities)

    @property
    def feature_dim(self) -> int:
        return 1

    def features(self, rng) -> np.ndarray:
        return np.ones(1)

    def pull(self, arm: int, feats: np.ndarray, rng) -> tuple[float, float]:
        utility = self.utilities[arm]
        if self.reward_noise > 0:
            utility += rng.normal(0.0, self.reward_noise)
        elapsed = self.times[arm]
        if self.time_noise > 0:
            elapsed = max(1e-9, elapsed + rng.normal(0.0, self.time_noise))
        return float(utility), float(elapsed)

    def true_voc(self, arm: int, feats: np.ndarray, gamma: float) -> float:
        return self.utilities[arm] - gamma * self.times[arm]

    def true_vocs(self, feats: np.ndarray, gamma: float) -> np.ndarray:
        """``true_voc`` of every arm, bit for bit."""
        return np.asarray(self.utilities, dtype=float) - gamma * np.asarray(
            self.times, dtype=float)


@dataclass
class FeatureBanditEnvironment:
    """Arms whose payoff and duration are linear in per-episode features."""

    utility_weights: np.ndarray  # (num_arms, feature_dim)
    time_weights: np.ndarray
    reward_noise: float = 0.1
    time_floor: float = 0.05

    def __post_init__(self):
        self.utility_weights = np.asarray(self.utility_weights, dtype=float)
        self.time_weights = np.asarray(self.time_weights, dtype=float)
        if self.utility_weights.ndim != 2:
            raise ValidationError("utility_weights", "must be a matrix, one row per arm")
        if self.utility_weights.shape != self.time_weights.shape:
            raise ValidationError("time_weights", "must match utility_weights' shape")
        NONNEG.check("reward_noise", self.reward_noise)
        POSITIVE.check("time_floor", self.time_floor)

    @property
    def num_arms(self) -> int:
        return self.utility_weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.utility_weights.shape[1]

    def features(self, rng) -> np.ndarray:
        return rng.uniform(0.0, 1.0, size=self.feature_dim)

    def pull(self, arm: int, feats: np.ndarray, rng) -> tuple[float, float]:
        utility = float(self.utility_weights[arm] @ feats)
        if self.reward_noise > 0:
            utility += rng.normal(0.0, self.reward_noise)
        elapsed = max(self.time_floor, float(self.time_weights[arm] @ feats))
        return utility, elapsed

    def true_voc(self, arm: int, feats: np.ndarray, gamma: float) -> float:
        utility = float(self.utility_weights[arm] @ feats)
        elapsed = max(self.time_floor, float(self.time_weights[arm] @ feats))
        return utility - gamma * elapsed

    def true_vocs(self, feats: np.ndarray, gamma: float) -> np.ndarray:
        """``true_voc`` of every arm, bit for bit: one vector product per arm
        and weight row, as ``true_voc`` makes (a matrix-vector product sums
        in another order), and the floor applied as ``max`` applies it."""
        f = np.asarray(feats, dtype=float)[:, None]
        utility = np.matmul(self.utility_weights[:, None, :], f)[:, 0, 0]
        elapsed = np.matmul(self.time_weights[:, None, :], f)[:, 0, 0]
        elapsed = np.where(elapsed > self.time_floor, elapsed, self.time_floor)
        return utility - gamma * elapsed
