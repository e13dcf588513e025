"""Long-term knowledge with a small activated working set.

Items live permanently in the long-term store and are promoted into working
memory probabilistically when a query shares tags with them.  Episode records
are folded back in two ways: immediate per-cycle updates to strategy win/loss
counters, and end-of-run consolidation that may encode whole episodes as new
items (each with probability ``encoding_rate``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from statistics import median

from .errors import UNIT, NoCalibrationHistory
from .experience import ExperienceTuple


class KnowledgeCategory(Enum):
    AGENT = "agent"
    TASK = "task"
    STRATEGY = "strategy"
    META_STRATEGY = "meta_strategy"


@dataclass
class CalibrationRecord:
    """One remembered accuracy check: how strong the feeling was, how confident
    the verdict was, and whether the output turned out correct."""

    fok_magnitude: float
    confidence: float
    was_correct: bool

    def __post_init__(self):
        if self.fok_magnitude < 0:
            raise ValueError("fok_magnitude must be nonnegative")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "fok_magnitude": self.fok_magnitude,
            "confidence": self.confidence,
            "was_correct": self.was_correct,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationRecord":
        return cls(d["fok_magnitude"], d["confidence"], d["was_correct"])


@dataclass
class KnowledgeItem:
    id: str
    category: KnowledgeCategory
    tags: set[str] = field(default_factory=set)
    features: tuple[float, ...] = ()
    successes: int = 0
    failures: int = 0
    calibration_records: list[CalibrationRecord] = field(default_factory=list)

    def __post_init__(self):
        if not self.id:
            raise ValueError("item id must be non-empty")
        if self.successes < 0 or self.failures < 0:
            raise ValueError("counters must be nonnegative")

    def success_rate(self) -> float:
        """Add-one smoothed win rate; an untried item scores 0.5."""
        return (self.successes + 1) / (self.successes + self.failures + 2)

    def to_dict(self, in_stm: bool = False) -> dict:
        return {
            "id": self.id,
            "category": self.category.value,
            "tags": sorted(self.tags),
            "features": list(self.features),
            "successes": self.successes,
            "failures": self.failures,
            "calibration_records": [r.to_dict() for r in self.calibration_records],
            "in_stm": in_stm,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KnowledgeItem":
        return cls(
            id=d["id"],
            category=KnowledgeCategory(d["category"]),
            tags=set(d.get("tags", ())),
            features=tuple(d.get("features", ())),
            successes=d.get("successes", 0),
            failures=d.get("failures", 0),
            calibration_records=[CalibrationRecord.from_dict(r)
                                 for r in d.get("calibration_records", ())],
        )


@dataclass
class KnowledgeStore:
    """Long-term item map plus the set of item ids currently in working memory.

    ``access_prob`` governs promotion into working memory on retrieval;
    ``encoding_rate`` governs whether an episode survives consolidation.
    """

    ltm: dict[str, KnowledgeItem] = field(default_factory=dict)
    stm: set[str] = field(default_factory=set)
    access_prob: float = 1.0
    encoding_rate: float = 1.0

    def __post_init__(self):
        UNIT.check("access_prob", self.access_prob)
        UNIT.check("encoding_rate", self.encoding_rate)
        missing = self.stm - set(self.ltm)
        if missing:
            raise ValueError(f"stm ids not in ltm: {sorted(missing)}")

    def add(self, item: KnowledgeItem, activate: bool = False) -> None:
        self.ltm[item.id] = item
        if activate:
            self.stm.add(item.id)

    def stm_items(self) -> list[KnowledgeItem]:
        """Working-memory items in id order (stable across runs)."""
        return [self.ltm[i] for i in sorted(self.stm)]

    def to_json(self) -> str:
        snapshot = {
            "access_prob": self.access_prob,
            "encoding_rate": self.encoding_rate,
            "items": [self.ltm[i].to_dict(in_stm=i in self.stm) for i in sorted(self.ltm)],
        }
        return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "KnowledgeStore":
        snapshot = json.loads(text)
        store = cls(access_prob=snapshot["access_prob"],
                    encoding_rate=snapshot["encoding_rate"])
        for d in snapshot["items"]:
            store.add(KnowledgeItem.from_dict(d), activate=d.get("in_stm", False))
        return store


def retrieve_probabilistic(store: KnowledgeStore, query: set[str], rng) -> set[str]:
    """Promote tag-matching long-term items into working memory.

    Every matching item not already active is admitted independently with
    probability ``store.access_prob``.  Items are visited in id order so the
    random draws line up across identical runs.  Returns the ids newly added.
    """
    added: set[str] = set()
    for item_id in sorted(store.ltm):
        if item_id in store.stm:
            continue
        item = store.ltm[item_id]
        if not (item.tags & query):
            continue
        if rng.random() < store.access_prob:
            store.stm.add(item_id)
            added.add(item_id)
    return added


def update_knowledge(store: KnowledgeStore, record: ExperienceTuple,
                     prune_margin: int = 5,
                     category: KnowledgeCategory = KnowledgeCategory.STRATEGY) -> KnowledgeStore:
    """Fold one cycle's outcome into the referenced strategy's counters.

    A strategy id not yet in the store is created on the spot.  Positive
    outcomes count as successes, negative ones as failures, zero leaves the
    counters alone.  Afterwards any item whose failures exceed its successes
    by more than ``prune_margin`` is dropped from both stores.
    """
    sid = record.strategy_id
    if sid:
        item = store.ltm.get(sid)
        if item is None:
            item = KnowledgeItem(id=sid, category=category, tags={sid})
            store.ltm[sid] = item
        if record.outcome_quality > 0:
            item.successes += 1
        elif record.outcome_quality < 0:
            item.failures += 1
    doomed = [iid for iid, it in store.ltm.items()
              if it.failures - it.successes > prune_margin]
    for iid in doomed:
        del store.ltm[iid]
        store.stm.discard(iid)
    return store


def consolidate(store: KnowledgeStore, records: list[ExperienceTuple], rng) -> int:
    """Encode episode records as fresh long-term items, each surviving with
    probability ``store.encoding_rate``.  Returns how many were encoded.

    Records naming a strategy become strategy items; anonymous ones become
    task items.  Outcome sign seeds the win/loss counters, and records that
    carry both a feeling-of-knowing and a confidence leave a calibration
    record behind for later threshold setting.

    An id is its base, or ``base-<n>`` for the smallest free n >= 2.  A call
    only adds ids, so each base's probe resumes past the id it last took.
    """
    encoded = 0
    next_suffix: dict[str, int] = {}
    for rec in records:
        if rng.random() >= store.encoding_rate:
            continue
        if rec.strategy_id:
            base = f"{rec.strategy_id}-c{rec.cycle}"
            category = KnowledgeCategory.STRATEGY
            tags = {rec.strategy_id}
        else:
            base = f"episode-c{rec.cycle}"
            category = KnowledgeCategory.TASK
            tags = {"episode"}
        n = next_suffix.get(base, 1)
        item_id = base if n == 1 else f"{base}-{n}"
        while item_id in store.ltm:
            n += 1
            item_id = f"{base}-{n}"
        next_suffix[base] = n + 1
        item = KnowledgeItem(
            id=item_id,
            category=category,
            tags=tags,
            successes=1 if rec.outcome_quality > 0 else 0,
            failures=1 if rec.outcome_quality < 0 else 0,
        )
        if rec.fok is not None and rec.confidence is not None:
            item.calibration_records.append(CalibrationRecord(
                rec.fok.magnitude, rec.confidence, rec.outcome_quality > 0))
        store.ltm[item_id] = item
        encoded += 1
    return encoded


def calibrate_thresholds(store: KnowledgeStore) -> tuple[float, float]:
    """Medians of feeling strength and confidence over remembered correct
    outputs in working memory.  Raises when no such history is active."""
    magnitudes, confidences = [], []
    for item in store.stm_items():
        for rec in item.calibration_records:
            if rec.was_correct:
                magnitudes.append(rec.fok_magnitude)
                confidences.append(rec.confidence)
    if not magnitudes:
        raise NoCalibrationHistory("no successful calibration records in working memory")
    return float(median(magnitudes)), float(median(confidences))
