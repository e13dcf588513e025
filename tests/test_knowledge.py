import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgv.errors import NoCalibrationHistory
from mgv.experience import ExperienceTuple, ExperienceVector, FokCounters
from mgv.knowledge import (CalibrationRecord, KnowledgeCategory, KnowledgeItem,
                           KnowledgeStore, calibrate_thresholds, consolidate,
                           retrieve_probabilistic, update_knowledge)


def make_item(iid, tags, successes=0, failures=0,
              category=KnowledgeCategory.STRATEGY):
    return KnowledgeItem(id=iid, category=category, tags=set(tags),
                         successes=successes, failures=failures)


def record(strategy="s", quality=1.0, cycle=0, fok=None, confidence=None):
    return ExperienceTuple(cycle=cycle, experience=ExperienceVector(0.5),
                           strategy_id=strategy, resources=1.0,
                           outcome_quality=quality, fok=fok, confidence=confidence)


# --- snapshot round trip -------------------------------------------------

def test_snapshot_keys_and_round_trip():
    store = KnowledgeStore(access_prob=0.7, encoding_rate=0.3)
    item = make_item("alpha", {"t1", "t2"}, successes=2, failures=1)
    item.features = (0.1, 0.9)
    item.calibration_records.append(CalibrationRecord(0.8, 0.9, True))
    store.add(item, activate=True)
    store.add(make_item("beta", {"t3"}, category=KnowledgeCategory.TASK))
    snapshot = json.loads(store.to_json())
    assert set(snapshot) == {"access_prob", "encoding_rate", "items"}

    restored = KnowledgeStore.from_json(store.to_json())
    assert restored.access_prob == store.access_prob
    assert restored.encoding_rate == store.encoding_rate
    assert restored.stm == store.stm
    assert restored.ltm == store.ltm
    # byte-level stability of a save/load/save loop
    assert restored.to_json() == store.to_json()


@given(st.lists(st.tuples(st.sampled_from("abcdefgh"),
                          st.integers(0, 5), st.integers(0, 5)),
                max_size=8, unique_by=lambda t: t[0]))
def test_snapshot_round_trip_property(entries):
    store = KnowledgeStore(access_prob=0.5, encoding_rate=0.5)
    for i, (iid, s, f) in enumerate(entries):
        store.add(make_item(iid, {iid, "shared"}, successes=s, failures=f),
                  activate=i % 2 == 0)
    restored = KnowledgeStore.from_json(store.to_json())
    assert restored.ltm == store.ltm and restored.stm == store.stm


def test_store_rejects_stm_not_in_ltm():
    with pytest.raises(ValueError):
        KnowledgeStore(stm={"ghost"})


def test_store_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        KnowledgeStore(access_prob=1.2)
    with pytest.raises(ValueError):
        KnowledgeStore(encoding_rate=-0.1)


# --- probabilistic retrieval ---------------------------------------------

def test_retrieve_certain_access_pulls_all_matching():
    store = KnowledgeStore(access_prob=1.0)
    store.add(make_item("a", {"x"}))
    store.add(make_item("b", {"x", "y"}))
    store.add(make_item("c", {"z"}))
    added = retrieve_probabilistic(store, {"x"}, np.random.default_rng(0))
    assert added == {"a", "b"}
    assert store.stm == {"a", "b"}


def test_retrieve_zero_access_pulls_nothing():
    store = KnowledgeStore(access_prob=0.0)
    store.add(make_item("a", {"x"}))
    assert retrieve_probabilistic(store, {"x"}, np.random.default_rng(0)) == set()
    assert store.stm == set()


def test_retrieve_is_idempotent_on_second_call():
    store = KnowledgeStore(access_prob=1.0)
    store.add(make_item("a", {"x"}))
    rng = np.random.default_rng(0)
    assert retrieve_probabilistic(store, {"x"}, rng) == {"a"}
    assert retrieve_probabilistic(store, {"x"}, rng) == set()


def test_retrieve_empty_match_set_returns_empty():
    store = KnowledgeStore()
    store.add(make_item("a", {"x"}))
    assert retrieve_probabilistic(store, {"nope"}, np.random.default_rng(0)) == set()


def test_retrieve_admission_rate_tracks_access_prob():
    rng = np.random.default_rng(7)
    hits = 0
    trials = 2000
    for _ in range(trials):
        store = KnowledgeStore(access_prob=0.3)
        store.add(make_item("a", {"x"}))
        hits += len(retrieve_probabilistic(store, {"x"}, rng))
    assert hits / trials == pytest.approx(0.3, abs=0.035)


def test_retrieve_deterministic_given_seed():
    def run(seed):
        store = KnowledgeStore(access_prob=0.5)
        for iid in "abcdefgh":
            store.add(make_item(iid, {"x"}))
        retrieve_probabilistic(store, {"x"}, np.random.default_rng(seed))
        return store.stm

    assert run(3) == run(3)


# --- per-cycle updates and pruning ---------------------------------------

def test_update_counts_by_outcome_sign():
    store = KnowledgeStore()
    store.add(make_item("s", {"s"}))
    update_knowledge(store, record("s", 0.8))
    update_knowledge(store, record("s", -0.2))
    update_knowledge(store, record("s", 0.0))
    item = store.ltm["s"]
    assert (item.successes, item.failures) == (1, 1)


def test_update_creates_unknown_strategy():
    store = KnowledgeStore()
    update_knowledge(store, record("fresh", 0.5))
    assert "fresh" in store.ltm
    assert store.ltm["fresh"].category is KnowledgeCategory.STRATEGY
    assert store.ltm["fresh"].successes == 1


def test_update_prunes_past_margin_and_drops_from_stm():
    store = KnowledgeStore()
    store.add(make_item("loser", {"x"}), activate=True)
    for _ in range(5):
        update_knowledge(store, record("loser", -1.0), prune_margin=5)
    assert "loser" in store.ltm  # deficit 5 is not yet past the margin
    update_knowledge(store, record("loser", -1.0), prune_margin=5)
    assert "loser" not in store.ltm
    assert "loser" not in store.stm


def test_success_rate_is_smoothed():
    assert make_item("s", set()).success_rate() == pytest.approx(0.5)
    assert make_item("s", set(), successes=3, failures=1).success_rate() == pytest.approx(4 / 6)


# --- consolidation --------------------------------------------------------

def test_consolidate_certain_encoding_adds_everything():
    store = KnowledgeStore(encoding_rate=1.0)
    records = [record("s", 0.5, cycle=i) for i in range(3)]
    assert consolidate(store, records, np.random.default_rng(0)) == 3
    assert len(store.ltm) == 3
    for item in store.ltm.values():
        assert item.category is KnowledgeCategory.STRATEGY
        assert item.successes == 1 and item.failures == 0


def test_consolidate_zero_encoding_adds_nothing():
    store = KnowledgeStore(encoding_rate=0.0)
    assert consolidate(store, [record()], np.random.default_rng(0)) == 0
    assert not store.ltm


def test_consolidate_anonymous_records_become_task_items():
    store = KnowledgeStore()
    consolidate(store, [record(strategy="", quality=-0.5)], np.random.default_rng(0))
    (item,) = store.ltm.values()
    assert item.category is KnowledgeCategory.TASK
    assert item.failures == 1


def test_consolidate_never_overwrites_existing_ids():
    store = KnowledgeStore()
    records = [record("s", 0.5, cycle=0), record("s", -0.5, cycle=0)]
    consolidate(store, records, np.random.default_rng(0))
    assert len(store.ltm) == 2  # second record got a uniquified id


def test_consolidate_keeps_calibration_evidence():
    store = KnowledgeStore()
    rec = record("s", 0.9, fok=FokCounters(0.6, 0.2), confidence=0.8)
    consolidate(store, [rec], np.random.default_rng(0))
    (item,) = store.ltm.values()
    (cal,) = item.calibration_records
    assert cal.fok_magnitude == pytest.approx(0.8)
    assert cal.confidence == pytest.approx(0.8)
    assert cal.was_correct


def test_consolidate_rate_tracks_encoding_rate():
    rng = np.random.default_rng(11)
    total = 0
    for _ in range(500):
        store = KnowledgeStore(encoding_rate=0.4)
        total += consolidate(store, [record(cycle=i) for i in range(4)], rng)
    assert total / 2000 == pytest.approx(0.4, abs=0.03)


def reference_consolidate(store, records, rng):
    """Consolidation with the original id probe: every record walks its base's
    suffixes from ``base`` itself, so it is quadratic in records per base."""
    encoded = 0
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
        item_id, n = base, 1
        while item_id in store.ltm:
            n += 1
            item_id = f"{base}-{n}"
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


def seeded_consolidation_store(encoding_rate):
    """A store that already holds ``s-c0``, ``s-c0-2`` and ``s-c0-4`` (a gap at
    3), plus ``episode-c1`` and an item in working memory."""
    store = KnowledgeStore(encoding_rate=encoding_rate)
    for iid in ("s-c0", "s-c0-2", "s-c0-4", "episode-c1", "t-c2-3"):
        store.add(make_item(iid, {"x"}), activate=iid == "s-c0")
    return store


def mixed_records(seed, count=80):
    """Records over a few strategy ids (one anonymous) and cycles, so bases
    repeat, interleave and meet the pre-seeded ids; some carry calibration."""
    draw = np.random.default_rng(seed)
    records = []
    for _ in range(count):
        strategy = ("s", "t", "", "s-c0")[draw.integers(4)]
        quality = float(draw.choice([-0.5, 0.0, 0.5]))
        calibrated = draw.random() < 0.3
        records.append(record(strategy, quality, cycle=int(draw.integers(3)),
                              fok=FokCounters(0.4, 0.1) if calibrated else None,
                              confidence=0.7 if calibrated else None))
    return records


@pytest.mark.parametrize("encoding_rate", [0.5, 1.0])
@pytest.mark.parametrize("seed", range(5))
def test_consolidate_matches_the_full_probe_reference(encoding_rate, seed):
    """Ids, categories, counters, calibration records, insertion order, the
    encoded count and the generator's state all equal the reference's."""
    records = mixed_records(seed)
    got, want = (seeded_consolidation_store(encoding_rate) for _ in range(2))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert consolidate(got, records, got_rng) == reference_consolidate(want, records, want_rng)
    assert list(got.ltm.items()) == list(want.ltm.items())
    assert got.stm == want.stm
    assert got_rng.random() == want_rng.random()
    # a second call into the same store starts its probes afresh
    more = mixed_records(seed + 100, count=20)
    assert consolidate(got, more, got_rng) == reference_consolidate(want, more, want_rng)
    assert list(got.ltm.items()) == list(want.ltm.items())


class CountingLtm(dict):
    """A long-term store that counts membership probes."""

    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def test_consolidate_probes_each_shared_base_at_most_twice_per_record():
    """An acquire cycle's 60 records share one base: 60 probes, not 1 + 2 + ... + 60."""
    store = KnowledgeStore()
    store.ltm = CountingLtm()
    records = [record("baseline-study", 0.5, cycle=7) for _ in range(60)]
    assert consolidate(store, records, np.random.default_rng(0)) == 60
    assert list(store.ltm) == ["baseline-study-c7"] + [f"baseline-study-c7-{n}"
                                                      for n in range(2, 61)]
    assert store.ltm.probes <= 2 * 60


# --- threshold calibration ------------------------------------------------

def test_calibrate_takes_medians_over_correct_records():
    store = KnowledgeStore()
    item = make_item("a", set())
    item.calibration_records = [
        CalibrationRecord(0.2, 0.3, True),
        CalibrationRecord(0.6, 0.5, True),
        CalibrationRecord(1.0, 0.9, True),
        CalibrationRecord(5.0, 1.0, False),  # wrong outputs are ignored
    ]
    store.add(item, activate=True)
    assert calibrate_thresholds(store) == (0.6, 0.5)


def test_calibrate_even_count_uses_midpoint():
    store = KnowledgeStore()
    item = make_item("a", set())
    item.calibration_records = [CalibrationRecord(0.2, 0.4, True),
                                CalibrationRecord(0.4, 0.8, True)]
    store.add(item, activate=True)
    fok, conf = calibrate_thresholds(store)
    assert fok == pytest.approx(0.3)
    assert conf == pytest.approx(0.6)


def test_calibrate_ignores_items_outside_stm():
    store = KnowledgeStore()
    item = make_item("a", set())
    item.calibration_records = [CalibrationRecord(0.2, 0.4, True)]
    store.add(item, activate=False)
    with pytest.raises(NoCalibrationHistory):
        calibrate_thresholds(store)


def test_calibrate_without_history_raises():
    with pytest.raises(NoCalibrationHistory):
        calibrate_thresholds(KnowledgeStore())
