import copy
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgv.envs import CueRetrievalEnvironment
from mgv.experience import FokCounters
from mgv.knowledge import (CalibrationRecord, KnowledgeCategory, KnowledgeItem,
                           KnowledgeStore, consolidate)
from mgv.retrieval import (OutputDecision, RetrievalConfig, SearchIntensity,
                           decide_output, run_retrieval, satisficing_factor,
                           search_intensity, update_thresholds)


# --- search intensity -------------------------------------------------------

def intensity_oracle(plus, minus, lam):
    # written straight from the three-way case split, independently of the
    # implementation's branch order
    if plus + minus < lam:
        return SearchIntensity.INTENSIVE
    if plus > minus:
        return SearchIntensity.STANDARD
    return SearchIntensity.TERMINATE


def test_intensity_exhaustive_grid():
    values = [round(0.05 * i, 2) for i in range(21)]  # 0.00 .. 1.00
    lambdas = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5]
    for plus in values:
        for minus in values:
            for lam in lambdas:
                got = search_intensity(FokCounters(plus, minus), lam)
                assert got is intensity_oracle(plus, minus, lam), (plus, minus, lam)


def test_intensity_weak_feeling_is_intensive_regardless_of_direction():
    assert search_intensity(FokCounters(0.0, 0.3), 0.5) is SearchIntensity.INTENSIVE
    assert search_intensity(FokCounters(0.3, 0.0), 0.5) is SearchIntensity.INTENSIVE


def test_intensity_tie_at_or_above_threshold_terminates():
    assert search_intensity(FokCounters(0.5, 0.5), 0.5) is SearchIntensity.TERMINATE


# --- satisficing ------------------------------------------------------------

def test_satisficing_factor_values():
    assert satisficing_factor(0, 0, 0.1) == 1.0
    assert satisficing_factor(3, 2, 0.1) == pytest.approx(math.exp(-0.5))
    assert satisficing_factor(5, 0, 0.0) == 1.0


@given(st.integers(0, 50), st.integers(0, 50), st.floats(0, 2))
def test_satisficing_factor_bounds_and_monotonicity(cycle, failed, rate):
    f = satisficing_factor(cycle, failed, rate)
    assert 0.0 < f <= 1.0
    assert satisficing_factor(cycle + 1, failed, rate) <= f


def test_update_thresholds_scales_both():
    lf, lc = update_thresholds(0.8, 0.6, 0.5)
    assert lf == pytest.approx(0.4)
    assert lc == pytest.approx(0.3)


# --- output decision --------------------------------------------------------

def test_decide_output_cases():
    fok_pos = FokCounters(0.6, 0.2)
    fok_neg = FokCounters(0.2, 0.6)
    assert decide_output("ans", 0.9, 0.8, fok_pos) is OutputDecision.OUTPUT
    assert decide_output("ans", 0.7, 0.8, fok_pos) is OutputDecision.CONTINUE
    assert decide_output(None, 0.0, 0.8, fok_pos) is OutputDecision.CONTINUE
    assert decide_output(None, 0.0, 0.8, fok_neg) is OutputDecision.OUTPUT_NULL
    # a dead tie without an answer concedes
    assert decide_output(None, 0.0, 0.8, FokCounters(0.3, 0.3)) is OutputDecision.OUTPUT_NULL


def test_decide_output_threshold_boundary_emits():
    assert decide_output("ans", 0.8, 0.8, FokCounters(1, 0)) is OutputDecision.OUTPUT


# --- full runs --------------------------------------------------------------

def run_with(match_prob, target="answer", rate=0.1, lam_fok=0.5, lam_conf=0.5,
             seed=0, max_cycles=25, min_matches=6, compound=False, store=None):
    env = CueRetrievalEnvironment(target=target, match_prob=match_prob,
                                  min_matches=min_matches)
    cfg = RetrievalConfig(satisficing_rate=rate, default_lambda_fok=lam_fok,
                          default_lambda_confidence=lam_conf,
                          max_cycles=max_cycles, compound_decay=compound)
    return run_retrieval({"probe"}, store or KnowledgeStore(), env, cfg,
                         np.random.default_rng(seed))


def test_perfect_match_outputs_first_cycle():
    result, trace = run_with(match_prob=1.0)
    assert result.decision == "output"
    assert result.answer == "answer"
    assert result.cycles == 1
    assert trace[0].confidence == 1.0


def test_pure_mismatch_outputs_null_once_minus_dominates():
    result, trace = run_with(match_prob=0.0, target=None, lam_fok=0.5)
    # first glance is all mismatch: magnitude 0.25 < 0.5 so search runs once,
    # finds nothing, and the dominant minus counter concedes
    assert result.decision == "output_null"
    assert result.answer is None
    assert result.cycles == 1
    assert result.fok.minus > result.fok.plus


def test_mismatch_with_low_threshold_terminates_without_search():
    result, trace = run_with(match_prob=0.0, target=None, lam_fok=0.1)
    assert result.decision == "terminate"
    assert result.cycles == 0 and trace == []


def test_satisficing_accepts_mediocre_candidate_under_high_rate():
    # candidate surfaces with confidence ~0.6 < 0.9, but alpha = 5 collapses
    # the confidence bar after one failed attempt
    result, trace = run_with(match_prob=0.6, rate=5.0, lam_conf=0.9,
                             min_matches=1, seed=3)
    assert result.decision == "output"
    assert result.cycles >= 2


def test_exhausted_when_nothing_resolves():
    # missing target but match-dominant cues: keeps searching to the budget
    result, trace = run_with(match_prob=1.0, target=None, rate=0.0, max_cycles=8)
    assert result.decision == "exhausted"
    assert result.cycles == 8 and len(trace) == 8


def test_every_executed_cycle_appends_a_record():
    result, trace = run_with(match_prob=0.8, rate=0.2, seed=11)
    assert len(trace) == result.cycles
    assert [t.cycle for t in trace] == list(range(len(trace)))
    for t in trace:
        assert t.fok is not None
        assert t.strategy_id.startswith("attend-")


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.2])
def test_threshold_history_is_base_times_decay(alpha):
    # no target but match-dominant cues: every cycle searches, fails, and
    # decays, so the burden after cycle tau is tau + (tau + 1) failed attempts
    env = CueRetrievalEnvironment(target=None, match_prob=1.0)
    cfg = RetrievalConfig(satisficing_rate=alpha, default_lambda_fok=0.7,
                          default_lambda_confidence=0.4, max_cycles=12)
    result, trace = run_retrieval({"q"}, KnowledgeStore(), env, cfg,
                                  np.random.default_rng(2))
    assert result.decision == "exhausted" and len(trace) == 12
    for tau, (lam_fok, lam_conf) in enumerate(result.threshold_history):
        burden = tau + (tau + 1)
        assert lam_fok == pytest.approx(0.7 * math.exp(-alpha * burden), abs=1e-12)
        assert lam_conf == pytest.approx(0.4 * math.exp(-alpha * burden), abs=1e-12)
    fs = [f for f, _ in result.threshold_history]
    assert fs == sorted(fs, reverse=True)  # monotone nonincreasing
    assert result.lambda_fok == fs[-1]


def test_compound_decay_shrinks_faster():
    kw = dict(match_prob=1.0, target=None, rate=0.3, max_cycles=6)
    plain, _ = run_with(**kw, compound=False)
    compound, _ = run_with(**kw, compound=True)
    assert compound.lambda_confidence < plain.lambda_confidence


def test_calibrated_thresholds_come_from_store():
    store = KnowledgeStore()
    item = KnowledgeItem("memo", KnowledgeCategory.TASK, tags={"probe"})
    item.calibration_records = [CalibrationRecord(0.9, 0.95, True)]
    store.add(item)
    # rate 0 keeps thresholds at their calibrated base
    result, _ = run_with(match_prob=1.0, rate=0.0, store=store)
    assert result.lambda_fok == pytest.approx(0.9)
    assert result.lambda_confidence == pytest.approx(0.95)


def test_run_leaves_long_term_memory_as_seeded():
    """Consolidating is the caller's step: the run adds no long-term item,
    and ``consolidate`` afterwards encodes one per record."""
    store = KnowledgeStore()
    item = KnowledgeItem("memo", KnowledgeCategory.TASK, tags={"probe"})
    item.calibration_records = [CalibrationRecord(0.9, 0.95, True)]
    store.add(item)
    store.add(KnowledgeItem("attend-standard-c0", KnowledgeCategory.STRATEGY,
                            tags={"attend-standard"}, successes=2))
    seeded = copy.deepcopy(store.ltm)
    env = CueRetrievalEnvironment(target="answer", match_prob=0.6, min_matches=6)
    rng = np.random.default_rng(5)
    _, trace = run_retrieval({"probe"}, store, env, RetrievalConfig(max_cycles=8), rng)
    assert trace and list(store.ltm.items()) == list(seeded.items())
    assert consolidate(store, trace, rng) == len(trace)
    assert len(store.ltm) == len(seeded) + len(trace)


def test_run_halts_within_max_cycles():
    result, trace = run_with(match_prob=0.5, target=None, rate=0.0, max_cycles=5)
    assert result.cycles <= 5


def test_retrieval_deterministic_for_seed():
    def once():
        result, trace = run_with(match_prob=0.7, rate=0.1, seed=13)
        return result.to_dict(), [t.to_dict() for t in trace]

    assert once() == once()


def test_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(satisficing_rate=-0.1)
    with pytest.raises(ValueError):
        RetrievalConfig(default_lambda_confidence=1.5)
    with pytest.raises(ValueError):
        RetrievalConfig(max_cycles=0)
