import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgv import acquisition
from mgv.acquisition import (AcquisitionConfig, LearnItem, allocate_resources,
                             compute_norm_of_study, run_acquisition)
from mgv.errors import NoApplicableStrategy
from mgv.experience import ExperienceTuple, ExperienceVector, clamp01, generate_experience
from mgv.flavell import select_cognitive_strategy
from mgv.knowledge import (KnowledgeCategory, KnowledgeItem, KnowledgeStore, consolidate,
                           retrieve_probabilistic)


# --- norm of study ----------------------------------------------------------

def test_norm_of_study_worked_numbers_exact():
    assert compute_norm_of_study(0.9, 0.2) == 1.08
    assert compute_norm_of_study(0.9, 0.1) == 0.99


def test_norm_of_study_zero_discount_is_identity():
    assert compute_norm_of_study(0.75, 0.0) == 0.75


@given(st.floats(0, 1), st.floats(0, 3))
def test_norm_of_study_matches_inflation_formula(rho, delta):
    assert compute_norm_of_study(rho, delta) == pytest.approx(rho * (1 + delta), rel=1e-12)


def test_norm_of_study_validation():
    with pytest.raises(ValueError):
        compute_norm_of_study(1.5, 0.1)
    with pytest.raises(ValueError):
        compute_norm_of_study(0.5, -0.1)


# --- allocation -------------------------------------------------------------

def test_allocation_matches_hand_computation():
    # weights 1/0.2 = 5 and 1/0.8 = 1.25 -> shares 0.8 and 0.2 of the budget
    alloc = allocate_resources({0: 0.2, 1: 0.8}, total=10.0)
    assert alloc[0] == pytest.approx(8.0)
    assert alloc[1] == pytest.approx(2.0)


def test_allocation_equal_signals_split_evenly():
    alloc = allocate_resources({j: 0.4 for j in range(5)}, total=5.0)
    for share in alloc.values():
        assert share == pytest.approx(1.0)


def test_allocation_sums_to_total_and_inversely_ordered():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        signals = {j: float(rng.uniform(0.01, 1.0)) for j in range(n)}
        total = float(rng.uniform(0.1, 50.0))
        alloc = allocate_resources(signals, total)
        assert sum(alloc.values()) == pytest.approx(total, abs=1e-9)
        ranked = sorted(signals, key=signals.get)
        for a, b in zip(ranked, ranked[1:]):
            if signals[a] < signals[b]:
                assert alloc[a] > alloc[b]


def test_allocation_floor_caps_the_extremes():
    alloc = allocate_resources({0: 0.0, 1: 1.0}, total=1.0, signal_floor=1e-6)
    # the zero signal is treated as the floor, not as infinitely needy
    assert alloc[0] < 1.0
    assert alloc[0] + alloc[1] == pytest.approx(1.0)
    assert alloc[0] / alloc[1] == pytest.approx(1e6)


def test_allocation_empty_map_and_bad_total():
    assert allocate_resources({}, 5.0) == {}
    with pytest.raises(ValueError):
        allocate_resources({0: 0.5}, -1.0)


# --- the study loop ---------------------------------------------------------

def one_item_config(difficulty=0.5, target=0.8, discount=0.0, gain=0.2,
                    budget=1.0, max_cycles=50, mastery=0.0, sigma=0.0):
    return AcquisitionConfig(
        target_performance=target, retention_discount=discount,
        total_resources_per_cycle=budget,
        items=[LearnItem(0, difficulty, mastery)],
        max_cycles=max_cycles, jol_noise_sigma=sigma)


def closed_form_cycles(m0, difficulty, gain, budget, norm, max_cycles):
    """Independent oracle: iterate the mastery recurrence directly."""
    m, cycles = m0, 0
    while m < norm and cycles < max_cycles:
        m = min(1.0, m + gain * budget * (1.0 - difficulty))
        cycles += 1
    return cycles, m


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_single_item_cycle_count_matches_closed_form(k):
    # step per cycle is 0.1; target picked so the item needs exactly k cycles
    target = 0.1 * k - 0.05
    cfg = one_item_config(difficulty=0.5, target=target, gain=0.2, budget=1.0)
    state, trace = run_acquisition(cfg, KnowledgeStore(), np.random.default_rng(0))
    expected_cycles, expected_mastery = closed_form_cycles(
        0.0, 0.5, 0.2, 1.0, state.norm_of_study, cfg.max_cycles)
    assert expected_cycles == k
    assert state.cycle == k
    assert state.finished
    assert state.mastery[0] == pytest.approx(expected_mastery)
    assert len(trace) == k


def test_shrinkage_over_seeded_runs():
    rng = np.random.default_rng(123)
    for run in range(30):
        n = int(rng.integers(1, 6))
        cfg = AcquisitionConfig(
            target_performance=float(rng.uniform(0.5, 0.8)),
            retention_discount=float(rng.uniform(0.0, 0.2)),
            total_resources_per_cycle=float(rng.uniform(1.0, 4.0)),
            items=[LearnItem(j, float(rng.uniform(0.1, 0.9))) for j in range(n)],
            max_cycles=40,
            feel_prob=float(rng.uniform(0.0, 1.0)),
            jol_noise_sigma=0.05,
        )
        state, _ = run_acquisition(cfg, KnowledgeStore(),
                                   np.random.default_rng(run))
        history = state.active_history
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier  # the active set only ever shrinks
        # once gone, an item never reappears
        gone = set()
        for active in history:
            assert not (gone & active)
            gone |= set(history[0]) - active


def test_no_item_reappears_after_clearing_the_norm():
    cfg = AcquisitionConfig(
        target_performance=0.6, retention_discount=0.0,
        total_resources_per_cycle=3.0,
        items=[LearnItem(0, 0.2), LearnItem(1, 0.8)],
        max_cycles=60, jol_noise_sigma=0.0)
    state, trace = run_acquisition(cfg, KnowledgeStore(), np.random.default_rng(4))
    assert state.finished
    history = state.active_history
    assert history[0] == {0, 1}
    # the easy item clears first; the hard one lingers and never readmits it
    drop_easy = next(i for i, a in enumerate(history) if 0 not in a)
    assert all(0 not in a for a in history[drop_easy:])
    assert any(1 in a for a in history[drop_easy:])
    assert history[-1] == frozenset()


def test_premastered_items_make_one_pass():
    cfg = AcquisitionConfig(
        target_performance=0.5, retention_discount=0.0,
        total_resources_per_cycle=1.0,
        items=[LearnItem(0, 0.5, mastery=0.9), LearnItem(1, 0.5, mastery=0.95)],
        max_cycles=10, jol_noise_sigma=0.0)
    state, trace = run_acquisition(cfg, KnowledgeStore(), np.random.default_rng(0))
    assert state.cycle == 1
    assert state.finished
    assert len(trace) == len(cfg.items)


def test_unattainable_norm_warns_and_leaves_items_unfinished(caplog):
    cfg = one_item_config(target=0.9, discount=0.2, max_cycles=5)  # norm 1.08
    with caplog.at_level(logging.WARNING, logger="mgv.acquisition"):
        state, _ = run_acquisition(cfg, KnowledgeStore(), np.random.default_rng(0))
    (note,) = caplog.records
    assert (note.name, note.levelno) == ("mgv.acquisition", logging.WARNING)
    assert note.getMessage().startswith("norm of study 1.0800 exceeds")
    assert not state.finished
    assert state.cycle == 5
    assert state.active_items == {0}


def test_harder_items_get_more_of_the_budget():
    cfg = AcquisitionConfig(
        target_performance=0.9, retention_discount=0.0,
        total_resources_per_cycle=2.0,
        items=[LearnItem(0, 0.2), LearnItem(1, 0.8)],
        max_cycles=1, feel_prob=1.0, jol_noise_sigma=0.0)
    _, trace = run_acquisition(cfg, KnowledgeStore(), np.random.default_rng(0))
    spent = {i: 0.0 for i in (0, 1)}
    for i, t in enumerate(trace):
        spent[i] += t.resources
    # item 1 signals 1 - 0.8 = 0.2 vs item 0's 0.8 -> a 4x budget ratio
    assert spent[1] / spent[0] == pytest.approx(4.0)


def test_run_consolidates_trace_into_store():
    store = KnowledgeStore(encoding_rate=1.0)
    cfg = one_item_config(target=0.3)
    state, trace = run_acquisition(cfg, store, np.random.default_rng(0))
    # baseline strategy plus one consolidated item per trace record
    assert len(store.ltm) == 1 + len(trace)


def test_jols_fill_experience_secondary():
    cfg = one_item_config(target=0.4, sigma=0.0)
    _, trace = run_acquisition(cfg, KnowledgeStore(), np.random.default_rng(0))
    for t in trace:
        assert t.experience.secondary is not None


def test_acquisition_deterministic_for_seed():
    def once():
        cfg = AcquisitionConfig(
            target_performance=0.7, retention_discount=0.1,
            total_resources_per_cycle=2.5,
            items=[LearnItem(0, 0.3), LearnItem(1, 0.6), LearnItem(2, 0.45)],
            max_cycles=30, feel_prob=0.5, jol_noise_sigma=0.05)
        state, trace = run_acquisition(cfg, KnowledgeStore(),
                                       np.random.default_rng(77))
        return state.cycle, state.jols, [t.to_dict() for t in trace]

    assert once() == once()


def test_config_validation():
    with pytest.raises(ValueError):
        one_item_config(max_cycles=0)
    with pytest.raises(ValueError):
        AcquisitionConfig(target_performance=0.5, retention_discount=0.0,
                          total_resources_per_cycle=1.0, items=[], max_cycles=5)
    with pytest.raises(ValueError):
        AcquisitionConfig(target_performance=0.5, retention_discount=0.0,
                          total_resources_per_cycle=1.0,
                          items=[LearnItem(0, 0.5), LearnItem(0, 0.6)],
                          max_cycles=5)


# --- strategy choice --------------------------------------------------------

def test_one_strategy_choice_per_cycle(monkeypatch):
    """60 items x 30 cycles (trace-heavy's shape) choose 30 times, not 1 800."""
    calls = []
    choose = acquisition.select_cognitive_strategy

    def counting(*args):
        calls.append(args)
        return choose(*args)

    monkeypatch.setattr(acquisition, "select_cognitive_strategy", counting)
    cfg = AcquisitionConfig(
        target_performance=1.0, retention_discount=0.0, total_resources_per_cycle=1.0,
        items=[LearnItem(i, 0.5) for i in range(60)], max_cycles=30)
    state, trace = run_acquisition(cfg, KnowledgeStore(), np.random.default_rng(0))
    assert (state.cycle, len(trace)) == (30, 1800)
    assert len(calls) == 30
    assert {t.strategy_id for t in trace} == {acquisition.BASELINE_STRATEGY_ID}


def test_no_applicable_strategy_raises_before_the_cycles_first_normal_draw():
    """With no candidate the run fails before any judgment of learning is drawn."""
    draws = []

    class RecordingRng:
        def __init__(self):
            self.rng = np.random.default_rng(0)

        def random(self, *args):
            draws.append("random")
            return self.rng.random(*args)

        def normal(self, *args):
            draws.append("normal")
            return self.rng.normal(*args)

    cfg = AcquisitionConfig(
        target_performance=0.8, retention_discount=0.0, total_resources_per_cycle=1.0,
        items=[LearnItem(0, 0.5), LearnItem(1, 0.5)], max_cycles=3, task_tags=set())
    with pytest.raises(NoApplicableStrategy):
        run_acquisition(cfg, KnowledgeStore(), RecordingRng())
    assert draws and "normal" not in draws


# --- batched draws against the per-item scalar draws ------------------------

def scalar_draw_acquisition(config, store, rng):
    """``run_acquisition`` as it drew before its draws were batched: one
    scalar uniform per item when monitoring, one scalar normal per item when
    judging learning.  The bit-for-bit reference for the batched loop."""
    norm = compute_norm_of_study(config.target_performance, config.retention_discount)
    if acquisition.BASELINE_STRATEGY_ID not in store.ltm:
        store.add(KnowledgeItem(acquisition.BASELINE_STRATEGY_ID, KnowledgeCategory.STRATEGY,
                                tags=set(config.task_tags)))
    store.stm.add(acquisition.BASELINE_STRATEGY_ID)
    retrieve_probabilistic(store, set(config.task_tags), rng)
    difficulty = {it.id: it.latent_difficulty for it in config.items}
    state = acquisition.AcquisitionState(
        norm_of_study=norm, active_items=set(difficulty),
        mastery={it.id: it.mastery for it in config.items})
    while state.active_items and state.cycle < config.max_cycles:
        cycle = state.cycle
        active = sorted(state.active_items)
        state.active_history.append(frozenset(active))
        retrieve_probabilistic(store, set(config.task_tags), rng)
        vectors = {}
        for j in active:
            if cycle == 0:
                vectors[j] = generate_experience(1.0 - difficulty[j], None,
                                                 config.feel_prob, rng.random())
            else:
                vectors[j] = generate_experience(state.mastery[j], state.jols.get(j),
                                                 config.feel_prob, rng.random())
        allocation = allocate_resources({j: vectors[j].primary for j in active},
                                        config.total_resources_per_cycle,
                                        config.signal_floor)
        strategy_id = select_cognitive_strategy(vectors[active[0]], store.stm_items(),
                                                set(config.task_tags))
        for j in active:
            before = state.mastery[j]
            mastery = min(1.0, before + config.mastery_gain
                          * allocation[j] * (1.0 - difficulty[j]))
            jol = mastery
            if config.jol_noise_sigma > 0:
                jol = clamp01(jol + rng.normal(0.0, config.jol_noise_sigma))
            state.trace.append(ExperienceTuple(
                cycle=cycle,
                experience=ExperienceVector(vectors[j].primary, jol, vectors[j].mode),
                strategy_id=strategy_id, resources=allocation[j],
                outcome_quality=min(1.0, mastery - before)))
            state.jols[j] = jol
            state.mastery[j] = mastery
        state.active_items = {j for j in active if state.jols[j] < norm}
        state.cycle = cycle + 1
    state.active_history.append(frozenset(state.active_items))
    consolidate(store, state.trace, rng)
    return state, list(state.trace)


def random_acquisition_config(rng, case):
    """Seeded configs over 1-12 items; the first cases pin the edges: one
    item, ``feel_prob`` 0 and 1, and no judgment-of-learning noise."""
    n = 1 if case % 5 == 0 else int(rng.integers(1, 13))
    feel_prob = (0.0, 1.0)[case % 2] if case % 3 == 0 else float(rng.uniform())
    sigma = 0.0 if case % 4 == 0 else float(rng.uniform(0.0, 0.3))
    items = [LearnItem(int(i), float(rng.uniform(0.01, 1.0)),
                       float(rng.uniform(0.0, 0.5)) if rng.uniform() < 0.3 else 0.0)
             for i in rng.permutation(40)[:n]]
    return AcquisitionConfig(
        target_performance=float(rng.uniform(0.3, 1.0)),
        retention_discount=float(rng.uniform(0.0, 0.3)),
        total_resources_per_cycle=float(rng.uniform(0.5, 6.0)), items=items,
        max_cycles=int(rng.integers(1, 25)), feel_prob=feel_prob, jol_noise_sigma=sigma,
        signal_floor=float(rng.choice([1e-6, 0.05, 0.3])),
        mastery_gain=float(rng.uniform(0.05, 0.5)))


def seeded_store(rng) -> KnowledgeStore:
    """A store whose inactive study strategies each take a draw per cycle
    until working memory admits them, so the monitor's draws fall between
    other draws."""
    store = KnowledgeStore(access_prob=float(rng.uniform(0.05, 0.6)),
                           encoding_rate=float(rng.uniform(0.3, 1.0)))
    for k in range(int(rng.integers(0, 4))):
        store.add(KnowledgeItem(f"s{k}", KnowledgeCategory.STRATEGY, tags={"study"},
                                successes=int(rng.integers(0, 5)),
                                failures=int(rng.integers(0, 5))))
    return store


@pytest.mark.parametrize("case", range(60))
def test_batched_draws_match_the_scalar_draw_loop_bit_for_bit(case):
    config = random_acquisition_config(np.random.default_rng(1000 + case), case)
    rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
    store, ref_store = (seeded_store(np.random.default_rng(2000 + case)) for _ in range(2))
    state, trace = run_acquisition(config, store, rng)
    ref_state, ref_trace = scalar_draw_acquisition(config, ref_store, ref_rng)
    assert trace == ref_trace
    assert state == ref_state
    assert store == ref_store
    assert rng.bit_generator.state == ref_rng.bit_generator.state
