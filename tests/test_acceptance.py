"""Acceptance gate: one test per numbered behavioral guarantee.

Each test is self-contained and carries its own oracle (closed forms,
exhaustive enumeration, or independent reimplementation) so a pass means the
library agrees with something computed a second way, at the stated tolerance.
Run with ``pytest -v tests/test_acceptance.py`` for one line per guarantee.
"""

import itertools
import math

import numpy as np
import pytest

from mgv.acquisition import (AcquisitionConfig, LearnItem, allocate_resources,
                             compute_norm_of_study, run_acquisition)
from mgv.bandit import (BanditState, posterior_update, run_bandit_episodes,
                        sample_vocs)
from mgv.config import validate_config
from mgv.envs import (CueRetrievalEnvironment, StationaryBanditEnvironment,
                      SyntheticTaskEnvironment)
from mgv.flavell import CycleStatus, GoalSpec, run_cycle
from mgv.knowledge import (KnowledgeCategory, KnowledgeItem, KnowledgeStore,
                           calibrate_thresholds, consolidate)
from mgv.planning import (DiscretePrior, frontier, make_initial_state,
                          myopic_voc, plan_value, run_myopic_planner)
from mgv.recall import (RecallMdpConfig, recall_transition, simulate_recall,
                        solve_recall_mdp)
from mgv.retrieval import (RetrievalConfig, SearchIntensity, run_retrieval,
                           search_intensity)
from mgv.runner import run
from mgv.experience import FokCounters


# -- 1 -----------------------------------------------------------------------

def test_01_norm_of_study_worked_values():
    assert compute_norm_of_study(0.9, 0.2) == 1.08
    assert compute_norm_of_study(0.9, 0.1) == 0.99


# -- 2 -----------------------------------------------------------------------

def test_02_allocation_sums_and_is_strictly_inverse_ordered():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        size = int(rng.integers(1, 51))
        total = float(rng.uniform(0.5, 20.0))
        signals = {j: float(rng.uniform(0.01, 1.0)) for j in range(size)}
        shares = allocate_resources(signals, total)
        assert abs(sum(shares.values()) - total) <= 1e-9
        ranked = sorted(signals, key=signals.get)
        for easy, hard in zip(ranked, ranked[1:]):
            assert shares[easy] > shares[hard]


# -- 3 -----------------------------------------------------------------------

def test_03_study_set_shrinks_and_single_item_matches_recurrence():
    rng = np.random.default_rng(3)
    for _ in range(100):
        items = [LearnItem(j, float(rng.uniform(0.05, 0.95)))
                 for j in range(int(rng.integers(2, 7)))]
        config = AcquisitionConfig(
            target_performance=float(rng.uniform(0.5, 0.8)),
            retention_discount=float(rng.uniform(0.0, 0.2)),
            total_resources_per_cycle=float(rng.uniform(1.0, 4.0)),
            items=items, max_cycles=60,
            feel_prob=float(rng.uniform(0.0, 1.0)),
            jol_noise_sigma=float(rng.uniform(0.0, 0.1)),
            mastery_gain=float(rng.uniform(0.1, 0.3)))
        store = KnowledgeStore(access_prob=float(rng.uniform(0.5, 1.0)))
        state, _ = run_acquisition(config, store,
                                   np.random.default_rng(rng.integers(2**32)))
        history = state.active_history
        for before, after in zip(history, history[1:]):
            assert after <= before          # never regrows
        seen_gone = set()
        for snapshot in history:
            assert not (snapshot & seen_gone)
            seen_gone |= history[0] - snapshot

    # Deterministic single-item runs finish exactly when the mastery
    # recurrence m <- min(1, m + gain * R * (1 - d)) first clears the norm.
    for k in range(1, 6):
        target = 0.1 * k - 0.05
        config = AcquisitionConfig(
            target_performance=target, retention_discount=0.0,
            total_resources_per_cycle=1.0,
            items=[LearnItem(0, 0.5)], max_cycles=30,
            jol_noise_sigma=0.0, mastery_gain=0.2)
        norm = compute_norm_of_study(target, 0.0)
        mastery, cycles = 0.0, 0
        while mastery < norm:
            mastery = min(1.0, mastery + 0.2 * 1.0 * 0.5)
            cycles += 1
        state, _ = run_acquisition(config, KnowledgeStore(),
                                   np.random.default_rng(0))
        assert state.finished and state.cycle == cycles == k


# -- 4 -----------------------------------------------------------------------

def test_04_threshold_decay_formula_and_intensity_case_split():
    for rate in (0.0, 0.05, 0.2):
        rng = np.random.default_rng(40)
        for _ in range(50):
            base_fok = float(rng.uniform(0.2, 1.5))
            base_conf = float(rng.uniform(0.3, 1.0))
            env = CueRetrievalEnvironment(
                target="t" if rng.random() < 0.5 else None,
                match_prob=float(rng.uniform(0.1, 0.9)),
                min_matches=int(rng.integers(2, 12)))
            config = RetrievalConfig(satisficing_rate=rate,
                                     default_lambda_fok=base_fok,
                                     default_lambda_confidence=base_conf,
                                     max_cycles=15)
            result, trace = run_retrieval(
                {"q"}, KnowledgeStore(), env, config,
                np.random.default_rng(rng.integers(2**32)))
            # Replay the burden ledger: lambda after cycle tau must equal the
            # base scaled by exp(-rate * (tau + failures so far)), exactly.
            failures = 0
            current_conf = base_conf
            for tau, record in enumerate(trace):
                if record.confidence is None or record.confidence < current_conf:
                    failures += 1
                expected = math.exp(-rate * (tau + failures))
                got_fok, got_conf = result.threshold_history[tau]
                assert abs(got_fok - base_fok * expected) <= 1e-12
                assert abs(got_conf - base_conf * expected) <= 1e-12
                current_conf = got_conf
            for (a_fok, a_conf), (b_fok, b_conf) in zip(
                    result.threshold_history, result.threshold_history[1:]):
                assert b_fok <= a_fok and b_conf <= a_conf

    for plus in np.linspace(0.0, 2.0, 21):
        for minus in np.linspace(0.0, 2.0, 21):
            for lam in (0.05, 0.25, 0.5, 1.0, 2.0, 4.0):
                fok = FokCounters(float(plus), float(minus))
                if fok.magnitude < lam:
                    expected = SearchIntensity.INTENSIVE
                elif plus > minus:
                    expected = SearchIntensity.STANDARD
                else:
                    expected = SearchIntensity.TERMINATE
                assert search_intensity(fok, lam) is expected


# -- 5 -----------------------------------------------------------------------

def test_05_recall_solution_matches_exhaustive_policy_enumeration():
    rng = np.random.default_rng(55)
    for _ in range(20):
        cells = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 4))
        theta = float(rng.uniform(0.5, 2.0))
        span = float(rng.uniform(1.0, 3.0))
        config = RecallMdpConfig(
            drift_prior_mean=float(rng.uniform(-0.5, 0.5)),
            drift_prior_variance=float(rng.uniform(0.1, 1.0)),
            evidence_variance=float(rng.uniform(0.5, 2.0)),
            recall_threshold=theta,
            recall_utility=float(rng.uniform(0.5, 5.0)),
            search_cost=float(rng.uniform(0.0, 0.3)),
            horizon=horizon, z_min=theta - span, z_step=span / (cells - 1))
        grid = config.grid()
        assert grid.size == cells
        table = solve_recall_mdp(config)

        trans = {(t, c): recall_transition(t, float(grid[c]), config)
                 for t in range(horizon) for c in range(cells - 1)}

        def evaluate(actions):
            values = np.zeros((horizon + 1, cells))
            values[:, -1] = config.recall_utility
            for t in range(horizon - 1, -1, -1):
                for c in range(cells - 1):
                    if actions[t][c]:
                        values[t, c] = (-config.search_cost
                                        + trans[(t, c)] @ values[t + 1])
            return values

        bits = horizon * (cells - 1)
        best = np.full((horizon + 1, cells), -np.inf)
        best[:, -1] = config.recall_utility
        for word in itertools.product((0, 1), repeat=bits):
            actions = [word[t * (cells - 1):(t + 1) * (cells - 1)]
                       for t in range(horizon)]
            best = np.maximum(best, evaluate(actions))
        best[-1, :-1] = 0.0
        assert np.allclose(table.values, best, atol=1e-9)
        assert np.allclose(evaluate(table.actions), best, atol=1e-9)


# -- 6 -----------------------------------------------------------------------

def test_06_stronger_memories_recalled_faster_abandoned_slower():
    config = RecallMdpConfig(drift_prior_mean=0.15, drift_prior_variance=0.25,
                             evidence_variance=1.0, recall_threshold=2.0,
                             recall_utility=10.0, search_cost=0.05, horizon=30)
    policy = solve_recall_mdp(config)
    episodes = 10_000
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        success = [simulate_recall(policy, config, drift, episodes,
                                   rng).mean_recall_time()
                   for drift in (0.1, 0.3, 0.5)]
        assert all(t is not None for t in success)
        assert success[0] > success[1] > success[2]
        rng = np.random.default_rng(seed + 100)
        giveup = [simulate_recall(policy, config, drift, episodes,
                                  rng).mean_giveup_time()
                  for drift in (0.0, 0.05, 0.1)]
        assert all(t is not None for t in giveup)
        assert giveup[0] < giveup[1] < giveup[2]


# -- 7 -----------------------------------------------------------------------

def _ref_plan_value(parents, priors, values):
    kids = {i: [] for i in range(len(parents))}
    for i, p in enumerate(parents):
        if p is not None:
            kids[p].append(i)

    def node(i):
        if values[i] is not None:
            return values[i]
        return sum(s * q for s, q in zip(priors[i].support, priors[i].probs))

    def best(i):
        if not kids[i]:
            return node(i)
        return node(i) + max(best(c) for c in kids[i])

    return best(0)


def _all_tree_shapes(n):
    if n == 1:
        yield (None,)
        return
    for tail in itertools.product(*[range(i) for i in range(1, n)]):
        yield (None,) + tail


def test_07_planning_voc_oracle_cost_cutoff_and_free_search_dominance():
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for parents in _all_tree_shapes(n):
            priors = [DiscretePrior(
                (float(rng.uniform(-1.0, 0.0)), float(rng.uniform(0.0, 2.0))),
                (p := float(rng.uniform(0.1, 0.9)), 1.0 - p))
                for _ in range(n)]
            state = make_initial_state(list(parents), priors)
            cost = float(rng.uniform(0.0, 0.3))
            for node in frontier(state):
                base = _ref_plan_value(state.parents, state.priors, state.values)
                gain = 0.0
                for support, prob in zip(priors[node].support,
                                         priors[node].probs):
                    values = list(state.values)
                    values[node] = support
                    gain += prob * _ref_plan_value(state.parents, state.priors,
                                                   values)
                assert myopic_voc(state, node, cost) == pytest.approx(
                    gain - base - cost, abs=1e-9)
            result = run_myopic_planner(state, math.inf,
                                        rng=np.random.default_rng(0))
            assert result.expansions == []

    # Free computation: averaged over every world a tree's priors can
    # realize, planning first never loses to acting on prior means alone.
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        parents = [None] + [int(rng.integers(0, i)) for i in range(1, n)]
        priors = [DiscretePrior(
            (float(rng.uniform(-1.0, 0.0)), float(rng.uniform(0.0, 2.0))),
            (p := float(rng.uniform(0.1, 0.9)), 1.0 - p))
            for _ in range(n)]
        baseline = plan_value(make_initial_state(parents, priors))
        expected = 0.0
        for picks in itertools.product((0, 1), repeat=n - 1):
            weight = 1.0
            world = {}
            for i, pick in enumerate(picks, start=1):
                world[i] = priors[i].support[pick]
                weight *= priors[i].probs[pick]
            result = run_myopic_planner(make_initial_state(parents, priors),
                                        0.0, reveal=world.__getitem__)
            expected += weight * result.net_reward
        assert expected >= baseline - 1e-9


# -- 8 -----------------------------------------------------------------------

def collapsed_bandit(means):
    """A constructed state whose beliefs, ``means`` ``(arms, 2, dim)``
    (utility, then time), have zero covariances and factors: every sample
    is the mean."""
    state = BanditState(len(means), len(means[0][0]))
    state.means[:] = means
    state.covariances[:] = 0.0
    state.factors[:] = 0.0
    return state


def test_08_thompson_argmax_identity_and_two_arm_convergence():
    rng = np.random.default_rng(88)
    for trial in range(1000):
        arms = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 4))
        state = collapsed_bandit(rng.normal(size=(arms, 2, dim)))
        feats = rng.normal(size=dim)
        gamma = float(rng.uniform(0.0, 2.0))
        greedy = int(np.argmax([u @ feats - gamma * (t @ feats)
                                for u, t in state.means]))
        assert int(np.argmax(sample_vocs(state, feats, gamma,
                                         np.random.default_rng(trial)))) == greedy

    for seed in range(5):
        env = StationaryBanditEnvironment(utilities=[0.8, 0.2],
                                          times=[1.0, 1.0], reward_noise=0.1)
        state = BanditState(2, 1)
        records = run_bandit_episodes(env, state, 500,
                                      np.random.default_rng(seed))
        wins = sum(r["chosen"] == 0 for r in records[-100:])
        assert wins > 80


# -- 9 -----------------------------------------------------------------------

def test_09_conjugate_update_worked_values_and_variance_contraction():
    # One belief: means (1, dim), its covariance and the noise variance.
    mean, cov = posterior_update(np.zeros((1, 1)), np.eye(1), 1.0, [1.0], [1.0])
    assert abs(mean[0, 0] - 0.5) <= 1e-12
    assert abs(cov[0, 0] - 0.5) <= 1e-12

    rng = np.random.default_rng(99)
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        mean = np.zeros((1, dim))
        cov = np.eye(dim) * float(rng.uniform(0.2, 2.0))
        noise = float(rng.uniform(0.2, 2.0))
        for _ in range(int(rng.integers(1, 9))):
            feats = rng.normal(size=dim)
            before = cov
            mean, cov = posterior_update(mean, cov, noise, feats, [float(rng.normal())])
            for probe in (feats, rng.normal(size=dim), rng.normal(size=dim)):
                assert (probe @ cov @ probe
                        <= probe @ before @ probe + 1e-12)


# -- 10 ----------------------------------------------------------------------

MODE_DOCS = [
    {"mode": "flavell", "seed": 7,
     "params": {"task_tags": ["t"], "success_threshold": 0.5, "max_cycles": 8,
                "strategies": [{"id": "good", "quality": 0.9},
                               {"id": "bad", "quality": -0.4}],
                "noise": 0.1}},
    {"mode": "acquire", "seed": 11,
     "params": {"target_performance": 0.6, "retention_discount": 0.1,
                "total_resources_per_cycle": 2.0, "max_cycles": 40,
                "items": [{"id": 1, "latent_difficulty": 0.3},
                          {"id": 2, "latent_difficulty": 0.8}]}},
    {"mode": "retrieve", "seed": 5,
     "params": {"query": ["cue"], "target": "answer", "match_prob": 0.7,
                "min_matches": 5}},
    {"mode": "bandit", "seed": 2,
     "params": {"episodes": 40, "utilities": [0.9, 0.1], "times": [1.0, 1.0]}},
    {"mode": "plan", "seed": 4,
     "params": {"parents": [None, 0, 0, 1],
                "priors": [{"support": [0.0], "probs": [1.0]},
                           {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
                           {"support": [-0.5, 0.5], "probs": [0.3, 0.7]},
                           {"support": [0.0, 2.0], "probs": [0.8, 0.2]}],
                "expansion_cost": 0.05}},
    {"mode": "recall_mdp", "seed": 3,
     "params": {"drift_prior_mean": 0.2, "drift_prior_variance": 0.5,
                "evidence_variance": 1.0, "recall_threshold": 1.0,
                "recall_utility": 5.0, "search_cost": 0.02, "horizon": 8,
                "simulate": {"drifts": [0.1, 0.4], "episodes": 30}}},
]


def test_10_traces_are_byte_identical_across_reruns(tmp_path):
    for doc in MODE_DOCS:
        blobs = []
        for attempt in range(3):
            out_dir = tmp_path / f"{doc['mode']}-{attempt}"
            out_dir.mkdir()
            config = validate_config({**doc, "out": str(out_dir / "trace.jsonl")})
            run(config)
            blobs.append((out_dir / "trace.jsonl").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], doc["mode"]


# -- 11 ----------------------------------------------------------------------

def test_11_value_of_computation_worked_values():
    # A collapsed belief scores its mean weights exactly.
    state = collapsed_bandit([[[0.7, -0.2], [5.0, 5.0]]])
    voc = lambda gamma: sample_vocs(state, [1.0, 1.0], gamma, np.random.default_rng(11))[0]
    assert voc(0.0) == pytest.approx(0.5)
    assert voc(0.1) == pytest.approx(-0.5)


# -- 12 ----------------------------------------------------------------------

def test_12_verification_feedback_refines_later_monitoring():
    # A store carried across runs steers strategy choice away from a failing
    # strategy.  On a fresh store every win rate is 0.5, so the tie goes to
    # the smallest id, "a", which fails; after three runs on one store the
    # fourth opens with "b" and reaches the goal sooner.
    env = SyntheticTaskEnvironment({"a": -0.3, "b": 0.8}, noise=0.2)
    goal = GoalSpec(success_threshold=0.7, max_cycles=30)
    first_pick_a = {"fresh": [], "carried": []}
    cycles_to_goal = {"fresh": [], "carried": []}
    for seed in range(200):
        rng = np.random.default_rng(seed)
        store = KnowledgeStore()
        for sid in ("a", "b"):
            store.add(KnowledgeItem(sid, KnowledgeCategory.STRATEGY, tags={"t"}))
        for run_index in range(4):
            state, trace = run_cycle({"t"}, goal, env, store, rng=rng)
            kind = {0: "fresh", 3: "carried"}.get(run_index)
            if kind is not None:
                first_pick_a[kind].append(trace[0].strategy_id == "a")
                if state.status is CycleStatus.TERMINATED:
                    cycles_to_goal[kind].append(state.cycle)
    assert np.mean(first_pick_a["fresh"]) == 1.0
    assert np.mean(first_pick_a["carried"]) <= 0.05
    assert len(cycles_to_goal["carried"]) >= len(cycles_to_goal["fresh"]) >= 190
    assert np.mean(cycles_to_goal["carried"]) < 0.8 * np.mean(cycles_to_goal["fresh"])

    # A retrieve run's records, consolidated into its store, set the next
    # run's starting thresholds.  With no satisficing decay a run ends on the
    # thresholds it started from: the defaults on a fresh store, the
    # calibrated medians once correct outputs are remembered.
    query = {"attend-intensive", "attend-standard"}  # consolidated items' tags
    config = RetrievalConfig(satisficing_rate=0.0)
    defaults = (config.default_lambda_fok, config.default_lambda_confidence)
    calibrated = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        store = KnowledgeStore()
        first, trace = run_retrieval(query, store, CueRetrievalEnvironment("answer", 0.8),
                                     config, rng)
        assert (first.lambda_fok, first.lambda_confidence) == defaults
        consolidate(store, trace, rng)
        second, _ = run_retrieval(query, store, CueRetrievalEnvironment("answer", 0.8),
                                  config, rng)
        start = (second.lambda_fok, second.lambda_confidence)
        if any(r.was_correct for item in store.ltm.values()
               for r in item.calibration_records):
            calibrated += 1
            assert start == calibrate_thresholds(store)
            # Only outputs with confidence above one half count as correct.
            assert start[1] > defaults[1]
        else:
            assert start == defaults
    assert calibrated >= 40
