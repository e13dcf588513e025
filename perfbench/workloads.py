"""Seeded run-document generators for the three benchmark workloads.

Each workload is a list of valid ``mgv`` run documents.  The seed only moves
parameter values and per-document run seeds; sizes (grid cells, tree nodes,
arms, items, cycles, episodes) follow a fixed ladder indexed by position, and
the control loops run to their cycle budgets, so every seed asks for about
the same amount of work and the medians of different seeds stay comparable.
Each mode's documents are spread evenly over the list, so the closed loop
alternates between modes the way a parameter sweep does.

Every workload runs every mode, because the benchmark reports a per-mode
median on every workload.  The modes a workload is built around carry most
of its documents and nearly all of its time; the others ride along at the
workload's own scale.
"""

from __future__ import annotations

import random


def _tree(nodes: int, arity: int) -> list:
    return [None] + [(i - 1) // arity for i in range(1, nodes)]


# -- per-mode params ----------------------------------------------------------
# Each takes the workload's random stream and the size knobs and returns the
# params block.

def _flavell(r, strategies, cycles):
    # Positive mean outcomes under small noise never reach the success
    # threshold of 1.0, and a failure streak as long as the cycle budget
    # disables the abandonment rules, so the loop runs every cycle.
    return {
        "task_tags": ["t"],
        "success_threshold": 1.0,
        "failure_streak_limit": cycles,
        "max_cycles": cycles,
        "noise": round(r.uniform(0.04, 0.08), 4),
        "feel_prob": round(r.uniform(0.3, 0.7), 4),
        "strategies": [{"id": f"s{k}", "quality": round(r.uniform(0.2, 0.45), 4)}
                       for k in range(strategies)],
    }


def _acquire(r, items, cycles):
    # Hard items on a small budget gain at most 0.04 mastery a cycle, so none
    # clears the norm of study (0.99) within the cycle budgets used here and
    # every item is studied in every cycle.
    return {
        "target_performance": 0.9,
        "retention_discount": 0.1,
        "total_resources_per_cycle": round(r.uniform(1.0, 2.0), 4),
        "max_cycles": cycles,
        "items": [{"id": j, "latent_difficulty": round(r.uniform(0.9, 0.97), 4)}
                  for j in range(items)],
    }


def _retrieve(r, cycles):
    # Cues match often, so the feeling of knowing keeps pointing to "search
    # on"; the answer needs more matches than the budget can gather, so the
    # search runs every cycle.
    return {
        "query": ["cue"],
        "target": "answer",
        "match_prob": round(r.uniform(0.9, 0.97), 4),
        "cue_samples": 8,
        "min_matches": 10**6,
        "max_cycles": cycles,
    }


def _bandit_stationary(r, episodes):
    return {
        "episodes": episodes,
        "utilities": [round(r.uniform(0.3, 1.0), 4), round(r.uniform(0.0, 0.6), 4)],
        "times": [round(r.uniform(0.5, 1.5), 4), round(r.uniform(0.5, 1.5), 4)],
    }


def _bandit_feature(r, arms, features, episodes):
    return {
        "env": "feature",
        "episodes": episodes,
        "utility_weights": [[round(r.uniform(0.0, 1.0), 4) for _ in range(features)]
                            for _ in range(arms)],
        "time_weights": [[round(r.uniform(0.1, 1.0), 4) for _ in range(features)]
                         for _ in range(arms)],
    }


def _plan(r, nodes, arity):
    # Every node hides a rare jackpot: 0 almost surely, a large value with
    # probability 0.1-0.3%.  Unexplored branches stay worth a look until one
    # has been searched, so the planner makes about the same number of
    # expansions whatever the draws, and a document's work depends on its
    # size rather than on luck.
    priors = [{"support": [0.0], "probs": [1.0]}]
    for _ in range(nodes - 1):
        p = round(r.uniform(0.001, 0.003), 4)
        priors.append({"support": [0.0, round(r.uniform(5.0, 10.0), 2)],
                       "probs": [round(1.0 - p, 4), p]})
    return {"parents": _tree(nodes, arity), "priors": priors,
            "expansion_cost": round(r.uniform(0.0001, 0.001), 5)}


def _recall(r, cells, horizon, drifts, episodes):
    params = {
        "drift_prior_mean": round(r.uniform(0.0, 0.4), 4),
        "drift_prior_variance": round(r.uniform(0.3, 0.8), 4),
        "evidence_variance": round(r.uniform(0.7, 1.3), 4),
        "recall_threshold": 1.0,
        "recall_utility": round(r.uniform(3.0, 7.0), 4),
        "search_cost": round(r.uniform(0.01, 0.05), 4),
        "horizon": horizon,
        "z_min": -2.0,
        "z_step": 3.0 / (cells - 1),
    }
    if episodes:
        # One drift per band of [0, 0.5]: the summary keys results by drift
        # value, so a repeated drift would be reported once.
        params["simulate"] = {
            "drifts": [round(r.uniform(0.5 * j / drifts, 0.5 * (j + 0.9) / drifts), 4)
                       for j in range(drifts)],
            "episodes": episodes}
    return params


# -- workloads -----------------------------------------------------------------
# ``why`` is copied verbatim into BENCHMARK.json: the reason for the workload
# and its generator's size ranges.  Each entry of ``groups`` is (mode,
# documents, make(r, i) -> params).  Every workload has at least 100
# documents, so at least 10 lie beyond its p90.

WORKLOADS = {
    "sweep-small": {
        "why": ("Fixed per-run costs: 600 small runs of all 6 modes (flavell "
                "2-4x8-12, acquire 2x12-20, retrieve 15-35, bandit 2x30-51, plan "
                "7 nodes, recall 16 cells H=8 sim 2x30); many small files"),
        "groups": [
            ("flavell", 100, lambda r, i: _flavell(r, 2 + i % 3, 8 + i % 5)),
            ("acquire", 100, lambda r, i: _acquire(r, 2, 12 + 2 * (i % 5))),
            ("retrieve", 100, lambda r, i: _retrieve(r, 15 + 5 * (i % 5))),
            ("bandit", 100, lambda r, i: _bandit_stationary(r, 30 + 7 * (i % 4))),
            ("plan", 100, lambda r, i: _plan(r, 7, 2)),
            ("recall_mdp", 100, lambda r, i: _recall(r, 16, 8, 2, 30)),
        ],
    },
    "solve-large": {
        "why": ("Solver kernels: recall 31-51 cells H=30 sim 2x20 (30 runs), plan "
                "31-node 3-ary trees (25), bandit 8 arms x 5 features x 80 (30); "
                "8 small flavell/acquire/retrieve each; small traces"),
        "groups": [
            ("recall_mdp", 30, lambda r, i: _recall(r, 31 + 5 * (i % 5), 30, 2, 20)),
            ("plan", 25, lambda r, i: _plan(r, 31, 3)),
            ("bandit", 30, lambda r, i: _bandit_feature(r, 8, 5, 80)),
            ("flavell", 8, lambda r, i: _flavell(r, 4, 20)),
            ("acquire", 8, lambda r, i: _acquire(r, 6, 20)),
            ("retrieve", 8, lambda r, i: _retrieve(r, 25)),
        ],
    },
    "trace-heavy": {
        "why": ("Trace writes and consolidation: recall 16 cells with "
                "2x2000-episode sim (35 runs), acquire 60 items x 30 cycles (25), "
                "flavell 300-500 cycles (25); 6 small plan/bandit/retrieve each"),
        "groups": [
            ("recall_mdp", 35, lambda r, i: _recall(r, 16, 8, 2, 2000)),
            ("acquire", 25, lambda r, i: _acquire(r, 60, 30)),
            ("flavell", 25, lambda r, i: _flavell(r, 3, 300 + 100 * (i % 3))),
            ("plan", 6, lambda r, i: _plan(r, 7, 2)),
            ("bandit", 6, lambda r, i: _bandit_stationary(r, 60)),
            ("retrieve", 6, lambda r, i: _retrieve(r, 200)),
        ],
    },
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's run documents for ``seed``, modes interleaved.

    Documents carry no ``out`` path; the caller adds one.
    """
    r = random.Random(f"{workload}/{seed}")
    placed = []
    for g, (mode, count, make) in enumerate(WORKLOADS[workload]["groups"]):
        for i in range(count):
            params = make(r, i)
            doc = {"mode": mode, "seed": r.randrange(2**31), "params": params}
            placed.append(((i + 0.5) / count, g, doc))
    placed.sort(key=lambda item: item[:2])
    return [doc for _, _, doc in placed]
