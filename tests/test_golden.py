"""Golden digests: the exact bytes every mode writes for fixed documents.

``test_acceptance.py::test_10`` only checks that reruns agree with each
other; these digests also catch a change that alters the draws, the float
arithmetic or the serialisation.  A change that moves a digest on purpose
must say why in CHANGES.md.
"""

import builtins
import hashlib
import json
import math

import pytest

from mgv.acquisition import allocate_resources
from mgv.config import validate_config
from mgv.errors import ValidationError
from mgv.floats import fold_sum
from mgv.planning import DiscretePrior, _partial_sums
from mgv.runner import (_cumulative_regret, _resources_spent, report, run, run_repeated,
                        summary_path_for)
from test_acceptance import MODE_DOCS

# Integer literals in number fields (and in retrieve's ``seed_items``).
INT_DOCS = [
    {"mode": "flavell", "seed": 7,
     "params": {"task_tags": ["t"], "success_threshold": 0.5, "max_cycles": 8,
                "strategies": [{"id": "good", "quality": 0.9},
                               {"id": "bad", "quality": -0.4}],
                "resource_budget": 100, "resources_per_cycle": 1, "noise": 1}},
    {"mode": "acquire", "seed": 11,
     "params": {"target_performance": 0.6, "retention_discount": 0,
                "total_resources_per_cycle": 2, "max_cycles": 40,
                "items": [{"id": 1, "latent_difficulty": 0.3},
                          {"id": 2, "latent_difficulty": 0.8}],
                "jol_noise_sigma": 0, "signal_floor": 1, "mastery_gain": 1}},
    {"mode": "retrieve", "seed": 5,
     "params": {"query": ["cue"], "target": "answer", "match_prob": 0.7,
                "min_matches": 5, "satisficing_rate": 0, "default_lambda_fok": 1,
                "evidence_scale": 1, "confidence_gain": 1,
                "seed_items": [{"id": "probe", "category": "task", "tags": ["cue"],
                                "features": [1, 2],
                                "calibration_records": [
                                    {"fok_magnitude": 1, "confidence": 1,
                                     "was_correct": True}]}]}},
    {"mode": "bandit", "seed": 2,
     "params": {"episodes": 40, "utilities": [0.9, 0.1], "times": [1.0, 1.0],
                "reward_noise": 0, "prior_variance": 1, "noise_variance": 1,
                "time_noise": 0}},
    {"mode": "recall_mdp", "seed": 3,
     "params": {"drift_prior_mean": 0.2, "drift_prior_variance": 0.5,
                "evidence_variance": 1.0, "recall_threshold": 4.0,
                "recall_utility": 5.0, "search_cost": 0.02, "horizon": 8,
                "z_min": -4, "z_step": 1,
                "simulate": {"drifts": [0.1, 0.4], "episodes": 30}}},
    {"mode": "plan", "seed": 4,
     "params": {"parents": [None, 0, 0, 1],
                "priors": [{"support": [0], "probs": [1]},
                           {"support": [-1, 2], "probs": [0.5, 0.5]},
                           {"support": [0, 1], "probs": [0.6, 0.4]},
                           {"support": [-2, 3], "probs": [0.5, 0.5]}],
                "expansion_cost": 0}},
]

# (trace sha256, summary sha256), pinned at the commit that added this file.
# The plan document expands no node, so its trace is empty; INT_DOCS holds a
# plan document that does.
GOLDEN = {
    "flavell": ("ab375419e5bea7bc67f9e1593a8ee09b6847ef69cd70e31bcd2ac185f053697d",
        "598fa0612e874c9723601526ff8bcae8b56038048fe4d5c151e6f3facb7b3eac"),
    "acquire": ("ac5e2310d0d59efe5d3a8aca30717b818f923f2f1cc2910a4c56283843ca538e",
        "47673c53dd76ca64d2f350b1829036103f65decb02643659a7de48a75dff2d1c"),
    "retrieve": ("9b1177435d23bc7e96528f45e88ab172d6c22d3570776f8eca394244298f1ecb",
        "ec57563af6b6ca1ebbc41fb3f1d78212f35e1508fae2f54f82b9a857154f8837"),
    "bandit": ("79ba005297b7a41443ae494fbfa4bef2030cce665973c5e94b3a67dbc4aa3508",
        "74a88ba926f91d83b719d911889e381ad81fad3ca36cc29131a6db4577db7915"),
    "plan": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2da1121c6fc32371701e428c169899464a8eaa2aa273b0f1da55ddd7f24e2e73"),
    "recall_mdp": ("39ba0119df3ec462f117857e95533876243c7655d06ef76fd2a48a498ca95165",
        "71505de5bd667fc6ce1d9a800baba74f1477926e4dbaf89118be6a3e5ea2bdd9"),
}
# A 15-node binary plan tree of depth 3 with 3-value priors: every path
# crosses three unrevealed nodes, so each plan worth sums three prior means
# and each mean sums three products.  The 4-node trees above sum at most two.
PLAN_TREE_DOC = {
    "mode": "plan", "seed": 19,
    "params": {"parents": [None, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6],
               "priors": [{"support": [0.0], "probs": [1.0]}] + [
                   {"support": [low, 0.3, high], "probs": [0.3, 0.6, 0.1]}
                   for low, high in [(-1.1, 3.2), (-1.2, 3.9), (-1.3, 4.6),
                                     (-1.4, 2.5), (-1.5, 3.2), (-1.6, 3.9),
                                     (-1.7, 4.6), (-1.8, 2.5), (-1.9, 3.2),
                                     (-2.0, 3.9), (-2.1, 4.6), (-2.2, 2.5),
                                     (-2.3, 3.2), (-2.4, 3.9)]],
               "expansion_cost": 0.02}}
GOLDEN_PLAN_TREE = (
    "7e7cae15ed83c7cc526b4519091323eef706bb247c0d16229aa17da60e898d31",
    "cd572421bef4c345f622327743b400fe1256669b85862b933f44eb499d115a5c")
# A bandit whose arms differ by feature weights: several arms, several
# features, so it pins the multi-dimensional draws a 1-feature stationary
# bandit cannot.
FEATURE_BANDIT_DOC = {
    "mode": "bandit", "seed": 13,
    "params": {"env": "feature", "episodes": 40,
               "utility_weights": [[0.9, 0.1, 0.4], [0.2, 0.8, 0.3],
                                   [0.5, 0.5, 0.5], [0.1, 0.2, 0.9]],
               "time_weights": [[0.6, 0.3, 0.2], [0.4, 0.9, 0.1],
                                [0.5, 0.2, 0.7], [0.3, 0.3, 0.3]]}}
GOLDEN_FEATURE_BANDIT = (
    "cb0ae2fdde2b1227cf2e9b7fbca06e8dc67e546be5d294594226445c0b999ecc",
    "806f058464f0354201f77a8967bbdfc9a92144964f0fdc53d7f320a32783befa")
# The benchmark's solve-large bandit shape: 8 arms, 5 features, 80 episodes.
# Pinned before the posteriors were held as stacked arrays, so it fences the
# batched draw and the batched true values where they save the most.
BENCHMARK_BANDIT_DOC = {
    "mode": "bandit", "seed": 29,
    "params": {"env": "feature", "episodes": 80,
               "utility_weights": [[0.09, 0.96, 0.53, 0.43, 0.95], [0.88, 0.04, 0.83, 0.1, 0.33],
                                   [0.48, 0.58, 0.24, 0.08, 0.94], [0.1, 0.1, 0.33, 0.24, 0.39],
                                   [0.1, 0.05, 0.97, 0.73, 0.5], [0.09, 0.28, 0.54, 0.8, 0.41],
                                   [0.02, 0.55, 0.27, 0.22, 0.93], [0.45, 0.49, 0.31, 0.35, 0.01]],
               "time_weights": [[0.85, 0.9, 0.29, 0.41, 0.75], [0.53, 0.26, 0.34, 0.6, 0.49],
                                [0.87, 0.87, 0.97, 0.95, 0.86], [0.25, 0.8, 0.43, 0.85, 0.87],
                                [0.59, 0.17, 0.6, 0.52, 0.64], [0.6, 0.23, 0.57, 0.19, 0.36],
                                [0.49, 0.47, 0.26, 0.47, 0.47], [0.88, 0.3, 0.55, 0.14, 0.46]]}}
GOLDEN_BENCHMARK_BANDIT = (
    "156b3160867725f99868bf666fbecb865d21a7130e7d3e06213be3860d6d7a49",
    "da9fcd4297b4f6fafed353dfc4add39dfd2f9bb6a84dc6e1d3f5eeeea5639c71")
# Six study items, noisy judgments of learning and partial recall of the
# baseline strategy: items leave the active set at cycles 4, 5, 6, 6, 7
# and 9, so the allocation splits the budget over six down to one item and
# its weight sum adds three or more floats.
ACQUIRE_ITEMS_DOC = {
    "mode": "acquire", "seed": 1,
    "params": {"target_performance": 0.7, "retention_discount": 0.1,
               "total_resources_per_cycle": 9.0, "max_cycles": 30,
               "items": [{"id": i, "latent_difficulty": d, "mastery": m}
                         for i, d, m in [(1, 0.2, 0.0), (2, 0.45, 0.1), (3, 0.6, 0.0),
                                         (4, 0.75, 0.3), (5, 0.9, 0.0), (6, 0.35, 0.5)]],
               "jol_noise_sigma": 0.08, "access_prob": 0.8, "feel_prob": 0.4}}
GOLDEN_ACQUIRE_ITEMS = (
    "47858233d672afcfc49fbe7401982f690569390bc90f7e69889e08bc4ebbd961",
    "f09d4ea5994093021a06a3c25f242841a5ce0d819a460e2cecfd0b78725aef90")
# Partial recall into working memory, noisy outcomes, a strategy tagged off
# the task and a pruning margin of 1: the run ends by the discrepancy rule
# after 7 cycles.
FLAVELL_ABANDON_DOC = {
    "mode": "flavell", "seed": 1,
    "params": {"task_tags": ["t", "u"], "success_threshold": 0.8, "max_cycles": 40,
               "strategies": [{"id": "fair", "quality": 0.3},
                              {"id": "poor", "quality": -0.2, "tags": ["u"]},
                              {"id": "off", "quality": 0.9, "tags": ["v"]}],
               "access_prob": 0.5, "noise": 0.3, "prune_margin": 1,
               "failure_streak_limit": 2}}
GOLDEN_FLAVELL_ABANDON = (
    "9704ee23f32762a6f3b51e1a772ed83a8380f91c407afc2b5d7e5e5ff919529c",
    "3288c3b502572b7bf55f18e23a016e1f43373e8bdaa107269bebcd3052b2280f")
GOLDEN_POLICY = "e97cee062046a22ca2dd7ef0143304bc81f5d9e70b9dc4d18b26a1c1700fa4aa"
GOLDEN_THRESHOLD = "74e460172c2f9e71701ee6dbd76d65428c006e745cd15253137b46ac5abefe99"
# Validation stores these integers as floats and fills in the seed item's
# defaults, so the run ids hash that form, and flavell's per-cycle resources
# print as 1.0.  Every digest but plan's differs from the one taken before
# that rule (see CHANGES.md); plan's params were stored as floats already.
GOLDEN_INT = {
    "flavell": ("e08e399779ea03954aa1e5a587c9d2fdbe7957f985009798481e03e81eb26827",
        "d4fdf4ad619504cbdfa3c46615339834e217d16ff259f3e407d1ac9bcba34c6d"),
    "acquire": ("1f0bcbb6f5d2deb698e281c621ef9a4de2bf64c2a3942bab48bd0c35081ae7aa",
        "8bb528a5901e776cbca1f705f3d9cca71ccf7bb6d069711916e516056f89d0fa"),
    "retrieve": ("d30a9a59add7c1e55c57376617f90a30d46a6a681f855453079da48f20e20512",
        "1cde83dd2ace870aae98479e6862f3c6c909c545996cfacd5dcb2df7b95340a3"),
    "bandit": ("e539ef6399a296c2c9d42df6f64a488979672ab97d6c8219399f7c30acc0eeac",
        "b4642d5ab7fcfcd1ee31ba7fc5dd8d7d64fcfd469498efcbda2a7ec6281a6155"),
    "recall_mdp": ("a909bc8f11edaaf2db46b6a281e2619453402cafc5c9e43b30ba65dddba60f01",
        "2675d65fccbae977a94fb0a17869a5cc1fcd3223e1a6069fa5b94d5470a9154a"),
    "plan": ("f7e80d9d5ddb497acf051eb3d68fdf6d7c5178110ef8049c4c30498ce0dbb710",
        "bc7da99e982e311d72b5072050093d9e306881abfeb8d691aa4a8bcf8bb79ddd"),
}


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(doc, tmp_path, **emit) -> tuple[str, str]:
    trace = tmp_path / "trace.jsonl"
    run(validate_config({**doc, "out": str(trace)}), **emit)
    return sha(trace), sha(summary_path_for(trace))


@pytest.mark.parametrize("doc", MODE_DOCS, ids=[d["mode"] for d in MODE_DOCS])
def test_mode_docs_match_golden_digests(doc, tmp_path):
    # The second pass overwrites the first pass's files in place.
    for _ in range(2):
        assert digests(doc, tmp_path) == GOLDEN[doc["mode"]]


@pytest.mark.parametrize("doc", INT_DOCS, ids=[d["mode"] for d in INT_DOCS])
def test_integer_literal_docs_match_golden_digests(doc, tmp_path):
    assert digests(doc, tmp_path) == GOLDEN_INT[doc["mode"]]


def test_feature_bandit_doc_matches_golden_digests(tmp_path):
    assert digests(FEATURE_BANDIT_DOC, tmp_path) == GOLDEN_FEATURE_BANDIT


def test_benchmark_shaped_bandit_doc_matches_golden_digests(tmp_path):
    assert digests(BENCHMARK_BANDIT_DOC, tmp_path) == GOLDEN_BENCHMARK_BANDIT


def test_plan_tree_doc_matches_golden_digests(tmp_path):
    assert digests(PLAN_TREE_DOC, tmp_path) == GOLDEN_PLAN_TREE


def test_acquire_items_doc_matches_golden_digests(tmp_path):
    assert digests(ACQUIRE_ITEMS_DOC, tmp_path) == GOLDEN_ACQUIRE_ITEMS


def test_flavell_abandon_doc_matches_golden_digests(tmp_path):
    assert digests(FLAVELL_ABANDON_DOC, tmp_path) == GOLDEN_FLAVELL_ABANDON


ALL_DOCS = (MODE_DOCS + INT_DOCS
            + [FEATURE_BANDIT_DOC, PLAN_TREE_DOC, ACQUIRE_ITEMS_DOC, FLAVELL_ABANDON_DOC])
# sha256 of the JSON ``mgv report --out`` writes and of the table it prints,
# over the traces of every golden document above.
GOLDEN_REPORT = (
    "118a20ec14657efe18868719f3968fef2ff374f0805e20987f9ef2b36ea127a2",
    "228467425d5a339056aa598b1fdd3cfa07f949c4a6fc0665cbff31c76a9fd7a3")


def test_report_over_every_golden_trace_matches_golden_digest(tmp_path, monkeypatch):
    # Relative paths, so the report's ``trace`` fields do not depend on tmp_path.
    monkeypatch.chdir(tmp_path)
    traces = [f"run{i}.jsonl" for i in range(len(ALL_DOCS))]
    for doc, trace in zip(ALL_DOCS, traces):
        run(validate_config({**doc, "out": trace}))
    metrics, table = report(traces)
    written = json.dumps(metrics, sort_keys=True, indent=2) + "\n"
    assert (hashlib.sha256(written.encode()).hexdigest(),
            hashlib.sha256(table.encode()).hexdigest()) == GOLDEN_REPORT


def test_recall_emitted_policy_and_threshold_match_golden_digests(tmp_path):
    (doc,) = [d for d in MODE_DOCS if d["mode"] == "recall_mdp"]
    policy, threshold = tmp_path / "policy.json", tmp_path / "cutoffs.csv"
    trace_and_summary = digests(doc, tmp_path, emit_policy=str(policy),
                                emit_threshold=str(threshold))
    assert trace_and_summary == GOLDEN["recall_mdp"]
    assert (sha(policy), sha(threshold)) == (GOLDEN_POLICY, GOLDEN_THRESHOLD)


# --- repeats ----------------------------------------------------------------------

def written_files(tmp_path, summaries) -> str:
    """sha256 over the returned summaries, then each file under ``tmp_path``
    by name: its name and its bytes."""
    h = hashlib.sha256(json.dumps(summaries, sort_keys=True).encode())
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def repeat_digest(doc, tmp_path, repeat=3) -> str:
    """The files a ``--repeat`` set writes, emitted recall files included."""
    config = validate_config({**doc, "out": str(tmp_path / "trace.jsonl")})
    summaries = run_repeated(config, repeat, emit_policy=str(tmp_path / "policy.json"),
                             emit_threshold=str(tmp_path / "cutoffs.csv"))
    return written_files(tmp_path, summaries)


REPEAT_DOCS = (MODE_DOCS + INT_DOCS
               + [FEATURE_BANDIT_DOC, BENCHMARK_BANDIT_DOC, PLAN_TREE_DOC,
                  ACQUIRE_ITEMS_DOC, FLAVELL_ABANDON_DOC])
# One digest per document of REPEAT_DOCS, in order, of three repeats: traces,
# summaries and, for recall, the emitted policy and threshold files.  Pinned
# while every repeat still built its own objects, so objects that repeats
# share cannot carry state from one repeat into the next unseen.
GOLDEN_REPEAT = [
    "42b3a1a34ffe7985155bd0e6e6cd437c11636796dd6df1da90cb9730598bc891",
    "dec51a9022d61915a5b16bf310ed7654816a72367c9d913b295e69e1a408d597",
    "142311088c06be9489adbe396e198e4473252f4412bb2e1af73ac0fa50649de3",
    "6f2b5642b3d4014aa3a3b8b3020e1bde2652ac77920af765bca2f0adddfce8d6",
    "89b4e8ec0c8f968e8d37707e79bcdd9288f7b7041e744e1f7b6e5ad9d24b8e26",
    "1c8ac0212bf47ca80e17f64c6039074b60506c165945a5748dc5ab929158670c",
    "9c99ea90192994c5413351fdd3686e6f5d19ea707e1faedf64c29d35e3eb6cbc",
    "05a8433820f16599647af3a8e629636935d27cd102482b22c1d5f2d7450680b3",
    "cf95eb861a97c6fca0056b676124c5d6aa4a07c04bfedfd9dd97ce8a4e69d8c4",
    "7d0355a5a3a07439564db67a09b126e2604e091ac8be714d6d76c8257f93fc00",
    "324f7ffa1fb7488364cbddb7cb01ac7d05d45e4a3d47431e2916e88f8bbd07d3",
    "15f718833b4940cb408bf1912074cec4348ae35d20fbc1a1c3629f7b6b30731b",
    "2e0a6c060486e740d33f81b6a3b17d35243f6a3cf76570bc29f1d2a72c48ebc6",
    "2b61577af2631fc72926bdb44c902649df885166b15f3beacf8bde20b548d289",
    "70dbb272a0312a34bf737c64969c4602e099a23a1ca4de0b57ce6bb350369d7c",
    "414a6d505e82d98827ce02af45d35abc6e1f419b333bf3d7d0e87693d939f6f9",
    "31f030c38a7cfad45c77ade3b09bc2af650737e0145c38ed933cdd29ce2fd2b3",
]


@pytest.mark.parametrize("doc,golden", list(zip(REPEAT_DOCS, GOLDEN_REPEAT)),
                         ids=[f"{i}:{d['mode']}" for i, d in enumerate(REPEAT_DOCS)])
def test_repeat_outputs_match_golden_digests(doc, golden, tmp_path):
    assert repeat_digest(doc, tmp_path) == golden


@pytest.mark.parametrize("doc", REPEAT_DOCS,
                         ids=[f"{i}:{d['mode']}" for i, d in enumerate(REPEAT_DOCS)])
def test_one_config_run_twice_writes_the_same_bytes(doc, tmp_path):
    config = validate_config({**doc, "out": str(tmp_path / "trace.jsonl")})
    emit = {"emit_policy": str(tmp_path / "policy.json"),
            "emit_threshold": str(tmp_path / "cutoffs.csv")}
    first = written_files(tmp_path, [run(config, **emit)])
    assert written_files(tmp_path, [run(config, **emit)]) == first


# --- float sums on every Python -----------------------------------------------

SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of Python 3.12 and later over floats: Neumaier's
    compensated sum (gh-100425).  Anything else goes to the builtin."""
    items = list(iterable)
    if not (items and type(start) in (int, float)
            and all(type(x) is float for x in items)):
        return SUM(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.fixture
def compensated_builtin_sum(monkeypatch):
    """Runs a test as a Python whose ``sum`` compensates float rounding."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_fold_sum_adds_left_to_right_as_the_3_11_sum_does():
    assert fold_sum([1e16, 1.0, -1e16]) == 0.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert fold_sum([0.1] * 10) == 0.9999999999999999
    assert math.copysign(1.0, fold_sum([-0.0])) == 1.0
    assert fold_sum([]) == 0 and fold_sum([1, 2]) == 3


def left_to_right(values):
    total = 0
    for x in values:
        total = total + x
    return total


@pytest.mark.usefixtures("compensated_builtin_sum")
def test_each_float_sum_site_folds_left_to_right_under_a_compensated_sum():
    """Each site gets floats whose compensated sum differs from the fold."""
    tiny = [1.0, 1e-16, 1e-16]
    assert compensated_sum(tiny) != left_to_right(tiny)
    assert _resources_spent(tiny) == left_to_right(tiny)
    payloads = [{"true_voc_best": x, "true_voc_chosen": 0.0} for x in tiny]
    assert _cumulative_regret(payloads) == left_to_right(tiny)
    weights = [1e16, 1.0, 1.0]
    assert compensated_sum(weights) != left_to_right(weights)
    shares = allocate_resources({0: 1e-16, 1: 1.0, 2: 1.0}, 3.0, signal_floor=1e-20)
    assert shares == {j: 3.0 * w / left_to_right(weights) for j, w in enumerate(weights)}
    chain = _partial_sums((None, 0, 1), weights, (0, 1, 2), 0 + weights[0])
    assert chain[2] == left_to_right(weights)
    terms = [2.5e15, 0.25, 0.25]
    assert compensated_sum(terms) != left_to_right(terms)
    assert DiscretePrior((1e16, 1.0, 0.5), (0.25, 0.25, 0.5)).mean() == left_to_right(terms)
    with pytest.raises(ValidationError, match="^probs: sum to 1.0999999999999999, not 1$"):
        DiscretePrior((0.0,) * 11, (0.1,) * 11)


GOLDEN_RUNS = ([(d, GOLDEN[d["mode"]]) for d in MODE_DOCS]
               + [(d, GOLDEN_INT[d["mode"]]) for d in INT_DOCS]
               + [(FEATURE_BANDIT_DOC, GOLDEN_FEATURE_BANDIT),
                  (BENCHMARK_BANDIT_DOC, GOLDEN_BENCHMARK_BANDIT),
                  (PLAN_TREE_DOC, GOLDEN_PLAN_TREE),
                  (ACQUIRE_ITEMS_DOC, GOLDEN_ACQUIRE_ITEMS),
                  (FLAVELL_ABANDON_DOC, GOLDEN_FLAVELL_ABANDON)])


@pytest.mark.usefixtures("compensated_builtin_sum")
@pytest.mark.parametrize("doc,golden", GOLDEN_RUNS,
                         ids=[f"{i}:{d['mode']}" for i, (d, _) in enumerate(GOLDEN_RUNS)])
def test_golden_digests_hold_under_a_compensated_sum(doc, golden, tmp_path):
    assert digests(doc, tmp_path) == golden


@pytest.mark.usefixtures("compensated_builtin_sum")
def test_golden_report_holds_under_a_compensated_sum(tmp_path, monkeypatch):
    test_report_over_every_golden_trace_matches_golden_digest(tmp_path, monkeypatch)
