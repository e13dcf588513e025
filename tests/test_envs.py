import numpy as np
import pytest

from mgv.envs import (CueRetrievalEnvironment, FeatureBanditEnvironment,
                      StationaryBanditEnvironment, SyntheticTaskEnvironment)
from mgv.errors import ValidationError


def test_task_env_scores_from_table_with_fallback():
    env = SyntheticTaskEnvironment({"a": 0.9}, completeness=0.7)
    rng = np.random.default_rng(0)
    outcome, completeness = env.execute("a", 1.0, rng)
    assert outcome == 0.9 and completeness == 0.7
    outcome, _ = env.execute("unknown", 1.0, rng)
    assert outcome == -0.5


def test_task_env_noise_stays_in_range():
    env = SyntheticTaskEnvironment({"a": 0.95}, noise=1.0)
    rng = np.random.default_rng(1)
    outcomes = [env.execute("a", 1.0, rng)[0] for _ in range(200)]
    assert all(-1.0 <= o <= 1.0 for o in outcomes)
    assert len(set(outcomes)) > 1


def test_task_env_meta_evaluate_is_clamped_identity():
    env = SyntheticTaskEnvironment({})
    assert env.meta_evaluate(0.4, None) == 0.4
    assert env.meta_evaluate(3.0, None) == 1.0


def test_cue_env_certain_match_statistics():
    env = CueRetrievalEnvironment("x", match_prob=1.0, cue_samples=4,
                                  evidence_scale=0.25, min_matches=6)
    rng = np.random.default_rng(0)
    assert env.monitor_evidence(rng) == (0.25, 0.0)
    assert env.search() is None  # nothing attended yet
    assert env.attend(1, rng) == 4
    assert env.attend(2, rng) == 8
    assert env.cum_matches == 12
    assert env.search() == "x"
    assert env.assess_confidence() == 1.0


def test_cue_env_no_target_never_answers():
    env = CueRetrievalEnvironment(None, match_prob=1.0, min_matches=0)
    env.attend(1, np.random.default_rng(0))
    assert env.search() is None


def test_cue_env_validation():
    with pytest.raises(ValueError):
        CueRetrievalEnvironment("x", match_prob=1.5)
    with pytest.raises(ValueError):
        CueRetrievalEnvironment("x", match_prob=0.5, cue_samples=0)


def test_cue_env_confidence_gain_scales_and_clamps():
    env = CueRetrievalEnvironment("x", match_prob=1.0, confidence_gain=2.0)
    assert env.assess_confidence() == 0.0
    env.attend(1, np.random.default_rng(0))
    assert env.assess_confidence() == 1.0


def test_stationary_env_noiseless_pull_and_voc():
    env = StationaryBanditEnvironment([0.8, 0.2], [1.0, 2.0], reward_noise=0.0)
    rng = np.random.default_rng(0)
    assert env.num_arms == 2 and env.feature_dim == 1
    assert np.array_equal(env.features(rng), [1.0])
    assert env.pull(0, env.features(rng), rng) == (0.8, 1.0)
    assert env.true_voc(1, np.ones(1), gamma=0.1) == pytest.approx(0.0)


def test_stationary_env_validation():
    with pytest.raises(ValueError):
        StationaryBanditEnvironment([0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        StationaryBanditEnvironment([0.5], [0.0])


def test_feature_env_linear_payoffs_with_time_floor():
    env = FeatureBanditEnvironment(utility_weights=[[1.0, 0.0]],
                                   time_weights=[[0.0, 0.0]],
                                   reward_noise=0.0, time_floor=0.05)
    feats = np.array([0.3, 0.9])
    utility, elapsed = env.pull(0, feats, np.random.default_rng(0))
    assert utility == pytest.approx(0.3)
    assert elapsed == 0.05  # floored
    assert env.true_voc(0, feats, gamma=1.0) == pytest.approx(0.3 - 0.05)


def test_feature_env_features_are_unit_interval():
    env = FeatureBanditEnvironment(np.ones((2, 3)), np.ones((2, 3)))
    feats = env.features(np.random.default_rng(5))
    assert feats.shape == (3,)
    assert ((feats >= 0) & (feats <= 1)).all()


def test_feature_env_features_draw_what_uniform_draws():
    """``features`` takes ``rng.random(d)``: the doubles and the stream
    position of ``uniform(0.0, 1.0, d)``, on which the pinned traces rest."""
    for d in (1, 2, 5, 8, 13):
        env = FeatureBanditEnvironment(np.ones((2, d)), np.ones((2, d)))
        for seed in range(200):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = env.features(ours), ref.uniform(0.0, 1.0, size=d)
            assert got.tobytes() == want.tobytes(), (d, seed)
            assert ours.bit_generator.state == ref.bit_generator.state, (d, seed)


def test_feature_env_shape_validation():
    with pytest.raises(ValueError):
        FeatureBanditEnvironment(np.ones((2, 3)), np.ones((2, 2)))


@pytest.mark.parametrize("weights", [[1.0, 2.0], 1.0, np.ones((2, 3, 1))],
                         ids=["vector", "scalar", "3-d"])
def test_feature_env_rejects_weights_that_are_not_a_matrix(weights):
    """The params table admits only matrices; a library caller's vector
    fails here, naming the field, not later in ``feature_dim``."""
    with pytest.raises(ValidationError) as info:
        FeatureBanditEnvironment(weights, weights)
    assert info.value.field == "utility_weights"


def test_feature_env_checks_its_time_floor():
    """``time_floor`` has no params-table field, so the table tests in
    ``test_config.py`` do not reach it."""
    for time_floor in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError) as info:
            FeatureBanditEnvironment(np.ones((2, 3)), np.ones((2, 3)), time_floor=time_floor)
        assert (info.value.field, info.value.message) == ("time_floor", "must be positive")


# --- batched true values fence ----------------------------------------------

def per_arm_true_vocs(env, feats, gamma):
    return np.array([env.true_voc(a, feats, gamma) for a in range(env.num_arms)])


def test_feature_true_vocs_match_per_arm_true_voc_bit_for_bit():
    rng = np.random.default_rng(77)
    clipped = 0
    for case in range(300):
        arms, d = int(rng.integers(1, 10)), int(rng.integers(1, 9))
        env = FeatureBanditEnvironment(rng.normal(size=(arms, d)),
                                       rng.normal(0.3, 0.6, size=(arms, d)),
                                       time_floor=float(rng.uniform(0.01, 0.5)))
        feats = rng.uniform(0.0, 1.0, size=d)
        gamma = float(rng.uniform(-1.0, 3.0))
        got = env.true_vocs(feats, gamma)
        assert np.array_equal(got, per_arm_true_vocs(env, feats, gamma)), case
        clipped += int((env.time_weights @ feats <= env.time_floor).sum())
    assert clipped > 100  # the floor decided many arms' durations


def test_stationary_true_vocs_match_per_arm_true_voc_bit_for_bit():
    rng = np.random.default_rng(78)
    for case in range(100):
        arms = int(rng.integers(1, 10))
        env = StationaryBanditEnvironment(rng.normal(size=arms).tolist(),
                                          rng.uniform(0.1, 2.0, size=arms).tolist())
        gamma = float(rng.uniform(-1.0, 3.0))
        got = env.true_vocs(np.ones(1), gamma)
        assert np.array_equal(got, per_arm_true_vocs(env, np.ones(1), gamma)), case


def test_feature_true_vocs_of_a_stack_match_one_call_per_episode_bit_for_bit():
    """``run_bandit_episodes`` takes every episode's true values in one call
    over the stacked features and gammas; each row is the single call's."""
    rng = np.random.default_rng(79)
    for case in range(300):
        arms, d, episodes = (int(rng.integers(1, 10)), int(rng.integers(1, 9)),
                             int(rng.integers(1, 40)))
        env = FeatureBanditEnvironment(rng.normal(size=(arms, d)),
                                       rng.normal(0.3, 0.6, size=(arms, d)),
                                       time_floor=float(rng.uniform(0.01, 0.5)))
        feats = rng.uniform(0.0, 1.0, size=(episodes, d))
        gammas = rng.uniform(-1.0, 3.0, size=episodes)
        got = env.true_vocs(feats, gammas)
        want = np.array([env.true_vocs(f, float(g)) for f, g in zip(feats, gammas)])
        assert got.shape == (episodes, arms) and got.tobytes() == want.tobytes(), case


def test_stationary_true_vocs_of_a_stack_match_one_call_per_episode_bit_for_bit():
    rng = np.random.default_rng(80)
    for case in range(100):
        arms, episodes = int(rng.integers(1, 10)), int(rng.integers(1, 40))
        env = StationaryBanditEnvironment(rng.normal(size=arms).tolist(),
                                          rng.uniform(0.1, 2.0, size=arms).tolist())
        gammas = rng.uniform(-1.0, 3.0, size=episodes)
        got = env.true_vocs(np.ones((episodes, 1)), gammas)
        want = np.array([env.true_vocs(np.ones(1), float(g)) for g in gammas])
        assert got.shape == (episodes, arms) and got.tobytes() == want.tobytes(), case
