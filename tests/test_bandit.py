import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mgv.bandit
from mgv.bandit import (GAMMA_PRIOR, BanditState, observe, posterior_update,
                        run_bandit_episodes, sample_vocs, update_gamma)
from mgv.config import validate_config
from mgv.envs import FeatureBanditEnvironment, StationaryBanditEnvironment
from mgv.errors import FINITE, POSITIVE, DimensionMismatch, ValidationError


def oracle_update(mean, cov, noise, f, y):
    """Independent conjugate update in precision form (needs invertible cov)."""
    prec = np.linalg.inv(cov)
    prec_new = prec + np.outer(f, f) / noise
    cov_new = np.linalg.inv(prec_new)
    mean_new = cov_new @ (prec @ mean + np.asarray(f) * y / noise)
    return mean_new, cov_new


# --- conjugate update -------------------------------------------------------

def update_one(mean, cov, noise, f, y):
    """``posterior_update`` on a single belief: its new mean and covariance."""
    means, cov = posterior_update(np.array([mean]), cov, noise, f, (y,))
    return means[0], cov


def test_worked_scalar_update():
    mean, cov = update_one(np.zeros(1), np.eye(1), 1.0, [1.0], 1.0)
    assert mean[0] == pytest.approx(0.5, abs=1e-12)
    assert cov[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_update_matches_precision_form_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        prior_variance = float(rng.uniform(0.5, 2.0))
        noise = float(rng.uniform(0.5, 2.0))
        post = (np.zeros(d), np.eye(d) * prior_variance)
        mean, cov = post
        for _ in range(int(rng.integers(1, 6))):
            f = rng.normal(size=d)
            y = float(rng.normal())
            post = update_one(*post, noise, f, y)
            mean, cov = oracle_update(mean, cov, noise, f, y)
        assert np.allclose(post[0], mean, atol=1e-9)
        assert np.allclose(post[1], cov, atol=1e-9)


def test_zero_features_leave_posterior_unchanged():
    means, cov = np.zeros((2, 3)), np.eye(3)
    out_means, out_cov = posterior_update(means, cov, 1.0, [0.0, 0.0, 0.0], (5.0, -2.0))
    assert np.array_equal(out_means, means)
    assert np.array_equal(out_cov, cov)


def test_variance_never_increases_along_any_direction():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        mean, cov = np.zeros(d), np.eye(d)
        for _ in range(int(rng.integers(1, 8))):
            before = cov.copy()
            mean, cov = update_one(mean, cov, 1.0, rng.normal(size=d), float(rng.normal()))
            for _ in range(5):
                v = rng.normal(size=d)
                assert v @ cov @ v <= v @ before @ v + 1e-12


@pytest.mark.parametrize("d", [1, 5, 8])
def test_covariance_stays_exactly_symmetric_psd_over_long_runs(d):
    rng = np.random.default_rng(d)
    mean, cov = np.zeros(d), np.eye(d)
    for step in range(10_000):
        mean, cov = update_one(mean, cov, 1.0, rng.normal(size=d), float(rng.normal()))
        assert np.array_equal(cov, cov.T), step
        floor = -1e-12 * max(1.0, float(np.trace(cov)))
        assert np.linalg.eigvalsh(cov).min() >= floor, step


def test_update_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        posterior_update(np.zeros((1, 2)), np.eye(2), 1.0, [1.0], (0.0,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_update_rejects_non_finite_features(bad):
    """The features come first: a bad observation beside them is not named."""
    with pytest.raises(ValueError, match="features must be finite"):
        posterior_update(np.zeros((2, 2)), np.eye(2), 1.0, [1.0, bad], (0.0, bad))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_update_rejects_a_non_finite_observation(bad):
    for observations in ((bad,), (0.0, bad), (bad, 1.0)):
        means = np.zeros((len(observations), 2))
        with pytest.raises(ValueError, match="observations must be finite"):
            posterior_update(means, np.eye(2), 1.0, [1.0, 0.5], observations)


def state_arrays(state):
    return state.means, state.covariances, state.factors, state.noise


def state_bytes(state):
    return ([a.tobytes() for a in state_arrays(state)],
            state.cumulative_reward, state.cumulative_time)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observe_rejects_non_finite_features_before_any_change(bad):
    state = BanditState(2, 2)
    observe(state, 1, np.ones(2), utility=0.5, elapsed=1.0)
    before = state_bytes(state)
    with pytest.raises(ValueError, match="features must be finite"):
        observe(state, 1, np.array([bad, 1.0]), utility=1.0, elapsed=1.0)
    assert state_bytes(state) == before


@pytest.mark.parametrize("field, bad", [(field, bad) for field in ("utility", "elapsed")
                                        for bad in (math.nan, math.inf, -math.inf)]
                         + [("elapsed", 0.0), ("elapsed", -1.0)])
def test_observe_rejects_a_bad_outcome_before_any_change(field, bad):
    state = BanditState(2, 2)
    observe(state, 1, np.ones(2), utility=0.5, elapsed=1.0)
    before = state_bytes(state)
    with pytest.raises(ValueError, match="must be (positive and )?finite"):
        observe(state, 1, np.ones(2), **{"utility": 1.0, "elapsed": 1.0, field: bad})
    assert state_bytes(state) == before


@pytest.mark.parametrize("strategy", [-1, 2])
def test_observe_rejects_a_strategy_out_of_range_before_any_change(strategy):
    """A negative index would wrap to another arm; one past the end has no arm."""
    state = BanditState(2, 1)
    observe(state, 1, np.ones(1), utility=0.5, elapsed=1.0)
    before = state_bytes(state)
    with pytest.raises(ValueError, match=rf"strategy {strategy} is not in range\(2\)"):
        observe(state, strategy, np.ones(1), utility=1.0, elapsed=1.0)
    assert state_bytes(state) == before


@pytest.mark.parametrize("field", ["prior_variance", "noise_variance"])
@pytest.mark.parametrize("bad, message", [(-0.5, "must be positive"),
                                          (math.inf, "must be finite")])
def test_standard_prior_checks_its_variances_with_the_table_rules(field, bad, message):
    """The constructor builds its prior from these: a negative or infinite
    variance would make a non-PSD or NaN covariance (tests/test_config.py
    holds NaN and the range to the params table)."""
    with pytest.raises(ValidationError) as raised:
        BanditState(2, 2, **{field: bad})
    assert (raised.value.field, raised.value.message) == (field, message)


def collapsed_state(means):
    """A state whose beliefs, ``means`` ``(arms, 2, d)``, have zero
    covariances and factors: every sample is the mean."""
    state = BanditState(*np.shape(means)[::2])
    state.means[:] = means
    state.covariances[:] = 0.0
    state.factors[:] = 0.0
    return state


def test_collapsed_posterior_samples_its_mean():
    state = collapsed_state([[[1.5, -2.0], [0.0, 0.0]]])
    for i, want in enumerate([1.5, -2.0]):
        samples = {float(sample_vocs(state, np.eye(2)[i], 0.0,
                                     np.random.default_rng(s))[0]) for s in range(5)}
        assert samples == {want}


# --- opportunity cost -------------------------------------------------------

def test_gamma_prior_smoothing_before_data():
    state = BanditState(2, 1, gamma_prior=(1.0, 2.0))
    assert state.gamma == pytest.approx(0.5)


NON_FINITE_PRIORS = [prior for bad in (math.nan, math.inf, -math.inf)
                     for prior in ((bad, 1.0), (0.0, bad))]


@pytest.mark.parametrize("prior", NON_FINITE_PRIORS, ids=str)
def test_gamma_prior_must_be_finite(prior):
    with pytest.raises(ValidationError) as raised:
        BanditState(2, 1, gamma_prior=prior)
    assert raised.value.field == "gamma_prior"
    doc = {"mode": "bandit", "seed": 2,
           "params": {"episodes": 5, "utilities": [0.8, 0.2], "times": [1.0, 1.0],
                      "gamma_prior": list(prior)}}
    with pytest.raises(ValidationError) as raised:
        validate_config(doc)
    assert raised.value.field.startswith("params.gamma_prior")


def test_update_gamma_accumulates():
    state = BanditState(1, 1)
    g = update_gamma(state, reward=3.0, elapsed=2.0)
    assert g == pytest.approx(3.0 / 3.0)  # (3 + 0) / (2 + 1)
    g = update_gamma(state, reward=1.0, elapsed=1.0)
    assert g == pytest.approx(4.0 / 4.0)


def test_update_gamma_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        update_gamma(BanditState(1, 1), 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["reward", "elapsed"])
def test_update_gamma_rejects_a_non_finite_outcome_before_any_change(field, bad):
    state = BanditState(1, 1)
    update_gamma(state, 1.0, 2.0)
    with pytest.raises(ValueError, match="finite"):
        update_gamma(state, **{"reward": 1.0, "elapsed": 1.0, field: bad})
    assert (state.cumulative_reward, state.cumulative_time) == (1.0, 2.0)


# --- construction -----------------------------------------------------------

def test_state_rejects_zero_strategies():
    with pytest.raises(ValueError, match="at least one strategy"):
        BanditState(0, 2)


def svd_factor(cov):
    """The factor ``Generator.multivariate_normal(method="svd")`` builds."""
    u, s, _ = np.linalg.svd(cov)
    return u * np.sqrt(s)


def reference_create(num_strategies, feature_dim, prior_variance=1.0, noise_variance=1.0,
                     gamma_prior=(0.0, 1.0)):
    """The state's arrays built one posterior at a time, each from a fresh
    prior with its own single-matrix SVD, after the checks in their
    documented order: too few strategies, the variances, then gamma_prior."""
    if num_strategies < 1:
        raise ValueError("a bandit needs at least one strategy")
    for field, v in (("prior_variance", prior_variance), ("noise_variance", noise_variance)):
        POSITIVE.check(field, FINITE.check(field, v))
    covariances = [np.eye(feature_dim) * prior_variance for _ in range(num_strategies)]
    GAMMA_PRIOR.check("gamma_prior", gamma_prior)
    return (np.array([[np.zeros(feature_dim)] * 2 for _ in covariances]),
            np.array(covariances), np.array([svd_factor(c) for c in covariances]),
            np.array([noise_variance for _ in covariances]))


@pytest.mark.parametrize("arms", [1, 2, 8])
@pytest.mark.parametrize("d", [0, 1, 2, 5, 9])
def test_create_matches_per_posterior_construction_bit_for_bit(arms, d):
    for prior_variance in (1.0, 0.37, 2.5, 1e-8, 1e6):
        for noise_variance in (1.0, 0.2, 3.7):
            args = (arms, d, prior_variance, noise_variance, (0.3, 2.0))
            got, want = BanditState(*args), reference_create(*args)
            assert all(same_bits(a, b) and a.dtype == b.dtype
                       for a, b in zip(state_arrays(got), want)), args
            assert (got.cumulative_reward, got.cumulative_time, got.gamma_prior) == \
                (0.0, 0.0, (0.3, 2.0))
            assert all(a.flags.writeable and a.flags.c_contiguous
                       for a in state_arrays(got)), args


BAD_CREATE_ARGS = [
    (0, 2, 1.0, 1.0, (0.0, 1.0)),
    (-1, 2, 1.0, 1.0, (0.0, 1.0)),
    (0, 2, math.nan, 0.0, (0.0, 0.0)),  # too few strategies comes first
    (2, -1, 1.0, 1.0, (0.0, 1.0)),
    (2, 2, math.nan, 1.0, (0.0, 1.0)),
    (2, 2, math.inf, 1.0, (0.0, 1.0)),
    (2, 2, 1.0, 0.0, (0.0, 1.0)),
    (2, 2, 1.0, math.nan, (0.0, 1.0)),
    (2, 2, 1.0, math.inf, (0.0, 1.0)),
    (2, 2, 1.0, 0.0, (0.0, 0.0)),  # the prior before gamma_prior
    (2, 2, 1.0, 1.0, (0.0, 0.0)),
    (2, 2, 1.0, 1.0, (math.nan, 1.0)),
    (2, 2, 1.0, 1.0, (0.0,)),
    (2.5, 2, 1.0, 1.0, (0.0, 1.0)),
]


@pytest.mark.parametrize("args", BAD_CREATE_ARGS, ids=str)
def test_create_raises_what_per_posterior_construction_raises(args):
    with pytest.raises(Exception) as want:
        reference_create(*args)
    with pytest.raises(want.type) as got:
        BanditState(*args)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "field", None) == getattr(want.value, "field", None)


# --- Thompson selection -----------------------------------------------------

def test_zero_covariance_reduces_to_greedy_argmax():
    rng_out = np.random.default_rng(42)
    for trial in range(200):
        k, d = int(rng_out.integers(2, 6)), int(rng_out.integers(1, 4))
        feats = rng_out.normal(size=d)
        state = collapsed_state(rng_out.normal(size=(k, 2, d)))
        gamma = float(rng_out.uniform(0, 2))
        greedy = int(np.argmax([u @ feats - gamma * (t @ feats) for u, t in state.means]))
        chosen = int(np.argmax(sample_vocs(state, feats, gamma, np.random.default_rng(trial))))
        assert chosen == greedy


def test_sampled_vocs_vary_under_uncertainty():
    state = BanditState(2, 1)
    draws = {tuple(sample_vocs(state, np.ones(1), 0.0, np.random.default_rng(s)))
             for s in range(5)}
    assert len(draws) == 5


def test_observe_updates_both_posteriors_and_gamma():
    state = BanditState(2, 1)
    g = observe(state, 0, np.ones(1), utility=1.0, elapsed=2.0)
    assert state.means[0, 0, 0] == pytest.approx(0.5)
    assert state.means[0, 1, 0] == pytest.approx(1.0)
    assert state.means[1, 0, 0] == 0.0
    assert g == pytest.approx((1.0 + 0.0) / (2.0 + 1.0))


def test_two_arm_learning_prefers_the_better_arm():
    env = StationaryBanditEnvironment(utilities=[0.8, 0.2], times=[1.0, 1.0],
                                      reward_noise=0.1)
    state = BanditState(2, 1)
    records = run_bandit_episodes(env, state, 500, np.random.default_rng(0))
    last = [r["chosen"] for r in records[-100:]]
    assert last.count(0) > 80


def test_episode_records_expose_regret_terms():
    env = StationaryBanditEnvironment(utilities=[1.0, 0.0], times=[1.0, 1.0])
    state = BanditState(2, 1)
    (rec,) = run_bandit_episodes(env, state, 1, np.random.default_rng(0))
    assert rec["true_voc_best"] >= rec["true_voc_chosen"]
    assert set(rec) >= {"episode", "chosen", "reward", "elapsed", "gamma",
                        "sampled_vocs", "true_voc_chosen", "true_voc_best"}


def test_episodes_reject_a_state_for_another_number_of_arms():
    env = StationaryBanditEnvironment(utilities=[1.0, 0.0, 0.5], times=[1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        run_bandit_episodes(env, BanditState(2, 1), 1, np.random.default_rng(0))


def svd_shapes(monkeypatch):
    """The shape of every ``np.linalg.svd`` argument, in call order."""
    svd = np.linalg.svd
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


def feature_env(rng, arms, d):
    return FeatureBanditEnvironment(rng.uniform(size=(arms, d)),
                                    rng.uniform(0.1, 1.0, size=(arms, d)))


def test_episodes_factor_each_posterior_once(monkeypatch):
    """Only the chosen arm's covariance changes per episode.  The
    constructor factors its one prior once, and each episode factors the chosen arm's
    one covariance, which its two beliefs share."""
    shapes = svd_shapes(monkeypatch)
    rng = np.random.default_rng(3)
    arms, d, episodes = 3, 4, 25
    env = feature_env(rng, arms, d)
    state = BanditState(arms, d)
    run_bandit_episodes(env, state, episodes, rng)
    assert shapes == [(d, d)] * (episodes + 1)
    assert state.covariances.shape == state.factors.shape == (arms, d, d)
    assert state.noise.shape == (arms,)


def test_episodes_update_once_each_through_the_module_posterior_update(monkeypatch):
    """A wrapper set on ``mgv.bandit`` sees every episode's update, and
    changes no record."""
    rng = np.random.default_rng(8)
    arms, d, episodes = 3, 2, 40
    env = feature_env(rng, arms, d)
    want = run_bandit_episodes(env, BanditState(arms, d), episodes, np.random.default_rng(9))
    calls = []

    def counting(*args):
        calls.append(args)
        return posterior_update(*args)

    monkeypatch.setattr(mgv.bandit, "posterior_update", counting)
    got = run_bandit_episodes(env, BanditState(arms, d), episodes, np.random.default_rng(9))
    assert len(calls) == episodes
    assert repr(got) == repr(want)


def test_episodes_take_every_true_value_in_one_call_after_the_last_episode():
    """No decision reads the true values: one stacked ``true_vocs`` call
    after the loop gives each record the values of one call per episode."""
    calls = []

    class Recording(FeatureBanditEnvironment):
        def true_vocs(self, feats, gamma):
            calls.append((np.array(feats), np.array(gamma)))
            return super().true_vocs(feats, gamma)

    rng = np.random.default_rng(5)
    arms, d, episodes = 4, 3, 30
    env = Recording(rng.uniform(size=(arms, d)), rng.uniform(0.1, 1.0, size=(arms, d)))
    records = run_bandit_episodes(env, BanditState(arms, d), episodes, rng)
    ((feats, gammas),) = calls
    assert feats.shape == (episodes, d) and gammas.shape == (episodes,)
    pre_choice = [BanditState(arms, d).gamma] + [r["gamma"] for r in records[:-1]]
    assert gammas.tolist() == pre_choice
    for r, f, g in zip(records, feats, gammas):
        assert r["features"] == f.tolist()
        true_vocs = FeatureBanditEnvironment.true_vocs(env, f, float(g)).tolist()
        assert r["true_voc_chosen"] == true_vocs[r["chosen"]]
        assert r["true_voc_best"] == max(true_vocs)
        assert list(r)[-2:] == ["true_voc_chosen", "true_voc_best"]


def test_zero_episodes_make_no_records():
    """With no episode there is no stack of features to take true values of."""
    rng = np.random.default_rng(6)
    state = BanditState(2, 3)
    assert run_bandit_episodes(feature_env(rng, 2, 3), state, 0, rng) == []
    assert state.gamma == 0.0


def test_sample_vocs_rejects_features_of_another_size():
    with pytest.raises(DimensionMismatch):
        sample_vocs(BanditState(2, 3), np.ones(2), 0.0, np.random.default_rng(0))


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_thompson_select_index_in_range(seed):
    """Each episode plays the first argmax of its sampled scores."""
    env = StationaryBanditEnvironment(utilities=[0.5, 0.5, 0.5], times=[1.0, 1.0, 1.0])
    records = run_bandit_episodes(env, BanditState(3, 1), 5,
                                  np.random.default_rng(seed))
    for r in records:
        assert 0 <= r["chosen"] < 3
        assert r["chosen"] == int(np.argmax(r["sampled_vocs"]))


# --- sampler fence ----------------------------------------------------------

def reference_sample_vocs(state, features, gamma, rng):
    """The sampler as numpy defines it: one SVD-based multivariate normal
    draw per posterior, utility before time, arm by arm."""
    vocs = np.empty(state.num_strategies)
    for i in range(state.num_strategies):
        wu, wt = (rng.multivariate_normal(state.means[i, k], state.covariances[i],
                                          check_valid="ignore", method="svd")
                  for k in (0, 1))
        f = np.asarray(features, dtype=float)
        vocs[i] = float(wu @ f - gamma * (wt @ f))
    return vocs


def fence_covariance(rng, d):
    """A PSD covariance that is full rank, rank one or zero, and a noise
    variance."""
    kind = int(rng.integers(4))
    if kind == 0:  # a belief after some conjugate updates
        mean, cov = np.zeros(d), np.eye(d) * float(rng.uniform(0.2, 3.0))
        noise = float(rng.uniform(0.2, 2.0))
        for _ in range(int(rng.integers(0, 12))):
            mean, cov = update_one(mean, cov, noise, rng.normal(size=d), float(rng.normal()))
        return cov, noise
    if kind == 1:  # full rank, symmetric only up to rounding
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
    elif kind == 2:
        v = rng.normal(size=d)
        cov = np.outer(v, v)
    else:
        cov = np.zeros((d, d))
    return cov, 1.0


def fence_state(rng, arms, d):
    """A constructed state with random means, whose arms each hold a fence
    covariance, its single-matrix SVD factor and a noise variance."""
    state = BanditState(arms, d)
    for arm in range(arms):
        cov, state.noise[arm] = fence_covariance(rng, d)
        state.covariances[arm], state.factors[arm] = cov, svd_factor(cov)
    state.means[:] = rng.normal(size=state.means.shape)
    return state


def fence_cases():
    meta = np.random.default_rng(2024)
    for case in range(60):
        arms, d = int(meta.integers(1, 9)), int(meta.integers(1, 7))
        state = fence_state(meta, arms, d)
        yield case, state, meta.normal(size=d), float(meta.uniform(0.0, 2.0))


def test_sample_vocs_matches_multivariate_normal_bit_for_bit():
    for case, state, feats, gamma in fence_cases():
        for draw in range(3):
            ours, ref = (np.random.default_rng([case, draw]) for _ in range(2))
            got = sample_vocs(state, feats, gamma, ours)
            want = reference_sample_vocs(state, feats, gamma, ref)
            assert np.array_equal(got, want), (case, draw)
            assert ours.bit_generator.state == ref.bit_generator.state, (case, draw)


def test_construction_factors_each_posterior_bit_for_bit():
    """Construction gives each arm the factor a single-matrix SVD gives its
    covariance."""
    meta = np.random.default_rng(2025)
    for case in range(60):
        arms, d = int(meta.integers(1, 9)), int(meta.integers(1, 7))
        state = BanditState(arms, d, prior_variance=float(meta.uniform(1e-3, 1e3)))
        for arm in range(arms):
            assert same_bits(state.factors[arm], svd_factor(state.covariances[arm])), case


# --- update fence -----------------------------------------------------------

def reference_update(mean, covariance, noise, features, observation):
    """One belief's update and SVD factor, with one belief's vector
    products."""
    f = np.asarray(features, dtype=float)
    sf = covariance @ f
    denom = noise + f @ sf
    gain = sf / denom
    mean = mean + gain * (observation - f @ mean)
    cov = covariance - np.outer(gain, sf)
    cov = (cov + cov.T) / 2.0
    return mean, cov, svd_factor(cov)


def fence_features(rng, d):
    """Normal features, some of them zero, or all of them zero."""
    kind = int(rng.integers(4))
    f = rng.normal(size=d)
    if kind == 0:
        return np.zeros(d)
    if kind == 1:
        f[rng.random(d) < 0.5] = 0.0
    return f


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_observe_fence(meta, state, arms, d, case):
    """Observe a few steps and hold each against the per-posterior update."""
    for step in range(int(meta.integers(1, 5))):
        arm, f = int(meta.integers(arms)), fence_features(meta, d)
        utility, elapsed = float(meta.normal()), float(meta.uniform(0.1, 3.0))
        old = [(state.means[arm, k].copy(), state.covariances[arm].copy(),
                float(state.noise[arm])) for k in (0, 1)]
        others = [np.delete(a, arm, axis=0).tobytes() for a in state_arrays(state)]
        observe(state, arm, f, utility, elapsed)
        for k, (before, y) in enumerate(zip(old, (utility, elapsed))):
            mean, cov, factor = reference_update(*before, f, y)
            assert same_bits(state.means[arm, k], mean), (case, step)
            assert same_bits(state.covariances[arm], cov), (case, step)
            assert same_bits(state.factors[arm], factor), (case, step)
            assert state.noise[arm] == before[2]
            single_mean, single_cov = update_one(*before, f, y)
            assert same_bits(single_mean, mean), (case, step)
            assert same_bits(single_cov, cov), (case, step)
        assert [np.delete(a, arm, axis=0).tobytes() for a in state_arrays(state)] == others


def test_observe_matches_per_posterior_updates_bit_for_bit():
    meta = np.random.default_rng(2026)
    for case in range(300):
        arms, d = int(meta.integers(1, 5)), int(meta.integers(1, 8))
        check_observe_fence(meta, fence_state(meta, arms, d), arms, d, case)
