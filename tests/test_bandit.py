import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgv.bandit import (BanditState, WeightPosterior, observe, posterior_update,
                        run_bandit_episodes, sample_vocs, thompson_select,
                        update_gamma, voc_estimate)
from mgv.config import validate_config
from mgv.envs import FeatureBanditEnvironment, StationaryBanditEnvironment
from mgv.errors import DimensionMismatch, ValidationError


def oracle_update(mean, cov, noise, f, y):
    """Independent conjugate update in precision form (needs invertible cov)."""
    prec = np.linalg.inv(cov)
    prec_new = prec + np.outer(f, f) / noise
    cov_new = np.linalg.inv(prec_new)
    mean_new = cov_new @ (prec @ mean + np.asarray(f) * y / noise)
    return mean_new, cov_new


# --- conjugate update -------------------------------------------------------

def test_worked_scalar_update():
    post = posterior_update(WeightPosterior.standard(1), [1.0], 1.0)
    assert post.mean[0] == pytest.approx(0.5, abs=1e-12)
    assert post.covariance[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_update_matches_precision_form_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        post = WeightPosterior.standard(d, prior_variance=float(rng.uniform(0.5, 2.0)),
                                        noise_variance=float(rng.uniform(0.5, 2.0)))
        mean, cov = post.mean.copy(), post.covariance.copy()
        for _ in range(int(rng.integers(1, 6))):
            f = rng.normal(size=d)
            y = float(rng.normal())
            post = posterior_update(post, f, y)
            mean, cov = oracle_update(mean, cov, post.noise_variance, f, y)
        assert np.allclose(post.mean, mean, atol=1e-9)
        assert np.allclose(post.covariance, cov, atol=1e-9)


def test_zero_features_leave_posterior_unchanged():
    post = WeightPosterior.standard(3)
    out = posterior_update(post, [0.0, 0.0, 0.0], 5.0)
    assert np.array_equal(out.mean, post.mean)
    assert np.array_equal(out.covariance, post.covariance)


def test_variance_never_increases_along_any_direction():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        post = WeightPosterior.standard(d)
        for _ in range(int(rng.integers(1, 8))):
            before = post.covariance.copy()
            post = posterior_update(post, rng.normal(size=d), float(rng.normal()))
            for _ in range(5):
                v = rng.normal(size=d)
                assert v @ post.covariance @ v <= v @ before @ v + 1e-12


@pytest.mark.parametrize("d", [1, 5, 8])
def test_covariance_stays_exactly_symmetric_psd_over_long_runs(d):
    rng = np.random.default_rng(d)
    post = WeightPosterior.standard(d)
    for step in range(10_000):
        post = posterior_update(post, rng.normal(size=d), float(rng.normal()))
        cov = post.covariance
        assert np.array_equal(cov, cov.T), step
        floor = -1e-12 * max(1.0, float(np.trace(cov)))
        assert np.linalg.eigvalsh(cov).min() >= floor, step


def test_update_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        posterior_update(WeightPosterior.standard(2), [1.0], 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_update_rejects_non_finite_features(bad):
    post = WeightPosterior.standard(2)
    with pytest.raises(ValueError, match="features must be finite"):
        posterior_update(post, [1.0, bad], 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_update_rejects_a_non_finite_observation(bad):
    post = WeightPosterior.standard(2)
    with pytest.raises(ValueError, match="observation must be finite"):
        posterior_update(post, [1.0, 0.5], bad)


def state_bytes(state):
    return ([a.tobytes() for a in (state.means, state.covariances, state.factors,
                                   state.noise)],
            state.cumulative_reward, state.cumulative_time)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observe_rejects_non_finite_features_before_any_change(bad):
    state = BanditState.create(2, 2)
    observe(state, 1, np.ones(2), utility=0.5, elapsed=1.0)
    before = state_bytes(state)
    with pytest.raises(ValueError, match="features must be finite"):
        observe(state, 1, np.array([bad, 1.0]), utility=1.0, elapsed=1.0)
    assert state_bytes(state) == before


@pytest.mark.parametrize("field, bad", [(field, bad) for field in ("utility", "elapsed")
                                        for bad in (math.nan, math.inf, -math.inf)]
                         + [("elapsed", 0.0), ("elapsed", -1.0)])
def test_observe_rejects_a_bad_outcome_before_any_change(field, bad):
    state = BanditState.create(2, 2)
    observe(state, 1, np.ones(2), utility=0.5, elapsed=1.0)
    before = state_bytes(state)
    with pytest.raises(ValueError, match="must be (positive and )?finite"):
        observe(state, 1, np.ones(2), **{"utility": 1.0, "elapsed": 1.0, field: bad})
    assert state_bytes(state) == before


@pytest.mark.parametrize("strategy", [-1, 2])
def test_observe_rejects_a_strategy_out_of_range_before_any_change(strategy):
    """A negative index would wrap to another arm; one past the end has no arm."""
    state = BanditState.create(2, 1)
    observe(state, 1, np.ones(1), utility=0.5, elapsed=1.0)
    before = state_bytes(state)
    with pytest.raises(ValueError, match=rf"strategy {strategy} is not in range\(2\)"):
        observe(state, strategy, np.ones(1), utility=1.0, elapsed=1.0)
    assert state_bytes(state) == before


def test_posterior_validation():
    with pytest.raises(ValueError):
        WeightPosterior(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
    for noise_variance in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            WeightPosterior(np.zeros(1), np.eye(1), noise_variance=noise_variance)


def test_posterior_is_frozen():
    post = WeightPosterior.standard(2)
    with pytest.raises(AttributeError):
        post.covariance = np.zeros((2, 2))


def test_collapsed_posterior_samples_its_mean():
    collapsed = WeightPosterior(np.array([1.5, -2.0]), np.zeros((2, 2)))
    state = BanditState([collapsed], [WeightPosterior(np.zeros(2), np.zeros((2, 2)))])
    for i, want in enumerate(collapsed.mean):
        samples = {float(sample_vocs(state, np.eye(2)[i], 0.0,
                                     np.random.default_rng(s))[0]) for s in range(5)}
        assert samples == {want}


# --- value of computation ---------------------------------------------------

def test_voc_estimate_formula():
    voc = voc_estimate([1.0, 2.0], [0.5, 0.5], [1.0, 1.0], gamma=2.0)
    assert voc == pytest.approx(3.0 - 2.0 * 1.0)


def test_voc_estimate_zero_gamma_is_pure_utility():
    assert voc_estimate([0.7], [9.9], [1.0], 0.0) == pytest.approx(0.7)


def test_voc_estimate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        voc_estimate([1.0, 2.0], [0.5], [1.0], 1.0)


# --- opportunity cost -------------------------------------------------------

def test_gamma_prior_smoothing_before_data():
    state = BanditState.create(2, 1, gamma_prior=(1.0, 2.0))
    assert state.gamma == pytest.approx(0.5)


NON_FINITE_PRIORS = [prior for bad in (math.nan, math.inf, -math.inf)
                     for prior in ((bad, 1.0), (0.0, bad))]


@pytest.mark.parametrize("prior", NON_FINITE_PRIORS, ids=str)
def test_gamma_prior_must_be_finite(prior):
    posteriors = [WeightPosterior.standard(1)]
    for make in (lambda: BanditState(posteriors, posteriors, gamma_prior=prior),
                 lambda: BanditState.create(2, 1, gamma_prior=prior)):
        with pytest.raises(ValidationError) as raised:
            make()
        assert raised.value.field == "gamma_prior"
    doc = {"mode": "bandit", "seed": 2,
           "params": {"episodes": 5, "utilities": [0.8, 0.2], "times": [1.0, 1.0],
                      "gamma_prior": list(prior)}}
    with pytest.raises(ValidationError) as raised:
        validate_config(doc)
    assert raised.value.field.startswith("params.gamma_prior")


def test_update_gamma_accumulates():
    state = BanditState.create(1, 1)
    g = update_gamma(state, reward=3.0, elapsed=2.0)
    assert g == pytest.approx(3.0 / 3.0)  # (3 + 0) / (2 + 1)
    g = update_gamma(state, reward=1.0, elapsed=1.0)
    assert g == pytest.approx(4.0 / 4.0)


def test_update_gamma_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        update_gamma(BanditState.create(1, 1), 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["reward", "elapsed"])
def test_update_gamma_rejects_a_non_finite_outcome_before_any_change(field, bad):
    state = BanditState.create(1, 1)
    update_gamma(state, 1.0, 2.0)
    with pytest.raises(ValueError, match="finite"):
        update_gamma(state, **{"reward": 1.0, "elapsed": 1.0, field: bad})
    assert (state.cumulative_reward, state.cumulative_time) == (1.0, 2.0)


# --- construction -----------------------------------------------------------

def test_state_rejects_zero_strategies():
    with pytest.raises(ValueError, match="at least one strategy"):
        BanditState.create(0, 2)
    with pytest.raises(ValueError, match="at least one strategy"):
        BanditState([], [])


def test_state_rejects_posteriors_of_mixed_dims():
    with pytest.raises(DimensionMismatch):
        BanditState([WeightPosterior.standard(2)], [WeightPosterior.standard(3)])
    with pytest.raises(DimensionMismatch):
        BanditState([WeightPosterior.standard(2), WeightPosterior.standard(1)],
                    [WeightPosterior.standard(2), WeightPosterior.standard(2)])


def test_state_rejects_unaligned_posterior_lists():
    with pytest.raises(ValueError, match="must align"):
        BanditState([WeightPosterior.standard(2)] * 2, [WeightPosterior.standard(2)])


# --- Thompson selection -----------------------------------------------------

def test_zero_covariance_reduces_to_greedy_argmax():
    rng_out = np.random.default_rng(42)
    for trial in range(200):
        k, d = int(rng_out.integers(2, 6)), int(rng_out.integers(1, 4))
        state = BanditState.create(k, d)
        feats = rng_out.normal(size=d)
        for arm in range(k):
            state.put(arm, utility=WeightPosterior(rng_out.normal(size=d), np.zeros((d, d))),
                      time=WeightPosterior(rng_out.normal(size=d), np.zeros((d, d))))
        gamma = float(rng_out.uniform(0, 2))
        greedy = int(np.argmax([
            voc_estimate(state.means[a, 0], state.means[a, 1], feats, gamma)
            for a in range(k)]))
        chosen = thompson_select(state, feats, gamma, np.random.default_rng(trial))
        assert chosen == greedy


def test_sampled_vocs_vary_under_uncertainty():
    state = BanditState.create(2, 1)
    draws = {tuple(sample_vocs(state, np.ones(1), 0.0, np.random.default_rng(s)))
             for s in range(5)}
    assert len(draws) == 5


def test_observe_updates_both_posteriors_and_gamma():
    state = BanditState.create(2, 1)
    g = observe(state, 0, np.ones(1), utility=1.0, elapsed=2.0)
    assert state.means[0, 0, 0] == pytest.approx(0.5)
    assert state.means[0, 1, 0] == pytest.approx(1.0)
    assert state.means[1, 0, 0] == 0.0
    assert g == pytest.approx((1.0 + 0.0) / (2.0 + 1.0))


def test_two_arm_learning_prefers_the_better_arm():
    env = StationaryBanditEnvironment(utilities=[0.8, 0.2], times=[1.0, 1.0],
                                      reward_noise=0.1)
    state = BanditState.create(2, 1)
    records = run_bandit_episodes(env, state, 500, np.random.default_rng(0))
    last = [r["chosen"] for r in records[-100:]]
    assert last.count(0) > 80


def test_episode_records_expose_regret_terms():
    env = StationaryBanditEnvironment(utilities=[1.0, 0.0], times=[1.0, 1.0])
    state = BanditState.create(2, 1)
    (rec,) = run_bandit_episodes(env, state, 1, np.random.default_rng(0))
    assert rec["true_voc_best"] >= rec["true_voc_chosen"]
    assert set(rec) >= {"episode", "chosen", "reward", "elapsed", "gamma",
                        "sampled_vocs", "true_voc_chosen", "true_voc_best"}


def test_episodes_reject_a_state_for_another_number_of_arms():
    env = StationaryBanditEnvironment(utilities=[1.0, 0.0, 0.5], times=[1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        run_bandit_episodes(env, BanditState.create(2, 1), 1, np.random.default_rng(0))


def test_episodes_factor_each_posterior_once(monkeypatch):
    """Only the chosen arm's two posteriors change per episode, and each
    posterior is factored once: all the priors in one batched call at
    construction, then each episode's updated pair in one batched call."""
    svd = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(3)
    arms, d, episodes = 3, 4, 25
    env = FeatureBanditEnvironment(rng.uniform(size=(arms, d)),
                                   rng.uniform(0.1, 1.0, size=(arms, d)))
    run_bandit_episodes(env, BanditState.create(arms, d), episodes, rng)
    assert calls == [(arms, 2, d, d)] + [(2, d, d)] * episodes


def test_sample_vocs_rejects_features_of_another_size():
    with pytest.raises(DimensionMismatch):
        sample_vocs(BanditState.create(2, 3), np.ones(2), 0.0, np.random.default_rng(0))


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_thompson_select_index_in_range(seed):
    state = BanditState.create(3, 2)
    idx = thompson_select(state, np.ones(2), 0.5, np.random.default_rng(seed))
    assert 0 <= idx < 3


# --- sampler fence ----------------------------------------------------------

def reference_sample_vocs(state, features, gamma, rng):
    """The sampler as numpy defines it: one SVD-based multivariate normal
    draw per posterior, utility before time, arm by arm."""
    vocs = np.empty(state.num_strategies)
    for i in range(state.num_strategies):
        wu, wt = (rng.multivariate_normal(state.means[i, k], state.covariances[i, k],
                                          check_valid="ignore", method="svd")
                  for k in (0, 1))
        vocs[i] = voc_estimate(wu, wt, features, gamma)
    return vocs


def fence_posterior(rng, d):
    """A posterior whose covariance is full rank, rank one or zero."""
    kind = int(rng.integers(4))
    if kind == 0:  # a belief after some conjugate updates
        post = WeightPosterior.standard(d, prior_variance=float(rng.uniform(0.2, 3.0)),
                                        noise_variance=float(rng.uniform(0.2, 2.0)))
        for _ in range(int(rng.integers(0, 12))):
            post = posterior_update(post, rng.normal(size=d), float(rng.normal()))
        return post
    if kind == 1:  # full rank, symmetric only up to rounding
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
    elif kind == 2:
        v = rng.normal(size=d)
        cov = np.outer(v, v)
    else:
        cov = np.zeros((d, d))
    return WeightPosterior(rng.normal(size=d), cov)


def fence_cases():
    meta = np.random.default_rng(2024)
    for case in range(60):
        arms, d = int(meta.integers(1, 9)), int(meta.integers(1, 7))
        state = BanditState([fence_posterior(meta, d) for _ in range(arms)],
                            [fence_posterior(meta, d) for _ in range(arms)])
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
    """The batched SVD at construction gives each posterior the factor a
    single-matrix SVD gives it."""
    for case, state, _, _ in fence_cases():
        for arm in range(state.num_strategies):
            for k in (0, 1):
                u, s, _ = np.linalg.svd(state.covariances[arm, k])
                assert same_bits(state.factors[arm, k], u * np.sqrt(s)), (case, arm, k)


def test_sample_vocs_follows_replaced_posteriors_bit_for_bit():
    """Posteriors put in between calls, one side at a time or both, are what
    the next draw samples."""
    meta = np.random.default_rng(2025)
    for case in range(20):
        arms, d = int(meta.integers(2, 9)), int(meta.integers(1, 7))
        state = BanditState([fence_posterior(meta, d) for _ in range(arms)],
                            [fence_posterior(meta, d) for _ in range(arms)])
        feats, gamma = meta.normal(size=d), float(meta.uniform(0.0, 2.0))
        for draw in range(6):
            if draw:
                i, j = (int(x) for x in meta.integers(arms, size=2))
                state.put(i, utility=fence_posterior(meta, d))
                if draw % 2:
                    state.put(j, time=fence_posterior(meta, d))
                if draw % 3 == 0:
                    state.put(j, utility=fence_posterior(meta, d),
                              time=fence_posterior(meta, d))
            ours, ref = (np.random.default_rng([case, draw]) for _ in range(2))
            got = sample_vocs(state, feats, gamma, ours)
            want = reference_sample_vocs(state, feats, gamma, ref)
            assert np.array_equal(got, want), (case, draw)
            assert ours.bit_generator.state == ref.bit_generator.state, (case, draw)


def test_put_rejects_a_posterior_of_another_size():
    state = BanditState.create(3, 2)
    before = state_bytes(state)
    with pytest.raises(DimensionMismatch):
        state.put(1, time=WeightPosterior.standard(3))
    with pytest.raises(DimensionMismatch):
        state.put(1, utility=WeightPosterior.standard(2), time=WeightPosterior.standard(1))
    assert state_bytes(state) == before


# --- update fence -----------------------------------------------------------

def reference_update(post, features, observation):
    """One posterior's update and SVD factor with the vector products
    ``posterior_update`` made before ``observe`` batched them."""
    f = np.asarray(features, dtype=float)
    sf = post.covariance @ f
    denom = post.noise_variance + f @ sf
    gain = sf / denom
    mean = post.mean + gain * (observation - f @ post.mean)
    cov = post.covariance - np.outer(gain, sf)
    cov = (cov + cov.T) / 2.0
    u, s, _ = np.linalg.svd(cov)
    return mean, cov, u * np.sqrt(s)


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


def test_observe_matches_per_posterior_updates_bit_for_bit():
    meta = np.random.default_rng(2026)
    for case in range(300):
        arms, d = int(meta.integers(1, 5)), int(meta.integers(1, 8))
        state = BanditState([fence_posterior(meta, d) for _ in range(arms)],
                            [fence_posterior(meta, d) for _ in range(arms)])
        for step in range(int(meta.integers(1, 5))):
            arm, f = int(meta.integers(arms)), fence_features(meta, d)
            utility, elapsed = float(meta.normal()), float(meta.uniform(0.1, 3.0))
            arrays = lambda: (state.means, state.covariances, state.factors, state.noise)
            old = [WeightPosterior(state.means[arm, k].copy(),
                                   state.covariances[arm, k].copy(),
                                   float(state.noise[arm, k])) for k in (0, 1)]
            others = [np.delete(a, arm, axis=0).tobytes() for a in arrays()]
            observe(state, arm, f, utility, elapsed)
            for k, (before, y) in enumerate(zip(old, (utility, elapsed))):
                mean, cov, factor = reference_update(before, f, y)
                assert same_bits(state.means[arm, k], mean), (case, step)
                assert same_bits(state.covariances[arm, k], cov), (case, step)
                assert same_bits(state.factors[arm, k], factor), (case, step)
                assert state.noise[arm, k] == before.noise_variance
                single = posterior_update(before, f, y)
                assert same_bits(single.mean, mean), (case, step)
                assert same_bits(single.covariance, cov), (case, step)
            assert [np.delete(a, arm, axis=0).tobytes() for a in arrays()] == others
