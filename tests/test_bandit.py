import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgv.bandit import (BanditState, WeightPosterior, observe, posterior_update,
                        run_bandit_episodes, sample_vocs, update_gamma, voc_estimate)
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


def state_arrays(state):
    return state.means, state.covariances, state.factors, state.noise


def state_bytes(state):
    return ([a.tobytes() for a in state_arrays(state)],
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_posterior_rejects_a_non_finite_mean(bad):
    with pytest.raises(ValueError, match="mean must be finite"):
        WeightPosterior(np.array([0.0, bad]), np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_posterior_rejects_a_non_finite_covariance(where, bad):
    """An infinite entry passes the symmetry check when its mirror is
    infinite too; it must fail before any sampler sees it."""
    cov = np.eye(2)
    cov[where] = cov[where[::-1]] = bad
    with pytest.raises(ValueError, match="covariance must be finite"):
        WeightPosterior(np.zeros(2), cov)


@pytest.mark.parametrize("cov", [-0.5 * np.eye(2), [[1.0, 2.0], [2.0, 1.0]],
                                 [[1.0, 0.0], [0.0, -1e-6]]], ids=str)
def test_posterior_rejects_a_covariance_that_is_not_psd(cov):
    """A negative eigenvalue below the rounding floor would sample as if it
    were positive and divide by a residue on the next update."""
    with pytest.raises(ValueError, match="positive semidefinite"):
        WeightPosterior(np.zeros(2), cov)


def test_posterior_keeps_psd_covariances_within_rounding():
    v = np.array([0.3, -1.7, 2.9])
    for cov in (np.zeros((0, 0)), np.zeros((2, 2)), np.outer(v, v),
                [[1.0, 0.0], [0.0, -1e-13]]):
        WeightPosterior(np.zeros(len(cov)), cov)


@pytest.mark.parametrize("field", ["prior_variance", "noise_variance"])
@pytest.mark.parametrize("bad, message", [(-0.5, "must be positive"),
                                          (math.inf, "must be finite")])
def test_standard_prior_checks_its_variances_with_the_table_rules(field, bad, message):
    """``create`` builds its prior here: a negative or infinite variance
    would make a non-PSD or NaN covariance (tests/test_config.py holds NaN
    and the range to the params table)."""
    for build in (lambda: WeightPosterior.standard(2, **{field: bad}),
                  lambda: BanditState.create(2, 2, **{field: bad})):
        with pytest.raises(ValidationError) as raised:
            build()
        assert (raised.value.field, raised.value.message) == (field, message)


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


@pytest.mark.parametrize("field, bad", [("cumulative_reward", math.nan),
                                        ("cumulative_reward", math.inf),
                                        ("cumulative_reward", -math.inf),
                                        ("cumulative_time", math.inf)])
def test_state_rejects_non_finite_totals(field, bad):
    """A NaN or infinite total would make gamma read NaN, inf or 0.0.  (A
    NaN or negative time already fails as not nonnegative.)"""
    posteriors = [WeightPosterior.standard(1)]
    with pytest.raises(ValidationError) as raised:
        BanditState(posteriors, posteriors, **{field: bad})
    assert (raised.value.field, raised.value.message) == (field, "must be finite")


def test_state_checks_its_totals_after_the_gamma_prior():
    posteriors = [WeightPosterior.standard(1)]
    with pytest.raises(ValidationError) as raised:
        BanditState(posteriors, posteriors, cumulative_reward=math.nan,
                    gamma_prior=(0.0, 0.0))
    assert raised.value.field == "gamma_prior"


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


def reference_create(num_strategies, feature_dim, prior_variance=1.0, noise_variance=1.0,
                     gamma_prior=(0.0, 1.0)):
    """``create`` as one state from a list of fresh standard posteriors."""
    make = lambda: WeightPosterior.standard(feature_dim, prior_variance, noise_variance)
    return BanditState([make() for _ in range(num_strategies)],
                       [make() for _ in range(num_strategies)], gamma_prior=gamma_prior)


@pytest.mark.parametrize("arms", [1, 2, 8])
@pytest.mark.parametrize("d", [0, 1, 2, 5, 9])
def test_create_matches_per_posterior_construction_bit_for_bit(arms, d):
    for prior_variance in (1.0, 0.37, 2.5, 1e-8, 1e6):
        for noise_variance in (1.0, 0.2, 3.7):
            args = (arms, d, prior_variance, noise_variance, (0.3, 2.0))
            got, want = BanditState.create(*args), reference_create(*args)
            assert state_bytes(got) == state_bytes(want), args
            assert all(a.shape == b.shape and a.dtype == b.dtype
                       for a, b in zip(state_arrays(got), state_arrays(want))), args
            assert got.gamma_prior == want.gamma_prior
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
        BanditState.create(*args)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "field", None) == getattr(want.value, "field", None)


def test_state_rejects_posteriors_of_mixed_dims():
    with pytest.raises(DimensionMismatch):
        BanditState([WeightPosterior.standard(2)], [WeightPosterior.standard(3)])
    with pytest.raises(DimensionMismatch):
        BanditState([WeightPosterior.standard(2), WeightPosterior.standard(1)],
                    [WeightPosterior.standard(2), WeightPosterior.standard(2)])


def test_state_rejects_unaligned_posterior_lists():
    with pytest.raises(ValueError, match="must align"):
        BanditState([WeightPosterior.standard(2)] * 2, [WeightPosterior.standard(2)])


@pytest.mark.parametrize("time", [WeightPosterior.standard(2, prior_variance=2.0),
                                  WeightPosterior.standard(2, noise_variance=0.5),
                                  WeightPosterior(np.zeros(2), [[1.0, 1e-9], [1e-9, 1.0]])],
                         ids=["covariance", "noise", "off-diagonal"])
def test_state_rejects_a_pair_that_does_not_share_its_covariance_and_noise(time):
    """An arm holds one covariance and one noise variance for both beliefs."""
    utility = WeightPosterior.standard(2)
    BanditState([utility, utility], [utility, WeightPosterior(np.ones(2), np.eye(2))])
    with pytest.raises(ValueError, match="must share a covariance and a noise variance"):
        BanditState([utility, utility], [utility, time])


# --- Thompson selection -----------------------------------------------------

def test_zero_covariance_reduces_to_greedy_argmax():
    rng_out = np.random.default_rng(42)
    for trial in range(200):
        k, d = int(rng_out.integers(2, 6)), int(rng_out.integers(1, 4))
        feats = rng_out.normal(size=d)
        utility, time = [], []
        for arm in range(k):
            utility.append(WeightPosterior(rng_out.normal(size=d), np.zeros((d, d))))
            time.append(WeightPosterior(rng_out.normal(size=d), np.zeros((d, d))))
        state = BanditState(utility, time)
        gamma = float(rng_out.uniform(0, 2))
        greedy = int(np.argmax([
            voc_estimate(utility[a].mean, time[a].mean, feats, gamma) for a in range(k)]))
        chosen = int(np.argmax(sample_vocs(state, feats, gamma, np.random.default_rng(trial))))
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
    """Only the chosen arm's covariance changes per episode.  ``create``
    factors its one prior once, and each episode factors the chosen arm's
    one covariance, which its two beliefs share."""
    shapes = svd_shapes(monkeypatch)
    rng = np.random.default_rng(3)
    arms, d, episodes = 3, 4, 25
    env = feature_env(rng, arms, d)
    state = BanditState.create(arms, d)
    run_bandit_episodes(env, state, episodes, rng)
    assert shapes == [(d, d)] * (episodes + 1)
    assert state.covariances.shape == state.factors.shape == (arms, d, d)
    assert state.noise.shape == (arms,)


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
    records = run_bandit_episodes(env, BanditState.create(arms, d), episodes, rng)
    ((feats, gammas),) = calls
    assert feats.shape == (episodes, d) and gammas.shape == (episodes,)
    pre_choice = [BanditState.create(arms, d).gamma] + [r["gamma"] for r in records[:-1]]
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
    state = BanditState.create(2, 3)
    assert run_bandit_episodes(feature_env(rng, 2, 3), state, 0, rng) == []
    assert state.gamma == 0.0


def test_sample_vocs_rejects_features_of_another_size():
    with pytest.raises(DimensionMismatch):
        sample_vocs(BanditState.create(2, 3), np.ones(2), 0.0, np.random.default_rng(0))


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_thompson_select_index_in_range(seed):
    """Each episode plays the first argmax of its sampled scores."""
    env = StationaryBanditEnvironment(utilities=[0.5, 0.5, 0.5], times=[1.0, 1.0, 1.0])
    records = run_bandit_episodes(env, BanditState.create(3, 1), 5,
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


def fence_state(rng, arms, d):
    """Arms whose two beliefs share a fence covariance and noise variance
    and have different means."""
    utility = [fence_posterior(rng, d) for _ in range(arms)]
    time = [WeightPosterior(rng.normal(size=d), u.covariance, u.noise_variance)
            for u in utility]
    return BanditState(utility, time)


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
    """The batched SVD at construction gives each posterior the factor a
    single-matrix SVD gives it."""
    for case, state, _, _ in fence_cases():
        for arm in range(state.num_strategies):
            u, s, _ = np.linalg.svd(state.covariances[arm])
            assert same_bits(state.factors[arm], u * np.sqrt(s)), (case, arm)


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


def check_observe_fence(meta, state, arms, d, case):
    """Observe a few steps and hold each against the per-posterior update."""
    for step in range(int(meta.integers(1, 5))):
        arm, f = int(meta.integers(arms)), fence_features(meta, d)
        utility, elapsed = float(meta.normal()), float(meta.uniform(0.1, 3.0))
        old = [WeightPosterior(state.means[arm, k].copy(), state.covariances[arm].copy(),
                               float(state.noise[arm])) for k in (0, 1)]
        others = [np.delete(a, arm, axis=0).tobytes() for a in state_arrays(state)]
        observe(state, arm, f, utility, elapsed)
        for k, (before, y) in enumerate(zip(old, (utility, elapsed))):
            mean, cov, factor = reference_update(before, f, y)
            assert same_bits(state.means[arm, k], mean), (case, step)
            assert same_bits(state.covariances[arm], cov), (case, step)
            assert same_bits(state.factors[arm], factor), (case, step)
            assert state.noise[arm] == before.noise_variance
            single = posterior_update(before, f, y)
            assert same_bits(single.mean, mean), (case, step)
            assert same_bits(single.covariance, cov), (case, step)
        assert [np.delete(a, arm, axis=0).tobytes() for a in state_arrays(state)] == others


def test_observe_matches_per_posterior_updates_bit_for_bit():
    meta = np.random.default_rng(2026)
    for case in range(300):
        arms, d = int(meta.integers(1, 5)), int(meta.integers(1, 8))
        check_observe_fence(meta, fence_state(meta, arms, d), arms, d, case)
