"""Strategy selection by value of computation.

Each strategy carries Gaussian posteriors over the weights mapping task
features to payoff and to time cost.  The value of computation nets payoff
against time charged at the opportunity cost -- average reward per unit time
so far.  Selection is posterior sampling: draw weights, score every strategy,
play the argmax.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FINITE, POSITIVE, DimensionMismatch, Rule


def _factor(covariance: np.ndarray) -> np.ndarray:
    """``u * sqrt(s)`` from the SVD of a covariance: the factor
    ``Generator.multivariate_normal(method="svd")`` builds on every call.  It
    handles a rank-deficient covariance; a collapsed belief samples its mean
    exactly."""
    u, s, _ = np.linalg.svd(covariance)
    return u * np.sqrt(s)


def posterior_update(means: np.ndarray, covariance: np.ndarray, noise: float,
                     features: np.ndarray, observations) -> tuple[np.ndarray, np.ndarray]:
    """Condition k Gaussian weight beliefs, ``means`` ``(k, d)`` that share
    ``covariance`` ``(d, d)`` and ``noise``, on the same features and each on
    its own observation: the new means and the one new covariance.

    Rank-one update: no matrix inversion, so collapsed or flat directions are
    handled exactly, and zero features leave the beliefs unchanged.  Each
    product is the vector product one belief alone would make (``C @ f``,
    ``f @ sf``, ``np.outer``), so the results match a per-belief update bit
    for bit.  Checks come before any work: the features' shape
    (DimensionMismatch), then finite features and observations (ValueError).
    """
    f = np.asarray(features, dtype=float)
    if f.shape != means.shape[1:]:
        raise DimensionMismatch(
            f"features shape {f.shape} does not match weight dim {means.shape[1:]}")
    if not np.isfinite(f).all():
        raise ValueError("features must be finite")
    if not all(map(math.isfinite, observations)):
        raise ValueError("observations must be finite")
    sf = covariance @ f
    gain = sf / (noise + np.matmul(sf[None], f[:, None])[0, 0])
    predicted = np.matmul(means[:, None, :], f[:, None])[:, 0, 0]
    mean = means + gain * (np.asarray(observations, dtype=float) - predicted)[:, None]
    cov = covariance - gain[:, None] * sf
    return mean, (cov + cov.T) / 2.0


GAMMA_PRIOR = Rule(lambda g: len(g) == 2 and FINITE.ok(g[0]) and FINITE.ok(g[1])
                   and POSITIVE.ok(g[1]),
                   "must be [finite pseudo_reward, finite pseudo_time > 0]")


class BanditState:
    """Per-strategy payoff and time beliefs plus the running opportunity cost.

    ``means`` ``(arms, 2, d)`` holds each arm's utility (k = 0) and time
    (k = 1) means.  An arm's two beliefs see the same features under one
    noise variance, and the covariance update never reads the observation,
    so they share one covariance: ``covariances`` and their SVD ``factors``
    are ``(arms, d, d)`` and ``noise`` is ``(arms,)``.  ``observe`` writes
    the chosen arm's slices in place.

    Every belief starts at zero mean and ``prior_variance`` times the
    identity, built and factored once and copied to every arm.  The checks
    come first: too few strategies, the two variances (finite, then
    positive, as the params table has them), then ``gamma_prior``.
    """

    def __init__(self, num_strategies: int, feature_dim: int, prior_variance: float = 1.0,
                 noise_variance: float = 1.0, gamma_prior: tuple[float, float] = (0.0, 1.0)):
        if num_strategies < 1:
            raise ValueError("a bandit needs at least one strategy")
        for field, v in (("prior_variance", prior_variance), ("noise_variance", noise_variance)):
            POSITIVE.check(field, FINITE.check(field, v))
        prior = np.eye(feature_dim) * prior_variance
        GAMMA_PRIOR.check("gamma_prior", gamma_prior)
        self.cumulative_reward = self.cumulative_time = 0.0
        self.gamma_prior = gamma_prior
        self.means = np.zeros((num_strategies, 2, feature_dim))
        self.covariances = np.full((num_strategies, *prior.shape), prior)
        self.factors = np.full(self.covariances.shape, _factor(prior))
        self.noise = np.full(num_strategies, noise_variance)

    @property
    def num_strategies(self) -> int:
        return len(self.means)

    @property
    def gamma(self) -> float:
        """Opportunity cost: average reward per unit time, prior-smoothed so
        it is defined before the first observation."""
        pr, pt = self.gamma_prior
        return (self.cumulative_reward + pr) / (self.cumulative_time + pt)


def update_gamma(state: BanditState, reward: float, elapsed: float) -> float:
    if not math.isfinite(reward):
        raise ValueError("reward must be finite")
    if not 0 < elapsed < math.inf:  # NaN fails too
        raise ValueError("elapsed must be positive and finite")
    state.cumulative_reward += reward
    state.cumulative_time += elapsed
    return state.gamma


def observe(state: BanditState, strategy: int, features: np.ndarray,
            utility: float, elapsed: float) -> float:
    """Fold one play's outcome into the strategy's beliefs and the
    opportunity cost.  Returns the refreshed gamma.

    Both means update in one call to the module's ``posterior_update``, so
    a wrapper set on ``mgv.bandit`` sees it, and the arm's new covariance is
    factored by one SVD.  Every check comes before the state changes: the
    strategy, the features, then the outcome (``posterior_update`` rejects
    a non-finite one, ``update_gamma`` a non-positive ``elapsed``).  A
    ``strategy`` outside ``range(num_strategies)`` raises ValueError rather
    than wrapping to another arm."""
    if strategy not in range(state.num_strategies):
        raise ValueError(f"strategy {strategy!r} is not in range({state.num_strategies})")
    means, cov = posterior_update(state.means[strategy], state.covariances[strategy],
                                  state.noise[strategy], features, (utility, elapsed))
    factor = _factor(cov)
    gamma = update_gamma(state, utility, elapsed)
    state.factors[strategy] = factor
    state.means[strategy] = means
    state.covariances[strategy] = cov
    return gamma


def sample_vocs(state: BanditState, features: np.ndarray, gamma: float,
                rng) -> np.ndarray:
    """One posterior sample of the value of computation for every strategy.

    All the normals come from one call, in the order per-posterior draws
    would take them: arm by arm, utility before time.  Each arm's one factor
    serves both its beliefs, and each item of the batched products is the
    vector product ``rng.multivariate_normal(method="svd")`` makes, so each
    score is bit for bit ``w_u @ f - gamma * (w_t @ f)`` over its draws.
    """
    f = np.asarray(features, dtype=float)
    if f.shape != state.means.shape[-1:]:
        raise DimensionMismatch("weights and features must share a shape")
    z = rng.standard_normal(state.means.shape)
    w = state.means + np.matmul(z[:, :, None, :],
                                state.factors[:, None].swapaxes(-1, -2))[:, :, 0, :]
    scores = np.matmul(w[..., None, :], f[:, None])[..., 0, 0]
    return scores[:, 0] - gamma * scores[:, 1]


def run_bandit_episodes(env, state: BanditState, episodes: int, rng) -> list[dict]:
    """Play the environment for a number of episodes, learning as we go.

    Each record carries the sampled scores, the chosen strategy (the first
    best score), the observed payoff and duration, the refreshed gamma, and
    the true net values of the chosen and best strategies (under the
    pre-choice gamma) so regret can be read straight off the trace.  No
    decision reads the true values, so one ``env.true_vocs`` call over the
    stacked features and pre-choice gammas takes them after the last
    episode.
    """
    if env.num_arms != state.num_strategies:
        raise DimensionMismatch(
            f"{state.num_strategies} strategies cannot play {env.num_arms} arms")
    records, seen, gammas = [], [], []
    for episode in range(episodes):
        feats = env.features(rng)
        gamma = state.gamma
        vocs = sample_vocs(state, feats, gamma, rng).tolist()
        chosen = vocs.index(max(vocs))
        reward, elapsed = env.pull(chosen, feats, rng)
        gamma_after = observe(state, chosen, feats, reward, elapsed)
        seen.append(feats)
        gammas.append(gamma)
        records.append({
            "episode": episode,
            "features": np.atleast_1d(feats).astype(float, copy=False).tolist(),
            "sampled_vocs": vocs,
            "chosen": chosen,
            "reward": float(reward),
            "elapsed": float(elapsed),
            "gamma": float(gamma_after),
        })
    if records:
        for record, row in zip(records, env.true_vocs(np.array(seen), np.array(gammas))):
            true_vocs = row.tolist()
            record["true_voc_chosen"] = true_vocs[record["chosen"]]
            record["true_voc_best"] = max(true_vocs)
    return records
