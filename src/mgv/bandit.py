"""Strategy selection by value of computation.

Each strategy carries Gaussian posteriors over the weights mapping task
features to payoff and to time cost.  The value of computation nets payoff
against time charged at the opportunity cost -- average reward per unit time
so far.  Selection is posterior sampling: draw weights, score every strategy,
play the argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FINITE, NONNEG, POSITIVE, DimensionMismatch, Rule


@dataclass(frozen=True)
class WeightPosterior:
    """Gaussian belief over a linear weight vector under known noise: the
    validated value ``posterior_update`` returns and ``BanditState`` takes."""

    mean: np.ndarray
    covariance: np.ndarray
    noise_variance: float = 1.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        c = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", c)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if c.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"covariance {c.shape} does not fit mean of size {mean.size}")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        if not np.isfinite(c).all():
            raise ValueError("covariance must be finite")
        # The exact test spares the tolerance check for the exactly
        # symmetric matrices posterior_update makes.
        if not (np.array_equal(c, c.T) or np.allclose(c, c.T, atol=1e-9)):
            raise ValueError("covariance must be symmetric")
        if not 0 < self.noise_variance < math.inf:  # NaN fails too
            raise ValueError("noise_variance must be positive and finite")
        # posterior_update's rounding residue stays above this floor over long runs.
        if c.size and np.linalg.eigvalsh(c).min() < -1e-12 * max(1.0, float(np.trace(c))):
            raise ValueError("covariance must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def standard(cls, dim: int, prior_variance: float = 1.0,
                 noise_variance: float = 1.0) -> "WeightPosterior":
        """Zero mean and ``prior_variance`` times the identity, once both
        variances pass the params table's rules."""
        for field, v in (("prior_variance", prior_variance), ("noise_variance", noise_variance)):
            POSITIVE.check(field, FINITE.check(field, v))
        return cls(np.zeros(dim), np.eye(dim) * prior_variance, noise_variance)


def _factor(covariances: np.ndarray) -> np.ndarray:
    """``u * sqrt(s)`` from the SVD of each covariance: the factor
    ``Generator.multivariate_normal(method="svd")`` builds on every call.  It
    handles a rank-deficient covariance; a collapsed belief samples its mean
    exactly.  LAPACK factors a stack one matrix at a time, so each item is
    bit for bit the single-matrix factor."""
    u, s, _ = np.linalg.svd(covariances)
    return u * np.sqrt(s)[..., None, :]


def _rank_one_updates(means: np.ndarray, covariance: np.ndarray, noise: float,
                      features: np.ndarray, observations) -> tuple[np.ndarray, np.ndarray]:
    """Condition k beliefs, ``means`` ``(k, d)`` that share ``covariance``
    ``(d, d)`` and ``noise``, on the same features and each on its own
    observation: the new means and the one new covariance.

    Each product is the vector product one belief alone would make
    (``C @ f``, ``f @ sf``, ``np.outer``), so the results match a per-belief
    update bit for bit.  Checks come before any work.
    """
    f = np.asarray(features, dtype=float)
    if f.shape != means.shape[1:]:
        raise DimensionMismatch(
            f"features shape {f.shape} does not match weight dim {means.shape[1:]}")
    if not np.isfinite(f).all():
        raise ValueError("features must be finite")
    sf = covariance @ f
    gain = sf / (noise + np.matmul(sf[None], f[:, None])[0, 0])
    predicted = np.matmul(means[:, None, :], f[:, None])[:, 0, 0]
    mean = means + gain * (np.asarray(observations, dtype=float) - predicted)[:, None]
    cov = covariance - gain[:, None] * sf
    return mean, (cov + cov.T) / 2.0


def posterior_update(posterior: WeightPosterior, features: np.ndarray,
                     observation: float) -> WeightPosterior:
    """Condition the weight belief on one observed (features, value) pair.

    Rank-one update: no matrix inversion, so collapsed or flat directions are
    handled exactly.  Zero features leave the belief unchanged; non-finite
    features or a non-finite observation raise ValueError.
    """
    if not math.isfinite(observation):
        raise ValueError("observation must be finite")
    mean, cov = _rank_one_updates(np.array([posterior.mean]), posterior.covariance,
                                  posterior.noise_variance, features, (observation,))
    return WeightPosterior(mean[0], cov, posterior.noise_variance)


def voc_estimate(utility_weights: np.ndarray, time_weights: np.ndarray,
                 features: np.ndarray, gamma: float) -> float:
    """Expected payoff minus time cost charged at the opportunity rate."""
    u = np.asarray(utility_weights, dtype=float)
    t = np.asarray(time_weights, dtype=float)
    f = np.asarray(features, dtype=float)
    if u.shape != f.shape or t.shape != f.shape:
        raise DimensionMismatch("weights and features must share a shape")
    return float(u @ f - gamma * (t @ f))


GAMMA_PRIOR = Rule(lambda g: len(g) == 2 and FINITE.ok(g[0]) and FINITE.ok(g[1])
                   and POSITIVE.ok(g[1]),
                   "must be [finite pseudo_reward, finite pseudo_time > 0]")


class BanditState:
    """Per-strategy payoff and time beliefs plus the running opportunity cost.

    ``means`` ``(arms, 2, d)`` holds each arm's utility (k = 0) and time
    (k = 1) means.  An arm's two beliefs see the same features under one
    noise variance, and the covariance update never reads the observation,
    so they share one covariance: ``covariances`` and their SVD ``factors``
    are ``(arms, d, d)``, ``noise`` is ``(arms,)``, and a pair that differs
    in either raises ValueError.  ``observe`` writes the chosen arm's slices
    in place; construction factors every covariance in one batched SVD.
    """

    def __init__(self, utility_posteriors: list[WeightPosterior],
                 time_posteriors: list[WeightPosterior], cumulative_reward: float = 0.0,
                 cumulative_time: float = 0.0,
                 gamma_prior: tuple[float, float] = (0.0, 1.0)):
        if len(utility_posteriors) != len(time_posteriors):
            raise ValueError("utility and time posterior lists must align")
        if not utility_posteriors:
            raise ValueError("a bandit needs at least one strategy")
        pairs = list(zip(utility_posteriors, time_posteriors))
        if len({p.dim for pair in pairs for p in pair}) != 1:
            raise DimensionMismatch("every posterior must have the same weight dim")
        if not all(np.array_equal(u.covariance, t.covariance)
                   and u.noise_variance == t.noise_variance for u, t in pairs):
            raise ValueError("a strategy's utility and time posteriors must share "
                             "a covariance and a noise variance")
        self._start_totals(cumulative_reward, cumulative_time, gamma_prior)
        self.means = np.array([[u.mean, t.mean] for u, t in pairs])
        self.covariances = np.array([u.covariance for u, _ in pairs])
        self.factors = _factor(self.covariances)
        self.noise = np.array([u.noise_variance for u, _ in pairs])

    def _start_totals(self, cumulative_reward: float, cumulative_time: float,
                      gamma_prior: tuple[float, float]) -> None:
        NONNEG.check("cumulative_time", cumulative_time)
        GAMMA_PRIOR.check("gamma_prior", gamma_prior)
        FINITE.check("cumulative_reward", cumulative_reward)
        FINITE.check("cumulative_time", cumulative_time)
        self.cumulative_reward = cumulative_reward
        self.cumulative_time = cumulative_time
        self.gamma_prior = gamma_prior

    @classmethod
    def create(cls, num_strategies: int, feature_dim: int, prior_variance: float = 1.0,
               noise_variance: float = 1.0,
               gamma_prior: tuple[float, float] = (0.0, 1.0)) -> "BanditState":
        """Every strategy's two beliefs start at one standard prior.

        The prior is built and factored once, and its mean is copied to
        every arm and belief, its covariance, factor and noise to every arm:
        the state equals one built from a list of such posteriors bit for
        bit, since a stacked SVD factors each item as a single matrix.  The
        errors come in the same order too: too few strategies, the prior,
        then ``gamma_prior``."""
        if num_strategies < 1:
            raise ValueError("a bandit needs at least one strategy")
        prior = WeightPosterior.standard(feature_dim, prior_variance, noise_variance)
        state = cls.__new__(cls)
        state._start_totals(0.0, 0.0, gamma_prior)
        state.means = np.full((num_strategies, 2, feature_dim), prior.mean)
        state.covariances = np.full((num_strategies, *prior.covariance.shape), prior.covariance)
        state.factors = np.full(state.covariances.shape, _factor(prior.covariance))
        state.noise = np.full(num_strategies, prior.noise_variance)
        return state

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

    Both means update in one call against the arm's one covariance, and
    the new covariance is factored by one SVD, each bit for bit what a
    single belief's update would give.  Every check comes before the state
    changes: the strategy, the features, then the outcome, which
    ``update_gamma`` checks once before it adds it.  A ``strategy`` outside
    ``range(num_strategies)`` raises ValueError rather than wrapping to
    another arm."""
    if strategy not in range(state.num_strategies):
        raise ValueError(f"strategy {strategy!r} is not in range({state.num_strategies})")
    means, cov = _rank_one_updates(state.means[strategy], state.covariances[strategy],
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
    vector product ``rng.multivariate_normal(method="svd")`` and
    ``voc_estimate`` make, so the scores match theirs bit for bit.
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
