"""Strategy selection by value of computation.

Each strategy carries Gaussian posteriors over the weights mapping task
features to payoff and to time cost.  The value of computation nets payoff
against time charged at the opportunity cost -- average reward per unit time
so far.  Selection is posterior sampling: draw weights, score every strategy,
play the argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NONNEG, POSITIVE, DimensionMismatch, Rule


@dataclass(frozen=True)
class WeightPosterior:
    """Gaussian belief over a linear weight vector under known noise.

    Frozen, and its arrays must not be written in place: ``factor`` is
    computed from ``covariance`` once and cached.  ``posterior_update``
    returns a new posterior.
    """

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
        # The exact test spares the tolerance check for the exactly
        # symmetric matrices posterior_update makes; a NaN fails both.
        if not (np.array_equal(c, c.T) or np.allclose(c, c.T, atol=1e-9)):
            raise ValueError("covariance must be symmetric")
        if not 0 < self.noise_variance < math.inf:  # NaN fails too
            raise ValueError("noise_variance must be positive and finite")

    @classmethod
    def _trusted(cls, mean: np.ndarray, covariance: np.ndarray, noise_variance: float,
                 factor: np.ndarray | None = None) -> "WeightPosterior":
        """A posterior from arrays an update has just made: float, of fitting
        shapes and exactly symmetric, so ``__post_init__`` is skipped.  A
        ``factor`` seeds the cached one."""
        post = object.__new__(cls)
        post.__dict__.update(mean=mean, covariance=covariance, noise_variance=noise_variance)
        if factor is not None:
            post.__dict__["factor"] = factor
        return post

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def standard(cls, dim: int, prior_variance: float = 1.0,
                 noise_variance: float = 1.0) -> "WeightPosterior":
        return cls(np.zeros(dim), np.eye(dim) * prior_variance, noise_variance)

    @cached_property
    def factor(self) -> np.ndarray:
        """``u * sqrt(s)`` from the SVD of the covariance: the factor
        ``Generator.multivariate_normal(method="svd")`` builds on every call.
        It handles a rank-deficient covariance; a collapsed posterior samples
        its mean exactly."""
        u, s, _ = np.linalg.svd(self.covariance)
        return u * np.sqrt(s)

    def sample(self, rng) -> np.ndarray:
        """One draw, bit for bit ``rng.multivariate_normal(mean, covariance,
        check_valid="ignore", method="svd")``."""
        return self.mean + rng.standard_normal(self.dim) @ self.factor.T


def _rank_one_updates(posteriors, features: np.ndarray,
                      observations) -> tuple[np.ndarray, np.ndarray]:
    """Condition each posterior on the same features and its own observation:
    the new means, shape ``(k, d)``, and covariances, ``(k, d, d)``.

    Each item of the batched products is the vector product one posterior
    alone would make (``C @ f``, ``f @ sf``, ``np.outer``), so the results
    match a per-posterior update bit for bit.  Checks come before any work.
    """
    f = np.asarray(features, dtype=float)
    for p in posteriors:
        if f.shape != p.mean.shape:
            raise DimensionMismatch(
                f"features shape {f.shape} does not match weight dim {p.mean.shape}")
    if not np.isfinite(f).all():
        raise ValueError("features must be finite")
    mean = np.array([p.mean for p in posteriors])
    c = np.array([p.covariance for p in posteriors])
    noise = np.array([p.noise_variance for p in posteriors])
    sf = np.matmul(c, f)
    denom = noise + np.matmul(sf[:, None, :], f[:, None])[:, 0, 0]
    gain = sf / denom[:, None]
    predicted = np.matmul(mean[:, None, :], f[:, None])[:, 0, 0]
    mean = mean + gain * (np.asarray(observations, dtype=float) - predicted)[:, None]
    cov = c - gain[:, :, None] * sf[:, None, :]
    return mean, (cov + cov.swapaxes(1, 2)) / 2.0


def posterior_update(posterior: WeightPosterior, features: np.ndarray,
                     observation: float) -> WeightPosterior:
    """Condition the weight belief on one observed (features, value) pair.

    Rank-one update: no matrix inversion, so collapsed or flat directions are
    handled exactly.  Zero features leave the belief unchanged; non-finite
    ones raise ValueError.
    """
    mean, cov = _rank_one_updates((posterior,), features, (observation,))
    return WeightPosterior._trusted(mean[0], cov[0], posterior.noise_variance)


def voc_estimate(utility_weights: np.ndarray, time_weights: np.ndarray,
                 features: np.ndarray, gamma: float) -> float:
    """Expected payoff minus time cost charged at the opportunity rate."""
    u = np.asarray(utility_weights, dtype=float)
    t = np.asarray(time_weights, dtype=float)
    f = np.asarray(features, dtype=float)
    if u.shape != f.shape or t.shape != f.shape:
        raise DimensionMismatch("weights and features must share a shape")
    return float(u @ f - gamma * (t @ f))


GAMMA_PRIOR = Rule(lambda g: len(g) == 2 and POSITIVE.ok(g[1]),
                   "must be [pseudo_reward, pseudo_time > 0]")


@dataclass
class BanditState:
    """Per-strategy payoff and time beliefs plus the running opportunity cost.

    ``utility`` and ``time`` stay the per-strategy posteriors, which callers
    may replace.  ``stacks`` keeps every strategy's means and SVD factors in
    two arrays as well, so a draw for all strategies is one batched product.
    """

    utility: list[WeightPosterior]
    time: list[WeightPosterior]
    cumulative_reward: float = 0.0
    cumulative_time: float = 0.0
    gamma_prior: tuple[float, float] = (0.0, 1.0)
    # The posteriors the stacks hold, utility and time interleaved per arm.
    _stacked: list = field(default_factory=list, init=False, repr=False, compare=False)
    _means: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _factors: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.utility) != len(self.time):
            raise ValueError("utility and time posterior lists must align")
        NONNEG.check("cumulative_time", self.cumulative_time)
        GAMMA_PRIOR.check("gamma_prior", self.gamma_prior)

    @classmethod
    def create(cls, num_strategies: int, feature_dim: int, prior_variance: float = 1.0,
               noise_variance: float = 1.0,
               gamma_prior: tuple[float, float] = (0.0, 1.0)) -> "BanditState":
        make = lambda: WeightPosterior.standard(feature_dim, prior_variance, noise_variance)
        return cls(utility=[make() for _ in range(num_strategies)],
                   time=[make() for _ in range(num_strategies)],
                   gamma_prior=gamma_prior)

    @property
    def num_strategies(self) -> int:
        return len(self.utility)

    @property
    def gamma(self) -> float:
        """Opportunity cost: average reward per unit time, prior-smoothed so
        it is defined before the first observation."""
        pr, pt = self.gamma_prior
        return (self.cumulative_reward + pr) / (self.cumulative_time + pt)

    def stacks(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Every strategy's means, shape ``(arms, 2, dim)``, and SVD factors,
        shape ``(arms, 2, dim, dim)``; index 0 on the second axis is utility,
        1 is time.  Only the slices of posteriors replaced since the last
        call are written again, so each posterior is factored once."""
        posteriors = [p for pair in zip(self.utility, self.time) for p in pair]
        if self._means is None or self._means.shape != (self.num_strategies, 2, dim):
            self._means = np.empty((self.num_strategies, 2, dim))
            self._factors = np.empty((self.num_strategies, 2, dim, dim))
            self._stacked = [None] * len(posteriors)
        means = self._means.reshape(-1, dim)
        factors = self._factors.reshape(-1, dim, dim)
        for k, (post, held) in enumerate(zip(posteriors, self._stacked)):
            if post is not held:
                if post.dim != dim:
                    raise DimensionMismatch("weights and features must share a shape")
                means[k] = post.mean
                factors[k] = post.factor
                self._stacked[k] = post
        return self._means, self._factors


def update_gamma(state: BanditState, reward: float, elapsed: float) -> float:
    if elapsed <= 0:
        raise ValueError("elapsed must be positive")
    state.cumulative_reward += reward
    state.cumulative_time += elapsed
    return state.gamma


def observe(state: BanditState, strategy: int, features: np.ndarray,
            utility: float, elapsed: float) -> float:
    """Fold one play's outcome into the strategy's beliefs and the
    opportunity cost.  Returns the refreshed gamma.

    Both posteriors update in one batched call and are factored in one
    batched SVD, each item bit for bit the single-matrix result."""
    pair = state.utility[strategy], state.time[strategy]
    means, covs = _rank_one_updates(pair, features, (utility, elapsed))
    u, s, _ = np.linalg.svd(covs)
    factors = u * np.sqrt(s)[:, None, :]
    state.utility[strategy], state.time[strategy] = (
        WeightPosterior._trusted(m, c, p.noise_variance, k)
        for m, c, p, k in zip(means, covs, pair, factors))
    return update_gamma(state, utility, elapsed)


def sample_vocs(state: BanditState, features: np.ndarray, gamma: float,
                rng) -> np.ndarray:
    """One posterior sample of the value of computation for every strategy.

    All the normals come from one call, in the order per-posterior draws
    would take them: arm by arm, utility before time.  Each item of the
    batched products is the vector product ``WeightPosterior.sample`` and
    ``voc_estimate`` make, so the scores match theirs bit for bit.
    """
    f = np.asarray(features, dtype=float)
    if f.ndim != 1:
        raise DimensionMismatch("weights and features must share a shape")
    means, factors = state.stacks(f.size)
    z = rng.standard_normal(means.shape)
    w = means + np.matmul(z[:, :, None, :], factors.swapaxes(-1, -2))[:, :, 0, :]
    scores = np.matmul(w[..., None, :], f[:, None])[..., 0, 0]
    return scores[:, 0] - gamma * scores[:, 1]


def thompson_select(state: BanditState, features: np.ndarray, gamma: float,
                    rng) -> int:
    """Posterior-sampling choice: argmax of one sampled value-of-computation
    vector, first index winning ties."""
    return int(np.argmax(sample_vocs(state, features, gamma, rng)))


def run_bandit_episodes(env, state: BanditState, episodes: int, rng) -> list[dict]:
    """Play the environment for a number of episodes, learning as we go.

    Each record carries the sampled scores, the chosen strategy, the observed
    payoff and duration, the refreshed gamma, and the true net values of the
    chosen and best strategies (under the pre-choice gamma) so regret can be
    read straight off the trace.
    """
    if env.num_arms != state.num_strategies:
        raise DimensionMismatch(
            f"{state.num_strategies} strategies cannot play {env.num_arms} arms")
    records = []
    for episode in range(episodes):
        feats = env.features(rng)
        gamma = state.gamma
        vocs = sample_vocs(state, feats, gamma, rng)
        chosen = int(np.argmax(vocs))
        reward, elapsed = env.pull(chosen, feats, rng)
        true_vocs = env.true_vocs(feats, gamma).tolist()
        gamma_after = observe(state, chosen, feats, reward, elapsed)
        records.append({
            "episode": episode,
            "features": np.atleast_1d(feats).astype(float, copy=False).tolist(),
            "sampled_vocs": vocs.tolist(),
            "chosen": chosen,
            "reward": float(reward),
            "elapsed": float(elapsed),
            "gamma": float(gamma_after),
            "true_voc_chosen": true_vocs[chosen],
            "true_voc_best": max(true_vocs),
        })
    return records
