"""Strategy selection by value of computation.

Each strategy carries Gaussian posteriors over the weights mapping task
features to payoff and to time cost.  The value of computation nets payoff
against time charged at the opportunity cost -- average reward per unit time
so far.  Selection is posterior sampling: draw weights, score every strategy,
play the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch


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
        if self.noise_variance <= 0:
            raise ValueError("noise_variance must be positive")

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

    def draw(self, z: np.ndarray) -> np.ndarray:
        """The weights for a standard normal vector ``z``."""
        return self.mean + z @ self.factor.T

    def sample(self, rng) -> np.ndarray:
        """One draw, bit for bit ``rng.multivariate_normal(mean, covariance,
        check_valid="ignore", method="svd")``."""
        return self.draw(rng.standard_normal(self.dim))


def posterior_update(posterior: WeightPosterior, features: np.ndarray,
                     observation: float) -> WeightPosterior:
    """Condition the weight belief on one observed (features, value) pair.

    Rank-one update: no matrix inversion, so collapsed or flat directions are
    handled exactly.  Zero features leave the belief unchanged.
    """
    f = np.asarray(features, dtype=float)
    if f.shape != posterior.mean.shape:
        raise DimensionMismatch(
            f"features shape {f.shape} does not match weight dim {posterior.mean.shape}")
    sf = posterior.covariance @ f
    denom = posterior.noise_variance + f @ sf
    gain = sf / denom
    mean = posterior.mean + gain * (observation - f @ posterior.mean)
    cov = posterior.covariance - np.outer(gain, sf)
    cov = (cov + cov.T) / 2.0
    return WeightPosterior(mean, cov, posterior.noise_variance)


def voc_estimate(utility_weights: np.ndarray, time_weights: np.ndarray,
                 features: np.ndarray, gamma: float) -> float:
    """Expected payoff minus time cost charged at the opportunity rate."""
    u = np.asarray(utility_weights, dtype=float)
    t = np.asarray(time_weights, dtype=float)
    f = np.asarray(features, dtype=float)
    if u.shape != f.shape or t.shape != f.shape:
        raise DimensionMismatch("weights and features must share a shape")
    return float(u @ f - gamma * (t @ f))


@dataclass
class BanditState:
    """Per-strategy payoff and time beliefs plus the running opportunity cost."""

    utility: list[WeightPosterior]
    time: list[WeightPosterior]
    cumulative_reward: float = 0.0
    cumulative_time: float = 0.0
    gamma_prior: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if len(self.utility) != len(self.time):
            raise ValueError("utility and time posterior lists must align")
        if self.cumulative_time < 0:
            raise ValueError("cumulative_time must be nonnegative")
        if self.gamma_prior[1] <= 0:
            raise ValueError("gamma pseudo-time must be positive")

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


def update_gamma(state: BanditState, reward: float, elapsed: float) -> float:
    if elapsed <= 0:
        raise ValueError("elapsed must be positive")
    state.cumulative_reward += reward
    state.cumulative_time += elapsed
    return state.gamma


def observe(state: BanditState, strategy: int, features: np.ndarray,
            utility: float, elapsed: float) -> float:
    """Fold one play's outcome into the strategy's beliefs and the
    opportunity cost.  Returns the refreshed gamma."""
    state.utility[strategy] = posterior_update(state.utility[strategy], features, utility)
    state.time[strategy] = posterior_update(state.time[strategy], features, elapsed)
    return update_gamma(state, utility, elapsed)


def sample_vocs(state: BanditState, features: np.ndarray, gamma: float,
                rng) -> np.ndarray:
    """One posterior sample of the value of computation for every strategy.

    All the normals come from one call, in the order per-posterior draws
    would take them: arm by arm, utility before time.
    """
    f = np.asarray(features, dtype=float)
    if any(p.dim != f.size for p in (*state.utility, *state.time)):
        raise DimensionMismatch("weights and features must share a shape")
    z = rng.standard_normal((state.num_strategies, 2, f.size))
    vocs = np.empty(state.num_strategies)
    for i in range(state.num_strategies):
        vocs[i] = voc_estimate(state.utility[i].draw(z[i, 0]),
                               state.time[i].draw(z[i, 1]), f, gamma)
    return vocs


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
    records = []
    for episode in range(episodes):
        feats = env.features(rng)
        gamma = state.gamma
        vocs = sample_vocs(state, feats, gamma, rng)
        chosen = int(np.argmax(vocs))
        reward, elapsed = env.pull(chosen, feats, rng)
        true_vocs = [env.true_voc(a, feats, gamma) for a in range(state.num_strategies)]
        gamma_after = observe(state, chosen, feats, reward, elapsed)
        records.append({
            "episode": episode,
            "features": [float(x) for x in np.atleast_1d(feats)],
            "sampled_vocs": [float(v) for v in vocs],
            "chosen": chosen,
            "reward": float(reward),
            "elapsed": float(elapsed),
            "gamma": float(gamma_after),
            "true_voc_chosen": float(true_vocs[chosen]),
            "true_voc_best": float(max(true_vocs)),
        })
    return records

