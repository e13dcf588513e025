"""Optimal stopping for memory search as evidence accumulation.

Progress toward recall is a random walk whose drift (memory strength) is
unknown; searching costs a little each step, recall pays once progress crosses
a threshold, and giving up pays nothing.  The drift belief is conjugate
Gaussian, so the progress transition marginalizes in closed form and the
finite-horizon policy comes out of exact backward induction on a progress
grid.  The solved policy searches above a time-varying progress cutoff and
stops below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AT_LEAST_1, FINITE, NONNEG, POSITIVE, NonMonotonePolicy, ValidationError

MAX_GRID_CELLS = 1001  # each solver step holds a (cells - 1) x cells array


@dataclass
class RecallMdpConfig:
    drift_prior_mean: float
    drift_prior_variance: float
    evidence_variance: float
    recall_threshold: float
    recall_utility: float
    search_cost: float
    horizon: int
    z_min: float | None = None
    z_step: float | None = None

    def __post_init__(self):
        FINITE.check("drift_prior_mean", self.drift_prior_mean)
        POSITIVE.check("drift_prior_variance", self.drift_prior_variance)
        POSITIVE.check("evidence_variance", self.evidence_variance)
        POSITIVE.check("recall_threshold", self.recall_threshold)
        FINITE.check("recall_utility", self.recall_utility)
        NONNEG.check("search_cost", self.search_cost)
        AT_LEAST_1.check("horizon", self.horizon)
        if self.z_min is None:
            self.z_min = -2.0 * self.recall_threshold
        # The default step derives from z_min, so z_min is checked first.
        if self.z_min >= self.recall_threshold:
            raise ValidationError("z_min", "must sit below the recall threshold")
        if self.z_step is None:
            self.z_step = (self.recall_threshold - self.z_min) / 40.0
        POSITIVE.check("z_step", self.z_step)
        steps = (self.recall_threshold - self.z_min) / self.z_step
        if steps + 1 >= MAX_GRID_CELLS + 0.5:  # the grid has steps + 1 cells; inf fails too
            raise ValidationError("z_step", f"grid must have at most {MAX_GRID_CELLS} cells")
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
            raise ValidationError("z_step", "grid step must divide the span up to the threshold")

    def grid(self) -> np.ndarray:
        """Progress grid from z_min up to the threshold; the last point is the
        absorbing recalled cell."""
        n = int(round((self.recall_threshold - self.z_min) / self.z_step)) + 1
        return np.linspace(self.z_min, self.recall_threshold, n)


def recall_posterior(t: int, z: float, prior_mean: float, prior_variance: float,
                     evidence_variance: float) -> tuple[float, float]:
    """Drift belief after t steps summing to progress z.

    Standard conjugate form: precisions add, the mean is the precision-weighted
    blend of prior mean and average observed increment.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return prior_mean, prior_variance
    precision = 1.0 / prior_variance + t / evidence_variance
    variance = 1.0 / precision
    mean = (prior_mean / prior_variance + z / evidence_variance) * variance
    return mean, variance


def recall_transition(t: int, z: float | np.ndarray, config: RecallMdpConfig) -> np.ndarray:
    """Distribution of next-step progress over grid cells after one search.

    The increment marginalizes the drift belief: next progress is Gaussian
    with mean z + posterior mean and variance ``evidence + posterior``.  Cell
    masses integrate that Gaussian between cell midpoints, with the bottom
    cell catching the left tail and the absorbing top cell catching all mass
    at or above the threshold.  Masses sum to one.  An array of progress
    values gives one row per value.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z >= config.recall_threshold):
        raise ValueError("transition undefined from the absorbed state")
    mu, var = recall_posterior(t, z, config.drift_prior_mean,
                               config.drift_prior_variance, config.evidence_variance)
    sigma = math.sqrt(config.evidence_variance + var)
    grid = config.grid()
    edges = (grid[:-1] + grid[1:]) / 2.0  # right edge of each non-absorbing cell
    edges[-1] = config.recall_threshold  # top non-absorbing cell ends at the threshold
    x = (edges - (z + mu)[..., None]) / sigma / math.sqrt(2.0)
    # numpy has no erf and scipy is only a test dependency, so math.erf runs
    # per element, over Python floats: ``tolist`` is faster than ``x.flat``.
    erf = np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)
    # The last mass is everything at or above the threshold: recalled.
    return np.diff(0.5 * (1.0 + erf), prepend=0.0, append=1.0)


@dataclass
class PolicyTable:
    """Exact finite-horizon solution: values and actions per (step, cell).

    The last grid cell is the absorbing recalled state and carries the recall
    utility at every step; actions exist only for the other cells.
    """

    z_values: np.ndarray
    values: np.ndarray   # (horizon + 1, cells)
    actions: np.ndarray  # (horizon + 1, cells - 1), 1 = search, 0 = stop
    recall_utility: float
    horizon: int

    def to_dict(self) -> dict:
        return {
            "z_values": [float(z) for z in self.z_values],
            "values": [[float(v) for v in row] for row in self.values],
            "actions": [[int(a) for a in row] for row in self.actions],
            "recall_utility": self.recall_utility,
            "horizon": self.horizon,
        }


def solve_recall_mdp(config: RecallMdpConfig) -> PolicyTable:
    """Backward induction over (step, progress cell).

    At the horizon only stopping (worth 0) remains.  Earlier, searching is
    worth the expected next-step value minus the search cost; the policy
    searches exactly where that beats stopping, ties resolving to stop.
    """
    grid = config.grid()
    k = grid.size
    horizon = config.horizon
    values = np.zeros((horizon + 1, k))
    actions = np.zeros((horizon + 1, k - 1), dtype=np.int8)
    values[:, -1] = config.recall_utility

    for t in range(horizon - 1, -1, -1):
        rows = recall_transition(t, grid[:-1], config)
        # One dot product per row, in one batched call: a 2-D matrix product
        # sums in another order and moves the last bit of the values.
        expected = np.matmul(rows[:, None, :], values[t + 1][:, None])[:, 0, 0]
        q_search = -config.search_cost + expected
        search = q_search > 0.0
        values[t, :-1][search] = q_search[search]
        actions[t] = search
    return PolicyTable(grid, values, actions, config.recall_utility, horizon)


def stopping_threshold(policy: PolicyTable) -> dict[int, float | None]:
    """Lowest progress at which the policy still searches, per step.

    None marks steps where it stops everywhere.  Raises when a step's actions
    are not stop-below / search-above, which signals a grid too coarse for
    the configuration.
    """
    out: dict[int, float | None] = {}
    for t in range(policy.horizon + 1):
        row = policy.actions[t]
        searching = np.flatnonzero(row == 1)
        if searching.size == 0:
            out[t] = None
            continue
        lo = int(searching[0])
        if not np.all(row[lo:] == 1):
            raise NonMonotonePolicy(f"actions at step {t} are not a single cutoff")
        out[t] = float(policy.z_values[lo])
    return out


@dataclass
class RecallSimResult:
    """Vectorized episode outcomes for one true drift."""

    drift: float
    recalled: np.ndarray  # bool per episode
    steps: np.ndarray     # int per episode

    @property
    def recall_rate(self) -> float:
        return float(np.mean(self.recalled))

    def mean_recall_time(self) -> float | None:
        if not self.recalled.any():
            return None
        return float(np.mean(self.steps[self.recalled]))

    def mean_giveup_time(self) -> float | None:
        failed = ~self.recalled
        if not failed.any():
            return None
        return float(np.mean(self.steps[failed]))


def simulate_recall(policy: PolicyTable, config: RecallMdpConfig, drift: float,
                    episodes: int, rng, start: float = 0.0) -> RecallSimResult:
    """Roll episodes with a known true drift under the solved policy.

    Progress stays continuous; the policy is read at the nearest grid cell.
    Episodes end by crossing the threshold (recalled), by the policy stopping,
    or by the horizon forcing a stop.
    """
    z = np.full(episodes, float(start))
    steps = np.zeros(episodes, dtype=int)
    recalled = np.zeros(episodes, dtype=bool)
    active = np.ones(episodes, dtype=bool)
    sigma = math.sqrt(config.evidence_variance)
    cells = policy.z_values.size

    for t in range(config.horizon + 1):
        crossed = active & (z >= config.recall_threshold)
        recalled[crossed] = True
        steps[crossed] = t
        active &= ~crossed
        if not active.any():
            break
        if t == config.horizon:
            steps[active] = t
            active[:] = False
            break
        idx = np.flatnonzero(active)
        # Clip before the cast: a float beyond int64's range has no defined
        # integer, and rounding commutes with clipping to whole bounds.
        progress = np.clip((z[idx] - config.z_min) / config.z_step, 0, cells - 2)
        cell = np.rint(progress).astype(int)
        stop = policy.actions[t, cell] == 0
        stopped = idx[stop]
        steps[stopped] = t
        active[stopped] = False
        moving = idx[~stop]
        if moving.size:
            z[moving] += rng.normal(drift, sigma, size=moving.size)
            steps[moving] = t + 1
    return RecallSimResult(drift, recalled, steps)
