"""Optimal stopping for memory search as evidence accumulation.

Progress toward recall is a random walk whose drift (memory strength) is
unknown; searching costs a little each step, recall pays once progress crosses
a threshold, and giving up pays nothing.  The drift belief is conjugate
Gaussian, so the progress transition marginalizes in closed form and the
finite-horizon policy comes out of exact backward induction on a progress
grid.  The solved policy searches above a time-varying progress cutoff and
stops below it.

numpy's fixed cost per call is most of a small solve, so the solver builds
the transition rows of a block of steps in one call, the cutoffs come from
one pass over the action table, and the simulation carries only the
episodes still searching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AT_LEAST_1, FINITE, NONNEG, POSITIVE, NonMonotonePolicy, ValidationError
from .floats import mean

MAX_GRID_CELLS = 1001  # each solver step holds a (cells - 1) x cells array

# Transition masses one solver call builds at most, unless one step alone
# holds more.  A 16-cell grid (240 masses a step) gets 17 steps a call, so a
# small solve pays numpy's fixed cost per call once; from 46 cells up each
# call holds one step, as a per-step loop would.  A call's transient arrays
# and its list of Python floats for ``math.erf`` thus stay within about
# 4 096 entries each (a few hundred kB) of what a single step needs.
BLOCK_MASSES = 1 << 12


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


def recall_posterior(t: int | np.ndarray, z: float | np.ndarray, prior_mean: float,
                     prior_variance: float, evidence_variance: float) -> tuple:
    """Drift belief after t steps summing to progress z.

    Standard conjugate form: precisions add, the mean is the precision-weighted
    blend of prior mean and average observed increment; step 0 is the prior
    exactly.  A scalar step and an array of steps take the same path, so an
    array gives one belief per step, broadcast against z, each bit for bit
    the scalar call's.
    """
    steps = np.asarray(t)
    if steps.min() < 0:
        raise ValueError("t must be nonnegative")
    precision = 1.0 / prior_variance + t / evidence_variance
    variance = 1.0 / precision
    mean = (prior_mean / prior_variance + z / evidence_variance) * variance
    prior = steps == 0
    return np.where(prior, prior_mean, mean)[()], np.where(prior, prior_variance, variance)[()]


def recall_transition(t: int | np.ndarray, z: float | np.ndarray,
                      config: RecallMdpConfig) -> np.ndarray:
    """Distribution of next-step progress over grid cells after one search.

    The increment marginalizes the drift belief: next progress is Gaussian
    with mean z + posterior mean and variance ``evidence + posterior``.  Cell
    masses integrate that Gaussian between cell midpoints, with the bottom
    cell catching the left tail and the absorbing top cell catching all mass
    at or above the threshold.  Masses sum to one.  An array of progress
    values gives one row per value, and a 1-D array of steps one block of
    such rows per step; a scalar step is a 0-d array on the same path, so
    each block is bit for bit the single step's call.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z >= config.recall_threshold):
        raise ValueError("transition undefined from the absorbed state")
    steps = np.asarray(t)
    t = steps.reshape(steps.shape + (1,) * z.ndim)  # each step spans z
    mu, var = recall_posterior(t, z, config.drift_prior_mean,
                               config.drift_prior_variance, config.evidence_variance)
    # np.sqrt and math.sqrt both round correctly, so they give the same bits.
    sigma = np.sqrt(config.evidence_variance + var)[..., None]
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
    One ``recall_transition`` call builds the rows of a block of steps, at
    most ``BLOCK_MASSES`` masses unless one step alone holds more.
    """
    grid = config.grid()
    k = grid.size
    horizon = config.horizon
    values = np.zeros((horizon + 1, k))
    values[:, -1] = config.recall_utility
    per_block = max(1, BLOCK_MASSES // ((k - 1) * k))

    for top in range(horizon - 1, -1, -per_block):
        block = np.arange(top, max(top - per_block, -1), -1)
        for t, rows in zip(block.tolist(), recall_transition(block, grid[:-1], config)):
            # One dot product per row, in one batched call: a 2-D matrix
            # product sums in another order and moves the last bit of the values.
            expected = np.matmul(rows[:, None, :], values[t + 1][:, None])[:, 0, 0]
            q_search = -config.search_cost + expected
            values[t, :-1] = np.where(q_search > 0.0, q_search, 0.0)
    # A cell searches exactly where searching beat stopping's 0.
    actions = (values[:, :-1] > 0.0).astype(np.int8)
    return PolicyTable(grid, values, actions, config.recall_utility, horizon)


def stopping_threshold(policy: PolicyTable) -> dict[int, float | None]:
    """Lowest progress at which the policy still searches, per step.

    None marks steps where it stops everywhere.  Raises when a step's actions
    are not stop-below / search-above, which signals a grid too coarse for
    the configuration; the error names the first such step.  One pass over
    the whole action table finds every step's cutoff.
    """
    searching = np.asarray(policy.actions) == 1
    # A search followed by a stop anywhere in a row breaks the single cutoff.
    broken = np.flatnonzero((searching[:, :-1] > searching[:, 1:]).any(axis=1))
    if broken.size:
        raise NonMonotonePolicy(f"actions at step {int(broken[0])} are not a single cutoff")
    cutoffs = np.asarray(policy.z_values)[searching.argmax(axis=1)].tolist()
    return {t: z if any_search else None
            for t, (z, any_search) in enumerate(zip(cutoffs, searching.any(axis=1).tolist()))}


@dataclass
class RecallSimResult:
    """Vectorized episode outcomes for one true drift."""

    drift: float
    recalled: np.ndarray  # bool per episode
    steps: np.ndarray     # int per episode

    @property
    def recall_rate(self) -> float:
        return float(mean(self.recalled))

    def mean_recall_time(self) -> float | None:
        if not self.recalled.any():
            return None
        return float(mean(self.steps[self.recalled]))

    def mean_giveup_time(self) -> float | None:
        failed = ~self.recalled
        if not failed.any():
            return None
        return float(mean(self.steps[failed]))


def simulate_recall(policy: PolicyTable, config: RecallMdpConfig, drift: float,
                    episodes: int, rng, start: float = 0.0) -> RecallSimResult:
    """Roll episodes with a known true drift under the solved policy.

    Progress stays continuous; the policy is read at the nearest grid cell.
    Episodes end by crossing the threshold (recalled), by the policy stopping,
    or by the horizon forcing a stop.  Only the episodes still searching are
    carried from step to step, as their indices and progress, and the moving
    ones draw their increments in index order.
    """
    FINITE.check("drift", drift)
    FINITE.check("start", start)
    AT_LEAST_1.check("episodes", episodes)
    steps = np.zeros(episodes, dtype=int)
    recalled = np.zeros(episodes, dtype=bool)
    idx = np.arange(episodes)  # the episodes still searching, ascending
    z = np.full(episodes, float(start))  # their progress
    sigma = math.sqrt(config.evidence_variance)
    z_min, z_step, threshold = config.z_min, config.z_step, config.recall_threshold
    top_cell = policy.z_values.size - 2
    searches = policy.actions != 0

    for t in range(config.horizon + 1):
        # A searching episode is not recalled yet, and each leaves at the
        # step last written to it.
        crossed = z >= threshold
        recalled[idx] = crossed
        steps[idx] = t
        if t == config.horizon:
            break
        # Clip before the cast: a float beyond int64's range has no defined
        # integer, and rounding commutes with clipping to whole bounds.
        # np.minimum and np.maximum clip as np.clip does, for less overhead.
        cell = np.rint(np.minimum(np.maximum((z - z_min) / z_step, 0), top_cell)).astype(int)
        moving = ~crossed & searches[t][cell]
        idx = idx[moving]
        if not idx.size:
            break
        z = z[moving] + rng.normal(drift, sigma, size=idx.size)
    return RecallSimResult(drift, recalled, steps)
