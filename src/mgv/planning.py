"""Planning as a meta-level decision: expansions buy information about paths.

A plan tree starts with only the root expanded.  Expanding a frontier node
reveals its value; the current plan's worth is the best root-to-leaf sum with
prior means standing in for unrevealed nodes.  The myopic rule expands the
frontier node whose one-step value of computation -- expected improvement in
plan worth minus the expansion cost -- is largest, and stops when no node's
is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import FINITE, NONNEG, NodeNotOnFrontier, ValidationError
from .floats import fold_sum


@dataclass(frozen=True)
class DiscretePrior:
    """Finite-support belief over a node's hidden value."""

    support: tuple[float, ...]
    probs: tuple[float, ...]
    _mean: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ValidationError("support", "support and probs must be non-empty and align")
        for i, s in enumerate(self.support):
            FINITE.check(f"support[{i}]", s)
        for i, p in enumerate(self.probs):
            NONNEG.check(f"probs[{i}]", p)
        total = fold_sum(self.probs)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError("probs", f"sum to {total}, not 1")
        # The prior is frozen, so its mean is computed once, here.  The probs
        # may sum to a little over 1, so a finite support can overflow it.
        mean = float(fold_sum(map(mul, self.support, self.probs)))
        if not FINITE.ok(mean):
            raise ValidationError("support", "mean must be finite")
        object.__setattr__(self, "_mean", mean)

    def mean(self) -> float:
        return self._mean

    def to_dict(self) -> dict:
        return {"support": list(self.support), "probs": list(self.probs)}

    @classmethod
    def from_dict(cls, d: dict) -> "DiscretePrior":
        return cls(tuple(d["support"]), tuple(d["probs"]))


@dataclass
class PlanningState:
    """Tree topology, per-node priors, and observed values (None = unrevealed).

    ``parents[0]`` must be None (the root); the root is always expanded, by
    convention with value 0.  ``paths`` holds every root-to-leaf path, in leaf
    index order, and ``through[i]`` the indices into ``paths`` of the paths
    that cross node ``i``; the topology never changes, so both are found once
    here.
    """

    parents: tuple[int | None, ...]
    priors: tuple[DiscretePrior, ...]
    values: list[float | None]
    paths: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    through: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.parents)
        if len(self.priors) != n:
            raise ValidationError("priors", "must align with parents")
        if len(self.values) != n:
            raise ValueError("values must align with parents")
        if n == 0 or self.parents[0] is not None:
            raise ValidationError("parents", "node 0 must be the root (parent None)")
        for i, p in enumerate(self.parents[1:], start=1):
            if p is None or not 0 <= p < n or p == i:
                raise ValidationError("parents", f"node {i} has invalid parent {p}")
        # Reject cycles by walking each node up to the root; the walks that
        # start at a leaf are the paths.
        inner = set(self.parents)
        paths, through = [], [[] for _ in range(n)]
        for i in range(n):
            seen, j = {}, i  # a dict keeps the walk's order
            while j != 0:
                if j in seen:
                    raise ValidationError("parents", f"cycle through node {j}")
                seen[j] = None
                j = self.parents[j]
            if i not in inner:
                for node in (0, *seen):
                    through[node].append(len(paths))
                paths.append((0, *reversed(seen)))
        self.paths = tuple(paths)
        self.through = tuple(map(tuple, through))
        if self.values[0] is None:
            raise ValueError("root must be expanded")

    @property
    def num_nodes(self) -> int:
        return len(self.parents)

    def copy(self) -> "PlanningState":
        return PlanningState(self.parents, self.priors, list(self.values))


def make_initial_state(parents, priors) -> PlanningState:
    values: list[float | None] = [0.0] + [None] * (len(parents) - 1)
    return PlanningState(tuple(parents), tuple(priors), values)


def frontier(state: PlanningState) -> list[int]:
    """Unrevealed nodes whose parent is revealed, in index order."""
    return [i for i in range(1, state.num_nodes)
            if state.values[i] is None and state.values[state.parents[i]] is not None]


def _contributions(state: PlanningState) -> list[float]:
    """Each node's revealed value, or its prior mean while unrevealed."""
    return [v if v is not None else prior.mean()
            for v, prior in zip(state.values, state.priors)]


def _path_sums(contributions: list[float], paths) -> list[float]:
    """Each path's sum, left to right from the root.  Every plan worth comes
    from these sums, so this order fixes the trace's bytes."""
    at = contributions.__getitem__
    return [fold_sum(map(at, path)) for path in paths]


def plan_value(state: PlanningState) -> float:
    """Worth of the best root-to-leaf path, prior means filling in the
    unrevealed nodes."""
    return max(_path_sums(_contributions(state), state.paths))


def myopic_voc(state: PlanningState, node: int, expansion_cost: float,
               base: tuple[list[float], list[float]] | None = None) -> float:
    """One-step value of revealing ``node``: expected plan worth afterwards,
    minus current worth, minus the cost.

    Each path is summed once; for each value the node may take, only the
    paths through it are summed again.  The worth after a reveal is still the
    ``max`` over every path sum in leaf order, so ties and NaNs resolve as a
    full re-scoring would.  ``base``, the state's ``(contributions, path
    sums)``, spares that first sum when several nodes of one state are
    scored; it is read, not changed.
    """
    values, parents = state.values, state.parents
    if not (0 < node < len(parents) and values[node] is None
            and values[parents[node]] is not None):
        raise NodeNotOnFrontier(f"node {node} is not expandable now")
    if base is None:
        contributions = _contributions(state)
        sums = _path_sums(contributions, state.paths)
    else:
        contributions, sums = list(base[0]), base[1]
    through = state.through[node]
    through_paths = [state.paths[i] for i in through]
    prior = state.priors[node]
    expected_after = 0.0
    for v, p in zip(prior.support, prior.probs):
        contributions[node] = v
        after = sums.copy()
        for i, total in zip(through, _path_sums(contributions, through_paths)):
            after[i] = total
        expected_after += p * max(after)
    return expected_after - max(sums) - expansion_cost


@dataclass
class MyopicPlanResult:
    state: PlanningState
    expansions: list[tuple[int, float]]
    net_reward: float

    @property
    def num_expansions(self) -> int:
        return len(self.expansions)


def run_myopic_planner(state: PlanningState, expansion_cost: float, rng=None,
                       reveal=None) -> MyopicPlanResult:
    """Greedy meta-level loop: keep revealing the best-scoring frontier node
    while some node's value of computation is positive.

    Revealed values are drawn from each node's prior via ``rng``; pass
    ``reveal(node) -> value`` instead to play against a fixed world.  Ties on
    the value of computation go to the lowest node index.  Net reward is the
    final plan worth minus cost times expansions made.
    """
    if rng is None and reveal is None:
        raise ValueError("need an rng or a reveal function")
    st = state.copy()
    expansions: list[tuple[int, float]] = []
    while True:
        candidates = frontier(st)
        if not candidates:
            break
        best_node, best_voc = None, -np.inf
        contributions = _contributions(st)
        base = contributions, _path_sums(contributions, st.paths)
        for node in candidates:
            voc = myopic_voc(st, node, expansion_cost, base)
            if voc > best_voc:
                best_node, best_voc = node, voc
        if best_voc <= 0:
            break
        if reveal is not None:
            revealed = float(reveal(best_node))
        else:
            prior = st.priors[best_node]
            idx = rng.choice(len(prior.support), p=np.asarray(prior.probs))
            revealed = prior.support[int(idx)]
        st.values[best_node] = revealed
        expansions.append((best_node, revealed))
    net = plan_value(st) - expansion_cost * len(expansions)
    return MyopicPlanResult(st, expansions, net)
