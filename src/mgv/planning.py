"""Planning as a meta-level decision: expansions buy information about paths.

A plan tree starts with only the root expanded.  Expanding a frontier node
reveals its value; the current plan's worth is the best root-to-leaf sum with
prior means standing in for unrevealed nodes.  The myopic rule expands the
frontier node whose one-step value of computation -- expected improvement in
plan worth minus the expansion cost -- is largest, and stops when no node's
is positive.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice
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


# The most a plan tree's leaf depths may sum to, the root at depth 0: the
# node entries of all its root-to-leaf paths, which is at least the nodes less
# one.  No state stores those paths, but this bounds the tree and so every
# per-node table; a chain or a star at the bound builds its state in about
# 0.05 s on a 2-CPU Xeon.
MAX_LEAF_DEPTHS = 10**5


@dataclass
class PlanningState:
    """Tree topology, per-node priors, and observed values (None = unrevealed).

    ``parents[0]`` must be None (the root); the root is always expanded, by
    convention with value 0.  The topology never changes, so it is laid out
    once, here, in tables of one entry per node: ``order`` is a preorder,
    each parent before its children and siblings in index order, in which
    node ``i``'s subtree is the ``size[i]`` nodes from ``order[start[i]]``,
    and ``leaves`` lists the leaves in index order, so root-to-leaf path
    ``k`` ends at ``leaves[k]``.  ``copy`` shares these tables.
    """

    parents: tuple[int | None, ...]
    priors: tuple[DiscretePrior, ...]
    values: list[float | None]
    order: tuple[int, ...] = field(init=False, compare=False, repr=False)
    start: tuple[int, ...] = field(init=False, compare=False, repr=False)
    size: tuple[int, ...] = field(init=False, compare=False, repr=False)
    leaves: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        parents = self.parents
        n = len(parents)
        if len(self.priors) != n:
            raise ValidationError("priors", "must align with parents")
        if len(self.values) != n:
            raise ValueError("values must align with parents")
        if n == 0 or parents[0] is not None:
            raise ValidationError("parents", "node 0 must be the root (parent None)")
        for i, p in enumerate(parents[1:], start=1):
            if p is None or not 0 <= p < n or p == i:
                raise ValidationError("parents", f"node {i} has invalid parent {p}")
        # Each node's depth: its parent's plus one, or found by a walk up to
        # the first node of known depth, O(n) steps in all; a walk that meets
        # itself is a cycle.
        depth = [0] + [-1] * (n - 1)
        for i in range(1, n):
            j = parents[i]
            if depth[j] >= 0:
                depth[i] = depth[j] + 1
                continue
            walk, j = {}, i  # a dict keeps the walk's order
            while depth[j] < 0:
                if j in walk:
                    raise ValidationError("parents", f"cycle through node {j}")
                walk[j] = None
                j = parents[j]
            for steps, k in enumerate(reversed(walk), start=depth[j] + 1):
                depth[k] = steps
        # Subtree sizes, deepest node first; then, shallowest first, each node
        # takes the next free slot after its parent's, so every subtree is one
        # run of slots.  Every table has one entry per node, whatever the
        # tree's shape, and each one is dropped once it is no longer needed,
        # so a tree at the bound peaks low.
        by_depth = sorted(range(n), key=depth.__getitem__)
        size = [1] * n
        for i in reversed(by_depth):
            if i:
                size[parents[i]] += size[i]
        leaves = [i for i in range(n) if size[i] == 1]
        total = sum(depth[i] for i in leaves)
        if total > MAX_LEAF_DEPTHS:
            raise ValidationError("parents", f"leaf depths sum to {total}, "
                                             f"more than {MAX_LEAF_DEPTHS}")
        del depth
        start, free = [0] * n, [1] * n
        for i in islice(by_depth, 1, None):
            slot = start[i] = free[parents[i]]
            free[parents[i]] = slot + size[i]
            free[i] = slot + 1
        del free
        order = [0] * n
        for i in by_depth:
            order[start[i]] = i
        self.order, self.start = tuple(order), tuple(start)
        self.size, self.leaves = tuple(size), tuple(leaves)
        if self.values[0] is None:
            raise ValueError("root must be expanded")

    @property
    def num_nodes(self) -> int:
        return len(self.parents)

    def copy(self) -> "PlanningState":
        """A state with its own values and this state's topology tables."""
        new = copy.copy(self)
        new.values = list(self.values)
        return new


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


def _partial_sums(parents, contributions: list[float], nodes, head) -> dict:
    """Root-to-node sums down ``nodes``, parent first, where ``nodes[0]``
    sums to ``head``: every later node adds its contribution to its parent's
    sum.  These are the additions ``fold_sum`` makes along each root-to-leaf
    path, left to right from the root, so a leaf's sum is its path's, bit for
    bit.  Every plan worth comes from these sums, so this order fixes the
    trace's bytes."""
    sums = {nodes[0]: head}
    for j in islice(nodes, 1, None):
        sums[j] = sums[parents[j]] + contributions[j]
    return sums


def _scan(state: PlanningState) -> tuple[list[float], dict, list[int]]:
    """The state's contributions, every node's root-to-node sum, and the
    leaves whose path sums are not NaN, best first."""
    contributions = _contributions(state)
    sums = _partial_sums(state.parents, contributions, state.order, 0 + contributions[0])
    ranking = sorted((leaf for leaf in state.leaves if sums[leaf] == sums[leaf]),
                     key=sums.__getitem__, reverse=True)
    return contributions, sums, ranking


def plan_value(state: PlanningState) -> float:
    """Worth of the best root-to-leaf path, prior means filling in the
    unrevealed nodes: the ``max`` of the path sums in leaf order."""
    contributions = _contributions(state)
    sums = _partial_sums(state.parents, contributions, state.order, 0 + contributions[0])
    return max(map(sums.__getitem__, state.leaves))


def myopic_voc(state: PlanningState, node: int, expansion_cost: float,
               base: tuple[list[float], dict, list[int]] | None = None) -> float:
    """One-step value of revealing ``node``: expected plan worth afterwards,
    minus current worth, minus the cost.

    The worth is the ``max`` of the path sums in leaf order, and a reveal
    moves only the sums of the paths through ``node``, which end in its
    subtree.  So each value the node may take re-sums that subtree alone, and
    the best path outside it is the first leaf outside it in a ranking of
    the sums.  ``max`` keeps its first item when that is NaN and never takes
    a NaN later, so the worth is path 0's sum when that is NaN, and otherwise
    the largest sum that is not; equal sums give the same result whichever
    is taken.  ``base``, the state's ``_scan`` (contributions, root-to-node
    sums, ranking), spares that scan when several nodes of one state are
    scored; it is read, not changed.
    """
    values, parents, start, size = state.values, state.parents, state.start, state.size
    if not (0 < node < len(parents) and values[node] is None
            and values[parents[node]] is not None):
        raise NodeNotOnFrontier(f"node {node} is not expandable now")
    contributions, sums, ranking = _scan(state) if base is None else base
    lo = start[node]
    hi = lo + size[node]
    outside = -np.inf
    for leaf in ranking:
        if not lo <= start[leaf] < hi:
            outside = sums[leaf]
            break
    nodes = state.order[lo:hi]
    inside = [j for j in nodes if size[j] == 1]
    first = state.leaves[0]
    first_moves = lo <= start[first] < hi
    head = sums[parents[node]]
    prior = state.priors[node]
    expected_after = 0.0
    for v, p in zip(prior.support, prior.probs):
        after = _partial_sums(parents, contributions, nodes, head + v)
        worth = after[first] if first_moves else sums[first]
        if worth == worth:
            worth = outside
            for j in inside:
                if after[j] > worth:
                    worth = after[j]
        expected_after += p * worth
    worth = sums[first]
    if worth == worth:
        worth = sums[ranking[0]]
    return expected_after - worth - expansion_cost


def _draw(probs, rng) -> int:
    """The index ``rng.choice(len(probs), p=np.asarray(probs))`` returns,
    from the same one uniform: numpy's running sums of ``probs``, each divided
    by the last, searched from the right, without its per-call argument
    handling."""
    cdf = list(accumulate(probs))
    total = cdf[-1]
    return bisect_right([c / total for c in cdf], rng.random())


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

    Each expansion scans the state once, for its root-to-node sums and their
    ranking, and scores every frontier node against that scan.  Revealed
    values are drawn from each node's prior via ``rng``, as
    ``rng.choice(len(support), p=probs)`` would draw them; pass
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
        base = _scan(st)
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
            revealed = prior.support[_draw(prior.probs, rng)]
        st.values[best_node] = revealed
        expansions.append((best_node, revealed))
    net = plan_value(st) - expansion_cost * len(expansions)
    return MyopicPlanResult(st, expansions, net)
