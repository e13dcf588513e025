import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from mgv.errors import NonMonotonePolicy
from mgv.recall import (MAX_GRID_CELLS, PolicyTable, RecallMdpConfig, recall_posterior,
                        recall_transition, simulate_recall, solve_recall_mdp,
                        stopping_threshold)


def small_config(**overrides):
    params = dict(drift_prior_mean=0.1, drift_prior_variance=0.5,
                  evidence_variance=1.0, recall_threshold=1.0,
                  recall_utility=2.0, search_cost=0.05, horizon=3,
                  z_min=-1.0, z_step=0.5)
    params.update(overrides)
    return RecallMdpConfig(**params)


def evaluate_policy(actions, config):
    """Value table of an arbitrary fixed stop/search policy."""
    grid = config.grid()
    k = grid.size
    values = np.zeros((config.horizon + 1, k))
    values[:, -1] = config.recall_utility
    for t in range(config.horizon - 1, -1, -1):
        for cell in range(k - 1):
            if actions[t][cell]:
                probs = recall_transition(t, float(grid[cell]), config)
                values[t, cell] = -config.search_cost + probs @ values[t + 1]
    return values


# --- configuration and grid -------------------------------------------------

def test_default_grid_has_41_cells_spanning_twice_the_threshold_below():
    config = RecallMdpConfig(0.0, 1.0, 1.0, recall_threshold=2.0,
                             recall_utility=1.0, search_cost=0.01, horizon=5)
    grid = config.grid()
    assert grid.size == 41
    assert grid[0] == pytest.approx(-4.0)
    assert grid[-1] == pytest.approx(2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(drift_prior_variance=0.0)
    with pytest.raises(ValueError):
        small_config(z_min=2.0)
    with pytest.raises(ValueError):
        small_config(z_step=0.3)  # does not divide the span
    with pytest.raises(ValueError):
        small_config(horizon=0)


# --- drift posterior --------------------------------------------------------

def test_posterior_before_any_evidence_is_exactly_the_prior():
    assert recall_posterior(0, 0.0, 0.2, 0.5, 1.0) == (0.2, 0.5)


def test_posterior_hand_example():
    mean, var = recall_posterior(2, 1.0, 0.2, 0.5, 1.0)
    assert var == pytest.approx(0.25, abs=1e-12)
    assert mean == pytest.approx(0.35, abs=1e-12)


def test_posterior_concentrates_with_evidence():
    variances = [recall_posterior(t, 0.0, 0.0, 1.0, 1.0)[1] for t in range(6)]
    assert all(b < a for a, b in zip(variances, variances[1:]))


def test_posterior_rejects_negative_time():
    with pytest.raises(ValueError):
        recall_posterior(-1, 0.0, 0.0, 1.0, 1.0)


# --- progress transition ----------------------------------------------------

def test_transition_masses_sum_to_one():
    config = small_config()
    grid = config.grid()
    for t in range(3):
        for cell in range(grid.size - 1):
            probs = recall_transition(t, float(grid[cell]), config)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs >= 0).all()


def test_transition_matches_quadrature_oracle():
    config = small_config()
    grid = config.grid()
    k = grid.size
    for t in (0, 2):
        for cell in (0, 1, 2):
            z = float(grid[cell])
            mu, var = recall_posterior(t, z, config.drift_prior_mean,
                                       config.drift_prior_variance,
                                       config.evidence_variance)
            dist = stats.norm(z + mu, math.sqrt(config.evidence_variance + var))
            edges = [(grid[j] + grid[j + 1]) / 2 for j in range(k - 1)]
            edges[k - 2] = config.recall_threshold
            probs = recall_transition(t, z, config)
            lo = -np.inf
            for j in range(k - 1):
                mass, _ = integrate.quad(dist.pdf, lo, edges[j])
                assert probs[j] == pytest.approx(mass, abs=1e-9)
                lo = edges[j]
            assert probs[k - 1] == pytest.approx(dist.sf(edges[k - 2]), abs=1e-9)


def test_transition_rejects_absorbed_state():
    config = small_config()
    with pytest.raises(ValueError):
        recall_transition(0, config.recall_threshold, config)


def test_transition_shifts_upward_with_progress():
    """Higher current progress implies a stronger drift belief, pushing mass up."""
    config = small_config()
    low = recall_transition(3, -1.0, config)
    high = recall_transition(3, 0.5, config)
    assert high[-1] > low[-1]


# --- exact solution vs exhaustive policy search -----------------------------

def test_backward_induction_beats_every_fixed_policy():
    config = small_config()  # 5 cells, horizon 3: 4096 deterministic policies
    table = solve_recall_mdp(config)
    cells = config.grid().size - 1
    best = np.full((config.horizon + 1, config.grid().size), -np.inf)
    best[:, -1] = config.recall_utility
    shape_entries = config.horizon * cells
    for bits in itertools.product((0, 1), repeat=shape_entries):
        actions = [bits[t * cells:(t + 1) * cells]
                   for t in range(config.horizon)]
        actions.append((0,) * cells)
        values = evaluate_policy(actions, config)
        best = np.maximum(best, values)
    assert np.allclose(table.values, best, atol=1e-9)


def test_solved_actions_attain_the_solved_values():
    config = small_config()
    table = solve_recall_mdp(config)
    replay = evaluate_policy(table.actions, config)
    assert np.allclose(replay, table.values, atol=1e-12)


def test_horizon_row_always_stops():
    table = solve_recall_mdp(small_config())
    assert not table.actions[-1].any()
    assert (table.values[-1, :-1] == 0).all()


def test_absorbing_cell_carries_recall_utility_at_every_step():
    table = solve_recall_mdp(small_config())
    assert (table.values[:, -1] == 2.0).all()


def test_policy_table_round_trip_fields():
    table = solve_recall_mdp(small_config())
    doc = table.to_dict()
    assert doc["horizon"] == 3
    assert len(doc["values"]) == 4
    assert len(doc["actions"][0]) == len(doc["z_values"]) - 1


def test_free_search_never_stops_early():
    table = solve_recall_mdp(small_config(search_cost=0.0,
                                          drift_prior_mean=0.5))
    assert table.actions[:-1].all()


def test_prohibitive_cost_stops_everywhere():
    table = solve_recall_mdp(small_config(search_cost=10.0))
    assert not table.actions.any()
    thresholds = stopping_threshold(table)
    assert all(v is None for v in thresholds.values())


# --- stopping threshold -----------------------------------------------------

def test_threshold_is_lowest_searching_cell():
    config = small_config()
    table = solve_recall_mdp(config)
    thresholds = stopping_threshold(table)
    for t, cutoff in thresholds.items():
        if cutoff is None:
            assert not table.actions[t].any()
            continue
        cell = int(np.argwhere(config.grid() == cutoff)[0][0])
        assert table.actions[t, cell] == 1
        assert not table.actions[t, :cell].any()


def test_threshold_rejects_scattered_actions():
    table = solve_recall_mdp(small_config())
    table.actions[0] = [1, 0, 1, 0]
    with pytest.raises(NonMonotonePolicy):
        stopping_threshold(table)


def per_step_cutoffs(policy):
    """``stopping_threshold`` one step at a time, stopping at the first
    non-monotone step."""
    out = {}
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


def action_tables():
    """Seeded action tables: single cutoffs, all-stop and all-search rows,
    and tables with one or more scattered rows."""
    rng = np.random.default_rng(707)
    for _ in range(300):
        steps, cells = int(rng.integers(1, 12)), int(rng.integers(1, 20))
        cutoffs = rng.integers(0, cells + 1, size=steps)
        actions = (np.arange(cells) >= cutoffs[:, None]).astype(np.int8)
        for _ in range(int(rng.integers(0, 3))):
            actions[rng.integers(steps), rng.integers(cells)] ^= 1
        z_values = np.sort(rng.uniform(-3.0, 1.0, size=cells + 1))
        yield PolicyTable(z_values, np.zeros((steps, cells + 1)), actions, 1.0, steps - 1)


def test_one_pass_cutoffs_match_the_per_step_loop():
    outcomes = set()
    for policy in action_tables():
        try:
            expected = per_step_cutoffs(policy)
        except NonMonotonePolicy as exc:
            with pytest.raises(NonMonotonePolicy) as got:
                stopping_threshold(policy)
            assert str(got.value) == str(exc)
            outcomes.add("raised")
            continue
        got = stopping_threshold(policy)
        assert got == expected
        assert all(type(v) in (float, type(None)) for v in got.values())
        outcomes.add("cutoffs")
    assert outcomes == {"raised", "cutoffs"}


# --- simulation -------------------------------------------------------------

def solved_pair(**overrides):
    config = small_config(horizon=12, recall_utility=5.0, search_cost=0.02,
                          z_min=-2.0, z_step=0.25, **overrides)
    return config, solve_recall_mdp(config)


def test_simulation_is_deterministic_per_seed():
    config, table = solved_pair()
    a = simulate_recall(table, config, 0.3, 200, np.random.default_rng(9))
    b = simulate_recall(table, config, 0.3, 200, np.random.default_rng(9))
    assert np.array_equal(a.recalled, b.recalled)
    assert np.array_equal(a.steps, b.steps)


def test_strong_drift_recalls_more_often_than_weak():
    config, table = solved_pair()
    weak = simulate_recall(table, config, 0.05, 2000, np.random.default_rng(1))
    strong = simulate_recall(table, config, 0.6, 2000, np.random.default_rng(1))
    assert strong.recall_rate > weak.recall_rate + 0.2


def test_steps_never_exceed_horizon():
    config, table = solved_pair()
    result = simulate_recall(table, config, 0.2, 500, np.random.default_rng(2))
    assert (result.steps <= config.horizon).all()


def test_start_above_threshold_recalls_instantly():
    config, table = solved_pair()
    result = simulate_recall(table, config, 0.0, 10, np.random.default_rng(3),
                             start=config.recall_threshold)
    assert result.recalled.all()
    assert (result.steps == 0).all()


def test_progress_far_below_the_grid_reads_the_lowest_cell():
    # -1e300 / z_step lies beyond int64's range; casting it to a cell index
    # would warn and take whatever the platform's cast gives.
    config, table = solved_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = simulate_recall(table, config, -1e300, 50, np.random.default_rng(4))
    near = simulate_recall(table, config, -1e3, 50, np.random.default_rng(4))
    assert np.array_equal(far.recalled, near.recalled)
    assert np.array_equal(far.steps, near.steps)


def test_summary_statistics():
    recalled = np.array([True, False, True, False])
    steps = np.array([2, 5, 4, 7])
    from mgv.recall import RecallSimResult
    result = RecallSimResult(0.1, recalled, steps)
    assert result.recall_rate == pytest.approx(0.5)
    assert result.mean_recall_time() == pytest.approx(3.0)
    assert result.mean_giveup_time() == pytest.approx(6.0)
    empty = RecallSimResult(0.1, np.zeros(2, bool), np.array([1, 1]))
    assert empty.mean_recall_time() is None


@pytest.mark.parametrize("bad", [dict(drift=math.nan), dict(drift=math.inf),
                                 dict(drift=-math.inf), dict(start=math.nan),
                                 dict(start=math.inf), dict(episodes=0),
                                 dict(episodes=-3)],
                         ids=lambda d: f"{next(iter(d))}={next(iter(d.values()))}")
def test_simulation_rejects_bad_arguments_before_any_draw(bad):
    config, table = solved_pair()
    args = dict(drift=0.2, episodes=10, start=0.0) | bad
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=next(iter(bad))):
        simulate_recall(table, config, args["drift"], args["episodes"], rng, start=args["start"])
    assert rng.bit_generator.state == before


# --- bit-exact fence ----------------------------------------------------------

def reference_solve(config):
    """Backward induction one cell at a time, each cell's transition row built
    edge by edge with a scalar erf and taken in its own dot product."""
    grid = config.grid()
    k = grid.size
    edges = [(grid[j] + grid[j + 1]) / 2.0 for j in range(k - 1)]
    edges[-1] = config.recall_threshold
    values = np.zeros((config.horizon + 1, k))
    actions = np.zeros((config.horizon + 1, k - 1), dtype=np.int8)
    values[:, -1] = config.recall_utility
    for t in range(config.horizon - 1, -1, -1):
        for cell in range(k - 1):
            z = float(grid[cell])
            mu, var = recall_posterior(t, z, config.drift_prior_mean,
                                       config.drift_prior_variance,
                                       config.evidence_variance)
            sigma = math.sqrt(config.evidence_variance + var)
            probs = np.zeros(k)
            prev = 0.0
            for j, edge in enumerate(edges):
                cdf = 0.5 * (1.0 + math.erf((edge - (z + mu)) / sigma / math.sqrt(2.0)))
                probs[j] = cdf - prev
                prev = cdf
            probs[-1] = 1.0 - prev
            q_search = -config.search_cost + float(probs @ values[t + 1])
            if q_search > 0.0:
                values[t, cell] = q_search
                actions[t, cell] = 1
    return values, actions


def fence_configs():
    """Seeded configs: default grids, a given z_min, and 2 to 61 given cells."""
    rng = np.random.default_rng(404)
    cells = [None, None, None, None, None, None, 2, 3, 4, 6, 9, 13, 17, 24, 31,
             38, 45, 52, 57, 61]
    for i, k in enumerate(cells):
        theta = float(rng.uniform(0.5, 3.0))
        params = dict(drift_prior_mean=float(rng.uniform(-0.5, 0.8)),
                      drift_prior_variance=float(rng.uniform(0.05, 2.0)),
                      evidence_variance=float(rng.uniform(0.2, 2.0)),
                      recall_threshold=theta,
                      recall_utility=float(rng.uniform(0.5, 10.0)),
                      search_cost=float(rng.uniform(0.0, 0.3)),
                      horizon=int(rng.integers(1, 31)))
        span = float(rng.uniform(0.5, 4.0))
        if k is not None:
            params.update(z_min=theta - span, z_step=span / (k - 1))
        elif i % 2:
            params.update(z_min=theta - span)
        yield RecallMdpConfig(**params)


FENCE_CONFIGS = list(fence_configs())


@pytest.mark.parametrize("config", FENCE_CONFIGS,
                         ids=[f"{i}:{c.grid().size}cells-h{c.horizon}"
                              for i, c in enumerate(FENCE_CONFIGS)])
def test_solver_matches_per_cell_reference_bit_for_bit(config):
    values, actions = reference_solve(config)
    table = solve_recall_mdp(config)
    assert np.array_equal(table.values, values)
    assert np.array_equal(table.actions, actions)
    grid = config.grid()
    expected = {t: float(grid[row.argmax()]) if row.any() else None
                for t, row in enumerate(actions)}
    assert stopping_threshold(table) == expected


@pytest.mark.parametrize("config", FENCE_CONFIGS[::4],
                         ids=[f"{c.grid().size}cells" for c in FENCE_CONFIGS[::4]])
def test_transition_rows_equal_the_scalar_calls(config):
    grid = config.grid()
    for t in (0, config.horizon - 1):
        rows = recall_transition(t, grid[:-1], config)
        assert rows.shape == (grid.size - 1, grid.size)
        for cell, row in enumerate(rows):
            assert np.array_equal(row, recall_transition(t, float(grid[cell]), config))


def count_transition_calls(monkeypatch, config):
    """Steps of each ``recall_transition`` call one solve makes."""
    import mgv.recall
    calls = []

    def counting(t, z, config):
        calls.append(np.asarray(t).tolist())
        return recall_transition(t, z, config)

    monkeypatch.setattr(mgv.recall, "recall_transition", counting)
    solve_recall_mdp(config)
    return calls


def test_solver_builds_one_transition_call_per_block(monkeypatch):
    # 5 and 16 cells: every step fits in one block of BLOCK_MASSES masses.
    assert count_transition_calls(monkeypatch, small_config(horizon=7)) == [[6, 5, 4, 3, 2, 1, 0]]
    sweep = small_config(horizon=8, z_min=-2.75, z_step=0.25)
    assert sweep.grid().size == 16
    assert count_transition_calls(monkeypatch, sweep) == [list(range(7, -1, -1))]
    # 41 cells (1 640 masses a step): two steps a block, the last one alone.
    wide = small_config(horizon=5, z_min=-1.0, z_step=0.05)
    assert wide.grid().size == 41
    assert count_transition_calls(monkeypatch, wide) == [[4, 3], [2, 1], [0]]
    # The 1001-cell limit: one step a block, as a per-step loop.
    limit = small_config(horizon=3, z_min=-1.0, z_step=0.002)
    assert limit.grid().size == MAX_GRID_CELLS
    assert count_transition_calls(monkeypatch, limit) == [[2], [1], [0]]


def flat_transition(t, z, config):
    """``recall_transition`` with ``math.erf`` fed from ``x.flat``."""
    z = np.asarray(z, dtype=float)
    mu, var = recall_posterior(t, z, config.drift_prior_mean,
                               config.drift_prior_variance, config.evidence_variance)
    sigma = math.sqrt(config.evidence_variance + var)
    grid = config.grid()
    edges = (grid[:-1] + grid[1:]) / 2.0
    edges[-1] = config.recall_threshold
    x = (edges - (z + mu)[..., None]) / sigma / math.sqrt(2.0)
    erf = np.fromiter(map(math.erf, x.flat), float, x.size).reshape(x.shape)
    return np.diff(0.5 * (1.0 + erf), prepend=0.0, append=1.0)


def per_row_solve(config):
    """Backward induction with one Python-level dot product per transition
    row, each step's rows from ``flat_transition``."""
    grid = config.grid()
    k = grid.size
    values = np.zeros((config.horizon + 1, k))
    actions = np.zeros((config.horizon + 1, k - 1), dtype=np.int8)
    values[:, -1] = config.recall_utility
    for t in range(config.horizon - 1, -1, -1):
        rows = flat_transition(t, grid[:-1], config)
        q_search = -config.search_cost + np.array([row @ values[t + 1] for row in rows])
        search = q_search > 0.0
        values[t, :-1][search] = q_search[search]
        actions[t] = search
    return values, actions


def row_fence_configs():
    """Forty seeded configs of 2 to 300 cells, then one on the 1001-cell limit."""
    rng = np.random.default_rng(606)
    for k in [*(int(c) for c in rng.integers(2, 301, size=40)), 1001]:
        theta = float(rng.uniform(0.5, 3.0))
        span = float(rng.uniform(0.5, 4.0))
        yield RecallMdpConfig(drift_prior_mean=float(rng.uniform(-0.5, 0.8)),
                              drift_prior_variance=float(rng.uniform(0.05, 2.0)),
                              evidence_variance=float(rng.uniform(0.2, 2.0)),
                              recall_threshold=theta,
                              recall_utility=float(rng.uniform(0.5, 10.0)),
                              search_cost=float(rng.uniform(0.0, 0.3)),
                              horizon=2 if k == 1001 else int(rng.integers(1, 13)),
                              z_min=theta - span, z_step=span / (k - 1))


ROW_FENCE_CONFIGS = list(row_fence_configs())


@pytest.mark.parametrize("config", ROW_FENCE_CONFIGS,
                         ids=[f"{i}:{c.grid().size}cells-h{c.horizon}"
                              for i, c in enumerate(ROW_FENCE_CONFIGS)])
def test_batched_row_products_match_the_per_row_loop_bit_for_bit(config):
    values, actions = per_row_solve(config)
    table = solve_recall_mdp(config)
    assert table.values.tobytes() == values.tobytes()
    assert table.actions.tobytes() == actions.tobytes()
    grid = config.grid()
    for t in (0, config.horizon - 1):
        for z in (grid[:-1], float(grid[0]), float(grid[-2])):
            assert (recall_transition(t, z, config).tobytes()
                    == flat_transition(t, z, config).tobytes())


@pytest.mark.parametrize("config", FENCE_CONFIGS[::4] + ROW_FENCE_CONFIGS[:40:8],
                         ids=lambda c: f"{c.grid().size}cells-h{c.horizon}")
def test_step_array_transitions_equal_the_scalar_calls(config):
    grid = config.grid()
    horizon = config.horizon
    for steps in (np.arange(horizon - 1, -1, -1), np.array([horizon, 0, horizon // 2])):
        for z in (grid[:-1], float(grid[0])):
            block = recall_transition(steps, z, config)
            assert block.shape == (steps.size, *np.shape(z), grid.size)
            for t, rows in zip(steps.tolist(), block):
                assert rows.tobytes() == recall_transition(t, z, config).tobytes()


def test_step_array_posterior_gives_each_step_the_scalar_belief():
    z = np.linspace(-1.0, 0.9, 7)
    steps = np.array([3, 0, 1])
    means, variances = recall_posterior(steps[:, None], z, 0.2, 0.5, 1.5)
    for t, mean, variance in zip(steps.tolist(), means, variances):
        scalar_mean, scalar_variance = recall_posterior(t, z, 0.2, 0.5, 1.5)
        assert np.broadcast_to(scalar_mean, z.shape).tobytes() == mean.tobytes()
        assert float(variance[0]) == scalar_variance
    with pytest.raises(ValueError):
        recall_posterior(np.array([[2], [-1]]), z, 0.2, 0.5, 1.5)


def test_scalar_calls_are_the_step_array_rows_and_step_0_is_the_prior():
    """A scalar step takes the step-array path: its belief and its rows are
    that step's entry of an array call bit for bit, and at step 0 the belief
    is the prior exactly."""
    config = small_config(horizon=5)
    prior = (config.drift_prior_mean, config.drift_prior_variance)
    grid = config.grid()
    steps = np.arange(config.horizon + 1)
    for z in (grid[:-1], float(grid[0]), float(grid[-2])):
        column = steps.reshape(steps.shape + (1,) * np.ndim(z))
        means, variances = recall_posterior(column, z, *prior, config.evidence_variance)
        block = recall_transition(steps, z, config)
        for t in steps.tolist():
            mean, variance = recall_posterior(t, z, *prior, config.evidence_variance)
            assert np.shape(mean) == np.shape(z) and np.shape(variance) == ()
            assert np.asarray(mean).tobytes() == means[t].tobytes()
            assert np.broadcast_to(variance, np.shape(z)).tobytes() == (
                np.broadcast_to(variances[t], np.shape(z)).tobytes())
            if t == 0:
                assert np.all(mean == prior[0]) and variance == prior[1]
            assert recall_transition(t, z, config).tobytes() == block[t].tobytes()


def masked_simulate(policy, config, drift, episodes, rng, start=0.0):
    """``simulate_recall`` over full-size masks of every episode, one pass
    per step."""
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
    return recalled, steps


@pytest.mark.parametrize("config", FENCE_CONFIGS[::2],
                         ids=lambda c: f"{c.grid().size}cells-h{c.horizon}")
def test_compacted_simulation_matches_the_masked_loop(config):
    policy = solve_recall_mdp(config)
    theta = config.recall_threshold
    for i, (drift, episodes, start) in enumerate([
            (0.3, 30, 0.0), (-0.4, 200, 0.0), (1.5, 57, config.z_min),
            (0.0, 1, theta), (0.2, 40, theta - 1e-9), (-50.0, 25, -1e3)]):
        ours, theirs = np.random.default_rng(i), np.random.default_rng(i)
        result = simulate_recall(policy, config, drift, episodes, ours, start=start)
        recalled, steps = masked_simulate(policy, config, drift, episodes, theirs, start=start)
        assert result.recalled.tobytes() == recalled.tobytes()
        assert result.steps.tobytes() == steps.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


# --- numerical guards on fine grids -------------------------------------------

def fine_grid_configs():
    """Seeded horizon-3 configs on grids of 101 up to the 1001-cell limit."""
    rng = np.random.default_rng(505)
    for k in (101, 251, 501, 751, 1001):
        theta = float(rng.uniform(0.5, 3.0))
        span = float(rng.uniform(0.5, 4.0))
        yield RecallMdpConfig(drift_prior_mean=float(rng.uniform(-0.5, 0.8)),
                              drift_prior_variance=float(rng.uniform(0.05, 2.0)),
                              evidence_variance=float(rng.uniform(0.2, 2.0)),
                              recall_threshold=theta,
                              recall_utility=float(rng.uniform(0.5, 10.0)),
                              search_cost=float(rng.uniform(0.0, 0.3)),
                              horizon=3, z_min=theta - span, z_step=span / (k - 1))


@pytest.mark.parametrize("config", list(fine_grid_configs()),
                         ids=lambda c: f"{c.grid().size}cells")
def test_fine_grids_keep_stochastic_rows_and_a_monotone_policy(config):
    grid = config.grid()
    for t in range(config.horizon):
        rows = recall_transition(t, grid[:-1], config)
        assert (rows >= 0).all()
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    stopping_threshold(solve_recall_mdp(config))  # raises NonMonotonePolicy if not
