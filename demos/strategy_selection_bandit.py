"""Strategy selection as a value-of-computation bandit.

Three strategies differ in payoff and in how long they take.  The agent keeps
a Bayesian linear model of each strategy's utility and duration, samples from
those posteriors (Thompson sampling), and picks the strategy whose sampled
value of computation -- utility minus opportunity-cost-weighted time -- is
highest.  The opportunity cost gamma is just average reward per unit time so
far, so "slow but decent" loses its shine as the agent gets better overall.
"""

import numpy as np

from mgv import BanditState, StationaryBanditEnvironment, run_bandit_episodes

# arm 0: strong and fast.  arm 1: strong but slow.  arm 2: weak filler.
env = StationaryBanditEnvironment(utilities=[0.9, 0.8, 0.2],
                                  times=[1.0, 3.0, 1.0],
                                  reward_noise=0.15)
state = BanditState(num_strategies=3, feature_dim=1)
records = run_bandit_episodes(env, state, episodes=600,
                              rng=np.random.default_rng(3))

print(f"{'episodes':>8}  {'gamma':>6}  {'pulls':>15}  {'regret':>8}")
pulls = [0, 0, 0]
regret = 0.0
for i, r in enumerate(records, start=1):
    pulls[r["chosen"]] += 1
    regret += r["true_voc_best"] - r["true_voc_chosen"]
    if i % 100 == 0:
        print(f"{i:>8}  {r['gamma']:>6.3f}  {str(pulls):>15}  {regret:>8.2f}")

# With gamma ~= 0.8/unit-time, arm 1's 3-unit duration costs ~2.4 of value:
# the agent learns to leave it alone even though its raw payoff is high.
# state.means is indexed [arm, k, feature]: k = 0 is utility, 1 is time.
print("\nposterior utility means:",
      [round(float(m), 3) for m in state.means[:, 0, 0]])
print("posterior time means:   ",
      [round(float(m), 3) for m in state.means[:, 1, 0]])
print("final gamma:            ", round(state.gamma, 3))
best = max(range(3), key=lambda a: env.true_voc(a, np.ones(1), state.gamma))
print(f"best arm under final gamma: {best} "
      f"(chosen {pulls[best]}/{len(records)} times)")
