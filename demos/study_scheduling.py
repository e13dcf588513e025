"""Study scheduling: spend effort where learning feels hardest, stop per item
once its judgement of learning clears the norm of study.

Five items of graded difficulty share a fixed per-cycle budget.  Allocation is
inverse to each item's momentary ease signal, so hard items soak up budget.
An item leaves the study set the first time its post-study judgement reaches
the norm (the target performance inflated by anticipated forgetting), and the
set only ever shrinks.  Afterwards the run's records are consolidated into the
knowledge store, the feedback step a later run would start from.
"""

import numpy as np

from mgv import (AcquisitionConfig, KnowledgeStore, LearnItem,
                 compute_norm_of_study, consolidate, run_acquisition)

rng = np.random.default_rng(11)

target, discount = 0.75, 0.1
print(f"norm of study = {target} + {target}*{discount} "
      f"= {compute_norm_of_study(target, discount)}")

items = [LearnItem(id=j, latent_difficulty=d)
         for j, d in enumerate((0.15, 0.3, 0.5, 0.7, 0.85))]
config = AcquisitionConfig(target_performance=target, retention_discount=discount,
                           total_resources_per_cycle=3.0, items=items,
                           max_cycles=40, jol_noise_sigma=0.02)

store = KnowledgeStore(encoding_rate=0.8)
state, trace = run_acquisition(config, store, rng)

# Rebuild the per-cycle picture from the trace: each record is one item's
# study event, with the allocation in `resources` and the JOL in the
# experience vector's secondary slot.
print(f"\nfinished={state.finished} after {state.cycle} cycles")
print(f"{'cycle':>5}  {'active set':<18} {'allocations (item: share)'}")
by_cycle: dict[int, list] = {}
for record in trace:
    by_cycle.setdefault(record.cycle, []).append(record)
for cycle, active in enumerate(state.active_history[:-1]):
    records = by_cycle.get(cycle, [])
    shares = "  ".join(
        f"{item_id}: {r.resources:.2f}"
        for item_id, r in zip(sorted(active), records))
    print(f"{cycle:>5}  {str(sorted(active)):<18} {shares}")

print("\nfinal judgements of learning (all cleared the norm):")
for item_id in sorted(state.jols):
    print(f"  item {item_id}: jol={state.jols[item_id]:.3f} "
          f"mastery={state.mastery[item_id]:.3f}")

# Hard items took the most cycles and the biggest total share.
totals: dict[int, float] = {}
for cycle, records in by_cycle.items():
    for item_id, r in zip(sorted(state.active_history[cycle]), records):
        totals[item_id] = totals.get(item_id, 0.0) + r.resources
print("\ntotal budget per item (difficulty order):")
for item in items:
    print(f"  item {item.id} (d={item.latent_difficulty}): "
          f"{totals.get(item.id, 0.0):.2f}")

# Feedback: each study record survives into long-term knowledge with
# probability encoding_rate, on the run's own generator.
encoded = consolidate(store, trace, rng)
print(f"\nconsolidated {encoded} of {len(trace)} study records; "
      f"long-term store now holds {len(store.ltm)} items")
