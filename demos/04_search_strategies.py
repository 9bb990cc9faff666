"""Exact search, budgeted search and the binary-tree approximation.

The combined distance is NP-hard in general, so three strategies trade
scope for speed: exhaustive search on small label sets, a budgeted
search that prunes through the family partition, and a linear-time
4-approximation when one input tree is binary.
"""

import random

import treemoves as tm
from treemoves.generate import random_binary_tree

rng = random.Random(7)
labels = [f"m{i}" for i in range(1, 9)]
t1 = random_binary_tree(rng, 8, labels)
t2 = random_binary_tree(rng, 8, labels)

print("tree 1:", tm.serialize_tree(t1))
print("tree 2:", tm.serialize_tree(t2))
print()

exact = tm.brute_force_distance(t1, t2)
print("exhaustive oracle:", exact.distance)
print(tm.format_script(exact.witness))
print()

# The budgeted search answers "is the distance at most k?"  It refuses
# budgets that the family partition already rules out, without searching.
partition = len(tm.family_partition(t1, t2))
print(f"family partition has {partition} classes, so distance >= {-(-partition // 2)}")
for k in range(0, exact.distance + 1):
    outcome = tm.fpt_distance(t1, t2, k)
    if isinstance(outcome, tm.BudgetExceeded):
        note = "rejected by partition guard" if outcome.lower_bound > k else \
            f"searched, best found {outcome.best_found}"
        print(f"  k={k}: exceeds budget ({note})")
    else:
        print(f"  k={k}: distance {outcome.distance}, witness of size "
              f"{tm.sequence_size(outcome.witness)}")
print()

# Both trees are binary, so moves alone stay within a factor 4.
approx = tm.approx_binary(t1, t2)
print("approximation (moves only):", approx.distance)
print(f"guarantee: {approx.distance} <= 4 x {exact.distance}")
print("witness verifies:", tm.verify_sequence(t1, approx.witness, t2))
