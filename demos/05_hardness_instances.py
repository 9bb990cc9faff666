"""Tree pairs encoding 3-dimensional matching instances.

Each triple of a 3-bounded 1-common 3DM instance becomes a 3-cycle in
the movements graph of a generated tree pair: solving a cycle with one
3-label permutation costs 3, dismantling it with moves alone costs 6, so
a matching of n of the m triples bounds the distance by 3n + 6(m - n).
Only that direction holds: cycles that mix triples can do better than
the maximum matching.  These pairs make good stress instances precisely
because permutations pay off on them.
"""

import treemoves as tm

instance = tm.parse_instance(
    """a a'
b
c c'
a b c
a' b c'
"""
)
print("triples:", ", ".join("(" + ", ".join(t) + ")" for t in instance.triples))

t1, t2 = tm.build_reduction(instance)
print("tree 1:", tm.serialize_tree(t1))
print("tree 2:", tm.serialize_tree(t2))
print("labels per tree:", len(t1), "(two gadget leaves per triple element)")
print()

graph = tm.movements_graph(t1, t2)
print("movements graph edges (one 3-cycle per triple, sharing vertex b):")
for u, w in sorted(graph.edges):
    print(f"  {u} -> {w}")
print()

n = tm.max_matching_bruteforce(instance)
bound = tm.reduction_bound(instance.m, n)
print(f"maximum matching: {n} of {instance.m} triples  ->  bound {bound}")

# Solve the matched triple's cycle with a single 3-cycle permutation,
# then clean up the remaining cycle with six moves.
a, b, c = instance.triples[0]
pi = tm.Permutation({a: b, b: c, c: a})
mid = tm.apply_permutation(t1, pi)
witness = tm.OperationSequence((pi, *tm.linkcut_script(mid, t2).ops))
print("witness size:", tm.sequence_size(witness), "| verifies:",
      tm.verify_sequence(t1, witness, t2))

# Moves alone pay 6 per triple instead.
print("moves-only cost:", tm.linkcut_distance(t1, t2))
