"""Inside the permutation distance: isomorphism and mismatch tables.

The cubic-time computation pairs subtrees top-down from the root pair,
memoising each pair it solves.  Canonical shape codes say which subtree
pairs are isomorphic at all; the cost table holds, for isomorphic pairs
only, the minimum number of label mismatches for each pair, found by
minimum-weight matchings between children and filled on demand for
pairs the root pair does not reach; the conserved labels of a pair are
the ones its optimal isomorphism keeps in place.
"""

import treemoves as tm

t1 = tm.parse_tree("((d,e,f)b,(g,h)c)a;")
t2 = tm.parse_tree("((b,e)d,(g,f,h)c)a;")

table = tm.mismatch_table(t1, t2)
rows, cols = sorted(t1.labels), sorted(t2.labels)

print("tree 1:", tm.serialize_tree(t1))
print("tree 2:", tm.serialize_tree(t2))
print()
print("subtree isomorphism (rows: tree 1, columns: tree 2):")
header = "      " + "  ".join(f"{v:>3}" for v in cols)
print(header)
for u in rows:
    cells = "  ".join(" + " if table.is_isomorphic(u, v) else " . " for v in cols)
    print(f"  {u:>3} {cells}")
print()

print("mismatch costs where defined:")
for u in rows:
    for v in cols:
        if table.is_isomorphic(u, v):
            conserved = sorted(table.conserved(u, v))
            print(f"  D({u}, {v}) = {table.mismatch_cost(u, v)}   conserved: {conserved}")
print()

root_cost = table.mismatch_cost(t1.root_child, t2.root_child)
print("distance (root entry):", root_cost)
pi = tm.optimal_permutation(t1, t2)
print("recovered permutation:", pi)
print("applies correctly:", tm.apply_permutation(t1, pi) == t2)
print("moved labels + conserved labels =",
      pi.size, "+", len(table.conserved("a", "a")), "=", len(t1))
