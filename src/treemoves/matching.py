"""Minimum-weight perfect matching on dense bipartite graphs.

Successive shortest augmenting paths with vertex potentials, the classic
O(n^3) assignment algorithm.  Rows are inserted one at a time; each
insertion runs a dense Dijkstra over the columns using reduced costs
kept non-negative by the potentials.

The result is deterministic for a given row and column order; how ties
fall is described at :func:`min_cost_perfect_matching`.

Every row may be matched to every column: callers with forbidden pairs
split the problem into independent blocks in which all pairs are allowed.
"""

__all__ = ["min_cost_perfect_matching"]


def min_cost_perfect_matching(cost_rows):
    """Match each row to a distinct column minimizing total cost.

    Parameters
    ----------
    cost_rows: list of lists
        Square matrix of non-negative integer costs.

    Returns
    -------
    total: int
        Cost of the optimal matching.
    match: list
        ``match[i]`` is the column assigned to row ``i``.

    The matching is deterministic for a given row and column order: rows
    are inserted in index order and the column scan prefers lower
    indices.  Among matchings of equal cost, which one is returned depends
    on the augmenting paths: for ``[[1, 0], [1, 0]]`` row 0 takes column 1
    first and keeps it, so ``match`` is ``[1, 0]``, not ``[0, 1]``.
    """
    n = len(cost_rows)
    if n == 0:
        return 0, []

    # p[j] = row matched to column j; index 0 is a virtual column
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    inf = float("inf")
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = cost_rows[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    match = [0] * n
    total = 0
    for j in range(1, n + 1):
        match[p[j] - 1] = j - 1
        total += cost_rows[p[j] - 1][j - 1]
    return total, match

