import random

import numpy as np
from scipy.optimize import linear_sum_assignment

from treemoves.matching import min_cost_perfect_matching


def test_empty():
    assert min_cost_perfect_matching([]) == (0, [])


def test_known_matrix():
    total, match = min_cost_perfect_matching([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
    assert total == 5
    assert sorted(match) == [0, 1, 2]


def test_matches_scipy_on_random_matrices():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 9)
        matrix = [[rng.randint(0, 12) for _ in range(n)] for _ in range(n)]
        total, match = min_cost_perfect_matching(matrix)
        grid = np.array(matrix)
        rows, cols = linear_sum_assignment(grid)
        assert total == int(grid[rows, cols].sum())
        assert sorted(match) == list(range(n))


def test_large_instance_matches_scipy():
    rng = random.Random(44)
    n = 80
    matrix = [[rng.randint(0, 50) for _ in range(n)] for _ in range(n)]
    total, match = min_cost_perfect_matching(matrix)
    grid = np.array(matrix)
    rows, cols = linear_sum_assignment(grid)
    assert total == int(grid[rows, cols].sum())
    assert sorted(match) == list(range(n))