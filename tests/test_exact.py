"""Fraction-free elimination against the rational reference it replaced.

``exact.rref`` eliminates on integer rows in Bareiss's scheme and builds
Fractions only for the rows it returns.  The reference below is the plain
Gauss-Jordan elimination over ``Fraction`` that it replaced; the reduced row
echelon form of a matrix is unique, so both must return the same rows and
pivots on every input.
"""

import random
from fractions import Fraction

import pytest

from splicefan.exact import kernel_basis, nullspace_one, rref

F = Fraction


def fraction_rref(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(n_rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return mat[:r], pivots


def _entry(rng, rational):
    if rng.random() < 0.3:
        return 0
    if rational:
        return F(rng.randint(-30, 30), rng.randint(1, 12))
    return rng.randint(-9, 9)


def _seeded_matrices(count, seed):
    """Integer and rational matrices, square, wide and tall, with zero rows
    and columns and rows repeated as combinations of others."""
    rng = random.Random(seed)
    for _ in range(count):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        rational = rng.random() < 0.5
        rows = [[_entry(rng, rational) for _ in range(n_cols)] for _ in range(n_rows)]
        if rng.random() < 0.3:
            zero = rng.randrange(n_cols)
            for row in rows:
                row[zero] = 0
        if rng.random() < 0.3:
            rows[rng.randrange(n_rows)] = [0] * n_cols
        if n_rows > 2 and rng.random() < 0.4:
            a, b = rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 4))
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        yield rows


def test_rref_matches_the_rational_reference():
    seen = {"wide": 0, "tall": 0, "deficient": 0, "rational": 0}
    for rows in _seeded_matrices(2000, 5):
        reduced, pivots = rref(rows)
        expected_rows, expected_pivots = fraction_rref(rows)
        assert (reduced, pivots) == (expected_rows, expected_pivots), rows
        assert all(type(x) is Fraction for row in reduced for x in row)
        n_rows, n_cols = len(rows), len(rows[0])
        seen["wide"] += n_cols > n_rows
        seen["tall"] += n_rows > n_cols
        seen["deficient"] += len(pivots) < min(n_rows, n_cols)
        seen["rational"] += any(isinstance(x, Fraction) for row in rows for x in row)
    assert min(seen.values()) >= 200, seen


@pytest.mark.parametrize("rows", [
    [],
    [[]],
    [[0, 0], [0, 0]],
    [[0, 3, 6], [0, 1, 2]],
    [[F(1, 2), F(1, 3)], [F(-1, 4), F(-1, 6)]],
    [[2**80 + 1, 3], [5, 2**70 - 7], [11, 13]],
    [(1, 2), (3, 4)],
])
def test_rref_edge_cases_match_the_reference(rows):
    assert rref(rows) == fraction_rref(rows)


def test_kernel_readers_match_the_reference():
    for rows in _seeded_matrices(500, 8):
        width = len(rows[0])
        reduced, pivots = fraction_rref(rows)
        expected = []
        for free in (c for c in range(width) if c not in pivots):
            vec = [F(0)] * width
            vec[free] = F(1)
            for row, p in zip(reduced, pivots):
                vec[p] = -row[free]
            expected.append(tuple(vec))
        assert kernel_basis(rows, width) == tuple(expected)
        if len(expected) == 1:
            assert nullspace_one(rows, width) == expected[0]
