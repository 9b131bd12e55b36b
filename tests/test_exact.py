"""Exact linear algebra against the references it replaced.

``exact.rref`` eliminates on integer rows in Bareiss's scheme and builds
Fractions only for the rows it returns.  The reference below is the plain
Gauss-Jordan elimination over ``Fraction`` that it replaced; the reduced row
echelon form of a matrix is unique, so both must return the same rows and
pivots on every input.

The Smith normal form's transforms U and V are not unique, and the numeric
end-curve solve reads them, so ``smith_normal_form`` must return the very
(U, S, V) of the straightforward reduction it replaced, kept below as
``_smith_reference``.
"""

import random
from fractions import Fraction

import pytest

from splicefan.exact import kernel_basis, nullspace_one, rref, smith_normal_form

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


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _smith_reference(matrix):
    """Smallest-pivot Smith reduction: every pivot search lists all nonzero
    entries as (abs, i, j) and takes the least, and every row and column
    operation runs over the whole of A, U and V."""
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    for t in range(min(m, n)):
        while True:
            entries = [
                (abs(a[i][j]), i, j)
                for i in range(t, m)
                for j in range(t, n)
                if a[i][j] != 0
            ]
            if not entries:
                break
            _, pi, pj = min(entries)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            pivot = a[t][t]
            progress = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    addmul_row(i, t, -(a[i][t] // pivot))
                    progress = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    addmul_col(j, t, -(a[t][j] // pivot))
                    progress = True
            if progress:
                continue
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if a[i][j] % pivot != 0
                ),
                None,
            )
            if offender is None:
                break
            addmul_row(t, offender[0], 1)
        if t < min(m, n) and a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return u, a, v


def _seeded_integer_matrices(count, seed):
    """Integer matrices of 1 to 8 rows and columns, square, wide and tall,
    with negative entries, repeated magnitudes (pivot ties), zero rows and
    columns, and rows that are combinations of others."""
    rng = random.Random(seed)
    for _ in range(count):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        span = rng.choice((1, 3, 9, 60, 10**6))
        rows = [
            [0 if rng.random() < 0.35 else rng.randint(-span, span) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        if rng.random() < 0.25:
            zero = rng.randrange(n_cols)
            for row in rows:
                row[zero] = 0
        if rng.random() < 0.25:
            rows[rng.randrange(n_rows)] = [0] * n_cols
        if n_rows > 2 and rng.random() < 0.4:
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        yield rows


def _rank(rows):
    return len(rref(rows)[1])


def test_smith_form_matches_the_reference_on_random_matrices():
    seen = {"wide": 0, "tall": 0, "square": 0, "deficient": 0, "zero row": 0,
            "zero column": 0, "negative": 0, "non-unit diagonal": 0}
    for rows in _seeded_integer_matrices(3000, 21):
        original = [list(row) for row in rows]
        got = smith_normal_form(rows)
        assert got == _smith_reference(rows), rows
        assert rows == original
        u, s, v = got
        n_rows, n_cols = len(rows), len(rows[0])
        seen["wide"] += n_cols > n_rows
        seen["tall"] += n_rows > n_cols
        seen["square"] += n_rows == n_cols
        seen["deficient"] += _rank(rows) < min(n_rows, n_cols)
        seen["zero row"] += any(not any(row) for row in rows)
        seen["zero column"] += any(not any(col) for col in zip(*rows))
        seen["negative"] += any(x < 0 for row in rows for x in row)
        seen["non-unit diagonal"] += any(s[i][i] > 1 for i in range(min(n_rows, n_cols)))
    assert min(seen.values()) >= 200, seen


@pytest.mark.parametrize("rows", [
    [],
    [[]],
    [[0]],
    [[-5]],
    [[0, 0], [0, 0]],
    [[2, 4], [6, 8]],
    [[-3, 3], [3, -3]],
    [[2**80 + 1, 3], [5, 2**70 - 7], [11, 13]],
    [(1, 2), (3, 4)],
])
def test_smith_form_edge_cases_match_the_reference(rows):
    assert smith_normal_form(rows) == _smith_reference(rows)


def test_smith_form_matches_the_reference_on_the_ladder(ladder_solves):
    for rows, _, _ in ladder_solves:
        assert smith_normal_form(rows) == _smith_reference(rows), rows
