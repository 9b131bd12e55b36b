"""Exact linear algebra: fraction-free elimination and Smith normal form.

Rational ranks, kernels and spans are read from one elimination, the
Bareiss ``rref``; the Smith normal form is the integer elimination of the
end-curve solve.  Everything works over Python ints and fractions.Fraction;
nothing ever rounds.  Matrices are lists/tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def gcd_list(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def lcm_list(values) -> int:
    out = 1
    for v in values:
        v = abs(v)
        if v == 0:
            return 0
        out = out * v // gcd(out, v)
    return out


def primitive(vector):
    """Divide an integer vector by the gcd of its entries (gcd 0 -> error)."""
    g = gcd_list(vector)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(v // g for v in vector)


def dot(w, m):
    return sum(wi * mi for wi, mi in zip(w, m))


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------

def _integer_row(row):
    """The row times the lcm of its denominators: integers, same row space."""
    if all(type(x) is int for x in row):
        return list(row)
    row = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def rref(rows):
    """Reduced row echelon form of a rational matrix.  Returns (rref rows,
    pivot cols), the rows as lists of Fractions.

    Fraction-free (Bareiss) Gauss-Jordan: each row is scaled once to
    integers, and each step replaces every other row by
    (pivot * row - row[c] * pivot row) / previous pivot, a division that is
    exact because every entry is a minor of the scaled matrix.  Afterwards
    every pivot equals the last one, which divides the returned rows.
    """
    mat = [_integer_row(row) for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[c]
        for i in range(n_rows):
            if i != r:
                f = mat[i][c]
                mat[i] = [(p * x - f * y) // prev for x, y in zip(mat[i], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [[Fraction(x, prev) for x in row] for row in mat[:r]], pivots


def kernel_basis(rows, width: int):
    """A basis of {x : rows @ x = 0} for a rational matrix of ``width``
    columns: one vector per free column of the rref, in column order, with
    1 at that column and 0 at the other free ones."""
    reduced, pivots = rref(rows)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(tuple(vec))
    return tuple(basis)


def nullspace_one(rows, width: int):
    """A nonzero kernel vector of a rank-(width-1) rational matrix.

    The caller guarantees the rows are independent and number width-1;
    with no rows at all the first unit vector is returned.
    """
    basis = kernel_basis(rows, width)
    if len(basis) != 1:
        raise ValueError("expected a one-dimensional kernel")
    return basis[0]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """Smith normal form S = U A V with U, V unimodular.

    Returns (U, S, V) as lists of rows; the diagonal of S is non-negative
    with each entry dividing the next.  Classic smallest-pivot reduction:
    the pivot magnitude strictly drops whenever a division is inexact, so
    the loop terminates.
    """
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
            # pivot clears its row and column; fold in any entry it does not
            # divide, which will shrink the pivot on the next sweep
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
