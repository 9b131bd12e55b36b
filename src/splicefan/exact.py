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


def _smallest_entry(a, t):
    """(i, j) of the nonzero entry of a[t:][t:] smallest in absolute value,
    the first in row-major order among equals; None when all are zero."""
    best, at = 0, None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            x = row[j]
            if x:
                if x < 0:
                    x = -x
                if x < best or not best:
                    if x == 1:
                        return i, j
                    best, at = x, (i, j)
    return at


def smith_normal_form(matrix):
    """Smith normal form S = U A V with U, V unimodular.

    Returns (U, S, V) as lists of rows; the diagonal of S is non-negative
    with each entry dividing the next.  Classic smallest-pivot reduction:
    the pivot magnitude strictly drops whenever a division is inexact, so
    the loop terminates.  V is kept as a list of columns while reducing,
    and a column swap or operation at step t touches only rows t and below
    of A, the rows above being zero off the diagonal.
    """
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    vt = _identity(n)  # columns of V
    for t in range(min(m, n)):
        while True:
            at = _smallest_entry(a, t)
            if at is None:
                break
            pi, pj = at
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for i in range(t, m):
                    row = a[i]
                    row[t], row[pj] = row[pj], row[t]
                vt[t], vt[pj] = vt[pj], vt[t]
            top, u_top = a[t], u[t]
            pivot = top[t]
            progress = False
            for i in range(t + 1, m):
                if a[i][t]:
                    f = -(a[i][t] // pivot)
                    a[i] = [x + f * y for x, y in zip(a[i], top)]
                    u[i] = [x + f * y for x, y in zip(u[i], u_top)]
                    progress = True
            # every column operation adds a multiple of column t, which none
            # of them changes: read all factors first, then add row by row
            factors = [(j, -(top[j] // pivot)) for j in range(t + 1, n) if top[j]]
            if factors:
                progress = True
                v_t = vt[t]
                for j, f in factors:
                    vt[j] = [x + f * y for x, y in zip(vt[j], v_t)]
                for i in range(t, m):
                    row = a[i]
                    x = row[t]
                    if x:
                        for j, f in factors:
                            row[j] += f * x
            if progress:
                continue
            # pivot clears its row and column; fold in any entry it does not
            # divide, which will shrink the pivot on the next sweep
            offender = next(
                (
                    i
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if a[i][j] % pivot != 0
                ),
                None,
            )
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(top, a[offender])]
            u[t] = [x + y for x, y in zip(u_top, u[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return u, a, [list(row) for row in zip(*vt)]
