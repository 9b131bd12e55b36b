"""Splice type polynomial systems and weighted initial forms.

The system attached to a diagram has, for every node v of valency d, a
family of d-2 lattice polynomials: each is a coefficient row applied to the
admissible monomials of v's incident edges, optionally perturbed by a
higher-weight polynomial tail.  Coefficients are exact rationals and every
predicate here is decided exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property

from .diagram import SpliceDiagram, _below, admissible_edge, check_conditions
from .errors import ConditionViolation, HammViolation, TailViolation
from .exact import dot, kernel_basis, nullspace_one
from .record import Record

INF = math.inf


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def _term_order(term):
    exponent = term[0]
    return (sum(exponent), exponent)


_INTS = frozenset({int})


class Polynomial:
    """Finite sum of rational-coefficient monomials in the leaf variables.

    Terms are kept in graded-lex order on the exponent tuples (leaf order),
    with no zero coefficients and no duplicate exponents, so equal
    polynomials compare and hash equal.  An exponent that is already a
    tuple of ints, as every term of another polynomial is, is kept as it
    is; any other is rebuilt as one.  Only a merge of terms (the
    constructor, ``+`` and ``*``) sorts; an operation that keeps or drops
    terms of one polynomial, or scales them by a nonzero factor, leaves
    them in order and wraps them with :meth:`_ordered`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exponent, coeff in items:
            if type(exponent) is not tuple or not _INTS.issuperset(map(type, exponent)):
                exponent = tuple(int(e) for e in exponent)
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if exponent in acc:
                coeff += acc[exponent]
            if coeff:
                acc[exponent] = coeff
            else:
                acc.pop(exponent, None)
        self.terms = tuple(sorted(acc.items(), key=_term_order))

    @classmethod
    def _ordered(cls, terms):
        """A polynomial of terms that are already normalised and in order."""
        out = cls.__new__(cls)
        out.terms = tuple(terms)
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, exponent, coeff=1):
        return cls([(tuple(exponent), coeff)])

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        return Polynomial(list(self.terms) + list(other.terms))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    m = tuple(a + b for a, b in zip(m1, m2))
                    out[m] = out.get(m, 0) + c1 * c2
            return Polynomial(out)
        return self.scale(other)

    __rmul__ = __mul__

    def drop(self, exponent) -> "Polynomial":
        """This polynomial without its term at ``exponent``."""
        return Polynomial._ordered(t for t in self.terms if t[0] != exponent)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return Polynomial.zero()
        return Polynomial._ordered((m, c * scalar) for m, c in self.terms)

    def support(self):
        return [m for m, _ in self.terms]

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def weight(self, w):
        """min over terms of w . m; infinity for the zero polynomial."""
        if not self.terms:
            return INF
        return min(dot(w, m) for m, _ in self.terms)

    def initial_form(self, w) -> "Polynomial":
        """Sum of the terms of minimal w-weight."""
        if not self.terms:
            return Polynomial.zero()
        weights = [dot(w, m) for m, _ in self.terms]
        lo = min(weights)
        return Polynomial._ordered(t for t, wt in zip(self.terms, weights) if wt == lo)

    def truncate(self, kill_indices) -> "Polynomial":
        """Drop every term with a positive exponent at some killed coordinate."""
        kill = set(kill_indices)
        return Polynomial._ordered(
            t for t in self.terms if all(t[0][i] == 0 for i in kill)
        )

    def evaluate(self, point):
        total = 0
        for m, c in self.terms:
            prod = c if isinstance(point[0], Fraction) or isinstance(point[0], int) else complex(c)
            for p, e in zip(point, m):
                if e:
                    prod = prod * p ** e
            total = total + prod
        return total

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for m, c in self.terms:
            mono = "*".join(
                f"z{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m) if e
            ) or "1"
            bits.append(f"{c}*{mono}")
        return "Polynomial(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# Coefficient matrices and the Hamm condition
# ---------------------------------------------------------------------------

class CoefficientMatrix(Record):
    """Rows indexed by the node's star (canonical order), one column per equation."""

    node: str
    rows: tuple

    @property
    def n_edges(self):
        return len(self.rows)

    @property
    def n_equations(self):
        return len(self.rows[0]) if self.rows else 0

    @cached_property
    def kernel(self):
        """``exact.kernel_basis`` of the transposed matrix: a basis of the
        values {y : sum_j y_j * rows[j] = 0} of the star monomials.  Computed
        once, on first read, and once per valency for the shared Vandermonde
        rows of ``default_coefficients``; under Hamm it spans a plane."""
        rows = self.rows
        if rows is _vandermonde_rows(len(rows)):
            return _vandermonde_kernel(len(rows))
        return _transposed_kernel(rows)

    @cached_property
    def hamm(self):
        """The Hamm verdict of :func:`check_hamm`, which checks the shape
        before the first read.  Decided once, like ``kernel``, and once per
        valency for the shared Vandermonde rows."""
        rows = self.rows
        if rows is _vandermonde_rows(len(rows)):
            return _vandermonde_hamm(len(rows))
        return _plane_in_general_position(self.kernel)

    def plane_minor(self, p, q):
        """The kernel plane's 2x2 minor at star positions p and q."""
        a, b = self.kernel
        return a[p] * b[q] - a[q] * b[p]


def check_hamm(matrix: CoefficientMatrix) -> bool:
    """All maximal minors (choose n_equations rows) must be nonzero.

    By Pluecker duality the minor without rows p and q is, up to sign and one
    common nonzero factor, the kernel plane's 2x2 minor at (p, q); a kernel
    larger than a plane means every maximal minor vanishes.  A matrix of the
    wrong shape raises ``ValueError`` before any elimination; the verdict is
    kept on the matrix (``CoefficientMatrix.hamm``).
    """
    k = matrix.n_equations
    if k < 1 or matrix.n_edges != k + 2:
        raise ValueError("matrix must have shape (valency, valency - 2)")
    if any(len(r) != k for r in matrix.rows):
        raise ValueError("ragged coefficient matrix")
    return matrix.hamm


def _plane_in_general_position(kernel):
    """Whether the kernel is a plane with no zero 2x2 minor.

    Scaling star position p of both basis vectors by the product of their
    denominators there moves no minor off or onto zero, so each minor is
    compared as integers: a_p * b_q against a_q * b_p.
    """
    if len(kernel) != 2:
        return False
    a = [x.numerator * y.denominator for x, y in zip(*kernel)]
    b = [y.numerator * x.denominator for x, y in zip(*kernel)]
    return all(a[p] * b[q] != a[q] * b[p] for q in range(len(a)) for p in range(q))


def default_coefficients(diagram: SpliceDiagram, v) -> CoefficientMatrix:
    """Vandermonde rows (j^0, j^1, ...) for edge index j; every minor is a
    Vandermonde determinant of distinct positive integers, hence nonzero.
    Nodes of one valency share one rows tuple."""
    return CoefficientMatrix(node=v, rows=_vandermonde_rows(diagram.valency(v)))


@cache
def _vandermonde_rows(valency):
    return tuple(
        tuple(Fraction(j + 1) ** i for i in range(valency - 2))
        for j in range(valency)
    )


@cache
def _vandermonde_kernel(valency):
    return _transposed_kernel(_vandermonde_rows(valency))


@cache
def _vandermonde_hamm(valency):
    return _plane_in_general_position(_vandermonde_kernel(valency))


def _transposed_kernel(rows):
    width = len(rows[0]) if rows else 0
    return kernel_basis([[row[i] for row in rows] for i in range(width)], len(rows))


# the entries random_coefficients draws from, -9 to 9
_SMALL = tuple(Fraction(c) for c in range(-9, 10))


def random_coefficients(diagram: SpliceDiagram, v, rng) -> CoefficientMatrix:
    """Small random integer coefficients, redrawn until the Hamm check passes.

    ``rng`` is a ``random.Random``; each entry takes the draws of
    ``rng.randint(-9, 9)``, row by row.
    """
    valency = diagram.valency(v)
    getrandbits = rng.getrandbits
    while True:
        rows = tuple(
            tuple(_SMALL[_below(getrandbits, 19)] for _ in range(valency - 2))
            for _ in range(valency)
        )
        matrix = CoefficientMatrix(node=v, rows=rows)
        if check_hamm(matrix):
            return matrix


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------

class NodeBlock(Record):
    """Per-node data: star order, admissible exponents, coefficient matrix."""

    node: str
    star: tuple            # neighbour ids in canonical star order
    exponents: tuple       # admissible exponent tuple per incident edge
    matrix: CoefficientMatrix


class Equation(Record):
    node: str
    index: int             # 1-based within the node
    minimal: Polynomial
    tail: Polynomial

    @property
    def full(self) -> Polynomial:
        return self.minimal + self.tail if self.tail else self.minimal


class SpliceSystem:
    """A splice type system: n - 2 equations grouped by node."""

    def __init__(self, diagram: SpliceDiagram, blocks, equations):
        self.diagram = diagram
        self.blocks = dict(blocks)
        self.equations = tuple(equations)

    def equations_at(self, v):
        return [eq for eq in self.equations if eq.node == v]

    def polynomials(self):
        return [eq.full for eq in self.equations]

    def toward(self, v, x) -> int:
        """Star position at node v of the edge that starts the geodesic to x."""
        return self.blocks[v].star.index(self.diagram.first_step(v, x))

    def without_toward(self, eq, x) -> Polynomial:
        """The minimal part of eq with its admissible monomial toward x dropped."""
        return eq.minimal.drop(self.blocks[eq.node].exponents[self.toward(eq.node, x)])

    def __repr__(self):
        return f"SpliceSystem({len(self.equations)} equations on {self.diagram!r})"


def validate_tail(diagram: SpliceDiagram, v, tail: Polynomial) -> bool:
    """Every tail exponent must be non-negative, weigh strictly more than the
    node's own admissible value at v and strictly more than the linking
    number at every other node.  Each node's row is walked once."""
    if not tail:
        return True
    support = tail.support()
    wv = diagram.node_weight_vector(v)
    dv = diagram.total_weight(v)
    if any(min(m) < 0 or dot(wv, m) <= dv for m in support):
        return False
    for u in diagram.nodes:
        if u != v:
            row = diagram.linking_row(u)
            wu = tuple(row[leaf][0] for leaf in diagram.leaves)
            if any(dot(wu, m) <= row[v][0] for m in support):
                return False
    return True


def build_system(diagram: SpliceDiagram, coeffs=None, tails=None, coweights=None) -> SpliceSystem:
    """Assemble a splice type system from per-node coefficient matrices.

    coeffs: optional dict node -> CoefficientMatrix (default: Vandermonde).
    tails: optional dict (node, index) -> Polynomial.
    coweights: optional dict (node, neighbour) -> {leaf: int} overriding the
    lex-smallest semigroup decomposition; the override must be an admissible
    monomial toward that neighbour (:func:`diagram.admissible_edge`).
    """
    report = check_conditions(diagram)
    if not (report.edge_determinant and report.semigroup):
        raise ConditionViolation(f"diagram fails conditions: {report}")
    coeffs = coeffs or {}
    tails = tails or {}
    coweights = coweights or {}

    blocks = {}
    equations = []
    for v in diagram.nodes:
        star = diagram.neighbors(v)
        matrix = coeffs.get(v) or default_coefficients(diagram, v)
        if matrix.n_edges != len(star) or matrix.n_equations != len(star) - 2:
            raise HammViolation(f"coefficient matrix at {v!r} has the wrong shape")
        if not check_hamm(matrix):
            raise HammViolation(f"coefficient matrix at {v!r} has a zero maximal minor")
        exponents = []
        for u in star:
            override = coweights.get((v, u))
            if override is None:
                exponents.append(report.admissible[(v, u)].exponent(diagram.leaves))
                continue
            exponent = tuple(override.get(leaf, 0) for leaf in diagram.leaves)
            if not all(map(diagram.is_leaf, override)) or (
                admissible_edge(diagram, v, exponent) != u
            ):
                raise ConditionViolation(
                    f"override for ({v!r}, {u!r}) is not an admissible monomial toward {u!r}"
                )
            exponents.append(exponent)
        exponents = tuple(exponents)
        blocks[v] = NodeBlock(node=v, star=star, exponents=exponents, matrix=matrix)
        for i in range(len(star) - 2):
            minimal = Polynomial(
                [(exponents[j], matrix.rows[j][i]) for j in range(len(star))]
            )
            tail = tails.get((v, i + 1), Polynomial.zero())
            if not validate_tail(diagram, v, tail):
                raise TailViolation(f"tail for ({v!r}, {i + 1}) breaks the weight bounds")
            equations.append(Equation(node=v, index=i + 1, minimal=minimal, tail=tail))
    return SpliceSystem(diagram, blocks, equations)


def predicted_initial_form(system: SpliceSystem, v, i, u) -> Polynomial:
    """Initial form of equation (v, i) at a node weight vector: unchanged at
    the node itself, otherwise the admissible monomial toward u is dropped."""
    eq = next(e for e in system.equations if e.node == v and e.index == i)
    return eq.minimal if u == v else system.without_toward(eq, u)


def combination(system: SpliceSystem, v, y) -> Polynomial:
    """The linear combination sum(y_i * F_{v,i}) of the node's equations."""
    out = Polynomial.zero()
    for eq, c in zip(system.equations_at(v), y):
        out = out + eq.full.scale(c)
    return out


def node_certificate_combination(system: SpliceSystem, v, keep):
    """Coefficients y with supp(C @ y) inside ``keep`` (3 star positions).

    The Hamm condition makes the complementary rows independent, so the
    solution line is unique; it is normalised to 1 at keep[0] by the caller.
    """
    block = system.blocks[v]
    others = [j for j in range(len(block.star)) if j not in keep]
    rows = [block.matrix.rows[j] for j in others]
    return nullspace_one(rows, block.matrix.n_equations)
