"""End-curves of rooted splice diagrams.

Rooting a diagram at a leaf r and deleting, in every equation, the
admissible monomial pointing toward r cuts out a curve in the remaining
coordinates.  Per node the surviving equations reduce to binomials, and the
curve is a union of torus-translates of one monomial curve whose exponents
are the linking numbers from the root divided by their gcd.
"""

from __future__ import annotations

import cmath
import threading
from fractions import Fraction
from math import inf

from .diagram import SpliceDiagram
from .errors import EliminationDegenerate, SolveFailed
from .exact import gcd_list, smith_normal_form
from .record import Record
from .system import Polynomial, SpliceSystem

NUMERIC_TOL = 1e-9

_numeric = threading.local()


class RootedDiagram(Record):
    diagram: SpliceDiagram
    root: str
    others: tuple  # non-root leaves, in declared leaf order

    def link(self, leaf) -> int:
        return self.diagram.linking_number(self.root, leaf)

    def links(self) -> tuple:
        return tuple(self.link(leaf) for leaf in self.others)


def root(diagram: SpliceDiagram, r) -> RootedDiagram:
    if not diagram.is_leaf(r):
        raise ValueError(f"{r!r} is not a leaf")
    others = tuple(l for l in diagram.leaves if l != r)
    return RootedDiagram(diagram=diagram, root=r, others=others)


class EndCurveSystem(Record):
    rooted: RootedDiagram
    system: SpliceSystem
    equations: tuple  # (node, index, Polynomial) with the root monomial removed


def end_curve_system(system: SpliceSystem, rooted: RootedDiagram) -> EndCurveSystem:
    """Drop, in each minimal equation, the admissible monomial toward the root."""
    equations = tuple(
        (eq.node, eq.index, system.without_toward(eq, rooted.root))
        for eq in system.equations
    )
    return EndCurveSystem(rooted=rooted, system=system, equations=equations)


# ---------------------------------------------------------------------------
# Binomial reduction
# ---------------------------------------------------------------------------

class Binomial(Record):
    """The relation z^lhs == const * z^rhs (const nonzero)."""

    node: str
    lhs: tuple
    rhs: tuple
    const: Fraction

    def polynomial(self) -> Polynomial:
        """Primitive-integer rendering q * z^lhs - p * z^rhs of const = p/q."""
        const = Fraction(self.const)
        return Polynomial([(self.lhs, const.denominator), (self.rhs, -const.numerator)])


class BinomialSystem(Record):
    rooted: RootedDiagram
    relations: tuple


def node_binomials(system: SpliceSystem, v, drop_position):
    """Eliminate node v's equations to two-monomial relations.

    ``drop_position`` indexes the star monomial that has been removed; the
    last surviving monomial in star order is the common reference.  The star
    monomials' values lie on the node's kernel plane
    (``CoefficientMatrix.kernel``), and those with the dropped value zero on
    its line a_p * b - b_p * a, whose entries are the plane's 2x2 minors at
    the dropped position, so every relation constant is a ratio of two of
    them.  Hamm guarantees a plane with no zero minor.
    """
    block = system.blocks[v]
    matrix = block.matrix
    surviving = [j for j in range(len(block.star)) if j != drop_position]
    line = None
    if len(matrix.kernel) == 2:
        line = [matrix.plane_minor(drop_position, j) for j in surviving]
    if line is None or not all(line):
        raise EliminationDegenerate(
            f"vanishing relation constant at node {v!r}; Hamm condition broken"
        )
    ref = surviving[-1]
    return [
        Binomial(
            node=v,
            lhs=block.exponents[j],
            rhs=block.exponents[ref],
            const=line[t] / line[-1],
        )
        for t, j in enumerate(surviving[:-1])
    ]


def binomial_reduce(ecs: EndCurveSystem) -> BinomialSystem:
    system = ecs.system
    relations = []
    for v in system.diagram.nodes:
        relations.extend(node_binomials(system, v, system.toward(v, ecs.rooted.root)))
    return BinomialSystem(rooted=ecs.rooted, relations=tuple(relations))


# ---------------------------------------------------------------------------
# Torus solutions of binomial systems
# ---------------------------------------------------------------------------

def _reduce_columns(mat, kernels):
    """Shrink each column of an integer matrix by integer kernel shifts.

    The shift is guessed in floating point; a column too large for a float
    guess raises SolveFailed.
    """
    width = len(mat)
    if not width:
        return
    n_cols = len(mat[0])
    for kernel in kernels:
        weight = sum(c * c for c in kernel)
        if weight == 0:
            continue
        for j in range(n_cols):
            try:
                guess = -round(sum(mat[k][j] * kernel[k] for k in range(width)) / weight)
            except OverflowError:
                raise SolveFailed("kernel shift too large for a floating-point guess") from None
            best, best_cost = 0, None
            for t in range(guess - 2, guess + 3):
                cost = sum(abs(mat[k][j] + t * kernel[k]) for k in range(width))
                if best_cost is None or cost < best_cost:
                    best, best_cost = t, cost
            if best:
                for k in range(width):
                    mat[k][j] += best * kernel[k]


def _mp_context():
    """This thread's own 60-digit mpmath context, made on its first numeric
    solve; the global ``mpmath.mp`` is never touched.  One per thread rather
    than one per solve: making a context costs about as much as a small
    solve."""
    ctx = getattr(_numeric, "ctx", None)
    if ctx is None:
        from mpmath import MPContext

        ctx = _numeric.ctx = MPContext()
        ctx.dps = 60
    return ctx


def solve_binomial_torus(rows, consts, width):
    """All components of {x in torus^width : x^row == const, row-wise}.

    Returns (solutions, exact): one solution per connected component, found
    through the Smith normal form; principal branch roots throughout, the
    finite component group enumerated by roots of unity.  ``exact`` is True
    when every solution is rational (stored as Fractions).

    Representatives are normalised along the kernel of the exponent matrix
    (integrally in the exact case, by log-centering in the numeric one) so
    coefficients stay small.
    """
    if not rows:
        return [tuple(Fraction(1) for _ in range(width))], True
    u, s, v = smith_normal_form([list(r) for r in rows])
    n_rows = len(rows)
    diag = [s[i][i] for i in range(min(n_rows, width))]
    rank = sum(1 for d in diag if d != 0)
    kappa = [Fraction(c) for c in consts]
    if any(c == 0 for c in kappa):
        raise SolveFailed("zero constant in a binomial relation")
    logk = [cmath.log(complex(c)) for c in kappa]
    for i in range(rank, n_rows):
        if abs(sum(u[i][j] * logk[j] for j in range(n_rows))) > 1e-6:
            raise SolveFailed("inconsistent binomial system")
    kernels = [[v[k][j] for k in range(width)] for j in range(rank, width)]

    if all(d == 1 for d in diag[:rank]):
        # x_k = prod_j kappa_j^(M[k][j]) with M = E . U; reduce M's columns
        # along the kernel before taking any powers
        m = [
            [
                sum(v[k][i] * u[i][j] for i in range(rank))
                for j in range(n_rows)
            ]
            for k in range(width)
        ]
        _reduce_columns(m, kernels)
        kappa_bits = [
            c.numerator.bit_length() + c.denominator.bit_length() for c in kappa
        ]
        load = max(
            sum(abs(m[k][j]) * kappa_bits[j] for j in range(n_rows))
            for k in range(width)
        )
        if load <= 1500:  # keep exact representatives small enough to verify
            solution = []
            for k in range(width):
                value = Fraction(1)
                for j in range(n_rows):
                    if m[k][j]:
                        value *= kappa[j] ** m[k][j]
                solution.append(value)
            return [tuple(solution)], True

    # numeric branch: log space at high precision (the Smith transforms can
    # carry large integer entries that would amplify double-precision noise),
    # with the exponent matrix reduced along the kernel first
    ctx = _mp_context()
    exps = [[v[k][i] for i in range(rank)] for k in range(width)]
    _reduce_columns(exps, kernels)

    logk_mp = [
        ctx.log(ctx.mpc(c.numerator)) - ctx.log(ctx.mpc(c.denominator)) for c in kappa
    ]
    base_logy = [
        sum(u[i][j] * logk_mp[j] for j in range(n_rows)) / diag[i]
        for i in range(rank)
    ]
    solutions = []
    torsion_ranges = [range(d) for d in diag[:rank]]

    def emit(torsion):
        logy = [
            base_logy[i] + 2 * ctx.pi * ctx.mpc(0, 1) * torsion[i] / diag[i]
            for i in range(rank)
        ]
        logx = [
            sum(exps[k][i] * logy[i] for i in range(rank)) for k in range(width)
        ]
        for kernel in kernels:
            weight = sum(c * c for c in kernel)
            if weight == 0:
                continue
            shift = -sum(logx[k].real * kernel[k] for k in range(width)) / weight
            logx = [logx[k] + shift * kernel[k] for k in range(width)]
        solutions.append(tuple(complex(ctx.exp(val)) for val in logx))

    def expand(prefix, level):
        if level == rank:
            emit(prefix)
            return
        for t in torsion_ranges[level]:
            expand(prefix + [t], level + 1)

    expand([], 0)
    return solutions, False


# ---------------------------------------------------------------------------
# Monomial curve parameterization
# ---------------------------------------------------------------------------

class MonomialCurve(Record):
    """t -> (c_l * t^(e_l)) with one coefficient vector per component."""

    root: str
    leaves: tuple          # non-root leaves, in order
    exponents: tuple       # primitive: links / g
    g: int                 # component count == gcd of the links
    components: tuple      # coefficient vectors (Fraction or complex entries)
    exact: bool


def torus_components(system: SpliceSystem, toward, leaves, nodes):
    """Torus components of the binomial relations at ``nodes``, each node
    having dropped its admissible monomial toward the vertex ``toward``.

    One coordinate per leaf of ``leaves``; returns the (solutions, exact)
    pair of solve_binomial_torus.
    """
    positions = [system.diagram.leaf_index(leaf) for leaf in leaves]
    rows, consts = [], []
    for v in nodes:
        for rel in node_binomials(system, v, system.toward(v, toward)):
            rows.append([rel.lhs[p] - rel.rhs[p] for p in positions])
            consts.append(rel.const)
    return solve_binomial_torus(rows, consts, len(leaves))


def parameterize(ecs: EndCurveSystem) -> MonomialCurve:
    rooted = ecs.rooted
    links = rooted.links()
    g = gcd_list(links)
    exponents = tuple(l // g for l in links)
    solutions, exact = torus_components(
        ecs.system, rooted.root, rooted.others, ecs.system.diagram.nodes
    )
    if len(solutions) != g:
        raise SolveFailed(
            f"expected {g} components, binomial system produced {len(solutions)}"
        )
    curve = MonomialCurve(
        root=rooted.root,
        leaves=rooted.others,
        exponents=exponents,
        g=g,
        components=tuple(solutions),
        exact=exact,
    )
    if not verify_parameterization(curve, ecs):
        raise SolveFailed("parameterized components fail substitution")
    return curve


def verify_parameterization(curve: MonomialCurve, ecs: EndCurveSystem) -> bool:
    """Substitute z_l = c_l t^(e_l) and check every equation collapses.

    Terms are grouped by their t-degree, so the check is exact for rational
    coefficient vectors; for numeric ones each degree's sum must be small
    against its largest term, however small that term is.  A numeric
    component also fails when a coefficient is zero or not finite, when a
    power overflows, or when a residual or its scale is not finite.
    """
    diagram = ecs.system.diagram
    positions = [diagram.leaf_index(leaf) for leaf in curve.leaves]
    for coeffs in curve.components:
        if any(isinstance(c, complex) and not (c and cmath.isfinite(c)) for c in coeffs):
            return False
        exact = all(isinstance(c, Fraction) for c in coeffs)
        for _, _, poly in ecs.equations:
            degrees = {}
            magnitudes = {}
            for m, c in poly.terms:
                degree = sum(m[p] * e for p, e in zip(positions, curve.exponents))
                value = c if exact else complex(c)
                try:
                    for p, cf in zip(positions, coeffs):
                        if m[p]:
                            value = value * cf ** m[p]
                except OverflowError:
                    return False
                degrees[degree] = degrees.get(degree, 0) + value
                if not exact:
                    magnitudes[degree] = max(magnitudes.get(degree, 0.0), abs(value))
            for degree, total in degrees.items():
                if exact:
                    if total != 0:
                        return False
                elif not abs(total) <= NUMERIC_TOL * magnitudes[degree] < inf:
                    return False
    return True
