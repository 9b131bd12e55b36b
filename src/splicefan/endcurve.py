"""End-curves of rooted splice diagrams.

Rooting a diagram at a leaf r and deleting, in every equation, the
admissible monomial pointing toward r cuts out a curve in the remaining
coordinates.  Per node the surviving equations reduce to binomials, and the
curve is a union of torus-translates of one monomial curve whose exponents
are the linking numbers from the root divided by their gcd.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import product
from math import inf, lcm

from .diagram import SpliceDiagram
from .errors import EliminationDegenerate, SolveFailed
from .exact import gcd_list, smith_normal_form
from .record import Record
from .system import Polynomial, SpliceSystem

NUMERIC_TOL = 1e-9

# torus_components lists one coefficient vector per component, so it refuses
# a branch with more components than this before solving.  The tests, the
# golden corpus and the benchmark ladder reach g = 1,922 at most.
MAX_COMPONENTS = 10_000


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

def _shift_guess(dot, weight):
    """The floating-point guess -round(dot / weight) of a kernel shift."""
    try:
        return -round(dot / weight)
    except OverflowError:
        raise SolveFailed("kernel shift too large for a floating-point guess") from None


def _reduce_column(column, kernel, weight):
    """Shrink an integer column in place by an integer shift along the
    kernel (of squared length ``weight``), trying the five shifts around the
    float guess and keeping the first of least l1 norm."""
    guess = _shift_guess(sum([c * k for c, k in zip(column, kernel)]), weight)
    best, best_cost = 0, None
    for t in range(guess - 2, guess + 3):
        cost = sum([abs(c + t * k) for c, k in zip(column, kernel)])
        if best_cost is None or cost < best_cost:
            best, best_cost = t, cost
    if best:
        column[:] = [c + best * k for c, k in zip(column, kernel)]


def _exact_solution(u, v, kappa, kernel, weight):
    """The rational solution x_k = prod_j kappa_j^(M[k][j]) of a unimodular
    system, M = V_r U with its columns reduced along the kernel; None when
    a coordinate's load (sum over j of |M[k][j]| times the bit size of
    kappa_j) passes 1500, too large to verify.

    The columns are built and reduced one at a time and the attempt stops
    at the first load past the limit.
    """
    n_rows, width = len(u), len(v)
    bits = [c.numerator.bit_length() + c.denominator.bit_length() for c in kappa]
    load = [0] * width
    columns = []
    for j in range(n_rows):
        column = [sum(v[k][i] * u[i][j] for i in range(n_rows)) for k in range(width)]
        _reduce_column(column, kernel, weight)
        columns.append(column)
        load = [l + abs(c) * bits[j] for l, c in zip(load, column)]
        if max(load) > 1500:  # keep exact representatives small enough to verify
            return None
    solution = []
    for k in range(width):
        value = Fraction(1)
        for c, column in zip(kappa, columns):
            if column[k]:
                value *= c ** column[k]
        solution.append(value)
    return tuple(solution)


def solve_binomial_torus(rows, consts, width):
    """All components of {x in torus^width : x^row == const, row-wise}.

    Takes only what an end-curve gives: width - 1 relations whose exponent
    matrix has full rank, that is a nonzero Smith diagonal (Neumann and
    Wahl's end-curve theorem), so its kernel is the line of V's last column;
    any other input is refused with SolveFailed.

    Returns (solutions, exact): one solution per connected component, found
    through the Smith normal form; principal branch roots throughout, the
    finite component group enumerated by roots of unity.  ``exact`` is True
    when every solution is rational (stored as Fractions).  Otherwise the
    solutions are complex: the constants are rational, so each coefficient
    is a floating modulus times e^(i pi q) with q an exact rational, and a
    real coefficient has imaginary part 0.0.

    Representatives are normalised along the kernel (integrally in the
    exact case, by log-centering in the numeric one) so coefficients stay
    small.
    """
    if width < 2 or len(rows) != width - 1 or any(len(r) != width for r in rows):
        raise SolveFailed(
            f"not an end-curve system: {len(rows)} relations in {width} coordinates"
        )
    u, s, v = smith_normal_form([list(r) for r in rows])
    kappa = [Fraction(c) for c in consts]
    if any(c == 0 for c in kappa):
        raise SolveFailed("zero constant in a binomial relation")
    diag = [s[i][i] for i in range(width - 1)]
    if not all(diag):
        raise SolveFailed("binomial exponent matrix is rank-deficient")
    kernel = [row[width - 1] for row in v]
    weight = sum(c * c for c in kernel)
    if all(d == 1 for d in diag):
        solution = _exact_solution(u, v, kappa, kernel, weight)
        if solution is not None:
            return [solution], True
    return _numeric_solutions(u, v, diag, kappa, kernel, weight), False


def _numeric_solutions(u, v, diag, kappa, kernel, weight):
    """The components x_k = |x_k| * e^(i pi q_k), with the exponent matrix
    reduced along the kernel first.

    Only the modulus is floating: log |x| is solved at 60 digits (the Smith
    transforms can carry large integer entries that would amplify
    double-precision noise) with mpmath's raw ``libmp`` functions, called
    in the order that the context-level expressions would call them on the
    real parts, so the bits are those of a 60-digit mpmath context; a term
    with a zero integer coefficient is skipped, which changes nothing, as
    every term is already rounded and adding a zero returns it unchanged.
    The torsion term is imaginary, so one modulus serves every component.

    The phase is exact: q_k = p_k / L with L the lcm of the Smith diagonal
    and p_k an integer mod 2L, read from the signs of the constants, U's
    rows, the torsion 2 t_i / d_i and the reduced columns of V.  Integer
    and half-integer q give exact signs and zeros.
    """
    from mpmath.libmp import (
        from_int, from_rational, fzero, mpf_add, mpf_cos_sin_pi, mpf_div, mpf_exp,
        mpf_log, mpf_mul, mpf_mul_int, mpf_neg, mpf_sub, to_float,
    )

    prec, rnd = 203, "n"  # mpmath's 60 digits, rounding to nearest
    width = len(v)
    exps = [[v[k][i] for k in range(width)] for i in range(len(diag))]  # columns
    for column in exps:
        _reduce_column(column, kernel, weight)

    def log_abs(n):
        return mpf_log(from_int(abs(n), prec, rnd), prec, rnd)

    def combination(coefficients, values):
        """sum(c * x) over the nonzero integer coefficients c, as Python's
        sum folds it; zero when every coefficient is zero."""
        total = None
        for c, x in zip(coefficients, values):
            if c:
                term = mpf_mul_int(x, c, prec, rnd)
                total = term if total is None else mpf_add(total, term, prec, rnd)
        return fzero if total is None else total

    logk = [mpf_sub(log_abs(c.numerator), log_abs(c.denominator), prec, rnd) for c in kappa]
    logy = [mpf_div(combination(row, logk), from_int(d), prec, rnd) for row, d in zip(u, diag)]
    logx = [combination([column[k] for column in exps], logy) for k in range(width)]
    shift = mpf_div(mpf_neg(combination(kernel, logx), prec, rnd), from_int(weight), prec, rnd)
    moduli = [
        mpf_exp(mpf_add(x, mpf_mul_int(shift, c, prec, rnd), prec, rnd) if c else x,
                prec + 4, rnd)
        for x, c in zip(logx, kernel)
    ]

    # arg y_i = pi (sum_j u_ij [kappa_j < 0] + 2 t_i) / d_i, and arg x_k is
    # the reduced V row's combination of them: pi p_k / L, L = order
    order = lcm(*diag)
    steps = [[c * (order // d) for c in column] for column, d in zip(exps, diag)]
    negative = [sum(c for c, const in zip(row, kappa) if const < 0) for row in u]
    values = {}

    def value(k, p):
        """x_k at the phase pi p / L, rounded as mpmath's exp rounds it."""
        z = values.get((k, p))
        if z is None:
            # exact (1, 0), (-1, 0), (0, 1) and (0, -1) at integer and half-integer p / L
            cos, sin = mpf_cos_sin_pi(from_rational(p, order, prec + 4, rnd), prec + 4, rnd)
            z = values[k, p] = complex(
                to_float(mpf_mul(moduli[k], cos, prec, rnd), False, rnd),
                to_float(mpf_mul(moduli[k], sin, prec, rnd), False, rnd),
            )
        return z

    solutions = []
    for torsion in product(*(range(d) for d in diag)):
        turns = [n + 2 * t for n, t in zip(negative, torsion)]
        solutions.append(tuple(
            value(k, sum([t * step[k] for t, step in zip(turns, steps)]) % (2 * order))
            for k in range(width)
        ))
    return solutions


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


def torus_components(system: SpliceSystem, v, u):
    """The end-curve beyond the directed edge [v, u]: the binomial relations
    at the nodes beyond u, each node having dropped its admissible monomial
    toward v, with one coordinate per leaf beyond u, in leaf order.

    By Neumann and Wahl's end-curve theorem it is g torus translates of the
    monomial curve with the primitive exponents l'(v, l) / g, g the gcd of
    the reduced linking numbers.  Returns (exponents, g, solutions, exact),
    the last two from solve_binomial_torus.  A branch with more than
    MAX_COMPONENTS components is refused with SolveFailed before solving,
    as is a solve that does not give g components.
    """
    diagram = system.diagram
    leaves = diagram.leaves_beyond(v, u)
    links = [diagram.reduced_linking(v, leaf) for leaf in leaves]
    g = gcd_list(links)
    if g > MAX_COMPONENTS:
        raise SolveFailed(f"{g} components exceed the bound of {MAX_COMPONENTS}")
    positions = [diagram.leaf_index(leaf) for leaf in leaves]
    rows, consts = [], []
    for x in diagram.nodes_beyond(v, u):
        for rel in node_binomials(system, x, system.toward(x, v)):
            rows.append([rel.lhs[p] - rel.rhs[p] for p in positions])
            consts.append(rel.const)
    solutions, exact = solve_binomial_torus(rows, consts, len(positions))
    if len(solutions) != g:
        raise SolveFailed(
            f"expected {g} components, binomial system produced {len(solutions)}"
        )
    return tuple(link // g for link in links), g, solutions, exact


def parameterize(ecs: EndCurveSystem) -> MonomialCurve:
    rooted = ecs.rooted
    exponents, g, solutions, exact = torus_components(
        ecs.system, rooted.root, rooted.diagram.neighbors(rooted.root)[0]
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
