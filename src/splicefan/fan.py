"""Splice fans, membership certificates and balancing.

The splice fan of a diagram is the cone over the diagram embedded in the
standard simplex: one ray per vertex (unit vectors at leaves, primitive node
weight vectors at nodes), one two-dimensional cone per edge, each cone
carrying a tropical multiplicity.  A strictly positive weight vector either
lands on the fan (locate) or is certified off the local tropicalization by a
node whose equations combine to a single lowest-weight monomial
(certificate_search); the two routes are mutually exclusive.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .diagram import SpliceDiagram
from .endcurve import torus_components
from .errors import (
    InconsistentMembership,
    NonIntegralMultiplicity,
    NoTorusPoint,
    SpliceError,
    VerificationFailed,
)
from .exact import dot, gcd_list, kernel_basis, primitive, rref
from .record import Record
from .system import (
    Polynomial,
    SpliceSystem,
    build_system,
    combination,
    node_certificate_combination,
)

RANK_TOL = 1e-9


# ---------------------------------------------------------------------------
# Fan construction
# ---------------------------------------------------------------------------

class Ray(Record):
    label: str
    vector: tuple

    def is_unit(self) -> bool:
        return sum(self.vector) == 1 and all(x in (0, 1) for x in self.vector)


class Cone2(Record):
    rays: tuple  # (label, label)
    multiplicity: int


class SpliceFan:
    def __init__(self, rays, cones):
        self.rays = tuple(rays)
        self.cones = tuple(cones)
        self.ray_by_label = {r.label: r for r in self.rays}

    @property
    def n(self):
        return len(self.rays[0].vector) if self.rays else 0

    def leaf_labels(self):
        """Labels of the unit rays, in the order of their coordinates."""
        units = {r.vector.index(1): r.label for r in self.rays if r.is_unit()}
        return [units[i] for i in sorted(units)]

    def node_labels(self):
        return [r.label for r in self.rays if not r.is_unit()]

    def cones_at(self, label):
        return [c for c in self.cones if label in c.rays]

    def __repr__(self):
        return f"SpliceFan({len(self.rays)} rays, {len(self.cones)} cones)"


def _exact_div(num, den, what):
    q, r = divmod(num, den)
    if r:
        raise NonIntegralMultiplicity(f"{what}: {num} not divisible by {den}")
    return q


def splice_fan(diagram: SpliceDiagram) -> SpliceFan:
    """Rays for all vertices, one weighted cone per edge of the diagram.

    The multiplicity of a leaf cone [l, u] is gcd(link(u, m) : m != l) over
    the weight at u toward l; for an internal cone [u, v] it is the product
    of the two side gcds over the product of the two edge weights.  Both
    divisions are checked exact.
    """
    rays = [
        Ray(label=leaf, vector=tuple(int(i == k) for i in range(diagram.n)))
        for k, leaf in enumerate(diagram.leaves)
    ]
    rays += [
        Ray(label=v, vector=primitive(diagram.node_weight_vector(v)))
        for v in diagram.nodes
    ]
    cones = []
    for a, b in diagram.edges():
        if diagram.is_leaf(a) or diagram.is_leaf(b):
            leaf, node = (a, b) if diagram.is_leaf(a) else (b, a)
            g = gcd_list(
                diagram.linking_number(node, m)
                for m in diagram.leaves
                if m != leaf
            )
            mult = _exact_div(g, diagram.weight(node, leaf), f"cone [{leaf},{node}]")
        else:
            g = gcd_list(
                diagram.linking_number(a, l) for l in diagram.leaves_beyond(b, a)
            ) * gcd_list(
                diagram.linking_number(b, l) for l in diagram.leaves_beyond(a, b)
            )
            mult = _exact_div(
                g,
                diagram.weight(a, b) * diagram.weight(b, a),
                f"cone [{a},{b}]",
            )
        cones.append(Cone2(rays=(a, b), multiplicity=mult))
    return SpliceFan(rays, cones)


def embed_vertex(diagram: SpliceDiagram, v):
    """Image of a vertex in the standard simplex: weight vector over 1-norm."""
    if diagram.is_leaf(v):
        return tuple(
            Fraction(int(l == v)) for l in diagram.leaves
        )
    w = diagram.node_weight_vector(v)
    total = sum(w)
    return tuple(Fraction(x, total) for x in w)


def barycenter(diagram: SpliceDiagram, v, leaves):
    """Average of the leaf vertices weighted by their linking numbers from v."""
    leaves = list(leaves)
    if not leaves:
        raise ValueError("barycenter needs at least one leaf")
    weights = {l: diagram.linking_number(v, l) for l in leaves}
    total = sum(weights.values())
    return tuple(
        Fraction(weights.get(l, 0), total) for l in diagram.leaves
    )


# ---------------------------------------------------------------------------
# Locating a weight vector on the fan
# ---------------------------------------------------------------------------

class CellLocation(Record):
    kind: str            # "on_ray" | "in_cone" | "outside"
    label: object = None  # ray label or cone label pair
    coeffs: tuple = ()   # exact coefficients on the primitive ray vectors

    @property
    def inside(self) -> bool:
        return self.kind != "outside"


OUTSIDE = CellLocation(kind="outside")


def locate(fan: SpliceFan, w) -> CellLocation:
    """Exact cell of the fan containing w (ties resolve to rays).

    w is scaled once to integers, v = L*w with L the lcm of its denominators,
    so the ray test and the cone test (Cramer's rule on the first coordinate
    pair where the two rays are independent) are integer cross-products.
    Fractions are built only for the cell found.
    """
    w = [x if isinstance(x, int) else Fraction(x) for x in w]
    if all(x == 0 for x in w) or any(x < 0 for x in w):
        raise ValueError("weight vector must be non-negative and nonzero")
    scale = lcm(*(x.denominator for x in w))
    v = [x.numerator * (scale // x.denominator) for x in w]
    for ray in fan.rays:
        if _on_ray(v, ray.vector):
            k = _first_nonzero(ray.vector)
            coeffs = (Fraction(v[k], ray.vector[k] * scale),)
            return CellLocation(kind="on_ray", label=ray.label, coeffs=coeffs)
    for cone in fan.cones:
        r1 = fan.ray_by_label[cone.rays[0]].vector
        r2 = fan.ray_by_label[cone.rays[1]].vector
        i = _first_nonzero(r1)
        j = next((k for k, (a, b) in enumerate(zip(r1, r2)) if r1[i] * b != a * r2[i]), None)
        if j is None:
            continue
        det = r1[i] * r2[j] - r1[j] * r2[i]
        an = v[i] * r2[j] - v[j] * r2[i]
        bn = r1[i] * v[j] - r1[j] * v[i]
        if an * det > 0 and bn * det > 0 and all(
            an * a + bn * b == det * x for a, b, x in zip(r1, r2, v)
        ):
            coeffs = (Fraction(an, det * scale), Fraction(bn, det * scale))
            return CellLocation(kind="in_cone", label=cone.rays, coeffs=coeffs)
    return OUTSIDE


def _first_nonzero(r):
    return next(i for i, x in enumerate(r) if x)


def _on_ray(v, r):
    """Whether the integer vector v is a positive multiple of r."""
    k = _first_nonzero(r)
    return v[k] * r[k] > 0 and all(a * r[k] == v[k] * b for a, b in zip(v, r))


# ---------------------------------------------------------------------------
# Certificates of non-membership
# ---------------------------------------------------------------------------

class TruncationContext(Record):
    """Coordinates of these leaves are set to zero before tropicalizing."""

    leaves: frozenset

    def indices(self, diagram):
        return [diagram.leaf_index(l) for l in self.leaves]


class Certificate(Record):
    """Witness that w is off the local tropicalization.

    ``coefficients`` combine the node's equations into a polynomial whose
    initial form is exactly the monomial with exponent ``monomial``; the
    winning edge beats at least two other incident positions strictly, the
    rest being killed by the truncation.
    """

    node: str
    edge: tuple            # (node, neighbour)
    monomial: tuple
    values: dict           # neighbour -> pairing of w with that admissible exponent
    coefficients: tuple    # one rational per equation (node, i)
    truncated: tuple = ()  # neighbours whose monomials the truncation killed


def certificate_search(system: SpliceSystem, w, truncation: TruncationContext | None = None):
    """Scan nodes in declaration order for a single-monomial combination.

    At a node, the candidate is the surviving admissible monomial of least
    w-weight; it qualifies when the count of strictly heavier surviving
    positions plus truncation-killed slots reaches two (and every surviving
    tail term weighs strictly more).  Coefficients come from exact
    elimination against the Hamm matrix.
    """
    diagram = system.diagram
    kill = set(truncation.indices(diagram)) if truncation else set()
    w = tuple(Fraction(x) for x in w)
    for v in diagram.nodes:
        block = system.blocks[v]
        count = len(block.star)
        killed = [
            j for j, m in enumerate(block.exponents)
            if any(m[i] for i in kill)
        ]
        surviving = [j for j in range(count) if j not in killed]
        if not surviving:
            continue
        values = {j: dot(w, block.exponents[j]) for j in surviving}
        low = min(values.values())
        win = next(j for j in surviving if values[j] == low)
        above = [j for j in surviving if values[j] > low]
        slots = killed[:2] + above[: max(0, 2 - len(killed))]
        if len(slots) < 2:
            continue
        if not _tails_clear(system, v, w, kill, low):
            continue
        y = _combination_coefficients(system, v, [win] + slots)
        cert = Certificate(
            node=v,
            edge=(v, block.star[win]),
            monomial=block.exponents[win],
            values={block.star[j]: dot(w, block.exponents[j]) for j in range(count)},
            coefficients=y,
            truncated=tuple(block.star[j] for j in killed),
        )
        _verify_certificate(system, w, kill, cert)
        return cert
    return None


def _tails_clear(system, v, w, kill, low):
    for eq in system.equations_at(v):
        tail = eq.tail.truncate(kill) if kill else eq.tail
        for m in tail.support():
            if dot(w, m) <= low:
                return False
    return True


def _combination_coefficients(system, v, keep):
    block = system.blocks[v]
    y = node_certificate_combination(system, v, set(keep))
    win = keep[0]
    lead = sum(c * yc for c, yc in zip(block.matrix.rows[win], y))
    if lead == 0:
        raise VerificationFailed(f"certificate elimination degenerated at {v!r}")
    return tuple(yc / lead for yc in y)


def _verify_certificate(system, w, kill, cert: Certificate):
    combo = combination(system, cert.node, cert.coefficients)
    if kill:
        combo = combo.truncate(kill)
    if combo.initial_form(w) != Polynomial.monomial(cert.monomial):
        raise VerificationFailed(
            f"certificate at {cert.node!r} does not reduce to its monomial"
        )


# ---------------------------------------------------------------------------
# Membership dichotomy
# ---------------------------------------------------------------------------

class MembershipResult(Record):
    status: str                     # "in" | "out"
    cell: CellLocation | None = None
    certificate: Certificate | None = None


def membership(system: SpliceSystem, w, fan: SpliceFan | None = None) -> MembershipResult:
    """Exactly one of locate / certificate_search succeeds for positive w."""
    if any(Fraction(x) <= 0 for x in w):
        raise ValueError("membership requires a strictly positive weight vector")
    fan = fan or splice_fan(system.diagram)
    cell = locate(fan, w)
    cert = certificate_search(system, w)
    if cell.inside and cert is None:
        return MembershipResult(status="in", cell=cell)
    if not cell.inside and cert is not None:
        return MembershipResult(status="out", certificate=cert)
    raise InconsistentMembership(
        f"locate says {cell.kind!r} while certificate is {cert!r}"
    )


# ---------------------------------------------------------------------------
# Brute-force oracle over the span of the generators
# ---------------------------------------------------------------------------

def monomial_in_span_oracle(generators, w):
    """Exponent m such that some constant combination of the generators has
    initial form exactly the monomial z^m; None when no such m exists.

    A combination y reads row_m . y as its coefficient of z^m, where row_m
    holds z^m's coefficient in each generator.  z^m is the initial form of
    some combination exactly when row_m leaves the span of the rows of the
    lighter monomials and of the other monomials of its weight.  Weight
    groups are taken from the lightest: the lighter rows are kept as an rref
    basis, the group's rows are stacked below it, and one kernel of the
    stack's transpose lists its linear dependencies.  A monomial in no
    dependency is outside the span of the others.
    """
    w = tuple(Fraction(x) for x in w)
    cols = len(generators)
    rows = {}
    for j, g in enumerate(generators):
        for m, c in g.terms:
            rows.setdefault(m, [Fraction(0)] * cols)[j] += c

    order = sorted(rows, key=lambda m: (dot(w, m), [-e for e in m]))
    groups = []
    for m in order:
        if groups and dot(w, groups[-1][0]) == dot(w, m):
            groups[-1].append(m)
        else:
            groups.append([m])

    basis = []
    for group in groups:
        if len(basis) == cols:  # the lighter rows span every row left
            return None
        stack = basis + [rows[m] for m in group]
        dependencies = kernel_basis(list(zip(*stack)), len(stack))
        for k, m in enumerate(group, len(basis)):
            if not any(dep[k] for dep in dependencies):
                return m
        basis = rref(stack)[0]
    return None


def initial_ideal_generators(system: SpliceSystem, w):
    """Initial forms of all equations plus a monomial-freeness verdict."""
    gens = [eq.full.initial_form(w) for eq in system.equations]
    monomial_free = not any(g.is_monomial() for g in gens) and (
        monomial_in_span_oracle(system.polynomials(), w) is None
    )
    return gens, monomial_free


# ---------------------------------------------------------------------------
# Boundary tropicalizations
# ---------------------------------------------------------------------------

def boundary_trop(system: SpliceSystem, leaves, samples=6, seed=0, cross_check=True):
    """Tropicalization after setting the given leaf coordinates to zero.

    One killed leaf leaves a single ray, the projected weight vector of the
    adjacent node (primitive); two or more leave nothing.  Both answers are
    cross-checked by certificate searches on sampled vectors.
    """
    leaves = sorted(set(leaves), key=system.diagram.leaf_index)
    diagram = system.diagram
    if not 0 < len(leaves) < diagram.n:
        raise ValueError("need a nonempty proper subset of leaves")
    trunc = TruncationContext(leaves=frozenset(leaves))
    kill = set(trunc.indices(diagram))
    rng = random.Random(seed)
    if len(leaves) >= 2:
        if cross_check:
            for _ in range(samples):
                w = tuple(
                    0 if i in kill else rng.randint(1, 40) for i in range(diagram.n)
                )
                if certificate_search(system, w, trunc) is None:
                    raise VerificationFailed(
                        f"no certificate at {w} though the truncation by "
                        f"{leaves} should be empty"
                    )
        return None

    k = diagram.leaf_index(leaves[0])
    vec = diagram.node_weight_vector(diagram.neighbors(leaves[0])[0])
    full = primitive(vec[:k] + (0,) + vec[k + 1:])
    projected = full[:k] + full[k + 1:]
    if cross_check:
        for t in (1, 2, 3):
            w = tuple(t * x for x in full)
            if certificate_search(system, w, trunc) is not None:
                raise VerificationFailed(f"certificate found on the boundary ray {w}")
        for _ in range(samples):
            w = tuple(
                0 if i in kill else rng.randint(1, 40) for i in range(diagram.n)
            )
            if _on_ray(w, full):
                continue
            if certificate_search(system, w, trunc) is None:
                raise VerificationFailed(
                    f"missing certificate off the boundary ray at {w}"
                )
    return projected


# ---------------------------------------------------------------------------
# Balancing
# ---------------------------------------------------------------------------

def _quotient_content(t, r):
    """gcd of the 2x2 minors t_i r_j - t_j r_i.  For primitive t this is the
    content of r's image in Z^n / Zt (Pluecker coordinates, unchanged by a
    unimodular map taking t to e1); 0 exactly when r is parallel to t."""
    pairs = combinations(range(len(t)), 2)
    return gcd(*(t[i] * r[j] - t[j] * r[i] for i, j in pairs))


def check_balancing(fan: SpliceFan) -> bool:
    """At each node ray t, the multiplicity-weighted primitive images of the
    adjacent cones must cancel in the quotient lattice Z^n / Zt: the node is
    balanced exactly when sum m_c (L / g_c) r_c is parallel to t, where g_c
    is the content of r_c's image and L the lcm of the g_c."""
    for label in fan.node_labels():
        t = fan.ray_by_label[label].vector
        if gcd_list(t) != 1:
            raise VerificationFailed(f"ray {label!r} is not primitive")
        parts = []
        for cone in fan.cones_at(label):
            other = cone.rays[0] if cone.rays[1] == label else cone.rays[1]
            r = fan.ray_by_label[other].vector
            g = _quotient_content(t, r)
            if g == 0:
                return False
            parts.append((cone.multiplicity, g, r))
        common = lcm(*(g for _, g, _ in parts))
        total = [0] * len(t)
        for multiplicity, g, r in parts:
            f = multiplicity * (common // g)
            total = [a + f * x for a, x in zip(total, r)]
        if _quotient_content(t, total):
            return False
    return True


# ---------------------------------------------------------------------------
# Numeric smoothness smoke test
# ---------------------------------------------------------------------------

class SmokeReport(Record):
    cell: CellLocation
    samples: int
    full_rank: bool
    min_ratio: float
    max_residual: float
    repaired_sampling: bool = False


def smoothness_smoke(system: SpliceSystem, w, samples=10, seed=0) -> SmokeReport:
    """Sample torus points of the initial degeneration at w and check the
    log-Jacobian of the initial forms has full rank n - 2 at each of them.

    Points come from the monomial parameterizations of the degeneration
    (end-curve components glued through a Pham-Brieskorn-Hamm kernel at a
    node ray).  If the system's own matrices degenerate, sampling falls back
    to repaired default coefficients while the rank is still evaluated on
    the original initial forms.
    """
    diagram = system.diagram
    fan = splice_fan(diagram)
    cell = locate(fan, w)
    if not cell.inside:
        raise NoTorusPoint(f"{w} is outside the fan")
    if cell.kind == "on_ray" and diagram.is_leaf(cell.label):
        raise NoTorusPoint("leaf rays are not strictly positive cells")

    gens = [eq.full.initial_form(w) for eq in system.equations]
    rng = random.Random(seed)
    repaired = False
    try:
        points = [_sample_log_point(system, cell, rng) for _ in range(samples)]
    except SpliceError:
        repaired = True
        fixed = build_system(diagram)
        rng = random.Random(seed)
        points = [_sample_log_point(fixed, cell, rng) for _ in range(samples)]

    min_ratio = float("inf")
    max_residual = 0.0
    for logz in points:
        if not repaired:
            max_residual = max(max_residual, _relative_residual(gens, logz))
        ratios = _log_jacobian_ratio(gens, logz)
        min_ratio = min(min_ratio, ratios)
    return SmokeReport(
        cell=cell,
        samples=samples,
        full_rank=min_ratio > RANK_TOL,
        min_ratio=min_ratio,
        max_residual=max_residual,
        repaired_sampling=repaired,
    )


def _term_logs(poly, logz):
    """log of each term value at the point exp(logz); never overflows."""
    return [
        cmath.log(complex(c)) + sum(e * lz for e, lz in zip(m, logz) if e)
        for m, c in poly.terms
    ]


def _relative_residual(gens, logz):
    worst = 0.0
    for g in gens:
        logs = _term_logs(g, logz)
        top = max(l.real for l in logs)
        vals = [cmath.exp(l - top) for l in logs]  # all magnitudes <= 1
        worst = max(worst, abs(sum(vals)) / max(abs(v) for v in vals))
    return worst


def _log_jacobian_ratio(gens, logz):
    """Singular value ratio of the rows (z_l d/dz_l applied to each form),
    each row rescaled by its largest term so nothing overflows."""
    import numpy as np

    n = len(logz)
    mat = np.zeros((len(gens), n), dtype=complex)
    for i, g in enumerate(gens):
        logs = _term_logs(g, logz)
        top = max(l.real for l in logs)
        row = np.zeros(n, dtype=complex)
        for (m, _), l in zip(g.terms, logs):
            val = cmath.exp(l - top)
            for k, e in enumerate(m):
                if e:
                    row[k] += e * val
        mat[i] = row
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0:
        return 0.0
    return float(sv[-1] / sv[0])


def _log_of(value):
    """Complex log of a Fraction or complex without float overflow."""
    if isinstance(value, Fraction):
        real = math.log(value.numerator if value > 0 else -value.numerator)
        real -= math.log(value.denominator)
        return complex(real, 0 if value > 0 else math.pi)
    return cmath.log(complex(value))


def _center_logs(logs, directions):
    """Shift logs by real multiples of the directions to tame magnitudes."""
    for d in directions:
        weight = sum(x * x for x in d)
        if weight:
            shift = -sum(l.real * x for l, x in zip(logs, d)) / weight
            logs = [l + shift * x for l, x in zip(logs, d)]
    return logs


def _random_log_unit(rng):
    return complex(0.2 * (rng.random() - 0.5), 2 * cmath.pi * rng.random())


def _sample_log_point(system: SpliceSystem, cell: CellLocation, rng):
    """Log-coordinates of a torus point of the initial degeneration at the cell."""
    diagram = system.diagram
    if cell.kind == "on_ray":
        logs = _sample_node_ray_logs(system, cell.label, rng)
        return _center_logs(logs, [_direction(diagram, cell.label)])
    a, b = cell.label
    point = {}
    if diagram.is_leaf(a) or diagram.is_leaf(b):
        leaf, node = (a, b) if diagram.is_leaf(a) else (b, a)
        branch, _ = _branch_component(system, leaf, node, rng)
        point.update(_curve_logs(branch, _random_log_unit(rng)))
        point[leaf] = _random_log_unit(rng)
    else:
        for near, far in ((a, b), (b, a)):
            branch, _ = _branch_component(system, far, near, rng)
            point.update(_curve_logs(branch, _random_log_unit(rng)))
    logs = [point[l] for l in diagram.leaves]
    return _center_logs(logs, [_direction(diagram, a), _direction(diagram, b)])


def _direction(diagram, x):
    """x's ray in floats: a node's weight vector, a leaf's unit vector."""
    if diagram.is_node(x):
        return [float(c) for c in diagram.node_weight_vector(x)]
    return [float(l == x) for l in diagram.leaves]


def _branch_component(system, v, u, rng):
    """A random torus component of the end-curve beyond the directed edge
    [v, u] and its component count g (torus_components):
    {leaf: (log c_l, l'(v, leaf) / g)} over the leaves beyond u.
    """
    exponents, g, solutions, _ = torus_components(system, v, u)
    coeffs = solutions[rng.randrange(g)]
    leaves = system.diagram.leaves_beyond(v, u)
    return {l: (_log_of(c), e) for l, c, e in zip(leaves, coeffs, exponents)}, g


def _curve_logs(branch, log_t):
    """Logs of the branch's point c_l * t^(e_l) at t = exp(log_t)."""
    return {l: log_c + e * log_t for l, (log_c, e) in branch.items()}


def _sample_node_ray_logs(system, node, rng):
    """Glue branch end-curves through the Pham-Brieskorn-Hamm kernel at the node."""
    diagram = system.diagram
    block = system.blocks[node]
    branches = {
        u: _branch_component(system, node, u, rng)
        for u in block.star if diagram.is_node(u)
    }

    # the node's own equations are linear in y_e = z^(admissible exponent);
    # pick a random kernel vector of the transposed coefficient matrix
    for _ in range(40):
        y = _random_kernel_vector(block.matrix.kernel, rng)
        if y is not None and all(abs(c) > 1e-12 for c in y):
            break
    else:
        raise NoTorusPoint(f"no torus kernel vector at node {node!r}")

    point = {}
    for j, u in enumerate(block.star):
        if diagram.is_leaf(u):
            point[u] = _log_of(y[j]) / diagram.weight(node, u)
            continue
        branch, g = branches[u]
        exponent = block.exponents[j]
        log_gamma = complex(0)
        for l, (log_c, _) in branch.items():
            e = exponent[diagram.leaf_index(l)]
            if e:
                log_gamma += e * log_c
        n_e = diagram.weight(node, u) // g
        point.update(_curve_logs(branch, (_log_of(y[j]) - log_gamma) / n_e))
    return [point[l] for l in diagram.leaves]


def _random_kernel_vector(kernel, rng):
    """Random element of {y : sum_e y_e * rows[e][i] = 0 for all i}: one
    draw per basis vector of the node's kernel, in free-column order."""
    coeffs = [Fraction(rng.randint(-9, 9)) for _ in kernel]
    if not any(coeffs):
        return None
    y = [sum(c * vec[e] for c, vec in zip(coeffs, kernel)) for e in range(len(kernel[0]))]
    return [complex(v) for v in y]
