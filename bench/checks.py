"""Answer checks computed apart from splicefan.

Nothing here imports splicefan. Linking numbers, node weight vectors, edge
determinants, rays, multiplicities and end-curve equations are recomputed
from a diagram's edge list with Python integers and fractions; the answers
under test come in as plain data (tuples, dicts, Fractions, complex numbers).
Every check raises CheckFailed with a message naming what disagreed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from math import gcd

# Relative tolerance for end-curve components given as floating-point
# numbers: after substituting z_l = c_l * t^(e_l), the terms of each t-degree
# must cancel to within this share of the largest term of that degree.
REL_TOL = 1e-6


class CheckFailed(Exception):
    """An answer disagrees with the benchmark's own computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def _dot(w, m):
    return sum(a * b for a, b in zip(w, m))


# ---------------------------------------------------------------------------
# The benchmark's own view of a splice diagram
# ---------------------------------------------------------------------------

class Tree:
    """A weighted tree read from an edge list ``(a, b, wa, wb)``.

    ``wa``/``wb`` are the half-edge weights at ``a``/``b`` (None at a leaf).
    """

    def __init__(self, leaves, nodes, edges):
        self.leaves = tuple(leaves)
        self.nodes = tuple(nodes)
        self.adj = {v: [] for v in self.leaves + self.nodes}
        self.weight = {}
        self.edge_list = []
        for a, b, wa, wb in edges:
            self.adj[a].append(b)
            self.adj[b].append(a)
            self.edge_list.append((a, b))
            if wa is not None:
                self.weight[(a, b)] = int(wa)
            if wb is not None:
                self.weight[(b, a)] = int(wb)
        self._links = {}

    @classmethod
    def from_doc(cls, doc):
        return cls(
            doc["leaves"],
            doc["nodes"],
            [(e["a"], e["b"], e.get("wa"), e.get("wb")) for e in doc["edges"]],
        )

    def is_node(self, v):
        return v in self.nodes

    def path(self, u, v):
        parent = {u: None}
        queue = [u]
        for x in queue:
            for y in self.adj[x]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        out = [v]
        while out[-1] != u:
            out.append(parent[out[-1]])
        return out[::-1]

    def _around(self, x, skip):
        prod = 1
        for y in self.adj[x]:
            if y not in skip:
                prod *= self.weight[(x, y)]
        return prod

    def linking(self, u, v):
        """Product of the weights adjacent to, but not on, the path [u, v]."""
        key = (u, v)
        if key not in self._links:
            if u == v:
                value = self._around(u, ())
            else:
                p = self.path(u, v)
                value = 1
                for i, x in enumerate(p):
                    if self.is_node(x):
                        value *= self._around(x, p[max(i - 1, 0):i + 2])
            self._links[key] = value
        return self._links[key]

    def reduced(self, v, leaf):
        """Like linking, leaving out the weights around both ends."""
        p = self.path(v, leaf)
        value = 1
        for i in range(1, len(p) - 1):
            value *= self._around(p[i], (p[i - 1], p[i + 1]))
        return value

    def total(self, v):
        return self.linking(v, v)

    def vector(self, v):
        return tuple(self.linking(v, leaf) for leaf in self.leaves)

    def ray(self, label):
        if label in self.leaves:
            return tuple(int(leaf == label) for leaf in self.leaves)
        vec = self.vector(label)
        g = _gcd_all(vec)
        return tuple(x // g for x in vec)

    def beyond(self, v, u):
        """Leaves whose path from v starts with the edge [v, u]."""
        seen = {v, u}
        queue = [u]
        for x in queue:
            for y in self.adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return [leaf for leaf in self.leaves if leaf in seen]

    def toward(self, v, x):
        return self.path(v, x)[1]

    def star(self, v):
        """Neighbours of v: leaves in leaf order, then nodes in node order."""
        def key(x):
            if x in self.leaves:
                return (0, self.leaves.index(x))
            return (1, self.nodes.index(x))
        return sorted(self.adj[v], key=key)

    def edges(self):
        return {frozenset(e) for e in self.edge_list}

    def determinant(self, u, v):
        return self.weight[(u, v)] * self.weight[(v, u)] - self.linking(u, v)

    def multiplicity(self, a, b):
        """Tropical multiplicity of the cone [a, b], from the closed forms."""
        if not (self.is_node(a) and self.is_node(b)):
            leaf, node = (a, b) if self.is_node(b) else (b, a)
            num = _gcd_all(self.linking(node, m) for m in self.leaves if m != leaf)
            den = self.weight[(node, leaf)]
        else:
            side_a = set(self.leaves) - set(self.beyond(a, b))
            side_b = set(self.leaves) - set(self.beyond(b, a))
            num = _gcd_all(self.linking(a, l) for l in side_a) * _gcd_all(
                self.linking(b, l) for l in side_b
            )
            den = self.weight[(a, b)] * self.weight[(b, a)]
        require(num % den == 0, f"multiplicity of [{a},{b}] is not integral")
        return num // den

    def pairwise_coprime(self):
        for v in self.nodes:
            ws = [self.weight[(v, u)] for u in self.adj[v]]
            if any(gcd(x, y) != 1 for x, y in combinations(ws, 2)):
                return False
        return True

    def determinants_positive(self):
        return all(
            self.determinant(a, b) > 0
            for a, b in self.edge_list
            if self.is_node(a) and self.is_node(b)
        )

    def semigroup_holds(self):
        """Own search: every edge weight is a sum of reduced linking numbers."""
        for v in self.nodes:
            for u in self.adj[v]:
                gens = [self.reduced(v, l) for l in self.beyond(v, u)]
                if not _in_semigroup(self.weight[(v, u)], gens):
                    return False
        return True


def _in_semigroup(target, gens):
    gens = sorted(gens, reverse=True)
    suffix = [0] * (len(gens) + 1)
    for i in range(len(gens) - 1, -1, -1):
        suffix[i] = gcd(gens[i], suffix[i + 1])
    seen = set()

    def reach(i, r):
        if r == 0:
            return True
        if i == len(gens) or r % suffix[i] or (i, r) in seen:
            return False
        seen.add((i, r))
        return any(reach(i + 1, r - x * gens[i]) for x in range(r // gens[i], -1, -1))

    return reach(0, target)


# ---------------------------------------------------------------------------
# Diagram documents and conditions
# ---------------------------------------------------------------------------

def edge_map(doc):
    out = {}
    for e in doc["edges"]:
        out[frozenset((e["a"], e["b"]))] = {
            (e["a"], e["b"]): e.get("wa"),
            (e["b"], e["a"]): e.get("wb"),
        }
    return out


def check_same_diagram(doc, expected_doc):
    """Same leaves, nodes and weighted edges, in any edge order."""
    require(doc["leaves"] == expected_doc["leaves"], "leaf list differs")
    require(doc["nodes"] == expected_doc["nodes"], "node list differs")
    require(edge_map(doc) == edge_map(expected_doc), "weighted edges differ")


def check_valid_diagram(tree, n_leaves, n_nodes, coprime):
    """Structure and both conditions of a generated diagram."""
    require(len(tree.leaves) == n_leaves, "wrong leaf count")
    require(len(tree.nodes) == n_nodes, "wrong node count")
    verts = tree.leaves + tree.nodes
    require(len(set(verts)) == len(verts), "duplicate vertex")
    require(len(tree.edge_list) == len(verts) - 1, "edge count is not a tree's")
    reached = [verts[0]]
    for x in reached:
        reached.extend(y for y in tree.adj[x] if y not in reached)
    require(len(reached) == len(verts), "not connected")
    for leaf in tree.leaves:
        require(len(tree.adj[leaf]) == 1, f"leaf {leaf} has valency != 1")
    for v in tree.nodes:
        require(len(tree.adj[v]) >= 3, f"node {v} has valency < 3")
        for u in tree.adj[v]:
            require(tree.weight.get((v, u), 0) >= 1, f"bad weight at {v} toward {u}")
    require(not any((l, u) in tree.weight for l in tree.leaves for u in tree.adj[l]),
            "a leaf carries a weight")
    require(tree.determinants_positive(), "an edge determinant is not positive")
    require(tree.semigroup_holds(), "semigroup condition fails")
    if coprime:
        require(tree.pairwise_coprime(), "weights around a node are not coprime")


def check_conditions(tree, edge_determinant, semigroup, coprime, witnessed=False):
    """A condition report against the own computation.

    ``witnessed`` says the system's admissible exponents already passed
    check_system, which proves the semigroup condition without a search.
    """
    require(edge_determinant == tree.determinants_positive(), "edge determinant flag")
    require(semigroup == (witnessed or tree.semigroup_holds()), "semigroup flag")
    require(coprime == tree.pairwise_coprime(), "coprime flag")


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

def check_admissible(tree, v, u, exponent):
    """sum a_l * l'(v,l) == d(v,u) over the leaves beyond [v,u]; pairing
    with the node weight vector gives the total weight."""
    beyond = set(tree.beyond(v, u))
    require(len(exponent) == len(tree.leaves), "exponent has the wrong length")
    require(all(isinstance(a, int) and a >= 0 for a in exponent), "negative exponent")
    require(
        all(a == 0 or leaf in beyond for leaf, a in zip(tree.leaves, exponent)),
        f"exponent at ({v},{u}) leaves the far side of the edge",
    )
    total = sum(a * tree.reduced(v, leaf) for leaf, a in zip(tree.leaves, exponent) if a)
    require(total == tree.weight[(v, u)], f"exponent at ({v},{u}) misses d(v,e)")
    require(_dot(tree.vector(v), exponent) == tree.total(v),
            f"exponent at ({v},{u}) misses the total weight")


def _det(rows):
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = Fraction(rows[i][c]) / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


class NodeEquations:
    """One node's equations: exps[j] and coefficient rows[j][i] per star edge j."""

    def __init__(self, star, exps, rows):
        self.star = star
        self.exps = exps
        self.rows = rows

    def equation(self, i, drop=None):
        return {self.exps[j]: self.rows[j][i]
                for j in range(len(self.star)) if j != drop and self.rows[j][i]}


def check_system(tree, equations, vandermonde):
    """Read a system given as (node, index, terms) triples.

    Every term must be the admissible monomial of one edge at its node (so a
    tail would be rejected), every node must carry valency - 2 equations,
    the coefficient matrix must pass the Hamm condition, and with
    ``vandermonde`` it must be (j + 1) ** i in star order. Returns the
    verified equations per node.
    """
    by_node = {}
    for node, index, terms in equations:
        by_node.setdefault(node, []).append((index, terms))
    require(set(by_node) == set(tree.nodes), "equations do not cover the nodes")
    out = {}
    for v in tree.nodes:
        star = tree.star(v)
        k = len(star) - 2
        entries = sorted(by_node[v], key=lambda e: e[0])
        require([i for i, _ in entries] == list(range(1, k + 1)),
                f"equation indices at {v} are not 1..{k}")
        beyond = {u: set(tree.beyond(v, u)) for u in star}
        exps = [None] * len(star)
        rows = [[Fraction(0)] * k for _ in star]
        for i, (_, terms) in enumerate(entries):
            for m, c in terms:
                m = tuple(m)
                support = {l for l, a in zip(tree.leaves, m) if a}
                owners = [j for j, u in enumerate(star) if support <= beyond[u]]
                require(len(owners) == 1 and support, f"term {m} at {v} is not admissible")
                j = owners[0]
                require(exps[j] in (None, m), f"two exponents for one edge at {v}")
                require(rows[j][i] == 0 and c != 0, f"repeated or zero term at {v}")
                exps[j] = m
                rows[j][i] = Fraction(c)
        for j, u in enumerate(star):
            require(exps[j] is not None, f"no monomial for the edge ({v},{u})")
            check_admissible(tree, v, u, exps[j])
        require(all(_det(sel) != 0 for sel in combinations(rows, k)),
                f"coefficients at {v} break the Hamm condition")
        if vandermonde:
            require(rows == [[Fraction(j + 1) ** i for i in range(k)]
                             for j in range(len(star))],
                    f"coefficients at {v} are not the Vandermonde default")
        out[v] = NodeEquations(star, exps, rows)
    return out


def initial_form(poly, w):
    weights = {m: _dot(w, m) for m in poly}
    low = min(weights.values())
    return {m: c for m, c in poly.items() if weights[m] == low}


# ---------------------------------------------------------------------------
# Fans and membership
# ---------------------------------------------------------------------------

def check_fan(tree, rays, cones):
    """rays: label -> vector; cones: frozenset(label pair) -> multiplicity."""
    labels = tree.leaves + tree.nodes
    require(set(rays) == set(labels), "fan rays do not match the vertices")
    for label in labels:
        require(tuple(rays[label]) == tree.ray(label), f"ray {label} is wrong")
    require(set(cones) == tree.edges(), "fan cones do not match the edges")
    for pair, mult in cones.items():
        require(mult == tree.multiplicity(*sorted(pair)),
                f"multiplicity of {sorted(pair)} is wrong")


def in_fan(tree, w):
    """Own decision: is w a non-negative combination on one cell of the fan?"""
    w = tuple(Fraction(x) for x in w)
    for label in tree.leaves + tree.nodes:
        r = tree.ray(label)
        k = next(i for i, x in enumerate(r) if x)
        c = w[k] / r[k]
        if c > 0 and all(a == c * b for a, b in zip(w, r)):
            return True
    for a, b in tree.edge_list:
        r1, r2 = tree.ray(a), tree.ray(b)
        pairs = [(i, j) for i in range(len(w)) for j in range(i + 1, len(w))
                 if r1[i] * r2[j] - r1[j] * r2[i]]
        i, j = pairs[0]
        det = Fraction(r1[i] * r2[j] - r1[j] * r2[i])
        alpha = (w[i] * r2[j] - w[j] * r2[i]) / det
        beta = (r1[i] * w[j] - r1[j] * w[i]) / det
        if alpha > 0 and beta > 0 and all(
            alpha * x + beta * y == z for x, y, z in zip(r1, r2, w)
        ):
            return True
    return False


def check_cell(tree, w, kind, label, coeffs, cone=None):
    """w must equal the positive coefficients times the primitive rays.

    ``cone`` is the pair of labels a cone-built query was made on; the
    answer must then be that cone or one of its rays.
    """
    w = tuple(Fraction(x) for x in w)
    if kind == "on_ray":
        labels = (label,)
    else:
        require(kind == "in_cone", f"cell kind {kind!r} for an 'in' answer")
        labels = tuple(label)
        require(frozenset(labels) in tree.edges(), f"{labels} is not an edge")
    require(len(coeffs) == len(labels), "coefficient count does not match the cell")
    require(all(Fraction(c) > 0 for c in coeffs), "cell coefficient is not positive")
    rebuilt = [Fraction(0)] * len(w)
    for c, lab in zip(coeffs, labels):
        rebuilt = [x + Fraction(c) * y for x, y in zip(rebuilt, tree.ray(lab))]
    require(tuple(rebuilt) == w, "cell coefficients do not rebuild w")
    if cone is not None:
        require(set(labels) <= set(cone), f"cone-built query landed on {labels}")


def check_certificate(tree, eqs, w, node, edge, monomial, values, coefficients,
                      truncated=()):
    """The node's equations combined with the coefficients must have
    initial form exactly the monomial, with coefficient one."""
    w = tuple(Fraction(x) for x in w)
    require(node in eqs and tuple(edge)[0] == node, "certificate names no node edge")
    table = eqs[node]
    require(tuple(edge)[1] in table.star, "certificate edge is not at its node")
    j = table.star.index(tuple(edge)[1])
    require(tuple(monomial) == table.exps[j], "certificate monomial is not the edge's")
    require(not truncated, "no truncation was asked for")
    require(
        {u: Fraction(x) for u, x in values.items()}
        == {u: _dot(w, m) for u, m in zip(table.star, table.exps)},
        "certificate pairings are wrong",
    )
    k = len(table.star) - 2
    require(len(coefficients) == k, "certificate coefficient count")
    combo = {}
    for jj, m in enumerate(table.exps):
        c = sum(Fraction(y) * table.rows[jj][i] for i, y in enumerate(coefficients))
        if c:
            combo[m] = c
    require(combo, "certificate combination vanishes")
    require(initial_form(combo, w) == {table.exps[j]: 1},
            "certificate combination does not reduce to its monomial")


# ---------------------------------------------------------------------------
# End-curves
# ---------------------------------------------------------------------------

def end_curve_equations(tree, eqs, root):
    """Each minimal equation without the admissible monomial toward the root."""
    out = []
    for v in tree.nodes:
        table = eqs[v]
        drop = table.star.index(tree.toward(v, root))
        out.extend(table.equation(i, drop) for i in range(len(table.star) - 2))
    return out


def _log_abs_arg(x):
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return (math.log(abs(x.numerator)) - math.log(x.denominator),
                0.0 if x > 0 else math.pi)
    re, im = x.real, x.imag
    big = max(abs(re), abs(im))
    return math.log(big) + 0.5 * math.log((re / big) ** 2 + (im / big) ** 2), math.atan2(im, re)


def _finite_nonzero(c):
    if isinstance(c, (int, Fraction)):
        return c != 0
    return math.isfinite(c.real) and math.isfinite(c.imag) and c != 0


def check_end_curve(tree, eqs, root, leaves, exponents, g, components, tol=REL_TOL):
    """Exponents links/g, g components, finite nonzero coefficients, and the
    substitution z_l = c_l t^(e_l) cancels every t-degree of every equation.

    Rational components are checked exactly; floating ones within ``tol``.
    """
    check_end_curve_shape(tree, root, leaves, exponents, g, components)
    check_end_curve_coefficients(tree, eqs, root, exponents, components, tol)


def check_end_curve_shape(tree, root, leaves, exponents, g, components):
    """The other leaves in order, exponents links/g, and g components of
    that length: everything but the coefficients' values."""
    others = tuple(l for l in tree.leaves if l != root)
    require(tuple(leaves) == others, "end-curve leaves are not the other leaves")
    links = [tree.linking(root, l) for l in others]
    gg = _gcd_all(links)
    require(tuple(exponents) == tuple(x // gg for x in links), "end-curve exponents")
    require(g == gg, "component count g is not the gcd of the links")
    require(len(components) == gg, f"{len(components)} components, expected {gg}")
    require(all(len(comp) == len(others) for comp in components),
            "component has the wrong length")


def check_end_curve_coefficients(tree, eqs, root, exponents, components, tol=REL_TOL):
    """Every coefficient finite and nonzero, and the substitution cancels
    every t-degree (exactly for rational components, within ``tol`` else)."""
    others = tuple(l for l in tree.leaves if l != root)
    pos = [tree.leaves.index(l) for l in others]
    for comp in components:
        require(all(_finite_nonzero(c) for c in comp),
                "component coefficient is infinite, NaN or zero")
        exact = all(isinstance(c, (int, Fraction)) for c in comp)
        for poly in end_curve_equations(tree, eqs, root):
            groups = {}
            for m, c in poly.items():
                degree = sum(m[p] * e for p, e in zip(pos, exponents))
                groups.setdefault(degree, []).append((m, c))
            for terms in groups.values():
                if exact:
                    total = Fraction(0)
                    for m, c in terms:
                        value = Fraction(c)
                        for p, cf in zip(pos, comp):
                            if m[p]:
                                value *= Fraction(cf) ** m[p]
                        total += value
                    require(total == 0, "substitution leaves a nonzero t-degree")
                else:
                    logs = []
                    for m, c in terms:
                        mag, arg = _log_abs_arg(Fraction(c))
                        for p, cf in zip(pos, comp):
                            if m[p]:
                                lm, la = _log_abs_arg(cf)
                                mag += m[p] * lm
                                arg += m[p] * la
                        logs.append((mag, arg))
                    top = max(mag for mag, _ in logs)
                    total = sum(math.exp(mag - top) * complex(math.cos(a), math.sin(a))
                                for mag, a in logs)
                    require(abs(total) <= tol,
                            f"substitution residual {abs(total):.3g} above {tol}")


def parse_component(pair):
    """A CLI coefficient [re, im]: exact rational when both parts are
    rational literals, otherwise a complex float (which may be inf or nan)."""
    re, im = pair
    if im == "0" and all(ch.isdigit() or ch in "-/" for ch in re):
        return Fraction(re)
    return complex(float(re), float(im))
