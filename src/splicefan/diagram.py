"""Splice diagrams and their weight combinatorics.

A splice diagram is a finite tree without valency-2 vertices whose internal
vertices (nodes, valency >= 3) carry a positive integer weight on every
incident half-edge.  Leaves are ordered and index the coordinates of every
vector produced downstream.  All arithmetic is exact.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from functools import cache
from itertools import accumulate, combinations
from math import gcd

from .errors import GenerationExhausted
from .record import Record

# half-edge weight pool for the random generator: primes and prime powers <= 49
WEIGHT_POOL = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
               37, 41, 43, 47, 49)
# Pairwise coprime pool entries are powers of distinct primes, so no node
# carries more coprime leaf weights than the pool has primes.
MAX_COPRIME_LEAVES = len({next(p for p in range(2, w + 1) if w % p == 0) for w in WEIGHT_POOL})
RETRY_CAP = 10_000


class Violation(Record):
    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


class AdmissibleCoweight(Record):
    """Non-negative leaf exponents a with sum(a[l] * l'(v,l)) == d(v,e).

    The support sits on the leaves strictly beyond the edge e as seen from
    the node, and pairing the node weight vector with a gives the node's
    total weight.
    """

    node: str
    edge: tuple[str, str]
    coeffs: dict  # leaf id -> non-negative int, zero entries omitted

    def exponent(self, leaf_order) -> tuple[int, ...]:
        return tuple(self.coeffs.get(leaf, 0) for leaf in leaf_order)


class SpliceDiagram:
    """Weighted tree with ordered leaves; immutable once constructed.

    ``edges`` entries are ``(a, b, wa, wb)`` with ``wa``/``wb`` the half-edge
    weights at the corresponding endpoint (None at a leaf endpoint).
    Construction never validates; run :func:`validate` to collect violations
    before using any derived quantity.  ``is_tree`` says whether the edges
    make one tree on the vertices they name.
    """

    def __init__(self, leaves, nodes, edges):
        self.leaves = tuple(leaves)
        self.nodes = tuple(nodes)
        self._leaf_index = {l: i for i, l in enumerate(self.leaves)}
        self._node_set = set(self.nodes)
        self._weights = {}
        adjacency = {v: [] for v in self.leaves + self.nodes}
        edge_list = []
        for a, b, wa, wb in edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
            edge_list.append((a, b))
            if wa is not None:
                self._weights[(a, b)] = int(wa)
            if wb is not None:
                self._weights[(b, a)] = int(wb)
        self._raw_edges = tuple(edge_list)
        # canonical star order: leaf neighbours in leaf order, then node
        # neighbours in node order
        order = {l: (0, i) for i, l in enumerate(self.leaves)}
        order.update({v: (1, i) for i, v in enumerate(self.nodes)})
        self._adj = {
            v: tuple(sorted(nbrs, key=lambda x: order.get(x, (2, 0))))
            for v, nbrs in adjacency.items()
        }
        self._index_tree()
        self._conditions = self._coweights = None

    def _index_tree(self):
        """One iterative depth-first walk from the first vertex, then from
        each vertex it did not reach, over whatever graph the edges make.

        It keeps, in linear size: each vertex's parent (None at a root), its
        Euler interval [enter, exit) (the preorder numbers of its subtree),
        each node's total weight (when none of its weights is missing), and
        whether the graph is a tree (one walk reached every vertex and there
        is one edge fewer than vertices).  Input that :func:`validate`
        rejects is indexed too, so construction never fails.
        """
        adjacent, weights = self._adj, self._weights
        parent, enter, order, roots = {}, {}, [], 0
        for r in adjacent:
            if r in parent:
                continue
            roots += 1
            parent[r] = None
            stack = [r]
            while stack:
                x = stack.pop()
                enter[x] = len(order)
                order.append(x)
                for y in adjacent[x]:
                    if y not in parent:
                        parent[y] = x
                        stack.append(y)
        # a subtree is the run of preorder numbers from its root to its
        # last descendant, so a vertex's exit is its last child's
        exit_ = {}
        for x in reversed(order):
            end = exit_.setdefault(x, enter[x] + 1)
            p = parent[x]
            if p is not None and p not in exit_:
                exit_[p] = end
        total = {}
        for v in self.nodes:
            ws = [weights.get((v, u)) for u in adjacent[v]]
            if None not in ws:
                total[v] = math.prod(ws)
        self._parent, self._enter, self._exit, self._total = parent, enter, exit_, total
        self.is_tree = roots == 1 and len(self._raw_edges) == len(order) - 1

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.leaves)

    @property
    def vertices(self):
        return self.leaves + self.nodes

    def is_node(self, v) -> bool:
        return v in self._node_set

    def is_leaf(self, v) -> bool:
        return v in self._leaf_index

    def leaf_index(self, leaf) -> int:
        return self._leaf_index[leaf]

    def neighbors(self, v):
        return self._adj[v]

    def valency(self, v) -> int:
        return len(self._adj[v])

    def edges(self):
        """Undirected edges as (a, b) pairs, lexicographic by label."""
        return sorted((min(a, b), max(a, b)) for a, b in self._raw_edges)

    def internal_edges(self):
        return [(a, b) for a, b in self.edges() if self.is_node(a) and self.is_node(b)]

    def weight(self, v, u) -> int:
        """Half-edge weight at v on the edge [v, u]."""
        return self._weights[(v, u)]

    def total_weight(self, v) -> int:
        """Product of v's half-edge weights (1 at a leaf, which carries none)."""
        return 1 if v in self._leaf_index else self._total[v]

    def weights_off(self, x, a) -> int:
        """Product of x's weights toward its neighbours other than a (1 at a
        leaf)."""
        return _weights_off(self._adj, self._weights, x, a)

    def _require_tree(self):
        if not self.is_tree:
            raise ValueError("the diagram's graph is not a tree; validate() says why")

    def first_step(self, v, x):
        """The neighbour of v whose branch holds x: v's parent unless x lies
        in v's Euler interval, else the child whose interval holds x."""
        self._require_tree()
        enter, exit_ = self._enter, self._exit
        if x != v and x in enter and v in enter:
            t = enter[x]
            if not enter[v] < t < exit_[v]:
                return self._parent[v]
            for u in self._adj[v]:
                if self._parent[u] == v and enter[u] <= t < exit_[u]:
                    return u
        raise KeyError(f"no first step from {v!r} to {x!r}")

    def geodesic(self, u, v):
        """The unique vertex path from u to v (endpoints included): up from
        u through the parents to the first vertex whose Euler interval holds
        v, then down to v."""
        self._require_tree()
        enter, exit_, parent = self._enter, self._exit, self._parent
        up, t = [u], enter[v]
        while not enter[up[-1]] <= t < exit_[up[-1]]:
            up.append(parent[up[-1]])
        down = [v]
        while down[-1] != up[-1]:
            down.append(parent[down[-1]])
        return up + down[-2::-1]

    def _beyond_interval(self, v, u):
        """The side beyond the edge [v, u] as a test on preorder numbers:
        (lo, hi, inside), x beyond exactly when (lo <= enter[x] < hi) == inside."""
        self._require_tree()
        if v not in self._adj or u not in self._adj[v]:
            raise KeyError(f"({v!r}, {u!r}) is not an edge")
        if self._parent[u] == v:
            return self._enter[u], self._exit[u], True
        return self._enter[v], self._exit[v], False

    def leaves_beyond(self, v, u):
        """Leaves whose geodesic from v starts with the edge [v, u], in leaf order."""
        lo, hi, inside = self._beyond_interval(v, u)
        enter = self._enter
        return [l for l in self.leaves if (lo <= enter[l] < hi) == inside]

    def nodes_beyond(self, v, u):
        """Nodes whose geodesic from v starts with the edge [v, u], in node order."""
        lo, hi, inside = self._beyond_interval(v, u)
        enter = self._enter
        return [x for x in self.nodes if (lo <= enter[x] < hi) == inside]

    # -- linking numbers -----------------------------------------------------

    def linking_row(self, v):
        """{x: (linking number, reduced linking number) from v to x} over
        every vertex x other than v, and v itself at a node, where the pair
        is (total weight, 1).

        Built by one walk over the tree on every call and not kept: a caller
        that reads several entries of one row takes the row once.
        """
        self._require_tree()
        if v not in self._adj:
            raise KeyError(f"unknown vertex {v!r}")
        adjacent, weights = self._adj, self._weights
        total = self._total[v] if v in self._node_set else None  # a leaf has no weights
        row = {} if total is None else {v: (total, 1)}
        for u in adjacent[v]:
            near = 1 if total is None else total // weights[(v, u)]
            row.update(walk_beyond(adjacent, weights, v, u, near))
        return row

    def side_row(self, v, u):
        """v's row restricted to the vertices beyond the edge [v, u], from
        one walk of that side."""
        self._require_tree()
        if v not in self._adj or u not in self._adj[v]:
            raise KeyError(f"({v!r}, {u!r}) is not an edge")
        return walk_beyond(self._adj, self._weights, v, u, self.weights_off(v, u))

    def _entry(self, v, x):
        row = self.linking_row(v)
        if x not in row:
            raise KeyError(f"unknown vertex pair ({v!r}, {x!r})")
        return row[x]

    def linking_number(self, u, v) -> int:
        """Product of the weights adjacent to, but not on, the geodesic [u, v]."""
        return self._entry(u, v)[0]

    def reduced_linking(self, v, u) -> int:
        """Like linking_number but omitting the weights around both endpoints."""
        return self._entry(v, u)[1]

    def node_weight_vector(self, v) -> tuple[int, ...]:
        """The vector of linking numbers from node v to every leaf, in leaf order."""
        row = self.linking_row(v)
        return tuple(row[leaf][0] for leaf in self.leaves)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def star(cls, weights, node="n1", leaf_prefix="l"):
        leaves = [f"{leaf_prefix}{i + 1}" for i in range(len(weights))]
        edges = [(node, leaf, w, None) for leaf, w in zip(leaves, weights)]
        return cls(leaves, [node], edges)

    def __repr__(self):
        return f"SpliceDiagram(leaves={list(self.leaves)}, nodes={list(self.nodes)})"


def _weights_off(adjacent, weights, x, a):
    """Product of x's half-edge weights toward its neighbours other than a;
    1 at a leaf, which carries no weight."""
    out = 1
    for y in adjacent[x]:
        if y != a:
            out *= weights[(x, y)]
    return out


def walk_beyond(adjacent, weights, v, u, near=1):
    """The side beyond the edge [v, u] from one iterative walk:
    {x: (near * through * end, through)} over every vertex x whose geodesic
    from v starts with [v, u].

    through is the product of the weights adjacent to the interior of the
    path v...x and off it, end the product of x's own weights off the path
    (1 at a leaf).  With near = v's weights off u the pair is
    (l(v, x), l'(v, x)).  Only weights beyond u, pointing away from v, are
    read, so the generator walks a direction (with near = 1) before the
    weights toward v are drawn.
    """
    side = {}
    stack = [(u, v, near, 1)]
    while stack:
        x, back, outer, through = stack.pop()  # outer = near * through
        nbrs = adjacent[x]
        if len(nbrs) == 1:  # a leaf: no weights, nothing beyond it
            side[x] = (outer, through)
            continue
        end = 1
        for y in nbrs:
            if y != back:
                end *= weights[(x, y)]
        side[x] = (outer * end, through)
        for y in nbrs:
            if y != back:
                f = end // weights[(x, y)]
                stack.append((y, x, outer * f, through * f))
    return side


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(diagram: SpliceDiagram) -> list[Violation]:
    """Collect one violation per failed structural invariant (empty == valid)."""
    out = []
    verts = diagram.vertices
    if len(set(verts)) != len(verts):
        out.append(Violation("DuplicateVertex", "a vertex id is declared twice"))
        return out
    if not diagram.nodes:
        out.append(Violation("AtLeastOneNode", "diagram declares no node"))
    edge_count = len(diagram._raw_edges)
    if edge_count != len(verts) - 1 or not diagram.is_tree:
        out.append(Violation("Tree", "underlying graph is not a tree"))
        return out
    for v in verts:
        if diagram.valency(v) == 2:
            out.append(Violation("NoValencyTwo", f"vertex {v!r} has valency 2"))
    for leaf in diagram.leaves:
        if diagram.valency(leaf) != 1:
            out.append(Violation("LeafValency", f"leaf {leaf!r} has valency != 1"))
    for node in diagram.nodes:
        if diagram.valency(node) < 3:
            out.append(Violation("NodeValency", f"node {node!r} has valency < 3"))
    for node in diagram.nodes:
        for u in diagram.neighbors(node):
            w = diagram._weights.get((node, u))
            if w is None:
                out.append(Violation("MissingWeight", f"no weight at {node!r} toward {u!r}"))
            elif w < 1:
                out.append(Violation("PositiveWeight", f"weight at {node!r} toward {u!r} is {w}"))
    for leaf in diagram.leaves:
        for u in diagram.neighbors(leaf):
            if (leaf, u) in diagram._weights:
                out.append(Violation("LeafWeight", f"leaf {leaf!r} carries a weight"))
    return out


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

def edge_determinant(diagram: SpliceDiagram, edge) -> int:
    """d(u,v)*d(v,u) - linking(u,v) for an internal edge [u, v].

    For adjacent nodes the linking number is the product of u's weights off
    v times v's weights off u, so only the two stars are read.
    """
    a, b = edge
    if not (diagram.is_node(a) and diagram.is_node(b)):
        raise ValueError(f"edge ({a!r}, {b!r}) is not internal")
    if b not in diagram.neighbors(a):
        raise ValueError(f"({a!r}, {b!r}) is not an edge")
    return _edge_determinant(diagram._adj, diagram._weights, a, b)


def _edge_determinant(adjacent, weights, a, b):
    """The edge determinant of adjacent nodes a and b from their two stars,
    for a diagram and for the generator's attempt alike."""
    off = _weights_off(adjacent, weights, a, b) * _weights_off(adjacent, weights, b, a)
    return weights[(a, b)] * weights[(b, a)] - off


def semigroup_decompose(diagram: SpliceDiagram, v, e):
    """Lex-smallest non-negative solution of d(v,e) = sum a_l * l'(v,l).

    The sum runs over the leaves beyond the edge e = [v, u]; returns an
    AdmissibleCoweight or None when the edge weight is not in the semigroup
    spanned by the reduced linking numbers.  It runs a search of its own;
    :func:`admissible_coweights` shares one among all of a diagram's edges.
    """
    u = e[1] if e[0] == v else e[0]
    if not diagram.is_node(v):
        raise ValueError(f"{v!r} is not a node")
    if u not in diagram.neighbors(v):
        raise ValueError(f"{e!r} is not an edge at {v!r}")
    return _decompose(_Semigroups(diagram), v, u)


def _decompose(search, v, u):
    """The lex-smallest decomposition of d(v, u) on ``search``, or None.

    The leaves beyond u are settled in leaf order, each at the smallest
    exponent that leaves a remainder in the semigroup of the leaves after
    it, which the search's membership test decides.
    """
    diagram = search.diagram
    r = diagram.weight(v, u)
    if not search.member(v, u, 0, r):
        return None
    # the leaves beyond u in leaf order and the gcds of their later generators
    indices, rest_gcd = search.below(v, u)
    side = diagram.side_row(v, u)
    coeffs = {}
    for p, k in enumerate(indices):
        leaf = diagram.leaves[k]
        a = side[leaf][1]
        gs = rest_gcd[p + 1]
        if gs:
            # x*a == r (mod gs, the later leaves' gcd): walk that progression
            # up to the first x whose remainder the later leaves can make
            g = gcd(a, gs)
            m = gs // g
            start = (r // g) * pow(a // g, -1, m) % m
        else:
            start, m = r // a, 1  # the last leaf takes what is left
        x = next((x for x in range(start, r // a + 1, m)
                  if search.member(v, u, k + 1, r - x * a)), None)
        if x is None:
            raise AssertionError(f"membership test is inconsistent at {leaf!r}")
        if x:
            coeffs[leaf] = x
            r -= x * a
    return AdmissibleCoweight(node=v, edge=(v, u), coeffs=coeffs)


def _suffix_gcds(values):
    """[gcd(values[j:]) for j in 0..len(values)], 0 for the empty tail."""
    return list(accumulate(reversed(values), gcd, initial=0))[::-1]


def admissible_edge(diagram: SpliceDiagram, v, exponent):
    """The neighbour u of node v toward which ``exponent`` (leaf order) is
    an admissible monomial, or None when there is none.

    Admissible toward u: non-negative, nonzero, supported on the leaves
    beyond the edge [v, u], and sum(m_l * l'(v, l)) == d(v, u).  The
    beyond-sets of v's edges partition the leaves, so u is unique.
    """
    if not any(exponent) or min(exponent) < 0:
        return None
    support = [(leaf, e) for leaf, e in zip(diagram.leaves, exponent) if e]
    u = diagram.first_step(v, support[0][0])
    side = diagram.side_row(v, u)
    if not all(leaf in side for leaf, _ in support):
        return None
    return u if sum(e * side[leaf][1] for leaf, e in support) == diagram.weight(v, u) else None


class _Semigroups:
    """Membership in the semigroups S(x->y, i) spanned by l'(x, l) over the
    leaves l beyond the directed edge [x, y] with leaf index at least i, for
    every directed edge of one diagram.

    Targets are relative to their edge.  At a node y the leaves beyond [x, y]
    split over y's children b (its neighbours other than x), and
    l'(x, l) = A_b * l'(y, l) with A_b the product of y's weights off x and
    b, so S(x->y, i) is the sum of the parts A_b * S(y->b, i).  A target is
    split one part at a time, largest gcd first, each share running over the
    congruence progression that the later parts' gcd allows.  A leaf child's
    part is N * A_b, which holds every share offered to it, so the search
    never enters a leaf; a node child's share, divided by A_b, is split
    again at b.  Every answer is kept under (x, y, i, j, r), the split of r
    over parts j onward, so the searches of all the edges share it.

    Each split is a generator that yields the keys it needs and is sent
    their answers, driven by one explicit stack (:meth:`_settle`), so the
    search keeps no Python frames per level of the tree.  The memos live on
    the instance, which refers to nothing but its diagram.
    """

    def __init__(self, diagram):
        self.diagram = diagram
        self._below, self._parts, self._seen = {}, {}, {}

    def member(self, x, y, i, t):
        """Whether t lies in S(x->y, i)."""
        if t < 0:
            return False
        d = self.diagram
        if d.is_leaf(y):  # S(x->y, i) is N when y counts, {0} when not
            return t == 0 or d.leaf_index(y) >= i
        g = self._parts_at(x, y, i)[1][0]
        return t == 0 or g != 0 and t % g == 0 and self._settle((x, y, i, 0, t))

    def below(self, y, b):
        """(indices, gcds) for the edge [y, b]: the leaf indices beyond b in
        ascending order and the suffix gcds of their generators l'(y, l),
        listed once."""
        out = self._below.get((y, b))
        if out is None:
            d = self.diagram
            leaves = [b] if d.is_leaf(b) else d.leaves_beyond(y, b)
            side = d.side_row(y, b)
            out = self._below[y, b] = ([d.leaf_index(l) for l in leaves],
                                       _suffix_gcds([side[l][1] for l in leaves]))
        return out

    def _parts_at(self, x, y, i):
        """(parts, gcds) of the split of S(x->y, i) at y.  parts are
        (gcd of A_b * S(y->b, i), b, i_b, gcd of S(y->b, i)) over y's
        children b with a leaf from i on, largest first, where i_b is the
        first leaf index beyond b from i on, so S(y->b, i) = S(y->b, i_b)
        and its gcd is one bisection into b's listed leaves; gcds[j] is the
        gcd of parts[j:], 0 when there are none."""
        out = self._parts.get((x, y, i))
        if out is None:
            d = self.diagram
            off = d.weights_off(y, x)
            parts = []
            for b in d.neighbors(y):
                if b != x:
                    indices, gcds = self.below(y, b)
                    k = bisect_left(indices, i)
                    if k < len(indices):
                        a = off // d.weight(y, b) * gcds[k]
                        parts.append((a, b, indices[k], gcds[k]))
            # largest generator first: its share has the fewest candidates
            parts.sort(reverse=True)
            out = self._parts[x, y, i] = parts, _suffix_gcds([a for a, _, _, _ in parts])
        return out

    def _settle(self, key):
        """The answer for key (x, y, i, j, r), r > 0 a multiple of the gcd of
        parts[j:], driving the splits it needs from one stack of suspended
        generators; each runs once and is never restarted."""
        seen, split = self._seen, self._split
        value = seen.get(key)
        stack = [] if value is not None else [(key, split(*key))]
        while stack:
            key, frame = stack[-1]
            try:
                need = frame.send(value)
            except StopIteration as done:
                value = seen[key] = done.value
                stack.pop()
                continue
            # a yielded key's target is a multiple of its parts' gcd already
            value = need[4] == 0 or seen.get(need)
            if value is None:
                stack.append((need, split(*need)))
        return value

    def _split(self, x, y, i, j, r):
        """Whether r lies in the sum of parts[j:] at y, as a generator that
        yields each key it needs: a node child's share, a multiple of that
        child's gcd, and the rest for parts[j + 1:], on the progression of
        their gcd."""
        parts, gcds = self._parts_at(x, y, i)
        a, b, i_b, g_b = parts[j]
        leaf = self.diagram.is_leaf(b)
        if j == len(parts) - 1:
            return leaf or (yield (y, b, i_b, 0, r // a * g_b))
        # a*t == r (mod gcds[j + 1]); walk that progression
        g = gcds[j]
        m = gcds[j + 1] // g
        start = (r // g) * pow(a // g, -1, m) % m
        for t in range(start, r // a + 1, m):
            if (leaf or (yield (y, b, i_b, 0, t * g_b))) and (yield (x, y, i, j + 1, r - t * a)):
                return True
        return False


class ConditionReport(Record):
    edge_determinant: bool
    semigroup: bool
    coprime: bool

    def all(self) -> bool:
        return self.edge_determinant and self.semigroup and self.coprime


def check_conditions(diagram: SpliceDiagram) -> ConditionReport:
    """The diagram's condition report, computed on the first call and kept
    on the diagram.  The semigroup condition is one membership test per
    (node, neighbour) on one shared search; no witness is extracted."""
    report = diagram._conditions
    if report is None:
        report = diagram._conditions = _condition_report(diagram)
    return report


def _condition_report(diagram):
    det_ok = all(edge_determinant(diagram, e) > 0 for e in diagram.internal_edges())
    search = _Semigroups(diagram)
    semigroup_ok = all(search.member(v, u, 0, diagram.weight(v, u))
                       for v in diagram.nodes for u in diagram.neighbors(v))
    coprime_ok = all(gcd(diagram.weight(v, a), diagram.weight(v, b)) == 1
                     for v in diagram.nodes for a, b in combinations(diagram.neighbors(v), 2))
    return ConditionReport(det_ok, semigroup_ok, coprime_ok)


def admissible_coweights(diagram: SpliceDiagram):
    """{(node, neighbour): AdmissibleCoweight}, the lex-smallest
    decomposition of every edge weight at a node, from one search shared by
    all of them.  Computed on the first call and kept on the diagram once
    complete; None, and nothing kept, when one edge weight has none."""
    out = diagram._coweights
    if out is None:
        search = _Semigroups(diagram)
        out = {(v, u): _decompose(search, v, u)
               for v in diagram.nodes for u in diagram.neighbors(v)}
        if None in out.values():
            return None
        diagram._coweights = out
    return out


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

def random_diagram(n_leaves: int, n_nodes: int, seed, require_coprime: bool = True) -> SpliceDiagram:
    """Deterministic-in-seed random diagram passing validate and both conditions.

    Strategy: random node tree, leaves distributed to reach valency three,
    leaf weights drawn from a shuffled coprime pool, internal half-edge
    weights drawn as random semigroup elements.  An attempt whose weights
    fail an edge determinant, or leave a node without a coprime weight,
    is rejected before a diagram is built, and the next attempt goes on
    from the same random stream; a built diagram is validated and its
    conditions checked before it is handed out.  Shuffles draw exactly what
    ``random.Random.shuffle`` draws, so a seed always gives the same diagram.
    """
    if n_leaves < 3 or n_nodes < 1 or n_nodes > n_leaves - 2:
        raise GenerationExhausted(
            f"no diagram with {n_leaves} leaves and {n_nodes} nodes exists"
        )
    if require_coprime and n_leaves > MAX_COPRIME_LEAVES * n_nodes:
        raise GenerationExhausted(
            f"no coprime diagram with {n_leaves} leaves and {n_nodes} nodes exists: "
            f"a node carries at most {MAX_COPRIME_LEAVES} pairwise coprime leaf weights"
        )
    rng = random.Random(seed)
    budget = RETRY_CAP
    while budget > 0:
        budget -= 1
        d = _attempt(rng, n_leaves, n_nodes, require_coprime)
        if d is None:
            continue
        # the semigroup condition holds by construction and the attempt has
        # checked the edge determinants; both are re-verified before the
        # diagram is handed out
        if validate(d):
            continue
        report = check_conditions(d)
        if report.edge_determinant and report.semigroup and (
            report.coprime or not require_coprime
        ):
            return d
    raise GenerationExhausted(
        f"retry cap hit for {n_leaves} leaves, {n_nodes} nodes, seed {seed!r}"
    )


def _shuffle(rng, items):
    """Shuffle the list in place with exactly the draws of ``rng.shuffle``.

    For i from the last index down to 1, j is ``rng.getrandbits(k)`` with
    k = (i + 1).bit_length(), drawn again until j <= i, and items i and j
    swap: CPython's Fisher-Yates shuffle, without its per-draw method call.
    The (i, k) steps of each length are computed once.
    """
    getrandbits = rng.getrandbits
    for i, k in _shuffle_steps(len(items)):
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


@cache
def _shuffle_steps(length):
    return tuple((i, (i + 1).bit_length()) for i in range(length - 1, 0, -1))


def _below(getrandbits, n):
    """A uniform integer in [0, n), n >= 1, with exactly the draws of
    CPython's ``Random._randbelow``: ``getrandbits(n.bit_length())``, drawn
    again until below n.  So ``rng.randrange(n)``, ``rng.randint(a, b)`` and
    ``rng.choice(seq)`` are ``_below(rng.getrandbits, n)``,
    ``a + _below(rng.getrandbits, b - a + 1)`` and
    ``seq[_below(rng.getrandbits, len(seq))]``, without their method layers.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _attempt(rng, n_leaves, n_nodes, require_coprime):
    getrandbits, random = rng.getrandbits, rng.random
    nodes = [f"n{i + 1}" for i in range(n_nodes)]
    node_edges = [(nodes[i], nodes[_below(getrandbits, i)]) for i in range(1, n_nodes)]
    deg = {v: 0 for v in nodes}
    for a, b in node_edges:
        deg[a] += 1
        deg[b] += 1
    # each node needs valency >= 3; hand out mandatory leaves, then the rest
    slots = []
    for v in nodes:
        slots.extend([v] * max(0, 3 - deg[v]))
    extra = n_leaves - len(slots)
    if extra < 0:
        return None
    slots.extend(nodes[_below(getrandbits, n_nodes)] for _ in range(extra))
    _shuffle(rng, slots)
    leaves = [f"l{i + 1}" for i in range(n_leaves)]
    leaf_edges = list(zip(slots, leaves))

    adjacency = {x: [] for x in nodes + leaves}
    for a, b in node_edges + leaf_edges:
        adjacency[a].append(b)
        adjacency[b].append(a)

    # the product of the weights already placed around each node: a weight
    # is coprime to each of them exactly when it is coprime to the product
    used = {v: 1 for v in nodes}

    def compatible(w, v):
        return not require_coprime or gcd(w, used[v]) == 1

    weights = {}
    for v, leaf in leaf_edges:
        pool = list(WEIGHT_POOL)
        _shuffle(rng, pool)
        w = next((w for w in pool if compatible(w, v)), None)
        if w is None:
            return None
        weights[(v, leaf)] = w
        used[v] *= w

    # Internal half-weights are drawn as explicit semigroup combinations of
    # the reduced linking numbers beyond the edge, so the semigroup condition
    # holds by construction.  A direction (v -> u) only depends on weights at
    # vertices strictly beyond u, so processing directions by increasing
    # number of nodes beyond settles everything in one pass.  Each node's
    # parent in node_edges comes earlier in the node order, so subtree sizes
    # add up from the last edge back.
    subtree = {v: 1 for v in nodes}
    for a, b in reversed(node_edges):
        subtree[b] += subtree[a]
    directions = []
    for a, b in node_edges:
        directions.append((a, b, n_nodes - subtree[a]))
        directions.append((b, a, subtree[a]))
    directions.sort(key=lambda t: t[2])

    for v, u, _ in directions:
        gens = sorted(
            through
            for x, (_, through) in walk_beyond(adjacency, weights, v, u).items()
            if x not in used  # the leaves beyond
        )
        value = None
        for _ in range(30):
            # keep internal weights comfortably above the largest generator so
            # the edge determinant condition has a fighting chance
            cand = gens[-1] * (2 + _below(getrandbits, 4)) + sum(
                g for g in gens[:-1] if random() < 0.5
            )
            if compatible(cand, v):
                value = cand
                break
        if value is None:
            return None
        weights[(v, u)] = value
        used[v] *= value

    # every weight is drawn; an internal edge whose determinant is not
    # positive rejects the attempt before a diagram is built
    for a, b in node_edges:
        if _edge_determinant(adjacency, weights, a, b) <= 0:
            return None

    edges = [(v, leaf, weights[(v, leaf)], None) for v, leaf in leaf_edges]
    edges += [(a, b, weights[(a, b)], weights[(b, a)]) for a, b in node_edges]
    return SpliceDiagram(leaves, nodes, edges)

