"""Semigroup decompositions against a leaf-order reference search.

``semigroup_decompose`` settles the leaves beyond an edge in leaf order with
a tree-split membership test.  The reference below is the plain search it
replaced: it walks every leaf's congruence progression depth first and
takes exponential time in the number of generators, so it only runs on
diagrams where that is affordable.
"""

import json
import random
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LADDER
from splicefan import SpliceDiagram, check_conditions, random_diagram, semigroup_decompose
from splicefan.documents import diagram_from_doc

GOLDEN = Path(__file__).with_name("golden") / "cli.json"


def _two_gen_min(r, a, b):
    """Smallest x >= 0 with x*a + y*b == r for some y >= 0, else None."""
    g = gcd(a, b)
    if r % g:
        return None
    a2, b2, r2 = a // g, b // g, r // g
    x = 0 if b2 == 1 else (r2 * pow(a2, -1, b2)) % b2
    return x if x * a <= r else None


def lex_min_combination(target, gens):
    """Lex-smallest non-negative integer solution of sum(x_i * gens_i) == target.

    Ascending search on each coordinate, pruned by suffix gcd congruences and
    solved in closed form once two generators remain.
    """
    k = len(gens)
    if k == 0:
        return [] if target == 0 else None
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = gcd(gens[i], suffix[i + 1])
    dead = set()

    def search(i, r):
        if r == 0:
            return [0] * (k - i)
        if i == k or r % suffix[i]:
            return None
        if i == k - 1:
            return [r // gens[i]] if r % gens[i] == 0 else None
        if i == k - 2:
            x = _two_gen_min(r, gens[i], gens[i + 1])
            if x is None:
                return None
            return [x, (r - x * gens[i]) // gens[i + 1]]
        if (i, r) in dead:
            return None
        a, gs = gens[i], suffix[i + 1]
        g2 = gcd(a, gs)
        if r % g2:
            dead.add((i, r))
            return None
        m = gs // g2
        start = 0 if m == 1 else ((r // g2) * pow(a // g2, -1, m)) % m
        for x in range(start, r // a + 1, m):
            rest = search(i + 1, r - x * a)
            if rest is not None:
                return [x] + rest
        dead.add((i, r))
        return None

    try:
        return search(0, target)
    finally:
        del search


def reference_coeffs(diagram, v, u):
    """The reference search's decomposition of d(v, u) as {leaf: a}, or None."""
    support = diagram.leaves_beyond(v, u)
    gens = [diagram.reduced_linking(v, leaf) for leaf in support]
    sol = lex_min_combination(diagram.weight(v, u), gens)
    if sol is None:
        return None
    return {leaf: a for leaf, a in zip(support, sol) if a}


def assert_matches_reference(diagram):
    """Compare every (node, neighbour) pair; returns how many were infeasible."""
    infeasible = 0
    for v in diagram.nodes:
        for u in diagram.neighbors(v):
            got = semigroup_decompose(diagram, v, (v, u))
            want = reference_coeffs(diagram, v, u)
            if want is None:
                infeasible += 1
                assert got is None, (diagram, v, u)
            else:
                assert got is not None and got.coeffs == want, (diagram, v, u)
                assert got.edge == (v, u)
    return infeasible


def random_tree(rng, n_nodes, max_weight):
    """A tree with n_nodes nodes, 3+ leaves per end, arbitrary positive weights.

    The weights need not be coprime and the semigroup condition need not
    hold; the leaf order is shuffled against the tree.
    """
    nodes = [f"n{i + 1}" for i in range(n_nodes)]
    node_edges = []
    degree = {v: 0 for v in nodes}
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        node_edges.append((nodes[i], nodes[j]))
        degree[nodes[i]] += 1
        degree[nodes[j]] += 1
    slots = [v for v in nodes for _ in range(max(0, 3 - degree[v]))]
    slots += [rng.choice(nodes) for _ in range(rng.randrange(3))]
    rng.shuffle(slots)
    leaves = [f"l{i + 1}" for i in range(len(slots))]
    # internal weights up to max_weight ** 3 reach past the small generators
    edges = [(a, b, rng.randint(1, max_weight ** rng.randint(1, 3)),
              rng.randint(1, max_weight ** rng.randint(1, 3))) for a, b in node_edges]
    edges += [(v, leaf, rng.randint(1, max_weight), None) for v, leaf in zip(slots, leaves)]
    rng.shuffle(leaves)
    return SpliceDiagram(leaves, nodes, edges)


def test_matches_reference_on_the_ladder():
    for n, k in LADDER:
        for seed in (0, 1, 2):
            assert assert_matches_reference(random_diagram(n, k, seed)) == 0


def test_matches_reference_on_the_golden_corpus():
    files = json.loads(GOLDEN.read_text())["files"]
    names = ("d1.json", "r6.json", "r8.json", "r9.json", "det.json", "semi.json")
    infeasible = 0
    for name in names:
        infeasible += assert_matches_reference(diagram_from_doc(json.loads(files[name])))
    # the edge weights 1 of det.json (both ends) and semi.json (one end)
    assert infeasible == 3


def test_matches_reference_on_random_trees():
    rng = random.Random(6)
    pairs = infeasible = not_coprime = 0
    for _ in range(3000):
        d = random_tree(rng, rng.randint(1, 5), rng.choice((6, 12, 30, 60)))
        pairs += sum(d.valency(v) for v in d.nodes)
        infeasible += assert_matches_reference(d)
        not_coprime += not check_conditions(d).coprime
    # both answers occur often, and so do non-coprime weights
    assert pairs > 20_000 and 5_000 < infeasible < pairs - 5_000
    assert not_coprime > 1_000


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.sampled_from((4, 12, 49, 200)))
def test_matches_reference_property(seed, n_nodes, max_weight):
    assert_matches_reference(random_tree(random.Random(seed), n_nodes, max_weight))

