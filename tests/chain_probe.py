"""The linking layer and the conditions on deep chains, checked against
closed forms.

    python tests/chain_probe.py [NODES [ROWS]]
    python tests/chain_probe.py valid [NODES]

``chain_doc(n)`` is a path of n nodes, one leaf of weight 2 at each node
and leaves of weights 2 and 3 at each end, with weight 1 on both sides of
every internal edge.  ``probe(n, rows)`` builds it, checks every edge
determinant, the first steps and sides of its middle node, and the full
rows of linking numbers of ``rows`` nodes spread along the path, one row at
a time.  The tests run it under a lowered recursion limit and a bound on
traced memory.  Run as a script it probes NODES (default 10,000) with ROWS
rows (default 3), then checks the chain's conditions, which fail as
``CHAIN_REPORT`` says, and prints the time each took and the process's peak
resident memory.

``valid_chain_doc(n)`` is a path of n nodes whose semigroup condition holds
by construction, for the semigroup search on deep diagrams; run as
``valid NODES`` (default 1,200) the script checks that chain's conditions,
which come out as ``VALID_CHAIN_REPORT`` says, and prints the time they took
and the process's peak resident memory.  ``random_chain_doc(n, seed)`` is a
path weighted as the random generator weights its diagrams.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from math import gcd

from splicefan import check_conditions, edge_determinant, validate
from splicefan.diagram import WEIGHT_POOL, walk_beyond
from splicefan.documents import diagram_from_doc

# (edge determinant, semigroup, coprime) of chain_doc(n), n >= 3: every edge
# determinant is 1 - 2 * 2 or less, and d(n2, n1) = 1 is not in <2, 3>
CHAIN_REPORT = (False, False, True)
# the same of valid_chain_doc(n) from n = 3 on (seen up to 1,200): every
# edge determinant is negative, and n1's even half-weight toward n2 shares
# a factor with its leaf weight 2
VALID_CHAIN_REPORT = (False, True, False)


def chain_doc(length):
    """A path of ``length`` nodes, one leaf at each node and two at each end."""
    nodes = [f"n{i}" for i in range(1, length + 1)]
    leaves, edges = [], []
    for i, node in enumerate(nodes):
        for weight in (2, 3) if i in (0, length - 1) else (2,):
            leaves.append(f"l{len(leaves) + 1}")
            edges.append({"a": node, "b": leaves[-1], "wa": weight})
    edges += [{"a": a, "b": b, "wa": 1, "wb": 1} for a, b in zip(nodes, nodes[1:])]
    return {"leaves": leaves, "nodes": nodes, "edges": edges}


def valid_chain_doc(length):
    """A path of ``length`` nodes with leaves of weights 2 and 3 at each end
    and alternating 2, 3 at the inner nodes.  Each half-weight d(v, u) is
    the largest plus the smallest l'(v, l) over the leaves l beyond u, so
    the semigroup condition holds."""
    return _chain(length, lambda i: (2, 3) if i in (0, length - 1) else (3 - i % 2,),
                  lambda gens, used: max(gens) + min(gens))


def random_chain_doc(length, seed=0):
    """A path of ``length`` nodes, one leaf at each node and two at each end,
    weighted as ``random_diagram`` draws its weights but without its edge
    determinant rejection: leaf weights from a shuffled ``WEIGHT_POOL``,
    coprime at each node, and each half-weight the largest l'(v, l) beyond
    times 2 to 5 plus a random subset of the others, coprime to v's weights
    placed before it if one of 30 draws is.  The semigroup condition holds
    by construction."""
    rng = random.Random(seed)

    def leaf_weights(i):
        out, used = [], 1
        for _ in range(2 if i in (0, length - 1) else 1):
            pool = list(WEIGHT_POOL)
            rng.shuffle(pool)
            out.append(next(w for w in pool if gcd(w, used) == 1))
            used *= out[-1]
        return out

    def half_weight(gens, used):
        gens = sorted(gens)
        for _ in range(30):
            value = gens[-1] * (2 + rng.randrange(4)) + sum(
                g for g in gens[:-1] if rng.random() < 0.5)
            if gcd(value, used) == 1:
                break
        return value

    return _chain(length, leaf_weights, half_weight)


def _chain(length, leaf_weights, half_weight):
    """A path of ``length`` nodes; node i's leaves carry ``leaf_weights(i)``.
    Each half-weight d(v, u) is ``half_weight(gens, used)``, with gens the
    l'(v, l) over the leaves l beyond u and used the product of v's weights
    placed before it, drawn by increasing number of nodes beyond, as the
    generator draws them, so that only weights already drawn are read."""
    nodes = [f"n{i}" for i in range(1, length + 1)]
    adjacency = {v: [] for v in nodes}
    leaves, weights, used = [], {}, dict.fromkeys(nodes, 1)
    for i, node in enumerate(nodes):
        for weight in leaf_weights(i):
            leaves.append(f"l{len(leaves) + 1}")
            adjacency[node].append(leaves[-1])
            adjacency[leaves[-1]] = [node]
            weights[(node, leaves[-1])] = weight
            used[node] *= weight
    pairs = list(zip(nodes, nodes[1:]))
    for a, b in pairs:
        adjacency[a].append(b)
        adjacency[b].append(a)
    # (v, u, nodes beyond u): n_i -> n_i+1 has length - i - 1 nodes beyond
    directions = [(a, b, length - i - 1) for i, (a, b) in enumerate(pairs)]
    directions += [(b, a, i + 1) for i, (a, b) in enumerate(pairs)]
    for v, u, _ in sorted(directions, key=lambda t: t[2]):
        gens = [through for x, (_, through) in walk_beyond(adjacency, weights, v, u).items()
                if len(adjacency[x]) == 1]
        weights[(v, u)] = half_weight(gens, used[v])
        used[v] *= weights[(v, u)]
    edges = [{"a": node, "b": leaf, "wa": w} for (node, leaf), w in weights.items()
             if len(adjacency[leaf]) == 1]
    edges += [{"a": a, "b": b, "wa": weights[(a, b)], "wb": weights[(b, a)]} for a, b in pairs]
    return {"leaves": leaves, "nodes": nodes, "edges": edges}


def probe(length, rows=3):
    """Read the linking layer of the ``length``-node chain; raise
    AssertionError at the first value off its closed form."""
    doc = chain_doc(length)
    d = diagram_from_doc(doc)
    assert validate(d) == []
    nodes = d.nodes
    position = {v: i for i, v in enumerate(nodes)}  # vertex -> index of its node
    leaf_weight = {}
    for e in doc["edges"]:
        if "wb" not in e:  # the edges to leaves
            position[e["b"]] = position[e["a"]]
            leaf_weight[e["b"]] = e["wa"]
    del doc

    def product(lo, hi):
        """The product of the leaf weights at nodes lo..hi (2 each, and 3
        more at an end node), the only weights other than 1; 1 when lo > hi."""
        if lo > hi:
            return 1
        return 3 ** ((lo == 0) + (hi == length - 1)) << (hi - lo + 1)

    # d(a, b) d(b, a) - (a's weights off b)(b's weights off a) = 1 - 2 * 2 inside
    off = [product(i, i) for i in range(length)]
    for i, edge in enumerate(zip(nodes, nodes[1:])):
        assert edge_determinant(d, edge) == 1 - off[i] * off[i + 1], edge

    m = length // 2
    mid = nodes[m]
    for x in d.vertices:
        if x != mid:
            j = position[x]
            expected = x if j == m else nodes[m - 1] if j < m else nodes[m + 1]
            assert d.first_step(mid, x) == expected, x
    for u, keep in ((nodes[m - 1], lambda j: j < m), (nodes[m + 1], lambda j: j > m)):
        assert d.leaves_beyond(mid, u) == [l for l in d.leaves if keep(position[l])]
        assert d.nodes_beyond(mid, u) == [x for x in nodes if keep(position[x])]

    for k in range(rows):
        i = k * (length - 1) // max(rows - 1, 1)
        row = d.linking_row(nodes[i])
        assert len(row) == len(d.vertices)
        for x, pair in row.items():
            j = position[x]
            lo, hi = min(i, j), max(i, j)
            if x in leaf_weight:
                # the path n_i ... n_j x: off it, every leaf weight at n_lo..n_hi
                # but x's; reduced, those at the nodes after n_i only
                w = leaf_weight[x]
                after = product(i + 1, j) if j > i else product(j, i - 1)
                expected = product(lo, hi) // w, 1 if j == i else after // w
            else:
                expected = product(lo, hi), product(lo + 1, hi - 1)
            assert pair == expected, (nodes[i], x)
    return d


def main(argv):
    if argv[1:2] == ["valid"]:
        length = int(argv[2]) if len(argv) > 2 else 1200
        d = diagram_from_doc(valid_chain_doc(length))
        out, expected = {"nodes": length, "valid": True}, VALID_CHAIN_REPORT
    else:
        length = int(argv[1]) if len(argv) > 1 else 10_000
        rows = int(argv[2]) if len(argv) > 2 else 3
        start = time.perf_counter()
        d = probe(length, rows)
        out = {"nodes": length, "rows": rows, "seconds": round(time.perf_counter() - start, 2)}
        expected = CHAIN_REPORT
    start = time.perf_counter()
    report = check_conditions(d)
    conditions_seconds = time.perf_counter() - start
    flags = (report.edge_determinant, report.semigroup, report.coprime)
    assert flags == expected, flags
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({**out, "conditions": flags, "conditions_seconds": round(conditions_seconds, 2),
                      "peak_rss_mb": round(peak_mb, 1)}))


if __name__ == "__main__":
    main(sys.argv)
