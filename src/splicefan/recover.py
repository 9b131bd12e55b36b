"""Recovery of coprime splice diagrams from their weighted splice fans.

With every tropical multiplicity equal to one, the weights around each node
can be read off from gcds and lcms of node ray entries: end-nodes are
pruned one at a time, each by an exact division through its leaf block,
until a star is left.  Fans carrying a multiplicity other than one are
refused: distinct diagrams can share such a fan.
"""

from __future__ import annotations

from math import gcd, lcm

from .diagram import SpliceDiagram, check_conditions, validate
from .errors import NonCoprimeFan, NotRealizable, SolveFailed, VerificationFailed
from .exact import gcd_list
from .fan import SpliceFan, splice_fan


def _check_fan_input(fan: SpliceFan):
    """Refuse a malformed or non-coprime fan; return its cone tree as
    adjacency sets, ray label -> labels sharing a cone."""
    n = fan.n
    if len(fan.ray_by_label) != len(fan.rays):
        raise NotRealizable("ray labels repeat")
    leaves, nodes = fan.leaf_labels(), fan.node_labels()
    if len(leaves) != n or len(leaves) + len(nodes) != len(fan.rays):
        raise NotRealizable("unit rays do not give every coordinate exactly once")
    if not nodes:
        raise NotRealizable("the fan has no node ray")
    if any(len(r.vector) != n for r in fan.rays):
        raise NotRealizable("ray vectors have inconsistent lengths")
    for ray in fan.rays:
        label, vec = ray.label, ray.vector
        if any(x < 0 for x in vec) or all(x == 0 for x in vec):
            raise NotRealizable(f"ray {label!r} is not a nonzero non-negative vector")
        if gcd_list(vec) != 1:
            raise NotRealizable(f"ray {label!r} is not primitive")
        # a node ray lists linking numbers, which are all positive
        if not (ray.is_unit() or all(vec)):
            raise NotRealizable(f"node ray {label!r} is not strictly positive")
    # the link of the fan must be a tree on the ray labels
    if len(fan.cones) != len(fan.rays) - 1:
        raise NotRealizable("cone count does not match a tree")
    adjacency = {r.label: set() for r in fan.rays}
    for cone in fan.cones:
        a, b = cone.rays
        if a not in adjacency or b not in adjacency:
            raise NotRealizable(f"cone {cone.rays} uses an unknown ray")
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    stack = [fan.rays[0].label]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adjacency[x] - seen)
    if len(seen) != len(fan.rays):
        raise NotRealizable("fan link is not connected")
    for leaf in leaves:
        if len(adjacency[leaf]) != 1:
            raise NotRealizable(f"unit ray {leaf!r} does not lie on exactly one cone")
    if any(c.multiplicity != 1 for c in fan.cones):
        raise NonCoprimeFan(
            "a multiplicity differs from one; recovery would be ambiguous"
        )
    return adjacency


def recover_star(w) -> SpliceDiagram:
    """The unique coprime star diagram whose node weight vector is w.

    Each weight is the gcd of the other entries; the reconstruction is
    checked by recomputing the weight vector.
    """
    w = tuple(int(x) for x in w)
    if len(w) < 3 or any(x <= 0 for x in w):
        raise NotRealizable("need at least three strictly positive entries")
    if gcd_list(w) != 1:
        raise NotRealizable("entries are not overall coprime")
    weights = [
        gcd_list(x for j, x in enumerate(w) if j != i) for i in range(len(w))
    ]
    diagram = SpliceDiagram.star(weights)
    if validate(diagram) or diagram.node_weight_vector(diagram.nodes[0]) != w:
        raise NotRealizable(f"{w} is not the weight vector of a star diagram")
    if not check_conditions(diagram).coprime:
        raise NotRealizable(f"{w} does not come from pairwise coprime weights")
    return diagram


def recover(fan: SpliceFan) -> SpliceDiagram:
    """Reconstruct the unique coprime diagram whose splice fan is the input.

    Prunes end-nodes one at a time, in one loop (see ``_recover_tree``),
    until a star is left, and builds the diagram once from the fan's cones.
    The result is verified by rebuilding its fan.
    """
    adjacency = _check_fan_input(fan)
    diagram = _recover_tree(fan, adjacency)
    if validate(diagram):
        raise VerificationFailed("recovered object is not a valid splice diagram")
    report = check_conditions(diagram)
    if not (report.edge_determinant and report.semigroup and report.coprime):
        raise VerificationFailed("recovered diagram fails the diagram conditions")
    if _unordered(splice_fan(diagram)) != _unordered(fan):
        raise VerificationFailed("recovered diagram does not reproduce the fan")
    return diagram


def _unordered(fan: SpliceFan):
    """The fan up to document order: its rays, and its cones' multiplicities."""
    return (
        {(r.label, tuple(r.vector)) for r in fan.rays},
        {frozenset(c.rays): c.multiplicity for c in fan.cones},
    )


def _recover_tree(fan: SpliceFan, adjacency) -> SpliceDiagram:
    """Read every half-edge weight by pruning the smallest-labelled end-node.

    ``coords`` are the current coordinates and ``vectors`` each remaining
    node's ray keyed by them.  The end-node u next to v has the leaf block
    B of its coordinates; the gcd and lcm of u's entries on B are d(u, v)
    and u's total weight toward B, whose quotients by the entries are u's
    leaf weights.  Pruning u replaces B by one coordinate u, in the slot of
    B's first member, and divides every other node's entries on B by u's
    entries over d(u, v): all of them must give one integer, its entry at u.
    The last node is a star.
    """
    leaves, nodes = fan.leaf_labels(), fan.node_labels()
    coords = list(leaves)
    vectors = {x: dict(zip(leaves, fan.ray_by_label[x].vector)) for x in nodes}
    weights = {}
    while len(vectors) > 1:
        u = min(x for x in vectors if len(adjacency[x] & vectors.keys()) == 1)
        (v,) = adjacency[u] & vectors.keys()
        block = [c for c in coords if c in adjacency[u]]
        if not block:
            raise NotRealizable(f"end-node {u!r} has no leaves")
        ray = vectors.pop(u)
        entries = [ray[c] for c in block]
        d_uv, d_u = gcd(*entries), lcm(*entries)
        weights.update({(u, c): d_u // e for c, e in zip(block, entries)})
        weights[(u, v)] = d_uv
        columns = [e // d_uv for e in entries]
        for vec in vectors.values():
            t = None
            for c, column in zip(block, columns):
                q, r = divmod(vec[c], column)
                if r:
                    raise SolveFailed(f"no integral preimage for ray entry at {c!r}")
                if t is not None and q != t:
                    raise SolveFailed("inconsistent preimage across the pruned block")
                t = q
            vec[u] = t
        coords[coords.index(block[0])] = u
        coords = [c for c in coords if c not in block]
    ((last, vec),) = vectors.items()
    star = recover_star([vec[c] for c in coords])
    weights.update(
        {(last, c): star.weight(star.nodes[0], inner) for c, inner in zip(coords, star.leaves)}
    )
    edges = [
        (a, b, weights.get((a, b)), weights.get((b, a)))
        for a, b in (cone.rays for cone in fan.cones)
    ]
    return SpliceDiagram(leaves, nodes, edges)


def diagrams_isomorphic(a: SpliceDiagram, b: SpliceDiagram) -> bool:
    """Leaf-label-preserving isomorphism matching every half-edge weight."""
    if a.leaves != b.leaves or len(a.nodes) != len(b.nodes):
        return False
    vectors_b = {b.node_weight_vector(x): x for x in b.nodes}
    mapping = {}
    for x in a.nodes:
        target = vectors_b.get(a.node_weight_vector(x))
        if target is None:
            return False
        mapping[x] = target
    for leaf in a.leaves:
        mapping[leaf] = leaf
    for x, y in a.edges():
        mx, my = mapping[x], mapping[y]
        if my not in b.neighbors(mx):
            return False
        if a.is_node(x) and a.weight(x, y) != b.weight(mx, my):
            return False
        if a.is_node(y) and a.weight(y, x) != b.weight(my, mx):
            return False
    return True


def roundtrip(diagram: SpliceDiagram) -> bool:
    """recover(splice_fan(diagram)) must reproduce the diagram."""
    return diagrams_isomorphic(diagram, recover(splice_fan(diagram)))
