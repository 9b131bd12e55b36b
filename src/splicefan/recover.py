"""Recovery of coprime splice diagrams from their weighted splice fans.

With every tropical multiplicity equal to one, the weights around each node
can be read off from gcds and lcms of node ray entries; pruning an end-node
and solving an integral block system reduces to a smaller fan, and the star
base case finishes.  Fans carrying a multiplicity other than one are
refused: distinct diagrams can share such a fan.
"""

from __future__ import annotations

from .diagram import SpliceDiagram, check_conditions, validate
from .errors import NonCoprimeFan, NotRealizable, SolveFailed, VerificationFailed
from .exact import gcd_list, lcm_list
from .fan import Ray, SpliceFan, splice_fan


def _link(fan: SpliceFan):
    """The cone tree as adjacency sets: ray label -> labels sharing a cone."""
    adjacency = {r.label: set() for r in fan.rays}
    for cone in fan.cones:
        a, b = cone.rays
        if a not in adjacency or b not in adjacency:
            raise NotRealizable(f"cone {cone.rays} uses an unknown ray")
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def _check_fan_input(fan: SpliceFan):
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
    adjacency = _link(fan)
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

    Recursive pruning: at an end-node u read d(u, v) and the total weight
    from the gcd/lcm of u's ray entries at its own leaves, replace u's leaf
    block by a single new coordinate, divide the remaining node rays through
    the prune matrix, and recurse; single-node fans are stars.  The result
    is verified by rebuilding its fan.
    """
    _check_fan_input(fan)
    diagram = _recover_tree(fan)
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


def _recover_tree(fan: SpliceFan) -> SpliceDiagram:
    leaves = fan.leaf_labels()
    nodes = fan.node_labels()
    adjacency = _link(fan)

    if len(nodes) == 1:
        node = nodes[0]
        star = recover_star(fan.ray_by_label[node].vector)
        edges = [
            (node, leaf, star.weight(star.nodes[0], inner), None)
            for leaf, inner in zip(leaves, star.leaves)
        ]
        return SpliceDiagram(leaves, [node], edges)

    node_set = set(nodes)
    end_nodes = sorted(
        u for u in nodes if len(adjacency[u] & node_set) == 1
    )
    u = end_nodes[0]
    v = next(iter(adjacency[u] & node_set))
    u_leaves = sorted(adjacency[u] - {v}, key=leaves.index)
    if not u_leaves:
        raise NotRealizable(f"end-node {u!r} has no leaves")
    w_u = fan.ray_by_label[u].vector
    positions = {leaf: i for i, leaf in enumerate(leaves)}
    entries = [w_u[positions[l]] for l in u_leaves]
    d_uv = gcd_list(entries)
    d_u = lcm_list(entries)
    u_weights = {l: d_u // e for l, e in zip(u_leaves, entries)}

    # pruned fan: u becomes a leaf occupying the slot of its leaf block
    kept = [l for l in leaves if l not in u_leaves]
    new_leaves = sorted(kept + [u], key=lambda l: positions.get(l, positions[u_leaves[0]]))
    new_positions = {l: i for i, l in enumerate(new_leaves)}
    first_col = {positions[l]: w_u[positions[l]] // d_uv for l in u_leaves}

    def prune_vector(vec):
        out = [0] * len(new_leaves)
        t = None
        for l in u_leaves:
            p = positions[l]
            col = first_col[p]
            if vec[p] % col:
                raise SolveFailed(f"no integral preimage for ray entry at {l!r}")
            value = vec[p] // col
            if t is None:
                t = value
            elif t != value:
                raise SolveFailed("inconsistent preimage across the pruned block")
        out[new_positions[u]] = t
        for l in kept:
            out[new_positions[l]] = vec[positions[l]]
        return tuple(out)

    new_rays = [Ray(l, tuple(int(x == l) for x in new_leaves)) for l in new_leaves]
    new_rays += [
        Ray(x, prune_vector(fan.ray_by_label[x].vector)) for x in nodes if x != u
    ]
    new_cones = [c for c in fan.cones if not set(c.rays) & set(u_leaves)]
    inner = _recover_tree(SpliceFan(new_rays, new_cones))

    # graft the star of u back onto the recovered smaller diagram
    edges = []
    for a, b in inner.edges():
        wa = inner._weights.get((a, b))
        wb = inner._weights.get((b, a))
        if a == u or b == u:
            # u turns back into a node; its weight toward v is d_uv
            if a == u:
                wa = d_uv
            else:
                wb = d_uv
        edges.append((a, b, wa, wb))
    for l in u_leaves:
        edges.append((u, l, u_weights[l], None))
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
    for x, y, *_ in a._raw_edges:
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
