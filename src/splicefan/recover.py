"""Recovery of coprime splice diagrams from their weighted splice fans.

With every tropical multiplicity equal to one, ``splice_fan``'s cone
formula reads backwards: on the cone [v, u] at a node v, the weight d(v, u)
is the gcd of v's ray entries at the leaves on v's side of the cone, the
leaves not beyond u.  The diagram is built once from these gcds on the
fan's cone tree, its fan is rebuilt and compared label by label, and only
then are the diagram conditions checked.  Fans carrying a multiplicity
other than one are refused: distinct diagrams can share such a fan.
"""

from __future__ import annotations

from .diagram import SpliceDiagram, check_conditions, validate
from .errors import NonCoprimeFan, NotRealizable, VerificationFailed
from .exact import gcd_list
from .fan import SpliceFan, side_gcds, splice_fan


def _check_fan_input(fan: SpliceFan) -> SpliceDiagram:
    """Refuse a malformed or non-coprime fan; return its cone tree as an
    unweighted diagram, the unit rays its leaves in coordinate order and the
    node rays its nodes."""
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
    edges = []
    for cone in fan.cones:
        a, b = cone.rays
        if a not in fan.ray_by_label or b not in fan.ray_by_label:
            raise NotRealizable(f"cone {cone.rays} uses an unknown ray")
        edges.append((a, b, None, None))
    tree = SpliceDiagram(leaves, nodes, edges)
    if not tree.is_tree:
        raise NotRealizable("fan link is not connected")
    for leaf in leaves:
        if tree.valency(leaf) != 1:
            raise NotRealizable(f"unit ray {leaf!r} does not lie on exactly one cone")
    for node in nodes:
        if tree.valency(node) < 3:
            raise NotRealizable(f"node ray {node!r} lies on fewer than three cones")
    if any(c.multiplicity != 1 for c in fan.cones):
        raise NonCoprimeFan(
            "a multiplicity differs from one; recovery would be ambiguous"
        )
    return tree


def _rebuild(fan: SpliceFan) -> SpliceDiagram:
    """The diagram whose weights are read off the fan, validated and
    reproducing it ray by ray and cone by cone; its conditions unchecked.

    Each weight d(v, u) is the gcd of v's ray at the leaves outside
    ``leaves_beyond(v, u)`` of the cone tree (:func:`side_gcds`).
    """
    tree = _check_fan_input(fan)
    weights = {(v, u): g for v in tree.nodes
               for u, g in side_gcds(tree, v, fan.ray_by_label[v].vector).items()}
    diagram = SpliceDiagram(tree.leaves, tree.nodes, [
        (a, b, weights.get((a, b)), weights.get((b, a)))
        for a, b in (cone.rays for cone in fan.cones)
    ])
    if validate(diagram):
        raise VerificationFailed("recovered object is not a valid splice diagram")
    rebuilt = splice_fan(diagram)
    for ray in fan.rays:
        if rebuilt.ray_by_label[ray.label].vector != tuple(ray.vector):
            raise VerificationFailed(f"recovered diagram does not reproduce ray {ray.label!r}")
    multiplicities = {frozenset(c.rays): c.multiplicity for c in rebuilt.cones}
    for cone in fan.cones:
        if multiplicities[frozenset(cone.rays)] != cone.multiplicity:
            raise VerificationFailed(f"recovered diagram does not reproduce cone {cone.rays}")
    return diagram


def _require_conditions(diagram):
    if not check_conditions(diagram).all():
        raise VerificationFailed("recovered diagram fails the diagram conditions")


def recover(fan: SpliceFan) -> SpliceDiagram:
    """Reconstruct the unique coprime diagram whose splice fan is the input.

    The diagram is rebuilt from the fan's gcds and must reproduce the fan;
    only then are its conditions checked.
    """
    diagram = _rebuild(fan)
    _require_conditions(diagram)
    return diagram


def roundtrip(diagram: SpliceDiagram) -> bool:
    """recover(splice_fan(diagram)) must give back the diagram, label by
    label: its leaves, nodes, edges and every half-edge weight.

    The conditions are checked once: on the diagram itself when the two
    match (its kept report), else on the rebuilt one, as ``recover`` would.
    """
    back = _rebuild(splice_fan(diagram))
    same = (
        back.leaves == diagram.leaves
        and back.nodes == diagram.nodes
        and back.edges() == diagram.edges()
        and all(
            back.weight(v, u) == diagram.weight(v, u)
            for v in diagram.nodes
            for u in diagram.neighbors(v)
        )
    )
    _require_conditions(diagram if same else back)
    return same
