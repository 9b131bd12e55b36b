"""Recovery of coprime diagrams from weighted fans.

``data/recover_mutant_outcomes.json`` pins what ``recover`` answers on
seeded mutants of the fans of ``data/random_diagrams.json``: "ok", or the
class and message of its refusal.  Regenerate it only when a change of
outcome is intended:

    PYTHONPATH=src python tests/test_recover.py
"""

import importlib
import json
import random
from pathlib import Path

import pytest

from splicefan import (
    Cone2,
    NonCoprimeFan,
    NotRealizable,
    Ray,
    SpliceDiagram,
    SpliceFan,
    VerificationFailed,
    check_conditions,
    random_diagram,
    recover,
    roundtrip,
    splice_fan,
)
from splicefan import diagram as diagram_module
from splicefan.documents import diagram_from_doc, diagram_to_doc
from splicefan.exact import gcd_list

DATA = Path(__file__).with_name("data")
MUTANT_OUTCOMES = DATA / "recover_mutant_outcomes.json"
MUTANTS_PER_FAN = 4
# the module, which the package's function of the same name shadows
recover_module = importlib.import_module("splicefan.recover")


def test_recover_worked_example(d1, d1_fan):
    recovered = recover(d1_fan)
    assert diagram_to_doc(recovered) == diagram_to_doc(d1)
    # the documented intermediate reads
    node_u = next(v for v in recovered.nodes if recovered.linking_number(v, "l1") == 147)
    node_v = next(v for v in recovered.nodes if v != node_u)
    assert recovered.weight(node_u, node_v) == 49
    assert recovered.total_weight(node_u) == 294
    assert recovered.weight(node_u, "l1") == 2
    assert recovered.weight(node_u, "l2") == 3
    assert recovered.weight(node_v, node_u) == 11
    assert [recovered.weight(node_v, l) for l in ("l3", "l4", "l5")] == [7, 5, 2]


def test_recover_refuses_multiplicity(d1_fan):
    cones = [Cone2(d1_fan.cones[0].rays, 4), *d1_fan.cones[1:]]
    with pytest.raises(NonCoprimeFan):
        recover(SpliceFan(d1_fan.rays, cones))


def test_recover_refuses_non_coprime_fan():
    fan = splice_fan(SpliceDiagram.star([2, 4, 3]))
    with pytest.raises(NonCoprimeFan):
        recover(fan)


D1_RAYS = {
    **{f"l{k + 1}": tuple(int(i == k) for i in range(5)) for k in range(5)},
    "u": (147, 98, 60, 84, 210),
    "v": (210, 140, 110, 154, 385),
}
D1_CONES = (("u", "l1"), ("u", "l2"), ("u", "v"), ("v", "l3"), ("v", "l4"), ("v", "l5"))


def _fan(rays, cones=D1_CONES):
    """A hand-built fan from label -> vector (None drops the ray) and label pairs."""
    return SpliceFan(
        [Ray(label, vec) for label, vec in rays.items() if vec is not None],
        [Cone2(pair, 1) for pair in cones],
    )


def _d1(**changed):
    return _fan({**D1_RAYS, **changed})


def _bridge(a, b):
    """The worked example's cones with the edge [u, v] replaced by [a, b]."""
    return _fan(D1_RAYS, D1_CONES[:2] + ((a, b),) + D1_CONES[3:])


def _star_fan(w):
    """The fan of a star: unit rays l1, l2, ... and the node ray w at n1."""
    leaves = [f"l{k + 1}" for k in range(len(w))]
    rays = {leaf: tuple(int(i == k) for i in range(len(w))) for k, leaf in enumerate(leaves)}
    return _fan({**rays, "n1": w}, [("n1", leaf) for leaf in leaves])


def _star_weights(w):
    star = recover(_star_fan(w))
    return [star.weight("n1", leaf) for leaf in star.leaves]


def test_recover_star_golden():
    assert _star_weights((15, 10, 6)) == [2, 3, 5]


def test_recover_star_permutation_equivariant():
    assert _star_weights((6, 10, 15)) == [5, 3, 2]


def test_recover_star_all_ones():
    assert _star_weights((1, 1, 1)) == [1, 1, 1]


def test_recover_star_rejects_bad_input():
    with pytest.raises(NotRealizable):
        recover(_star_fan((2, 4, 6)))  # not overall coprime
    with pytest.raises(NotRealizable):
        recover(_star_fan((3, 5)))


UNIT_RAYS = "unit rays do not give every coordinate exactly once"
NOT_NON_NEGATIVE = "ray 'u' is not a nonzero non-negative vector"


@pytest.mark.parametrize("fan, message", [
    pytest.param(SpliceFan([], []), "the fan has no node ray", id="empty"),
    pytest.param(_d1(l5=None), UNIT_RAYS, id="missing-unit"),
    pytest.param(_fan({**D1_RAYS, "l6": (1, 0, 0, 0, 0)}, D1_CONES + (("u", "l6"),)),
                 UNIT_RAYS, id="duplicated-unit"),
    pytest.param(SpliceFan([Ray("u", (1, 1)), Ray("u", (1, 2)), Ray("l1", (1, 0)),
                            Ray("l2", (0, 1))], []),
                 "ray labels repeat", id="repeated-label"),
    pytest.param(_d1(v=(210, 140, 110, 154)), "ray vectors have inconsistent lengths",
                 id="inconsistent-lengths"),
    pytest.param(_d1(u=(0, 0, 0, 0, 0)), NOT_NON_NEGATIVE, id="zero"),
    pytest.param(_d1(u=(147, -98, 60, 84, 210)), NOT_NON_NEGATIVE, id="negative"),
    pytest.param(_d1(u=(294, 196, 120, 168, 420)), "ray 'u' is not primitive",
                 id="non-primitive"),
    pytest.param(_fan(D1_RAYS, D1_CONES[1:]), "cone count does not match a tree",
                 id="cone-count"),
    pytest.param(_bridge("u", "w"), "cone ('u', 'w') uses an unknown ray", id="unknown-ray"),
    pytest.param(_bridge("l1", "l2"), "fan link is not connected", id="disconnected"),
    pytest.param(_bridge("l2", "v"), "unit ray 'l2' does not lie on exactly one cone",
                 id="unit-ray-on-two-cones"),
    pytest.param(_fan({"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)},
                      (("a", "b"), ("b", "c"))),
                 "the fan has no node ray", id="no-node-ray"),
    pytest.param(_d1(u=(0, 3, 1, 1, 1), v=(1, 1, 2, 3, 5)),
                 "node ray 'u' is not strictly positive", id="zero-entry-at-node"),
    # node v carries no leaf and lies on the one cone [u, v]
    pytest.param(_fan({"l1": (1, 0, 0), "l2": (0, 1, 0), "l3": (0, 0, 1),
                       "u": (1, 1, 1), "v": (1, 1, 1)},
                      (("u", "l1"), ("u", "l2"), ("u", "l3"), ("u", "v"))),
                 "node ray 'v' lies on fewer than three cones", id="leafless-node"),
])
def test_recover_refuses_each_malformed_fan(fan, message):
    with pytest.raises(NotRealizable) as info:
        recover(fan)
    assert type(info.value) is NotRealizable and str(info.value) == message


def test_roundtrip_golden(d1, s0):
    assert roundtrip(d1)
    assert roundtrip(s0)


def test_roundtrip_random_pool(pool_coprime):
    for d in pool_coprime[:30]:
        assert roundtrip(d)


def _coprime_documents():
    """The coprime recorded diagrams, the 40-leaf document and (64, 20, 0)."""
    recorded = json.loads((DATA / "random_diagrams.json").read_text())
    diagrams = [diagram_from_doc(e["diagram"]) for e in recorded if e["coprime"]]
    diagrams.append(diagram_from_doc(json.loads((DATA / "random_40_14_seed0.json").read_text())))
    diagrams.append(random_diagram(64, 20, 0))
    return diagrams


def test_each_weight_is_the_gcd_of_its_node_ray_off_the_far_side():
    """d(v, u) = gcd of v's linking numbers to the leaves not beyond u: the
    rule ``recover`` reads every weight by."""
    for d in _coprime_documents():
        for v in d.nodes:
            w = d.node_weight_vector(v)
            for u in d.neighbors(v):
                beyond = set(d.leaves_beyond(v, u))
                near = [x for leaf, x in zip(d.leaves, w) if leaf not in beyond]
                assert gcd_list(near) == d.weight(v, u), (d, v, u)


def test_conditions_are_not_checked_on_a_fan_the_diagram_does_not_reproduce(
    d1_fan, monkeypatch
):
    calls = []
    check_conditions = recover_module.check_conditions

    def counting(diagram):
        calls.append(diagram)
        return check_conditions(diagram)

    monkeypatch.setattr(recover_module, "check_conditions", counting)
    recover(d1_fan)
    assert len(calls) == 1
    rays = [Ray(r.label, (r.vector[0] * 2 + 1, *r.vector[1:])) if r.label == "v" else r
            for r in d1_fan.rays]
    with pytest.raises(VerificationFailed, match="does not reproduce ray"):
        recover(SpliceFan(rays, d1_fan.cones))
    assert len(calls) == 1


def test_roundtrip_reads_the_kept_report_and_searches_nothing(monkeypatch):
    """After check_conditions(d), roundtrip(d) rebuilds d label by label and
    reads d's kept report: no condition report is computed again."""
    diagrams = [random_diagram(12, 4, 1), random_diagram(9, 3, 0)]
    for d in diagrams:
        check_conditions(d)
    calls = []
    report = diagram_module._condition_report

    def counting(diagram):
        calls.append(diagram)
        return report(diagram)

    monkeypatch.setattr(diagram_module, "_condition_report", counting)
    assert all(roundtrip(d) for d in diagrams)
    assert calls == []


def test_distinct_diagrams_have_distinct_fans(pool_coprime):
    seen = {}
    for d in pool_coprime[:40]:
        fan = splice_fan(d)
        key = (
            tuple(sorted((r.label, r.vector) for r in fan.rays)),
            tuple(sorted((tuple(sorted(c.rays)), c.multiplicity) for c in fan.cones)),
        )
        if key in seen:
            assert diagram_to_doc(seen[key]) == diagram_to_doc(d)
        else:
            seen[key] = d


def _mutant_fans():
    """Per recorded diagram, MUTANTS_PER_FAN copies of its fan, each with one
    node-ray entry x set to 2x or 3x, plus 0 or 1 (seeded by the index)."""
    recorded = json.loads((DATA / "random_diagrams.json").read_text())
    for index, entry in enumerate(recorded):
        fan = splice_fan(diagram_from_doc(entry["diagram"]))
        rng = random.Random(index)
        for _ in range(MUTANTS_PER_FAN):
            label = rng.choice(fan.node_labels())
            at = rng.randrange(fan.n)
            rays = []
            for ray in fan.rays:
                vector = list(ray.vector)
                if ray.label == label:
                    vector[at] = vector[at] * rng.choice((2, 3)) + rng.choice((0, 1))
                rays.append(Ray(ray.label, tuple(vector)))
            yield SpliceFan(rays, fan.cones)


def _outcome(fan):
    try:
        recover(fan)
    except Exception as exc:  # the class and message are the outcome
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _mutant_outcomes():
    return [_outcome(fan) for fan in _mutant_fans()]


def test_recover_answers_mutated_fans_as_recorded():
    recorded = json.loads(MUTANT_OUTCOMES.read_text())
    assert recorded["mutants_per_fan"] == MUTANTS_PER_FAN
    assert _mutant_outcomes() == recorded["outcomes"]


if __name__ == "__main__":
    MUTANT_OUTCOMES.write_text(json.dumps(
        {"mutants_per_fan": MUTANTS_PER_FAN, "outcomes": _mutant_outcomes()}, indent=0
    ) + "\n")
