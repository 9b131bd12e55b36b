"""Acceptance suite.

One test per criterion, each printing a PASS line once its assertions hold:
  1. worked-example weights, decompositions and initial forms (exact)
  2. end-curve golden data and exact parameterization check
  3. splice fan shape, multiplicities and primitivity (exact)
  4. membership dichotomy against the span oracle, zero disagreements
  5. boundary tropicalizations: certificates for deep truncations, rays
     matching end-curve exponents for single-leaf ones (exact)
  6. balancing on every generated fan, broken by any perturbed multiplicity
  7. recovery round-trips on coprime diagrams, refusal otherwise (exact)
  8. weight-combinatorics invariants, exhaustive over vertex triples (exact)
  9. numeric non-degeneracy smoke: full Jacobian rank at sampled torus
     points of every strictly positive cell (singular ratio > 1e-9)
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import system_for
from splicefan import (
    MonomialCurve,
    NonCoprimeFan,
    Polynomial,
    binomial_reduce,
    boundary_trop,
    build_system,
    certificate_search,
    check_balancing,
    end_curve_system,
    locate,
    monomial_in_span_oracle,
    parameterize,
    recover,
    root,
    roundtrip,
    semigroup_decompose,
    smoothness_smoke,
    splice_fan,
    verify_parameterization,
)
from splicefan.fan import Cone2, SpliceFan

F = Fraction


def test_criterion_1_golden_example(d1, d1_system):
    assert d1.total_weight("u") == 294
    assert d1.total_weight("v") == 770
    assert d1.linking_number("u", "v") == 420
    assert [d1.reduced_linking("u", l) for l in ("l3", "l4", "l5")] == [10, 14, 35]
    assert semigroup_decompose(d1, "u", ("u", "v")).coeffs == {"l4": 1, "l5": 1}
    assert [d1.reduced_linking("v", l) for l in ("l1", "l2")] == [3, 2]
    assert semigroup_decompose(d1, "v", ("v", "u")).coeffs == {"l1": 1, "l2": 4}
    assert d1.node_weight_vector("u") == (147, 98, 60, 84, 210)
    assert d1.node_weight_vector("v") == (210, 140, 110, 154, 385)
    wu = d1.node_weight_vector("u")
    eqs = {(e.node, e.index): e.minimal for e in d1_system.equations}
    drop = Polynomial.monomial((1, 4, 0, 0, 0))
    assert eqs[("v", 1)].initial_form(wu) == eqs[("v", 1)] - drop
    assert eqs[("v", 2)].initial_form(wu) == eqs[("v", 2)] - drop.scale(33)
    print("criterion 1 (golden example): PASS")


def test_criterion_2_end_curve_golden(d1, d1_system):
    rooted = root(d1, "l1")
    assert rooted.links() == (49, 30, 42, 105)
    ecs = end_curve_system(d1_system, rooted)
    curve = parameterize(ecs)
    assert curve.g == 1 and curve.exponents == (49, 30, 42, 105)
    relations = {
        (rel.lhs, rel.rhs): rel.const for rel in binomial_reduce(ecs).relations
    }
    # z4^5 + 32 z5^2 and z3^7 - 2187 z5^2, normalised as lhs = const * rhs
    assert relations[((0, 0, 0, 5, 0), (0, 0, 0, 0, 2))] == -32
    assert relations[((0, 0, 7, 0, 0), (0, 0, 0, 0, 2))] == 2187
    reference = MonomialCurve(
        root="l1",
        leaves=("l2", "l3", "l4", "l5"),
        exponents=(49, 30, 42, 105),
        g=1,
        components=((F(-1), F(3), F(-2), F(1)),),
        exact=True,
    )
    assert verify_parameterization(reference, ecs)
    print("criterion 2 (end-curve golden): PASS")


def test_criterion_3_fan_and_multiplicities(d1_fan):
    assert len(d1_fan.rays) == 7 and len(d1_fan.cones) == 6
    assert all(c.multiplicity == 1 for c in d1_fan.cones)
    from math import gcd

    for label in ("u", "v"):
        vec = d1_fan.ray_by_label[label].vector
        g = 0
        for x in vec:
            g = gcd(g, x)
        assert g == 1
    print("criterion 3 (splice fan): PASS")


def test_criterion_4_membership_dichotomy(pool_mixed):
    assert len(pool_mixed) >= 200
    rng = random.Random(271828)
    queries = disagreements = 0
    for k, d in enumerate(pool_mixed):
        system = system_for(d, seed=None if k % 2 else k)
        fan = splice_fan(d)
        polys = system.polynomials()
        node_ray = fan.ray_by_label[d.nodes[0]].vector
        for q in range(50):
            if q % 2 == 0:
                cone = fan.cones[rng.randrange(len(fan.cones))]
                r1 = fan.ray_by_label[cone.rays[0]].vector
                r2 = fan.ray_by_label[cone.rays[1]].vector
                a, b = rng.randint(1, 9), rng.randint(1, 9)
                w = tuple(a * x + b * y for x, y in zip(r1, r2))
                if any(x <= 0 for x in w):
                    w = tuple(x + y for x, y in zip(w, node_ray))
            else:
                w = tuple(rng.randint(1, 30) for _ in range(d.n))
            located = locate(fan, w).inside
            cert = certificate_search(system, w)
            witness = monomial_in_span_oracle(polys, w)
            queries += 1
            if located != (cert is None) or (cert is None) != (witness is None):
                disagreements += 1
    assert queries >= 200 * 50
    assert disagreements == 0
    print(f"criterion 4 (membership dichotomy, {queries} queries): PASS")


def test_criterion_5_boundary_tropicalization(pool_boundary):
    for d in pool_boundary:
        system = build_system(d)
        for pair in itertools.combinations(d.leaves, 2):
            # raises VerificationFailed unless all sampled vectors certify
            assert boundary_trop(system, list(pair), samples=50, seed=5) is None
        for leaf in d.leaves:
            rooted = root(d, leaf)
            curve = parameterize(end_curve_system(system, rooted))
            ray = boundary_trop(system, [leaf], samples=8, seed=5)
            assert ray == curve.exponents
    print(f"criterion 5 (boundary tropicalization, {len(pool_boundary)} diagrams): PASS")


def test_criterion_6_balancing(pool_small, d1_fan):
    fans = [d1_fan] + [splice_fan(d) for d in pool_small]
    for fan in fans:
        assert check_balancing(fan)
    for fan in fans[:8]:
        for k in range(len(fan.cones)):
            cones = [
                Cone2(c.rays, c.multiplicity + 1 if i == k else c.multiplicity)
                for i, c in enumerate(fan.cones)
            ]
            assert not check_balancing(SpliceFan(fan.rays, cones))
    print(f"criterion 6 (balancing, {len(fans)} fans): PASS")


def test_criterion_7_recovery_round_trip(pool_coprime, d1, d1_fan):
    assert len(pool_coprime) >= 100
    assert roundtrip(d1)
    for d in pool_coprime:
        assert roundtrip(d)
    for k in range(len(d1_fan.cones)):
        cones = [Cone2(c.rays, 4 if i == k else 1) for i, c in enumerate(d1_fan.cones)]
        with pytest.raises(NonCoprimeFan):
            recover(SpliceFan(d1_fan.rays, cones))
    print(f"criterion 7 (recovery, {len(pool_coprime) + 1} round-trips): PASS")


def test_criterion_8_invariant_suites(pool_small, d1, s0):
    diagrams = [d1, s0] + pool_small
    for d in diagrams:
        verts = d.vertices
        for u in verts:
            for v in verts:
                if u != v:
                    assert d.linking_number(u, v) == d.linking_number(v, u)
        for v in verts:
            for w in verts:
                if v == w:
                    continue
                for u in d.geodesic(v, w)[1:-1]:
                    assert (
                        d.linking_number(w, u) * d.linking_number(u, v)
                        == d.linking_number(w, v) * d.total_weight(u)
                    )
        for u in d.nodes:
            for v in d.nodes:
                if u != v:
                    assert (
                        d.total_weight(u) * d.total_weight(v)
                        > d.linking_number(u, v) ** 2
                    )
        for u in d.nodes:
            for v in d.nodes:
                for w in d.nodes:
                    if v == w:
                        continue
                    lhs = d.linking_number(u, v) * d.linking_number(u, w)
                    rhs = d.total_weight(u) * d.linking_number(v, w)
                    assert lhs <= rhs
                    on_geodesic = u in d.geodesic(v, w)
                    assert (lhs == rhs) == on_geodesic
        admissible = {
            (v, e): semigroup_decompose(d, v, (v, e))
            for v in d.nodes
            for e in d.neighbors(v)
        }
        for (v, e), adm in admissible.items():
            wv = d.node_weight_vector(v)
            m = adm.exponent(d.leaves)
            assert sum(a * b for a, b in zip(wv, m)) == d.total_weight(v)
            for u in d.nodes:
                wu = d.node_weight_vector(u)
                pairing = sum(a * b for a, b in zip(wu, m))
                link = d.total_weight(v) if u == v else d.linking_number(u, v)
                assert pairing >= link
                edge_on_geodesic = u != v and d.first_step(v, u) == e
                assert (pairing == link) == (not edge_on_geodesic)
    print(f"criterion 8 (invariant suites, {len(diagrams)} diagrams): PASS")


def test_criterion_9_newton_smoke(pool_smoke, d1, d1_system):
    def positive_cells(diagram):
        cells = [diagram.node_weight_vector(v) for v in diagram.nodes]
        for a, b in diagram.edges():
            va = (
                diagram.node_weight_vector(a)
                if diagram.is_node(a)
                else tuple(int(l == a) for l in diagram.leaves)
            )
            vb = (
                diagram.node_weight_vector(b)
                if diagram.is_node(b)
                else tuple(int(l == b) for l in diagram.leaves)
            )
            cells.append(tuple(2 * x + 3 * y for x, y in zip(va, vb)))
        return cells

    for w in positive_cells(d1):
        report = smoothness_smoke(d1_system, w, samples=10, seed=8)
        assert report.full_rank and report.min_ratio > 1e-9

    for k, d in enumerate(pool_smoke):
        system = system_for(d, seed=None if k % 2 else 500 + k)
        for w in positive_cells(d):
            report = smoothness_smoke(system, w, samples=10, seed=8)
            assert report.full_rank and report.min_ratio > 1e-9

    # a deliberately Hamm-broken system (two proportional equations) is flagged
    from splicefan.system import Equation, SpliceSystem

    base = next(e for e in d1_system.equations if (e.node, e.index) == ("v", 1))
    broken = SpliceSystem(
        d1,
        d1_system.blocks,
        [
            d1_system.equations[0],
            Equation("v", 1, base.minimal, Polynomial.zero()),
            Equation("v", 2, base.minimal.scale(2), Polynomial.zero()),
        ],
    )
    report = smoothness_smoke(broken, d1.node_weight_vector("u"), samples=5, seed=8)
    assert not report.full_rank
    print(f"criterion 9 (non-degeneracy smoke, {len(pool_smoke)} diagrams): PASS")
