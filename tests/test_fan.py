"""Fans, embeddings, membership certificates, balancing, smoke checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicefan import (
    Cone2,
    NoTorusPoint,
    Polynomial,
    Ray,
    SpliceDiagram,
    SolveFailed,
    SpliceFan,
    TruncationContext,
    VerificationFailed,
    barycenter,
    boundary_trop,
    certificate_search,
    check_balancing,
    embed_vertex,
    initial_ideal_generators,
    locate,
    membership,
    build_system,
    monomial_in_span_oracle,
    random_coefficients,
    random_diagram,
    smoothness_smoke,
    splice_fan,
)
from conftest import LADDER, make_d1
from splicefan.exact import kernel_basis, rref
from splicefan.fan import OUTSIDE, CellLocation, _random_kernel_vector

F = Fraction


def _solve(rows, rhs):
    """The solution of rows @ x = rhs for a matrix of full column rank, read
    off the rref of the augmented matrix; None when inconsistent."""
    width = len(rows[0])
    reduced, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if width in pivots:
        return None
    assert pivots == list(range(width))
    return tuple(row[-1] for row in reduced)


def test_fan_of_worked_example(d1_fan):
    assert len(d1_fan.rays) == 7 and len(d1_fan.cones) == 6
    vecs = {r.label: r.vector for r in d1_fan.rays}
    assert vecs["u"] == (147, 98, 60, 84, 210)
    assert vecs["v"] == (210, 140, 110, 154, 385)
    assert all(c.multiplicity == 1 for c in d1_fan.cones)


def test_fan_of_star():
    fan = splice_fan(SpliceDiagram.star([2, 3, 5]))
    assert len(fan.rays) == 4 and len(fan.cones) == 3
    assert all(c.multiplicity == 1 for c in fan.cones)


def test_fan_multiplicity_above_one():
    fan = splice_fan(SpliceDiagram.star([2, 4, 3]))
    mults = {c.rays: c.multiplicity for c in fan.cones}
    assert mults[("l3", "n1")] == 2
    assert mults[("l1", "n1")] == 1 and mults[("l2", "n1")] == 1


def test_embed_vertex(d1, s0):
    assert embed_vertex(d1, "u") == tuple(F(x, 599) for x in (147, 98, 60, 84, 210))
    assert embed_vertex(d1, "l2") == (0, 1, 0, 0, 0)
    assert embed_vertex(s0, "n1") == (F(15, 31), F(10, 31), F(6, 31))


def test_barycenter(d1):
    assert barycenter(d1, "u", ["l1"]) == (1, 0, 0, 0, 0)
    assert barycenter(d1, "u", ["l1", "l2"]) == (F(3, 5), F(2, 5), 0, 0, 0)


def test_adjacent_barycenters_agree(d1, pool_small):
    for d in [d1] + pool_small[:10]:
        for a, b in d.internal_edges():
            side_a = [l for l in d.leaves if a in d.geodesic(l, b)]
            side_b = [l for l in d.leaves if b in d.geodesic(l, a)]
            assert barycenter(d, a, side_a) == barycenter(d, b, side_a)
            assert barycenter(d, a, side_b) == barycenter(d, b, side_b)


def test_segment_order(d1, pool_small):
    """barycenter(side_a), rho(a), rho(b), barycenter(side_b) in strict order."""
    for d in [d1] + pool_small[:10]:
        for a, b in d.internal_edges():
            side_a = [l for l in d.leaves if a in d.geodesic(l, b)]
            side_b = [l for l in d.leaves if b in d.geodesic(l, a)]
            p = barycenter(d, a, side_a)
            q = barycenter(d, b, side_b)
            ts = []
            for point in (embed_vertex(d, a), embed_vertex(d, b)):
                sol = _solve([[p[i], q[i]] for i in range(d.n)], list(point))
                assert sol is not None and sol[0] + sol[1] == 1
                ts.append(sol[1])  # parameter toward q
            assert 0 < ts[0] < ts[1] < 1


def test_embedding_injective_and_independent(pool_small):
    for d in pool_small[:10]:
        images = [embed_vertex(d, v) for v in d.vertices]
        assert len(set(images)) == len(images)
        for v in d.nodes:
            nbrs = [embed_vertex(d, u) for u in d.neighbors(v)]
            assert len(rref(nbrs)[1]) == len(nbrs)
            # rho(v) is a strictly positive combination of its neighbours
            sol = _solve(
                [[vec[i] for vec in nbrs] for i in range(d.n)],
                list(embed_vertex(d, v)),
            )
            assert sol is not None and all(c > 0 for c in sol)


def test_edge_interiors_meet_only_at_shared_endpoints(pool_small):
    for d in pool_small[:8]:
        samples = {}
        for a, b in d.edges():
            pa, pb = embed_vertex(d, a), embed_vertex(d, b)
            samples[(a, b)] = {
                tuple(t * x + (1 - t) * y for x, y in zip(pa, pb))
                for t in (F(1, 3), F(1, 2), F(2, 3))
            }
        edges = list(samples)
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                assert not samples[edges[i]] & samples[edges[j]]


# -- locate -------------------------------------------------------------------

def test_locate_on_ray(d1_fan, d1):
    loc = locate(d1_fan, d1.node_weight_vector("u"))
    assert loc.kind == "on_ray" and loc.label == "u"
    doubled = tuple(2 * x for x in d1.node_weight_vector("u"))
    assert locate(d1_fan, doubled).coeffs == (2,)


def test_locate_in_cone(d1_fan, d1):
    wu = d1.node_weight_vector("u")
    wv = d1.node_weight_vector("v")
    loc = locate(d1_fan, tuple(a + b for a, b in zip(wu, wv)))
    assert loc.kind == "in_cone" and loc.label == ("u", "v") and loc.coeffs == (1, 1)


def test_locate_outside(d1_fan):
    assert locate(d1_fan, (1, 1, 1, 1, 1)).kind == "outside"


def test_locate_rejects_bad_input(d1_fan):
    with pytest.raises(ValueError):
        locate(d1_fan, (0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        locate(d1_fan, (-1, 1, 1, 1, 1))


def test_locate_reads_rational_and_zero_entries(d1_fan, d1):
    half = tuple(F(x, 2) for x in d1.node_weight_vector("u"))
    loc = locate(d1_fan, half)
    assert (loc.kind, loc.label, loc.coeffs) == ("on_ray", "u", (F(1, 2),))
    assert locate(d1_fan, (0, F(2, 3), 0, 0, 0)).coeffs == (F(2, 3),)
    # u + t*e1 is in the cone [l1, u] exactly when t > 0
    assert locate(d1_fan, (F(1, 3), 98, 60, 84, 210)).kind == "outside"
    loc = locate(d1_fan, (148, 98, 60, 84, 210))
    assert loc.label == ("l1", "u") and loc.coeffs == (1, 1)
    assert all(type(c) is F for c in loc.coeffs)


# -- locate against the Fraction reference ---------------------------------------
#
# locate tests cells by integer cross-multiplication.  The reference below is
# the rational test it replaced, kept to show the answers did not move.

def _ray_multiple_reference(ray, w):
    k = next(i for i, x in enumerate(ray) if x)
    coeff = Fraction(w[k], ray[k])
    if coeff > 0 and all(w[i] == coeff * ray[i] for i in range(len(ray))):
        return coeff
    return None


def _cone_coefficients_reference(r1, r2, w):
    i = next(k for k, x in enumerate(r1) if x)
    j = next(
        (k for k in range(len(r1)) if r1[i] * r2[k] - r1[k] * r2[i] != 0), None
    )
    if j is None:
        return None
    det = Fraction(r1[i] * r2[j] - r1[j] * r2[i])
    alpha = (w[i] * r2[j] - w[j] * r2[i]) / det
    beta = (r1[i] * w[j] - r1[j] * w[i]) / det
    for k in range(len(r1)):
        if alpha * r1[k] + beta * r2[k] != w[k]:
            return None
    return (alpha, beta)


def _locate_reference(fan, w):
    w = tuple(Fraction(x) for x in w)
    if all(x == 0 for x in w) or any(x < 0 for x in w):
        raise ValueError("weight vector must be non-negative and nonzero")
    for ray in fan.rays:
        coeff = _ray_multiple_reference(ray.vector, w)
        if coeff is not None:
            return CellLocation(kind="on_ray", label=ray.label, coeffs=(coeff,))
    for cone in fan.cones:
        r1 = fan.ray_by_label[cone.rays[0]].vector
        r2 = fan.ray_by_label[cone.rays[1]].vector
        coeffs = _cone_coefficients_reference(r1, r2, w)
        if coeffs is not None and coeffs[0] > 0 and coeffs[1] > 0:
            return CellLocation(kind="in_cone", label=cone.rays, coeffs=coeffs)
    return OUTSIDE


def _outcome(find, fan, w):
    try:
        cell = find(fan, w)
    except ValueError:
        return "ValueError"
    assert all(type(c) is Fraction for c in cell.coeffs)
    return cell


def assert_locate_matches_reference(fan, queries):
    for w in queries:
        assert _outcome(locate, fan, w) == _outcome(_locate_reference, fan, w), w


def _draw_queries(rng, diagram, fan, count):
    """Alternately a*r1 + b*r2 on a random edge's cone (a, b in 1..9) and a
    random vector in 1..40 per coordinate, as the benchmark draws them."""
    edges = list(diagram.edges())
    out = []
    for q in range(count):
        if q % 2 == 0:
            a, b = rng.choice(edges)
            x, y = rng.randint(1, 9), rng.randint(1, 9)
            r1, r2 = fan.ray_by_label[a].vector, fan.ray_by_label[b].vector
            out.append(tuple(x * p + y * q2 for p, q2 in zip(r1, r2)))
        else:
            out.append(tuple(rng.randint(1, 40) for _ in diagram.leaves))
    return out


# the benchmark's member pool: every shape with 4 to 8 leaves and 1 to 3
# nodes, six times in four kinds, ten queries per diagram, drawn in the order
# of bench/workloads.py (the Hamm coefficient seed is drawn but not needed)
MEMBER_SHAPES = tuple((n, k) for n in range(4, 9) for k in range(1, min(3, n - 2) + 1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_locate_matches_reference_on_the_member_pool(seed):
    rng = random.Random(seed)
    count = 0
    for n, nodes in MEMBER_SHAPES * 6:
        for coprime, vandermonde in ((True, True), (False, True), (True, False),
                                     (False, False)):
            d = random_diagram(n, nodes, rng.randrange(2**32), require_coprime=coprime)
            if not vandermonde:
                rng.randrange(2**32)
            fan = splice_fan(d)
            queries = _draw_queries(rng, d, fan, 10)
            assert_locate_matches_reference(fan, queries)
            count += len(queries)
    assert count == 3360


def test_locate_matches_reference_on_the_ladder():
    """The 54 ladder fans: the queries of three seeds' ladder runs, every
    ray and every cone's sum of rays."""
    rngs = [random.Random(seed) for seed in (1, 2, 3)]
    for n, k in LADDER:
        for s in (0, 1, 2):
            d = random_diagram(n, k, s)
            fan = splice_fan(d)
            queries = [w for rng in rngs for w in _draw_queries(rng, d, fan, 4)]
            queries += [r.vector for r in fan.rays]
            queries += [
                tuple(a + b for a, b in zip(*(fan.ray_by_label[x].vector for x in c.rays)))
                for c in fan.cones
            ]
            assert_locate_matches_reference(fan, queries)


# d1's fan, then small random diagrams, coprime or not
_PROPERTY_FANS = [splice_fan(make_d1())] + [
    splice_fan(random_diagram(*shape, seed, require_coprime=seed % 2 == 0))
    for seed, shape in enumerate(((3, 1), (5, 2), (6, 3), (7, 2), (8, 3)) * 2, 1)
]


_positive_rationals = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50)


@st.composite
def _fan_points(draw):
    """A point on a ray or inside a cone, scaled by random positive
    rationals, perhaps nudged by +-1 in one coordinate or zeroed there."""
    fan = draw(st.sampled_from(_PROPERTY_FANS))
    if draw(st.booleans()):
        ray = draw(st.sampled_from(fan.rays))
        c = draw(_positive_rationals)
        w = [c * x for x in ray.vector]
    else:
        cone = draw(st.sampled_from(fan.cones))
        a, b = draw(_positive_rationals), draw(_positive_rationals)
        r1, r2 = (fan.ray_by_label[x].vector for x in cone.rays)
        w = [a * x + b * y for x, y in zip(r1, r2)]
    change = draw(st.sampled_from([None, 1, -1, 0]))
    if change is not None:
        k = draw(st.integers(0, len(w) - 1))
        w[k] = w[k] + change if change else 0
    return fan, tuple(w)


@settings(max_examples=400, deadline=None)
@given(_fan_points())
def test_locate_matches_reference_property(case):
    fan, w = case
    assert_locate_matches_reference(fan, [w])


# -- certificates ----------------------------------------------------------------

def test_certificate_at_uniform_vector(d1_system):
    cert = certificate_search(d1_system, (1, 1, 1, 1, 1))
    assert cert.node == "v" and cert.edge == ("v", "l5")
    assert cert.monomial == (0, 0, 0, 0, 2)
    assert cert.values == {"u": 5, "l3": 7, "l4": 5, "l5": 2}


def test_no_certificate_on_node_rays(d1_system, d1):
    assert certificate_search(d1_system, d1.node_weight_vector("u")) is None
    wu = d1.node_weight_vector("u")
    wv = d1.node_weight_vector("v")
    w = tuple(2 * a + b for a, b in zip(wu, wv))
    assert certificate_search(d1_system, w) is None


def test_membership_golden(d1_system, d1, d1_fan):
    out = membership(d1_system, (1, 1, 1, 1, 1), d1_fan)
    assert out.status == "out" and out.certificate.monomial == (0, 0, 0, 0, 2)
    inside = membership(d1_system, d1.node_weight_vector("v"), d1_fan)
    assert inside.status == "in" and inside.cell.label == "v"
    mid = tuple(
        a + b for a, b in zip(embed_vertex(d1, "u"), embed_vertex(d1, "l1"))
    )
    cone = membership(d1_system, mid, d1_fan)
    assert cone.status == "in" and cone.cell.label == ("l1", "u")


# -- oracle ---------------------------------------------------------------------

def test_oracle_examples(d1_system):
    assert monomial_in_span_oracle(d1_system.polynomials(), (1, 1, 1, 1, 1)) == (
        0, 0, 0, 0, 2,
    )
    one = Polynomial([((1, 0), 1), ((0, 1), 1)])
    other = Polynomial([((1, 0), 1), ((0, 1), -1)])
    assert monomial_in_span_oracle([one], (1, 1)) is None
    assert monomial_in_span_oracle([one, other], (1, 1)) == (1, 0)


def _witness(generators, w, m):
    """A combination of the generators whose initial form at w is z^m, or
    None.  Its coefficient vector y spans the kernel of the constraint rows
    (every other monomial of weight <= w(m)) and meets z^m's row in 1."""
    w = tuple(F(x) for x in w)
    rows = {}
    for j, g in enumerate(generators):
        for e, c in g.terms:
            rows.setdefault(e, [F(0)] * len(generators))[j] += c
    level = sum(a * b for a, b in zip(w, m))
    constraints = [
        row for e, row in rows.items()
        if e != m and sum(a * b for a, b in zip(w, e)) <= level
    ]
    for y in kernel_basis(constraints, len(generators)):
        hit = sum(a * b for a, b in zip(rows[m], y))
        if hit:
            return sum(
                (g.scale(c / hit) for g, c in zip(generators, y)), Polynomial.zero()
            )
    return None


def assert_oracle_witnessed(generators, w):
    """The oracle's monomial is the initial form of a witnessed combination,
    and when it answers None no monomial of the generators has a witness."""
    m = monomial_in_span_oracle(generators, w)
    if m is not None:
        assert _witness(generators, w, m).initial_form(w) == Polynomial.monomial(m)
    else:
        support = {e for g in generators for e in g.support()}
        assert all(_witness(generators, w, e) is None for e in support)


def test_oracle_is_witnessed_on_d1(d1_system, d1):
    polys = d1_system.polynomials()
    rng = random.Random(3)
    ws = [(1, 1, 1, 1, 1)] + [d1.node_weight_vector(v) for v in d1.nodes]
    ws += [tuple(rng.randint(1, 30) for _ in range(d1.n)) for _ in range(30)]
    for w in ws:
        assert_oracle_witnessed(polys, w)


_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def _generator_sets(draw):
    """Small rational polynomial sets and a weight vector with many ties."""
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    polys = st.lists(st.tuples(exponents, _coefficients), min_size=1, max_size=4)
    generators = [Polynomial(t) for t in draw(st.lists(polys, min_size=1, max_size=4))]
    w = draw(st.tuples(*[st.sampled_from((1, 2, F(1, 2)))] * n))
    return generators, w


@settings(max_examples=300, deadline=None)
@given(_generator_sets())
def test_oracle_is_witnessed_property(case):
    assert_oracle_witnessed(*case)


def test_initial_ideal_generators(d1_system, d1):
    gens, monomial_free = initial_ideal_generators(d1_system, d1.node_weight_vector("u"))
    assert monomial_free and len(gens) == 3
    drop = Polynomial.monomial((1, 4, 0, 0, 0))
    minimal = [e.minimal for e in d1_system.equations]
    assert gens == [minimal[0], minimal[1] - drop, minimal[2] - drop.scale(33)]
    _, free_at_ones = initial_ideal_generators(d1_system, (1, 1, 1, 1, 1))
    assert not free_at_ones
    # a binomial generator is monomial-free exactly when its terms tie
    single = Polynomial([((1, 0), 1), ((0, 1), 1)])
    assert monomial_in_span_oracle([single], (1, 1)) is None
    assert monomial_in_span_oracle([single], (2, 3)) == (1, 0)


# -- boundary -------------------------------------------------------------------

def test_boundary_single_leaf(d1_system):
    assert boundary_trop(d1_system, ["l1"]) == (49, 30, 42, 105)
    assert boundary_trop(d1_system, ["l5"]) == (105, 70, 55, 77)


def test_boundary_two_leaves_empty(d1_system):
    assert boundary_trop(d1_system, ["l1", "l3"]) is None


def test_boundary_rejects_improper_sets(d1_system, d1):
    with pytest.raises(ValueError):
        boundary_trop(d1_system, [])
    with pytest.raises(ValueError):
        boundary_trop(d1_system, list(d1.leaves))


def test_truncated_certificate_is_verified(d1_system):
    trunc = TruncationContext(leaves=frozenset({"l1", "l3"}))
    cert = certificate_search(d1_system, (0, 5, 0, 3, 2), trunc)
    assert cert is not None
    assert set(cert.truncated) <= {"u", "v", "l1", "l3", "l5", "l2", "l4"}


# -- balancing -------------------------------------------------------------------

def test_balancing_golden(d1_fan, s0):
    assert check_balancing(d1_fan)
    assert check_balancing(splice_fan(s0))
    assert check_balancing(splice_fan(SpliceDiagram.star([2, 4, 3])))


def test_balancing_detects_perturbation(d1_fan):
    for k in range(len(d1_fan.cones)):
        cones = [
            Cone2(c.rays, c.multiplicity + 1 if i == k else c.multiplicity)
            for i, c in enumerate(d1_fan.cones)
        ]
        assert not check_balancing(SpliceFan(d1_fan.rays, cones))


def test_balancing_refuses_a_non_primitive_node_ray(d1_fan):
    rays = [
        Ray(r.label, tuple(2 * x for x in r.vector)) if r.label == "u" else r
        for r in d1_fan.rays
    ]
    with pytest.raises(VerificationFailed):
        check_balancing(SpliceFan(rays, d1_fan.cones))


# -- smoothness smoke --------------------------------------------------------------

def test_smoke_at_node_ray(d1_system, d1):
    report = smoothness_smoke(d1_system, d1.node_weight_vector("u"), samples=6, seed=0)
    assert report.full_rank and report.max_residual < 1e-9
    assert not report.repaired_sampling


def test_smoke_in_cone_interior(d1_system, d1):
    wu = d1.node_weight_vector("u")
    wv = d1.node_weight_vector("v")
    report = smoothness_smoke(
        d1_system, tuple(a + b for a, b in zip(wu, wv)), samples=6, seed=0
    )
    assert report.full_rank and report.max_residual < 1e-9


def test_smoke_rejects_off_fan_vector(d1_system):
    with pytest.raises(NoTorusPoint):
        smoothness_smoke(d1_system, (1, 1, 1, 1, 1), samples=2, seed=0)


def _leaf_cone_point(d1):
    return tuple(x + (l == "l1") for x, l in zip(d1.node_weight_vector("u"), d1.leaves))


def test_smoke_repairs_sampling_when_hamm_breaks(d1, d1_system):
    from splicefan.system import CoefficientMatrix, NodeBlock, SpliceSystem

    block = d1_system.blocks["v"]
    bad = CoefficientMatrix(
        "v", ((F(1), F(2)), (F(1), F(2)), (F(3), F(6)), (F(4), F(8)))
    )
    blocks = dict(d1_system.blocks)
    blocks["v"] = NodeBlock("v", block.star, block.exponents, bad)
    broken = SpliceSystem(d1, blocks, d1_system.equations)
    report = smoothness_smoke(broken, _leaf_cone_point(d1), samples=2, seed=0)
    assert report.cell.kind == "in_cone" and report.repaired_sampling


def test_smoke_refuses_a_branch_past_the_component_bound(monkeypatch):
    """The smoke sampler shares parameterize's component bound: at the leaf
    cone of l1, whose branch has 4 components, the bound 4 samples and the
    bound 3 refuses before any solve."""
    from splicefan import endcurve

    d = random_diagram(4, 1, 0, require_coprime=False)
    system = build_system(d)
    w = tuple(x + (l == "l1") for x, l in zip(d.node_weight_vector(d.nodes[0]), d.leaves))
    solve, widths = endcurve.solve_binomial_torus, []

    def spy(rows, consts, width):
        widths.append(width)
        return solve(rows, consts, width)

    monkeypatch.setattr(endcurve, "solve_binomial_torus", spy)
    monkeypatch.setattr(endcurve, "MAX_COMPONENTS", 4)
    assert smoothness_smoke(system, w, samples=2, seed=0).cell.label == ("l1", d.nodes[0])
    assert widths == [d.n - 1] * 2
    widths.clear()
    monkeypatch.setattr(endcurve, "MAX_COMPONENTS", 3)
    with pytest.raises(SolveFailed, match="^4 components exceed the bound of 3$"):
        smoothness_smoke(system, w, samples=2, seed=0)
    assert widths == []


def _reference_kernel_vector(rows, rng):
    """The sampler's former draw: one rref of the transposed matrix per try,
    a random integer at each free column, pivots solved from them."""
    count, k = len(rows), len(rows[0])
    reduced, pivots = rref([[rows[e][i] for e in range(count)] for i in range(k)])
    free = [c for c in range(count) if c not in pivots]
    y = [Fraction(0)] * count
    for c in free:
        y[c] = Fraction(rng.randint(-9, 9))
    if all(v == 0 for v in y):
        return None
    for row, p in zip(reduced, pivots):
        y[p] = -sum(row[c] * y[c] for c in free)
    return [complex(v) for v in y]


def test_kernel_sampler_draws_as_the_rref_per_try(d1, d1_system):
    from splicefan.system import CoefficientMatrix, NodeBlock

    blocks = list(d1_system.blocks.values())
    blocks.append(NodeBlock("v", d1_system.blocks["v"].star, d1_system.blocks["v"].exponents,
                            CoefficientMatrix("v", ((F(1), F(2)), (F(1), F(2)), (F(3), F(6)),
                                                    (F(4), F(8))))))
    for shape in ((12, 1, 0), (10, 2, 0), (12, 4, 1)):
        d = random_diagram(*shape)
        crng = random.Random(shape[2])
        blocks += build_system(d).blocks.values()
        coeffs = {v: random_coefficients(d, v, crng) for v in d.nodes}
        blocks += build_system(d, coeffs=coeffs).blocks.values()
    for seed, block in enumerate(blocks):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(40):
            assert _random_kernel_vector(block.matrix.kernel, new) == (
                _reference_kernel_vector(block.matrix.rows, old)
            )


def test_smoke_lets_programming_errors_through(d1, d1_system, monkeypatch):
    import splicefan.fan as fan_module

    real = fan_module._sample_log_point
    calls = []

    def broken_once(system, cell, rng):
        calls.append(cell)
        if len(calls) == 1:
            raise TypeError("not a domain error")
        return real(system, cell, rng)

    monkeypatch.setattr(fan_module, "_sample_log_point", broken_once)
    with pytest.raises(TypeError, match="not a domain error"):
        smoothness_smoke(d1_system, _leaf_cone_point(d1), samples=2, seed=0)


def test_smoke_flags_proportional_equations(d1, d1_system):
    from splicefan.system import Equation, NodeBlock, SpliceSystem

    base = next(e for e in d1_system.equations if (e.node, e.index) == ("v", 1))
    zero = Polynomial.zero()
    broken = SpliceSystem(
        d1,
        d1_system.blocks,
        [
            d1_system.equations[0],
            Equation("v", 1, base.minimal, zero),
            Equation("v", 2, base.minimal.scale(2), zero),
        ],
    )
    report = smoothness_smoke(broken, d1.node_weight_vector("u"), samples=4, seed=0)
    assert not report.full_rank
