"""Fast tests of the benchmark's answer checks: each accepts splicefan's
genuine answer and rejects a tampered copy.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import splicefan as sf  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def d1():
    return sf.SpliceDiagram(
        ["l1", "l2", "l3", "l4", "l5"], ["u", "v"],
        [("u", "l1", 2, None), ("u", "l2", 3, None), ("u", "v", 49, 11),
         ("v", "l3", 7, None), ("v", "l4", 5, None), ("v", "l5", 2, None)])


@pytest.fixture(scope="module")
def case():
    d = d1()
    system = sf.build_system(d)
    tree = workloads.tree_of(d)
    eqs = checks.check_system(tree, workloads.plain_equations(system), vandermonde=True)
    return d, system, tree, eqs


def test_own_combinatorics_match_the_worked_example(case):
    _, _, tree, _ = case
    assert tree.vector("u") == (147, 98, 60, 84, 210)
    assert tree.determinant("u", "v") == 49 * 11 - 2 * 3 * 7 * 5 * 2
    assert tree.reduced("u", "l3") == 5 * 2
    assert tree.pairwise_coprime() and tree.determinants_positive()
    assert tree.semigroup_holds()


def test_own_combinatorics_match_random_diagrams():
    for seed in range(6):
        d = sf.random_diagram(7, 3, seed)
        tree = workloads.tree_of(d)
        for v in d.nodes:
            assert tree.vector(v) == d.node_weight_vector(v)
        for a, b in d.internal_edges():
            assert tree.determinant(a, b) == sf.edge_determinant(d, (a, b))
        checks.check_valid_diagram(tree, 7, 3, coprime=True)


def test_system_check_rejects_tampering(case):
    d, system, tree, _ = case
    plain = list(workloads.plain_equations(system))
    node, index, terms = plain[0]
    (m, c), *rest = terms
    bumped = (tuple(x + 1 if i == 0 else x for i, x in enumerate(m)), c)
    for bad in ([(node, index, (bumped, *rest))] + plain[1:],
                [(node, index, ((m, c + 1), *rest))] + plain[1:],
                plain[1:]):
        with pytest.raises(CheckFailed):
            checks.check_system(tree, bad, vandermonde=True)


def test_conditions_check(case):
    d, _, tree, _ = case
    r = sf.check_conditions(d)
    checks.check_conditions(tree, r.edge_determinant, r.semigroup, r.coprime)
    with pytest.raises(CheckFailed):
        checks.check_conditions(tree, r.edge_determinant, r.semigroup, not r.coprime)


def test_fan_check_rejects_a_changed_multiplicity(case):
    d, _, tree, _ = case
    fan = sf.splice_fan(d)
    rays = {r.label: r.vector for r in fan.rays}
    cones = {frozenset(c.rays): c.multiplicity for c in fan.cones}
    checks.check_fan(tree, rays, cones)
    key = next(iter(cones))
    with pytest.raises(CheckFailed):
        checks.check_fan(tree, rays, {**cones, key: cones[key] + 1})


def test_in_answers_and_cone_coefficients(case):
    d, system, tree, eqs = case
    fan = sf.splice_fan(d)
    w = tuple(3 * x + 2 * y for x, y in zip(tree.ray("u"), tree.ray("l1")))
    res = sf.membership(system, w, fan)
    assert res.status == "in" and checks.in_fan(tree, w)
    kind, label, coeffs = res.cell.kind, res.cell.label, res.cell.coeffs
    checks.check_cell(tree, w, kind, label, coeffs, cone=("l1", "u"))
    for bad in ((coeffs[0] + 1, coeffs[1]), (-coeffs[0], coeffs[1])):
        with pytest.raises(CheckFailed):
            checks.check_cell(tree, w, kind, label, bad)
    with pytest.raises(CheckFailed):
        checks.check_cell(tree, w, kind, label, coeffs, cone=("u", "v"))


def test_certificate_check_rejects_a_changed_coefficient(case):
    d, system, tree, eqs = case
    w = (1, 1, 1, 1, 1)
    cert = sf.membership(system, w).certificate
    assert not checks.in_fan(tree, w)
    args = (cert.node, cert.edge, cert.monomial, cert.values, cert.coefficients)
    checks.check_certificate(tree, eqs, w, *args)
    tampered = [
        (cert.node, cert.edge, cert.monomial, cert.values,
         (cert.coefficients[0] + Fraction(1, 3),) + cert.coefficients[1:]),
        (cert.node, cert.edge, tuple(x + 1 for x in cert.monomial), cert.values,
         cert.coefficients),
        (cert.node, cert.edge, cert.monomial,
         {**cert.values, cert.edge[1]: cert.values[cert.edge[1]] + 1}, cert.coefficients),
    ]
    for bad in tampered:
        with pytest.raises(CheckFailed):
            checks.check_certificate(tree, eqs, w, *bad)


def test_member_answers_agree_with_the_oracle(case):
    d, system, tree, _ = case
    subject = workloads.Subject(sf, tree, True, lambda: workloads.plain_equations(system))
    fan = sf.splice_fan(d)
    for w, cone in workloads.draw_queries(random.Random(3), tree, 8):
        ans = workloads.plain_member(sf.membership(system, w, fan))
        workloads.check_member(subject, w, ans, cone)
    flipped = ("in", "on_ray", "u", (Fraction(1),))
    with pytest.raises(CheckFailed):
        workloads.check_member(subject, (1, 1, 1, 1, 1), flipped, None)


def test_end_curve_check_rejects_bad_components(case):
    d, system, tree, eqs = case
    curve = sf.parameterize(sf.end_curve_system(system, sf.root(d, "l1")))
    args = (tree, eqs, "l1", curve.leaves)
    checks.check_end_curve(*args, curve.exponents, curve.g, curve.components)
    comp = curve.components[0]
    bad_components = [
        (comp[:1] + (comp[1] * 2,) + comp[2:],),
        (comp[:1] + (complex("inf"),) + comp[2:],),
        (comp[:1] + (complex(-0.0, 0.0),) + comp[2:],),
        (tuple(complex(c) * (1 + 1e-3) for c in comp),),
        (comp, comp),
    ]
    for bad in bad_components:
        with pytest.raises(CheckFailed):
            checks.check_end_curve(*args, curve.exponents, curve.g, bad)
    with pytest.raises(CheckFailed):
        checks.check_end_curve(*args, curve.exponents[::-1], curve.g, curve.components)
    # floating components within the tolerance pass
    near = (tuple(complex(c) for c in comp),)
    checks.check_end_curve(*args, curve.exponents, curve.g, near)


def test_end_curve_shape_is_judged_apart_from_the_coefficients(case):
    d, system, tree, eqs = case
    curve = sf.parameterize(sf.end_curve_system(system, sf.root(d, "l1")))
    broken = (tuple(complex("inf") for _ in curve.components[0]),)
    checks.check_end_curve_shape(tree, "l1", curve.leaves, curve.exponents, curve.g, broken)
    with pytest.raises(CheckFailed):
        checks.check_end_curve_coefficients(tree, eqs, "l1", curve.exponents, broken)
    with pytest.raises(CheckFailed):
        checks.check_end_curve_shape(tree, "l1", curve.leaves[::-1], curve.exponents,
                                     curve.g, curve.components)


def test_only_a_raise_after_the_numeric_solve_counts_as_the_known_fault():
    fault = ("raised", "SolveFailed", "parameterized components fail substitution")
    # (10, 1) seed 0 at l6 takes the floating-point branch and fails substitution
    d = sf.random_diagram(10, 1, 0)
    assert workloads.raised_after_numeric_solve(sf, d, sf.build_system(d), "l6", fault)
    # an exact end-curve that did not raise is not excused by a claimed fault
    assert not workloads.raised_after_numeric_solve(sf, d1(), sf.build_system(d1()), "l1", fault)


def test_cli_components_parse_exactly_or_as_floats():
    assert checks.parse_component(["-3/7", "0"]) == Fraction(-3, 7)
    assert checks.parse_component(["1.5", "0.0"]) == complex(1.5, 0)
    assert not checks._finite_nonzero(checks.parse_component(["inf", "inf"]))
    assert not checks._finite_nonzero(checks.parse_component(["-0.0", "0.0"]))


def test_recovered_and_generated_diagram_checks():
    d = sf.random_diagram(6, 2, 9)
    tree = workloads.tree_of(d)
    doc = workloads.diagram_doc(tree)
    checks.check_same_diagram(doc, doc)
    changed = {**doc, "edges": [dict(e) for e in doc["edges"]]}
    edge = next(e for e in changed["edges"] if "wa" in e)
    edge["wa"] += 1
    with pytest.raises(CheckFailed):
        checks.check_same_diagram(changed, doc)
    v = tree.nodes[0]
    u1, u2 = tree.adj[v][:2]
    weights = {**tree.weight, (v, u2): tree.weight[(v, u1)]}
    shared = checks.Tree(tree.leaves, tree.nodes, [
        (a, b, weights.get((a, b)), weights.get((b, a))) for a, b in tree.edge_list])
    with pytest.raises(CheckFailed):
        checks.check_valid_diagram(shared, 6, 2, coprime=True)
    with pytest.raises(CheckFailed):
        checks.check_valid_diagram(tree, 6, 3, coprime=True)


def test_span_totals_subtract_child_time():
    s = [["a", 0.0, 1.0, -1], ["b", 0.1, 0.4, 0], ["b", 0.5, 0.6, 0], ["c", 0.2, 0.3, 1]]
    t = spans.totals(s)
    assert t["a"]["calls"] == 1 and t["b"]["calls"] == 2
    assert t["a"]["self_ms"] == pytest.approx(600)
    assert t["b"]["ms"] == pytest.approx(400) and t["b"]["self_ms"] == pytest.approx(300)
    grouped = spans.totals(s, lambda name: "x")
    assert grouped["x"]["ms"] == pytest.approx(1000)


def test_tracer_wraps_every_namespace_and_restores():
    tracer = spans.Tracer()
    original = sf.check_conditions
    tracer.install("splicefan.diagram", "check_conditions", "diagram.check_conditions")
    try:
        sf.build_system(d1())
        names = [s[0] for s in tracer.spans]
        assert names.count("diagram.check_conditions") == 1   # reached via system.py
    finally:
        tracer.uninstall()
    assert sf.check_conditions is original


def test_pace_scales_calls_by_the_samples_around_them():
    import speed

    pace = speed.Pace()
    pace.samples = [0.002, 0.001, 0.003, 0.004]
    # a call holding the samples 1 and 2, and one holding none, between 2 and 3
    pace.marks = [(0.0, 0.104, 1, 3), (1.0, 1.010, 3, 3)]
    (t1, u1), (t2, u2) = pace.speeds()
    assert (round(t1, 9), u1) == (0.1, 0.002) and (round(t2, 9), u2) == (0.01, 0.0035)
    assert [round(x, 9) for x in pace.scaled()] == [0.05, round(0.01 / 3.5, 9)]
    with speed.Pace() as live:   # real samples are taken while calls run
        live.call(lambda: sum(i * i for i in range(300000)))
    assert live.samples and live.scaled()[0] > 0
