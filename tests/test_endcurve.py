"""End-curves: rooted linking numbers, binomial reduction, parameterization."""

import json
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from conftest import system_for
from splicefan import (
    EliminationDegenerate,
    MonomialCurve,
    SpliceDiagram,
    binomial_reduce,
    boundary_trop,
    build_system,
    cli,
    end_curve_system,
    parameterize,
    random_coefficients,
    random_diagram,
    root,
    verify_parameterization,
)
from splicefan.documents import diagram_to_doc
from splicefan.endcurve import node_binomials
from splicefan.exact import nullspace_one, rref

F = Fraction


def test_root_linking_numbers(d1):
    rooted = root(d1, "l1")
    assert rooted.links() == (49, 30, 42, 105)


def test_root_of_star(s0):
    assert root(s0, "l1").links() == (5, 3)


def test_root_requires_leaf(d1):
    with pytest.raises(ValueError):
        root(d1, "u")


def test_end_curve_equations(d1_system, d1):
    ecs = end_curve_system(d1_system, root(d1, "l1"))
    polys = {(n, i): p for n, i, p in ecs.equations}
    terms = {m for m, _ in polys[("u", 1)].terms}
    assert terms == {(0, 3, 0, 0, 0), (0, 0, 0, 1, 1)}
    assert all(
        m[0] == 0 for _, _, p in ecs.equations for m in p.support()
    )


def test_binomial_reduction_golden(d1_system, d1):
    """z4^5 = -32 z5^2, z3^7 = 2187 z5^2, z2^3 = (1/2) z4 z5."""
    ecs = end_curve_system(d1_system, root(d1, "l1"))
    relations = {
        (rel.lhs, rel.rhs): rel.const for rel in binomial_reduce(ecs).relations
    }
    assert relations[((0, 0, 0, 5, 0), (0, 0, 0, 0, 2))] == -32
    assert relations[((0, 0, 7, 0, 0), (0, 0, 0, 0, 2))] == 2187
    assert relations[((0, 3, 0, 0, 0), (0, 0, 0, 1, 1))] == F(1, 2)


def test_binomial_star_already_binomial(s0):
    system = build_system(s0)
    relations = binomial_reduce(end_curve_system(system, root(s0, "l1"))).relations
    assert len(relations) == 1
    assert relations[0].lhs == (0, 3, 0) and relations[0].rhs == (0, 0, 5)


def test_binomial_reduction_detects_broken_hamm(d1, d1_system):
    from splicefan.system import CoefficientMatrix, NodeBlock, SpliceSystem

    block = d1_system.blocks["v"]
    bad = CoefficientMatrix(
        "v", ((F(1), F(2)), (F(1), F(2)), (F(3), F(6)), (F(4), F(8)))
    )
    blocks = dict(d1_system.blocks)
    blocks["v"] = NodeBlock("v", block.star, block.exponents, bad)
    broken = SpliceSystem(d1, blocks, d1_system.equations)
    with pytest.raises(EliminationDegenerate):
        binomial_reduce(end_curve_system(broken, root(d1, "l1")))


def _reference_node_binomials(system, v, drop_position):
    """One elimination per relation: kill every surviving row but j and the
    reference with a kernel vector y of the others, then read -γ_ref/γ_j."""
    block = system.blocks[v]
    rows = block.matrix.rows
    surviving = [j for j in range(len(block.star)) if j != drop_position]
    ref = surviving[-1]
    out = []
    for j in surviving[:-1]:
        zero_rows = [rows[p] for p in surviving if p not in (j, ref)]
        y = nullspace_one(zero_rows, block.matrix.n_equations)
        gamma_j = sum(c * yc for c, yc in zip(rows[j], y))
        gamma_ref = sum(c * yc for c, yc in zip(rows[ref], y))
        out.append((v, block.exponents[j], block.exponents[ref], -gamma_ref / gamma_j))
    return out


@pytest.mark.parametrize("shape", ["d1", (12, 1, 0), (10, 2, 0), (12, 4, 0)])
@pytest.mark.parametrize("coefficients", ["vandermonde", "random"])
def test_node_binomials_match_per_relation_elimination(d1, shape, coefficients):
    diagram = d1 if shape == "d1" else random_diagram(*shape)
    coeffs = None
    if coefficients == "random":
        rng = random.Random(5)
        coeffs = {v: random_coefficients(diagram, v, rng) for v in diagram.nodes}
    system = build_system(diagram, coeffs=coeffs)
    for v in diagram.nodes:
        for drop in range(diagram.valency(v)):
            got = node_binomials(system, v, drop)
            assert all(type(b.const) is Fraction for b in got)
            assert [(b.node, b.lhs, b.rhs, b.const) for b in got] == (
                _reference_node_binomials(system, v, drop)
            )


def test_node_binomials_refuse_a_zero_kernel_entry(d1, d1_system):
    from splicefan.system import CoefficientMatrix, NodeBlock, SpliceSystem

    block = d1_system.blocks["v"]
    # full rank, but the minor of rows 1 and 2 vanishes
    bad = CoefficientMatrix("v", ((F(1), F(0)), (F(0), F(1)), (F(0), F(2)), (F(1), F(1))))
    blocks = dict(d1_system.blocks)
    blocks["v"] = NodeBlock("v", block.star, block.exponents, bad)
    broken = SpliceSystem(d1, blocks, d1_system.equations)
    with pytest.raises(EliminationDegenerate):
        node_binomials(broken, "v", 0)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@pytest.mark.parametrize("valency", range(3, 13))
@pytest.mark.parametrize("coefficients", ["vandermonde", "random"])
def test_kernel_plane_spans_the_node_relations(valency, coefficients):
    star = SpliceDiagram.star(PRIMES[:valency])
    coeffs = None
    if coefficients == "random":
        coeffs = {"n1": random_coefficients(star, "n1", random.Random(valency))}
    block = build_system(star, coeffs=coeffs).blocks["n1"]
    rows = block.matrix.rows
    assert len(block.matrix.kernel) == 2 and len(rref(block.matrix.kernel)[0]) == 2
    for y in block.matrix.kernel:
        assert all(type(c) is Fraction for c in y)
        for i in range(block.matrix.n_equations):
            assert sum(yj * row[i] for yj, row in zip(y, rows)) == 0


def test_rank_deficient_block_has_a_larger_plane(d1, d1_system):
    from splicefan.system import CoefficientMatrix, NodeBlock, SpliceSystem

    block = d1_system.blocks["v"]
    bad = CoefficientMatrix(
        "v", ((F(1), F(2)), (F(1), F(2)), (F(3), F(6)), (F(4), F(8)))
    )
    broken_block = NodeBlock("v", block.star, block.exponents, bad)
    assert len(broken_block.matrix.kernel) >= 3
    for y in broken_block.matrix.kernel:
        assert all(sum(yj * row[i] for yj, row in zip(y, bad.rows)) == 0 for i in range(2))
    blocks = dict(d1_system.blocks)
    blocks["v"] = broken_block
    broken = SpliceSystem(d1, blocks, d1_system.equations)
    for drop in range(len(block.star)):
        with pytest.raises(EliminationDegenerate):
            node_binomials(broken, "v", drop)


def test_parameterize_worked_example(d1_system, d1):
    rooted = root(d1, "l1")
    curve = parameterize(end_curve_system(d1_system, rooted))
    assert curve.exponents == (49, 30, 42, 105)
    assert curve.g == 1 and len(curve.components) == 1


def test_published_parameterization_verifies_exactly(d1_system, d1):
    ecs = end_curve_system(d1_system, root(d1, "l1"))
    reference = MonomialCurve(
        root="l1",
        leaves=("l2", "l3", "l4", "l5"),
        exponents=(49, 30, 42, 105),
        g=1,
        components=((F(-1), F(3), F(-2), F(1)),),
        exact=True,
    )
    assert verify_parameterization(reference, ecs)
    flipped = MonomialCurve(
        root="l1",
        leaves=("l2", "l3", "l4", "l5"),
        exponents=(49, 30, 42, 105),
        g=1,
        components=((F(1), F(3), F(-2), F(1)),),
        exact=True,
    )
    assert not verify_parameterization(flipped, ecs)


def test_verify_vacuous_without_equations(d1_system, d1):
    ecs = end_curve_system(d1_system, root(d1, "l1"))
    empty = ecs.__class__(rooted=ecs.rooted, system=ecs.system, equations=())
    curve = MonomialCurve(
        root="l1", leaves=("l2", "l3", "l4", "l5"), exponents=(49, 30, 42, 105),
        g=1, components=((F(1), F(1), F(1), F(1)),), exact=True,
    )
    assert verify_parameterization(curve, empty)


def test_two_component_star():
    s = SpliceDiagram.star([2, 4, 3])
    rooted = root(s, "l3")
    assert rooted.links() == (4, 2)
    curve = parameterize(end_curve_system(build_system(s), rooted))
    assert curve.exponents == (2, 1) and curve.g == 2
    assert len(curve.components) == 2


def test_component_count_and_primitivity(pool_small):
    from math import gcd

    for k, d in enumerate(pool_small[:12]):
        system = system_for(d, seed=None if k % 2 else 1000 + k)
        for leaf in d.leaves:
            rooted = root(d, leaf)
            curve = parameterize(end_curve_system(system, rooted))
            links = rooted.links()
            g = 0
            for value in links:
                g = gcd(g, value)
            assert curve.g == g and len(curve.components) == g
            e_gcd = 0
            for e in curve.exponents:
                e_gcd = gcd(e_gcd, e)
            assert e_gcd == 1


def test_binomials_are_node_weight_homogeneous(pool_small):
    """Both monomials of a relation at v pair with w_v to the total weight,
    and with the root links to the root-to-node linking number."""
    for d in pool_small[:10]:
        system = build_system(d)
        for leaf in d.leaves:
            rooted = root(d, leaf)
            relations = binomial_reduce(end_curve_system(system, rooted)).relations
            for rel in relations:
                wv = d.node_weight_vector(rel.node)
                dv = d.total_weight(rel.node)
                assert sum(a * b for a, b in zip(wv, rel.lhs)) == dv
                assert sum(a * b for a, b in zip(wv, rel.rhs)) == dv
                link = d.linking_number(leaf, rel.node)
                for m in (rel.lhs, rel.rhs):
                    degree = sum(
                        e * d.linking_number(leaf, l)
                        for e, l in zip(m, d.leaves)
                        if e
                    )
                    assert degree == link


def test_boundary_ray_matches_end_curve_exponents(pool_boundary):
    for d in pool_boundary[:10]:
        system = build_system(d)
        for leaf in d.leaves:
            rooted = root(d, leaf)
            curve_exponents = parameterize(end_curve_system(system, rooted)).exponents
            ray = boundary_trop(system, [leaf], cross_check=False)
            assert ray == curve_exponents


@pytest.mark.parametrize(
    "shape, leaf",
    [
        ((12, 1, 0), "l1"),   # the floating components overflow to inf
        ((12, 2, 27), "l5"),  # substituting them overflows a power
        ((12, 1, 2), "l11"),  # tiny components with a residual as large as the terms
    ],
)
def test_numeric_end_curve_failures_are_explicit(shape, leaf, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(diagram_to_doc(random_diagram(*shape, require_coprime=True))))
    code = cli.main(["endcurve", str(path), "--root", leaf])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["payload"]["error"] == "SolveFailed"


def test_numeric_solve_leaves_global_mpmath_precision_alone(monkeypatch):
    import mpmath

    class FrozenPrecision:
        @property
        def dps(self):
            return 15

        @dps.setter
        def dps(self, value):
            raise AssertionError("the global mpmath precision was changed")

    monkeypatch.setattr(mpmath, "mp", FrozenPrecision())
    d = random_diagram(4, 1, 0, require_coprime=False)
    curve = parameterize(end_curve_system(build_system(d), root(d, "l1")))
    assert not curve.exact and curve.g == 4 and len(curve.components) == 4


def test_cli_import_leaves_numpy_unloaded():
    """``import splicefan.cli`` loads neither the numeric libraries nor the
    code-generating ``dataclasses`` and its ``inspect``.  Only modules that
    a bare interpreter does not already load count: site hooks differ."""
    heavy = ("numpy", "mpmath", "dataclasses", "inspect")
    probe = f"import json, sys; print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
    loaded = []
    for prefix in ("", "import splicefan.cli; "):
        proc = subprocess.run([sys.executable, "-c", prefix + probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded.append(set(json.loads(proc.stdout)))
    bare, cli = loaded
    assert cli - bare == set()


def test_numeric_solves_agree_across_threads():
    d = random_diagram(4, 1, 0, require_coprime=False)
    ecs = end_curve_system(build_system(d), root(d, "l1"))
    expected = parameterize(ecs).components
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(lambda _: parameterize(ecs).components, range(16), timeout=120)
            )
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 16
    assert all(components == expected for components in results)
