"""End-curves: rooted linking numbers, binomial reduction, parameterization."""

import cmath
import functools
import itertools
import json
import math
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import LADDER, solve_inputs, system_for
from splicefan import (
    EliminationDegenerate,
    MonomialCurve,
    SpliceDiagram,
    binomial_reduce,
    boundary_trop,
    build_system,
    cli,
    end_curve_system,
    endcurve,
    parameterize,
    random_coefficients,
    random_diagram,
    root,
    smoothness_smoke,
    verify_parameterization,
)
from splicefan.documents import diagram_from_doc, diagram_to_doc
from splicefan.endcurve import node_binomials, solve_binomial_torus
from splicefan.errors import SolveFailed
from splicefan.exact import gcd_list, nullspace_one, rref, smith_normal_form

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


def test_torus_components_is_the_branch_beyond_each_directed_edge(d1, d1_system, pool_small):
    """At every directed edge [v, u] with u a node: primitive exponents
    l'(v, l) / g over the leaves beyond u, and g components; at a leaf v,
    these are parameterize's exponents and g, and l' is the linking number."""
    edges = 0
    for system in [d1_system] + [build_system(d) for d in pool_small]:
        d = system.diagram
        for a, b in d.edges():
            for v, u in ((a, b), (b, a)):
                if not d.is_node(u):
                    continue
                exponents, g, solutions, _ = endcurve.torus_components(system, v, u)
                links = [d.reduced_linking(v, l) for l in d.leaves_beyond(v, u)]
                assert gcd_list(exponents) == 1 and [g * e for e in exponents] == links
                assert len(solutions) == g
                if d.is_leaf(v):
                    curve = parameterize(end_curve_system(system, root(d, v)))
                    assert (curve.exponents, curve.g) == (exponents, g)
                    assert root(d, v).links() == tuple(links)
                edges += 1
    assert edges == 291


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


# ---------------------------------------------------------------------------
# The solve against context-level mpmath references
# ---------------------------------------------------------------------------

def _reduce_columns_reference(mat, kernels):
    width = len(mat)
    if not width:
        return
    n_cols = len(mat[0])
    for kernel in kernels:
        weight = sum(c * c for c in kernel)
        if weight == 0:
            continue
        for j in range(n_cols):
            guess = -round(Fraction(sum(mat[k][j] * kernel[k] for k in range(width)), weight))
            best, best_cost = 0, None
            for t in range(guess - 2, guess + 3):
                cost = sum(abs(mat[k][j] + t * kernel[k]) for k in range(width))
                if best_cost is None or cost < best_cost:
                    best, best_cost = t, cost
            if best:
                for k in range(width):
                    mat[k][j] += best * kernel[k]


@functools.lru_cache(maxsize=None)
def _context():
    from mpmath import MPContext

    ctx = MPContext()
    ctx.dps = 60
    return ctx


def _reference_phases(rows, consts, width):
    """Every component's phases q_k (Fractions mod 2, x_k = |x_k| e^(i pi q_k)),
    in torsion order: log kappa_j has imaginary part pi [kappa_j < 0],
    log y_i = (U log kappa)_i / d_i + 2 pi i t_i / d_i, and log x is the
    kernel-reduced V columns' combination of log y."""
    u, s, v = smith_normal_form([list(r) for r in rows])
    diag = [s[i][i] for i in range(width - 1)]
    exps = [[v[k][i] for i in range(width - 1)] for k in range(width)]
    _reduce_columns_reference(exps, [[row[width - 1] for row in v]])
    negative = [sum(c for c, const in zip(row, consts) if const < 0) for row in u]
    return [
        tuple(
            sum(
                (Fraction(exps[k][i] * (negative[i] + 2 * t), diag[i])
                 for i, t in enumerate(torsion)),
                Fraction(0),
            ) % 2
            for k in range(width)
        )
        for torsion in itertools.product(*(range(d) for d in diag))
    ]


def _polar(modulus, q):
    """modulus * e^(i pi q) on the 60-digit context, q a Fraction."""
    ctx = _context()
    x = ctx.mpf(q.numerator) / q.denominator
    return complex(float(modulus * ctx.cospi(x)), float(modulus * ctx.sinpi(x)))


def _solve_reference(rows, consts, width, exact_phase=False):
    """solve_binomial_torus as it was written on a 60-digit mpmath context:
    the whole exact attempt first, then every numeric step as an mpf/mpc
    expression, zero coefficients included.

    By default each coefficient is the complex exponential of its log, so
    the phase passes through floating point; that value is the oracle for
    the moduli.  With ``exact_phase`` each coefficient is ctx.exp of the
    log's real part turned by the exact phase of _reference_phases."""
    if not rows:
        return [tuple(Fraction(1) for _ in range(width))], True
    u, s, v = smith_normal_form([list(r) for r in rows])
    n_rows = len(rows)
    diag = [s[i][i] for i in range(min(n_rows, width))]
    rank = sum(1 for d in diag if d != 0)
    kappa = [Fraction(c) for c in consts]
    if any(c == 0 for c in kappa):
        raise SolveFailed("zero constant in a binomial relation")
    logk = [cmath.log(complex(c)) for c in kappa]
    for i in range(rank, n_rows):
        if abs(sum(u[i][j] * logk[j] for j in range(n_rows))) > 1e-6:
            raise SolveFailed("inconsistent binomial system")
    kernels = [[v[k][j] for k in range(width)] for j in range(rank, width)]

    if all(d == 1 for d in diag[:rank]):
        m = [
            [sum(v[k][i] * u[i][j] for i in range(rank)) for j in range(n_rows)]
            for k in range(width)
        ]
        _reduce_columns_reference(m, kernels)
        kappa_bits = [c.numerator.bit_length() + c.denominator.bit_length() for c in kappa]
        load = max(
            sum(abs(m[k][j]) * kappa_bits[j] for j in range(n_rows)) for k in range(width)
        )
        if load <= 1500:
            solution = []
            for k in range(width):
                value = Fraction(1)
                for j in range(n_rows):
                    if m[k][j]:
                        value *= kappa[j] ** m[k][j]
                solution.append(value)
            return [tuple(solution)], True

    ctx = _context()
    exps = [[v[k][i] for i in range(rank)] for k in range(width)]
    _reduce_columns_reference(exps, kernels)
    phases = _reference_phases(rows, consts, width) if exact_phase else None
    logk_mp = [
        ctx.log(ctx.mpc(c.numerator)) - ctx.log(ctx.mpc(c.denominator)) for c in kappa
    ]
    base_logy = [
        sum(u[i][j] * logk_mp[j] for j in range(n_rows)) / diag[i] for i in range(rank)
    ]
    solutions = []

    def emit(torsion):
        logy = [
            base_logy[i] + 2 * ctx.pi * ctx.mpc(0, 1) * torsion[i] / diag[i]
            for i in range(rank)
        ]
        logx = [sum(exps[k][i] * logy[i] for i in range(rank)) for k in range(width)]
        for kernel in kernels:
            weight = sum(c * c for c in kernel)
            if weight == 0:
                continue
            shift = -sum(logx[k].real * kernel[k] for k in range(width)) / weight
            logx = [logx[k] + shift * kernel[k] for k in range(width)]
        if phases is None:
            solutions.append(tuple(complex(ctx.exp(val)) for val in logx))
        else:
            turns = phases[len(solutions)]
            solutions.append(tuple(_polar(ctx.exp(val.real), q) for val, q in zip(logx, turns)))

    def expand(prefix, level):
        if level == rank:
            emit(prefix)
            return
        for t in range(diag[level]):
            expand(prefix + [t], level + 1)

    expand([], 0)
    return solutions, False


def _bits(solutions):
    """Every component's entries as the reprs of their parts."""
    return [
        [(repr(c.real), repr(c.imag)) if isinstance(c, complex) else repr(c) for c in comp]
        for comp in solutions
    ]


def _same_solve(rows, consts, width):
    """Solve with both; return whether the reference took the numeric branch."""
    solutions, exact = solve_binomial_torus(rows, consts, width)
    expected, expected_exact = _solve_reference(rows, consts, width, exact_phase=True)
    assert exact == expected_exact, rows
    assert _bits(solutions) == _bits(expected), rows
    return not exact


def _same_real_parts(rows, consts, width):
    """The solve's real parts are those of the complex-exponential reference."""
    solutions, _ = solve_binomial_torus(rows, consts, width)
    expected, _ = _solve_reference(rows, consts, width)
    real = [[repr(complex(c).real) for c in comp] for comp in solutions]
    assert real == [[repr(complex(c).real) for c in comp] for comp in expected], rows


def _golden_end_curve_inputs():
    """The solve inputs of every answered endcurve command of the golden corpus."""
    golden = json.loads((Path(__file__).with_name("golden") / "cli.json").read_text())
    for case in golden["cases"]:
        argv = case["argv"]
        if argv[0] != "endcurve" or case["exit"] != 0:
            continue
        diagram = diagram_from_doc(json.loads(golden["files"][argv[1]]))
        seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None
        yield solve_inputs(system_for(diagram, seed), argv[3])


def test_solve_matches_the_context_reference_on_the_ladder(ladder_solves):
    assert len(ladder_solves) == 486
    assert all(_same_solve(*inputs) for inputs in ladder_solves)


def test_solve_matches_the_context_reference_on_the_golden_corpus():
    numeric = 0
    for inputs in _golden_end_curve_inputs():
        numeric += _same_solve(*inputs)
        _same_real_parts(*inputs)
    assert numeric == 46, numeric


def test_solve_matches_the_context_reference_with_torsion():
    """Roots of non-coprime diagrams, whose Smith diagonal has an entry
    above 1, so that the 2*pi*i*t/d torsion term is taken."""
    roots, two_torsion = 0, 0
    shapes = [(n, k, s) for n, k in ((4, 1), (5, 1), (5, 2)) for s in range(4)]
    for n, k, s in shapes + [(7, 2, 0), (7, 2, 3)]:
        system = build_system(random_diagram(n, k, s, require_coprime=False))
        for leaf in system.diagram.leaves:
            rows, consts, width = solve_inputs(system, leaf)
            _, smith, _ = smith_normal_form(rows)
            diag = [smith[i][i] for i in range(min(len(rows), width))]
            components = 1
            for d in diag:
                components *= d
            if components == 1 or components > 300:
                continue
            assert _same_solve(rows, consts, width)
            roots += 1
            two_torsion += sum(d > 1 for d in diag) > 1
    assert roots >= 20 and two_torsion >= 3, (roots, two_torsion)


def test_answered_ladder_roots_keep_the_reference_moduli():
    """Exact phases leave the moduli alone: at every ladder root that
    parameterize answers, every real part is the complex-exponential
    reference's."""
    answered = 0
    for n, k in LADDER:
        for seed in (0, 1, 2):
            d = random_diagram(n, k, seed)
            system = build_system(d)
            for leaf in d.leaves:
                try:
                    parameterize(end_curve_system(system, root(d, leaf)))
                except SolveFailed:
                    continue
                _same_real_parts(*solve_inputs(system, leaf))
                answered += 1
    assert answered == 437, answered


def test_numeric_coefficients_carry_no_phase_noise(ladder_solves):
    """No imaginary part is rounding noise: it is 0.0, exactly so with the
    right sign of the real part where the phase is an integer (a modulus
    that underflows keeps the sign as -0.0), or at least 1e-30 of the
    coefficient's modulus."""
    checked = 0
    for rows, consts, width in list(ladder_solves) + list(_golden_end_curve_inputs()):
        solutions, exact = solve_binomial_torus(rows, consts, width)
        if exact:
            continue
        for comp, turns in zip(solutions, _reference_phases(rows, consts, width), strict=True):
            for z, q in zip(comp, turns, strict=True):
                assert z.imag == 0.0 or abs(z.imag) >= 1e-30 * abs(z), (rows, z)
                if q.denominator == 1:
                    assert z.imag == 0.0 and (math.copysign(1, z.real) < 0) == (q == 1), (rows, z, q)
                checked += 1
    assert checked == 4116 + 372, checked


def test_parameterize_refuses_past_the_component_bound(tmp_path, capsys):
    """A root with g = 4,667,544 is refused before any solve, in the API, in
    the smoke sampler at its leaf cone, and in the CLI."""
    d = random_diagram(11, 1, 1, require_coprime=False)
    system = build_system(d)
    ecs = end_curve_system(system, root(d, "l6"))
    ray = d.node_weight_vector(d.neighbors("l6")[0])
    start = time.perf_counter()
    with pytest.raises(SolveFailed, match="^4667544 components exceed the bound of 10000$"):
        parameterize(ecs)
    with pytest.raises(SolveFailed, match="^4667544 components exceed the bound of 10000$"):
        smoothness_smoke(system, tuple(x + (l == "l6") for x, l in zip(ray, d.leaves)))
    assert time.perf_counter() - start < 1.0
    path = tmp_path / "d.json"
    path.write_text(json.dumps(diagram_to_doc(d)))
    assert cli.main(["endcurve", str(path), "--root", "l6"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["payload"]["error"] == "SolveFailed"


def test_component_bound_is_inclusive(monkeypatch):
    d = random_diagram(4, 1, 0, require_coprime=False)
    ecs = end_curve_system(build_system(d), root(d, "l1"))
    monkeypatch.setattr(endcurve, "MAX_COMPONENTS", 4)
    assert parameterize(ecs).g == 4
    monkeypatch.setattr(endcurve, "MAX_COMPONENTS", 3)
    with pytest.raises(SolveFailed, match="^4 components exceed the bound of 3$"):
        parameterize(ecs)


DIAGRAM_40 = Path(__file__).with_name("data") / "random_40_14_seed0.json"
OUTCOMES_40 = Path(__file__).with_name("data") / "random_40_14_seed0_endcurves.json"


def test_every_end_curve_kernel_is_the_last_column_of_v():
    """The one-kernel solve rests on this: at every root of the ladder
    diagrams and of the 40-leaf document, the exponent matrix is
    (w - 1) x w with a nonzero Smith diagonal, and V's last column is, up
    to sign, the curve's primitive exponents l(root, .) / g."""
    diagrams = [random_diagram(n, k, seed) for n, k in LADDER for seed in (0, 1, 2)]
    diagrams.append(diagram_from_doc(json.loads(DIAGRAM_40.read_text())))
    roots = 0
    for d in diagrams:
        system = build_system(d)
        for leaf in d.leaves:
            rows, _, width = solve_inputs(system, leaf)
            _, smith, v = smith_normal_form(rows)
            assert len(rows) == width - 1 and all(smith[i][i] for i in range(width - 1))
            links = root(d, leaf).links()
            exponents = [link // gcd_list(links) for link in links]
            last = [row[-1] for row in v]
            assert last in (exponents, [-e for e in exponents]), (leaf, last)
            roots += 1
    assert roots == 486 + 40


@pytest.mark.parametrize("rows, width", [
    pytest.param([[2, -1, 0], [4, -2, 0]], 3, id="rank-deficient"),
    pytest.param([[2, -1, 0], [0, 0, 0]], 3, id="zero-row"),
    pytest.param([[2, -1, 0]], 3, id="too-few-rows"),
    pytest.param([[2, -1], [0, 3], [1, 1]], 2, id="too-many-rows"),
    pytest.param([[2, -1, 0], [0, 3]], 3, id="short-row"),
    pytest.param([], 1, id="no-relation"),
])
def test_solve_refuses_what_is_not_an_end_curve_system(rows, width):
    with pytest.raises(SolveFailed):
        solve_binomial_torus(rows, [F(1)] * len(rows), width)


def test_forty_leaf_roots_refuse_as_recorded():
    """Every root of the recorded 40-leaf diagram raises the recorded
    exception class and message: at each of the 40 roots, the numeric
    components fail substitution."""
    recorded = json.loads(OUTCOMES_40.read_text())
    assert recorded["diagram"] == DIAGRAM_40.name
    d = diagram_from_doc(json.loads(DIAGRAM_40.read_text()))
    system = build_system(d)
    assert sorted(recorded["outcomes"]) == sorted(d.leaves)
    outcomes = {}
    for leaf in d.leaves:
        try:
            parameterize(end_curve_system(system, root(d, leaf)))
            outcomes[leaf] = ["ok", ""]
        except Exception as exc:  # the class and message are the outcome
            outcomes[leaf] = [type(exc).__name__, str(exc)]
    assert outcomes == recorded["outcomes"]
