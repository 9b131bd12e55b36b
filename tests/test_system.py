"""Splice type systems: Hamm checks, assembly, initial forms, tails."""

import functools
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import make_d1, system_for, worked_coefficients
from splicefan import (
    CoefficientMatrix,
    ConditionViolation,
    HammViolation,
    Polynomial,
    SpliceDiagram,
    TailViolation,
    build_system,
    check_hamm,
    default_coefficients,
    predicted_initial_form,
    random_coefficients,
    validate_tail,
)
from splicefan import system as system_module
from splicefan.documents import diagram_from_doc, system_from_doc, system_to_doc
from splicefan.exact import kernel_basis

F = Fraction


def poly(*terms):
    return Polynomial(list(terms))


def test_default_coefficients_are_vandermonde(d1):
    cu = default_coefficients(d1, "u")
    assert cu.rows == ((F(1),), (F(1),), (F(1),))
    cv = default_coefficients(d1, "v")
    assert cv.rows == ((F(1), F(1)), (F(1), F(2)), (F(1), F(3)), (F(1), F(4)))
    assert check_hamm(cu) and check_hamm(cv)


@pytest.mark.parametrize("valency", range(3, 16))
def test_vandermonde_plane_is_shared_per_valency(valency):
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    star = SpliceDiagram.star(primes[:valency])
    first, second = (default_coefficients(star, "n1") for _ in range(2))
    assert first.rows is second.rows
    assert first.kernel is second.kernel
    rows = first.rows
    fresh = kernel_basis([[row[i] for row in rows] for i in range(valency - 2)], valency)
    assert first.kernel == fresh
    # equal rows in a tuple of their own are eliminated afresh, to the same plane
    copy = CoefficientMatrix("n1", tuple(tuple(row) for row in rows))
    assert copy.rows is not rows and copy.kernel is not first.kernel
    assert copy.kernel == fresh


def test_check_hamm_worked_example_matrix():
    m = CoefficientMatrix(
        "v", ((F(1), F(33)), (F(1), F(1)), (F(1), F(2)), (F(-2155), F(-2123)))
    )
    assert check_hamm(m)


def test_check_hamm_repeated_row_fails():
    m = CoefficientMatrix("v", ((F(1), F(2)), (F(1), F(2)), (F(3), F(4)), (F(5), F(6))))
    assert not check_hamm(m)


def test_check_hamm_shape_guard():
    with pytest.raises(ValueError):
        check_hamm(CoefficientMatrix("u", ((F(1), F(2)), (F(3), F(4)))))


def _fraction_det(rows):
    rows = [[F(x) for x in r] for r in rows]
    n = len(rows)
    det = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def _seeded_hamm_matrices(count, seed):
    """Matrices of valency 3-8 from three families in turn: entries with
    denominators, zero-heavy entries in {-1, 0, 1}, and a last column that
    is the sum of the others (so every maximal minor vanishes)."""
    rng = random.Random(seed)
    for trial in range(count):
        valency = rng.randint(3, 8)
        k = valency - 2
        family = trial % 3
        rows = []
        for _ in range(valency):
            if family == 0:
                row = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k)]
            elif family == 1:
                row = [F(rng.choice((-1, 0, 1))) for _ in range(k)]
            else:
                row = [F(rng.randint(-5, 5)) for _ in range(k - 1)]
                row.append(sum(row, F(0)))
            rows.append(tuple(row))
        yield CoefficientMatrix("v", tuple(rows))


def test_check_hamm_is_every_maximal_minor_nonzero():
    failing = 0
    for m in _seeded_hamm_matrices(600, 11):
        expected = all(
            _fraction_det(sel) != 0 for sel in combinations(m.rows, m.n_equations)
        )
        assert check_hamm(m) == expected, m.rows
        failing += not expected
    assert 100 <= failing <= 500


def test_check_hamm_refuses_ragged_rows_before_eliminating():
    m = CoefficientMatrix("v", ((F(1), F(2)), (F(1),), (F(3), F(4)), (F(5), F(6))))
    with pytest.raises(ValueError, match="ragged"):
        check_hamm(m)
    assert "kernel" not in vars(m)


def test_lazy_kernel_plane_is_thread_safe():
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    rng = random.Random(3)
    drawn = []
    for valency in range(3, 9):
        star = SpliceDiagram.star(primes[:valency])
        drawn += [random_coefficients(star, "n1", rng) for _ in range(4)]

    def fresh():
        # new records of the same rows, whose kernels are not read yet
        return [CoefficientMatrix(m.node, m.rows) for m in drawn]

    def read(matrices):
        return [(check_hamm(m), m.kernel) for m in matrices]

    expected = read(fresh())
    shared = fresh()
    assert not any("kernel" in vars(m) for m in shared)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: read(shared), range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4
    assert all(result == expected for result in results)
    assert all(hamm for hamm, _ in expected)


def test_check_hamm_on_non_integer_rationals():
    rows = ((F(1, 2), F(1, 3)), (F(2, 3), F(-5, 7)), (F(3, 4), F(1, 5)), (F(-1, 6), F(9, 11)))
    assert all(_fraction_det(sel) != 0 for sel in combinations(rows, 2))
    assert check_hamm(CoefficientMatrix("v", rows))
    # row 2 is 3/2 times row 0, so exactly one minor vanishes
    vanishing = (rows[0], rows[1], (F(3, 4), F(1, 2)), rows[3])
    assert sum(_fraction_det(sel) == 0 for sel in combinations(vanishing, 2)) == 1
    assert not check_hamm(CoefficientMatrix("v", vanishing))


def test_random_coefficients_pass_hamm(d1):
    rng = random.Random(5)
    for v in d1.nodes:
        assert check_hamm(random_coefficients(d1, v, rng))


def _count_hamm_work(monkeypatch):
    """Record the rows of each kernel elimination and the kernel of each
    minor check made through the system module."""
    eliminated, checked = [], []
    kernel, verdict = system_module._transposed_kernel, system_module._plane_in_general_position
    monkeypatch.setattr(system_module, "_transposed_kernel",
                        lambda rows: eliminated.append(rows) or kernel(rows))
    monkeypatch.setattr(system_module, "_plane_in_general_position",
                        lambda plane: checked.append(plane) or verdict(plane))
    return eliminated, checked


def test_random_coefficients_and_build_decide_hamm_once_per_matrix(monkeypatch, pool_small):
    eliminated, checked = _count_hamm_work(monkeypatch)
    rng = random.Random(7)
    accepted = []
    for d in pool_small:
        coeffs = {v: random_coefficients(d, v, rng) for v in d.nodes}
        build_system(d, coeffs=coeffs)
        accepted += coeffs.values()
    assert len(accepted) > 20
    for m in accepted:
        assert sum(rows is m.rows for rows in eliminated) == 1
        assert sum(plane is m.kernel for plane in checked) == 1
    # every drawn matrix, accepted or redrawn, is eliminated and checked once
    assert len(eliminated) == len(checked) == len({id(rows) for rows in eliminated})


def test_vandermonde_hamm_is_decided_once_per_valency(monkeypatch, pool_small):
    _, checked = _count_hamm_work(monkeypatch)
    monkeypatch.setattr(system_module, "_vandermonde_hamm",
                        functools.cache(system_module._vandermonde_hamm.__wrapped__))
    valencies = set()
    for d in pool_small:
        build_system(d)
        build_system(d)
        valencies.update(d.valency(v) for v in d.nodes)
    assert len(valencies) > 1
    assert len(checked) == len(valencies)


def test_a_broken_matrix_is_refused_whether_or_not_its_verdict_is_kept(d1):
    rows = ((F(1), F(1)), (F(1), F(1)), (F(2), F(3)), (F(4), F(5)))
    kept = CoefficientMatrix("v", rows)
    assert not check_hamm(kept)
    for bad in (kept, CoefficientMatrix("v", rows)):
        with pytest.raises(HammViolation):
            build_system(d1, coeffs={"v": bad})
    assert not kept.hamm


def test_build_worked_example_system(d1_system, d1):
    eqs = {(e.node, e.index): e.minimal for e in d1_system.equations}
    assert eqs[("u", 1)] == poly(((2, 0, 0, 0, 0), 1), ((0, 3, 0, 0, 0), -2), ((0, 0, 0, 1, 1), 1))
    assert eqs[("v", 1)] == poly(
        ((1, 4, 0, 0, 0), 1), ((0, 0, 7, 0, 0), 1), ((0, 0, 0, 5, 0), 1), ((0, 0, 0, 0, 2), -2155)
    )
    assert eqs[("v", 2)] == poly(
        ((1, 4, 0, 0, 0), 33), ((0, 0, 7, 0, 0), 1), ((0, 0, 0, 5, 0), 2), ((0, 0, 0, 0, 2), -2123)
    )
    assert len(d1_system.equations) == d1.n - 2


def test_build_star_system():
    s = SpliceDiagram.star([2, 3, 5])
    system = build_system(s)
    assert system.equations[0].minimal == poly(
        ((2, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 5), 1)
    )


def test_build_with_alternate_decomposition(d1):
    from conftest import worked_coefficients

    system = build_system(
        d1, coeffs=worked_coefficients(), coweights={("v", "u"): {"l1": 3, "l2": 1}}
    )
    eq = next(e for e in system.equations if (e.node, e.index) == ("v", 1))
    assert (3, 1, 0, 0, 0) in eq.minimal.support()
    assert (1, 4, 0, 0, 0) not in eq.minimal.support()


def test_bad_coweight_override_rejected(d1):
    with pytest.raises(ConditionViolation):
        build_system(d1, coweights={("v", "u"): {"l1": 1, "l2": 1}})


def test_build_rejects_hamm_violation(d1):
    bad = CoefficientMatrix("v", ((F(1), F(1)), (F(1), F(1)), (F(2), F(3)), (F(4), F(5))))
    with pytest.raises(HammViolation):
        build_system(d1, coeffs={"v": bad})


def test_build_rejects_failing_diagram():
    d = SpliceDiagram(
        ["l1", "l2", "l3", "l4"],
        ["u", "v"],
        [
            ("u", "l1", 2, None),
            ("u", "l2", 3, None),
            ("u", "v", 1, 1),
            ("v", "l3", 2, None),
            ("v", "l4", 3, None),
        ],
    )
    with pytest.raises(ConditionViolation):
        build_system(d)


# -- tails --------------------------------------------------------------------

def test_tail_golden_cases(d1):
    assert validate_tail(d1, "u", Polynomial.monomial((1, 0, 1, 0, 1)))
    assert not validate_tail(d1, "u", Polynomial.monomial((0, 0, 0, 1, 1)))
    assert validate_tail(d1, "u", Polynomial.zero())


def test_build_rejects_bad_tail(d1):
    with pytest.raises(TailViolation):
        build_system(d1, tails={("u", 1): Polynomial.monomial((0, 0, 0, 1, 1))})


def test_build_rejects_a_laurent_tail(d1):
    """A negative exponent entry is refused, although this one weighs more
    than every bound."""
    laurent = Polynomial.monomial((-1, 9, 9, 9, 9))
    assert not validate_tail(d1, "u", laurent)
    with pytest.raises(TailViolation):
        build_system(d1, tails={("u", 1): laurent})


def test_tail_implication(pool_small):
    """Above the node's own bound, every other node's bound follows."""
    rng = random.Random(9)
    for d in pool_small[:15]:
        for v in d.nodes:
            wv = d.node_weight_vector(v)
            dv = d.total_weight(v)
            for _ in range(40):
                m = tuple(rng.randint(0, 6) for _ in range(d.n))
                if sum(a * b for a, b in zip(wv, m)) <= dv:
                    continue
                for u in d.nodes:
                    if u == v:
                        continue
                    wu = d.node_weight_vector(u)
                    assert sum(a * b for a, b in zip(wu, m)) > d.linking_number(u, v)


# -- weights and initial forms --------------------------------------------------

def test_w_weight_and_zero_convention():
    f = poly(((2, 0), 1), ((0, 3), 1))
    assert f.weight((1, 1)) == 2
    assert Polynomial.zero().weight((1, 1)) == float("inf")
    assert Polynomial.zero().initial_form((1, 1)) == Polynomial.zero()


def test_initial_form_golden(d1_system, d1):
    wu = d1.node_weight_vector("u")
    wv = d1.node_weight_vector("v")
    fu1, fv1, fv2 = [e.minimal for e in d1_system.equations]
    drop = Polynomial.monomial((1, 4, 0, 0, 0))
    assert fv1.initial_form(wu) == fv1 - drop
    assert fv2.initial_form(wu) == fv2 - drop.scale(33)
    assert fu1.initial_form(wu) == fu1
    # at the other node the admissible monomial toward it is dropped
    assert fu1.initial_form(wv) == poly(((2, 0, 0, 0, 0), 1), ((0, 3, 0, 0, 0), -2))


def test_initial_form_idempotent(d1_system, d1):
    w = (3, 1, 4, 1, 5)
    for eq in d1_system.equations:
        once = eq.minimal.initial_form(w)
        assert once.initial_form(w) == once


def test_w_weight_is_a_valuation():
    rng = random.Random(2)
    for _ in range(25):
        f = Polynomial(
            [(tuple(rng.randint(0, 4) for _ in range(3)), rng.randint(1, 5)) for _ in range(3)]
        )
        g = Polynomial(
            [(tuple(rng.randint(0, 4) for _ in range(3)), rng.randint(1, 5)) for _ in range(3)]
        )
        if not f or not g:
            continue
        w = tuple(rng.randint(1, 7) for _ in range(3))
        assert (f * g).weight(w) == f.weight(w) + g.weight(w)


def test_predicted_initial_forms_match(pool_small):
    """in_w(F) at every node weight equals the drop-one-monomial prediction."""
    for k, d in enumerate(pool_small[:12]):
        system = system_for(d, seed=None if k % 2 else k)
        for u in d.nodes:
            wu = d.node_weight_vector(u)
            for eq in system.equations:
                predicted = predicted_initial_form(system, eq.node, eq.index, u)
                assert eq.full.initial_form(wu) == predicted


def test_predicted_initial_forms_survive_tails(pool_small):
    """Tail terms sit strictly above every node weight bound, so the node
    weight initial forms are unchanged by adding a tail."""
    rng = random.Random(31)
    checked = 0
    for d in pool_small[:8]:
        v = d.nodes[0]
        tail = None
        for _ in range(200):
            m = tuple(rng.randint(0, 5) for _ in range(d.n))
            candidate = Polynomial.monomial(m, F(rng.randint(1, 5), rng.randint(1, 3)))
            if any(m) and validate_tail(d, v, candidate):
                tail = candidate
                break
        if tail is None:
            continue
        system = build_system(d, tails={(v, 1): tail})
        for u in d.nodes:
            wu = d.node_weight_vector(u)
            for eq in system.equations:
                assert eq.full.initial_form(wu) == predicted_initial_form(
                    system, eq.node, eq.index, u
                )
        checked += 1
    assert checked >= 3


def test_predicted_initial_form_golden(d1_system):
    fv2 = next(e.minimal for e in d1_system.equations if (e.node, e.index) == ("v", 2))
    assert predicted_initial_form(d1_system, "v", 2, "u") == fv2 - Polynomial.monomial(
        (1, 4, 0, 0, 0)
    ).scale(33)
    fu1 = next(e.minimal for e in d1_system.equations if (e.node, e.index) == ("u", 1))
    assert predicted_initial_form(d1_system, "u", 1, "u") == fu1


def test_tau_truncate(d1_system, d1):
    fu1 = d1_system.equations[0].minimal
    assert fu1.truncate([d1.leaf_index("l4")]) == poly(((2, 0, 0, 0, 0), 1), ((0, 3, 0, 0, 0), -2))
    assert fu1.truncate([d1.leaf_index("l1")]) == poly(((0, 3, 0, 0, 0), -2), ((0, 0, 0, 1, 1), 1))
    assert fu1.truncate([]) == fu1


def test_truncation_commutes_when_minimum_survives(d1_system, d1):
    w = (3, 1, 4, 1, 5)
    for eq in d1_system.equations:
        for leaf in d1.leaves:
            inside = eq.minimal.initial_form(w)
            if any(m[d1.leaf_index(leaf)] for m in inside.support()):
                continue
            truncated = eq.minimal.truncate([d1.leaf_index(leaf)])
            if truncated:
                assert inside.truncate([d1.leaf_index(leaf)]) == truncated.initial_form(w)


def test_evaluate(d1_system):
    fu1 = d1_system.equations[0].minimal
    assert fu1.evaluate((1, 1, 1, 1, 1)) == 0
    assert fu1.evaluate((0, 0, 0, 0, 0)) == 0
    assert Polynomial.monomial((2, 0, 0, 0, 0)).evaluate((3, 1, 1, 1, 1)) == 9
    value = fu1.evaluate((1 + 1j, 1.0, 1.0, 2.0, 0.5))
    assert abs(value - ((1 + 1j) ** 2 - 2 + 1)) < 1e-12


# -- operations that keep terms in order ---------------------------------------

DATA = Path(__file__).with_name("data")


def _tailed(system, rng):
    """The system's document read back with a two-term tail on every
    equation: the node's first admissible exponent plus one or two at a
    random leaf, which weighs more than the node's bound."""
    doc = system_to_doc(system)
    n = system.diagram.n
    for entry in doc["equations"]:
        base = system.blocks[entry["node"]].exponents[0]
        entry["tail"] = [
            {"c": f"{rng.randint(1, 9)}/{rng.randint(1, 9)}",
             "m": [e + bump * (i == k) for i, e in enumerate(base)]}
            for bump, k in ((1, rng.randrange(n)), (2, rng.randrange(n)))
        ]
    return system_from_doc(doc)


def _ordered_rule_systems():
    """The recorded generator outputs with Vandermonde and seed-12 random
    coefficients, the tailed worked example read from its document, and
    the Vandermonde systems of every third recorded diagram with tails."""
    rng = random.Random(5)
    diagrams = [
        diagram_from_doc(e["diagram"])
        for e in json.loads((DATA / "random_diagrams.json").read_text())
    ]
    systems = [system_for(d, seed) for d in diagrams for seed in (None, 12)]
    worked = build_system(
        make_d1(),
        coeffs=worked_coefficients(),
        tails={("u", 1): Polynomial.monomial((1, 0, 1, 0, 1), F(1, 3))},
    )
    systems.append(system_from_doc(system_to_doc(worked)))
    systems += [_tailed(s, rng) for s in systems[:-1:6]]
    return systems


def test_operations_on_ordered_terms_match_a_rebuild():
    """drop, truncate, initial_form, scale and Equation.full return the
    same .terms, in the same order, as Polynomial(...) of the same terms."""
    rng = random.Random(7)
    tailed = 0
    for system in _ordered_rule_systems():
        n = system.diagram.n
        for eq in system.equations:
            tailed += bool(eq.tail)
            full = eq.full
            assert full.terms == Polynomial(list(eq.minimal.terms) + list(eq.tail.terms)).terms
            assert full.terms == Polynomial(reversed(full.terms)).terms
            for m, _ in full.terms:
                assert full.drop(m).terms == Polynomial([t for t in full.terms if t[0] != m]).terms
            for kill in ([rng.randrange(n)], rng.sample(range(n), min(2, n))):
                kept = [t for t in full.terms if all(t[0][i] == 0 for i in kill)]
                assert full.truncate(kill).terms == Polynomial(kept).terms
            w = tuple(F(rng.randint(1, 40), rng.randint(1, 3)) for _ in range(n))
            low = full.weight(w)
            kept = [t for t in full.terms if sum(a * b for a, b in zip(w, t[0])) == low]
            assert full.initial_form(w).terms == Polynomial(kept).terms
            for c in (F(-3, 7), 2, F(0)):
                scaled = Polynomial([(m, c * x) for m, x in full.terms])
                assert full.scale(c).terms == scaled.terms
            assert (-full).terms == Polynomial([(m, -x) for m, x in full.terms]).terms
    assert tailed
