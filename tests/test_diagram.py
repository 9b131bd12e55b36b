"""Diagram structure, linking numbers, conditions and the random generator."""

import gc
import json
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from chain_probe import CHAIN_REPORT, chain_doc, probe, valid_chain_doc
from conftest import LADDER, NOT_A_TREE
from splicefan import (
    GenerationExhausted,
    SpliceDiagram,
    build_system,
    check_balancing,
    check_conditions,
    edge_determinant,
    random_diagram,
    roundtrip,
    semigroup_decompose,
    splice_fan,
    validate,
)
from splicefan import diagram as diagram_module
from splicefan.documents import diagram_from_doc, diagram_to_doc


def test_worked_example_is_valid(d1):
    assert validate(d1) == []


def test_valency_two_rejected():
    path = SpliceDiagram(
        ["l1", "l2", "l3"],
        ["u", "w"],
        [("u", "l1", 2, None), ("u", "l2", 3, None), ("u", "w", 5, 7), ("w", "l3", 11, None)],
    )
    codes = {v.code for v in validate(path)}
    assert "NoValencyTwo" in codes or "NodeValency" in codes


def test_single_edge_rejected():
    bare = SpliceDiagram(["l1", "l2"], [], [("l1", "l2", None, None)])
    assert "AtLeastOneNode" in {v.code for v in validate(bare)}


def test_missing_weight_rejected():
    d = SpliceDiagram(
        ["l1", "l2", "l3"],
        ["u"],
        [("u", "l1", 2, None), ("u", "l2", None, None), ("u", "l3", 3, None)],
    )
    assert "MissingWeight" in {v.code for v in validate(d)}


def test_total_weights_and_linking(d1):
    assert d1.total_weight("u") == 294
    assert d1.total_weight("v") == 770
    assert d1.linking_number("u", "v") == 420
    assert d1.linking_number("v", "u") == 420
    assert d1.linking_number("u", "l1") == 147


def test_star_linking():
    s = SpliceDiagram.star([2, 3, 5])
    assert s.linking_number("n1", "l1") == 15
    assert s.node_weight_vector("n1") == (15, 10, 6)


def test_node_weight_vectors(d1):
    assert d1.node_weight_vector("u") == (147, 98, 60, 84, 210)
    assert d1.node_weight_vector("v") == (210, 140, 110, 154, 385)


def test_edge_determinant(d1):
    assert edge_determinant(d1, ("u", "v")) == 49 * 11 - 420 == 119


def test_edge_determinant_reads_the_linking_number():
    """The local product of the two stars equals the tree's linking number."""
    golden = json.loads((Path(__file__).with_name("golden") / "cli.json").read_text())
    diagrams = [random_diagram(n, k, seed) for n, k in LADDER for seed in (0, 1, 2)]
    diagrams += [
        diagram_from_doc(json.loads(golden["files"][name]))
        for name in ("d1.json", "r6.json", "r8.json", "r9.json", "det.json", "semi.json")
    ]
    edges = 0
    for d in diagrams:
        for a, b in d.internal_edges():
            expected = d.weight(a, b) * d.weight(b, a) - d.linking_number(a, b)
            assert edge_determinant(d, (a, b)) == edge_determinant(d, (b, a)) == expected
            edges += 1
    assert edges == 75


def test_edge_determinant_requires_internal(s0):
    with pytest.raises(ValueError):
        edge_determinant(s0, ("n1", "l1"))


def test_negative_determinant():
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
    assert edge_determinant(d, ("u", "v")) == 1 - 36 == -35
    assert not check_conditions(d).edge_determinant


def test_semigroup_decompositions(d1):
    at_u = semigroup_decompose(d1, "u", ("u", "v"))
    assert at_u.coeffs == {"l4": 1, "l5": 1}
    at_v = semigroup_decompose(d1, "v", ("v", "u"))
    # (1, 4) is lex-smaller than the alternative (3, 1)
    assert at_v.coeffs == {"l1": 1, "l2": 4}


def test_semigroup_leaf_edge(d1):
    adm = semigroup_decompose(d1, "u", ("u", "l1"))
    assert adm.coeffs == {"l1": 2}
    assert semigroup_decompose(d1, "u", ("l1", "u")) == adm


def test_admissible_edge(d1):
    admissible_edge = diagram_module.admissible_edge
    assert admissible_edge(d1, "v", (1, 4, 0, 0, 0)) == "u"
    assert admissible_edge(d1, "v", (3, 1, 0, 0, 0)) == "u"
    assert admissible_edge(d1, "v", (0, 0, 7, 0, 0)) == "l3"
    assert admissible_edge(d1, "u", (0, 0, 0, 1, 1)) == "v"
    for exponent in [
        (0, 0, 0, 0, 0),   # zero
        (1, 3, 0, 0, 0),   # pairs to 9, not d(v, u) = 11
        (1, 0, 8, 0, 0),   # pairs to 11 across two edges
        (-1, 7, 0, 0, 0),  # pairs to 11 with a negative entry
    ]:
        assert admissible_edge(d1, "v", exponent) is None


def test_semigroup_infeasible():
    d = SpliceDiagram(
        ["l1", "l2", "l3", "l4"],
        ["u", "v"],
        [
            ("u", "l1", 2, None),
            ("u", "l2", 3, None),
            ("u", "v", 1, 50),
            ("v", "l3", 2, None),
            ("v", "l4", 3, None),
        ],
    )
    # 1 is not in the semigroup spanned by the reduced linking numbers (2, 3)
    assert semigroup_decompose(d, "u", ("u", "v")) is None
    assert not check_conditions(d).semigroup


def test_semigroup_search_leaves_no_cyclic_garbage():
    # the search's memos must go with the search, not wait for the cyclic
    # collector: their size would otherwise make peak memory depend on when
    # the collector happens to run
    feasible = random_diagram(12, 4, 1)
    # 100 is not in the semigroup spanned by 77, 55, 35 (the far node's
    # weights 5, 7, 11 taken two at a time)
    infeasible = SpliceDiagram(
        ["l1", "l2", "l3", "l4", "l5"],
        ["u", "v"],
        [("u", "l1", 2, None), ("u", "l2", 3, None), ("u", "v", 100, 1),
         ("v", "l3", 5, None), ("v", "l4", 7, None), ("v", "l5", 11, None)],
    )
    gc.collect()
    gc.disable()
    try:
        coweight = semigroup_decompose(feasible, "n4", ("n4", "n3"))
        assert sum(a * feasible.reduced_linking("n4", leaf)
                   for leaf, a in coweight.coeffs.items()) == feasible.weight("n4", "n3")
        assert semigroup_decompose(infeasible, "u", ("u", "v")) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_condition_report_is_kept_on_its_diagram(monkeypatch):
    d = random_diagram(9, 3, 1)
    fresh = diagram_from_doc(diagram_to_doc(d))
    calls = []
    search = diagram_module.semigroup_decompose

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(diagram_module, "semigroup_decompose", counted)
    first = check_conditions(fresh)
    searched = len(calls)
    assert searched == sum(fresh.valency(v) for v in fresh.nodes)
    assert check_conditions(fresh) is first
    assert len(calls) == searched
    # the generator's own check is kept on the diagram it hands out
    assert check_conditions(d) == first and len(calls) == searched


def test_kept_condition_report_leaves_no_cyclic_garbage():
    # the report is kept on the diagram; it must not refer back to it, or
    # every checked diagram would wait for the cyclic collector
    doc = diagram_to_doc(random_diagram(12, 4, 1))
    gc.collect()
    gc.disable()
    try:
        d = diagram_from_doc(doc)
        report = check_conditions(d)
        assert report.all() and check_conditions(d) is report
        del d, report
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_semigroup_decompose_refuses_a_leaf_vertex():
    d = random_diagram(6, 2, 0)
    with pytest.raises(ValueError, match="not a node"):
        semigroup_decompose(d, "l1", ("l1", "n2"))
    with pytest.raises(ValueError, match="not a node"):
        semigroup_decompose(d, "x", ("x", "n2"))
    with pytest.raises(ValueError, match="not an edge"):
        semigroup_decompose(d, "n1", ("n1", "n1"))


@pytest.mark.parametrize("shape", [(14, 6, 0), (16, 7, 1), (24, 8, 0)])
def test_large_random_diagrams_analyse(shape):
    # past the benchmark ladder's (12, 4): generation, every condition, the
    # system, the fan and the fan round trip (end-curves are not run here)
    d = random_diagram(*shape)
    assert (d.n, len(d.nodes)) == shape[:2]
    assert validate(d) == []
    assert check_conditions(d).all()
    assert len(build_system(d).equations) == sum(d.valency(v) - 2 for v in d.nodes)
    assert check_balancing(splice_fan(d))
    assert roundtrip(d)


def test_check_conditions(d1):
    report = check_conditions(d1)
    assert (report.edge_determinant, report.semigroup, report.coprime) == (True, True, True)


def test_coprime_check_fails_on_shared_factor():
    s = SpliceDiagram.star([2, 4, 3])
    report = check_conditions(s)
    assert report.edge_determinant and report.semigroup and not report.coprime


def test_geodesic_and_branches(d1):
    assert d1.geodesic("l1", "l5") == ["l1", "u", "v", "l5"]
    # the branches at u are the vertices grouped by their geodesic's first step
    parts = sorted(
        sorted(x for x in d1.vertices if x != "u" and d1.first_step("u", x) == b)
        for b in d1.neighbors("u")
    )
    assert parts == [["l1"], ["l2"], ["l3", "l4", "l5", "v"]]


def test_random_diagram_deterministic_and_valid():
    a = random_diagram(5, 2, seed=7)
    b = random_diagram(5, 2, seed=7)
    assert a.leaves == b.leaves and a._raw_edges == b._raw_edges
    assert a._weights == b._weights
    assert validate(a) == []
    report = check_conditions(a)
    assert report.edge_determinant and report.semigroup and report.coprime


def test_random_star_is_coprime():
    d = random_diagram(3, 1, seed=1)
    assert check_conditions(d).coprime


def test_random_diagram_impossible_shape(monkeypatch):
    with pytest.raises(GenerationExhausted):
        random_diagram(3, 2, seed=0)
    with pytest.raises(GenerationExhausted):
        random_diagram(2, 1, seed=0)
    # each node's coprime leaf weights use distinct primes of the pool
    assert diagram_module.MAX_COPRIME_LEAVES == 15
    attempts = []
    attempt = diagram_module._attempt
    monkeypatch.setattr(
        diagram_module, "_attempt", lambda *args: attempts.append(args) or attempt(*args)
    )
    for shape in ((16, 1), (31, 2)):
        with pytest.raises(GenerationExhausted, match="at most 15 pairwise coprime"):
            random_diagram(*shape, seed=1)
    assert attempts == []
    d = random_diagram(16, 1, seed=1, require_coprime=False)
    assert len(d.leaves) == 16 and attempts


def test_random_non_coprime_allowed():
    d = random_diagram(6, 2, seed=3, require_coprime=False)
    report = check_conditions(d)
    assert report.edge_determinant and report.semigroup


# -- weight identities on random diagrams ------------------------------------

def test_linking_symmetry(pool_small):
    for d in pool_small:
        for u in d.vertices:
            for v in d.vertices:
                if u != v:
                    assert d.linking_number(u, v) == d.linking_number(v, u)


def test_geodesic_identity(pool_small):
    for d in pool_small:
        verts = d.vertices
        for v in verts:
            for w in verts:
                if v == w:
                    continue
                for u in d.geodesic(v, w)[1:-1]:
                    assert (
                        d.linking_number(w, u) * d.linking_number(u, v)
                        == d.linking_number(w, v) * d.total_weight(u)
                    )


def test_reduced_linking_identity(pool_small):
    for d in pool_small:
        for v in d.nodes:
            for leaf in d.leaves:
                assert d.linking_number(v, leaf) * d.weight(v, d.first_step(v, leaf)) == (
                    d.reduced_linking(v, leaf) * d.total_weight(v)
                )


def test_cone_decomposition(pool_small, d1):
    """w_u - (link(u,v)/d_v) w_v is supported beyond the edge at v, with
    coefficient det(e) * link(v, leaf) / d_v there."""
    from fractions import Fraction

    for d in [d1] + pool_small[:10]:
        for u, v in d.internal_edges():
            for a, b in ((u, v), (v, u)):
                wa = d.node_weight_vector(a)
                wb = d.node_weight_vector(b)
                factor = Fraction(d.linking_number(a, b), d.total_weight(b))
                diff = [x - factor * y for x, y in zip(wa, wb)]
                det = edge_determinant(d, (a, b))
                beyond = set(d.leaves_beyond(b, a))
                for leaf, value in zip(d.leaves, diff):
                    if leaf in beyond:
                        expected = Fraction(
                            det * d.linking_number(b, leaf), d.total_weight(b)
                        )
                        assert value == expected and value > 0
                    else:
                        assert value == 0


# -- the tree index and the linking rows against their definitions -----------

DATA = Path(__file__).with_name("data")


@pytest.fixture(scope="module")
def index_pool(pool_small):
    """pool_small, the 142 recorded generator outputs and the 40-leaf
    document, each loaded afresh."""
    docs = [diagram_to_doc(d) for d in pool_small]
    recorded = json.loads((DATA / "random_diagrams.json").read_text())
    assert len(recorded) == 142
    docs += [entry["diagram"] for entry in recorded]
    docs.append(json.loads((DATA / "random_40_14_seed0.json").read_text()))
    return [diagram_from_doc(doc) for doc in docs]


def _weights_off_path(d, path, interior_only=False):
    """Product of the weights at the path's vertices on edges off the path."""
    on = set(path)
    out = 1
    for x in path[1:-1] if interior_only else path:
        if d.is_node(x):
            for y in d.neighbors(x):
                if y not in on:
                    out *= d.weight(x, y)
    return out


def _sizes(d):
    return {name: len(value) for name, value in vars(d).items() if hasattr(value, "__len__")}


def test_linking_numbers_are_products_off_the_geodesic(index_pool):
    """Every row of l and l' against the products off each geodesic, and
    reading rows keeps nothing on the diagram."""
    for d in index_pool:
        sizes = _sizes(d)
        for u in d.vertices:
            expected = {
                v: (_weights_off_path(d, path), _weights_off_path(d, path, True))
                for v, path in ((v, d.geodesic(u, v)) for v in d.vertices if v != u)
            }
            if d.is_node(u):
                expected[u] = (d.total_weight(u), 1)
            assert d.linking_row(u) == expected
            for w in d.neighbors(u):
                assert d.side_row(u, w) == {
                    x: pair for x, pair in expected.items() if x != u and d.first_step(u, x) == w
                }
            v = d.vertices[-1 if u == d.vertices[0] else 0]
            assert (d.linking_number(u, v), d.reduced_linking(u, v)) == expected[v]
        assert _sizes(d) == sizes


def test_first_step_and_sides_follow_the_geodesic(index_pool):
    for d in index_pool:
        for v in d.vertices:
            paths = {x: d.geodesic(v, x) for x in d.vertices if x != v}
            for x, path in paths.items():
                assert d.first_step(v, x) == path[1]
            for u in d.neighbors(v):
                side = {x for x, path in paths.items() if path[1] == u}
                assert d.leaves_beyond(v, u) == [x for x in d.leaves if x in side]
                assert d.nodes_beyond(v, u) == [x for x in d.nodes if x in side]


def test_an_unknown_vertex_raises_key_error(d1):
    for call in (
        lambda: d1.linking_number("u", "nope"),
        lambda: d1.linking_number("nope", "u"),
        lambda: d1.linking_number("l1", "l1"),
        lambda: d1.reduced_linking("u", "nope"),
        lambda: d1.reduced_linking("nope", "l1"),
        lambda: d1.linking_row("nope"),
        lambda: d1.side_row("u", "l3"),
        lambda: d1.first_step("u", "nope"),
        lambda: d1.first_step("nope", "u"),
        lambda: d1.first_step("u", "u"),
        lambda: d1.leaves_beyond("u", "nope"),
        lambda: d1.leaves_beyond("nope", "u"),
        lambda: d1.nodes_beyond("l1", "v"),
    ):
        with pytest.raises(KeyError):
            call()


def test_a_graph_that_is_not_a_tree_is_indexed_and_its_reads_refuse():
    """Construction indexes any graph; validate names the Tree violation,
    and the reads that need a tree raise ValueError instead of walking."""
    for doc in NOT_A_TREE.values():
        d = diagram_from_doc(doc)
        assert "Tree" in {v.code for v in validate(d)}
        assert d.total_weight("a") > 1 and d.total_weight("l1") == 1
        for call in (
            lambda: d.linking_row("a"),
            lambda: d.side_row("a", "l1"),
            lambda: d.linking_number("a", "l1"),
            lambda: d.node_weight_vector("a"),
            lambda: d.first_step("a", "l1"),
            lambda: d.leaves_beyond("a", "l1"),
            lambda: d.nodes_beyond("a", "l1"),
        ):
            with pytest.raises(ValueError, match="not a tree"):
                call()


def test_an_edge_to_an_undeclared_vertex_is_not_a_tree():
    """Three edges on four declared vertices, one of them to an undeclared
    x: the declared leaf l3 is cut off, so the graph is no tree."""
    d = SpliceDiagram(
        ["l1", "l2", "l3"], ["u"], [("u", "l1", 2, None), ("u", "l2", 3, None), ("u", "x", 5, None)]
    )
    assert [v.code for v in validate(d)] == ["Tree"]


def test_threads_reading_a_fresh_diagram_get_the_single_thread_values():
    doc = json.loads((DATA / "random_40_14_seed0.json").read_text())

    def every_linking_number(d):
        return {u: d.linking_row(u) for u in d.vertices}

    expected = every_linking_number(diagram_from_doc(doc))
    shared = diagram_from_doc(doc)
    start = threading.Barrier(4)
    results = [None] * 4

    def read(k):
        start.wait()
        results[k] = every_linking_number(shared)

    threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(result == expected for result in results)


# -- deep chains ---------------------------------------------------------------

def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("length, rows, bound_mb", [(1200, 5, 8), (10_000, 3, 80)])
def test_the_linking_layer_on_deep_chains_is_iterative_and_linear(length, rows, bound_mb):
    """Every edge determinant, the middle node's first steps and sides, and
    whole rows of the 1,200- and 10,000-node chains, checked against closed
    forms, under a recursion limit only 100 frames above the caller's, and
    in bounded traced memory.  One row of the 10,000-node chain holds
    20,002 pairs of up to 10,000 bits, about 25 MB."""
    limit = sys.getrecursionlimit()
    tracemalloc.start()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        probe(length, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        sys.setrecursionlimit(limit)
        tracemalloc.stop()
    assert peak < bound_mb * 2**20, peak


def test_check_conditions_reports_on_a_deep_chain():
    """The 1,200-node chain gets its condition report under a recursion
    limit only 100 frames above the caller's: the semigroup search stops at
    its first failing edge and walks no deeper."""
    d = diagram_from_doc(chain_doc(1200))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        report = check_conditions(d)
    finally:
        sys.setrecursionlimit(limit)
    assert (report.edge_determinant, report.semigroup, report.coprime) == CHAIN_REPORT


def test_check_conditions_on_a_deep_chain_recurses_only_in_the_semigroup_search():
    """A 600-node chain whose semigroup condition holds still exceeds a
    recursion limit 1,000 frames above the caller's, but only in
    _Semigroups._split: every linking number the search reads comes from a
    walk, and every gcd from a listed side."""
    d = diagram_from_doc(valid_chain_doc(600))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 1000)
    try:
        with pytest.raises(RecursionError) as info:
            check_conditions(d)
    finally:
        sys.setrecursionlimit(limit)
    names, tb = [], info.tb
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_qualname)
        tb = tb.tb_next
    split = [i for i, name in enumerate(names) if name.startswith("_Semigroups._split")]
    # one unbroken run of the split's frames, and the limit hit in it or in
    # what its deepest frame calls to list a node's parts (_parts_at, below,
    # leaves_beyond, _beyond_interval)
    assert len(split) > 500 and split[-1] - split[0] == len(split) - 1, names[-8:]
    assert len(names) - 1 - split[-1] <= 4, names[-8:]
    linking = ("SpliceDiagram.linking_row", "SpliceDiagram.side_row", "walk_beyond")
    assert not any(name in linking for name in names)
