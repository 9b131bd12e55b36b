"""Shared fixtures: the two-node worked example, stars, diagram pools, the
end-curve solve inputs of the benchmark ladder and documents that are not
trees."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from splicefan import (
    CoefficientMatrix,
    SpliceDiagram,
    build_system,
    random_coefficients,
    random_diagram,
    splice_fan,
)

# the benchmark ladder's (leaves, nodes) shapes, each with seeds 0, 1, 2
LADDER = ((6, 1), (6, 2), (6, 4), (7, 1), (7, 3), (8, 1), (8, 2), (8, 4),
          (9, 1), (9, 3), (10, 1), (10, 2), (10, 5), (11, 1), (11, 3),
          (12, 1), (12, 2), (12, 4))


# documents whose graph is not a tree: a triangle of nodes with a leaf at
# each, and two disjoint stars
NOT_A_TREE = {
    "cycle": {
        "leaves": ["l1", "l2", "l3"],
        "nodes": ["a", "b", "c"],
        "edges": [
            {"a": "a", "b": "l1", "wa": 2},
            {"a": "b", "b": "l2", "wa": 3},
            {"a": "c", "b": "l3", "wa": 5},
            {"a": "a", "b": "b", "wa": 7, "wb": 11},
            {"a": "b", "b": "c", "wa": 13, "wb": 17},
            {"a": "c", "b": "a", "wa": 19, "wb": 23},
        ],
    },
    "disconnected": {
        "leaves": ["l1", "l2", "l3", "l4", "l5", "l6"],
        "nodes": ["a", "b"],
        "edges": [
            {"a": "a", "b": "l1", "wa": 2},
            {"a": "a", "b": "l2", "wa": 3},
            {"a": "a", "b": "l3", "wa": 5},
            {"a": "b", "b": "l4", "wa": 2},
            {"a": "b", "b": "l5", "wa": 3},
            {"a": "b", "b": "l6", "wa": 5},
        ],
    },
}


def make_d1():
    """Two nodes; leaf weights 2,3 at u and 7,5,2 at v; edge weights 49/11."""
    return SpliceDiagram(
        ["l1", "l2", "l3", "l4", "l5"],
        ["u", "v"],
        [
            ("u", "l1", 2, None),
            ("u", "l2", 3, None),
            ("u", "v", 49, 11),
            ("v", "l3", 7, None),
            ("v", "l4", 5, None),
            ("v", "l5", 2, None),
        ],
    )


def worked_coefficients():
    F = Fraction
    cu = CoefficientMatrix("u", ((F(1),), (F(-2),), (F(1),)))
    cv = CoefficientMatrix(
        "v",
        ((F(1), F(1)), (F(1), F(2)), (F(-2155), F(-2123)), (F(1), F(33))),
    )
    return {"u": cu, "v": cv}


@pytest.fixture(scope="session")
def d1():
    return make_d1()


@pytest.fixture(scope="session")
def d1_system(d1):
    """The worked-example system z1^2 - 2 z2^3 + z4 z5, etc."""
    return build_system(d1, coeffs=worked_coefficients())


@pytest.fixture(scope="session")
def d1_fan(d1):
    return splice_fan(d1)


@pytest.fixture(scope="session")
def s0():
    return SpliceDiagram.star([2, 3, 5])


def _pool(count, seed0, coprime="mixed", max_leaves=8):
    rng = random.Random(seed0)
    out = []
    for k in range(count):
        leaves = rng.randint(3, max_leaves)
        nodes = rng.randint(1, min(3, leaves - 2))
        want_coprime = True if coprime == "always" else (k % 2 == 0)
        out.append(
            random_diagram(leaves, nodes, seed0 * 100_003 + k, require_coprime=want_coprime)
        )
    return out


@pytest.fixture(scope="session")
def pool_mixed():
    """Large pool for the membership dichotomy (coprime and not)."""
    return _pool(200, seed0=11)


@pytest.fixture(scope="session")
def pool_small():
    return _pool(40, seed0=23)


@pytest.fixture(scope="session")
def pool_boundary():
    return _pool(20, seed0=37, max_leaves=7)


@pytest.fixture(scope="session")
def pool_coprime():
    return _pool(100, seed0=51, coprime="always")


@pytest.fixture(scope="session")
def pool_smoke():
    return _pool(20, seed0=67, max_leaves=6)


def system_for(diagram, seed=None):
    """Minimal system with Vandermonde or seeded random Hamm coefficients."""
    if seed is None:
        return build_system(diagram)
    rng = random.Random(seed)
    coeffs = {v: random_coefficients(diagram, v, rng) for v in diagram.nodes}
    return build_system(diagram, coeffs=coeffs)


class _Captured(Exception):
    """Stops torus_components once the solver's inputs are read."""


def solve_inputs(system, leaf):
    """The (rows, consts, width) that parameterize at ``leaf`` hands to
    solve_binomial_torus, read by running torus_components with the solver
    replaced by one that stops it."""
    from splicefan import endcurve

    def capture(*args):
        raise _Captured(args)

    with mock.patch.object(endcurve, "solve_binomial_torus", capture):
        with pytest.raises(_Captured) as stop:
            endcurve.torus_components(system, leaf, system.diagram.neighbors(leaf)[0])
    (inputs,) = stop.value.args
    return inputs


@pytest.fixture(scope="session")
def ladder_solves():
    """The solve inputs of one benchmark ladder round: every root of the 54
    ladder diagrams, on their Vandermonde systems (486 solves)."""
    out = []
    for n, k in LADDER:
        for seed in (0, 1, 2):
            system = build_system(random_diagram(n, k, seed))
            out.extend(solve_inputs(system, leaf) for leaf in system.diagram.leaves)
    return tuple(out)
