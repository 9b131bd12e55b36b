"""Records behave as the frozen dataclasses they replace.

Each record class gets a ``dataclasses.make_dataclass(..., frozen=True)``
twin with the same fields, defaults and field options, and the two are
compared on instances taken from real computations.
"""

import dataclasses
import importlib

import pytest

from splicefan import (
    TruncationContext,
    binomial_reduce,
    build_system,
    check_conditions,
    end_curve_system,
    membership,
    parameterize,
    root,
    smoothness_smoke,
    splice_fan,
)
from splicefan.diagram import Violation
from splicefan.fan import OUTSIDE, embed_vertex
from splicefan.record import Record

MODULES = tuple(
    importlib.import_module(f"splicefan.{name}")
    for name in ("diagram", "system", "endcurve", "fan", "recover")
)

# the field options that differ from a dataclass field's defaults
HIDDEN = {
    ("ConditionReport", "admissible"): dict(default=None, repr=False, compare=False),
}


def record_classes():
    return [
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record)
        and value.__module__ == module.__name__
    ]


def twin(cls):
    specs = []
    for name, annotation in cls.__annotations__.items():
        options = HIDDEN.get((cls.__name__, name))
        if options is None:
            options = {"default": vars(cls)[name]} if name in vars(cls) else {}
        specs.append((name, annotation, dataclasses.field(**options)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def init_fields(cls):
    return [f for f in dataclasses.fields(twin(cls)) if f.init]


@pytest.fixture(scope="module")
def instances(d1, d1_fan):
    d1_system = build_system(d1)
    report = check_conditions(d1)
    block = d1_system.blocks["u"]
    inside = membership(d1_system, d1.node_weight_vector("v"), d1_fan)
    outside = membership(d1_system, (1, 1, 1, 1, 1), d1_fan)
    edge = tuple(a + b for a, b in zip(embed_vertex(d1, "u"), embed_vertex(d1, "l1")))
    ecs = end_curve_system(d1_system, root(d1, "l1"))
    binomials = binomial_reduce(ecs)
    return [
        Violation("AtLeastOneNode", "diagram declares no node"),
        report, *report.admissible.values(),
        block, block.matrix, *d1_system.equations[:2],
        ecs.rooted, ecs, binomials, *binomials.relations, parameterize(ecs),
        *d1_fan.rays[:3], *d1_fan.cones,
        inside, inside.cell, outside, outside.certificate, OUTSIDE,
        membership(d1_system, edge, d1_fan).cell,
        TruncationContext(leaves=frozenset({"l1", "l3"})),
        smoothness_smoke(d1_system, d1.node_weight_vector("u"), samples=2, seed=8),
    ]


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_the_five_modules_define_eighteen_records():
    assert len(record_classes()) == 18


def test_every_record_class_has_a_real_instance(instances):
    assert {type(r) for r in instances} == set(record_classes())


def test_records_match_their_dataclass_twins(instances):
    twins = {cls: twin(cls) for cls in record_classes()}
    pairs = []
    for record in instances:
        cls = type(record)
        fields = init_fields(cls)
        args = [getattr(record, f.name) for f in fields]
        kwargs = dict(zip([f.name for f in fields], args))
        copy = twins[cls](*args)
        assert twins[cls](**kwargs) == copy
        assert repr(record) == repr(copy)
        assert hash_or_error(record) == hash_or_error(copy)
        for rebuilt in (cls(*args), cls(**kwargs)):
            assert rebuilt == record and not rebuilt != record
            assert repr(rebuilt) == repr(record)
        # the defaults: only the arguments without one
        required = [a for f, a in zip(fields, args) if f.default is dataclasses.MISSING]
        if len(required) < len(args):
            assert repr(cls(*required)) == repr(twins[cls](*required))
            assert (cls(*required) == record) == (twins[cls](*required) == copy)
        pairs.append((record, copy))
    for (a, a_twin), (b, b_twin) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (a == b) == (a_twin == b_twin) and (a != b) == (a_twin != b_twin)
        assert (a.__eq__(b) is NotImplemented) == (a_twin.__eq__(b_twin) is NotImplemented)
        assert a.__eq__(a_twin) is NotImplemented
        assert a != a_twin and not a == a_twin


def test_hidden_fields_stay_out_of_repr_equality_and_hash(d1):
    report = check_conditions(d1)
    bare = type(report)(report.edge_determinant, report.semigroup, report.coprime)
    assert bare.admissible is None and bare == report and hash(bare) == hash(report)
    assert "admissible" not in repr(report)


def test_bad_arguments_raise_type_errors():
    with pytest.raises(TypeError, match="missing"):
        Violation("AtLeastOneNode")
    with pytest.raises(TypeError):
        Violation("a", "b", "c")
    with pytest.raises(TypeError):
        Violation("a", "b", code="c")
    with pytest.raises(TypeError):
        Violation("a", "b", level="c")


def test_records_are_immutable(instances):
    for record in instances:
        for name in type(record)._shown:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
