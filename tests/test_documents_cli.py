"""JSON schemas and the command-line front end."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chain_probe import CHAIN_REPORT, chain_doc, valid_chain_doc
from conftest import NOT_A_TREE, system_for, worked_coefficients
from splicefan import (
    ConditionViolation,
    DocumentError,
    Polynomial,
    build_system,
    check_conditions,
    cli,
    random_diagram,
    splice_fan,
)
from splicefan import diagram as diagram_module
from splicefan.documents import (
    diagram_from_doc,
    diagram_to_doc,
    fan_from_doc,
    fan_to_doc,
    format_rational,
    parse_rational,
    system_from_doc,
    system_to_doc,
)
D1_DOC = {
    "leaves": ["l1", "l2", "l3", "l4", "l5"],
    "nodes": ["u", "v"],
    "edges": [
        {"a": "u", "b": "l1", "wa": 2},
        {"a": "u", "b": "l2", "wa": 3},
        {"a": "u", "b": "v", "wa": 49, "wb": 11},
        {"a": "v", "b": "l3", "wa": 7},
        {"a": "v", "b": "l4", "wa": 5},
        {"a": "v", "b": "l5", "wa": 2},
    ],
}


def test_rational_round_trip():
    assert format_rational(Fraction(-2155)) == "-2155"
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational(4) == 4
    with pytest.raises(DocumentError):
        parse_rational("3/0")


def test_diagram_doc_round_trip(d1):
    doc = diagram_to_doc(d1)
    again = diagram_from_doc(doc)
    assert diagram_to_doc(again) == doc
    assert again.node_weight_vector("u") == d1.node_weight_vector("u")


def test_diagram_doc_rejects_unknown_keys():
    bad = dict(D1_DOC)
    bad["extra"] = 1
    with pytest.raises(DocumentError):
        diagram_from_doc(bad)


def test_diagram_doc_weight_placement():
    bad = json.loads(json.dumps(D1_DOC))
    bad["edges"][0].pop("wa")
    with pytest.raises(DocumentError):
        diagram_from_doc(bad)
    bad2 = json.loads(json.dumps(D1_DOC))
    bad2["edges"][0]["wb"] = 3  # weight at a leaf endpoint
    with pytest.raises(DocumentError):
        diagram_from_doc(bad2)


def test_system_doc_round_trip(d1):
    system = build_system(
        d1,
        coeffs=worked_coefficients(),
        tails={("u", 1): Polynomial.monomial((1, 0, 1, 0, 1), Fraction(1, 3))},
    )
    doc = system_to_doc(system)
    again = system_from_doc(doc)
    assert system_to_doc(again) == doc
    assert [e.minimal for e in again.equations] == [e.minimal for e in system.equations]
    assert [e.tail for e in again.equations] == [e.tail for e in system.equations]


def test_system_doc_round_trip_alternate_monomial(d1):
    """A document built from the non-default admissible decomposition
    (z1^3 z2 in place of z1 z2^4) reconstructs with the same monomials."""
    system = build_system(
        d1, coeffs=worked_coefficients(), coweights={("v", "u"): {"l1": 3, "l2": 1}}
    )
    doc = system_to_doc(system)
    again = system_from_doc(doc)
    assert system_to_doc(again) == doc
    eq = next(e for e in again.equations if (e.node, e.index) == ("v", 1))
    assert (3, 1, 0, 0, 0) in eq.minimal.support()


def test_fan_doc_round_trip(d1_fan):
    doc = fan_to_doc(d1_fan)
    assert doc["n"] == 5
    assert doc["rays"][5] == {"label": "u", "vector": [147, 98, 60, 84, 210]}
    fan = fan_from_doc(doc)
    assert fan.ray_by_label["v"].vector == (210, 140, 110, 154, 385)
    assert all(c.multiplicity == 1 for c in fan.cones)
    assert fan_to_doc(fan) == doc


def test_system_doc_rejects_mistyped_exponents(d1):
    doc = system_to_doc(build_system(d1, coeffs=worked_coefficients()))
    for bad in ("x", [1], 1.5, None):
        mistyped = json.loads(json.dumps(doc))
        mistyped["equations"][0]["terms"][0]["m"][0] = bad
        with pytest.raises(DocumentError):
            system_from_doc(mistyped)


@pytest.mark.parametrize("index", range(4))
def test_system_doc_refuses_a_term_off_the_admissible_monomials(index):
    doc = system_to_doc(build_system(random_diagram(6, 2, 9)))
    assert system_to_doc(system_from_doc(doc)) == doc
    bad = json.loads(json.dumps(doc))
    bad["equations"][index]["terms"].append({"c": "5", "m": [1, 1, 1, 1, 1, 1]})
    with pytest.raises(DocumentError, match="not an admissible monomial"):
        system_from_doc(bad)


def test_system_doc_refuses_an_equation_off_the_nodes():
    doc = system_to_doc(build_system(random_diagram(6, 2, 9)))
    bad = json.loads(json.dumps(doc))
    bad["equations"].append({"node": "zz", "index": 1, "terms": []})
    with pytest.raises(DocumentError, match="'zz', which is not a node"):
        system_from_doc(bad)


DATA = Path(__file__).with_name("data")
DIAGRAM_40 = DATA / "random_40_14_seed0.json"


@pytest.mark.parametrize("seed", [None, 12])
def test_system_doc_round_trips_on_every_recorded_diagram(seed):
    """Vandermonde or seed-12 random coefficients, on the recorded generator
    outputs and the 40-leaf document."""
    diagrams = [e["diagram"] for e in json.loads((DATA / "random_diagrams.json").read_text())]
    diagrams.append(json.loads(DIAGRAM_40.read_text()))
    for diagram in diagrams:
        doc = system_to_doc(system_for(diagram_from_doc(diagram), seed))
        assert system_to_doc(system_from_doc(doc)) == doc


def _read_changed(change):
    """Read d1's system document back after ``change``."""
    def call(d1):
        doc = system_to_doc(build_system(d1, coeffs=worked_coefficients()))
        change(doc)
        system_from_doc(doc)
    return call


def _term(doc, index, m):
    return next(t for t in doc["equations"][index]["terms"] if t["m"] == m)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(
        _read_changed(lambda doc: doc["equations"][0]["terms"].append(
            dict(doc["equations"][0]["terms"][0]))),
        DocumentError, "repeats", id="repeated-exponent"),
    pytest.param(
        _read_changed(lambda doc: doc["equations"][0]["terms"][0].update(c="0")),
        DocumentError, "coefficient 0", id="zero-coefficient"),
    pytest.param(
        _read_changed(lambda doc: doc["equations"][0].update(
            tail=[{"c": "1", "m": [-1, 9, 9, 9, 9]}])),
        DocumentError, "negative entry", id="negative-entry"),
    pytest.param(
        _read_changed(lambda doc: _term(doc, 2, [1, 4, 0, 0, 0]).update(m=[3, 1, 0, 0, 0])),
        DocumentError, "two admissible monomials at", id="two-monomials-for-one-edge"),
    pytest.param(
        _read_changed(lambda doc: doc["equations"][0]["terms"].remove(
            _term(doc, 0, [2, 0, 0, 0, 0]))),
        DocumentError, "no admissible monomial at", id="edge-with-none"),
    pytest.param(
        lambda d1: build_system(d1, coweights={("v", "u"): {"l1": 1, "l3": 8}}),
        ConditionViolation, "not an admissible monomial toward", id="override-off-its-edge"),
])
def test_system_refusals(d1, call, error, match):
    with pytest.raises(error, match=match):
        call(d1)


# -- CLI ----------------------------------------------------------------------

def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "splicefan.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def d1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "d1.json"
    path.write_text(json.dumps(D1_DOC))
    return str(path)


def test_cli_check_ok(d1_path):
    code, out = run_cli("check", d1_path)
    report = json.loads(out)
    assert code == 0 and report["status"] == "ok"
    assert report["payload"] == {
        "edge_determinant": True,
        "semigroup": True,
        "coprime": True,
    }


def test_cli_check_failing_determinant(tmp_path):
    doc = {
        "leaves": ["l1", "l2", "l3", "l4"],
        "nodes": ["u", "v"],
        "edges": [
            {"a": "u", "b": "l1", "wa": 2},
            {"a": "u", "b": "l2", "wa": 3},
            {"a": "u", "b": "v", "wa": 1, "wb": 1},
            {"a": "v", "b": "l3", "wa": 2},
            {"a": "v", "b": "l4", "wa": 3},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("check", str(path))
    assert code == 1
    assert json.loads(out)["payload"]["edge_determinant"] is False


def test_cli_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _ = run_cli("check", str(path))
    assert code == 2


def test_cli_member_golden(d1_path):
    code, out = run_cli("member", d1_path, "--w", "1,1,1,1,1")
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["result"] == "out"
    assert payload["certificate"]["node"] == "v"
    assert payload["certificate"]["monomial"] == [0, 0, 0, 0, 2]


def test_cli_member_inside(d1_path):
    code, out = run_cli("member", d1_path, "--w", "147,98,60,84,210")
    payload = json.loads(out)["payload"]
    assert code == 0 and payload["result"] == "in"
    assert payload["cell"] == {"kind": "on_ray", "ray": "u", "coeff": "1"}


def test_cli_member_batch_deterministic(d1_path):
    code1, out1 = run_cli("member", d1_path, "--samples", "6", "--seed", "4")
    code2, out2 = run_cli("member", d1_path, "--samples", "6", "--seed", "4")
    assert code1 == code2 == 0 and out1 == out2
    assert len(json.loads(out1)["payload"]["queries"]) == 6


def test_cli_endcurve(d1_path):
    code, out = run_cli("endcurve", d1_path, "--root", "l1")
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["exponents"] == [49, 30, 42, 105] and payload["g"] == 1


def test_cli_fan_recover_round_trip(d1_path, tmp_path):
    code, out = run_cli("fan", d1_path)
    assert code == 0
    fan_doc = json.loads(out)["payload"]
    fan_path = tmp_path / "fan.json"
    fan_path.write_text(json.dumps(fan_doc))
    code, out = run_cli("recover", str(fan_path))
    assert code == 0
    recovered = json.loads(out)["payload"]
    assert recovered["leaves"] == D1_DOC["leaves"]
    weights = {
        (e["a"], e["b"]): (e.get("wa"), e.get("wb")) for e in recovered["edges"]
    }
    assert weights[("u", "v")] == (49, 11)


def test_cli_recover_refuses_multiplicity(d1_path, tmp_path):
    _, out = run_cli("fan", d1_path)
    fan_doc = json.loads(out)["payload"]
    fan_doc["cones"][0]["multiplicity"] = 4
    path = tmp_path / "badfan.json"
    path.write_text(json.dumps(fan_doc))
    code, out = run_cli("recover", str(path))
    assert code == 1
    assert json.loads(out)["payload"]["error"] == "NonCoprimeFan"


def test_cli_roundtrip(d1_path):
    code, out = run_cli("roundtrip", d1_path)
    assert code == 0 and json.loads(out)["payload"] == {"roundtrip": True}


def test_cli_random_and_exhaustion(tmp_path):
    code, out = run_cli("random", "--leaves", "5", "--nodes", "2", "--seed", "9", "--coprime")
    assert code == 0
    doc = json.loads(out)["payload"]
    path = tmp_path / "rand.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli("check", str(path))
    assert code == 0
    code, out = run_cli("random", "--leaves", "3", "--nodes", "2", "--seed", "9")
    assert code == 3 and json.loads(out)["status"] == "infeasible"


def test_cli_random_past_the_ladder(tmp_path):
    code, out = run_cli("random", "--leaves", "16", "--nodes", "7", "--seed", "1", "--coprime")
    assert code == 0
    doc = json.loads(out)["payload"]
    d = diagram_from_doc(doc)
    assert (d.n, len(d.nodes)) == (16, 7)
    path = tmp_path / "rand.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("check", str(path))
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_cli_roundtrip_checks_conditions_once(d1_path, monkeypatch, capsys):
    calls = []

    def counted(diagram):
        calls.append(diagram)
        return check_conditions(diagram)

    monkeypatch.setattr(cli, "check_conditions", counted)
    assert cli.main(["roundtrip", d1_path]) == 0
    assert json.loads(capsys.readouterr().out)["payload"] == {"roundtrip": True}
    assert len(calls) == 1


def test_cli_system_searches_each_edge_weight_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "r9.json"
    path.write_text(json.dumps(diagram_to_doc(random_diagram(9, 3, 1))))
    calls = []
    search = diagram_module.semigroup_decompose

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(diagram_module, "semigroup_decompose", counted)
    assert cli.main(["system", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    # one search per (node, neighbour): the loader's check and build_system's
    # share the report kept on the diagram
    assert len(calls) == 13


@pytest.mark.parametrize("leaf", ["l1", "l2", "l3", "l4", "l5", "l6"])
def test_cli_endcurve_past_the_ladder_reports_instead_of_crashing(leaf):
    # random --leaves 40 --nodes 14 --seed 0 --coprime; its numeric
    # end-curves fail substitution
    proc = subprocess.run(
        [sys.executable, "-m", "splicefan.cli", "endcurve", str(DIAGRAM_40), "--root", leaf],
        capture_output=True,
        text=True,
    )
    assert proc.stderr == ""
    assert proc.returncode in (0, 1)
    report = json.loads(proc.stdout)
    if proc.returncode == 1:
        assert report["status"] == "error"
        assert report["payload"]["error"] == "SolveFailed"
    else:
        assert report["status"] == "ok"


@pytest.fixture(scope="module")
def chain_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "chain.json"
    path.write_text(json.dumps(chain_doc(1200)))
    return str(path)


@pytest.fixture(scope="module")
def valid_chain_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "valid_chain.json"
    path.write_text(json.dumps(valid_chain_doc(600)))
    return str(path)


def _run_module_cli(command, path):
    proc = subprocess.run(
        [sys.executable, "-m", "splicefan.cli", command, path],
        capture_output=True,
        text=True,
    )
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["command"] == command
    return proc.returncode, report


@pytest.mark.parametrize("command", ["check", "fan", "roundtrip"])
def test_cli_answers_a_deep_chain_with_its_conditions(chain_path, command):
    """The 1,200-node chain fails its edge determinants and its semigroup
    condition: check reports the three flags, fan and roundtrip refuse it
    as infeasible."""
    code, report = _run_module_cli(command, chain_path)
    if command == "check":
        assert (code, report["status"]) == (1, "violation")
        assert report["payload"] == dict(zip(("edge_determinant", "semigroup", "coprime"),
                                             CHAIN_REPORT))
    else:
        assert (code, report["status"]) == (3, "infeasible")


@pytest.mark.parametrize("command", ["check", "fan", "roundtrip"])
def test_cli_refuses_a_diagram_deeper_than_the_recursion_limit(valid_chain_path, command):
    """The semigroup search on a 600-node chain whose condition holds passes
    the recursion limit; the CLI refuses it with a report."""
    code, report = _run_module_cli(command, valid_chain_path)
    assert (code, report["status"]) == (1, "error")
    assert report["payload"]["error"] == "RecursionError"


@pytest.mark.parametrize("shape", sorted(NOT_A_TREE))
@pytest.mark.parametrize("command", ["check", "fan", "roundtrip", "endcurve"])
def test_cli_refuses_a_graph_that_is_not_a_tree(tmp_path, shape, command):
    """The diagram's tree index is built before validation; a cycle or a
    second component still gets the Tree violation, exit 1 and no traceback."""
    path = tmp_path / f"{shape}.json"
    path.write_text(json.dumps(NOT_A_TREE[shape]))
    extra = ["--root", "l1"] if command == "endcurve" else []
    proc = subprocess.run(
        [sys.executable, "-m", "splicefan.cli", command, str(path), *extra],
        capture_output=True,
        text=True,
    )
    assert proc.stderr == ""
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["status"] == "violation"
    assert "Tree" in [v["code"] for v in report["payload"]["violations"]]


def test_cli_system_and_initial(d1_path):
    code1, out1 = run_cli("system", d1_path)
    code2, out2 = run_cli("system", d1_path)
    assert code1 == code2 == 0 and out1 == out2
    code, out = run_cli("initial", d1_path, "--w", "147,98,60,84,210")
    payload = json.loads(out)["payload"]
    assert code == 0 and payload["monomial_free"] is True
    code, out = run_cli("initial", d1_path, "--w", "1,1,1,1,1")
    assert json.loads(out)["payload"]["monomial_free"] is False
    # seeded random coefficients are deterministic too
    code3, out3 = run_cli("system", d1_path, "--seed", "12")
    code4, out4 = run_cli("system", d1_path, "--seed", "12")
    assert code3 == code4 == 0 and out3 == out4 and out3 != out1


def test_cli_member_w_file(d1_path, tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text("1,1,1,1,1\n147,98,60,84,210\n")
    code, out = run_cli("member", d1_path, "--w-file", str(path))
    payload = json.loads(out)["payload"]
    assert code == 0
    assert [q["result"] for q in payload["queries"]] == ["out", "in"]


@pytest.mark.parametrize("entry", ["0,1,1,1,1", "1,1,-2,1,1"])
def test_cli_member_w_file_refuses_a_vector_that_is_not_positive(d1_path, tmp_path, entry):
    path = tmp_path / "queries.txt"
    path.write_text(f"1,1,1,1,1\n\n{entry}\n147,98,60,84,210\n")
    proc = subprocess.run(
        [sys.executable, "-m", "splicefan.cli", "member", d1_path, "--w-file", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.stderr == ""
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["status"] == "violation"
    assert report["payload"] == {"message": "weight vector on line 3 must be strictly positive"}


@pytest.mark.parametrize("entry, message", [
    ("1,2", "expected 5 comma-separated rationals on line 3"),
    ("1,x,1,1,1", "bad weight vector '1,x,1,1,1' on line 3"),
])
def test_cli_member_w_file_names_the_line_of_a_malformed_vector(d1_path, tmp_path, entry,
                                                                message):
    path = tmp_path / "queries.txt"
    path.write_text(f"1,1,1,1,1\n\n{entry}\n147,98,60,84,210\n")
    code, out = run_cli("member", d1_path, "--w-file", str(path))
    report = json.loads(out)
    assert code == 2 and report["status"] == "error"
    assert report["payload"] == {"message": message}


def test_cli_member_refuses_samples_above_the_maximum_before_drawing(d1_path, monkeypatch,
                                                                   capsys):
    drawn = []

    def draw(diagram, fan, count, seed):
        drawn.append(count)
        return []

    monkeypatch.setattr(cli, "_sample_queries", draw)
    assert cli.main(["member", d1_path, "--samples", str(cli.MAX_SAMPLES)]) == 0
    assert drawn == [cli.MAX_SAMPLES]
    capsys.readouterr()
    for count in (cli.MAX_SAMPLES + 1, 10**23):
        assert cli.main(["member", d1_path, "--samples", str(count)]) == 2
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == "" and report["status"] == "error"
        assert report["payload"] == {"message": f"--samples must be at most {cli.MAX_SAMPLES}"}
    assert drawn == [cli.MAX_SAMPLES]


def test_cli_member_refuses_w_with_w_file(d1_path, tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text("1,1,1,1,1\n")
    code, out = run_cli("member", d1_path, "--w", "1,1,1,1,1", "--w-file", str(path))
    report = json.loads(out)
    assert code == 2 and report["status"] == "error"
    assert "--w-file" in report["payload"]["message"]


@pytest.mark.parametrize("source", ["--w", "--w-file"])
def test_cli_member_refuses_samples_with_a_query_source(d1_path, tmp_path, source):
    path = tmp_path / "queries.txt"
    path.write_text("1,1,1,1,1\n")
    value = "1,1,1,1,1" if source == "--w" else str(path)
    code, out = run_cli("member", d1_path, source, value, "--samples", "5")
    report = json.loads(out)
    assert code == 2 and report["status"] == "error"
    assert "--samples" in report["payload"]["message"]


def _d1_fan_doc():
    return {
        "n": 5,
        "rays": [{"label": l, "vector": [int(i == k) for i in range(5)]}
                 for k, l in enumerate(D1_DOC["leaves"])]
        + [{"label": "u", "vector": [147, 98, 60, 84, 210]},
           {"label": "v", "vector": [210, 140, 110, 154, 385]}],
        "cones": [{"rays": [e["a"], e["b"]], "multiplicity": 1} for e in D1_DOC["edges"]],
    }


def _mistyped(doc, change):
    doc = json.loads(json.dumps(doc))
    change(doc)
    return doc


@pytest.mark.parametrize(
    "command, doc",
    [
        ("recover", _mistyped(_d1_fan_doc(), lambda d: d["rays"][0].update(vector=["x"] * 5))),
        ("recover", _mistyped(_d1_fan_doc(), lambda d: d.update(n="five"))),
        ("recover", _mistyped(_d1_fan_doc(), lambda d: d["cones"][0].update(rays=[["u"], "l1"]))),
        ("recover", _mistyped(_d1_fan_doc(), lambda d: d["rays"].insert(
            0, {"label": "u", "vector": [1, 1, 1, 1, 1]}))),
        ("recover", _mistyped(_d1_fan_doc(), lambda d: d["cones"].insert(
            0, {"rays": ["l1", "u"], "multiplicity": 2}))),
        ("recover", _mistyped(_d1_fan_doc(), lambda d: d["cones"].append(
            {"rays": ["u", "l1"], "multiplicity": 1}))),
        ("recover", _mistyped(_d1_fan_doc(), lambda d: d["rays"][5].update(
            vector=[147, 98, 60, 84]))),
        ("recover", _mistyped(_d1_fan_doc(), lambda d: d["rays"][0].update(
            vector=[1, 0, 0, 0, 0, 0]))),
        ("check", _mistyped(D1_DOC, lambda d: d.update(edges=5))),
        ("check", _mistyped(D1_DOC, lambda d: d["edges"][0].update(a=["u"]))),
    ],
    ids=["ray-entry", "fan-dimension", "cone-ray", "repeated-ray-label",
         "repeated-cone-reversed", "repeated-cone", "short-ray-vector", "long-ray-vector",
         "edges", "edge-endpoint"],
)
def test_cli_rejects_mistyped_documents(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["status"] == "error"
    assert err == ""


def _one_field_mutants(doc, count, rng):
    """count copies of a fan document, each with one field replaced: n, a
    ray label or vector entry, a cone's ray or its multiplicity."""
    fields = [(doc, "n")]
    for ray in doc["rays"]:
        fields.append((ray, "label"))
        fields += [(ray["vector"], k) for k in range(len(ray["vector"]))]
    for cone in doc["cones"]:
        fields += [(cone["rays"], 0), (cone["rays"], 1), (cone, "multiplicity")]
    labels = [ray["label"] for ray in doc["rays"]]
    for _ in range(count):
        holder, key = rng.choice(fields)
        value = holder[key]
        if isinstance(value, str):
            new = rng.choice([rng.choice(labels), "w", "", 7, None])
        else:
            new = rng.choice([0, 1, -1, value + 1, 2 * value, 3 * value + 1, 10 ** 40,
                              "x", None, 2.5])
        holder[key] = new
        yield json.loads(json.dumps(doc))
        holder[key] = value


RECOVER_REFUSALS = {"NotRealizable", "NonCoprimeFan", "VerificationFailed"}


def test_cli_recover_answers_one_field_mutants_with_one_report(tmp_path, capsys):
    """About 300 seeded one-field mutations of the golden corpus's fan_d1.json
    and of a 12-leaf fan: each exits 0, 1 or 2 with one JSON report and an
    empty stderr, and each refusal names a recovery error."""
    corpus = json.loads((Path(__file__).with_name("golden") / "cli.json").read_text())
    fans = [json.loads(corpus["files"]["fan_d1.json"]),
            fan_to_doc(splice_fan(random_diagram(12, 4, 0)))]
    rng = random.Random(0)
    path = tmp_path / "fan.json"
    codes, errors = set(), set()
    for doc in fans:
        for mutant in _one_field_mutants(doc, 150, rng):
            path.write_text(json.dumps(mutant))
            code = cli.main(["recover", str(path)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2) and err == "", (mutant, code, err)
            report = json.loads(out)
            if code == 1:
                assert report["payload"]["error"] in RECOVER_REFUSALS, (mutant, report)
                errors.add(report["payload"]["error"])
            codes.add(code)
    assert codes == {0, 1, 2} and errors == RECOVER_REFUSALS
