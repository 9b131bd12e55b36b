"""Golden CLI corpus: exit codes and exact stdout bytes of recorded commands.

``golden/cli.json`` holds the input files (the worked example, three seeded
random diagrams, their fans and a few broken documents) and, for every
recorded command line, the exit code and the stdout that
``splicefan.cli.main`` gave.  The commands run in-process from a directory
holding the input files, so no report depends on where the test runs.

Regenerate the corpus only when a change of output is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from splicefan import cli

CORPUS = Path(__file__).with_name("golden") / "cli.json"

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

RANDOM = {
    "r6": ["random", "--leaves", "6", "--nodes", "2", "--seed", "9", "--coprime"],
    "r8": ["random", "--leaves", "8", "--nodes", "3", "--seed", "4"],
    "r9": ["random", "--leaves", "9", "--nodes", "1", "--seed", "2", "--coprime"],
}


def _two_node_doc(w_uv, w_vu):
    """Leaves 2, 3 at both nodes, the given weights on the edge [u, v]."""
    return {
        "leaves": ["l1", "l2", "l3", "l4"],
        "nodes": ["u", "v"],
        "edges": [
            {"a": "u", "b": "l1", "wa": 2},
            {"a": "u", "b": "l2", "wa": 3},
            {"a": "u", "b": "v", "wa": w_uv, "wb": w_vu},
            {"a": "v", "b": "l3", "wa": 2},
            {"a": "v", "b": "l4", "wa": 3},
        ],
    }


REFUSALS = [
    ["check", "broken.json"],                       # 2: not JSON
    ["check", "nokeys.json"],                       # 2: schema
    ["member", "d1.json", "--w", "1,2"],            # 2: wrong length
    ["member", "d1.json", "--w", "1,x,1,1,1"],      # 2: not a rational
    ["member", "d1.json", "--samples", "-1"],       # 2: negative sample count
    ["member", "d1.json", "--w", "1,1,1,1,1", "--w-file", "ws_d1.txt"],  # 2: two query sources
    ["member", "d1.json", "--w", "1,1,1,1,1", "--samples", "5"],      # 2: samples and a vector
    ["member", "d1.json", "--w-file", "ws_d1.txt", "--samples", "5"],  # 2: samples and a file
    ["check", "det.json"],                          # 1: edge determinant
    ["system", "det.json"],                         # 1: edge determinant
    ["member", "d1.json", "--w", "0,1,1,1,1"],      # 1: not strictly positive
    ["endcurve", "d1.json", "--root", "u"],         # 1: root is not a leaf
    ["recover", "badfan_d1.json"],                  # 1: multiplicity 4
    ["check", "semi.json"],                         # 1: semigroup condition
    ["system", "semi.json"],                        # 3: semigroup condition
    ["random", "--leaves", "3", "--nodes", "2", "--seed", "9"],  # 3: no such shape
    ["recover", "nonodefan.json"],                  # 1: no node ray
    ["recover", "zerofan_d1.json"],                 # 1: zero entry in a node ray
    ["member", "d1.json", "--w-file", "ws_zero_d1.txt"],  # 1: a vector in the file is not positive
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _payload(argv):
    code, out, _ = run(argv)
    assert code == 0, (argv, out)
    return json.loads(out)["payload"]


def _diagram_commands(name, doc):
    path = f"{name}.json"
    ones = ",".join("1" for _ in doc["leaves"])
    cmds = [
        ["check", path],
        ["system", path],
        ["system", path, "--seed", "12"],
        ["fan", path],
        ["member", path],
        ["member", path, "--samples", "6", "--seed", "12"],
        ["member", path, "--w", ones],
        ["initial", path, "--w", ones],
        ["initial", path, "--w", ones, "--seed", "12"],
        ["recover", f"fan_{name}.json"],
        ["roundtrip", path],
    ]
    for leaf in doc["leaves"]:
        cmds.append(["endcurve", path, "--root", leaf])
        cmds.append(["endcurve", path, "--root", leaf, "--seed", "12"])
    return cmds


@contextlib.contextmanager
def _inside(files):
    """Run the body from a fresh directory holding the given files."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in files.items():
            Path(tmp, fname).write_text(text)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(here)


def build_corpus():
    """Input files and the commands run on them (the outputs not yet filled)."""
    diagrams = {"d1": D1_DOC}
    cmds = []
    for name, argv in RANDOM.items():
        cmds.append(argv)
        diagrams[name] = _payload(argv)
    files = {}
    for name, doc in diagrams.items():
        files[f"{name}.json"] = json.dumps(doc, indent=2)
    with _inside(files):
        fans = {name: _payload(["fan", f"{name}.json"]) for name in diagrams}
    for name, fan in fans.items():
        files[f"fan_{name}.json"] = json.dumps(fan, indent=2)
    bad_fan = json.loads(files["fan_d1.json"])
    bad_fan["cones"][0]["multiplicity"] = 4
    files["badfan_d1.json"] = json.dumps(bad_fan, indent=2)
    files["broken.json"] = "{nope"
    files["nokeys.json"] = json.dumps({"leaves": ["l1"], "nodes": []})
    files["det.json"] = json.dumps(_two_node_doc(1, 1), indent=2)
    files["semi.json"] = json.dumps(_two_node_doc(1, 100), indent=2)
    files["ws_d1.txt"] = "1,1,1,1,1\n147,98,60,84,210\n"
    files["ws_zero_d1.txt"] = "1,1,1,1,1\n0,1,1,1,1\n"
    files["nonodefan.json"] = json.dumps({
        "n": 3,
        "rays": [{"label": x, "vector": [int(i == k) for i in range(3)]}
                 for k, x in enumerate("abc")],
        "cones": [{"rays": pair, "multiplicity": 1} for pair in (["a", "b"], ["b", "c"])],
    }, indent=2)
    zero_fan = json.loads(files["fan_d1.json"])
    zero_fan["rays"][5]["vector"] = [0, 3, 1, 1, 1]  # u
    zero_fan["rays"][6]["vector"] = [1, 1, 2, 3, 5]  # v
    files["zerofan_d1.json"] = json.dumps(zero_fan, indent=2)
    for name, doc in diagrams.items():
        cmds.extend(_diagram_commands(name, doc))
    cmds.append(["member", "d1.json", "--w", "147,98,60,84,210"])
    cmds.append(["member", "d1.json", "--w", "147/2,49,30,42,105"])
    cmds.append(["initial", "d1.json", "--w", "147,98,60,84,210"])
    cmds.append(["member", "d1.json", "--w-file", "ws_d1.txt"])
    cmds.append(["member", "d1.json", "--samples", "0"])
    cmds.extend(REFUSALS)
    return files, cmds


def record():
    files, cmds = build_corpus()
    cases = []
    with _inside(files):
        for argv in cmds:
            code, out, err = run(argv)
            assert not err, (argv, err)
            cases.append({"argv": argv, "exit": code, "stdout": out})
    return {"files": files, "cases": cases}


def _load():
    return json.loads(CORPUS.read_text()) if CORPUS.exists() else {"files": {}, "cases": []}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for fname, text in _load()["files"].items():
        (directory / fname).write_text(text)
    return directory


@pytest.mark.parametrize(
    "case", _load()["cases"], ids=lambda case: " ".join(case["argv"])
)
def test_cli_golden(case, corpus_dir, monkeypatch):
    monkeypatch.chdir(corpus_dir)
    code, out, err = run(case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    assert err == ""


def test_corpus_covers_every_exit_code():
    assert {case["exit"] for case in _load()["cases"]} == {0, 1, 2, 3}


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(record(), indent=1) + "\n")
