"""The benchmark's workloads: member, ladder and cli.

``setup(sf, seed, wrap, out_dir, traced, clock)`` builds one round of
operations from the seed, making every call into splicefan through ``clock``
so that set-up time counts the program's work and not the harness's. A
round is a fixed list of zero-argument callables; the harness runs whole
rounds, so every run attempts the same operations in the same proportions.
``plain(result)`` turns an operation's result into hashable plain data and
``check(i, plain)`` judges it against the benchmark's own computations in
checks.py, returning ("ok" | "failed" | "wrong", detail). On member and cli
an operation has failed when the program raised or exited nonzero. On the
ladder it has failed only when an end-curve from the floating-point branch
is rejected: its coefficients fail the checks, or parameterize raises after
solve_binomial_torus returned floating components. Any other rejected
answer, or any other raise, is wrong and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import checks
from checks import CheckFailed, require

# Exceptions by which parameterize reports the floating-point end-curve
# branch giving up (overflow, or components that fail substitution).
NUMERIC_FAULTS = ("SolveFailed", "OverflowError")


def untimed(fn, *args, **kwargs):
    """A ``clock`` for set-ups whose calls are not timed (the traced run)."""
    return fn(*args, **kwargs)


class Raised:
    __slots__ = ("exc",)

    def __init__(self, exc):
        self.exc = exc

    def plain(self):
        return ("raised", type(self.exc).__name__, str(self.exc)[:200])


def attempt(fn, *args):
    """Run one step, keeping going after a failure (the ladder runs every step)."""
    if any(isinstance(a, Raised) for a in args):
        return Raised(RuntimeError("skipped: an earlier step raised"))
    try:
        return fn(*args)
    except Exception as exc:  # one step's failure is recorded, not fatal
        return Raised(exc)


def tree_of(d):
    return checks.Tree(d.leaves, d.nodes, [
        (a, b, d.weight(a, b) if d.is_node(a) else None,
         d.weight(b, a) if d.is_node(b) else None)
        for a, b in d.edges()
    ])


def draw_queries(rng, tree, count):
    """Alternately a point a*r1 + b*r2 inside a random cone (built from the
    benchmark's own rays) and a random positive vector."""
    out = []
    for q in range(count):
        if q % 2 == 0:
            a, b = rng.choice(tree.edge_list)
            x, y = rng.randint(1, 9), rng.randint(1, 9)
            w = tuple(x * p + y * q2 for p, q2 in zip(tree.ray(a), tree.ray(b)))
            out.append((w, (a, b)))
        else:
            out.append((tuple(rng.randint(1, 40) for _ in tree.leaves), None))
    return out


def plain_equations(system):
    return tuple((eq.node, eq.index, eq.full.terms) for eq in system.equations)


def _built_equations(sf, d):
    return plain_equations(sf.build_system(d))


def plain_member(res):
    if isinstance(res, Raised):
        return res.plain()
    if res.status == "in":
        c = res.cell
        return ("in", c.kind, c.label, tuple(c.coeffs))
    c = res.certificate
    return ("out", c.node, tuple(c.edge), tuple(c.monomial),
            tuple(sorted(c.values.items())), tuple(c.coefficients), tuple(c.truncated))


class Subject:
    """One diagram under test: its own Tree, and lazily its verified
    equations and the span oracle's verdicts (run outside timed regions)."""

    def __init__(self, sf, tree, vandermonde, source=None):
        self.sf = sf
        self.tree = tree
        self.vandermonde = vandermonde
        self._source = source   # gives the plain equations when no answer does
        self._eqs = None
        self._oracle = {}

    def equations(self, plain=None):
        if self._eqs is None:
            self._eqs = checks.check_system(
                self.tree, self._source() if plain is None else plain, self.vandermonde)
        return self._eqs

    def oracle_in(self, w):
        if w not in self._oracle:
            polys = [self.sf.Polynomial(list(t.equation(i).items()))
                     for t in self.equations().values() for i in range(len(t.star) - 2)]
            self._oracle[w] = self.sf.monomial_in_span_oracle(polys, w) is None
        return self._oracle[w]


def check_member(subject, w, ans, cone):
    """An 'in' answer lands on a real cell, an 'out' answer carries a valid
    certificate, and the verdict agrees with monomial_in_span_oracle."""
    if ans[0] == "in":
        _, kind, label, coeffs = ans
        checks.check_cell(subject.tree, w, kind, label, coeffs, cone)
    else:
        require(ans[0] == "out", f"unknown answer {ans[0]!r}")
        require(cone is None, "a cone-built query was certified off the fan")
        _, node, edge, mono, values, coeffs, trunc = ans
        checks.check_certificate(subject.tree, subject.equations(), w, node, edge,
                                 mono, dict(values), coeffs, trunc)
    require((ans[0] == "in") == subject.oracle_in(w),
            "answer disagrees with monomial_in_span_oracle")


def judged(fn, *args):
    """Run a check; a malformed answer (a missing key, a bad value) is wrong too."""
    try:
        fn(*args)
    except CheckFailed as exc:
        return "wrong", str(exc)
    except (LookupError, TypeError, ValueError) as exc:
        return "wrong", f"malformed answer: {type(exc).__name__}: {exc}"
    return "ok", ""


# ---------------------------------------------------------------------------
# member: batch membership on a mixed pool of small diagrams
# ---------------------------------------------------------------------------

# Every (leaves, nodes) shape with 4 to 8 leaves and 1 to 3 nodes, each drawn
# MEMBER_REPLICAS times in each of four kinds: coprime or not, Vandermonde
# or seeded random Hamm coefficients. A fixed mix of shapes keeps the cost
# of a round from depending on which shapes a seed happens to draw.
MEMBER_SHAPES = tuple((n, k) for n in range(4, 9) for k in range(1, min(3, n - 2) + 1))
MEMBER_REPLICAS = 6
MEMBER_QUERIES = 10    # queries per system, every other one built on a cone


class Member:
    def setup(self, sf, seed, wrap, out_dir, traced, clock):
        rng = random.Random(seed)
        self.ops, self.cases = [], []
        for n, nodes in MEMBER_SHAPES * MEMBER_REPLICAS:
            for coprime, vandermonde in ((True, True), (False, True), (True, False),
                                         (False, False)):
                d = clock(sf.random_diagram, n, nodes, rng.randrange(2**32),
                          require_coprime=coprime)
                if vandermonde:
                    system = clock(sf.build_system, d)
                else:
                    crng = random.Random(rng.randrange(2**32))
                    coeffs = {v: clock(sf.random_coefficients, d, v, crng) for v in d.nodes}
                    system = clock(sf.build_system, d, coeffs=coeffs)
                fan = clock(sf.splice_fan, d)
                subject = Subject(sf, tree_of(d), vandermonde,
                                  functools.partial(plain_equations, system))
                for w, cone in draw_queries(rng, subject.tree, MEMBER_QUERIES):
                    self.ops.append(wrap(functools.partial(sf.membership, system, w, fan)))
                    self.cases.append((subject, w, cone))

    def plain(self, res):
        return plain_member(res)

    def check(self, i, ans):
        subject, w, cone = self.cases[i]
        if ans[0] == "raised":
            return "failed", f"membership raised {ans[1]}: {ans[2]}"
        return judged(check_member, subject, w, ans, cone)


# ---------------------------------------------------------------------------
# ladder: complete analysis of diagrams on a size ladder
# ---------------------------------------------------------------------------

# (leaves, nodes) shapes, each generated with every seed in LADDER_SEEDS.
# The diagrams do not depend on the run's seed, so the operations that hit
# the floating-point end-curve fault are the same in every run; the run's
# seed draws the membership queries.
LADDER = ((6, 1), (6, 2), (6, 4), (7, 1), (7, 3), (8, 1), (8, 2), (8, 4),
          (9, 1), (9, 3), (10, 1), (10, 2), (10, 5), (11, 1), (11, 3),
          (12, 1), (12, 2), (12, 4))
LADDER_SEEDS = (0, 1, 2)
LADDER_QUERIES = 4


def analyse(sf, d, ws):
    """Every step of a full analysis; a step that raises does not stop the rest."""
    conditions = attempt(sf.check_conditions, d)
    system = attempt(sf.build_system, d)
    fan = attempt(sf.splice_fan, d)
    return {
        "conditions": conditions,
        "system": system,
        "fan": fan,
        "balanced": attempt(sf.check_balancing, fan),
        "members": [attempt(sf.membership, system, w, fan) for w in ws],
        "curves": [(leaf, attempt(_curve, sf, system, d, leaf)) for leaf in d.leaves],
        "roundtrip": attempt(sf.roundtrip, d),
    }


def _curve(sf, system, d, leaf):
    return sf.parameterize(sf.end_curve_system(system, sf.root(d, leaf)))


def raised_after_numeric_solve(sf, d, system, leaf, raised):
    """Whether parameterize at ``leaf`` raises the same way again, after
    solve_binomial_torus returned floating components. Run after the loop:
    it re-runs the end-curve on ``system`` (built again for the purpose)
    with the solver spied on."""
    from splicefan import endcurve

    solve, branches = endcurve.solve_binomial_torus, []

    def spy(*args):
        result = solve(*args)
        branches.append(result[1])
        return result

    endcurve.solve_binomial_torus = spy
    try:
        again = attempt(_curve, sf, system, d, leaf)
    finally:
        endcurve.solve_binomial_torus = solve
    return (branches == [False] and isinstance(again, Raised)
            and again.plain() == tuple(raised))


def _plain_or(value, fn):
    return value.plain() if isinstance(value, Raised) else fn(value)


class Ladder:
    def setup(self, sf, seed, wrap, out_dir, traced, clock):
        rng = random.Random(seed)
        self.ops, self.cases = [], []
        for n, k in LADDER:
            for s in LADDER_SEEDS:
                d = clock(sf.random_diagram, n, k, s)
                subject = Subject(sf, tree_of(d), True)
                queries = draw_queries(rng, subject.tree, LADDER_QUERIES)
                self.ops.append(wrap(functools.partial(analyse, sf, d, [w for w, _ in queries])))
                self.cases.append((subject, d, queries, f"({n},{k}) seed {s}"))

    def plain(self, res):
        return (
            _plain_or(res["conditions"], lambda r: (r.edge_determinant, r.semigroup, r.coprime)),
            _plain_or(res["system"], plain_equations),
            _plain_or(res["fan"], lambda f: (
                tuple((r.label, tuple(r.vector)) for r in f.rays),
                tuple((frozenset(c.rays), c.multiplicity) for c in f.cones))),
            _plain_or(res["balanced"], lambda b: b),
            tuple(plain_member(m) for m in res["members"]),
            tuple((leaf, _plain_or(c, lambda c: (c.root, c.leaves, c.exponents, c.g,
                                                 c.components, c.exact)))
                  for leaf, c in res["curves"]),
            _plain_or(res["roundtrip"], lambda b: b),
        )

    def check(self, i, ans):
        subject, d, queries, name = self.cases[i]
        tree = subject.tree
        cond, system, fan, balanced, members, curves, rt = ans
        failed, wrong = [], []

        def step(label, value, fn, *args):
            if isinstance(value, tuple) and value and value[0] == "raised":
                wrong.append(f"{label} raised {value[1]}: {value[2]}")
                return False
            status, detail = judged(fn, value, *args)
            if status != "ok":
                wrong.append(f"{label}: {detail}")
            return status == "ok"

        have_eqs = step("build_system", system, subject.equations)
        step("check_conditions", cond,
             lambda r: checks.check_conditions(tree, *r, witnessed=have_eqs))
        step("splice_fan", fan, lambda f: checks.check_fan(tree, dict(f[0]), dict(f[1])))
        step("check_balancing", balanced, lambda b: require(b is True, "fan is not balanced"))
        for (w, cone), m in zip(queries, members):
            if have_eqs:
                step(f"membership {w}", m, lambda a: check_member(subject, w, a, cone))
        rebuilt = None
        for leaf, c in curves:
            if c[0] == "raised":
                if c[1] in NUMERIC_FAULTS and rebuilt is None:
                    rebuilt = attempt(subject.sf.build_system, d)
                if c[1] in NUMERIC_FAULTS and raised_after_numeric_solve(
                        subject.sf, d, rebuilt, leaf, c):
                    failed.append(f"parameterize at {leaf} numeric end-curve fault: "
                                  f"{c[1]}: {c[2]}")
                else:
                    wrong.append(f"parameterize at {leaf} raised {c[1]}: {c[2]}")
            elif have_eqs:
                root, leaves, exps, g, comps, exact = c
                floating = any(not isinstance(x, (int, Fraction)) for comp in comps for x in comp)
                status, detail = judged(checks.check_end_curve_shape,
                                        tree, root, leaves, exps, g, comps)
                if status == "ok" and exact == floating:
                    status, detail = "wrong", f"exact is {exact} for floating={floating}"
                if status != "ok":
                    wrong.append(f"parameterize at {leaf}: {detail}")
                    continue
                status, detail = judged(checks.check_end_curve_coefficients,
                                        tree, subject.equations(), root, exps, comps)
                if status != "ok":
                    # floating coefficients that fail the checks are the known fault
                    (failed if floating else wrong).append(
                        f"parameterize at {leaf} "
                        f"{'numeric end-curve fault' if floating else 'exact'}: {detail}")
        step("roundtrip", rt, lambda b: require(b is True, "roundtrip is false"))
        if wrong:
            return "wrong", f"{name}: " + "; ".join(wrong + failed)
        if failed:
            return "failed", f"{name}: " + "; ".join(failed)
        return "ok", ""


# ---------------------------------------------------------------------------
# cli: one command-line process per operation
# ---------------------------------------------------------------------------

CLI_DIAGRAMS = 4   # coprime diagrams per seed, 5 to 8 leaves, 1 to 3 nodes


def diagram_doc(tree):
    edges = []
    for a, b in tree.edge_list:
        entry = {"a": a, "b": b}
        if tree.is_node(a):
            entry["wa"] = tree.weight[(a, b)]
        if tree.is_node(b):
            entry["wb"] = tree.weight[(b, a)]
        edges.append(entry)
    return {"leaves": list(tree.leaves), "nodes": list(tree.nodes), "edges": edges}


def fan_doc(tree):
    return {
        "n": len(tree.leaves),
        "rays": [{"label": v, "vector": list(tree.ray(v))} for v in tree.leaves + tree.nodes],
        "cones": [{"rays": [a, b], "multiplicity": tree.multiplicity(a, b)}
                  for a, b in tree.edge_list],
    }


def fmt(w):
    return ",".join(str(x) for x in w)


def run_child(root, env, work, peaks, argv):
    """Run one command; append its peak resident memory (KiB) to ``peaks``.

    The child is reaped with os.wait4, which gives its own peak; the
    benchmark's other children (speed units, import timings) stay out."""
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        proc = subprocess.Popen([sys.executable, "-m", "splicefan.cli", *argv],
                                cwd=root, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        peaks.append(usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode()


def run_inprocess(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue(), ""


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    def __init__(self):
        self.peaks = []   # peak resident memory (KiB) of each command run

    def setup(self, sf, seed, wrap, out_dir, traced, clock):
        rng = random.Random(seed)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        work = os.path.join(out_dir, f"cli-s{seed}")
        os.makedirs(work, exist_ok=True)
        env = child_env(root)
        if traced:   # commands run in-process through cli.main, stdout captured
            import splicefan.cli
            run = functools.partial(run_inprocess, splicefan.cli.main)
        else:
            run = functools.partial(run_child, root, env, work, self.peaks)
        self.ops, self.cases = [], []
        for k in range(CLI_DIAGRAMS):
            n = rng.randint(5, 8)
            d = clock(sf.random_diagram, n, rng.randint(1, min(3, n - 2)), rng.randrange(2**32))
            tree = tree_of(d)
            subject = Subject(sf, tree, True, functools.partial(_built_equations, sf, d))
            doc = diagram_doc(tree)
            paths = {name: os.path.join(work, f"{name}{k}.json") for name in ("d", "f")}
            paths["q"] = os.path.join(work, f"q{k}.txt")
            with open(paths["d"], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with open(paths["f"], "w", encoding="utf-8") as fh:
                json.dump(fan_doc(tree), fh)
            queries = draw_queries(rng, tree, 6)
            with open(paths["q"], "w", encoding="utf-8") as fh:
                fh.write("".join(fmt(w) + "\n" for w, _ in queries))
            w_initial = draw_queries(rng, tree, 2)[k % 2][0]
            leaf = rng.choice(tree.leaves)
            gen = (6, 2, rng.randrange(2**31))
            commands = [
                ("check", [paths["d"]], None),
                ("system", [paths["d"]], None),
                ("fan", [paths["d"]], None),
                ("member", [paths["d"], "--w-file", paths["q"]], queries),
                ("initial", [paths["d"], "--w", fmt(w_initial)], w_initial),
                ("endcurve", [paths["d"], "--root", leaf], leaf),
                ("recover", [paths["f"]], doc),
                ("roundtrip", [paths["d"]], None),
                ("random", ["--leaves", str(gen[0]), "--nodes", str(gen[1]),
                            "--seed", str(gen[2]), "--coprime"], gen),
            ]
            for name, args, extra in commands:
                self.ops.append(wrap(functools.partial(run, [name] + args)))
                self.cases.append((name, subject, doc, extra))
        # one warm-up process outside the loop, so the timed ones find
        # compiled bytecode; it is the program's work, so set-up counts it
        clock(run_child, root, env, work, self.peaks, ["check", os.path.join(work, "d0.json")])

    def plain(self, res):
        return res.plain() if isinstance(res, Raised) else res

    def check(self, i, ans):
        name, subject, doc, extra = self.cases[i]
        if ans[0] == "raised":
            return "failed", f"{name} raised {ans[1]}: {ans[2]}"
        code, out, err = ans
        if code != 0 or err:
            return "failed", f"{name} exited {code}: {err.strip()[-300:]}"
        return judged(self._check_report, name, subject, doc, extra, out)

    def _check_report(self, name, subject, doc, extra, out):
        report = json.loads(out)
        require(report["command"] == name and report["status"] == "ok",
                f"{name} reported {report.get('status')!r}")
        p = report["payload"]
        tree = subject.tree
        if name == "check":
            subject.equations()
            checks.check_conditions(tree, p["edge_determinant"], p["semigroup"],
                                    p["coprime"], witnessed=True)
        elif name == "system":
            checks.check_same_diagram(p["diagram"], doc)
            require(all(e["tail"] == [] for e in p["equations"]), "unexpected tail")
            checks.check_system(tree, [
                (e["node"], e["index"], [(tuple(t["m"]), Fraction(t["c"])) for t in e["terms"]])
                for e in p["equations"]], vandermonde=True)
        elif name == "fan":
            require(p["n"] == len(tree.leaves), "fan dimension")
            checks.check_fan(tree, {r["label"]: r["vector"] for r in p["rays"]},
                             {frozenset(c["rays"]): c["multiplicity"] for c in p["cones"]})
        elif name == "member":
            require(len(p["queries"]) == len(extra), "member answered a different count")
            for (w, cone), entry in zip(extra, p["queries"]):
                require(tuple(Fraction(x) for x in entry["w"]) == w, "member echoed another w")
                check_member(subject, w, _member_answer(entry), cone)
        elif name == "initial":
            eqs = subject.equations()
            expected = [checks.initial_form(t.equation(i), extra)
                        for t in eqs.values() for i in range(len(t.star) - 2)]
            got = [{tuple(t["m"]): Fraction(t["c"]) for t in g} for g in p["generators"]]
            require(got == expected, "initial forms differ")
            require(p["monomial_free"] == checks.in_fan(tree, extra),
                    "monomial_free disagrees with the fan")
        elif name == "endcurve":
            require(p["root"] == extra, "endcurve answered another root")
            comps = [tuple(checks.parse_component(c) for c in comp["coeffs"])
                     for comp in p["components"]]
            others = [l for l in tree.leaves if l != extra]
            checks.check_end_curve(tree, subject.equations(), extra, others,
                                   p["exponents"], p["g"], comps)
        elif name == "recover":
            checks.check_same_diagram(p, extra)
        elif name == "roundtrip":
            require(p == {"roundtrip": True}, "roundtrip is not true")
        else:
            checks.check_valid_diagram(checks.Tree.from_doc(p), *extra[:2], coprime=True)


def _member_answer(entry):
    """A CLI membership entry in the plain form check_member reads."""
    if entry["result"] == "in":
        cell = entry["cell"]
        if cell["kind"] == "on_ray":
            return ("in", "on_ray", cell["ray"], (Fraction(cell["coeff"]),))
        return ("in", cell["kind"], tuple(cell.get("cone", ())),
                tuple(Fraction(c) for c in cell.get("coeffs", ())))
    c = entry["certificate"]
    return ("out", c["node"], tuple(c["edge"]), tuple(c["monomial"]),
            tuple((k, Fraction(v)) for k, v in c["values"].items()),
            tuple(Fraction(x) for x in c["coefficients"]), tuple(c["truncated"]))


WORKLOADS = {"member": Member, "ladder": Ladder, "cli": Cli}
