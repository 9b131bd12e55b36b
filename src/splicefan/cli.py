"""Command-line front end.

Every command reads JSON documents, runs one library operation and prints a
CommandReport: {"command", "status", "payload"}.  Output bytes are a pure
function of the inputs and flags.  Exit codes: 0 ok, 1 semantic refusal or
violated condition, 2 unreadable input, 3 infeasible request.  Only the
semigroup search's split still recurses, about two frames per node along a
path, so a diagram whose search runs deeper than the recursion limit is
refused with exit 1 and a report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import documents as docs
from .diagram import check_conditions, random_diagram, validate
from .endcurve import binomial_reduce, end_curve_system, parameterize, root
from .errors import (
    DocumentError,
    GenerationExhausted,
    NonCoprimeFan,
    NotRealizable,
    SpliceError,
    VerificationFailed,
)
from .fan import initial_ideal_generators, membership, splice_fan
from .recover import recover, roundtrip
from .system import build_system, random_coefficients

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3

# the most queries `member --samples` draws; a larger count is refused with
# exit 2 before any query is drawn
MAX_SAMPLES = 10_000


class _Refusal(Exception):
    def __init__(self, status, payload, code):
        super().__init__(status)
        self.status = status
        self.payload = payload
        self.code = code


def _emit(command, status, payload):
    report = {"command": command, "status": status, "payload": payload}
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Refusal("error", {"message": f"cannot read {path}: {exc}"}, EXIT_PARSE)


def _load_diagram(path):
    try:
        diagram = docs.diagram_from_doc(_load_json(path))
    except DocumentError as exc:
        raise _Refusal("error", {"message": str(exc)}, EXIT_PARSE)
    violations = validate(diagram)
    if violations:
        raise _Refusal(
            "violation",
            {"violations": [{"code": v.code, "detail": v.detail} for v in violations]},
            EXIT_REFUSED,
        )
    return diagram


def _load_checked_diagram(path):
    """Diagram plus its condition report, refusing unusable inputs."""
    diagram = _load_diagram(path)
    report = check_conditions(diagram)
    if not report.semigroup:
        raise _Refusal(
            "infeasible", {"message": "semigroup condition fails"}, EXIT_INFEASIBLE
        )
    if not report.edge_determinant:
        raise _Refusal(
            "violation", {"message": "edge determinant condition fails"}, EXIT_REFUSED
        )
    return diagram, report


def _default_system(diagram, seed=None):
    if seed is None:
        return build_system(diagram)
    rng = random.Random(seed)
    coeffs = {v: random_coefficients(diagram, v, rng) for v in diagram.nodes}
    return build_system(diagram, coeffs=coeffs)


def _parse_weight_vector(text, n, where=""):
    """The vector of ``text``; ``where`` (" on line k") ends each refusal."""
    parts = text.split(",")
    if len(parts) != n:
        raise _Refusal(
            "error", {"message": f"expected {n} comma-separated rationals{where}"}, EXIT_PARSE
        )
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise _Refusal("error", {"message": f"bad weight vector {text!r}{where}"}, EXIT_PARSE)


def _positive(w, what):
    if any(x <= 0 for x in w):
        raise _Refusal(
            "violation", {"message": f"{what} must be strictly positive"}, EXIT_REFUSED
        )
    return w


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_check(args):
    diagram = _load_diagram(args.diagram)
    report = check_conditions(diagram)
    payload = {
        "edge_determinant": report.edge_determinant,
        "semigroup": report.semigroup,
        "coprime": report.coprime,
    }
    if report.edge_determinant and report.semigroup and report.coprime:
        return "ok", payload, EXIT_OK
    return "violation", payload, EXIT_REFUSED


def _cmd_system(args):
    diagram, _ = _load_checked_diagram(args.diagram)
    system = _default_system(diagram, args.seed)
    return "ok", docs.system_to_doc(system), EXIT_OK


def _cmd_fan(args):
    diagram, _ = _load_checked_diagram(args.diagram)
    return "ok", docs.fan_to_doc(splice_fan(diagram)), EXIT_OK


def _member_query(system, fan, w):
    result = membership(system, w, fan)
    entry = {
        "w": [docs.format_rational(x) for x in w],
        "result": result.status,
    }
    if result.status == "in":
        entry["cell"] = docs.cell_to_doc(result.cell)
    else:
        entry["certificate"] = docs.certificate_to_doc(result.certificate)
    return entry


def _sample_queries(diagram, fan, count, seed):
    rng = random.Random(seed)
    node_rays = [fan.ray_by_label[v].vector for v in diagram.nodes]
    out = []
    for k in range(count):
        if k % 2 == 0:
            cone = fan.cones[rng.randrange(len(fan.cones))]
            r1 = fan.ray_by_label[cone.rays[0]].vector
            r2 = fan.ray_by_label[cone.rays[1]].vector
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            w = tuple(a * x + b * y for x, y in zip(r1, r2))
            if any(x <= 0 for x in w):
                w = tuple(x + y for x, y in zip(w, node_rays[0]))
        else:
            w = tuple(rng.randint(1, 40) for _ in range(diagram.n))
        out.append(w)
    return out


def _cmd_member(args):
    if args.samples is not None and args.samples < 0:
        raise _Refusal("error", {"message": "--samples must not be negative"}, EXIT_PARSE)
    if args.samples is not None and args.samples > MAX_SAMPLES:
        raise _Refusal(
            "error", {"message": f"--samples must be at most {MAX_SAMPLES}"}, EXIT_PARSE
        )
    if args.w is not None and args.w_file is not None:
        raise _Refusal(
            "error", {"message": "--w and --w-file cannot be given together"}, EXIT_PARSE
        )
    if args.samples is not None and (args.w is not None or args.w_file is not None):
        raise _Refusal(
            "error",
            {"message": "--samples cannot be given with --w or --w-file"},
            EXIT_PARSE,
        )
    diagram, _ = _load_checked_diagram(args.diagram)
    system = _default_system(diagram, args.seed)
    fan = splice_fan(diagram)
    if args.w is not None:
        w = _positive(_parse_weight_vector(args.w, diagram.n), "weight vector")
        return "ok", _member_query(system, fan, w), EXIT_OK
    if args.w_file is not None:
        try:
            with open(args.w_file, "r", encoding="utf-8") as handle:
                lines = [(k, line.strip()) for k, line in enumerate(handle, 1) if line.strip()]
        except OSError as exc:
            raise _Refusal("error", {"message": str(exc)}, EXIT_PARSE)
        vectors = [
            _parse_weight_vector(line, diagram.n, f" on line {k}") for k, line in lines
        ]
        for (k, _), w in zip(lines, vectors):
            _positive(w, f"weight vector on line {k}")
    else:
        samples = 10 if args.samples is None else args.samples
        vectors = _sample_queries(diagram, fan, samples, args.seed or 0)
    return (
        "ok",
        {"queries": [_member_query(system, fan, w) for w in vectors]},
        EXIT_OK,
    )


def _cmd_initial(args):
    diagram, _ = _load_checked_diagram(args.diagram)
    system = _default_system(diagram, args.seed)
    w = _parse_weight_vector(args.w, diagram.n)
    gens, monomial_free = initial_ideal_generators(system, w)
    payload = {
        "generators": [docs.polynomial_to_terms(g) for g in gens],
        "monomial_free": monomial_free,
    }
    return "ok", payload, EXIT_OK


def _cmd_endcurve(args):
    diagram, _ = _load_checked_diagram(args.diagram)
    if not diagram.is_leaf(args.root):
        raise _Refusal(
            "violation", {"message": f"{args.root!r} is not a leaf"}, EXIT_REFUSED
        )
    system = _default_system(diagram, args.seed)
    ecs = end_curve_system(system, root(diagram, args.root))
    curve = parameterize(ecs)
    return "ok", docs.endcurve_report(curve, binomial_reduce(ecs)), EXIT_OK


def _cmd_recover(args):
    try:
        fan = docs.fan_from_doc(_load_json(args.fan))
    except DocumentError as exc:
        raise _Refusal("error", {"message": str(exc)}, EXIT_PARSE)
    try:
        diagram = recover(fan)
    except (NonCoprimeFan, NotRealizable, VerificationFailed) as exc:
        raise _Refusal(
            "violation",
            {"error": type(exc).__name__, "message": str(exc)},
            EXIT_REFUSED,
        )
    return "ok", docs.diagram_to_doc(diagram), EXIT_OK


def _cmd_roundtrip(args):
    diagram, report = _load_checked_diagram(args.diagram)
    if not report.coprime:
        raise _Refusal(
            "violation", {"message": "roundtrip needs a coprime diagram"}, EXIT_REFUSED
        )
    ok = roundtrip(diagram)
    return ("ok" if ok else "violation"), {"roundtrip": ok}, EXIT_OK if ok else EXIT_REFUSED


def _cmd_random(args):
    try:
        diagram = random_diagram(
            args.leaves, args.nodes, args.seed, require_coprime=args.coprime
        )
    except GenerationExhausted as exc:
        raise _Refusal("infeasible", {"message": str(exc)}, EXIT_INFEASIBLE)
    return "ok", docs.diagram_to_doc(diagram), EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="splicefan",
        description="Exact splice diagram, splice fan and end-curve toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a diagram and report its conditions")
    p.add_argument("diagram")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("system", help="emit the splice type system of a diagram")
    p.add_argument("diagram")
    p.add_argument("--seed", type=int, default=None,
                   help="random Hamm coefficients instead of the Vandermonde default")
    p.set_defaults(run=_cmd_system)

    p = sub.add_parser("fan", help="emit the weighted splice fan")
    p.add_argument("diagram")
    p.set_defaults(run=_cmd_fan)

    p = sub.add_parser("member", help="membership of weight vectors in the tropicalization")
    p.add_argument("diagram")
    p.add_argument("--w", default=None, help="comma-separated rationals")
    p.add_argument("--w-file", default=None, help="file with one vector per line")
    p.add_argument("--samples", type=int, default=None,
                   help="sampled queries when no vector is given "
                        f"(default 10, at most {MAX_SAMPLES})")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=_cmd_member)

    p = sub.add_parser("initial", help="initial forms of the system at a weight vector")
    p.add_argument("diagram")
    p.add_argument("--w", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=_cmd_initial)

    p = sub.add_parser("endcurve", help="end-curve data for a rooted diagram")
    p.add_argument("diagram")
    p.add_argument("--root", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=_cmd_endcurve)

    p = sub.add_parser("recover", help="recover the coprime diagram from a fan")
    p.add_argument("fan")
    p.set_defaults(run=_cmd_recover)

    p = sub.add_parser("roundtrip", help="fan-then-recover round trip check")
    p.add_argument("diagram")
    p.set_defaults(run=_cmd_roundtrip)

    p = sub.add_parser("random", help="generate a random diagram")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--coprime", action="store_true")
    p.set_defaults(run=_cmd_random)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status, payload, code = args.run(args)
    except _Refusal as refusal:
        _emit(args.command, refusal.status, refusal.payload)
        return refusal.code
    except (SpliceError, RecursionError) as exc:
        _emit(args.command, "error", {"error": type(exc).__name__, "message": str(exc)})
        return EXIT_REFUSED
    _emit(args.command, status, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
