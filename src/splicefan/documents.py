"""JSON document schemas: diagrams, systems, fans, reports.

Weights, exponents and multiplicities travel as JSON integers; every
rational is a "p/q" or integer string so nothing depends on floating JSON
number ranges.  Parsing is strict: unknown keys are rejected, and a system
document spells each polynomial one way.  Within one ``terms`` list no
exponent repeats, no coefficient is zero and no exponent entry is negative;
each minimal-part term is the admissible monomial of its node toward one
edge (``diagram.admissible_edge``), and each edge has exactly one.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .diagram import SpliceDiagram, admissible_edge
from .errors import DocumentError
from .fan import Certificate, CellLocation, Cone2, Ray, SpliceFan
from .system import CoefficientMatrix, Polynomial, SpliceSystem, build_system


def format_rational(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(value) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational {value!r}") from exc
    raise DocumentError(f"bad rational {value!r}")


def format_complex(z) -> list:
    if isinstance(z, (Fraction, int)):
        return [format_rational(z), "0"]
    return [repr(z.real), repr(z.imag)]


def _require_list(value, what):
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be an array")
    return value


def _parse_int(value, what, where):
    """A JSON integer, or a string of decimal digits with an optional sign."""
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"bad {what} {value!r} in {where}")
    return value


def _require_keys(doc, required, optional=(), what="document"):
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be an object")
    keys = set(doc)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise DocumentError(f"{what} misses keys {sorted(missing)}")
    if unknown:
        raise DocumentError(f"{what} has unknown keys {sorted(unknown)}")


# ---------------------------------------------------------------------------
# Diagram documents
# ---------------------------------------------------------------------------

def diagram_to_doc(diagram: SpliceDiagram) -> dict:
    edges = []
    for a, b in diagram.edges():
        entry = {"a": a, "b": b}
        if diagram.is_node(a):
            entry["wa"] = diagram.weight(a, b)
        if diagram.is_node(b):
            entry["wb"] = diagram.weight(b, a)
        edges.append(entry)
    return {
        "leaves": list(diagram.leaves),
        "nodes": list(diagram.nodes),
        "edges": edges,
    }


def diagram_from_doc(doc) -> SpliceDiagram:
    _require_keys(doc, ("leaves", "nodes", "edges"), what="diagram document")
    leaves, nodes = doc["leaves"], doc["nodes"]
    if not isinstance(leaves, list) or not isinstance(nodes, list):
        raise DocumentError("leaves and nodes must be arrays")
    if not all(isinstance(x, str) for x in leaves + nodes):
        raise DocumentError("vertex ids must be strings")
    node_set = set(nodes)
    edges = []
    for entry in _require_list(doc["edges"], "edges"):
        _require_keys(entry, ("a", "b"), ("wa", "wb"), what="edge")
        a, b = entry["a"], entry["b"]
        if not (isinstance(a, str) and isinstance(b, str)):
            raise DocumentError(f"edge endpoints {a!r}, {b!r} must be vertex ids")
        wa = wb = None
        if a in node_set:
            if "wa" not in entry:
                raise DocumentError(f"edge ({a},{b}) misses 'wa' at node {a!r}")
            wa = _parse_int(entry["wa"], "weight", f"edge ({a},{b})")
        elif "wa" in entry:
            raise DocumentError(f"edge ({a},{b}) carries 'wa' at leaf {a!r}")
        if b in node_set:
            if "wb" not in entry:
                raise DocumentError(f"edge ({a},{b}) misses 'wb' at node {b!r}")
            wb = _parse_int(entry["wb"], "weight", f"edge ({a},{b})")
        elif "wb" in entry:
            raise DocumentError(f"edge ({a},{b}) carries 'wb' at leaf {b!r}")
        edges.append((a, b, wa, wb))
    return SpliceDiagram(leaves, nodes, edges)


# ---------------------------------------------------------------------------
# Polynomial and system documents
# ---------------------------------------------------------------------------

def polynomial_to_terms(poly: Polynomial) -> list:
    return [{"c": format_rational(c), "m": list(m)} for m, c in poly.terms]


def terms_to_polynomial(terms, n) -> Polynomial:
    """Strict: a repeated exponent, a zero coefficient or a negative exponent
    entry is refused, so each polynomial has one spelling."""
    out = {}
    for entry in _require_list(terms, "terms"):
        _require_keys(entry, ("c", "m"), what="term")
        m = entry["m"]
        if not isinstance(m, list) or len(m) != n:
            raise DocumentError(f"exponent vector {m!r} has the wrong length")
        exponent = tuple(_parse_int(e, "exponent", f"term {m!r}") for e in m)
        if any(e < 0 for e in exponent):
            raise DocumentError(f"exponent vector {m!r} has a negative entry")
        if exponent in out:
            raise DocumentError(f"exponent vector {m!r} repeats")
        coeff = parse_rational(entry["c"])
        if not coeff:
            raise DocumentError(f"term {m!r} has coefficient 0")
        out[exponent] = coeff
    return Polynomial(out)


def system_to_doc(system: SpliceSystem) -> dict:
    return {
        "diagram": diagram_to_doc(system.diagram),
        "equations": [
            {
                "node": eq.node,
                "index": eq.index,
                "terms": polynomial_to_terms(eq.minimal),
                "tail": polynomial_to_terms(eq.tail),
            }
            for eq in system.equations
        ],
    }


def system_from_doc(doc) -> SpliceSystem:
    _require_keys(doc, ("diagram", "equations"), what="system document")
    diagram = diagram_from_doc(doc["diagram"])
    # rebuild through build_system so every invariant is re-checked; each
    # minimal-part term is placed on the edge it is admissible toward, which
    # gives back the coefficient matrices and the admissible exponents
    coeffs = {}
    tails = {}
    coweights = {}
    by_node = {}
    for entry in _require_list(doc["equations"], "equations"):
        _require_keys(entry, ("node", "index", "terms"), ("tail",), what="equation")
        node, index = entry["node"], entry["index"]
        if not isinstance(node, str) or type(index) is not int:
            raise DocumentError(f"equation ({node!r}, {index!r}) needs a node id and index")
        by_node.setdefault(node, []).append(entry)
    strays = sorted(set(by_node) - set(diagram.nodes))
    if strays:
        raise DocumentError(f"equation at {strays[0]!r}, which is not a node of the diagram")
    for v in diagram.nodes:
        entries = sorted(by_node.get(v, []), key=lambda e: e["index"])
        if [e["index"] for e in entries] != list(range(1, diagram.valency(v) - 1)):
            raise DocumentError(f"equation indices at {v!r} are not 1..valency-2")
        exponents = {}
        columns = []  # per equation: neighbour -> coefficient
        for e in entries:
            column = {}
            for m, c in terms_to_polynomial(e["terms"], diagram.n).terms:
                u = admissible_edge(diagram, v, m)
                if u is None:
                    raise DocumentError(
                        f"term {list(m)} of equation ({v!r}, {e['index']}) is not "
                        f"an admissible monomial at {v!r}"
                    )
                if exponents.setdefault(u, m) != m:
                    raise DocumentError(f"two admissible monomials at ({v!r}, {u!r})")
                column[u] = c
            columns.append(column)
            tail = terms_to_polynomial(e.get("tail", []), diagram.n)
            if tail:
                tails[(v, e["index"])] = tail
        star = diagram.neighbors(v)
        for u in star:
            if u not in exponents:
                raise DocumentError(f"no admissible monomial at ({v!r}, {u!r})")
            coweights[(v, u)] = {leaf: x for leaf, x in zip(diagram.leaves, exponents[u]) if x}
        coeffs[v] = CoefficientMatrix(
            node=v,
            rows=tuple(tuple(col.get(u, Fraction(0)) for col in columns) for u in star),
        )
    return build_system(diagram, coeffs=coeffs, tails=tails, coweights=coweights)


# ---------------------------------------------------------------------------
# Fan documents
# ---------------------------------------------------------------------------

def fan_to_doc(fan: SpliceFan) -> dict:
    return {
        "n": fan.n,
        "rays": [
            {"label": r.label, "vector": list(r.vector)} for r in fan.rays
        ],
        "cones": [
            {"rays": list(c.rays), "multiplicity": c.multiplicity}
            for c in fan.cones
        ],
    }


def fan_from_doc(doc) -> SpliceFan:
    """Strict: a repeated ray label or cone, or a vector of a length other
    than the declared n, is refused."""
    _require_keys(doc, ("n", "rays", "cones"), what="fan document")
    n = _parse_int(doc["n"], "dimension", "fan document")
    rays, labels = [], set()
    for entry in _require_list(doc["rays"], "rays"):
        _require_keys(entry, ("label", "vector"), what="ray")
        label = entry["label"]
        if not isinstance(label, str):
            raise DocumentError(f"ray label {label!r} must be a string")
        if label in labels:
            raise DocumentError(f"ray label {label!r} repeats")
        labels.add(label)
        vector = _require_list(entry["vector"], f"vector of ray {label!r}")
        if len(vector) != n:
            raise DocumentError(f"vector of ray {label!r} does not have length {n}")
        vector = tuple(_parse_int(x, "entry", f"ray {label!r}") for x in vector)
        rays.append(Ray(label, vector))
    cones, pairs = [], set()
    for entry in _require_list(doc["cones"], "cones"):
        _require_keys(entry, ("rays", "multiplicity"), what="cone")
        pair = entry["rays"]
        if not (
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, str) for x in pair) and pair[0] != pair[1]
        ):
            raise DocumentError(f"cone {pair!r} must have two rays")
        if frozenset(pair) in pairs:
            raise DocumentError(f"cone {pair!r} repeats")
        pairs.add(frozenset(pair))
        m = _parse_int(entry["multiplicity"], "multiplicity", f"cone {pair!r}")
        cones.append(Cone2(tuple(pair), m))
    return SpliceFan(rays, cones)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def cell_to_doc(cell: CellLocation) -> dict:
    out = {"kind": cell.kind}
    if cell.kind == "on_ray":
        out["ray"] = cell.label
        out["coeff"] = format_rational(cell.coeffs[0])
    elif cell.kind == "in_cone":
        out["cone"] = list(cell.label)
        out["coeffs"] = [format_rational(c) for c in cell.coeffs]
    return out


def certificate_to_doc(cert: Certificate) -> dict:
    return {
        "node": cert.node,
        "edge": list(cert.edge),
        "monomial": list(cert.monomial),
        "values": {k: format_rational(v) for k, v in cert.values.items()},
        "coefficients": [format_rational(c) for c in cert.coefficients],
        "truncated": list(cert.truncated),
    }


def endcurve_report(curve, binomials) -> dict:
    return {
        "root": curve.root,
        "exponents": list(curve.exponents),
        "g": curve.g,
        "binomials": [
            {
                "node": rel.node,
                "terms": polynomial_to_terms(rel.polynomial()),
            }
            for rel in binomials.relations
        ],
        "components": [
            {"coeffs": [format_complex(c) for c in comp]}
            for comp in curve.components
        ],
    }
