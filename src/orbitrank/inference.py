"""Forward-chaining fixpoint engine over annotated ideal-filtration diagrams.

A filtration document lists the subquotients J_1/J_0, ..., J_n/J_{n-1} of an
ideal chain of a C*-algebra, each annotated with the structural attributes
the rank calculus consumes (continuous trace, spectrum dimension, fiber
dimension, ...). The engine tightens per-node and total intervals for the
real rank (rr) and stable rank (tsr) and tracks projection-set facts (gr),
applying the rule set below to a fixpoint. Rules only ever shrink intervals,
so the fixpoint exists, is reached in finitely many sweeps, and is the same
for any fair rule order.

Three-valued guards: an annotation that is unknown never enables a rule.

Rule inventory (ids appear in the trace; R3, R10 and R13, the two-node cases
of R4, R11 and R14, were removed and the other ids kept):

  R0  single-node chain: the total algebra is its unique subquotient
  R1  commutative node, spectrum dimension d known: rr = [d, d]
      (rank of the unitization, a continuous-function algebra on the
      one-point compactification, whose covering dimension is d)
  R2  separable continuous-trace node, infinite-dimensional irreducibles,
      finite-dimensional spectrum: rr <= 1
  R4  chain with all nodes but the last of R2 type: rr(total) = max over nodes
  R5  spectrum sits locally closed in a metric space of known finite
      dimension: the spectrum dimension is finite
  R6  last node commutative with spectrum dimension d: rr(total) >= d
      (the compactified commutative quotient forces the rank up)
  R7  commutative node, spectrum dimension d: tsr = [1+floor(d/2)] exactly
  R8  R2-type node (hence stable): tsr <= 2
  R9  tsr(total) >= tsr of every subquotient (iterated extension bound)
  R11 chain with all nodes but the last of R2 type: tsr(total) <= max(2, tsr(last))
  R12 Hausdorff spectrum with no compact component: gr(node) = zero
  R14 chain with all nodes after the first gr zero: gr(total) = gr(first node)
  R15 liminary special solving series (fiber dims infinite, ..., infinite, 1):
      rr(total) = spectrum dimension of the last node
  R16 gr(total) zero and the algebra nonzero: rr(total) >= 1
  R17 elementary node (the compacts, which are AF): rr = [0, 0], tsr = [1, 1]
      (standard facts, flagged in the trace; disable for purist runs)
  R18 group algebra of a group other than the real line: tsr(total) >= 2
  R19 nonzero index map K1(J_k/J_k-1) -> K0(J_k-1): tsr(J_k) >= 2, so tsr(total) >= 2
"""

from __future__ import annotations

import json
import re
from typing import Iterable, NamedTuple, Sequence

from .invariants import GroupFlags, real_rank
from .liealg import DIM_CAP, LieAlgebra
from .lieio import read_utf8

INFINITE = "infinite"
KINDS = ("continuous_trace", "commutative", "elementary", "generic")
GR_ORDER = {"unknown": 0, "equals_first_ideal": 1, "zero": 2}


def _at(where: int | str, message: str) -> str:
    """A message prefixed with its place: a line number, or a path in a JSON document."""
    return f"line {where}: {message}" if isinstance(where, int) else f"{where}: {message}"


class InvalidFiltration(Exception):
    """A document whose content is refused: a bad name or value, clashing annotations.

    ``node`` and ``key`` name the node and attribute (or flag) at fault, where
    there is one, and ``index`` is the node's position in the document.
    """

    def __init__(self, message: str, node: object = None, key: str | None = None, index: int | None = None):
        super().__init__(message)
        self.node = node
        self.key = key
        self.index = index


class FiltrationParseError(Exception):
    """Malformed document; ``line`` is a line number, or a path in a JSON document."""

    def __init__(self, line: int | str, message: str):
        super().__init__(_at(line, message))
        self.line = line


class Contradiction(Exception):
    """A rule forced an empty interval: the annotations are inconsistent."""

    def __init__(self, target: str, rule: str, lo: int, hi: int):
        super().__init__(f"rule {rule} forces rr/tsr interval [{lo},{hi}] on {target}")
        self.target = target
        self.rule = rule
        self.lo = lo
        self.hi = hi


class NodeAnnotation(NamedTuple):
    kind: str = "generic"
    spectrum_dim: int | None = None
    spectrum_compact: bool | None = None
    irreps_infinite_dim: bool | None = None
    hausdorff_spectrum: bool | None = None
    no_compact_spectrum_component: bool | None = None
    separable: bool | None = None
    fiber_dim: int | str | None = None  # int, INFINITE, or None for unknown
    ambient_dim: int | None = None
    index_to_below: str | None = None  # "zero", "nonzero", or None for unknown


class FiltrationNode(NamedTuple):
    name: str
    ann: NodeAnnotation


class AlgebraFlags(NamedTuple):
    liminary: bool | None = None
    group_derived: bool = False
    is_real_line_group: bool = False


class FiltrationDoc(NamedTuple):
    nodes: tuple[FiltrationNode, ...]
    flags: AlgebraFlags = AlgebraFlags()


# the annotations each kind implies; a node may leave them unknown
KIND_IMPLIES = {
    "elementary": dict(
        irreps_infinite_dim=True,
        spectrum_dim=0,
        spectrum_compact=True,
        hausdorff_spectrum=True,
        separable=True,
        no_compact_spectrum_component=False,
        fiber_dim=INFINITE,
    ),
    "commutative": dict(irreps_infinite_dim=False, hausdorff_spectrum=True, fiber_dim=1),
}
FLAG_KEYS = ("liminary", "group_derived", "real_line")  # AlgebraFlags' fields as documents name them
_NODE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _json_text(value) -> str:
    """A value as JSON text; a container is only named, because one nested
    near the recursion limit would fail to encode, and any other object is
    shown by its repr."""
    if isinstance(value, (list, dict)):
        return "an array" if isinstance(value, list) else "an object"
    if value is None or isinstance(value, (str, int, float)):
        return json.dumps(value)
    return repr(value)


def _attr_problem(node: str, key: str, v) -> str | None:
    """Why an attribute's value is refused, or None if it is not."""
    if key == "kind":
        return None if v in KINDS else f"unknown kind {_json_text(v)}"
    if v is None:
        return None
    if key == "index_to_below":
        return None if v in ("zero", "nonzero") else f"{key} must be zero, nonzero or unknown"
    if key not in ("spectrum_dim", "ambient_dim", "fiber_dim"):
        return None if isinstance(v, bool) else f"{key} must be true, false or unknown"
    if key == "fiber_dim" and v == INFINITE:
        return None
    if type(v) is not int:
        infinite = ", infinite" if key == "fiber_dim" else ""
        return f"{key} must be a natural number{infinite} or unknown"
    low = 1 if key == "fiber_dim" else 0
    return None if low <= v <= DIM_CAP else f"node {node!r}: {key}={v} outside [{low}, {DIM_CAP}]"


def normalize_doc(doc: FiltrationDoc) -> FiltrationDoc:
    """Check a document and fill in the annotations its kinds imply.

    This is the one validator: the parsers only read values, so a document
    built in Python is checked exactly as a parsed one.
    """
    if not doc.nodes:
        raise InvalidFiltration("a filtration needs at least one node")
    nodes: list[FiltrationNode] = []
    seen = set()
    for index, (name, ann) in enumerate(doc.nodes):
        if not (isinstance(name, str) and _NODE_NAME.fullmatch(name)):
            raise InvalidFiltration(f"bad node name {_json_text(name)}", name, None, index)
        if name in seen:
            raise InvalidFiltration(f"duplicate node name {name!r}", name, None, index)
        if name == "total":
            raise InvalidFiltration("'total' is reserved for the whole algebra", name, None, index)
        seen.add(name)
        for key, v in zip(ann._fields, ann):
            problem = _attr_problem(name, key, v)
            if problem:
                raise InvalidFiltration(problem, name, key, index)
        if not nodes and ann.index_to_below == "nonzero":
            raise InvalidFiltration(
                f"node {name!r}: no ideal below the first node", name, "index_to_below", index
            )
        implied = KIND_IMPLIES.get(ann.kind, {})
        for key, value in implied.items():
            current = getattr(ann, key)
            if current not in (None, value):
                raise InvalidFiltration(
                    f"node {name!r}: {key}={current!r} contradicts kind {ann.kind!r}",
                    name,
                    key,
                    index,
                )
        ann = ann._replace(**{key: value for key, value in implied.items() if getattr(ann, key) is None})
        nodes.append(FiltrationNode(name, ann))
    if doc.flags.liminary is not None and not isinstance(doc.flags.liminary, bool):
        raise InvalidFiltration("liminary must be true, false or unknown", None, "liminary")
    for key, v in zip(FLAG_KEYS[1:], doc.flags[1:]):
        if not isinstance(v, bool):
            raise InvalidFiltration(f"flag {key!r} must be true or false, got {_json_text(v)}", None, key)
    return FiltrationDoc(tuple(nodes), doc.flags)


class NodeFacts:
    """One node's facts: rr and tsr as (lo, hi) tuples, hi None when unbounded."""

    __slots__ = ("rr", "tsr", "gr", "spectrum_finite")

    def __init__(self, spectrum_finite: bool = False):
        self.rr, self.tsr, self.gr, self.spectrum_finite = (0, None), (1, None), "unknown", spectrum_finite


class TraceEntry(NamedTuple):
    rule: str
    target: str  # node name or "total"
    fact: str  # "rr" | "tsr" | "gr" | "spectrum_finite"
    old: object
    new: object
    note: str = ""


class FactTable:
    __slots__ = ("nodes", "total", "trace")

    def __init__(self, doc: FiltrationDoc):
        """The table before any rule: nothing known beyond rr >= 0 and tsr >= 1."""
        self.nodes = {node.name: NodeFacts(node.ann.spectrum_dim is not None) for node in doc.nodes}
        self.total, self.trace = NodeFacts(), []

    def facts(self, target: str) -> NodeFacts:
        return self.total if target == "total" else self.nodes[target]

    def rr_interval(self, target: str = "total") -> tuple[int, int | None]:
        return self.facts(target).rr

    def tsr_interval(self, target: str = "total") -> tuple[int, int | None]:
        return self.facts(target).tsr

    def gr_fact(self, target: str = "total") -> str:
        return self.facts(target).gr

    def snapshot(self) -> dict:
        """Facts without the trace, for table comparisons."""
        out = {}
        for name, f in list(self.nodes.items()) + [("total", self.total)]:
            out[name] = (f.rr, f.tsr, f.gr, f.spectrum_finite)
        return out


Proposal = tuple[str, str, object, str]  # target, fact, value, note


def _stable_hyps(ann: NodeAnnotation, facts: NodeFacts) -> bool:
    """Hypotheses shared by R2/R4/R8/R11: separable continuous trace with
    infinite-dimensional irreducibles and finite-dimensional spectrum."""
    return (
        ann.kind in ("continuous_trace", "elementary")
        and ann.separable is True
        and ann.irreps_infinite_dim is True
        and facts.spectrum_finite
    )


def _max_interval(intervals: Iterable[tuple[int, int | None]]) -> tuple[int, int | None]:
    los, his = zip(*intervals)
    return max(los), None if None in his else max(his)


def _rule_r0(doc, table):
    if len(doc.nodes) != 1:
        return
    name = doc.nodes[0].name
    node = table.nodes[name]
    note = "single subquotient is the whole algebra"
    yield ("total", "rr", node.rr, note)
    yield (name, "rr", table.total.rr, note)
    yield ("total", "tsr", node.tsr, note)
    yield (name, "tsr", table.total.tsr, note)
    yield ("total", "gr", node.gr, note)
    yield (name, "gr", table.total.gr, note)


def _rule_r1(doc, table):
    for node in doc.nodes:
        d = node.ann.spectrum_dim
        if node.ann.kind == "commutative" and d is not None:
            yield (node.name, "rr", (d, d), "covering dimension of the compactified spectrum")


def _rule_r2(doc, table):
    for node in doc.nodes:
        if _stable_hyps(node.ann, table.nodes[node.name]):
            yield (node.name, "rr", (None, 1), "")


def _rule_r4(doc, table):
    if all(_stable_hyps(n.ann, table.nodes[n.name]) for n in doc.nodes[:-1]):
        value = _max_interval(table.nodes[n.name].rr for n in doc.nodes)
        yield ("total", "rr", value, "filtration max rule")


def _rule_r5(doc, table):
    for node in doc.nodes:
        facts = table.nodes[node.name]
        if node.ann.ambient_dim is not None and not facts.spectrum_finite:
            yield (
                node.name,
                "spectrum_finite",
                True,
                f"locally closed in a metric space of dimension {node.ann.ambient_dim}",
            )


def _rule_r6(doc, table):
    last = doc.nodes[-1]
    d = last.ann.spectrum_dim
    if last.ann.kind == "commutative" and d is not None:
        yield ("total", "rr", (d, None), "commutative quotient lower bound")


def _rule_r7(doc, table):
    for node in doc.nodes:
        d = node.ann.spectrum_dim
        if node.ann.kind == "commutative" and d is not None:
            s = 1 + d // 2
            yield (node.name, "tsr", (s, s), "")


def _rule_r8(doc, table):
    for node in doc.nodes:
        if _stable_hyps(node.ann, table.nodes[node.name]):
            yield (node.name, "tsr", (None, 2), "stable node")


def _rule_r9(doc, table):
    lo = max(table.nodes[n.name].tsr[0] for n in doc.nodes)
    yield ("total", "tsr", (lo, None), "extension lower bound")


def _rule_r11(doc, table):
    if all(_stable_hyps(n.ann, table.nodes[n.name]) for n in doc.nodes[:-1]):
        hi = table.nodes[doc.nodes[-1].name].tsr[1]
        if hi is not None:
            yield ("total", "tsr", (None, max(2, hi)), "")


def _rule_r12(doc, table):
    for node in doc.nodes:
        ann = node.ann
        if ann.hausdorff_spectrum is True and ann.no_compact_spectrum_component is True:
            yield (node.name, "gr", "zero", "no projections over a noncompact spectrum")


def _rule_r14(doc, table):
    if len(doc.nodes) < 2:
        return
    if all(table.nodes[n.name].gr == "zero" for n in doc.nodes[1:]):
        if table.nodes[doc.nodes[0].name].gr == "zero":
            yield ("total", "gr", "zero", "every subquotient projection-free")
        else:
            yield ("total", "gr", "equals_first_ideal", "")


def _rule_r15(doc, table):
    if doc.flags.liminary is not True:
        return
    fibers = [n.ann.fiber_dim for n in doc.nodes]
    if any(f is None for f in fibers):
        return
    if any(f != INFINITE for f in fibers[:-1]) or fibers[-1] != 1:
        return
    d = doc.nodes[-1].ann.spectrum_dim
    if d is None:
        return
    if d < 1 and len(doc.nodes) > 1:
        return  # the max formula pins the total only when the last term dominates
    yield ("total", "rr", (d, d), "special solving series")


def _rule_r16(doc, table):
    if table.total.gr == "zero":
        yield ("total", "rr", (1, None), "projection-free nonzero algebra")


def _rule_r17(doc, table):
    note = "standard compacts facts (not among the cited rank results)"
    for node in doc.nodes:
        if node.ann.kind == "elementary":
            yield (node.name, "rr", (0, 0), note)
            yield (node.name, "tsr", (1, 1), note)


def _rule_r18(doc, table):
    if doc.flags.group_derived and not doc.flags.is_real_line_group:
        yield ("total", "tsr", (2, None), "group is not the real line")


def _rule_r19(doc, table):
    for node in doc.nodes:
        if node.ann.index_to_below == "nonzero":
            yield ("total", "tsr", (2, None), f"{node.name} has a nonzero index map")


RULES: tuple[tuple[str, object], ...] = (
    ("R0", _rule_r0),
    ("R1", _rule_r1),
    ("R2", _rule_r2),
    ("R4", _rule_r4),
    ("R5", _rule_r5),
    ("R6", _rule_r6),
    ("R7", _rule_r7),
    ("R8", _rule_r8),
    ("R9", _rule_r9),
    ("R11", _rule_r11),
    ("R12", _rule_r12),
    ("R14", _rule_r14),
    ("R15", _rule_r15),
    ("R16", _rule_r16),
    ("R17", _rule_r17),
    ("R18", _rule_r18),
    ("R19", _rule_r19),
)


def _apply(table: FactTable, rule: str, target: str, fact: str, value, note: str) -> bool:
    """Tighten one fact by a rule's proposal; log and report whether it changed."""
    facts = table.facts(target)
    old = getattr(facts, fact)
    if fact in ("rr", "tsr"):  # meet of the intervals; None bounds nothing
        (lo, hi), (old_lo, old_hi) = value, old
        new_lo = old_lo if lo is None else max(old_lo, lo)
        his = [h for h in (old_hi, hi) if h is not None]
        new_hi = min(his) if his else None
        if new_hi is not None and new_lo > new_hi:
            raise Contradiction(target, rule, new_lo, new_hi)
        new = (new_lo, new_hi)
    elif fact == "gr":
        new = max(old, value, key=GR_ORDER.__getitem__)
    else:  # spectrum_finite only ever becomes true
        new = True
    if new == old:
        return False
    setattr(facts, fact, new)
    table.trace.append(TraceEntry(rule, target, fact, old, new, note))
    return True


def infer(doc: FiltrationDoc, use_compacts_facts: bool = True) -> FactTable:
    """Run the rule set to a fixpoint and return the fact table with trace.

    ``use_compacts_facts`` disables R17 when False. The fixpoint does not
    depend on the order of ``RULES``; the trace does.
    """
    doc = normalize_doc(doc)
    rules = [(rid, fn) for rid, fn in RULES if use_compacts_facts or rid != "R17"]
    table = FactTable(doc)
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > (len(doc.nodes) + 1) * (DIM_CAP + 2) * 8:
            raise RuntimeError("fixpoint iteration failed to settle")  # unreachable
        changed = False
        for rid, fn in rules:
            for target, fact, value, note in fn(doc, table):
                if _apply(table, rid, target, fact, value, note):
                    changed = True
        if not changed:
            return table


def replay_trace(doc: FiltrationDoc, trace: Sequence[TraceEntry]) -> FactTable:
    """Apply a logged trace to a fresh initial table (no rule evaluation)."""
    table = FactTable(normalize_doc(doc))
    for entry in trace:
        setattr(table.facts(entry.target), entry.fact, entry.new)
    return table


def derive_group_filtration(L: LieAlgebra, flags: GroupFlags) -> FiltrationDoc:
    """Schematic ideal filtration for the group C*-algebra of an accepted algebra.

    The generic strata of the orbit space form finitely many layers of
    separable continuous-trace algebras with infinite-dimensional
    irreducibles, spectra sitting semi-algebraically (hence locally closed)
    inside the dual space; every rule used here is insensitive to how many
    identically annotated layers there are, so they are collapsed into one
    representative node, omitted entirely for abelian algebras. On top sits
    the commutative character quotient, whose spectrum is a vector space of
    dimension r (the abelianization dimension) with the r-sphere as one-point
    compactification.
    """
    r = real_rank(L, flags)  # validates solvable / exponential / simply connected
    nodes: list[FiltrationNode] = []
    if r < L.dim:
        nodes.append(
            FiltrationNode(
                "strata",
                NodeAnnotation(
                    kind="continuous_trace",
                    separable=True,
                    irreps_infinite_dim=True,
                    hausdorff_spectrum=True,
                    fiber_dim=INFINITE,
                    ambient_dim=L.dim,
                ),
            )
        )
    nodes.append(
        FiltrationNode(
            "characters",
            NodeAnnotation(
                kind="commutative",
                spectrum_dim=r,
                spectrum_compact=False,
                hausdorff_spectrum=True,
                no_compact_spectrum_component=True,
                separable=True,
                fiber_dim=1,
            ),
        )
    )
    return FiltrationDoc(
        nodes=tuple(nodes),
        flags=AlgebraFlags(
            liminary=None,
            group_derived=True,
            is_real_line_group=L.dim == 1,
        ),
    )


# ---------------------------------------------------------------------------
# document formats
#
# Both front ends only split a document into raw records: nodes as
# (where, name, [(where, key, value)]) and flags as [(where, key, value)], each
# value as JSON would hold it. ``where`` is a line number in the text format
# and a path such as ``nodes[2].attrs.kind`` in JSON. _build_doc reads
# "unknown" as None and leaves every other check to normalize_doc.

ATTR_KEYS = NodeAnnotation._fields
_NEVER_UNKNOWN = ("kind", "group_derived", "real_line")
_INTEGER = re.compile(r"-?[0-9]+")


def _checked(records, keys: tuple[str, ...], noun: str) -> dict:
    """Values by key, "unknown" read as None; unknown and repeated keys are refused."""
    values: dict = {}
    for where, key, value in records:
        if key not in keys:
            raise FiltrationParseError(where, f"unknown {noun} {key!r}")
        if key in values:
            raise FiltrationParseError(where, f"{noun} {key!r} set twice")
        values[key] = None if value == "unknown" and key not in _NEVER_UNKNOWN else value
    return values


def _build_doc(nodes_where, nodes, flags) -> FiltrationDoc:
    """Build the document from the raw records of either format and normalize it.

    An error from normalize_doc gets the place of the node, attribute or flag
    at fault; ``nodes_where`` locates the node list, for an empty one.
    """
    places: dict = {(None, None): nodes_where}  # (node index, key) -> where
    places.update(((None, key), where) for where, key, _ in flags)
    built: list[FiltrationNode] = []
    for index, (where, name, attrs) in enumerate(nodes):
        places[index, None] = where
        places.update(((index, key), w) for w, key, _ in attrs)
        built.append(FiltrationNode(name, NodeAnnotation(**_checked(attrs, ATTR_KEYS, "attribute"))))
    flag = _checked(flags, FLAG_KEYS, "flag")
    doc = FiltrationDoc(
        tuple(built),
        AlgebraFlags(flag.get("liminary"), flag.get("group_derived", False), flag.get("real_line", False)),
    )
    try:
        return normalize_doc(doc)
    except InvalidFiltration as exc:
        where = places.get((exc.index, exc.key), places[exc.index, None])
        raise InvalidFiltration(_at(where, str(exc)), exc.node, exc.key, exc.index) from None


def _integer(literal: str) -> int | str:
    """An integer literal's value; one too long for int() stays a string,
    which no key accepts."""
    try:
        return int(literal)
    except ValueError:
        return literal


def _token_value(token: str):
    """The JSON value a text token stands for: a bool, an int or a string."""
    if token in ("true", "false"):
        return token == "true"
    return _integer(token) if _INTEGER.fullmatch(token) else token


def parse_filtration(text: str) -> FiltrationDoc:
    """Parse the line-based filtration format; see the package README."""
    nodes: list = []
    flags: list | None = None
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not header_seen:
            if tokens != ["filtration", "1"]:
                raise FiltrationParseError(lineno, "expected header 'filtration 1'")
            header_seen = True
        elif tokens[0] == "node":
            if len(tokens) != 2:
                raise FiltrationParseError(lineno, "node lines read 'node <name>'")
            nodes.append((lineno, tokens[1], []))
        elif tokens[0] == "attr":
            if not nodes:
                raise FiltrationParseError(lineno, "attr line before any node")
            if len(tokens) != 4 or tokens[2] != "=":
                raise FiltrationParseError(lineno, "attr lines read 'attr <key> = <value>'")
            nodes[-1][2].append((lineno, tokens[1], _token_value(tokens[3])))
        elif tokens[0] == "flags":
            if flags is not None:
                raise FiltrationParseError(lineno, "flags line appears twice")
            flags = []
            for tok in tokens[1:]:
                key, sep, value = tok.partition("=")
                if not sep:
                    raise FiltrationParseError(lineno, f"bad flag {tok!r}")
                flags.append((lineno, key, _token_value(value)))
        else:
            raise FiltrationParseError(lineno, f"unrecognized line {line!r}")
    if not header_seen:
        raise FiltrationParseError(1, "expected header 'filtration 1'")
    return _build_doc(1, nodes, flags or [])


class _JSONObject(dict):
    """A decoded JSON object that also keeps its members in order, repeats included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _members(value, path: str, keys: tuple[str, ...]) -> dict:
    """The members of the JSON object at ``path``: each named in ``keys``, none twice."""
    if not isinstance(value, _JSONObject):
        raise FiltrationParseError(path or "document", f"expected an object with keys {', '.join(keys)}")
    members = {}
    for key, item in value.pairs:
        where = f"{path}.{key}" if path else key
        if key not in keys:
            raise FiltrationParseError(where, f"unknown key {key!r}")
        if key in members:
            raise FiltrationParseError(where, f"duplicate key {key!r}")
        members[key] = item
    return members


def _records(parent: dict, key: str, where: str) -> list:
    """One (where, key, value) record per member of the object ``parent[key]``, if present."""
    value = parent.get(key, _JSONObject([]))
    if not isinstance(value, _JSONObject):
        raise FiltrationParseError(where, "expected an object")
    return [(f"{where}.{k}", k, v) for k, v in value.pairs]


def parse_filtration_json(text: str) -> FiltrationDoc:
    """Parse a JSON document with the text format's keys; see the package README."""
    try:
        data = json.loads(text, object_pairs_hook=_JSONObject, parse_int=_integer)
    except json.JSONDecodeError as exc:
        raise FiltrationParseError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise FiltrationParseError(1, "invalid JSON: nested too deeply") from None
    top = _members(data, "", ("filtration", "nodes", "flags"))
    if top.get("filtration") != 1 or type(top["filtration"]) is not int:
        raise FiltrationParseError("filtration", "the format version must be 1")
    entries = top.get("nodes", [])
    if not isinstance(entries, list):
        raise FiltrationParseError("nodes", "expected a list of node objects")
    nodes = []
    for i, entry in enumerate(entries):
        path = f"nodes[{i}]"
        node = _members(entry, path, ("name", "attrs"))
        nodes.append((f"{path}.name", node.get("name"), _records(node, "attrs", f"{path}.attrs")))
    return _build_doc("nodes", nodes, _records(top, "flags", "flags"))


def load_filtration(path: str) -> FiltrationDoc:
    """Parse a document file, dispatching on the .json extension."""
    text = read_utf8(path, lambda line, column, message: FiltrationParseError(line, message))
    if path.endswith(".json"):
        return parse_filtration_json(text)
    return parse_filtration(text)
