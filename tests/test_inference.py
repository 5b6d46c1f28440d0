import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from helpers import render_filtration_json, render_filtration_text, with_subsumed_rules
from orbitrank import inference, report
from orbitrank.catalog import abelian, axb, direct_sum, filiform, grelaud, heisenberg
from orbitrank.inference import (
    INFINITE,
    AlgebraFlags,
    Contradiction,
    FiltrationDoc,
    FiltrationNode,
    FiltrationParseError,
    InvalidFiltration,
    NodeAnnotation,
    derive_group_filtration,
    infer,
    normalize_doc,
    parse_filtration,
    parse_filtration_json,
    replay_trace,
)
from orbitrank.invariants import GroupFlags, real_rank, stable_rank
from orbitrank.liealg import exponentiality_check
from orbitrank.report import analyze_algebra

def load(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return fh.read()


def single_commutative(dim, compact=True, no_compact_component=None):
    return FiltrationDoc(
        nodes=(
            FiltrationNode(
                "only",
                NodeAnnotation(
                    kind="commutative",
                    spectrum_dim=dim,
                    spectrum_compact=compact,
                    no_compact_spectrum_component=no_compact_component,
                ),
            ),
        ),
    )


def screen_flags(L):
    return GroupFlags(exponentiality=exponentiality_check(L, seed=0, trials=50))


class TestEngineBasics:
    def test_single_point_spectrum(self):
        table = infer(single_commutative(0))
        assert table.rr_interval() == (0, 0)
        assert table.tsr_interval() == (1, 1)

    def test_single_commutative_dim2(self):
        table = infer(single_commutative(2))
        assert table.rr_interval() == (2, 2)
        assert table.tsr_interval() == (2, 2)

    def test_unknown_attributes_block_rules(self):
        doc = FiltrationDoc(nodes=(FiltrationNode("n", NodeAnnotation(kind="generic")),))
        table = infer(doc)
        assert table.rr_interval() == (0, None)
        assert table.tsr_interval() == (1, None)
        assert table.gr_fact() == "unknown"

    def test_axb_fixture(self):
        table = infer(parse_filtration(load("axb.filt")))
        assert table.rr_interval() == (1, 1)
        assert table.tsr_interval() == (2, 2)
        assert table.gr_fact() == "equals_first_ideal"

    def test_toeplitz_fixture(self):
        table = infer(parse_filtration(load("toeplitz.filt")))
        assert table.rr_interval() == (1, 1)
        assert table.tsr_interval() == (2, 2)
        assert table.gr_fact() == "unknown"  # the circle is compact, R12 must not fire
        flagged = [e for e in table.trace if e.rule == "R17"]
        assert flagged and all("standard compacts" in e.note for e in flagged)
        assert table.tsr_interval("compact_ideal") == (1, 1)
        # the stable rank 2 comes from the shift's index, not from the compacts
        assert [e.new for e in table.trace if e.rule == "R19"] == [(2, 2)]

    def test_special_solving_series_fixture(self):
        table = infer(parse_filtration(load("nilpotent_special.filt")))
        assert table.rr_interval() == (3, 3)
        assert any(e.rule == "R15" for e in table.trace)

    def test_r15_needs_liminary(self):
        text = load("nilpotent_special.filt").replace("liminary=true", "liminary=unknown")
        table = infer(parse_filtration(text))
        assert not any(e.rule == "R15" for e in table.trace)
        assert table.rr_interval() == (3, None)

    def test_compacts_rule_can_be_disabled(self):
        doc = parse_filtration(load("toeplitz.filt"))
        table = infer(doc, use_compacts_facts=False)
        assert not any(e.rule == "R17" for e in table.trace)
        # the total needs neither compacts fact: R19 and R11 close tsr, R2 and R4 rr
        assert table.tsr_interval() == (2, 2)
        assert table.rr_interval() == (1, 1)
        assert table.tsr_interval("compact_ideal") == (1, 2)  # only R8's bound

    def test_contradiction_on_inconsistent_annotations(self):
        # dim-0 compactified spectrum forces rr = 0, while a projection-free
        # verdict (dishonest here) forces rr >= 1
        doc = single_commutative(0, compact=False, no_compact_component=True)
        with pytest.raises(Contradiction) as exc:
            infer(doc)
        assert exc.value.target in ("total", "only")

    def test_r18_line_guard(self):
        doc = FiltrationDoc(
            nodes=(FiltrationNode("c", NodeAnnotation(kind="commutative", spectrum_dim=1)),),
            flags=AlgebraFlags(group_derived=True, is_real_line_group=True),
        )
        assert infer(doc).tsr_interval() == (1, 1)
        doc2 = FiltrationDoc(
            nodes=(FiltrationNode("c", NodeAnnotation(kind="commutative", spectrum_dim=2)),),
            flags=AlgebraFlags(group_derived=True, is_real_line_group=False),
        )
        assert infer(doc2).tsr_interval() == (2, 2)

    def test_r5_ambient_dim_feeds_r2(self):
        doc = FiltrationDoc(
            nodes=(
                FiltrationNode(
                    "stratum",
                    NodeAnnotation(
                        kind="continuous_trace",
                        separable=True,
                        irreps_infinite_dim=True,
                        ambient_dim=5,
                    ),
                ),
                FiltrationNode("top", NodeAnnotation(kind="commutative", spectrum_dim=2)),
            ),
        )
        table = infer(doc)
        assert any(e.rule == "R5" for e in table.trace)
        assert table.rr_interval("stratum") == (0, 1)
        assert table.rr_interval() == (2, 2)

    def test_r12_r14_chain(self):
        nodes = [FiltrationNode("first", NodeAnnotation(kind="generic"))]
        for i in range(3):
            nodes.append(
                FiltrationNode(
                    f"layer{i}",
                    NodeAnnotation(
                        kind="continuous_trace",
                        hausdorff_spectrum=True,
                        no_compact_spectrum_component=True,
                    ),
                )
            )
        table = infer(FiltrationDoc(nodes=tuple(nodes)))
        assert table.gr_fact() == "equals_first_ideal"
        for i in range(3):
            assert table.gr_fact(f"layer{i}") == "zero"

    def test_gr_zero_all_the_way_forces_rr_positive(self):
        doc = single_commutative(3, compact=False, no_compact_component=True)
        table = infer(doc)
        assert table.gr_fact() == "zero"
        assert table.rr_interval() == (3, 3)
        # with no dimension data, R16 is the only source of the lower bound
        bare = FiltrationDoc(
            nodes=(
                FiltrationNode(
                    "n",
                    NodeAnnotation(
                        kind="generic",
                        hausdorff_spectrum=True,
                        no_compact_spectrum_component=True,
                    ),
                ),
            )
        )
        table2 = infer(bare)
        assert table2.gr_fact() == "zero"
        assert any(e.rule == "R16" for e in table2.trace)
        assert table2.rr_interval() == (1, None)


# C*-algebras with known (rr, tsr): K, C(T), C_0(R^d) = C(S^d) minus a point,
# the Toeplitz algebra and C*(ax+b)
KNOWN_RANKS = {
    "compacts": (FiltrationDoc(nodes=(FiltrationNode("k", NodeAnnotation(kind="elementary")),)), (0, 1)),
    "circle": (single_commutative(1), (1, 1)),
    **{
        f"euclidean_{d}": (single_commutative(d, compact=False, no_compact_component=True), (d, d // 2 + 1))
        for d in (1, 2, 3)
    },
    "toeplitz": (parse_filtration(load("toeplitz.filt")), (1, 2)),
    "axb": (parse_filtration(load("axb.filt")), (1, 2)),
}


@pytest.mark.parametrize("compacts_facts", [True, False], ids=["R17_on", "R17_off"])
@pytest.mark.parametrize("name", sorted(KNOWN_RANKS))
def test_intervals_contain_known_ranks(name, compacts_facts):
    doc, truth = KNOWN_RANKS[name]
    table = infer(doc, use_compacts_facts=compacts_facts)
    for (lo, hi), value in zip((table.rr_interval(), table.tsr_interval()), truth):
        assert lo <= value and (hi is None or value <= hi)


def test_compacts_have_stable_rank_one():
    """K is AF, so tsr(K) = 1 (Rieffel 1983); rr(K) = 0 (Brown-Pedersen 1991)."""
    table = infer(KNOWN_RANKS["compacts"][0])
    assert table.rr_interval() == (0, 0)
    assert table.tsr_interval() == (1, 1)


class TestFixpointContracts:
    def docs(self):
        yield parse_filtration(load("axb.filt"))
        yield parse_filtration(load("toeplitz.filt"))
        yield parse_filtration(load("nilpotent_special.filt"))
        yield single_commutative(2)

    def test_confluence_under_reversed_rule_order(self):
        for doc in self.docs():
            forward = infer(doc)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(inference, "RULES", inference.RULES[::-1])
                backward = infer(doc)
            assert forward.snapshot() == backward.snapshot()

    def test_trace_replay_reproduces_table(self):
        for doc in self.docs():
            table = infer(doc)
            replayed = replay_trace(doc, table.trace)
            assert replayed.snapshot() == table.snapshot()

    def test_rules_only_tighten(self):
        for doc in self.docs():
            table = infer(doc)
            for entry in table.trace:
                if entry.fact in ("rr", "tsr"):
                    old_lo, old_hi = entry.old
                    new_lo, new_hi = entry.new
                    assert new_lo >= old_lo
                    if old_hi is not None:
                        assert new_hi is not None and new_hi <= old_hi


_UNKNOWN_BOOL = st.sampled_from([None, True, False])
_SMALL_DIM = st.sampled_from([None, 0, 1, 2, 3])
# fields each kind fixes; left unknown here so that normalization fills them
_IMPLIED = {
    "elementary": dict(
        irreps_infinite_dim=None, spectrum_dim=None, spectrum_compact=None,
        hausdorff_spectrum=None, separable=None, no_compact_spectrum_component=None,
        fiber_dim=None,
    ),
    "commutative": dict(irreps_infinite_dim=None, hausdorff_spectrum=None, fiber_dim=None),
}

_annotations = st.builds(
    NodeAnnotation,
    kind=st.sampled_from(inference.KINDS),
    spectrum_dim=_SMALL_DIM,
    spectrum_compact=_UNKNOWN_BOOL,
    irreps_infinite_dim=_UNKNOWN_BOOL,
    hausdorff_spectrum=_UNKNOWN_BOOL,
    no_compact_spectrum_component=_UNKNOWN_BOOL,
    separable=_UNKNOWN_BOOL,
    fiber_dim=st.sampled_from([None, 1, 2, INFINITE]),
    ambient_dim=_SMALL_DIM,
    index_to_below=st.sampled_from([None, "zero", "nonzero"]),
).map(lambda ann: ann._replace(**_IMPLIED.get(ann.kind, {})))

_documents = st.builds(
    lambda anns, flags: FiltrationDoc(
        tuple(FiltrationNode(f"n{i}", ann) for i, ann in enumerate(anns)), flags
    ),
    # an even spread of node counts: the subsumed rules fire only on two nodes
    st.integers(1, 3).flatmap(lambda n: st.lists(_annotations, min_size=n, max_size=n)),
    st.builds(
        AlgebraFlags,
        liminary=_UNKNOWN_BOOL,
        group_derived=st.booleans(),
        is_real_line_group=st.booleans(),
    ),
)

# Values a document built in Python may hold by mistake: strings for booleans
# and for dimensions, booleans for dimensions, an empty string for the index
# map, names the formats or normalize_doc refuse, and flags that are not bools.
_BOOL_KEYS = (
    "spectrum_compact", "irreps_infinite_dim", "hausdorff_spectrum",
    "no_compact_spectrum_component", "separable",
)
_WRONG_ATTRS = (
    [(key, value) for key in _BOOL_KEYS for value in ("yes", "false")]
    + [(key, value) for key in ("spectrum_dim", "ambient_dim", "fiber_dim") for value in ("3", True)]
    + [("index_to_below", "")]
)
_WRONG_NAMES = ["n0", "total", "a b", "", "9x", "\u00e9"]  # "n0" clashes unless on the first node
_WRONG_FLAGS = [("liminary", "no")] + [
    (key, value) for key in ("group_derived", "is_real_line_group") for value in ("no", None)
]


@st.composite
def _spoiled_documents(draw):
    """A document from ``_documents`` with one name, attribute or flag made wrong."""
    doc = draw(_documents)
    place = draw(st.sampled_from(["name", "attr", "flag"]))
    if place == "flag":
        key, value = draw(st.sampled_from(_WRONG_FLAGS))
        return doc._replace(flags=doc.flags._replace(**{key: value}))
    i = draw(st.integers(0, len(doc.nodes) - 1))
    name, ann = doc.nodes[i]
    if place == "name":
        node = FiltrationNode(draw(st.sampled_from(_WRONG_NAMES)), ann)
    else:
        key, value = draw(st.sampled_from(_WRONG_ATTRS))
        node = FiltrationNode(name, ann._replace(**{key: value}))
    return doc._replace(nodes=doc.nodes[:i] + (node,) + doc.nodes[i + 1 :])


def _fixpoint(doc):
    try:
        return infer(doc).snapshot()
    except Contradiction:
        return "contradiction"
    except InvalidFiltration:  # index_to_below=nonzero on the first node
        return "invalid"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_documents)
def test_subsumed_rules_change_no_fixpoint(doc):
    """R3, R10 and R13 were the two-node cases of R4, R11 and R14: putting
    them back changes no fixpoint (nor whether one exists) on 500 sampled
    1-, 2- and 3-node documents."""
    without = _fixpoint(doc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "RULES", with_subsumed_rules(inference.RULES))
        restored = _fixpoint(doc)
    assert restored == without


def _loaded(load, source):
    try:
        return load(source)
    except (FiltrationParseError, InvalidFiltration) as exc:
        return type(exc)


def _text_fidelity(doc) -> str:
    """How the text format carries a document: "plain" if every name and
    value reads back as itself, "unwritable" if a string is not one token,
    and otherwise "ambiguous" (the string "3" prints exactly like the int 3,
    and an unknown two-valued flag like the word ``unknown``)."""
    values = [n.name for n in doc.nodes] + [v for n in doc.nodes for v in n.ann] + list(doc.flags)
    strings = [v for v in values if isinstance(v, str)]
    if not all(re.fullmatch(r"[^\s#]+", v) for v in strings):
        return "unwritable"
    if None in doc.flags[1:] or any(re.fullmatch(r"-?[0-9]+|true|false|unknown", v) for v in strings):
        return "ambiguous"
    return "plain"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(_documents, _spoiled_documents()))
def test_text_and_json_load_the_same_document(doc):
    """Rendered in either format, a document loads to normalize_doc(doc), or
    is refused with the error class normalize_doc raises; half the documents
    hold one wrong name, value or flag. The text format is compared only
    where it prints the document unambiguously, and refuses a string that is
    not one token. infer on the document returns, or raises InvalidFiltration
    exactly when normalize_doc does, or Contradiction."""
    expected = _loaded(normalize_doc, doc)
    assert _loaded(parse_filtration_json, render_filtration_json(doc)) == expected
    fidelity = _text_fidelity(doc)
    if fidelity != "ambiguous":
        text_expected = FiltrationParseError if fidelity == "unwritable" else expected
        assert _loaded(parse_filtration, render_filtration_text(doc)) == text_expected
    try:
        outcome = infer(doc)
    except (InvalidFiltration, Contradiction) as exc:
        outcome = type(exc)
    assert (outcome is InvalidFiltration) == (expected is InvalidFiltration)


@pytest.mark.parametrize(
    "ann,flags,node,key",
    [
        (NodeAnnotation(kind="commutative", spectrum_dim="3"), AlgebraFlags(), "only", "spectrum_dim"),
        (NodeAnnotation(kind="commutative", spectrum_dim=True), AlgebraFlags(), "only", "spectrum_dim"),
        (NodeAnnotation(kind="elementary"), AlgebraFlags(group_derived="no"), None, "group_derived"),
        (NodeAnnotation(index_to_below=""), AlgebraFlags(), "only", "index_to_below"),
        (NodeAnnotation(spectrum_compact="yes"), AlgebraFlags(), "only", "spectrum_compact"),
    ],
    ids=["dim_string", "dim_bool", "flag_string", "index_empty", "bool_string"],
)
def test_documents_built_in_python_are_checked(ann, flags, node, key):
    """A wrongly typed value gives InvalidFiltration naming its node and key,
    not a TypeError, a Contradiction or a silently accepted document."""
    doc = FiltrationDoc((FiltrationNode("only", ann),), flags)
    for run in (normalize_doc, infer):
        with pytest.raises(InvalidFiltration) as exc:
            run(doc)
        assert (exc.value.node, exc.value.key) == (node, key)


_RULE_IDS = [rid for rid, _ in inference.RULES]
TRUE_RANKS = {
    **KNOWN_RANKS,
    "nilpotent_special": (parse_filtration(load("nilpotent_special.filt")), (3, 2)),
}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(TRUE_RANKS)), st.permutations(_RULE_IDS), st.sets(st.sampled_from(_RULE_IDS)))
def test_any_rule_order_and_subset_keeps_the_true_ranks(name, order, disabled):
    """The rules are sound one by one: in any order and with any subset
    switched off, every total rr and tsr interval contains the true rank of
    each document with known ranks, and no rule meets a Contradiction."""
    doc, truth = TRUE_RANKS[name]
    rules = dict(inference.RULES)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "RULES", tuple((rid, rules[rid]) for rid in order if rid not in disabled))
        table = infer(doc)
    for (lo, hi), value in zip((table.rr_interval(), table.tsr_interval()), truth):
        assert lo <= value and (hi is None or value <= hi)


@pytest.mark.parametrize("L", [axb(), heisenberg(1), abelian(3)], ids=["axb", "heisenberg_1", "abelian_3"])
def test_agreement_catches_a_wrong_stable_rank(monkeypatch, L):
    """The tsr half of ``inference.agreement`` does not re-read the closed form:
    with stable_rank one too high, the cross-check fails. (Its rr half does
    re-read real_rank through the characters node, so it could not catch a
    wrong real_rank.)"""
    assert analyze_algebra(L, samples=5)[0]["inference"]["agreement"] is True
    monkeypatch.setattr(report, "stable_rank", lambda L, flags: stable_rank(L, flags) + 1)
    assert analyze_algebra(L, samples=5)[0]["inference"]["agreement"] is False


class TestDeriveGroupFiltration:
    def test_abelian_single_node(self):
        L = abelian(2)
        doc = derive_group_filtration(L, screen_flags(L))
        assert len(doc.nodes) == 1
        assert doc.nodes[0].ann.kind == "commutative"
        assert doc.nodes[0].ann.spectrum_dim == 2
        assert doc.flags.group_derived and not doc.flags.is_real_line_group

    def test_axb_two_nodes(self):
        L = axb()
        doc = derive_group_filtration(L, screen_flags(L))
        assert len(doc.nodes) == 2
        assert doc.nodes[0].ann.kind == "continuous_trace"
        assert doc.nodes[0].ann.spectrum_dim is None
        assert doc.nodes[0].ann.ambient_dim == 2
        assert doc.nodes[-1].ann.spectrum_dim == 1

    def test_heisenberg_top_dim(self):
        L = heisenberg(1)
        doc = derive_group_filtration(L, screen_flags(L))
        assert len(doc.nodes) == 2
        assert doc.nodes[-1].ann.spectrum_dim == 2

    def test_real_line_flag(self):
        L = abelian(1)
        doc = derive_group_filtration(L, screen_flags(L))
        assert doc.flags.is_real_line_group

    def test_cross_check_closed_forms(self):
        algebras = [
            abelian(1), abelian(3), axb(), heisenberg(1), heisenberg(2),
            filiform(4), grelaud(1), direct_sum(axb(), axb()),
        ]
        for L in algebras:
            flags = screen_flags(L)
            r, s = real_rank(L, flags), stable_rank(L, flags)
            table = infer(derive_group_filtration(L, flags))
            assert table.rr_interval() == (r, r)
            assert table.tsr_interval() == (s, s)

    def test_gr_matches_projection_theorem(self):
        L = axb()
        table = infer(derive_group_filtration(L, screen_flags(L)))
        assert table.gr_fact() == "equals_first_ideal"


class TestDocValidation:
    def test_empty_rejected(self):
        with pytest.raises(InvalidFiltration):
            normalize_doc(FiltrationDoc(nodes=()))

    def test_duplicate_names_rejected(self):
        doc = FiltrationDoc(
            nodes=(
                FiltrationNode("a", NodeAnnotation()),
                FiltrationNode("a", NodeAnnotation()),
            )
        )
        with pytest.raises(InvalidFiltration):
            normalize_doc(doc)

    def test_elementary_implications(self):
        doc = normalize_doc(
            FiltrationDoc(nodes=(FiltrationNode("k", NodeAnnotation(kind="elementary")),))
        )
        ann = doc.nodes[0].ann
        assert ann.irreps_infinite_dim is True
        assert ann.spectrum_dim == 0
        assert ann.no_compact_spectrum_component is False

    def test_elementary_conflict_rejected(self):
        doc = FiltrationDoc(
            nodes=(
                FiltrationNode(
                    "k", NodeAnnotation(kind="elementary", irreps_infinite_dim=False)
                ),
            )
        )
        with pytest.raises(InvalidFiltration):
            normalize_doc(doc)

    def test_commutative_conflict_rejected(self):
        doc = FiltrationDoc(
            nodes=(
                FiltrationNode(
                    "c", NodeAnnotation(kind="commutative", irreps_infinite_dim=True)
                ),
            )
        )
        with pytest.raises(InvalidFiltration):
            normalize_doc(doc)

    def test_dim_cap(self):
        doc = FiltrationDoc(
            nodes=(FiltrationNode("c", NodeAnnotation(kind="commutative", spectrum_dim=65)),)
        )
        with pytest.raises(InvalidFiltration):
            normalize_doc(doc)


class TestParsing:
    def test_parse_round_trip_semantics(self):
        doc = parse_filtration(load("axb.filt"))
        assert [n.name for n in doc.nodes] == ["open_orbit_ideal", "characters"]
        assert doc.nodes[0].ann.spectrum_dim == 0
        assert doc.flags.group_derived is True
        assert doc.flags.liminary is False

    def test_parser_is_structural_only(self):
        # contradictory annotations parse fine; infer raises
        text = (
            "filtration 1\n"
            "node only\n"
            "attr kind = commutative\n"
            "attr spectrum_dim = 0\n"
            "attr spectrum_compact = false\n"
            "attr no_compact_spectrum_component = true\n"
        )
        doc = parse_filtration(text)
        with pytest.raises(Contradiction):
            infer(doc)

    def test_syntax_error_line_numbers(self):
        with pytest.raises(FiltrationParseError) as exc:
            parse_filtration("filtration 1\nnode a\nattr bogus = true\n")
        assert exc.value.line == 3
        with pytest.raises(FiltrationParseError) as exc:
            parse_filtration("not a header\n")
        assert exc.value.line == 1

    def test_duplicate_node_name(self):
        text = "filtration 1\nnode a\nnode a\n"
        with pytest.raises(InvalidFiltration, match="^line 3: duplicate node name 'a'$"):
            parse_filtration(text)

    def test_empty_node_list(self):
        with pytest.raises(InvalidFiltration, match="^line 1: a filtration needs at least one node$"):
            parse_filtration("filtration 1\n")

    def test_attr_before_node(self):
        with pytest.raises(FiltrationParseError):
            parse_filtration("filtration 1\nattr kind = generic\n")

    def test_fiber_infinite_only(self):
        with pytest.raises(InvalidFiltration, match="^line 3: spectrum_dim must be a natural number or unknown$"):
            parse_filtration("filtration 1\nnode a\nattr spectrum_dim = infinite\n")

    def test_index_to_below_values(self):
        with pytest.raises(InvalidFiltration, match="^line 4: index_to_below must be zero, nonzero or unknown$"):
            parse_filtration("filtration 1\nnode a\nnode b\nattr index_to_below = -1\n")
        doc = parse_filtration("filtration 1\nnode a\nattr index_to_below = zero\nnode b\nattr index_to_below = unknown\n")
        assert [n.ann.index_to_below for n in doc.nodes] == ["zero", None]

    def test_json_equivalent(self):
        text = load("toeplitz.filt")
        doc = parse_filtration(text)
        json_text = """
        {"filtration": 1,
         "nodes": [
           {"name": "compact_ideal", "attrs": {"kind": "elementary"}},
           {"name": "circle_symbols",
            "attrs": {"kind": "commutative", "spectrum_dim": 1,
                      "spectrum_compact": true,
                      "no_compact_spectrum_component": false,
                      "separable": true,
                      "index_to_below": "nonzero"}}],
         "flags": {"liminary": false}}
        """
        jdoc = parse_filtration_json(json_text)
        assert jdoc == doc
        assert infer(jdoc).snapshot() == infer(doc).snapshot()

    def test_json_rejects_bad_values(self):
        with pytest.raises(InvalidFiltration, match="^nodes\\[0\\]\\.attrs\\.separable: separable must be true, false or unknown$"):
            parse_filtration_json('{"filtration": 1, "nodes": [{"name": "a", "attrs": {"separable": 3}}]}')
        with pytest.raises(FiltrationParseError):
            parse_filtration_json('{"filtration": 2, "nodes": []}')

    def test_infinite_fiber_round_trip(self):
        text = "filtration 1\nnode a\nattr fiber_dim = infinite\n"
        doc = parse_filtration(text)
        assert doc.nodes[0].ann.fiber_dim == INFINITE
