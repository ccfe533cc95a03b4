from __future__ import annotations

import json
import re
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procsem import (
    ArityError,
    Dfg,
    EmptyLabelError,
    Footprint,
    Leaf,
    OpKind,
    Operator,
    ProcessModel,
    Rejection,
    Relation,
    Silent,
    dfg_of_model,
    eventually_follows,
    footprint_of_model,
    gen_asad,
    gen_sdfd,
    gen_snap,
    gen_sptd,
    gen_tsad,
    language,
    leaf,
    loop,
    normalize_label,
    par,
    playout,
    read_corpus,
    render_tree,
    seq,
    tau,
    validate_corpus,
    write_corpus,
    xor,
)
from procsem import core
from procsem.core import collapse_whitespace, fold_tree, tree_labels
from procsem.semantics import tree_relations
from procsem.tree_dsl import MAX_DEPTH

from conftest import ORACLE_MIRROR, oracle_collapse_whitespace, oracle_footprint


class TestNormalizeLabel:
    def test_trims_and_collapses_whitespace(self):
        assert normalize_label("  create   order \t") == "create order"

    def test_preserves_case(self):
        assert normalize_label("Create Order") == "Create Order"

    def test_empty_raises(self):
        with pytest.raises(EmptyLabelError):
            normalize_label("   ")

    def test_newlines_collapse(self):
        assert normalize_label("a\nb") == "a b"

    def test_whitespace_rule_matches_regex_on_every_code_point(self):
        # Every character that either rule counts as whitespace, at the
        # ends, alone and in runs, next to ordinary text.
        ws = re.compile(r"\s")
        spaces = [
            ch
            for ch in map(chr, range(sys.maxunicode + 1))
            if ch.isspace() or ws.match(ch)
        ]
        assert len(spaces) > 20
        for ch in spaces:
            for text in (ch, f"{ch}a{ch}{ch}b{ch}", f"a{ch} {ch}b", f"\x00{ch}\x00"):
                assert collapse_whitespace(text) == oracle_collapse_whitespace(text), (
                    hex(ord(ch))
                )

    @given(st.text(alphabet=st.sampled_from(" a\t\n\x1c\x85\xa0\u2028\u3000\u200b²")))
    @settings(max_examples=200, deadline=None)
    def test_whitespace_rule_matches_regex_on_mixed_text(self, text):
        assert collapse_whitespace(text) == oracle_collapse_whitespace(text)


class TestTreeNodes:
    def test_builders(self):
        tree = seq(leaf("a"), xor(leaf("b"), tau()))
        assert isinstance(tree, Operator)
        assert tree.kind is OpKind.SEQ
        assert tree.children[1].children[1] == Silent()

    def test_empty_leaf_label_raises(self):
        with pytest.raises(EmptyLabelError):
            Leaf("")

    @given(st.one_of(st.text(max_size=8), st.text(alphabet=" a\t\n\x85\u3000", max_size=8)))
    @settings(max_examples=200, deadline=None)
    def test_leaf_normalizes_its_label(self, raw):
        if not raw or raw.isspace():
            with pytest.raises(EmptyLabelError):
                Leaf(raw)
        else:
            assert Leaf(raw) == Leaf(normalize_label(raw))
            assert Leaf(raw).label == normalize_label(raw)

    def test_loop_requires_two_children(self):
        with pytest.raises(ArityError):
            loop(leaf("a"))
        assert loop(leaf("a"), leaf("b")).kind is OpKind.LOOP

    def test_other_operators_require_one_child(self):
        with pytest.raises(ArityError):
            Operator(OpKind.SEQ, ())
        assert seq(leaf("a")).children == (Leaf("a"),)

    def test_equality_is_structural(self):
        assert seq(leaf("a"), leaf("b")) == seq(leaf("a"), leaf("b"))
        assert seq(leaf("a"), leaf("b")) != seq(leaf("b"), leaf("a"))

    def test_nodes_are_hashable(self):
        assert len({par(leaf("a"), leaf("b")), par(leaf("a"), leaf("b"))}) == 1


def _deep_tree(operators: int) -> tuple[Operator, str]:
    """A tree whose leaves 'a' and 'b' sit under `operators` nested
    operators, cycling through ->, X and + with a tau sibling on each level,
    and its canonical text."""
    tree, text = seq(leaf("a"), leaf("b")), "->('a', 'b')"
    for i in range(operators - 1):
        tree = (seq, xor, par)[i % 3](tree, tau())
        text = f"{('->', 'X', '+')[i % 3]}({text}, tau)"
    return tree, text


class TestFoldTree:
    def test_children_fold_left_to_right(self):
        tree = seq(leaf("a"), xor(leaf("b"), tau()), loop(leaf("c"), leaf("d")))
        folded = fold_tree(tree, str.upper, "-", lambda kind, parts: f"{kind.name}{parts}")
        assert folded == "SEQ['A', \"XOR['B', '-']\", \"LOOP['C', 'D']\"]"
        assert fold_tree(leaf("a"), str.upper, "-", None) == "A"
        assert fold_tree(tau(), str.upper, "-", None) == "-"

    def test_a_deep_code_built_tree_passes_every_entry_point(self, tmp_path):
        # Far deeper than the recursion limit allows a recursive walk. The
        # tree's own ==, hash and repr still recurse, so none is used here.
        tree, text = _deep_tree(3_000)
        assert tree_labels(tree) == ["a", "b"]
        assert render_tree(tree) == text
        assert language(tree) == {(), ("a", "b")}
        relations = tree_relations(tree)
        assert relations.nullable and relations.df == relations.ef == {("a", "b")}
        assert dfg_of_model(tree).edges == eventually_follows(tree) == {("a", "b")}
        model = playout(tree, model_id="deep")
        assert model.sequences == {(), ("a", "b")}
        assert footprint_of_model(model).relation("a", "b") is Relation.FORWARD
        report = validate_corpus([ProcessModel("deep", tree)])
        assert report.rejected == () and [m.model_id for m in report.admitted] == ["deep"]
        admitted = report.admitted[0]
        assert {r.label for r in gen_tsad(admitted, seed=0)} <= {"Valid", "Anomalous"}
        assert {r.pair for r in gen_asad(admitted, seed=0) if r.label == "Valid"} == {
            ("a", "b")
        }
        assert [(r.prefix, r.next_activity) for r in gen_snap(admitted)] == [(("a",), "b")]
        assert gen_sdfd(admitted).edges == (("a", "b"),)
        assert gen_sptd(admitted).tree_text == text
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, [admitted])
        assert json.loads(corpus.read_text("utf-8")) == {"model_id": "deep", "tree": text}
        # Text this deep is refused by the parser, which alone recurses.
        [row] = read_corpus(corpus)
        assert isinstance(row, Rejection)
        assert f"nesting deeper than {MAX_DEPTH}" in row.detail


class TestProcessModel:
    def test_has_empty_sequence(self):
        model = ProcessModel("m", xor(tau(), leaf("a")), frozenset({(), ("a",)}))
        assert () in model.sequences
        assert model.nonempty_sequences == [("a",)]

    def test_activity_set_is_read_off_the_tree_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(core, "tree_labels", lambda tree: calls.append(tree) or tree_labels(tree))
        tree = xor(tau(), seq(leaf("a"), leaf("b")))
        model = ProcessModel("m", tree, line=5)
        assert calls == []
        assert model.activity_set == frozenset({"a", "b"}) == frozenset(tree_labels(tree))
        assert model.activity_set is model.activity_set
        assert calls == [tree]
        # Derived from the tree, it is no field: equality and the line leave it out.
        assert "activity_set" not in {f.name for f in fields(ProcessModel)}
        assert model == ProcessModel("m", tree, line=9)

    def test_activity_set_must_match(self):
        # The set is derived from the tree's leaves and cannot be passed in.
        tree = xor(tau(), seq(leaf("a"), leaf("b")))
        model = ProcessModel(model_id="m", tree=tree, sequences=frozenset({(), ("a", "b")}))
        assert model.activity_set == frozenset({"a", "b"})
        with pytest.raises(TypeError):
            ProcessModel(
                model_id="m",
                tree=leaf("a"),
                sequences=frozenset({("a",)}),
                activity_set=frozenset({"a", "b"}),
            )


class TestDfg:
    def test_edge_endpoints_must_be_activities(self):
        with pytest.raises(ValueError):
            Dfg(activities=frozenset({"a"}), edges=frozenset({("a", "b")}))

    def test_valid(self):
        dfg = Dfg(activities=frozenset({"a", "b"}), edges=frozenset({("a", "b")}))
        assert ("a", "b") in dfg.edges


class TestFootprint:
    @given(
        st.sets(st.sampled_from("abcd")),
        st.sets(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"))),
    )
    @settings(max_examples=300, deadline=None)
    def test_relations_mirror_and_match_oracle(self, activities, edges):
        edges = {(x, y) for x, y in edges if x in activities and y in activities}
        fp = Footprint(activities=frozenset(activities), edges=frozenset(edges))
        for x in activities:
            assert fp.relation(x, x) in (Relation.PARALLEL, Relation.NONE)
            for y in activities:
                assert fp.relation(y, x) is ORACLE_MIRROR[fp.relation(x, y)]
        assert fp.relations == oracle_footprint(activities, edges)

    def test_must_cover_all_ordered_pairs(self):
        acts = frozenset({"a", "b", "c"})
        for edges in (frozenset(), frozenset({("a", "b"), ("c", "c")})):
            fp = Footprint(activities=acts, edges=edges)
            assert set(fp.relations) == {(x, y) for x in acts for y in acts}

    def test_mirror_consistency_enforced(self):
        fp = Footprint(
            activities=frozenset({"a", "b", "c"}),
            edges=frozenset({("a", "b"), ("b", "c"), ("c", "b")}),
        )
        assert fp.relation("a", "b") is Relation.FORWARD
        assert fp.relation("b", "a") is Relation.BACKWARD
        assert fp.relation("b", "c") is Relation.PARALLEL
        assert fp.relation("c", "b") is Relation.PARALLEL
        assert fp.relation("a", "c") is Relation.NONE
        assert fp.relation("c", "a") is Relation.NONE
        for (x, y), rel in fp.relations.items():
            assert fp.relation(y, x) is ORACLE_MIRROR[rel]

    def test_diagonal_restricted(self):
        fp = Footprint(
            activities=frozenset({"a", "b"}),
            edges=frozenset({("a", "a"), ("a", "b"), ("b", "a")}),
        )
        assert fp.relation("a", "a") is Relation.PARALLEL
        assert fp.relation("b", "b") is Relation.NONE

    def test_edge_endpoints_must_be_activities(self):
        with pytest.raises(ValueError):
            Footprint(activities=frozenset({"a"}), edges=frozenset({("a", "b")}))

    def test_valid_footprint(self):
        fp = Footprint(
            activities=frozenset({"a", "b"}),
            edges=frozenset({("a", "b"), ("b", "b")}),
        )
        assert fp.relation("a", "b") is Relation.FORWARD
        assert fp.relation("b", "a") is Relation.BACKWARD
        assert fp.relation("a", "a") is Relation.NONE
        assert fp.relation("b", "b") is Relation.PARALLEL
        with pytest.raises(KeyError):
            fp.relation("a", "z")
