from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from procsem import (
    Dfg,
    LanguageTooLargeError,
    Leaf,
    Operator,
    Silent,
    Relation,
    dfg_of_model,
    eventually_follows,
    footprint,
    footprint_of_model,
    language,
    language_size,
    leaf,
    loop,
    par,
    parse_tree,
    playout,
    seq,
    tau,
    xor,
)
from procsem import semantics
from procsem.core import fold_tree
from procsem.semantics import DEFAULT_MAX_SEQUENCES, MAX_PLAYOUT_LEAVES, tree_relations

from conftest import (
    ORACLE_MIRROR,
    oracle_capped_language,
    oracle_dfg_edges,
    oracle_ef_pairs,
    oracle_footprint,
    oracle_language,
    repeating_label_strategy,
    tree_strategy,
)

# Random labels (rarely repeated) or three labels (repeated across leaves).
any_tree = st.one_of(
    tree_strategy(max_leaves=8),
    tree_strategy(max_leaves=8, labels=repeating_label_strategy),
)

# Eight leaves, at most four children a node, as `tree_strategy(max_leaves=8)`
# can draw it, and 8! = 40,320 sequences: over the default play-out cap.
OVER_THE_DEFAULT_CAP = par(
    par(leaf("a"), leaf("b"), leaf("c"), leaf("d")),
    par(leaf("e"), leaf("f"), leaf("g"), leaf("h")),
)

# Loops whose body and redo child share activities, so one activity occurs
# several times in a sequence, directly and with gaps.
LOOPS_WITH_REPEATS = [
    loop(seq(leaf("a"), leaf("b"), leaf("a")), leaf("a")),
    loop(par(leaf("a"), leaf("b")), seq(leaf("b"), leaf("c"))),
    seq(leaf("c"), loop(xor(leaf("a"), tau()), leaf("a")), leaf("c")),
]


class TestLanguage:
    def test_leaf(self):
        assert language(leaf("a")) == {("a",)}

    def test_tau(self):
        assert language(tau()) == {()}

    def test_seq_concatenates(self):
        assert language(seq(leaf("a"), leaf("b"))) == {("a", "b")}

    def test_xor_unions(self):
        assert language(xor(leaf("a"), leaf("b"))) == {("a",), ("b",)}

    def test_tau_under_xor_makes_branch_optional(self):
        tree = seq(leaf("a"), xor(leaf("b"), tau()))
        assert language(tree) == {("a",), ("a", "b")}

    def test_and_interleaves(self):
        assert language(par(leaf("a"), leaf("b"))) == {("a", "b"), ("b", "a")}

    def test_and_counts_are_binomial(self):
        # interleavings of disjoint sequences of lengths p and q: C(p+q, p)
        tree = par(seq(leaf("a"), leaf("b"), leaf("c")), seq(leaf("x"), leaf("y")))
        assert len(language(tree)) == math.comb(5, 2)

    def test_loop_runs_redo_at_most_once(self):
        assert language(loop(leaf("a"), leaf("b"))) == {("a",), ("a", "b", "a")}

    def test_loop_multiple_redo_children(self):
        got = language(loop(leaf("a"), leaf("b"), leaf("c")))
        assert got == {("a",), ("a", "b", "a"), ("a", "c", "a")}

    def test_duplicate_labels_collapse_sequences(self):
        assert language(xor(leaf("a"), leaf("a"))) == {("a",)}

    def test_cap_enforced(self):
        wide = par(*[leaf(f"a{i}") for i in range(8)])  # 8! = 40,320 sequences
        with pytest.raises(LanguageTooLargeError):
            language(wide, max_sequences=1000)

    def test_leaf_count_guard(self):
        huge = xor(*[leaf(f"a{i}") for i in range(MAX_PLAYOUT_LEAVES + 1)])
        with pytest.raises(LanguageTooLargeError):
            language(huge)

    def test_leaf_count_guard_boundary(self):
        labels = [f"a{i}" for i in range(MAX_PLAYOUT_LEAVES + 1)]
        at_cap = seq(*map(leaf, labels[:MAX_PLAYOUT_LEAVES]))
        assert language(at_cap) == {tuple(labels[:MAX_PLAYOUT_LEAVES])}
        with pytest.raises(LanguageTooLargeError):
            language(seq(*map(leaf, labels)))

    @given(tree_strategy(max_leaves=8))
    @settings(max_examples=150, deadline=None)
    @example(OVER_THE_DEFAULT_CAP)
    def test_matches_reference_recursion(self, tree):
        expected = oracle_language(tree)
        if len(expected) > DEFAULT_MAX_SEQUENCES:
            with pytest.raises(LanguageTooLargeError):
                language(tree)
        else:
            assert language(tree) == expected

    @given(any_tree, st.integers(min_value=1, max_value=8))
    @settings(max_examples=400, deadline=None)
    # product exactly at the cap, and one over it
    @example(seq(xor(leaf("a"), leaf("b")), xor(leaf("c"), leaf("d"))), 4)
    @example(seq(xor(leaf("a"), leaf("b")), xor(leaf("c"), leaf("d"))), 3)
    # a product over the cap whose distinct sequences fit
    @example(seq(xor(leaf("a"), tau()), xor(leaf("a"), tau())), 3)
    # single-activity shuffles, distinct and repeated
    @example(par(leaf("a"), seq(leaf("b"), leaf("c"))), 2)
    @example(par(leaf("a"), seq(leaf("b"), leaf("c"))), 3)
    @example(par(seq(leaf("b"), leaf("c")), leaf("a")), 2)
    @example(par(leaf("a"), seq(leaf("a"), leaf("a"))), 1)
    @example(loop(xor(leaf("a"), leaf("b")), leaf("c")), 5)
    @example(loop(xor(leaf("a"), leaf("b")), leaf("c")), 6)
    def test_cap_matches_capped_oracle(self, tree, cap):
        try:
            expected = oracle_capped_language(tree, cap)
        except LanguageTooLargeError:
            with pytest.raises(LanguageTooLargeError):
                language(tree, max_sequences=cap)
        else:
            assert language(tree, max_sequences=cap) == expected


    def test_loop_body_redo_product_alone_over_the_cap(self):
        # |B| = 3, |B·R| = 6, |B·R·B| = 18: the whole language has 21 sequences.
        tree = loop(xor(leaf("a"), leaf("b"), leaf("c")), xor(leaf("d"), leaf("e")))
        with pytest.raises(LanguageTooLargeError) as exc_info:
            language(tree, max_sequences=5)
        assert exc_info.value.limit == 5
        assert len(language(tree, max_sequences=21)) == 21
        with pytest.raises(LanguageTooLargeError):
            language(tree, max_sequences=20)



def _distinct_labels(tree):
    """The tree with its leaves renamed a0, a1, … from left to right."""
    names = (f"a{i}" for i in itertools.count())
    return fold_tree(
        tree, lambda label: Leaf(next(names)), Silent(),
        lambda kind, parts: Operator(kind, tuple(parts)),
    )


# Trees as `tree_strategy` draws them, all-silent ones among them, with
# every leaf label distinct: the trees `language_size` is defined for.
distinct_tree = tree_strategy(max_leaves=8).map(_distinct_labels)

# A loop whose redo child is nullable runs its body twice back to back:
# X('a', 'b', tau) · X('a', 'b', tau) has 7 distinct sequences, not 3 · 3.
REPEATED_BODY = loop(xor(leaf("a"), leaf("b"), tau()), tau())


def _size_or_refusal(size_of, tree, cap):
    try:
        return size_of(tree, cap)
    except LanguageTooLargeError as exc:
        return f"refused: {exc}"


class TestLanguageSize:
    @given(distinct_tree, st.integers(min_value=1, max_value=64))
    @settings(max_examples=500, deadline=None)
    # all-silent trees
    @example(tau(), 1)
    @example(seq(tau(), tau()), 1)
    @example(loop(tau(), tau()), 1)
    # |+('a', 'b', 'c')| = 6: at the cap and one over it
    @example(par(leaf("a"), leaf("b"), leaf("c")), 6)
    @example(par(leaf("a"), leaf("b"), leaf("c")), 5)
    # nullable redo children, at the cap and one over it
    @example(REPEATED_BODY, 7)
    @example(REPEATED_BODY, 6)
    @example(loop(seq(xor(leaf("a"), tau()), xor(leaf("b"), tau())), leaf("c"), tau()), 64)
    @example(seq(leaf("c"), loop(par(leaf("a"), leaf("b")), xor(leaf("d"), tau()))), 16)
    # a nullable body with a redo child that is not
    @example(loop(xor(leaf("a"), tau()), leaf("b")), 5)
    @example(loop(xor(leaf("a"), tau()), leaf("b")), 4)
    @example(OVER_THE_DEFAULT_CAP, 64)
    def test_matches_play_out_and_capped_oracle(self, tree, cap):
        size = _size_or_refusal(language_size, tree, cap)
        assert size == _size_or_refusal(lambda t, c: len(language(t, c)), tree, cap)
        assert size == _size_or_refusal(lambda t, c: len(oracle_capped_language(t, c)), tree, cap)

    def test_default_cap(self):
        assert language_size(par(*(leaf(f"a{i}") for i in range(7)))) == 5_040
        with pytest.raises(LanguageTooLargeError, match=f"exceeds {DEFAULT_MAX_SEQUENCES} "):
            language_size(OVER_THE_DEFAULT_CAP)

    def test_leaf_count_guard(self):
        labels = [f"a{i}" for i in range(MAX_PLAYOUT_LEAVES + 1)]
        assert language_size(seq(*map(leaf, labels[:MAX_PLAYOUT_LEAVES]))) == 1
        for over in (
            seq(*map(leaf, labels)),
            # the repeated body comes before the 513th leaf
            seq(loop(xor(leaf("x"), tau()), tau()), *map(leaf, labels)),
        ):
            # The refusal names the limit the tree passes, not the cap.
            leaf_limit = f"play-out limit of {MAX_PLAYOUT_LEAVES} leaves"
            with pytest.raises(LanguageTooLargeError, match=leaf_limit):
                language_size(over, 7)
            with pytest.raises(LanguageTooLargeError, match=leaf_limit):
                language(over, 7)

    def test_counts_without_play_out(self, monkeypatch):
        # With no operator part to fold a language with, any play-out fails.
        monkeypatch.setattr(semantics, "_language_operator", None)
        assert language_size(OVER_THE_DEFAULT_CAP, 40_320) == 40_320
        for refuse in (language_size, language):
            with pytest.raises(LanguageTooLargeError, match="exceeds 40319 sequences"):
                refuse(OVER_THE_DEFAULT_CAP, 40_319)
        # Only a loop that repeats its body is played out.
        with pytest.raises(TypeError):
            language_size(REPEATED_BODY)

class TestPlayout:
    def test_worked_example_sequences(self, m1_model):
        assert m1_model.sequences == {
            ("receive order", "accept order", "deliver package"),
            ("receive order", "reject order"),
        }

    def test_model_metadata(self, m1_tree):
        model = playout(m1_tree, model_id="x", name="orders")
        assert model.model_id == "x"
        assert model.name == "orders"
        assert model.activity_set == {
            "receive order",
            "accept order",
            "deliver package",
            "reject order",
        }

    @given(any_tree)
    @settings(max_examples=200, deadline=None)
    @example(xor(leaf("a"), tau()))
    @example(LOOPS_WITH_REPEATS[0])
    def test_activity_set_is_the_union_of_the_sequences(self, tree):
        # The set is read off the tree's leaves, and every leaf occurs in
        # some sequence of the bounded play-out.
        model = _played_out(tree)
        assert model.activity_set == frozenset().union(*model.sequences)


class TestDfg:
    def test_worked_example_edges(self, m1_model):
        assert dfg_of_model(m1_model.tree).edges == {
            ("receive order", "accept order"),
            ("accept order", "deliver package"),
            ("receive order", "reject order"),
        }

    @given(any_tree)
    @settings(max_examples=100, deadline=None)
    @example(LOOPS_WITH_REPEATS[0])
    @example(LOOPS_WITH_REPEATS[1])
    @example(LOOPS_WITH_REPEATS[2])
    @example(OVER_THE_DEFAULT_CAP)
    def test_edges_match_oracle(self, tree):
        model = _played_out(tree)
        assert dfg_of_model(model.tree).edges == oracle_dfg_edges(model.sequences)


class TestFootprint:
    def test_worked_example_relations(self, m1_model):
        fp = footprint_of_model(m1_model)
        forward = {
            ("receive order", "accept order"),
            ("accept order", "deliver package"),
            ("receive order", "reject order"),
        }
        for x in m1_model.activity_set:
            for y in m1_model.activity_set:
                if (x, y) in forward:
                    expected = Relation.FORWARD
                elif (y, x) in forward:
                    expected = Relation.BACKWARD
                else:
                    expected = Relation.NONE
                assert fp.relation(x, y) is expected

    def test_parallel_when_both_directions(self):
        fp = footprint_of_model(playout(par(leaf("a"), leaf("b")), model_id="p"))
        assert fp.relation("a", "b") is Relation.PARALLEL
        assert fp.relation("b", "a") is Relation.PARALLEL

    def test_self_loop_gives_parallel_diagonal(self):
        # a trace with a directly repeated activity: ->('a','a') via loop redo tau
        model = playout(loop(leaf("a"), tau()), model_id="l")
        assert ("a", "a", "a") not in model.sequences
        assert ("a", "a") in model.sequences
        fp = footprint_of_model(model)
        assert fp.relation("a", "a") is Relation.PARALLEL

    @given(tree_strategy(max_leaves=8))
    @settings(max_examples=100, deadline=None)
    @example(OVER_THE_DEFAULT_CAP)
    def test_total_and_mirror_consistent(self, tree):
        model = _played_out(tree)
        fp = footprint_of_model(model)
        relations = fp.relations
        n = len(model.activity_set)
        assert len(relations) == n * n
        for (x, y), rel in relations.items():
            assert relations[(y, x)] is ORACLE_MIRROR[rel]
            if x == y:
                assert rel in (Relation.PARALLEL, Relation.NONE)

    @given(
        st.sets(st.sampled_from("abcd")),
        st.sets(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"))),
    )
    @settings(max_examples=300, deadline=None)
    def test_relations_match_oracle(self, activities, edges):
        edges = {(x, y) for x, y in edges if x in activities and y in activities}
        dfg = Dfg(activities=frozenset(activities), edges=frozenset(edges))
        assert footprint(dfg).relations == oracle_footprint(activities, edges)


class TestEventuallyFollows:
    def test_worked_example(self, m1_tree):
        ef = eventually_follows(m1_tree)
        assert type(ef) is frozenset
        assert ef == {
            ("receive order", "accept order"),
            ("receive order", "reject order"),
            ("receive order", "deliver package"),
            ("accept order", "deliver package"),
        }

    def test_repeats_create_self_pairs(self):
        assert eventually_follows(loop(leaf("a"), leaf("b"))) == {
            ("a", "b"),
            ("b", "a"),
            ("a", "a"),
        }

    @given(any_tree)
    @settings(max_examples=100, deadline=None)
    @example(LOOPS_WITH_REPEATS[0])
    @example(LOOPS_WITH_REPEATS[1])
    @example(LOOPS_WITH_REPEATS[2])
    @example(OVER_THE_DEFAULT_CAP)
    def test_matches_oracle_and_contains_dfg(self, tree):
        model = _played_out(tree)
        ef = eventually_follows(tree)
        assert ef == oracle_ef_pairs(model.sequences)
        assert dfg_of_model(model.tree).edges <= ef


# Three labels over deeper trees: repeats, tau and loops inside loops.
three_label_tree = tree_strategy(max_leaves=10, labels=repeating_label_strategy)

NESTED_LOOPS = [
    loop(loop(leaf("a"), leaf("b")), seq(leaf("b"), loop(tau(), leaf("c")))),
    seq(loop(xor(leaf("a"), tau()), par(leaf("b"), tau())), leaf("a")),
    par(loop(leaf("a"), tau()), loop(tau(), seq(leaf("b"), leaf("a")))),
]


def _played_out(tree):
    try:
        return playout(tree, model_id="t")
    except LanguageTooLargeError:
        reject()


class TestTreeRelations:
    def test_loop_without_body_activity_has_no_self_edge(self):
        relations = tree_relations(loop(tau(), leaf("b")))
        assert relations.df == set()
        assert relations.nullable

    def test_loop_redo_children_never_follow_each_other(self):
        relations = tree_relations(loop(leaf("a"), leaf("b"), leaf("c")))
        assert relations.ef == {("a", "a"), ("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")}

    def test_parallel_over_the_cap(self):
        # 9! sequences: play-out refuses, the tree still has its relations
        labels = "abcdefghi"
        tree = par(*map(leaf, labels))
        with pytest.raises(LanguageTooLargeError):
            language(tree)
        distinct = {(x, y) for x in labels for y in labels if x != y}
        assert dfg_of_model(tree).edges == distinct
        assert eventually_follows(tree) == distinct

    @given(st.one_of(any_tree, three_label_tree))
    @settings(max_examples=400, deadline=None)
    @example(LOOPS_WITH_REPEATS[0])
    @example(LOOPS_WITH_REPEATS[1])
    @example(LOOPS_WITH_REPEATS[2])
    @example(NESTED_LOOPS[0])
    @example(NESTED_LOOPS[1])
    @example(NESTED_LOOPS[2])
    def test_match_playout(self, tree):
        model = _played_out(tree)
        relations = tree_relations(tree)
        assert dfg_of_model(tree) == Dfg(
            activities=frozenset().union(*model.sequences),
            edges=frozenset(oracle_dfg_edges(model.sequences)),
        )
        assert relations.df == oracle_dfg_edges(model.sequences)
        assert relations.ef == oracle_ef_pairs(model.sequences)
        assert relations.nullable == (() in model.sequences)
        assert relations.first == {s[0] for s in model.sequences if s}
        assert relations.last == {s[-1] for s in model.sequences if s}


class TestTreeTextIntegration:
    def test_parse_then_playout(self):
        tree = parse_tree("*(->('a', 'b'), tau)")
        assert language(tree) == {("a", "b"), ("a", "b", "a", "b")}
