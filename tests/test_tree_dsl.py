from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procsem import (
    Leaf,
    OpKind,
    Operator,
    Silent,
    TreeSyntaxError,
    parse_dfg_edges,
    parse_tree,
    render_dfg_edges,
    render_tree,
    leaf,
    seq,
    tau,
    xor,
)
from procsem.tree_dsl import MAX_DEPTH

from conftest import M1_TREE_TEXT, oracle_parse_tree, random_tree, tree_strategy


class TestParseTree:
    def test_single_leaf(self):
        assert parse_tree("'create order'") == Leaf("create order")

    def test_tau(self):
        assert parse_tree("tau") == Silent()

    def test_worked_example_shape(self):
        tree = parse_tree(M1_TREE_TEXT)
        assert isinstance(tree, Operator)
        assert tree.kind is OpKind.SEQ
        assert tree.children[0] == Leaf("receive order")
        inner = tree.children[1]
        assert inner.kind is OpKind.XOR
        assert inner.children[1] == Leaf("reject order")

    def test_unicode_operator_aliases(self):
        ascii_text = "->('a', X(+('b', 'c'), *('d', 'e'), τ))"
        unicode_text = "→('a', ×(∧('b', 'c'), ↺('d', 'e'), τ))"
        assert parse_tree(unicode_text) == parse_tree(ascii_text)

    def test_escaped_quote_in_label(self):
        assert parse_tree(r"'it\'s done'") == Leaf("it's done")

    def test_escaped_backslash(self):
        assert parse_tree(r"'a\\b'") == Leaf("a\\b")

    def test_whitespace_insensitive(self):
        assert parse_tree(" ->( 'a' ,\n'b' ) ") == seq(leaf("a"), leaf("b"))

    def test_label_whitespace_normalized(self):
        assert parse_tree("'  a   b '") == Leaf("a b")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "->('a'",
            "->('a',)",
            "'unterminated",
            "->()",
            "*('a')",
            "X('a') trailing",
            "''",
            "->('a') X('b')",
            "notakeyword",
            "'a' -> 'b'",
            "\x00",
        ],
    )
    def test_malformed_raises(self, text):
        with pytest.raises(TreeSyntaxError):
            parse_tree(text)

    def test_error_carries_position(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree("->('a', ?)")
        assert err.value.position == 8

    def test_depth_limit(self):
        text = "X('a', 'b')"
        for _ in range(MAX_DEPTH + 1):
            text = f"X({text}, 'z')"
        with pytest.raises(TreeSyntaxError):
            parse_tree(text)


# Pieces of tree text: operators in both spellings, quotes, a backslash
# before anything (newline included), Unicode whitespace, and characters
# such as `²` that `\w` matches but `str.isalpha` does not.
_TEXT_PIECES = [
    "->", "-", ">", "X", "+", "*", "\u2192", "\u00d7", "\u2227", "\u21ba",
    "(", ")", ",", "'", "\\", "\\'", "\\\\", "\\\n", "tau", "\u03c4", "ta",
    "a", "b c", "Xa", " ", "\n", "\t", "\u00a0", "\u2003", "\u3000", "\x1c",
    "\x85", "\u2028", "\u00b2", "_", "1", "?", "'a'", "'b'", "''", "' '",
]


def _outcome(parse, text):
    try:
        return ("tree", parse(text))
    except TreeSyntaxError as exc:
        return ("error", str(exc), exc.position)


class TestTokenizerOracle:
    @given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=24).map("".join))
    @settings(max_examples=1500, deadline=None)
    @example("'a\\")
    @example("'a\\\nb'")
    @example("X('a\\\\', 'b\\'c')")
    @example("\u00b2")
    @example("tau\u00b2")
    @example("\u2192('a',\u2003\u03c4)")
    def test_parse_matches_char_loop_tokenizer(self, text):
        assert _outcome(parse_tree, text) == _outcome(oracle_parse_tree, text)

    @given(tree_strategy())
    @settings(max_examples=200, deadline=None)
    def test_rendered_trees_match_char_loop_tokenizer(self, tree):
        text = render_tree(tree)
        for cut in (text, text[:-1], text[: len(text) // 2]):
            assert _outcome(parse_tree, cut) == _outcome(oracle_parse_tree, cut)


class TestRenderTree:
    def test_canonical_form(self, m1_tree):
        assert render_tree(m1_tree) == (
            "->('receive order', X(->('accept order', 'deliver package'), "
            "'reject order'))"
        )

    def test_tau_rendered_ascii(self):
        assert render_tree(xor(leaf("a"), tau())) == "X('a', tau)"

    def test_quotes_escaped(self):
        assert render_tree(Leaf("it's")) == r"'it\'s'"
        assert render_tree(Leaf("a\\b")) == r"'a\\b'"

    @given(tree_strategy())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, tree):
        assert parse_tree(render_tree(tree)) == tree

    def test_round_trip_seeded_batch(self):
        rng = random.Random(20240814)
        for _ in range(300):
            tree = random_tree(rng, max_leaves=21)
            assert parse_tree(render_tree(tree)) == tree


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = random.Random(99)
        for _ in range(5_000):
            blob = rng.randbytes(rng.randint(0, 40)).decode("latin-1")
            try:
                parse_tree(blob)
            except TreeSyntaxError:
                pass


class TestParseDfgEdges:
    def test_single_edge(self):
        parsed = parse_dfg_edges("'a' -> 'b'")
        assert parsed.edges == (("a", "b"),)
        assert parsed.skipped == ()

    def test_multiple_lines_and_blanks(self):
        text = "'a' -> 'b'\n\n'b' -> 'c'\n"
        assert parse_dfg_edges(text).edges == (("a", "b"), ("b", "c"))

    def test_duplicates_collapse(self):
        text = "'a' -> 'b'\n'a' -> 'b'"
        assert parse_dfg_edges(text).edges == (("a", "b"),)

    def test_lenient_skips_garbage_lines(self):
        text = "edges are:\n'a' -> 'b'\nnope\n"
        parsed = parse_dfg_edges(text)
        assert parsed.edges == (("a", "b"),)
        assert parsed.skipped == ("edges are:", "nope")

    def test_lenient_extracts_from_noise(self):
        parsed = parse_dfg_edges("1. 'a' -> 'b' (then)")
        assert parsed.edges == (("a", "b"),)

    def test_unicode_arrow(self):
        assert parse_dfg_edges("'a' → 'b'").edges == (("a", "b"),)

    def test_escaped_labels(self):
        parsed = parse_dfg_edges(r"'it\'s' -> 'b'")
        assert parsed.edges == (("it's", "b"),)

    def test_strict_accepts_clean_lines(self):
        text = "'a' -> 'b'\n'b' -> 'a'"
        parsed = parse_dfg_edges(text)
        assert parsed.edges == (("a", "b"), ("b", "a"))
        assert render_dfg_edges(parsed.edges) == text
        assert parsed.skipped == ()

    def test_render_round_trip(self):
        edges = (("pay order", "ship item"), ("it's", "a\\b"))
        rendered = render_dfg_edges(edges)
        parsed = parse_dfg_edges(rendered)
        assert set(parsed.edges) == set(edges)
        assert render_dfg_edges(parsed.edges) == rendered
        assert parsed.skipped == ()

    def test_render_sorts(self):
        assert render_dfg_edges((("b", "a"), ("a", "b"))) == "'a' -> 'b'\n'b' -> 'a'"
