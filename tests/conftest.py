"""Shared fixtures and independent oracles.

The oracles re-derive semantics with deliberately different algorithms
(plain recursion instead of the package's iterative tables) so that frozen
expectations in the tests do not depend on the code under test.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from procsem import (
    EmptyLabelError,
    Leaf,
    OpKind,
    Operator,
    ProcessTree,
    Silent,
    normalize_label,
    parse_tree,
    playout,
)

M1_TREE_TEXT = (
    "->('receive order', X(->('accept order', 'deliver package'), 'reject order'))"
)


@pytest.fixture
def m1_tree() -> ProcessTree:
    return parse_tree(M1_TREE_TEXT)


@pytest.fixture
def m1_model(m1_tree):
    return playout(m1_tree, model_id="m1")


# ---------------------------------------------------------------------------
# Oracles


def oracle_interleave(u: tuple, v: tuple) -> set[tuple]:
    if not u:
        return {v}
    if not v:
        return {u}
    out = {(u[0],) + rest for rest in oracle_interleave(u[1:], v)}
    out |= {(v[0],) + rest for rest in oracle_interleave(u, v[1:])}
    return out


def oracle_language(tree: ProcessTree) -> set[tuple]:
    """Reference play-out: direct recursion, no caps, no tables."""
    if isinstance(tree, Leaf):
        return {(tree.label,)}
    if isinstance(tree, Silent):
        return {()}
    langs = [oracle_language(c) for c in tree.children]
    if tree.kind is OpKind.SEQ:
        out = {()}
        for lang in langs:
            out = {u + v for u in out for v in lang}
        return out
    if tree.kind is OpKind.XOR:
        return set().union(*langs)
    if tree.kind is OpKind.AND:
        out = {()}
        for lang in langs:
            out = {
                w for u in out for v in lang for w in oracle_interleave(u, v)
            }
        return out
    body = langs[0]
    out = set(body)
    for redo in langs[1:]:
        out |= {u + v + w for u in body for v in redo for w in body}
    return out


def oracle_dfg_edges(sequences) -> set[tuple[str, str]]:
    return {
        (s[i], s[i + 1]) for s in sequences for i in range(len(s) - 1)
    }


def oracle_ef_pairs(sequences) -> set[tuple[str, str]]:
    pairs = set()
    for s in sequences:
        for i in range(len(s)):
            pairs.update((s[i], s[j]) for j in range(i + 1, len(s)))
    return pairs


def oracle_per_class_f1(golds, preds, class_universe=None) -> dict[str, float]:
    """Reference per-class F1: three counting passes over all pairs per class."""
    if class_universe is None:
        class_universe = sorted({*golds, *(p for p in preds if p is not None)})
    scores = {}
    for cls in class_universe:
        tp = sum(1 for g, p in zip(golds, preds) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(golds, preds) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(golds, preds) if g == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            scores[cls] = 0.0
        else:
            scores[cls] = 2 * precision * recall / (precision + recall)
    return scores


# ---------------------------------------------------------------------------
# Random tree strategies and generators


def _clean_label(raw: str) -> str | None:
    try:
        return normalize_label(raw)
    except EmptyLabelError:
        return None


label_strategy = (
    st.text(min_size=1, max_size=10)
    .map(_clean_label)
    .filter(lambda s: s is not None)
)


def tree_strategy(max_leaves: int = 12) -> st.SearchStrategy[ProcessTree]:
    leaves = st.one_of(
        label_strategy.map(Leaf),
        st.just(Silent()),
    )
    return st.recursive(
        leaves,
        lambda inner: st.builds(
            lambda kind, children: Operator(kind, tuple(children)),
            st.sampled_from(list(OpKind)),
            st.lists(inner, min_size=2, max_size=4),
        ),
        max_leaves=max_leaves,
    )


_LABEL_CHARS = "abcdefgh XYZ'\\éα"


def random_label(rng: random.Random) -> str:
    while True:
        raw = "".join(
            rng.choice(_LABEL_CHARS) for _ in range(rng.randint(1, 8))
        )
        label = _clean_label(raw)
        if label is not None:
            return label


def random_tree(rng: random.Random, max_leaves: int) -> ProcessTree:
    """Seeded random tree with quote- and escape-heavy labels."""
    budget = rng.randint(1, max_leaves)

    def build(leaves: int) -> ProcessTree:
        if leaves <= 1:
            if rng.random() < 0.15:
                return Silent()
            return Leaf(random_label(rng))
        kind = rng.choice(list(OpKind))
        n_children = rng.randint(2, min(4, leaves))
        sizes = [1] * n_children
        for _ in range(leaves - n_children):
            sizes[rng.randrange(n_children)] += 1
        return Operator(kind, tuple(build(s) for s in sizes))

    return build(budget)
