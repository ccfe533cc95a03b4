"""Finite-language semantics of process trees.

Play-out unfolds a tree into the set of execution sequences it allows:

  - a leaf yields its single activity, the silent step yields the empty
    sequence;
  - sequence concatenates child languages, choice unions them, parallel
    takes the shuffle product;
  - a loop `*(B, R1, …, Rk)` is the choice of B and every B·Ri·B: its body
    runs once, or twice around one redo child, so the language is finite.
    `_combine` writes this rule once, for the language and the relations.

Every intermediate language is size-capped so adversarial inputs fail fast
with LanguageTooLargeError instead of exhausting memory. `language_size`
counts a language instead of playing it out, for trees whose leaf labels
are distinct, and raises where `language` would: admission needs no more.

The directly-follows and eventually-follows relations need no play-out:
`tree_relations` reads them off the tree bottom-up (van der Aalst, *Process
Mining*, 2016, footprints; Leemans, Fahland and van der Aalst, Petri Nets
2013, block-structured trees), so they have no size cap. `eventually_follows`
and `dfg_of_model` read a bare tree that way, and `footprint_of_model` a
played-out model through its tree; no relation is read from a model's
sequences.
"""

from __future__ import annotations

import sys
from functools import cache, partial, reduce
from itertools import count
from math import comb
from typing import Callable, NamedTuple, TypeVar

from .core import (
    Activity,
    Dfg,
    Footprint,
    OpKind,
    Pair,
    ProcessModel,
    ProcessTree,
    Trace,
    fold_tree,
    tree_labels,
)

R = TypeVar("R")
_Rule = Callable[[list[R]], R]

DEFAULT_MAX_SEQUENCES = 32_768

# Shuffle products blow up combinatorially long before the sequence cap can
# notice, so under a cap, grossly oversized trees are refused up front.
MAX_PLAYOUT_LEAVES = 512

# A cap no language reaches, for a tree whose language is known to be
# bounded, such as an admitted model's: `language` refuses nothing under
# it, so it neither counts the leaves nor the language first.
NO_CAP = sys.maxsize


class LanguageTooLargeError(ValueError):
    """Raised when play-out would exceed the configured sequence budget, or
    the tree has more leaves than `MAX_PLAYOUT_LEAVES`; `limit` is the
    sequence budget either way."""

    def __init__(self, limit: int, too_many_leaves: bool = False) -> None:
        leaves = f"tree exceeds the play-out limit of {MAX_PLAYOUT_LEAVES} leaves"
        super().__init__(leaves if too_many_leaves else f"language exceeds {limit} sequences")
        self.limit = limit


def _check(language: set[Trace], limit: int) -> set[Trace]:
    if len(language) > limit:
        raise LanguageTooLargeError(limit)
    return language


def _concat_pair(left: set[Trace], right: set[Trace], limit: int) -> set[Trace]:
    if len(left) * len(right) <= limit:
        # The product has at most `limit` members, so the cap cannot trip.
        return {u + v for u in left for v in right}
    out: set[Trace] = set()
    for u in left:
        for v in right:
            out.add(u + v)
            if len(out) > limit:
                raise LanguageTooLargeError(limit)
    return out


def _shuffle_pair(u: Trace, v: Trace, limit: int) -> set[Trace]:
    """All interleavings of two sequences, via a suffix table.

    table[i][j] holds every interleaving of u[i:] and v[j:]; rows are filled
    bottom-up so only two rows live at a time and no recursion is involved.
    When one side holds at most one activity, that activity is inserted at
    every position of the other side instead: the result holds at most one
    sequence more than the other side, and the caller checks the cap.
    """
    if not u:
        return {v}
    if not v:
        return {u}
    if len(v) == 1:
        u, v = v, u
    if len(u) == 1:
        return {v[:j] + u + v[j:] for j in range(len(v) + 1)}
    nu, nv = len(u), len(v)
    below: list[set[Trace]] = [{v[j:]} for j in range(nv + 1)]
    for i in range(nu - 1, -1, -1):
        row: list[set[Trace]] = [set() for _ in range(nv + 1)]
        row[nv] = {u[i:]}
        for j in range(nv - 1, -1, -1):
            cell = {(u[i],) + s for s in below[j]}
            cell.update((v[j],) + s for s in row[j + 1])
            row[j] = _check(cell, limit)
        below = row
    return below[0]


def _shuffle_languages(left: set[Trace], right: set[Trace], limit: int) -> set[Trace]:
    out: set[Trace] = set()
    for u in left:
        for v in right:
            out.update(_shuffle_pair(u, v, limit))
            if len(out) > limit:
                raise LanguageTooLargeError(limit)
    return out


def _combine(seq: _Rule, xor: _Rule, par: _Rule, kind: OpKind, parts: list[R]) -> R:
    """An operator's value from its children's under the rules for sequence,
    choice and parallel, with the bounded loop as a choice of sequences."""
    if kind is OpKind.SEQ:
        return seq(parts)
    if kind is OpKind.XOR:
        return xor(parts)
    if kind is OpKind.AND:
        return par(parts)
    body = parts[0]
    return xor([body, *(seq([body, redo, body]) for redo in parts[1:])])


@cache
def _language_operator(limit: int) -> Callable[[OpKind, list[set[Trace]]], set[Trace]]:
    """The operator part of the language fold under a cap of `limit`. No
    language is empty, so no intermediate one outgrows the result (in a
    loop, |B·R| <= |B·R·B|): a cap check trips only on an over-cap result."""

    def xor(parts: list[set[Trace]]) -> set[Trace]:
        return _check(set().union(*parts), limit)

    seq = partial(reduce, partial(_concat_pair, limit=limit))
    par = partial(reduce, partial(_shuffle_languages, limit=limit))
    return partial(_combine, seq, xor, par)


def language(tree: ProcessTree, max_sequences: int = DEFAULT_MAX_SEQUENCES) -> set[Trace]:
    """The finite language of a tree under bounded loop unrolling.

    Under a cap, a tree of more than `MAX_PLAYOUT_LEAVES` leaves is refused,
    and a tree whose leaf labels are distinct is counted first: over the
    cap, it is refused with no play-out, and within it, no cap check can
    trip. Under `NO_CAP` the tree is only played out.
    """
    limit = max_sequences
    if max_sequences < NO_CAP:
        labels = tree_labels(tree)
        if len(labels) > MAX_PLAYOUT_LEAVES:
            raise LanguageTooLargeError(max_sequences, too_many_leaves=True)
        if len(set(labels)) == len(labels) and _counted(tree, max_sequences) is not None:
            limit = NO_CAP
    # No language is changed in place, so one new silent one serves the call.
    return fold_tree(tree, lambda label: {(label,)}, {()}, _language_operator(limit))


def playout(
    tree: ProcessTree,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
    *,
    model_id: str = "model",
    name: str | None = None,
) -> ProcessModel:
    """Unfold a tree into a process model holding its full language."""
    return ProcessModel(model_id, tree, frozenset(language(tree, max_sequences)), name=name)


# ---------------------------------------------------------------------------
# Language sizes, counted by length

# A language's size by sequence length: counts[n] sequences of n activities.
_Counts = list[int]


class _RepeatedBody(Exception):
    """A loop whose redo child is nullable: its body can run twice back to
    back, and sequences of B·B can coincide, so lengths do not count them."""


def _convolve(left: _Counts, right: _Counts, shuffled: bool) -> _Counts:
    """The counts of concatenating, or shuffling, two languages over
    disjoint alphabets: each pair of sequences of lengths a and b gives one
    sequence, or C(a+b, a) interleavings, none shared with another pair."""
    out = [0] * (len(left) + len(right) - 1)
    for a, x in enumerate(left):
        if x:
            for b, y in enumerate(right):
                if y:
                    out[a + b] += x * y * comb(a + b, a) if shuffled else x * y
    return out


def _count_xor(parts: list[_Counts]) -> _Counts:
    """Choice over disjoint alphabets: only the empty sequence can be shared."""
    out = [0] * max(map(len, parts))
    for part in parts:
        for n, x in enumerate(part):
            out[n] += x
    out[0] = min(out[0], 1)
    return out


@cache
def _count_operator(limit: int) -> Callable[[OpKind, list[_Counts]], _Counts]:
    """The operator part of the count fold under a cap of `limit`. With
    distinct labels no language is smaller than a part of it, so a count
    over the cap anywhere is one over the cap at the root."""

    seq = partial(reduce, partial(_convolve, shuffled=False))
    par = partial(reduce, partial(_convolve, shuffled=True))
    combine = partial(_combine, seq, _count_xor, par)

    def operator(kind: OpKind, parts: list[_Counts]) -> _Counts:
        if kind is OpKind.LOOP and any(redo[0] for redo in parts[1:]):
            raise _RepeatedBody
        counts = combine(kind, parts)
        if sum(counts) > limit:
            raise LanguageTooLargeError(limit)
        return counts

    return operator


_LEAF_COUNTS: _Counts = [0, 1]
_SILENT_COUNTS: _Counts = [1]


def _counted(tree: ProcessTree, limit: int) -> int | None:
    """The size of a distinct-labelled tree's language, or None when the
    tree holds a loop that repeats its body; raises LanguageTooLargeError
    over `limit` or past `MAX_PLAYOUT_LEAVES` leaves."""
    leaves = count(1)

    def leaf(label: Activity) -> _Counts:
        if next(leaves) > MAX_PLAYOUT_LEAVES:
            raise LanguageTooLargeError(limit, too_many_leaves=True)
        return _LEAF_COUNTS

    try:
        return sum(fold_tree(tree, leaf, _SILENT_COUNTS, _count_operator(limit)))
    except _RepeatedBody:
        return None


def language_size(tree: ProcessTree, max_sequences: int = DEFAULT_MAX_SEQUENCES) -> int:
    """`len(language(tree, max_sequences))` for a tree whose leaf labels are
    distinct, counted by sequence length, and raising LanguageTooLargeError
    exactly when `language` does.

    Disjoint alphabets make concatenation and shuffle injective, so each
    operator's counts follow from its children's. Only a loop with a
    nullable redo child escapes this; a tree holding one is played out.
    A tree over the cap is refused by `language`, whose count refuses it
    before any play-out: every refusal, and the bench's count of them as
    `semantics.language.too_large`, goes through that one function.
    """
    try:
        size = _counted(tree, max_sequences)
    except LanguageTooLargeError:
        size = None
    return len(language(tree, max_sequences)) if size is None else size


# ---------------------------------------------------------------------------
# Relations read off the tree


class TreeRelations(NamedTuple):
    """What a tree's language shows of its activities, without the language.

    `first` and `last` hold the activities that open and close some
    non-empty sequence; `df` and `ef` are the directly- and
    eventually-follows pairs over all sequences.
    """

    nullable: bool
    alphabet: frozenset[Activity]
    first: frozenset[Activity]
    last: frozenset[Activity]
    df: frozenset[Pair]
    ef: frozenset[Pair]


_NONE: frozenset = frozenset()
_SILENT = TreeRelations(True, _NONE, _NONE, _NONE, _NONE, _NONE)


def _pairs(left: frozenset[Activity], right: frozenset[Activity]) -> set[Pair]:
    return {(x, y) for x in left for y in right}


def _seq_relations(parts: list[TreeRelations]) -> TreeRelations:
    """Concatenation: the last activities of the prefix directly precede the
    first ones of the next part; first and last reach through nullable parts."""
    nullable, alphabet, first, last = True, _NONE, _NONE, _NONE
    df: set[Pair] = set()
    ef: set[Pair] = set()
    for p in parts:
        df |= p.df
        df |= _pairs(last, p.first)
        ef |= p.ef
        ef |= _pairs(alphabet, p.alphabet)
        if nullable:
            first |= p.first
        last = last | p.last if p.nullable else p.last
        alphabet |= p.alphabet
        nullable = nullable and p.nullable
    return TreeRelations(nullable, alphabet, first, last, frozenset(df), frozenset(ef))


def _xor_relations(parts: list[TreeRelations]) -> TreeRelations:
    nullable, *sets = zip(*parts)
    return TreeRelations(any(nullable), *(_NONE.union(*column) for column in sets))


def _and_relations(parts: list[TreeRelations]) -> TreeRelations:
    """Shuffle: any activity of one part can sit directly before or after
    any activity of another."""
    seen = _NONE
    cross: set[Pair] = set()
    for p in parts:
        cross |= _pairs(seen, p.alphabet)
        seen |= p.alphabet
    cross |= {(y, x) for x, y in cross}
    union = _xor_relations(parts)
    return union._replace(
        nullable=all(p.nullable for p in parts), df=union.df | cross, ef=union.ef | cross
    )


def _leaf_relations(label: Activity) -> TreeRelations:
    one = frozenset((label,))
    return TreeRelations(False, one, one, one, _NONE, _NONE)


_operator_relations = partial(_combine, _seq_relations, _xor_relations, _and_relations)


def tree_relations(tree: ProcessTree) -> TreeRelations:
    """The relations of a tree's language, read bottom-up with no play-out."""
    return fold_tree(tree, _leaf_relations, _SILENT, _operator_relations)


# ---------------------------------------------------------------------------
# Directly-follows, footprints, eventually-follows


def dfg_of_model(tree: ProcessTree) -> Dfg:
    """Directly-follows graph over every sequence the tree allows, read off
    it with `tree_relations`."""
    relations = tree_relations(tree)
    return Dfg(activities=relations.alphabet, edges=relations.df)


def footprint(dfg: Dfg) -> Footprint:
    """The footprint of a directly-follows graph; its relations are read
    from the edges when asked, so no pair is classified here."""
    return Footprint(activities=dfg.activities, edges=dfg.edges)


def footprint_of_model(model: ProcessModel) -> Footprint:
    return footprint(dfg_of_model(model.tree))


def eventually_follows(tree: ProcessTree) -> frozenset[Pair]:
    """Pairs (x, y) where y occurs after x (any gap) in some sequence of the
    tree's language, read with `tree_relations`; repeats of one activity
    produce self-pairs."""
    return tree_relations(tree).ef
