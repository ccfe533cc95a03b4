"""Finite-language semantics of process trees.

Play-out unfolds a tree into the set of execution sequences it allows:

  - a leaf yields its single activity, the silent step yields the empty
    sequence;
  - sequence concatenates child languages, choice unions them, parallel
    takes the shuffle product;
  - a loop runs its first child once, optionally followed by one redo child
    and the first child again (each loop body executes at most once, keeping
    the language finite).

Every intermediate language is size-capped so adversarial inputs fail fast
with LanguageTooLargeError instead of exhausting memory.
"""

from __future__ import annotations

from .core import (
    Dfg,
    EventLog,
    EventuallyFollowsSet,
    Footprint,
    Leaf,
    Operator,
    OpKind,
    ProcessModel,
    ProcessTree,
    Relation,
    Silent,
    Trace,
    tree_labels,
)

DEFAULT_MAX_SEQUENCES = 32_768

# Shuffle products blow up combinatorially long before the sequence cap can
# notice, so reject grossly oversized trees up front.
MAX_PLAYOUT_LEAVES = 512


class LanguageTooLargeError(ValueError):
    """Raised when play-out would exceed the configured sequence budget."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"language exceeds {limit} sequences")
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


def language(tree: ProcessTree, max_sequences: int = DEFAULT_MAX_SEQUENCES) -> set[Trace]:
    """The finite language of a tree under bounded loop unrolling."""
    if len(tree_labels(tree)) > MAX_PLAYOUT_LEAVES:
        raise LanguageTooLargeError(max_sequences)
    return _language(tree, max_sequences)


def _language(tree: ProcessTree, limit: int) -> set[Trace]:
    if isinstance(tree, Leaf):
        return {(tree.label,)}
    if isinstance(tree, Silent):
        return {()}
    if tree.kind is OpKind.SEQ:
        out: set[Trace] = {()}
        for child in tree.children:
            out = _concat_pair(out, _language(child, limit), limit)
        return out
    if tree.kind is OpKind.XOR:
        out = set()
        for child in tree.children:
            out |= _language(child, limit)
        return _check(out, limit)
    if tree.kind is OpKind.AND:
        out = {()}
        for child in tree.children:
            out = _shuffle_languages(out, _language(child, limit), limit)
        return out
    # LOOP: do-child once, or do, one redo-child, do again.
    body = _language(tree.children[0], limit)
    out = set(body)
    for redo_child in tree.children[1:]:
        redo = _language(redo_child, limit)
        for u in body:
            for v in redo:
                for w in body:
                    out.add(u + v + w)
                    if len(out) > limit:
                        raise LanguageTooLargeError(limit)
    return out


def playout(
    tree: ProcessTree,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
    *,
    model_id: str = "model",
    name: str | None = None,
) -> ProcessModel:
    """Unfold a tree into a process model holding its full language."""
    return ProcessModel.from_sequences(model_id, language(tree, max_sequences), name)


# ---------------------------------------------------------------------------
# Directly-follows, footprints, eventually-follows


def _edges_of(sequences: frozenset[Trace] | tuple[Trace, ...]) -> frozenset[tuple[str, str]]:
    edges: set[tuple[str, str]] = set()
    for s in sequences:
        edges.update(zip(s, s[1:]))
    return frozenset(edges)


def dfg_of_model(model: ProcessModel) -> Dfg:
    """Directly-follows graph over every sequence the model allows."""
    return Dfg(activities=model.activity_set, edges=_edges_of(model.sequences))


def dfg_of_log(log: EventLog) -> Dfg:
    """Directly-follows graph of a log; duplicate traces add nothing new."""
    return Dfg(activities=log.activity_set, edges=_edges_of(log.traces))


def footprint(dfg: Dfg) -> Footprint:
    """Classify every ordered activity pair from the follow edges.

    (x, y) is FORWARD when x is directly followed by y but never the
    reverse, BACKWARD in the mirrored case, PARALLEL when both directions
    occur, and NONE when neither does.
    """
    relations: dict[tuple[str, str], Relation] = {}
    for x in dfg.activities:
        for y in dfg.activities:
            fwd = (x, y) in dfg.edges
            bwd = (y, x) in dfg.edges
            if fwd and bwd:
                rel = Relation.PARALLEL
            elif fwd:
                rel = Relation.FORWARD
            elif bwd:
                rel = Relation.BACKWARD
            else:
                rel = Relation.NONE
            relations[(x, y)] = rel
    return Footprint(activities=dfg.activities, relations=relations)


def footprint_of_model(model: ProcessModel) -> Footprint:
    return footprint(dfg_of_model(model))


def eventually_follows(model: ProcessModel) -> EventuallyFollowsSet:
    """Pairs (x, y) where y occurs after x (any gap) in some sequence.

    Repeats of one activity produce self-pairs. One backward pass per
    sequence ORs the bitmask of the activities seen so far, that is, those
    occurring later, into each activity's after-set.
    """
    activities = sorted(model.activity_set)
    bits = {a: 1 << i for i, a in enumerate(activities)}
    after = dict.fromkeys(activities, 0)
    for s in model.sequences:
        later = 0
        for a in reversed(s):
            after[a] |= later
            later |= bits[a]
    return EventuallyFollowsSet(
        pairs=frozenset(
            (x, y) for x, mask in after.items() for y in activities if mask & bits[y]
        )
    )
