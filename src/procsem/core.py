"""Shared domain types for process behavior.

Activities are plain strings (normalized labels), traces are tuples of
activities, and everything built from them (models, trees, graphs,
footprints) is an immutable value that is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, TypeVar, Union

Activity = str
Trace = tuple[Activity, ...]
Pair = tuple[Activity, Activity]


class EmptyLabelError(ValueError):
    """Raised when an activity label is empty after normalization."""


class ArityError(ValueError):
    """Raised when a tree operator node has too few children."""


def collapse_whitespace(text: str) -> str:
    """Trim, and collapse every whitespace run to one space; case is kept.

    `str.split` without a separator breaks on exactly the characters that
    `\\s` matches in a `str` pattern.
    """
    return " ".join(text.split())


def normalize_label(raw: str) -> Activity:
    """Normalize an activity label: trim, collapse whitespace runs to one space.

    Case is preserved. Raises EmptyLabelError if nothing is left.
    """
    label = collapse_whitespace(raw)
    if not label:
        raise EmptyLabelError(f"empty activity label: {raw!r}")
    return label


# ---------------------------------------------------------------------------
# Process trees


class OpKind(str, Enum):
    SEQ = "->"
    XOR = "X"
    AND = "+"
    LOOP = "*"


@dataclass(frozen=True)
class Leaf:
    """A visible activity; its label is normalized on construction."""

    label: Activity

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", normalize_label(self.label))


@dataclass(frozen=True)
class Silent:
    """The silent activity: contributes the empty sequence, never an event."""


@dataclass(frozen=True)
class Operator:
    kind: OpKind
    children: tuple["ProcessTree", ...]

    def __post_init__(self) -> None:
        minimum = 2 if self.kind is OpKind.LOOP else 1
        if len(self.children) < minimum:
            raise ArityError(
                f"{self.kind.name} requires at least {minimum} children, "
                f"got {len(self.children)}"
            )


ProcessTree = Union[Leaf, Silent, Operator]


def leaf(label: Activity) -> Leaf:
    return Leaf(label)


def tau() -> Silent:
    return Silent()


def seq(*children: ProcessTree) -> Operator:
    return Operator(OpKind.SEQ, tuple(children))


def xor(*children: ProcessTree) -> Operator:
    return Operator(OpKind.XOR, tuple(children))


def par(*children: ProcessTree) -> Operator:
    return Operator(OpKind.AND, tuple(children))


def loop(*children: ProcessTree) -> Operator:
    return Operator(OpKind.LOOP, tuple(children))


R = TypeVar("R")


def fold_tree(
    tree: ProcessTree, leaf: Callable[[Activity], R], silent: R,
    operator: Callable[[OpKind, list[R]], R],
) -> R:
    """Fold a tree bottom-up, children left to right: a leaf is `leaf(label)`,
    a silent step `silent`, an operator `operator(kind, children's values)`.
    The open operators wait on a stack, not in recursive calls, so a tree
    of any depth folds; no leaf is pushed, which keeps a node cheap."""
    if not isinstance(tree, Operator):
        return leaf(tree.label) if isinstance(tree, Leaf) else silent
    kind, children, parts = tree.kind, iter(tree.children), []
    stack: list[tuple[OpKind, Iterator[ProcessTree], list[R]]] = []
    while True:
        for child in children:
            if isinstance(child, Operator):
                stack.append((kind, children, parts))
                kind, children, parts = child.kind, iter(child.children), []
                break
            parts.append(leaf(child.label) if isinstance(child, Leaf) else silent)
        else:
            value = operator(kind, parts)
            if not stack:
                return value
            kind, children, parts = stack.pop()
            parts.append(value)


def tree_labels(tree: ProcessTree) -> list[Activity]:
    """All leaf labels in left-to-right order, with multiplicity."""
    out: list[Activity] = []
    fold_tree(tree, out.append, None, lambda kind, parts: None)
    return out


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class ProcessModel:
    """A process tree under a model id, and its language when it holds one.

    A corpus row is one, with the row's `line` in the file it was read
    from; validation admits the row itself. `sequences` is the tree's
    language on a model from `semantics.playout`, and None on a model that
    holds none, such as a corpus row or an admitted one.
    """

    model_id: str
    tree: ProcessTree
    sequences: frozenset[Trace] | None = None
    name: str | None = None
    line: int | None = field(default=None, compare=False)

    @cached_property
    def activity_set(self) -> frozenset[Activity]:
        """The tree's leaf labels, read off the tree when first asked. Every
        leaf occurs in some sequence of the language, so it is also the
        sequences' union."""
        return frozenset(tree_labels(self.tree))

    @property
    def nonempty_sequences(self) -> list[Trace]:
        """Non-empty sequences, of a model that holds its language, in a
        canonical (sorted) order."""
        return sorted(s for s in self.sequences if s)


# ---------------------------------------------------------------------------
# Directly-follows graphs and footprints


@dataclass(frozen=True)
class Dfg:
    """Directly-follows graph: activities plus ordered follow edges."""

    activities: frozenset[Activity]
    edges: frozenset[tuple[Activity, Activity]]

    def __post_init__(self) -> None:
        for x, y in self.edges:
            if x not in self.activities or y not in self.activities:
                raise ValueError(f"edge ({x!r}, {y!r}) has endpoint outside activities")


class Relation(str, Enum):
    FORWARD = "->"
    BACKWARD = "<-"
    PARALLEL = "||"
    NONE = "#"


@dataclass(frozen=True)
class Footprint(Dfg):
    """The footprint of a directly-follows graph, read pair by pair.

    (x, y) is FORWARD when x is directly followed by y but never the
    reverse, BACKWARD in the mirrored case, PARALLEL when both directions
    occur, and NONE when neither does. Read off the edges, the relations
    mirror by construction, and a diagonal entry is PARALLEL or NONE.
    """

    def relation(self, x: Activity, y: Activity) -> Relation:
        if x not in self.activities or y not in self.activities:
            raise KeyError((x, y))
        if (x, y) in self.edges:
            return Relation.PARALLEL if (y, x) in self.edges else Relation.FORWARD
        return Relation.BACKWARD if (y, x) in self.edges else Relation.NONE

    @property
    def relations(self) -> dict[Pair, Relation]:
        """The total map over every ordered activity pair, built on each call."""
        return {(x, y): self.relation(x, y) for x in self.activities for y in self.activities}
