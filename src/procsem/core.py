"""Shared domain types for process behavior.

Activities are plain strings (normalized labels), traces are tuples of
activities, and everything built from them (models, trees, graphs,
footprints) is an immutable value that is safe to share across threads.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Iterator, TypeVar, Union

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


class Frozen:
    """Base of procsem's value types, which never change once built. A
    class's fields are the parameters of its `__init__`, which fills
    `self.__dict__` or the slots. Equality, hash and repr read the fields in
    order, but those in `_uncompared` (equality and hash) and `_unhashed`
    (hash); instances of two classes are never equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    _unhashed: tuple[str, ...] = ()

    def __init__(self) -> None:
        pass

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        compared = [name for name in cls._fields if name not in cls._uncompared]
        hashed = [name for name in compared if name not in cls._unhashed]
        cls._compared = staticmethod(attrgetter(*compared) if compared else lambda obj: ())
        cls._hashed = staticmethod(attrgetter(*hashed) if hashed else lambda obj: ())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return hash(self._hashed(self))

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        # Copies and pickles are built anew, through `__init__`.
        return type(self), tuple(getattr(self, name) for name in self._fields)


# ---------------------------------------------------------------------------
# Process trees


class OpKind(str, Enum):
    SEQ = "->"
    XOR = "X"
    AND = "+"
    LOOP = "*"


class Leaf(Frozen):
    """A visible activity; its label is normalized on construction."""

    def __init__(self, label: Activity) -> None:
        self.__dict__["label"] = normalize_label(label)


class Silent(Frozen):
    """The silent activity: contributes the empty sequence, never an event."""


class Operator(Frozen):
    """An operator over its children. Equality, hash and repr walk the tree
    on a stack of their own, so a tree of any depth has all three."""

    def __init__(self, kind: OpKind, children: tuple[ProcessTree, ...]) -> None:
        minimum = 2 if kind is OpKind.LOOP else 1
        if len(children) < minimum:
            raise ArityError(
                f"{kind.name} requires at least {minimum} children, got {len(children)}"
            )
        values = self.__dict__
        values["kind"], values["children"] = kind, children

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Operator:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            mine, theirs = pairs.pop()
            if mine is theirs:
                continue
            if mine.__class__ is Operator is theirs.__class__:
                if mine.kind != theirs.kind or len(mine.children) != len(theirs.children):
                    return False
                pairs.extend(zip(mine.children, theirs.children))
            elif mine != theirs:
                return False
        return True

    def __hash__(self) -> int:
        # A leaf's and a silent step's hash are those of their own classes.
        return fold_tree(self, hash, hash(()), lambda kind, parts: hash((kind, *parts)))

    def __repr__(self) -> str:
        def operator(kind: OpKind, parts: list[str]) -> str:
            children = ", ".join(parts) + ("," if len(parts) == 1 else "")
            return f"Operator(kind={kind!r}, children=({children}))"

        return fold_tree(self, lambda label: f"Leaf(label={label!r})", "Silent()", operator)


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


class ProcessModel(Frozen):
    """A process tree under a model id, and its language when it holds one.

    A corpus row is one, with the row's `line` in the file it was read
    from; validation admits the row itself. `sequences` is the tree's
    language on a model from `semantics.playout`, and None on a model that
    holds none, such as a corpus row or an admitted one. The line takes no
    part in equality.
    """

    _uncompared = ("line",)

    def __init__(
        self, model_id: str, tree: ProcessTree, sequences: frozenset[Trace] | None = None,
        name: str | None = None, line: int | None = None,
    ) -> None:
        self.__dict__.update(model_id=model_id, tree=tree, sequences=sequences, name=name,
                             line=line)

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


class Dfg(Frozen):
    """Directly-follows graph: activities plus ordered follow edges."""

    def __init__(
        self, activities: frozenset[Activity], edges: frozenset[tuple[Activity, Activity]]
    ) -> None:
        for x, y in edges:
            if x not in activities or y not in activities:
                raise ValueError(f"edge ({x!r}, {y!r}) has endpoint outside activities")
        self.__dict__.update(activities=activities, edges=edges)


class Relation(str, Enum):
    FORWARD = "->"
    BACKWARD = "<-"
    PARALLEL = "||"
    NONE = "#"


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
