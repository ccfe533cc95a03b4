"""Shared domain types for process behavior.

Activities are plain strings (normalized labels), traces are tuples of
activities, and everything built from them (logs, models, trees, graphs,
footprints) is an immutable value that is safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Union

Activity = str
Trace = tuple[Activity, ...]


class EmptyLabelError(ValueError):
    """Raised when an activity label is empty after normalization."""


class ArityError(ValueError):
    """Raised when a tree operator node has too few children."""


_WS_RUN = re.compile(r"\s+")


def collapse_whitespace(text: str) -> str:
    """Trim, and collapse every whitespace run to one space; case is kept."""
    return _WS_RUN.sub(" ", text).strip()


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
    label: Activity

    def __post_init__(self) -> None:
        if not self.label:
            raise EmptyLabelError("leaf activity label must be non-empty")


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


def tree_labels(tree: ProcessTree) -> list[Activity]:
    """All leaf labels in left-to-right order, with multiplicity."""
    if isinstance(tree, Leaf):
        return [tree.label]
    if isinstance(tree, Silent):
        return []
    out: list[Activity] = []
    for child in tree.children:
        out.extend(tree_labels(child))
    return out


# ---------------------------------------------------------------------------
# Logs and models


def _union_of(sequences: Iterable[Trace]) -> frozenset[Activity]:
    out: set[Activity] = set()
    for s in sequences:
        out.update(s)
    return frozenset(out)


@dataclass(frozen=True)
class EventLog:
    """A finite multiset of traces; `traces` keeps duplicates."""

    traces: tuple[Trace, ...]
    activity_set: frozenset[Activity]

    def __post_init__(self) -> None:
        if self.activity_set != _union_of(self.traces):
            raise ValueError("activity_set must equal the union over traces")

    @classmethod
    def from_traces(cls, traces: Iterable[Trace]) -> "EventLog":
        ts = tuple(tuple(t) for t in traces)
        return cls(traces=ts, activity_set=_union_of(ts))


@dataclass(frozen=True)
class ProcessModel:
    """The set of execution sequences a process allows."""

    model_id: str
    sequences: frozenset[Trace]
    activity_set: frozenset[Activity]
    name: str | None = None

    def __post_init__(self) -> None:
        if self.activity_set != _union_of(self.sequences):
            raise ValueError("activity_set must equal the union over sequences")

    @classmethod
    def from_sequences(
        cls,
        model_id: str,
        sequences: Iterable[Trace],
        name: str | None = None,
    ) -> "ProcessModel":
        seqs = frozenset(tuple(s) for s in sequences)
        return cls(
            model_id=model_id,
            sequences=seqs,
            activity_set=_union_of(seqs),
            name=name,
        )

    @property
    def has_empty_sequence(self) -> bool:
        return () in self.sequences

    @property
    def nonempty_sequences(self) -> list[Trace]:
        """Non-empty sequences in a canonical (sorted) order."""
        return sorted(s for s in self.sequences if s)

    def __contains__(self, trace: Trace) -> bool:
        return tuple(trace) in self.sequences


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


# The relation of (y, x) given the relation of (x, y).
MIRROR = {
    Relation.FORWARD: Relation.BACKWARD,
    Relation.BACKWARD: Relation.FORWARD,
    Relation.PARALLEL: Relation.PARALLEL,
    Relation.NONE: Relation.NONE,
}


@dataclass(frozen=True)
class Footprint:
    """Total map over ordered activity pairs to their behavioral relation."""

    activities: frozenset[Activity]
    relations: Mapping[tuple[Activity, Activity], Relation] = field(hash=False)

    def __post_init__(self) -> None:
        n = len(self.activities)
        if len(self.relations) != n * n:
            raise ValueError(f"footprint must cover all {n * n} ordered pairs")
        for (x, y), rel in self.relations.items():
            if x not in self.activities or y not in self.activities:
                raise ValueError(f"pair ({x!r}, {y!r}) outside activity set")
            if self.relations[(y, x)] is not MIRROR[rel]:
                raise ValueError(f"inconsistent mirror for pair ({x!r}, {y!r})")
        for x in self.activities:
            if self.relations[(x, x)] not in (Relation.PARALLEL, Relation.NONE):
                raise ValueError(f"diagonal entry for {x!r} must be PARALLEL or NONE")

    def relation(self, x: Activity, y: Activity) -> Relation:
        return self.relations[(x, y)]


@dataclass(frozen=True)
class EventuallyFollowsSet:
    """Ordered pairs (x, y) where y can occur at some point after x."""

    pairs: frozenset[tuple[Activity, Activity]]

    def __contains__(self, pair: tuple[Activity, Activity]) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple[Activity, Activity]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)
