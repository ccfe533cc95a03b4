"""Seeded random process-tree corpora for desk-scale testing.

Every generated tree uses each activity label exactly once across its
leaves, has at least two activities, a unique activity set within the
corpus, and a language within the sequence budget (counted, not played
out), so the whole corpus passes validation unchanged.
"""

from __future__ import annotations

import random

from .core import Leaf, OpKind, Operator, ProcessModel, ProcessTree, Silent
from .semantics import DEFAULT_MAX_SEQUENCES, LanguageTooLargeError, language_size
from .taskgen import model_rng

_VERBS = (
    "create", "review", "approve", "reject", "submit", "archive", "assign",
    "cancel", "close", "dispatch", "escalate", "invoice", "notify", "pack",
    "pay", "plan", "receive", "release", "schedule", "ship", "verify",
)

_NOUNS = (
    "order", "request", "claim", "invoice", "shipment", "contract", "ticket",
    "application", "payment", "report", "quote", "return", "complaint",
    "delivery", "account", "budget", "proposal", "refund", "batch", "audit",
)

_OP_WEIGHTS = (
    (OpKind.SEQ, 0.45),
    (OpKind.XOR, 0.30),
    (OpKind.AND, 0.15),
    (OpKind.LOOP, 0.10),
)

_MAX_DEPTH = 6
_MAX_TREE_ATTEMPTS = 20

# Activity-count weights decay with size, keeping the corpus median near 4.
def _draw_activity_count(rng: random.Random, low: int, high: int) -> int:
    sizes = list(range(low, high + 1))
    weights = [1.0 / (s - low + 1) ** 0.5 for s in sizes]
    return rng.choices(sizes, weights=weights, k=1)[0]


def _partition(labels: list[str], groups: int, rng: random.Random) -> list[list[str]]:
    shuffled = list(labels)
    rng.shuffle(shuffled)
    cuts = sorted(rng.sample(range(1, len(shuffled)), groups - 1))
    bounds = [0, *cuts, len(shuffled)]
    return [shuffled[a:b] for a, b in zip(bounds, bounds[1:])]


def _draw_op(rng: random.Random) -> OpKind:
    kinds = [k for k, _ in _OP_WEIGHTS]
    weights = [w for _, w in _OP_WEIGHTS]
    return rng.choices(kinds, weights=weights, k=1)[0]


def _build(
    labels: list[str], rng: random.Random, tau_prob: float, depth: int
) -> ProcessTree:
    if len(labels) == 1:
        return Leaf(labels[0])
    if depth >= _MAX_DEPTH:
        return Operator(OpKind.SEQ, tuple(Leaf(x) for x in labels))
    kind = _draw_op(rng)
    groups = 2 if kind is OpKind.LOOP else rng.randint(2, min(4, len(labels)))
    parts = _partition(labels, groups, rng)
    children: list[ProcessTree] = [
        _build(part, rng, tau_prob, depth + 1) for part in parts
    ]
    if kind is OpKind.XOR and tau_prob > 0 and rng.random() < tau_prob:
        children.append(Silent())
    return Operator(kind, tuple(children))


def _build_model_tree(
    labels: list[str],
    rng: random.Random,
    tau_prob: float,
    min_trace_len: int,
    max_sequences: int,
) -> ProcessTree:
    for _ in range(_MAX_TREE_ATTEMPTS):
        if min_trace_len > 0:
            # A SEQ root over tau-free children emits one event per child at
            # minimum, enforcing the trace-length floor.
            groups = rng.randint(
                max(2, min_trace_len), max(max(2, min_trace_len), min(6, len(labels)))
            )
            parts = _partition(labels, groups, rng)
            tree: ProcessTree = Operator(
                OpKind.SEQ, tuple(_build(p, rng, 0.0, 1) for p in parts)
            )
        else:
            tree = _build(labels, rng, tau_prob, 0)
        try:
            language_size(tree, max_sequences)
        except LanguageTooLargeError:
            continue
        return tree
    return Operator(OpKind.SEQ, tuple(Leaf(x) for x in labels))


def synth_corpus(
    n_models: int,
    seed: int,
    min_activities: int = 2,
    max_activities: int = 8,
    tau_prob: float = 0.15,
    min_trace_len: int = 0,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> list[ProcessModel]:
    """Generate n_models random tree models, deterministically per seed.

    min_trace_len > 0 forces every execution sequence to contain at least
    that many events (and requires min_activities >= min_trace_len).
    """
    if n_models < 1:
        raise ValueError("n_models must be positive")
    if not 2 <= min_activities <= max_activities:
        raise ValueError("need 2 <= min_activities <= max_activities")
    if not 0.0 <= tau_prob <= 1.0:
        raise ValueError("tau_prob must lie in [0, 1]")
    if not 0 <= min_trace_len <= min_activities:
        raise ValueError("need 0 <= min_trace_len <= min_activities")
    pool = [f"{v} {n}" for v in _VERBS for n in _NOUNS]
    if max_activities > len(pool):
        raise ValueError(f"max_activities cannot exceed {len(pool)}")
    models: list[ProcessModel] = []
    seen_sets: set[frozenset[str]] = set()
    serial = 0
    for i in range(n_models):
        model_id = f"m{i:05d}"
        rng = model_rng(seed, "synth", model_id)
        count = _draw_activity_count(rng, min_activities, max_activities)
        labels: list[str] = []
        for _ in range(50):
            labels = rng.sample(pool, count)
            if frozenset(labels) not in seen_sets:
                break
        else:
            serial += 1
            labels[-1] = f"{labels[-1]} {serial}"
        seen_sets.add(frozenset(labels))
        tree = _build_model_tree(labels, rng, tau_prob, min_trace_len, max_sequences)
        models.append(ProcessModel(model_id, tree))
    return models
