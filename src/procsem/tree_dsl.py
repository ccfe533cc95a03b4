"""Textual process-tree language: parsing and canonical rendering.

Grammar (whitespace between tokens is ignored):

    tree     := operator '(' tree (',' tree)* ')' | leaf
    operator := '->' | 'X' | '+' | '*'
    leaf     := 'tau' | quoted
    quoted   := "'" (escaped characters) "'"

Inside quoted labels, backslash escapes the next character, so labels may
contain quotes (``'it\\'s'``). Unicode operator spellings are accepted on
input and rewritten to their ASCII forms when rendering.

Directly-follows edges use one arrow per line: ``'a' -> 'b'``.
"""

from __future__ import annotations

import re

from .core import (
    ArityError,
    EmptyLabelError,
    Frozen,
    Leaf,
    OpKind,
    Operator,
    ProcessTree,
    Silent,
    fold_tree,
    normalize_label,
)

# The parser descends one call per nesting level, so this bound keeps the
# parsing of untrusted text well inside the default recursion limit of 1,000.
MAX_DEPTH = 250

_UNICODE_OPS = {
    "\u2192": "->",  # →
    "\u00d7": "X",  # ×
    "\u2227": "+",  # ∧
    "\u21ba": "*",  # ↺
}

_OP_TOKENS = {
    "->": OpKind.SEQ,
    "X": OpKind.XOR,
    "+": OpKind.AND,
    "*": OpKind.LOOP,
}

_TAU_SPELLINGS = {"tau", "\u03c4"}  # τ


_UNESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(raw: str) -> str:
    """Drop the backslash of every escape in a quoted label's body; a
    backslash escapes any character, newline included."""
    if "\\" not in raw:
        return raw
    return _UNESCAPE_RE.sub(r"\1", raw)


class TreeSyntaxError(ValueError):
    """Raised for any malformed tree text; carries the offending position."""

    def __init__(self, position: int, reason: str) -> None:
        super().__init__(f"at position {position}: {reason}")
        self.position = position
        self.reason = reason


# A token is (kind, value, position); kind is one of "op", "lparen",
# "rparen", "comma", "label", "tau".
_Token = tuple[str, str, int]

_SINGLE_CHAR_TOKENS = {
    **{ch: ("op", op) for ch, op in _UNICODE_OPS.items()},
    **{op: ("op", op) for op in "X+*"},
    "(": ("lparen", "("),
    ")": ("rparen", ")"),
    ",": ("comma", ","),
}

# A quoted label up to, not including, its closing quote. Where the match
# stops short of a quote, the label is unterminated or ends in a dangling
# escape.
_LABEL_BODY_RE = re.compile(r"'([^'\\]*(?:\\.[^'\\]*)*)", re.DOTALL)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            match = _LABEL_BODY_RE.match(text, i)
            j = match.end()
            if j >= n:
                raise TreeSyntaxError(i, "unterminated label")
            if text[j] == "\\":
                raise TreeSyntaxError(j, "dangling escape in label")
            tokens.append(("label", _unescape(match.group(1)), i))
            i = j + 1
            continue
        single = _SINGLE_CHAR_TOKENS.get(ch)
        if single is not None:
            tokens.append((*single, i))
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("op", "->", i))
            i += 2
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word in _TAU_SPELLINGS:
                tokens.append(("tau", word, i))
                i = j
                continue
            raise TreeSyntaxError(i, f"unexpected word {word!r}")
        raise TreeSyntaxError(i, f"unexpected character {ch!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], text_length: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.end = text_length

    def peek(self) -> _Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise TreeSyntaxError(self.end, f"expected {kind}, found end of input")
        if tok[0] != kind:
            raise TreeSyntaxError(tok[2], f"expected {kind}, found {tok[0]}")
        self.pos += 1
        return tok

    def parse_tree(self, depth: int) -> ProcessTree:
        if depth > MAX_DEPTH:
            tok = self.peek()
            position = tok[2] if tok else self.end
            raise TreeSyntaxError(position, f"nesting deeper than {MAX_DEPTH}")
        tok = self.peek()
        if tok is None:
            raise TreeSyntaxError(self.end, "expected a tree, found end of input")
        kind, value, position = tok
        if kind == "label":
            self.pos += 1
            try:
                return Leaf(value)
            except EmptyLabelError:
                raise TreeSyntaxError(position, "empty activity label") from None
        if kind == "tau":
            self.pos += 1
            return Silent()
        if kind == "op":
            self.pos += 1
            self.take("lparen")
            children = [self.parse_tree(depth + 1)]
            while True:
                nxt = self.peek()
                if nxt is not None and nxt[0] == "comma":
                    self.pos += 1
                    children.append(self.parse_tree(depth + 1))
                    continue
                break
            self.take("rparen")
            try:
                return Operator(_OP_TOKENS[value], tuple(children))
            except ArityError as exc:
                raise TreeSyntaxError(position, str(exc)) from None
        raise TreeSyntaxError(position, f"unexpected {kind}")


def parse_tree(text: str) -> ProcessTree:
    """Parse tree text into a process tree. Raises TreeSyntaxError."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, len(text))
    tree = parser.parse_tree(0)
    trailing = parser.peek()
    if trailing is not None:
        raise TreeSyntaxError(trailing[2], "trailing input after tree")
    return tree


def _quote(label: str) -> str:
    escaped = label.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def render_tree(tree: ProcessTree) -> str:
    """Canonical ASCII rendering; parse_tree(render_tree(t)) == t."""
    return fold_tree(tree, _quote, "tau", lambda kind, parts: f"{kind.value}({', '.join(parts)})")


# ---------------------------------------------------------------------------
# Directly-follows edge lines

_EDGE_RE = re.compile(
    r"'((?:\\.|[^'\\])*)'\s*(?:->|\u2192)\s*'((?:\\.|[^'\\])*)'"
)


class EdgeParse(Frozen):
    """Edges recovered from text plus the non-blank lines that matched nothing."""

    def __init__(self, edges: tuple[tuple[str, str], ...], skipped: tuple[str, ...]) -> None:
        self.__dict__.update(edges=edges, skipped=skipped)


def parse_dfg_edges(text: str) -> EdgeParse:
    """Extract ``'a' -> 'b'`` edges, one per line.

    Each line is scanned for edge patterns; non-blank lines without any
    match are recorded as skipped. Labels are normalized; lines whose labels
    normalize to empty are skipped. Duplicate edges collapse to one.
    """
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    skipped: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        matches = list(_EDGE_RE.finditer(line))
        if not matches:
            skipped.append(stripped)
            continue
        for match in matches:
            try:
                source = normalize_label(_unescape(match.group(1)))
                target = normalize_label(_unescape(match.group(2)))
            except ValueError:
                skipped.append(stripped)
                continue
            edge = (source, target)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return EdgeParse(edges=tuple(edges), skipped=tuple(skipped))


def render_dfg_edges(edges: list[tuple[str, str]] | tuple[tuple[str, str], ...]) -> str:
    """Render edges one per line, sorted, in the same quoting as tree labels."""
    return "\n".join(f"{_quote(x)} -> {_quote(y)}" for x, y in sorted(edges))
