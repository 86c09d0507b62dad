"""Propositional formulas: syntax trees, parsing, rendering, and universes.

Grammar (ASCII surface syntax, Unicode connectives accepted as input aliases):

    formula  ::= or_exp ( "->" formula )?          right-associative
    or_exp   ::= and_exp ( "|" and_exp )*          left-associative
    and_exp  ::= unary ( "&" unary )*              left-associative
    unary    ::= ("~" | "!") unary | "(" formula ")" | identifier

Precedence from tightest to loosest: ~  &  |  ->.  Identifiers match
``[A-Za-z_][A-Za-z0-9_]*``.  Formulas are immutable and compared
structurally; no normalization of any kind is performed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapExceededError, ParseError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Formula:
    """Base class for formula nodes (Var, Not, And, Or, Implies)."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str

    def __post_init__(self):
        if not (isinstance(self.name, str) and _IDENT_RE.fullmatch(self.name)):
            raise ValueError(f"invalid variable name: {self.name!r}")


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


# ---------------------------------------------------------------------------
# Tokenizer / parser

_NOT_CHARS = "~!¬"        # ~ ! ¬
_AND_CHARS = "&∧"         # & ∧
_OR_CHARS = "|∨"          # | ∨
_IMPLIES_CHAR = "→"       # →


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _NOT_CHARS:
            tokens.append(("not", c, i))
            i += 1
        elif c in _AND_CHARS:
            tokens.append(("and", c, i))
            i += 1
        elif c in _OR_CHARS:
            tokens.append(("or", c, i))
            i += 1
        elif c == _IMPLIES_CHAR:
            tokens.append(("implies", c, i))
            i += 1
        elif c == "-":
            if text[i : i + 2] == "->":
                tokens.append(("implies", "->", i))
                i += 2
            else:
                raise ParseError("expected '->'", i)
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        else:
            m = _IDENT_RE.match(text, i)
            if m:
                tokens.append(("ident", m.group(), i))
                i = m.end()
            else:
                raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


MAX_NESTING = 180  # tree depth cap: ~, (, -> and each &/| chain link add a level


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _descend(self, position: int) -> None:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"formula nesting exceeds {MAX_NESTING} levels", position)

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "implies":
            position = self.advance()[2]
            self._descend(position)
            right = self.implication()
            self.nesting -= 1
            return Implies(left, right)
        return left

    # Each link of a left-associative chain deepens the tree by one level.
    def disjunction(self) -> Formula:
        left = self.conjunction()
        links = 0
        while self.peek()[0] == "or":
            self._descend(self.advance()[2])
            links += 1
            left = Or(left, self.conjunction())
        self.nesting -= links
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        links = 0
        while self.peek()[0] == "and":
            self._descend(self.advance()[2])
            links += 1
            left = And(left, self.unary())
        self.nesting -= links
        return left

    def unary(self) -> Formula:
        kind, value, position = self.peek()
        if kind == "not":
            self.advance()
            self._descend(position)
            child = self.unary()
            self.nesting -= 1
            return Not(child)
        if kind == "lparen":
            self.advance()
            self._descend(position)
            inner = self.implication()
            self.nesting -= 1
            kind, value, position = self.peek()
            if kind != "rparen":
                raise ParseError("expected ')'", position)
            self.advance()
            return inner
        if kind == "ident":
            self.advance()
            return Var(value)
        if kind == "end":
            raise ParseError("unexpected end of input", position)
        raise ParseError(f"unexpected token {value!r}", position)


def parse(text: str) -> Formula:
    """Parse formula text into a Formula; raises ParseError with a position."""
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty formula", 0)
    parser = _Parser(tokens)
    result = parser.implication()
    kind, value, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r} after formula", position)
    return result


# ---------------------------------------------------------------------------
# Rendering

_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4, 5


def _render(f: Formula) -> tuple[str, int]:
    match f:
        case Var(name):
            return name, _PREC_ATOM
        case Not(child):
            text, prec = _render(child)
            if prec < _PREC_NOT:
                text = f"({text})"
            return "~" + text, _PREC_NOT
        case And(left, right):
            return _render_binary(left, right, "&", _PREC_AND), _PREC_AND
        case Or(left, right):
            return _render_binary(left, right, "|", _PREC_OR), _PREC_OR
        case Implies(left, right):
            lt, lp = _render(left)
            if lp <= _PREC_IMPLIES:
                lt = f"({lt})"
            rt, _ = _render(right)
            return f"{lt} -> {rt}", _PREC_IMPLIES
    raise TypeError(f"not a Formula: {f!r}")


def _render_binary(left: Formula, right: Formula, op: str, prec: int) -> str:
    lt, lp = _render(left)
    if lp < prec:
        lt = f"({lt})"
    rt, rp = _render(right)
    if rp <= prec:  # left-associative: parenthesize an equal-precedence right child
        rt = f"({rt})"
    return f"{lt} {op} {rt}"


def render(f: Formula) -> str:
    """Render with minimal parentheses; parse(render(f)) == f."""
    return _render(f)[0]


def variables(f: Formula) -> set[str]:
    """The set of variable names occurring in f."""
    # An explicit stack and exact-type dispatch: no recursion limit, and
    # several times faster than a recursive `match`.
    names = set()
    stack = [f]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            names.add(node.name)
        elif kind is Not:
            stack.append(node.child)
        elif kind is And or kind is Or or kind is Implies:
            stack.append(node.left)
            stack.append(node.right)
        else:
            raise TypeError(f"not a Formula: {node!r}")
    return names


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformulas of f (including f), in pre-order; may repeat."""
    yield f
    match f:
        case Var(_):
            pass
        case Not(child):
            yield from subformulas(child)
        case And(left, right) | Or(left, right) | Implies(left, right):
            yield from subformulas(left)
            yield from subformulas(right)


# ---------------------------------------------------------------------------
# Formula sets and universes


@dataclass(frozen=True, init=False)
class FormulaSet:
    """Finite ordered set of distinct formulas (insertion order preserved)."""

    items: tuple[Formula, ...]

    def __init__(self, formulas: Iterable[Formula] = ()):
        if isinstance(formulas, FormulaSet):  # already distinct: no dedupe
            object.__setattr__(self, "items", formulas.items)
            return
        seen: list[Formula] = []
        for f in formulas:
            if not isinstance(f, Formula):
                raise TypeError(f"not a Formula: {f!r}")
            if f not in seen:
                seen.append(f)
        object.__setattr__(self, "items", tuple(seen))

    @classmethod
    def _of_distinct(cls, items: tuple[Formula, ...]) -> FormulaSet:
        """Wrap formulas already known to be distinct, without a dedupe pass."""
        fs = cls.__new__(cls)
        object.__setattr__(fs, "items", items)
        return fs

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, f: object) -> bool:
        return f in self.items

    def render(self) -> str:
        return "{" + ", ".join(render(f) for f in self.items) + "}"

    def __repr__(self) -> str:
        return f"FormulaSet({self.render()})"


def parse_formula_set(text: str) -> FormulaSet:
    """Parse formula-set text: one formula per line, '#' comments, blanks ignored."""
    formulas = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            formulas.append(parse(stripped))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.position) from None
    return FormulaSet(formulas)


def format_formula_set(fs: FormulaSet) -> str:
    return "".join(render(f) + "\n" for f in fs)


def read_formula_set(path) -> FormulaSet:
    with open(path, encoding="utf-8") as handle:
        return parse_formula_set(handle.read())


CLOSURE_FLAGS = ("subformulas", "negations", "conjunctions", "with_falsum")


def falsum_of(names: Iterable[str]) -> Formula | None:
    """p0 & ~p0 for the least variable name p0; None when there is none."""
    least = min(names, default=None)
    return None if least is None else And(Var(least), Not(Var(least)))


def build_universe(
    seed: Iterable[Formula],
    flags: Iterable[str] = (),
    max_size: int = 4096,
) -> FormulaSet:
    """Close a seed set of formulas under the requested one-level closures.

    Flags: ``with_falsum`` adds p0 & ~p0 for the lexicographically least seed
    variable p0; ``subformulas`` closes under all subformulas; ``negations``
    adds ~u for everything present so far (one level); ``conjunctions`` adds
    u & v for each unordered pair of distinct pre-negation elements (one
    level).  Ordering is deterministic (insertion order by stage).
    """
    seed_items = list(FormulaSet(seed))
    if not seed_items:
        raise ValueError("seed must be non-empty")
    flag_set = list(dict.fromkeys(flags))
    for flag in flag_set:
        if flag not in CLOSURE_FLAGS:
            raise ValueError(f"unknown closure flag: {flag!r}")

    items: list[Formula] = []

    def add(f: Formula) -> None:
        if f not in items:
            if len(items) >= max_size:
                raise CapExceededError(
                    f"universe would exceed the size cap ({max_size} formulas)"
                )
            items.append(f)

    for f in seed_items:
        add(f)

    if "with_falsum" in flag_set:
        add(falsum_of(v for f in seed_items for v in variables(f)))

    if "subformulas" in flag_set:
        frontier = 0
        while frontier < len(items):
            current = items[frontier]
            frontier += 1
            for sub in subformulas(current):
                add(sub)

    core = list(items)  # negations and conjunctions both range over this snapshot
    if "negations" in flag_set:
        for f in core:
            add(Not(f))
    if "conjunctions" in flag_set:
        for i, left in enumerate(core):
            for right in core[i + 1 :]:
                add(And(left, right))

    return FormulaSet._of_distinct(tuple(items))
