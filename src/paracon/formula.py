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

# One alternative per token kind, named by its group.  Any other character
# but whitespace lands in "bad", so finditer skips exactly the whitespace.
_TOKEN_RE = re.compile(
    r"(?P<not>[~!¬])|(?P<and>[&∧])|(?P<or>[|∨])|(?P<implies>->|→)"
    rf"|(?P<lparen>\()|(?P<rparen>\))|(?P<ident>{_IDENT_RE.pattern})|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, c, position in tokens:
        if kind == "bad":
            message = "expected '->'" if c == "-" else f"unexpected character {c!r}"
            raise ParseError(message, position)
    tokens.append(("end", "", len(text)))
    return tokens


MAX_NESTING = 180  # tree depth cap: ~, (, -> and each &/| chain link add a level


def _deeper(depth: int, position: int) -> int:
    if depth == MAX_NESTING:
        raise ParseError(f"formula nesting exceeds {MAX_NESTING} levels", position)
    return depth + 1


class _Parser:
    """Recursive descent; each method takes the nesting depth it starts at."""

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def implication(self, depth: int) -> Formula:
        left = self.disjunction(depth)
        if self.peek()[0] == "implies":
            return Implies(left, self.implication(_deeper(depth, self.advance()[2])))
        return left

    # Each link of a left-associative chain deepens the tree by one level.
    def disjunction(self, depth: int) -> Formula:
        left = self.conjunction(depth)
        while self.peek()[0] == "or":
            depth = _deeper(depth, self.advance()[2])
            left = Or(left, self.conjunction(depth))
        return left

    def conjunction(self, depth: int) -> Formula:
        left = self.unary(depth)
        while self.peek()[0] == "and":
            depth = _deeper(depth, self.advance()[2])
            left = And(left, self.unary(depth))
        return left

    def unary(self, depth: int) -> Formula:
        kind, value, position = self.advance()
        if kind == "not":
            return Not(self.unary(_deeper(depth, position)))
        if kind == "lparen":
            inner = self.implication(_deeper(depth, position))
            kind, value, position = self.advance()
            if kind != "rparen":
                raise ParseError("expected ')'", position)
            return inner
        if kind == "ident":
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
    result = parser.implication(0)
    kind, value, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r} after formula", position)
    return result


# ---------------------------------------------------------------------------
# Rendering

# (precedence, symbol) per node type; a higher precedence binds tighter.
_SYNTAX = {
    Implies: (1, " -> "),
    Or: (2, " | "),
    And: (3, " & "),
    Not: (4, "~"),
    Var: (5, ""),
}


def _render(f: Formula) -> tuple[str, int]:
    kind = type(f)
    if kind not in _SYNTAX:
        raise TypeError(f"not a Formula: {f!r}")
    prec, symbol = _SYNTAX[kind]
    if kind is Var:
        return f.name, prec
    if kind is Not:
        text, inner = _render(f.child)
        return symbol + (text if inner >= prec else f"({text})"), prec
    lt, lp = _render(f.left)
    rt, rp = _render(f.right)
    # A child binding looser than its parent gets parentheses, and so does
    # an equal-precedence child on the side opposite the associativity:
    # the left of the right-associative ->, the right of & and |.
    right_assoc = kind is Implies
    if lp < prec or lp == prec and right_assoc:
        lt = f"({lt})"
    if rp < prec or rp == prec and not right_assoc:
        rt = f"({rt})"
    return lt + symbol + rt, prec


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
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        kind = type(node)
        if kind is Not:
            stack.append(node.child)
        elif kind is And or kind is Or or kind is Implies:
            stack.append(node.right)  # popped after the whole left subtree
            stack.append(node.left)
        elif kind is not Var:
            raise TypeError(f"not a Formula: {node!r}")


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
    # Parsed nodes are Formulas: a dict dedupes them in linear time.
    return FormulaSet._of_distinct(tuple(dict.fromkeys(formulas)))


def format_formula_set(fs: FormulaSet) -> str:
    return "".join(render(f) + "\n" for f in fs)


def read_formula_set(path) -> FormulaSet:
    with open(path, encoding="utf-8") as handle:
        return parse_formula_set(handle.read())


CLOSURE_FLAGS = ("subformulas", "negations", "conjunctions", "with_falsum")
MAX_UNIVERSE = 4096  # the most formulas build_universe returns


def falsum_of(names: Iterable[str]) -> Formula | None:
    """p0 & ~p0 for the least variable name p0; None when there is none."""
    least = min(names, default=None)
    return None if least is None else And(Var(least), Not(Var(least)))


def build_universe(seed: Iterable[Formula], flags: Iterable[str] = ()) -> FormulaSet:
    """Close a seed set of formulas under the requested one-level closures.

    Flags: ``with_falsum`` adds p0 & ~p0 for the lexicographically least seed
    variable p0; ``subformulas`` closes under all subformulas; ``negations``
    adds ~u for everything present so far (one level); ``conjunctions`` adds
    u & v for each unordered pair of distinct pre-negation elements (one
    level).  Ordering is deterministic (insertion order by stage).
    """
    items: dict[Formula, None] = {}  # insertion-ordered, with hashed membership

    def add(f: Formula) -> None:
        if f not in items:
            if len(items) >= MAX_UNIVERSE:
                raise CapExceededError(
                    f"universe would exceed the size cap ({MAX_UNIVERSE} formulas)"
                )
            items[f] = None

    # The seed goes through the cap too, before any closure work.
    for f in seed:
        if not isinstance(f, Formula):
            raise TypeError(f"not a Formula: {f!r}")
        add(f)
    if not items:
        raise ValueError("seed must be non-empty")
    flag_set = list(dict.fromkeys(flags))
    for flag in flag_set:
        if flag not in CLOSURE_FLAGS:
            raise ValueError(f"unknown closure flag: {flag!r}")

    if "with_falsum" in flag_set:
        add(falsum_of(v for f in items for v in variables(f)))  # items: the seed

    if "subformulas" in flag_set:
        # One pass: a subformula's own subformulas are already among its
        # parent's, so walking the added nodes again adds nothing.
        for f in list(items):
            for sub in subformulas(f):
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
