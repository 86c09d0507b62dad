"""Propositional formulas: syntax trees, parsing, rendering, and universes.

Grammar (ASCII surface syntax, Unicode connectives accepted as input aliases):

    formula  ::= or_exp ( "->" formula )?          right-associative
    or_exp   ::= and_exp ( "|" and_exp )*          left-associative
    and_exp  ::= unary ( "&" unary )*              left-associative
    unary    ::= ("~" | "!") unary | "(" formula ")" | identifier

Precedence from tightest to loosest: ~  &  |  ->.  Identifiers match
``[A-Za-z_][A-Za-z0-9_]*``.  Formulas are immutable and compared
structurally; no normalization of any kind is performed.  Each node
computes its hash and its variable set once, when it is built, from its
children's: hashing takes constant time at any depth, and ``variables``
returns the stored frozenset (a node over more than 16 names keeps none,
so memory stays linear, and ``variables`` unions the sets kept below it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapExceededError, ParseError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


_KEPT_VARIABLES = 16  # a node keeps its variable set up to this many names


class Formula:
    """Base class for formula nodes (Var, Not, And, Or, Implies).

    Every node stores its hash and, up to _KEPT_VARIABLES names, its variable
    set, both computed once at construction from its children's.  A node is
    immutable: its __init__ sets the slots through their member descriptors.
    """

    __slots__ = ("_hash", "_vars")

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _vars_of(left: Formula, right: Formula) -> frozenset[str] | None:
    """The variable set of a node over left and right, or None above the cap."""
    a, b = left._vars, right._vars
    if a is None or b is None:
        return None
    if b <= a:  # shared, not copied: a chain over few names keeps one set
        return a
    if a <= b:
        return b
    union = a | b
    return union if len(union) <= _KEPT_VARIABLES else None


def _not_a_formula(*children) -> TypeError:
    bad = next(c for c in children if not hasattr(c, "_hash"))
    return TypeError(f"not a Formula: {bad!r}")


class Var(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        if not (isinstance(name, str) and _IDENT_RE.fullmatch(name)):
            raise ValueError(f"invalid variable name: {name!r}")
        _set_name(self, name)
        _set_hash(self, hash(name))
        _set_vars(self, frozenset((name,)))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Var:
            return NotImplemented
        return self._hash == other._hash and self.name == other.name

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return Var, (self.name,)

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class Not(Formula):
    __slots__ = ("child",)
    __match_args__ = ("child",)

    def __init__(self, child: Formula):
        try:
            h = hash((1, child._hash))
        except AttributeError:
            raise _not_a_formula(child) from None
        _set_child(self, child)
        _set_hash(self, h)
        _set_vars(self, child._vars)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Not:
            return NotImplemented
        return self._hash == other._hash and self.child == other.child

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return Not, (self.child,)

    def __repr__(self) -> str:
        return f"Not(child={self.child!r})"


class _Binary(Formula):
    """The fields and behaviour And, Or and Implies share; _tag tells them apart."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        try:
            h = hash((self._tag, left._hash, right._hash))
        except AttributeError:
            raise _not_a_formula(left, right) from None
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, h)
        _set_vars(self, _vars_of(left, right))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return type(self), (self.left, self.right)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(left={self.left!r}, right={self.right!r})"


class And(_Binary):
    __slots__ = ()
    _tag = 2


class Or(_Binary):
    __slots__ = ()
    _tag = 3


class Implies(_Binary):
    __slots__ = ()
    _tag = 4


# Slot setters that bypass the raising __setattr__.
_set_hash = Formula._hash.__set__
_set_vars = Formula._vars.__set__
_set_name = Var.name.__set__
_set_child = Not.child.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__


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
    """Recursive descent; each method takes the nesting depth it starts at.

    Every occurrence of a name in one parse shares one Var.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.vars: dict[str, Var] = {}

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
            var = self.vars.get(value)
            if var is None:
                var = self.vars[value] = Var(value)
            return var
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


def variables(f: Formula) -> frozenset[str]:
    """The variable names occurring in f, as a frozenset.

    Up to 16 names this is the set the node stored when it was built.
    """
    try:
        names = f._vars
    except AttributeError:
        raise TypeError(f"not a Formula: {f!r}") from None
    if names is not None:
        return names
    # f has more than _KEPT_VARIABLES names: union the sets kept below it,
    # walking an explicit stack (no recursion limit).
    found: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node._vars is not None:
            found |= node._vars
        elif type(node) is Not:
            stack.append(node.child)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(found)


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
        seen: dict[Formula, None] = {}  # insertion-ordered, with hashed membership
        for f in formulas:
            if not isinstance(f, Formula):
                raise TypeError(f"not a Formula: {f!r}")
            seen[f] = None
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
