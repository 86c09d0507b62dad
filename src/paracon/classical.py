"""Classical propositional consequence, decided by truth tables.

Entailment A |- f is decided semantically: A |- f iff A with ~f has no
model.  Up to TABLE_VARIABLES distinct variables a formula's models are one
bitmap over the whole truth table, computed bit-parallel with &, | and
complement over per-variable row patterns; a premise set is satisfiable iff
its bitmaps intersect.  Beyond that a backtracking valuation search decides
satisfiability.  Consequence sets are never materialized; everything is a
decision procedure over finite premise sets.  Every question goes through
one compiled premise set, which holds the table route and the search route;
the table's row order and cap are private to this module, and others ask
the compiled set for meets and supports, or ask for row signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import CapExceededError
from .formula import And, Formula, FormulaSet, Implies, Not, Or, Var, variables

Valuation = Mapping[str, bool]


TABLE_VARIABLES = 16  # above this many variables satisfiability backtracks


def tile(block: int, period: int, width: int) -> int:
    """block repeated every period bits up to width bits, by doubling.

    width / period must be a power of two.  log2(width / period) shifts and
    ORs, where a big-int division by the repeating ones would cost far more.
    """
    while period < width:
        block |= block << period
        period <<= 1
    return block


@lru_cache(maxsize=None)
def _row_patterns(k: int) -> tuple[int, tuple[int, ...]]:
    """The all-rows mask and one row pattern per variable of a k-variable table.

    Bit r of pattern i is the value of variable i in row r, where variable 0
    is the most significant row bit: the row order of
    itertools.product((False, True), repeat=k).
    """
    rows = 1 << k
    patterns = []
    for i in range(k):
        half = 1 << (k - 1 - i)
        # `half` false rows then `half` true rows, repeated down the table
        patterns.append(tile(((1 << half) - 1) << half, 2 * half, rows))
    return (1 << rows) - 1, tuple(patterns)


def _models(f: Formula, pattern: Mapping[str, int], full: int) -> int:
    """Bitmap of the rows satisfying f, given each variable's row pattern."""
    # Dispatch on the exact node type: several times faster than `match`.
    kind = type(f)
    if kind is Var:
        return pattern[f.name]
    if kind is Not:
        return full ^ _models(f.child, pattern, full)
    if kind is And:
        return _models(f.left, pattern, full) & _models(f.right, pattern, full)
    if kind is Or:
        return _models(f.left, pattern, full) | _models(f.right, pattern, full)
    if kind is Implies:
        return (full ^ _models(f.left, pattern, full)) | _models(f.right, pattern, full)
    raise TypeError(f"not a Formula: {f!r}")


class _PremiseSet:
    """A premise tuple compiled once: its names and, within the cap, its table.

    Bit i of a mask chooses formulas[i].  Up to TABLE_VARIABLES names it
    holds the all-rows mask, each name's row pattern (names[0] is the most
    significant row bit) and each member's bitmap, computed when a meet first
    reaches it, so a meet that empties early evaluates no more members.
    Above the cap `pattern` is None: meet asks is_satisfiable of the chosen
    members alone, and first_support scans with classical entailment.
    """

    __slots__ = ("formulas", "names", "full", "pattern", "bitmaps")

    def __init__(self, formulas: Sequence[Formula]):
        self.formulas = formulas
        self.names = sorted(frozenset().union(*map(variables, formulas)))
        self.pattern = None
        self.bitmaps: dict[int, int] = {}
        if len(self.names) <= TABLE_VARIABLES:
            self.full, patterns = _row_patterns(len(self.names))
            self.pattern = dict(zip(self.names, patterns))

    def rows(self, f: Formula) -> int:
        """The rows where f, a formula over the names, holds."""
        return _models(f, self.pattern, self.full)

    def chosen(self, mask: int) -> list[Formula]:
        return [f for i, f in enumerate(self.formulas) if mask >> i & 1]

    def meet(self, mask: int) -> int:
        """The rows where the chosen members hold; above the cap, whether any do."""
        if self.pattern is None:
            return is_satisfiable(self.chosen(mask))
        bits, bitmaps = self.full, self.bitmaps
        while mask and bits:
            low = mask & -mask
            i = low.bit_length() - 1
            rows = bitmaps.get(i)
            if rows is None:
                rows = bitmaps[i] = self.rows(self.formulas[i])
            bits &= rows
            mask ^= low
        return bits

    def holding_rows(self, f: Formula) -> Optional[int]:
        """The rows where f holds for every value of its other variables.

        None when the names and f's other variables exceed TABLE_VARIABLES.
        """
        if self.pattern is None:
            return None
        extra = sorted(variables(f).difference(self.names))
        names = [*extra, *self.names]
        if len(names) > TABLE_VARIABLES:
            return None
        # Evaluate f over the table widened by its own variables (the top row
        # bits), then AND each widening's upper half into its lower half.
        full, patterns = _row_patterns(len(names))
        holds = _models(f, dict(zip(names, patterns)), full)
        width = full.bit_length()
        while width > self.full.bit_length():
            width >>= 1
            holds &= holds >> width
        return holds

    def first_support(self, supports: Iterable[tuple], f: Formula) -> Optional[int]:
        """The first mask of (mask, meet(mask)) pairs whose members entail f, or None."""
        holds = self.holding_rows(f)
        if holds is None:
            return next((m for m, _ in supports if entails(self.chosen(m), f)), None)
        # M |- f iff no row where M's members hold falsifies f.
        falsified = ~holds
        return next((m for m, bits in supports if not bits & falsified), None)

    def support_test(self, supports: Sequence[tuple]) -> Callable:
        """first_support over kept pairs, which hold the rows: drop the bitmaps."""
        self.bitmaps = {}
        return partial(self.first_support, supports)


def row_signatures(formulas: Sequence[Formula]) -> set[int]:
    """Each row's signature: bit i is set iff formulas[i] holds on the row."""
    table = _PremiseSet(formulas)
    if table.pattern is None:
        raise CapExceededError(
            f"universe mentions {len(table.names)} variables, above the truth-table "
            f"cap of {TABLE_VARIABLES}"
        )
    # Bitmaps are written high row first; the last formula is the top bit.
    width = table.full.bit_length()
    columns = [format(table.rows(f), f"0{width}b") for f in reversed(formulas)]
    return {int("".join(bits), 2) for bits in zip(*columns)}


def evaluate(f: Formula, valuation: Valuation) -> bool:
    """Truth value of f under a valuation total over variables(f)."""
    pattern = {name: 1 if value else 0 for name, value in valuation.items()}
    return _models(f, pattern, 1) == 1


def _evaluate_partial(f: Formula, valuation: dict[str, bool]) -> Optional[bool]:
    # Three-valued short-circuit evaluation for the backtracking search;
    # None means "not yet decided".
    kind = type(f)
    if kind is Var:
        return valuation.get(f.name)
    if kind is Not:
        value = _evaluate_partial(f.child, valuation)
        return None if value is None else not value
    if kind is And:
        lv = _evaluate_partial(f.left, valuation)
        if lv is False:
            return False
        rv = _evaluate_partial(f.right, valuation)
        if rv is False:
            return False
        return True if (lv is True and rv is True) else None
    if kind is Or:
        lv = _evaluate_partial(f.left, valuation)
        if lv is True:
            return True
        rv = _evaluate_partial(f.right, valuation)
        if rv is True:
            return True
        return False if (lv is False and rv is False) else None
    if kind is Implies:
        lv = _evaluate_partial(f.left, valuation)
        if lv is False:
            return True
        rv = _evaluate_partial(f.right, valuation)
        if rv is True:
            return True
        return False if (lv is True and rv is False) else None
    raise TypeError(f"not a Formula: {f!r}")


def is_satisfiable(premises: Iterable[Formula]) -> bool:
    """True iff some valuation satisfies every premise (empty set: True)."""
    table = _PremiseSet(list(premises))
    if table.pattern is None:
        return _search(table.formulas, table.names)
    return bool(table.meet((1 << len(table.formulas)) - 1))


def _search(formulas: list[Formula], names: list[str]) -> bool:
    # Depth-first over valuations (names in order, False before True), each
    # node pruned by three-valued evaluation; a loop, so any number of names.
    # A node checks only the formulas over the name it set: the others were
    # not False at its parent (and, each having a variable, undecided at the root).
    mentions: dict[str, list[Formula]] = {name: [] for name in names}
    for f in formulas:
        for name in variables(f):
            mentions[name].append(f)
    valuation: dict[str, bool] = {}  # names[:len(valuation)], in insertion order
    checked: list[Formula] = []
    while True:
        if all(_evaluate_partial(f, valuation) is not False for f in checked):
            if len(valuation) == len(names):
                return True
            valuation[names[len(valuation)]] = False
        else:
            # Back up to the deepest name still False and set it True.
            while valuation:
                name, value = valuation.popitem()
                if not value:
                    valuation[name] = True
                    break
            else:
                return False
        checked = mentions[next(reversed(valuation))]


def entails(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """A |- f, decided as unsatisfiability of A with the negated conclusion."""
    return not is_satisfiable([*premises, Not(conclusion)])


def is_theorem(f: Formula) -> bool:
    return entails((), f)


def is_contradiction(f: Formula) -> bool:
    """True iff {f} is unsatisfiable (so {f} entails everything)."""
    return not is_satisfiable([f])


@dataclass(frozen=True)
class SetClassification:
    consistent: bool
    contradictory: bool
    strongly_contradictory: bool
    paraconsistent: bool
    witness: Optional[Formula]


def classify(
    premises: Iterable[Formula], candidates: FormulaSet
) -> SetClassification:
    """Classify a premise set by searching the candidate universe.

    contradictory: some candidate a has A |- a and A |- ~a;
    strongly contradictory: some candidate contradiction a has A |- a;
    paraconsistent: consistent and contradictory (never both, classically).
    """
    premise_list = list(premises)
    table = _PremiseSet([*premise_list, *candidates])
    mask = (1 << len(premise_list)) - 1
    meet = table.meet(mask)
    if table.pattern is None:
        return classify_by(
            candidates,
            lambda: meet,
            lambda a: table.first_support([(mask, meet)], a) is not None,
            is_contradiction,
        )
    # One table for premises and candidates: A |- a iff no row of A's meet
    # falsifies a, and a is a contradiction iff no row satisfies it.
    return classify_by(
        candidates,
        lambda: meet != 0,
        lambda a: not meet & ~table.rows(a),
        lambda a: not table.rows(a),
    )


def classify_by(
    candidates: FormulaSet,
    consistent: Callable[[], bool],
    derives: Callable[[Formula], bool],
    contradiction: Callable[[Formula], bool],
) -> SetClassification:
    """Classify a premise set by its consistency, derivation and contradiction tests.

    The witness is the first contradictory candidate (a and ~a both
    derivable), or else the first derivable contradiction.
    """
    if len(candidates) == 0:
        raise ValueError("candidate universe must be non-empty")
    is_consistent = consistent()
    contradictory_witness = next(
        (a for a in candidates if derives(a) and derives(Not(a))), None
    )
    strong_witness = next(
        (a for a in candidates if contradiction(a) and derives(a)), None
    )
    contradictory = contradictory_witness is not None
    return SetClassification(
        consistent=is_consistent,
        contradictory=contradictory,
        strongly_contradictory=strong_witness is not None,
        paraconsistent=is_consistent and contradictory,
        witness=contradictory_witness if contradictory else strong_witness,
    )
