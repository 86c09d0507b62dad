"""Classical propositional consequence, decided by truth tables.

Entailment A |- f is decided semantically: A |- f iff A with ~f has no
model.  Up to TABLE_VARIABLES distinct variables a formula's models are one
bitmap over the whole truth table, computed bit-parallel with &, | and
complement over per-variable row patterns; a premise set is satisfiable iff
its bitmaps intersect.  Beyond that a backtracking valuation search decides
satisfiability.  Consequence sets are never materialized; everything is a
decision procedure over finite premise sets.  The table's row order and cap
are private to this module: others ask for subset meets, holding rows and
row signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def truth_table(names: Sequence[str]) -> tuple[int, Callable[[Formula], int]]:
    """The all-rows mask and a function giving a formula's satisfying-rows bitmap.

    The table has one row per valuation of names (which must cover the
    formulas evaluated), with names[0] as the most significant row bit.
    """
    full, patterns = _row_patterns(len(names))
    pattern = dict(zip(names, patterns))
    return full, lambda f: _models(f, pattern, full)


def _names(formulas: Iterable[Formula]) -> list[str]:
    """The sorted names of the variables occurring in formulas."""
    return sorted(frozenset().union(*map(variables, formulas)))


def subset_meets(formulas: Sequence[Formula]) -> tuple[Optional[list], Callable]:
    """The table's variables, and meet(mask): the rows where the chosen formulas hold.

    Bit i of a mask chooses formulas[i].  Above TABLE_VARIABLES the variables
    are None and meet(mask) is whether the chosen set is satisfiable.
    """
    names = _names(formulas)
    if len(names) > TABLE_VARIABLES:
        return None, lambda mask: is_satisfiable(
            f for i, f in enumerate(formulas) if mask >> i & 1
        )
    full, models = truth_table(names)
    bitmaps = [models(f) for f in formulas]

    def meet(mask: int) -> int:
        bits = full
        while mask and bits:
            low = mask & -mask
            bits &= bitmaps[low.bit_length() - 1]
            mask ^= low
        return bits

    return names, meet


def holding_rows(names: Sequence[str], f: Formula) -> Optional[int]:
    """The rows over names where f holds for every value of its other variables.

    None when names and f's other variables exceed TABLE_VARIABLES.
    """
    extra = sorted(variables(f).difference(names))
    if len(names) + len(extra) > TABLE_VARIABLES:
        return None
    # Evaluate f over the table widened by its own variables (the top row
    # bits), then AND each widening's upper half into its lower half.
    full, models = truth_table([*extra, *names])
    holds = models(f)
    width, rows = full.bit_length(), 1 << len(names)
    while width > rows:
        width >>= 1
        holds &= holds >> width
    return holds


def row_signatures(formulas: Sequence[Formula]) -> set[int]:
    """Each row's signature: bit i is set iff formulas[i] holds on the row."""
    names = _names(formulas)
    if len(names) > TABLE_VARIABLES:
        raise CapExceededError(
            f"universe mentions {len(names)} variables, above the truth-table "
            f"cap of {TABLE_VARIABLES}"
        )
    # Bitmaps are written high row first; the last formula is the top bit.
    all_rows, models = truth_table(names)
    width = all_rows.bit_length()
    columns = [format(models(f), f"0{width}b") for f in reversed(formulas)]
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
    formulas = list(premises)
    names = _names(formulas)
    if len(names) > TABLE_VARIABLES:
        return _search(formulas, names)
    meet, models = truth_table(names)
    for f in formulas:
        meet &= models(f)
        if not meet:
            return False
    return True


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
    names = _names([*premise_list, *candidates])
    if len(names) > TABLE_VARIABLES:
        return classify_by(
            candidates,
            lambda: is_satisfiable(premise_list),
            lambda a: entails(premise_list, a),
            is_contradiction,
        )
    # One table for premises and candidates: A |- a iff no row of A's meet
    # falsifies a, and a is a contradiction iff no row satisfies it.
    meet, models = truth_table(names)
    for f in premise_list:
        meet &= models(f)
    return classify_by(
        candidates,
        lambda: meet != 0,
        lambda a: not meet & ~models(a),
        lambda a: not models(a),
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
