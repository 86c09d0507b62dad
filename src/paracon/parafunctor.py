"""The paraconsistentization transform and paraclassical entailment.

The transform replaces a consequence operator Cn by

    CnP(A) = union of Cn(A') over the consistent subsets A' of A

so contradictory premise sets stop entailing everything.  On finite
structures the union is one sum-over-subsets sweep of the table packed into
one int: one shift-and-OR per atom.  For classical logic the derived
entailment relation A |-P f ("some consistent subset of A entails f") is
decided by scanning maximal consistent subsets: classical entailment is
monotone, so every consistent subset extends to a maximal one inside A and
the scan is sound and complete.

Each premise set is compiled once (and cached): its MCSes in canonical order
and, up to TABLE_VARIABLES variables, its truth table with each MCS's rows,
the AND of its members' satisfying-rows bitmaps.  A query then evaluates f
once over that table and is one AND per MCS: M |- f iff no row of M
falsifies f.  Wider sets scan the MCSes with classical entailment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .classical import (
    TABLE_VARIABLES,
    SetClassification,
    classify_by,
    entails,
    is_contradiction,
    is_satisfiable,
    truth_table,
)
from .errors import CapExceededError
from .formula import Formula, FormulaSet, variables
from .structures import FiniteConsequenceStructure, sweep_table

MCS_CAP = 20


@dataclass(frozen=True)
class FunctorOptions:
    """inclusive=True additionally unions A itself into CnP(A)."""

    inclusive: bool = False


@dataclass(frozen=True)
class ParaWitness:
    conclusion: Formula
    support: FormulaSet
    maximal: bool


def paraconsistentize_finite(
    structure: FiniteConsequenceStructure,
    options: FunctorOptions = FunctorOptions(),
) -> FiniteConsequenceStructure:
    """Apply the transform to a finite structure as a sum over subsets.

    Inconsistent entries are zeroed, then one sweep_table pass ORs every
    subset's entry into each of its supersets.  The inclusive transform
    first ORs each subset into its own entry: the union of the subsets of A
    is A, so the sweep then gives CnP(A) with A.  Only the table is read, so
    any table, closure operator or not, gets CnP as defined.

    Homomorphisms (injective maps h with h(Cn(A)) == Cn'(h(A))): every h
    that reflects consistency (h(A) consistent implies A consistent) stays a
    homomorphism between the transformed structures.  In general h stays
    one exactly when, for each inconsistent A' whose image h(A') is
    consistent, the union of Cn(B) over the consistent subsets B of A' is
    the whole domain; proper injections can fail this.
    """
    full = structure.full_mask
    if options.inclusive:
        values = [(0 if v == full else v) | m for m, v in enumerate(structure.table)]
    else:
        values = [0 if v == full else v for v in structure.table]
    table = sweep_table(values, structure.n_atoms, union=True)
    return FiniteConsequenceStructure(structure.domain, table, structure.negation)


class _PremiseTable(NamedTuple):
    masks: tuple[int, ...]  # the MCSes: descending size, then ascending mask
    names: Optional[tuple[str, ...]]  # the table's variables; None above the cap
    rows: tuple[int, ...]  # per MCS, the AND of its members' bitmaps; () above the cap


# An entry keeps every MCS's rows, up to 2**16 bits each (0.57 MB for 128
# MCSes over 16 variables), so at most 256 sets stay cached.
@lru_cache(maxsize=256)
def _mcs_masks(items: tuple[Formula, ...]) -> _PremiseTable:
    n = len(items)
    names = sorted({v for f in items for v in variables(f)})
    if len(names) <= TABLE_VARIABLES:
        # One satisfying-rows bitmap per premise: a subset's rows are the AND
        # of its members' bitmaps, lowest bit first, cut at the first empty one.
        full, models = truth_table(names)
        bitmaps = [models(f) for f in items]

        def rows_of(mask: int) -> int:
            bits = full
            while mask and bits:
                low = mask & -mask
                bits &= bitmaps[low.bit_length() - 1]
                mask ^= low
            return bits

    else:
        # Beyond TABLE_VARIABLES: one backtracking search per mask tested.
        def rows_of(mask: int) -> bool:
            return is_satisfiable(items[i] for i in range(n) if mask >> i & 1)

    # Masks by descending cardinality, ties in ascending order (the sort is
    # stable under reverse); a mask is maximal iff satisfiable and not
    # contained in an earlier maximal one.
    found: list[int] = []
    rows: list[int] = []
    for mask in sorted(range(1 << n), key=int.bit_count, reverse=True):
        if any(mask & big == mask for big in found):
            continue
        bits = rows_of(mask)
        if bits:
            found.append(mask)
            rows.append(bits)
    if len(names) > TABLE_VARIABLES:
        return _PremiseTable(tuple(found), None, ())
    # An MCS's rows are exactly the rows whose true premises are that MCS.
    return _PremiseTable(tuple(found), tuple(names), tuple(rows))


def _premise_items(premises: Iterable[Formula], max_size: int) -> tuple[Formula, ...]:
    items = FormulaSet(premises).items
    if len(items) > max_size:
        raise CapExceededError(
            f"premise set of {len(items)} formulas exceeds the cap of {max_size}"
        )
    return items


def _subset(items: tuple[Formula, ...], mask: int) -> FormulaSet:
    # items come deduped from _premise_items: no second dedupe pass.
    return FormulaSet._of_distinct(
        tuple(items[i] for i in range(len(items)) if mask >> i & 1)
    )


def maximal_consistent_subsets(
    premises: Iterable[Formula], max_size: int = MCS_CAP
) -> list[FormulaSet]:
    """All subset-maximal satisfiable subsets, in deterministic order."""
    items = _premise_items(premises, max_size)
    return [_subset(items, mask) for mask in _mcs_masks(items).masks]


def _first_support(
    items: tuple[Formula, ...], table: _PremiseTable, conclusion: Formula
) -> Optional[int]:
    """The first MCS (canonical order) entailing conclusion, as a mask, or None."""
    if table.names is not None:
        extra = sorted(variables(conclusion).difference(table.names))
        if len(table.names) + len(extra) <= TABLE_VARIABLES:
            # Evaluate the conclusion over the premise table widened by its
            # own variables (as the most significant row bits), then AND the
            # halves of each widening: a premise row holds f only if f holds
            # for every value of the variables no premise mentions.
            full, models = truth_table([*extra, *table.names])
            holds = models(conclusion)
            width, premise_rows = full.bit_length(), 1 << len(table.names)
            while width > premise_rows:
                width >>= 1
                holds &= holds >> width
            falsified = ~holds
            return next(
                (m for m, r in zip(table.masks, table.rows) if not r & falsified), None
            )
    return next(
        (m for m in table.masks if entails(_subset(items, m), conclusion)), None
    )


def para_entails(
    premises: Iterable[Formula], conclusion: Formula, max_size: int = MCS_CAP
) -> Optional[ParaWitness]:
    """A |-P f: the first maximal consistent subset entailing f, if any."""
    items = _premise_items(premises, max_size)
    mask = _first_support(items, _mcs_masks(items), conclusion)
    return None if mask is None else ParaWitness(conclusion, _subset(items, mask), True)


def para_classify(
    premises: Iterable[Formula], candidates: FormulaSet
) -> SetClassification:
    """Classify a premise set under |-P over a finite candidate universe.

    Consistency is the finite-universe surrogate: some candidate must not be
    |-P-derivable (a stand-in for the consequence set being proper).
    """
    items = _premise_items(premises, MCS_CAP)
    table = _mcs_masks(items)

    def derives(f: Formula) -> bool:
        return _first_support(items, table, f) is not None

    return classify_by(
        candidates,
        lambda: not all(derives(f) for f in candidates),
        derives,
        is_contradiction,
    )
