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

Each premise set is compiled once (and cached) to its MCSes in canonical
order and one support test.  While the premises and f fit in the truth table
of `classical`, M |- f is one AND: f holds on every row where M's members
do.  Wider sets scan the MCSes with classical entailment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .classical import (
    SetClassification,
    classify_by,
    entails,
    holding_rows,
    is_contradiction,
    subset_meets,
)
from .errors import CapExceededError
from .formula import Formula, FormulaSet
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


# An entry keeps every MCS's rows, up to 2**16 bits each (0.57 MB for 128
# MCSes over 16 variables), so at most 256 sets stay cached.
@lru_cache(maxsize=256)
def _compile(items: tuple[Formula, ...]) -> tuple[tuple[int, ...], Callable]:
    """The MCSes as masks, and first_support(f): the first entailing f, or None."""
    names, meet = subset_meets(items)
    # Masks by descending cardinality, ties in ascending order (the sort is
    # stable under reverse); a mask is maximal iff satisfiable and not
    # contained in an earlier maximal one.
    found: list[int] = []
    rows: list[int] = []
    for mask in sorted(range(1 << len(items)), key=int.bit_count, reverse=True):
        if any(mask & big == mask for big in found):
            continue
        bits = meet(mask)
        if bits:
            found.append(mask)
            rows.append(bits)

    def first_support(f: Formula) -> Optional[int]:
        holds = None if names is None else holding_rows(names, f)
        if holds is None:
            return next((m for m in found if entails(_subset(items, m), f)), None)
        # M |- f iff no row of M (where exactly M's members hold) falsifies f.
        falsified = ~holds
        return next((m for m, r in zip(found, rows) if not r & falsified), None)

    return tuple(found), first_support


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
    return [_subset(items, mask) for mask in _compile(items)[0]]


def para_entails(
    premises: Iterable[Formula], conclusion: Formula, max_size: int = MCS_CAP
) -> Optional[ParaWitness]:
    """A |-P f: the first maximal consistent subset entailing f, if any."""
    items = _premise_items(premises, max_size)
    mask = _compile(items)[1](conclusion)
    return None if mask is None else ParaWitness(conclusion, _subset(items, mask), True)


def para_classify(
    premises: Iterable[Formula], candidates: FormulaSet
) -> SetClassification:
    """Classify a premise set under |-P over a finite candidate universe.

    Consistency is the finite-universe surrogate: some candidate must not be
    |-P-derivable (a stand-in for the consequence set being proper).
    """
    first_support = _compile(_premise_items(premises, MCS_CAP))[1]

    def derives(f: Formula) -> bool:
        return first_support(f) is not None

    return classify_by(
        candidates,
        lambda: not all(derives(f) for f in candidates),
        derives,
        is_contradiction,
    )
