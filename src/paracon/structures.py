"""Explicit finite consequence structures with fully materialized tables.

A structure is a finite ordered domain of opaque atom labels plus one table
entry per subset (subsets are bitmasks over the domain order), and an
optional total negation map.  Every check below is exhaustive over the
table, so every verdict comes with a replayable witness or counterexample.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .classical import row_signatures, tile
from .errors import CapExceededError, StructureFormatError
from .formula import FormulaSet, Not, falsum_of, render, variables


MAX_ATOMS = 16  # the largest domain of a structure, structure file or restriction
FIELD = 16  # bits per packed table entry ("H"): one per atom, up to MAX_ATOMS


def check_atom_cap(n_atoms: int) -> None:
    if n_atoms > MAX_ATOMS:
        raise CapExceededError(
            f"domain of {n_atoms} atoms exceeds the cap of {MAX_ATOMS}"
        )


class FiniteConsequenceStructure:
    """A pair (domain, Cn) with Cn given by a complete subset-to-subset table."""

    def __init__(
        self,
        domain: Sequence[str],
        table: Sequence[int],
        negation: Optional[Mapping[str, str]] = None,
    ):
        domain = tuple(domain)
        if not domain:
            raise ValueError("empty domain not allowed")
        if any(not isinstance(a, str) or not a for a in domain):
            raise ValueError("domain labels must be non-empty strings")
        if len(set(domain)) != len(domain):
            raise ValueError("domain labels must be distinct")
        check_atom_cap(len(domain))
        size = 1 << len(domain)
        table = tuple(table)
        if len(table) != size:
            raise ValueError(f"table must have {size} entries, got {len(table)}")
        full = size - 1
        # The 16-bit pack rejects any value that is not an int in 0..65535
        # (bools pass); the AND finds a field with a bit set above full.
        above_full = tile(((1 << FIELD) - 1) ^ full, FIELD, FIELD * size)
        try:
            in_range = not pack_table(table) & above_full
        except struct.error:
            if not all(isinstance(value, int) for value in table):
                raise TypeError("table values must be ints") from None
            in_range = False
        if not in_range:
            mask = next(m for m, value in enumerate(table) if not 0 <= value <= full)
            raise ValueError(f"table value out of range for subset {mask}")
        if negation is not None:
            negation = dict(negation)
            missing = [a for a in domain if a not in negation]
            if missing:
                raise ValueError(f"negation map is not total; missing {missing}")
            extra = [a for a in negation if a not in domain]
            if extra:
                raise ValueError(f"negation map mentions unknown atoms {extra}")
            if any(v not in domain for v in negation.values()):
                raise ValueError("negation map has values outside the domain")
        self.domain = domain
        self.table = table
        self.negation = negation
        self._index = {a: i for i, a in enumerate(domain)}

    # -- subset plumbing ---------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.domain)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.domain)) - 1

    def mask_of(self, atoms: Iterable[str]) -> int:
        mask = 0
        for a in atoms:
            if a not in self._index:
                raise ValueError(f"atom {a!r} is not in the domain")
            mask |= 1 << self._index[a]
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.domain) if mask >> i & 1)

    def cn_mask(self, mask: int) -> int:
        return self.table[mask]

    def negation_index(self) -> list[int]:
        if self.negation is None:
            raise ValueError("structure has no negation map")
        return [self._index[self.negation[a]] for a in self.domain]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteConsequenceStructure):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.table == other.table
            and self.negation == other.negation
        )

    def __repr__(self) -> str:
        return (
            f"FiniteConsequenceStructure(domain={self.domain!r}, "
            f"|table|={len(self.table)}, negation={'yes' if self.negation else 'no'})"
        )


def cn(structure: FiniteConsequenceStructure, subset: Iterable[str]) -> tuple[str, ...]:
    """Table lookup: the consequences of a subset, as ordered labels."""
    return structure.labels_of(structure.cn_mask(structure.mask_of(subset)))


def is_consistent_in(
    structure: FiniteConsequenceStructure, subset: Iterable[str]
) -> bool:
    """A subset is consistent when its consequences are not the whole domain."""
    return structure.cn_mask(structure.mask_of(subset)) != structure.full_mask


@dataclass(frozen=True)
class AxiomReport:
    name: str
    holds: bool
    counterexample: Optional[tuple] = None
    witness: Optional[object] = None
    note: str = ""


AXIOMS = ("inclusion", "idempotency", "monotonicity", "finiteness")
NORMAL_AXIOMS = AXIOMS[:3]


def check_axiom(structure: FiniteConsequenceStructure, which: str) -> AxiomReport:
    """Exhaustively check one closure-operator axiom over the whole table."""
    S = structure
    if which == "inclusion":
        for mask in range(1 << S.n_atoms):
            if S.table[mask] & mask != mask:
                return AxiomReport(which, False, (S.labels_of(mask),))
        return AxiomReport(which, True)
    if which == "idempotency":
        for mask in range(1 << S.n_atoms):
            closed = S.table[mask]
            if S.table[closed] & ~closed:
                return AxiomReport(which, False, (S.labels_of(mask),))
        return AxiomReport(which, True)
    if which == "monotonicity":
        # Monotone iff adding a single atom never loses consequences.
        for mask in range(1 << S.n_atoms):
            for i in range(S.n_atoms):
                if mask >> i & 1:
                    continue
                bigger = mask | (1 << i)
                if S.table[mask] & ~S.table[bigger]:
                    return AxiomReport(
                        which, False, (S.labels_of(mask), S.labels_of(bigger))
                    )
        return AxiomReport(which, True)
    if which == "finiteness":
        # Every consequence needs a finite supporting subset; on a finite
        # domain the subset itself qualifies, so this can never fail here.
        return AxiomReport(which, True, note="vacuous at finite scale")
    raise ValueError(f"unknown axiom {which!r}")


def is_normal(structure: FiniteConsequenceStructure) -> bool:
    """Inclusion, idempotency and monotonicity all hold."""
    return all(check_axiom(structure, axiom).holds for axiom in NORMAL_AXIOMS)


@dataclass(frozen=True)
class HomomorphismCandidate:
    source: FiniteConsequenceStructure
    target: FiniteConsequenceStructure
    mapping: Mapping[str, str]

    def __post_init__(self):
        missing = [a for a in self.source.domain if a not in self.mapping]
        if missing:
            raise ValueError(f"mapping is not total; missing {missing}")
        bad = [a for a in self.source.domain if self.mapping[a] not in self.target.domain]
        if bad:
            raise ValueError(f"mapping sends {bad} outside the target domain")


def check_homomorphism(candidate: HomomorphismCandidate) -> AxiomReport:
    """Validate injectivity and image(Cn(A)) == Cn'(image(A)) for every A."""
    src, tgt = candidate.source, candidate.target
    images = [tgt._index[candidate.mapping[a]] for a in src.domain]
    seen: dict[int, str] = {}
    for atom, image in zip(src.domain, images):
        if image in seen:
            return AxiomReport(
                "homomorphism",
                False,
                (seen[image], atom),
                note="not injective",
            )
        seen[image] = atom

    # A subset's image is the union of its atoms' images.
    image = [0] * (1 << src.n_atoms)
    for i, target in enumerate(images):
        image[1 << i] = 1 << target
    image = sweep_table(image, src.n_atoms, union=True)

    for mask in range(1 << src.n_atoms):
        if image[src.table[mask]] != tgt.table[image[mask]]:
            return AxiomReport(
                "homomorphism",
                False,
                (src.labels_of(mask),),
                note="consequence square does not commute",
            )
    return AxiomReport("homomorphism", True)


def check_explosive(structure: FiniteConsequenceStructure) -> AxiomReport:
    """Whenever some x and its negation are consequences, everything must be.

    A failing report means the structure is paraconsistent; the
    counterexample is (subset, atom) with both the atom and its negation
    derivable while the consequence set is proper.
    """
    S = structure
    neg = S.negation_index()
    for mask in range(1 << S.n_atoms):
        closed = S.table[mask]
        if closed == S.full_mask:
            continue
        for i in range(S.n_atoms):
            if closed >> i & 1 and closed >> neg[i] & 1:
                return AxiomReport(
                    "explosion",
                    False,
                    (S.labels_of(mask), S.domain[i]),
                    note="structure is paraconsistent",
                )
    return AxiomReport("explosion", True)


def check_joint_consistency(structure: FiniteConsequenceStructure) -> AxiomReport:
    """Some atom x with {x} and {neg x} consistent but {x, neg x} inconsistent."""
    S = structure
    neg = S.negation_index()
    full = S.full_mask
    for i in range(S.n_atoms):
        x, nx = 1 << i, 1 << neg[i]
        if S.table[x] != full and S.table[nx] != full and S.table[x | nx] == full:
            return AxiomReport("joint consistency", True, witness=S.domain[i])
    return AxiomReport(
        "joint consistency",
        False,
        note="no atom has consistent {x} and {neg x} with inconsistent {x, neg x}",
    )


def check_conjunctive_property(structure: FiniteConsequenceStructure) -> AxiomReport:
    """Every pair {x, y} has a single atom z with the same consequences."""
    S = structure
    singleton_tables = [S.table[1 << k] for k in range(S.n_atoms)]
    for i in range(S.n_atoms):
        for j in range(i, S.n_atoms):
            target = S.table[(1 << i) | (1 << j)]
            if target not in singleton_tables:
                return AxiomReport(
                    "conjunctive property", False, (S.domain[i], S.domain[j])
                )
    return AxiomReport("conjunctive property", True)


def classical_restriction(universe: FormulaSet) -> FiniteConsequenceStructure:
    """Restrict classical consequence to a finite formula universe.

    Atoms are rendered formulas; the table entry for A is every universe
    member classically entailed by A.  The negation map sends u to ~u when
    ~u is in the universe, otherwise to the falsum member p0 & ~p0 for the
    least variable p0 (which the with_falsum closure adds).  The universe
    may hold at most MAX_ATOMS formulas, over no more variables than the
    truth table of `classical` takes.
    """
    formulas = list(universe)
    falsum = falsum_of(v for f in formulas for v in variables(f))
    if falsum not in formulas:
        raise ValueError("universe must be built with the with_falsum closure")
    n = len(formulas)
    check_atom_cap(n)
    # Cn(A) is the intersection of the row signatures containing A (none: all).
    table = [(1 << n) - 1] * (1 << n)
    for signature in row_signatures(formulas):
        table[signature] = signature
    labels = [render(f) for f in formulas]

    index = {f: i for i, f in enumerate(formulas)}
    negation = {
        label: labels[index.get(Not(f), index[falsum])]
        for f, label in zip(formulas, labels)
    }
    table = sweep_table(table, n, union=False)
    return FiniteConsequenceStructure(labels, table, negation)


def pack_table(values: Sequence[int]) -> int:
    """A table as one int: entry m is the FIELD-bit field m, lowest first."""
    return int.from_bytes(struct.pack(f"<{len(values)}H", *values), "little")


def sweep_table(values: Sequence[int], n: int, union: bool) -> tuple[int, ...]:
    """Fold a 2**n-entry table over the subset order; entries in, entries out.

    Entry A becomes the OR of the entries of A's subsets (union=True) or the
    AND of the entries of A's supersets (union=False).  The entries are
    packed into one int, and each atom costs one shift and one OR or AND
    over the whole table: n whole-table steps in place of n * 2**n entry
    updates.
    """
    table = pack_table(values)
    width = FIELD << n
    for i in range(n):
        # The fields of the subsets without atom i; each one's subset with
        # it is `shift` bits up.
        shift = FIELD << i
        lower = tile((1 << shift) - 1, shift << 1, width)
        if union:
            table |= (table & lower) << shift
        else:
            table &= (table >> shift) | ~lower
    return struct.unpack(f"<{1 << n}H", table.to_bytes(width // 8, "little"))


# ---------------------------------------------------------------------------
# File format: canonical JSON, one table entry per line, bit-exact round-trip.


def dumps(structure: FiniteConsequenceStructure) -> str:
    S = structure
    lines = ["{", f'  "domain": {json.dumps(list(S.domain))},', '  "cn": [']
    # Every subset's sorted label list, each from the subset without its
    # largest label: atoms join in label order, so each one goes last.
    texts = [""] * (1 << S.n_atoms)
    done = [0]
    for i in sorted(range(S.n_atoms), key=S.domain.__getitem__):
        label = json.dumps(S.domain[i])
        grown = [mask | 1 << i for mask in done]
        for mask, bigger in zip(done, grown):
            texts[bigger] = f"{texts[mask]}, {label}" if mask else label
        done += grown
    names = [f"[{text}]" for text in texts]
    lines.append(
        ",\n".join(
            f"    [{names[mask]}, {names[value]}]" for mask, value in enumerate(S.table)
        )
    )
    if S.negation is not None:
        lines.append("  ],")
        lines.append('  "negation": [')
        pairs = [
            f"    [{json.dumps(a)}, {json.dumps(S.negation[a])}]"
            for a in sorted(S.domain)
        ]
        lines.append(",\n".join(pairs))
        lines.append("  ]")
    else:
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> FiniteConsequenceStructure:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureFormatError(f"invalid structure file: {exc}") from None
    if not isinstance(data, dict):
        raise StructureFormatError("structure file must be a JSON object")
    unknown = set(data) - {"domain", "cn", "negation"}
    if unknown:
        raise StructureFormatError(f"unknown fields: {sorted(unknown)}")
    domain = data.get("domain")
    if not isinstance(domain, list) or not all(isinstance(a, str) for a in domain):
        raise StructureFormatError("'domain' must be a list of labels")
    if len(set(domain)) != len(domain):
        raise StructureFormatError("domain labels must be distinct")
    check_atom_cap(len(domain))  # before the 2**n table is allocated
    entries = data.get("cn")
    if not isinstance(entries, list):
        raise StructureFormatError("'cn' must be a list of [subset, value] pairs")

    index = {a: i for i, a in enumerate(domain)}

    def mask_of(labels: object, what: str) -> int:
        if not isinstance(labels, list) or not all(isinstance(a, str) for a in labels):
            raise StructureFormatError(f"{what} must be a list of labels")
        mask = 0
        for a in labels:
            if a not in index:
                raise StructureFormatError(f"{what} mentions unknown atom {a!r}")
            mask |= 1 << index[a]
        return mask

    size = 1 << len(domain)
    table: list[Optional[int]] = [None] * size
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise StructureFormatError("each 'cn' entry must be a [subset, value] pair")
        mask = mask_of(entry[0], "a 'cn' subset")
        if table[mask] is not None:
            raise StructureFormatError(
                f"duplicate 'cn' entry for subset {sorted(entry[0])}"
            )
        table[mask] = mask_of(entry[1], "a 'cn' value")
    missing = [m for m, v in enumerate(table) if v is None]
    if missing:
        raise StructureFormatError(
            f"'cn' is missing {len(missing)} subset entries (first missing bitmask: {missing[0]})"
        )

    negation = None
    if "negation" in data:
        pairs = data["negation"]
        if not isinstance(pairs, list):
            raise StructureFormatError("'negation' must be a list of [atom, image] pairs")
        negation = {}
        for pair in pairs:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, str) for x in pair)
            ):
                raise StructureFormatError(
                    "each 'negation' entry must be an [atom, image] pair"
                )
            atom, image = pair
            if atom in negation:
                raise StructureFormatError(f"duplicate negation entry for {atom!r}")
            negation[atom] = image
    try:
        return FiniteConsequenceStructure(domain, table, negation)
    except ValueError as exc:
        raise StructureFormatError(str(exc)) from None


def save(structure: FiniteConsequenceStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(structure))


def load(path) -> FiniteConsequenceStructure:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())
