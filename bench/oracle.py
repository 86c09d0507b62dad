"""Reference computations that share no code with paracon's decision procedures.

Formulas are evaluated by plain recursion, either under one valuation or
bit-parallel over a whole truth table (bit k of a table is the formula's
value in row k).  Satisfiability and entailment are truth-table sweeps.
Finite-structure tables are recomputed from their literal definitions.
The only things taken from paracon are the formula node classes, which are
plain data.
"""

from __future__ import annotations

from paracon.formula import And, Implies, Not, Or, Var


# ---------------------------------------------------------------------------
# Formulas


def formula_vars(f, out=None):
    out = set() if out is None else out
    if isinstance(f, Var):
        out.add(f.name)
    elif isinstance(f, Not):
        formula_vars(f.child, out)
    else:
        formula_vars(f.left, out)
        formula_vars(f.right, out)
    return out


def evaluate(f, env) -> bool:
    """Value of f under one valuation (a dict from names to bools)."""
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Not):
        return not evaluate(f.child, env)
    if isinstance(f, And):
        return evaluate(f.left, env) and evaluate(f.right, env)
    if isinstance(f, Or):
        return evaluate(f.left, env) or evaluate(f.right, env)
    if isinstance(f, Implies):
        return (not evaluate(f.left, env)) or evaluate(f.right, env)
    raise TypeError(f"not a formula: {f!r}")


class TruthTable:
    """All 2**len(names) valuations of a fixed, ordered variable list."""

    def __init__(self, names):
        self.names = tuple(sorted(names))
        self.rows = 1 << len(self.names)
        self.full = (1 << self.rows) - 1
        # Row k gives variable i the value of bit i of k.
        self.pattern = {}
        for i, name in enumerate(self.names):
            block = 1 << i
            ones = ((1 << block) - 1) << block
            repeat = self.full // ((1 << (2 * block)) - 1)
            self.pattern[name] = ones * repeat

    def table(self, f) -> int:
        if isinstance(f, Var):
            return self.pattern[f.name]
        if isinstance(f, Not):
            return self.full ^ self.table(f.child)
        left, right = self.table(f.left), self.table(f.right)
        if isinstance(f, And):
            return left & right
        if isinstance(f, Or):
            return left | right
        if isinstance(f, Implies):
            return (self.full ^ left) | right
        raise TypeError(f"not a formula: {f!r}")

    def valuation(self, row: int) -> dict:
        return {name: bool(row >> i & 1) for i, name in enumerate(self.names)}


class KnowledgeBase:
    """Truth tables of an ordered premise list; subsets are index bitmasks."""

    def __init__(self, premises):
        self.premises = tuple(premises)
        names = set()
        for f in self.premises:
            formula_vars(f, names)
        self.tt = TruthTable(names)
        self.tables = [self.tt.table(f) for f in self.premises]

    def meet(self, mask: int) -> int:
        rows = self.tt.full
        for i, table in enumerate(self.tables):
            if mask >> i & 1:
                rows &= table
        return rows

    def satisfiable(self, mask: int) -> bool:
        return self.meet(mask) != 0

    def entails(self, mask: int, conclusion) -> bool:
        return self.meet(mask) & ~self.tt.table(conclusion) == 0

    def maximal_satisfiable_masks(self) -> set:
        """Maximal satisfiable subsets, from the rows of the truth table.

        Every satisfiable subset is true in some row, so the maximal ones
        are the maximal sets of premises true together in one row.
        """
        n = len(self.premises)
        true_sets = set()
        for row in range(self.tt.rows):
            mask = 0
            for i in range(n):
                if self.tables[i] >> row & 1:
                    mask |= 1 << i
            true_sets.add(mask)
        maximal = []
        for mask in sorted(true_sets, key=lambda m: -bin(m).count("1")):
            if not any(mask & big == mask for big in maximal):
                maximal.append(mask)
        return set(maximal)


# ---------------------------------------------------------------------------
# Finite structures: tables are lists indexed by subset bitmask.


def transform(table, n: int, inclusive: bool) -> list:
    """Union of Cn(A') over the consistent A' inside A (plus A if inclusive).

    Computed as a sum over subsets: start from Cn(A) on consistent A and
    nothing on inconsistent A, then fold every subset into its supersets
    one atom at a time.
    """
    full = (1 << n) - 1
    out = [value if value != full else 0 for value in table]
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                out[mask] |= out[mask ^ bit]
    if inclusive:
        out = [value | mask for mask, value in enumerate(out)]
    return out


def closure_table(closed_sets, n: int) -> list:
    """Cn(A) = intersection of the closed sets that contain A (full if none)."""
    full = (1 << n) - 1
    out = [full] * (1 << n)
    for c in closed_sets:
        out[c] &= c
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if not mask & bit:
                out[mask] &= out[mask | bit]
    return out


def restriction_table(formulas) -> list:
    """Cn(A) = every listed formula true in all rows where A is true."""
    kb = KnowledgeBase(formulas)
    n = len(formulas)
    meet = [kb.tt.full] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        meet[mask] = meet[mask ^ low] & kb.tables[low.bit_length() - 1]
    out = []
    for mask in range(1 << n):
        rows = meet[mask]
        closed = 0
        for i, table in enumerate(kb.tables):
            if rows & ~table == 0:
                closed |= 1 << i
        out.append(closed)
    return out


def inclusion_holds(table) -> bool:
    return all(value & mask == mask for mask, value in enumerate(table))


def idempotency_holds(table) -> bool:
    return all(table[value] & ~value == 0 for value in table)


def monotonicity_holds(table, n: int) -> bool:
    for mask, value in enumerate(table):
        for i in range(n):
            if not mask >> i & 1 and value & ~table[mask | 1 << i]:
                return False
    return True


def normal_holds(table, n: int) -> bool:
    return inclusion_holds(table) and idempotency_holds(table) and monotonicity_holds(table, n)


def explosion_holds(table, n: int, neg) -> bool:
    full = (1 << n) - 1
    for value in table:
        if value != full:
            for i in range(n):
                if value >> i & 1 and value >> neg[i] & 1:
                    return False
    return True


def joint_consistency_atoms(table, n: int, neg) -> list:
    full = (1 << n) - 1
    return [
        i
        for i in range(n)
        if table[1 << i] != full
        and table[1 << neg[i]] != full
        and table[(1 << i) | (1 << neg[i])] == full
    ]


def conjunctive_holds(table, n: int) -> bool:
    singles = {table[1 << k] for k in range(n)}
    return all(
        table[(1 << i) | (1 << j)] in singles for i in range(n) for j in range(i, n)
    )


def image_mask(mask: int, images) -> int:
    out = 0
    for i, image in enumerate(images):
        if mask >> i & 1:
            out |= 1 << image
    return out


def commutes(source, target, images) -> bool:
    """h(Cn(A)) == Cn'(h(A)) for every A, with h given by atom indices."""
    return all(
        image_mask(value, images) == target[image_mask(mask, images)]
        for mask, value in enumerate(source)
    )
