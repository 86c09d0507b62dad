"""Independent brute-force reference implementations, used only by tests.

Nothing here shares code with the package's decision procedures: evaluation
is a plain recursion, satisfiability is an unpruned truth-table sweep, and
para-entailment scans literally every subset of the premises.  The seeded
random_formula draws the test inputs.
"""

import itertools
import string

from paracon import And, FiniteConsequenceStructure, Implies, Not, Or, Var


def oracle_eval(f, env):
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Not):
        return not oracle_eval(f.child, env)
    if isinstance(f, And):
        return oracle_eval(f.left, env) and oracle_eval(f.right, env)
    if isinstance(f, Or):
        return oracle_eval(f.left, env) or oracle_eval(f.right, env)
    if isinstance(f, Implies):
        return (not oracle_eval(f.left, env)) or oracle_eval(f.right, env)
    raise TypeError(f)


def oracle_variables(f):
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Not):
        return oracle_variables(f.child)
    return oracle_variables(f.left) | oracle_variables(f.right)


def _valuations(formulas):
    names = sorted(set().union(*(oracle_variables(f) for f in formulas), set()))
    for values in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def oracle_satisfiable(formulas):
    formulas = list(formulas)
    return any(
        all(oracle_eval(f, env) for f in formulas) for env in _valuations(formulas)
    )


def oracle_entails(premises, conclusion):
    return not oracle_satisfiable([*premises, Not(conclusion)])


def oracle_para_entails(premises, conclusion):
    """Literal definition: some consistent subset classically entails it."""
    items = []
    for f in premises:
        if f not in items:
            items.append(f)
    for mask in range(1 << len(items)):
        subset = [items[i] for i in range(len(items)) if mask >> i & 1]
        if oracle_satisfiable(subset) and oracle_entails(subset, conclusion):
            return True
    return False


def _preorder(f):
    yield f
    if isinstance(f, Not):
        yield from _preorder(f.child)
    elif not isinstance(f, Var):
        yield from _preorder(f.left)
        yield from _preorder(f.right)


def oracle_universe(seed, flags):
    """The closure as a fixpoint: every added subformula is walked again."""
    items = []

    def add(f):
        if f not in items:
            items.append(f)

    for f in seed:
        add(f)
    if "with_falsum" in flags:
        least = Var(min(set().union(*(oracle_variables(f) for f in items))))
        add(And(least, Not(least)))
    if "subformulas" in flags:
        frontier = 0
        while frontier < len(items):
            for sub in _preorder(items[frontier]):
                add(sub)
            frontier += 1
    core = list(items)
    if "negations" in flags:
        for f in core:
            add(Not(f))
    if "conjunctions" in flags:
        for i, left in enumerate(core):
            for right in core[i + 1 :]:
                add(And(left, right))
    return tuple(items)


def oracle_mcs_masks(premises):
    """All maximal satisfiable subset bitmasks, by (-cardinality, mask)."""
    items = list(premises)
    n = len(items)
    sat = [
        mask
        for mask in range(1 << n)
        if oracle_satisfiable(items[i] for i in range(n) if mask >> i & 1)
    ]
    maximal = [
        m for m in sat if not any(other != m and other & m == m for other in sat)
    ]
    return sorted(maximal, key=lambda m: (-bin(m).count("1"), m))


def oracle_mcs_masks_by_rows(premises):
    """The same list read off the truth table, one valuation row at a time.

    Each row's set of true premises is satisfiable, and every satisfiable set
    lies inside some row's set, so the MCSes are the maximal row sets.
    """
    items = list(premises)
    together = {
        sum(1 << i for i, f in enumerate(items) if oracle_eval(f, env))
        for env in _valuations(items)
    }
    maximal = [
        m
        for m in together
        if not any(other != m and other & m == m for other in together)
    ]
    return sorted(maximal, key=lambda m: (-bin(m).count("1"), m))


def oracle_classification(premises, candidates, para):
    """(consistent, contradictory, strongly contradictory, paraconsistent,
    witness) by definition, under |-P when `para` and under |- otherwise.

    Consistency under |-P is the finite-universe surrogate: some candidate is
    not |-P-derivable.  The witness is the first candidate a with a and ~a
    both derivable, or else the first derivable contradiction.
    """
    premises = list(premises)
    entails = oracle_para_entails if para else oracle_entails

    def derives(f):
        return entails(premises, f)

    if para:
        consistent = not all(derives(f) for f in candidates)
    else:
        consistent = oracle_satisfiable(premises)
    contradictory = [a for a in candidates if derives(a) and derives(Not(a))]
    strong = [a for a in candidates if not oracle_satisfiable([a]) and derives(a)]
    return (
        consistent,
        bool(contradictory),
        bool(strong),
        consistent and bool(contradictory),
        (contradictory + strong + [None])[0],
    )


class FastParaOracle:
    """Truth-bitmap variant of the literal all-subsets scan, for big pools."""

    def __init__(self, items):
        self.items = list(items)
        everything = set().union(
            *(oracle_variables(f) for f in self.items), set()
        )
        self.names = sorted(everything)

    def _bitmap(self, f, names, rows):
        bits = 0
        for k, env in enumerate(rows):
            if oracle_eval(f, env):
                bits |= 1 << k
        return bits

    def entails(self, conclusion):
        names = sorted(set(self.names) | oracle_variables(conclusion))
        rows = [
            dict(zip(names, values))
            for values in itertools.product((False, True), repeat=len(names))
        ]
        maps = [self._bitmap(f, names, rows) for f in self.items]
        goal = self._bitmap(conclusion, names, rows)
        n = len(self.items)
        meet = [(1 << len(rows)) - 1] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            meet[mask] = meet[mask ^ low] & maps[low.bit_length() - 1]
        return any(
            meet[mask] != 0 and meet[mask] & ~goal == 0 for mask in range(1 << n)
        )


# ---------------------------------------------------------------------------
# Random finite structures for exhaustive law checking.

LETTERS = string.ascii_lowercase


def random_structure(rng, n):
    """Uniformly random table and negation map over n atoms."""
    domain = tuple(LETTERS[:n])
    size = 1 << n
    table = [rng.randrange(size) for _ in range(size)]
    negation = {a: rng.choice(domain) for a in domain}
    return FiniteConsequenceStructure(domain, table, negation)


def random_closure_structure(rng, n, force_inconsistent_singleton=False):
    """A random Tarskian structure: Cn closes subsets under per-atom rules."""
    domain = tuple(LETTERS[:n])
    size = 1 << n
    rules = [(rng.randrange(size) | (1 << i)) for i in range(n)]
    if force_inconsistent_singleton:
        rules[rng.randrange(n)] = size - 1

    def close(mask):
        while True:
            grown = mask
            for i in range(n):
                if mask >> i & 1:
                    grown |= rules[i]
            if grown == mask:
                return mask
            mask = grown

    table = [close(mask) for mask in range(size)]
    negation = {a: rng.choice(domain) for a in domain}
    return FiniteConsequenceStructure(domain, table, negation)


def identity_structure(n, negation=None):
    domain = tuple(LETTERS[:n])
    table = list(range(1 << n))
    return FiniteConsequenceStructure(domain, table, negation)


def relabeled_copy(structure, rng):
    """An isomorphic copy under fresh labels; returns (copy, atom mapping)."""
    n = structure.n_atoms
    perm = list(range(n))
    rng.shuffle(perm)
    new_labels = tuple(LETTERS[13 + perm[i]] for i in range(n))  # n, o, p, ...

    def map_mask(mask):
        out = 0
        for i in range(n):
            if mask >> i & 1:
                out |= 1 << perm[i]
        return out

    table = [0] * (1 << n)
    for mask in range(1 << n):
        table[map_mask(mask)] = map_mask(structure.table[mask])
    ordered = [None] * n
    for i in range(n):
        ordered[perm[i]] = new_labels[i]
    negation = None
    if structure.negation is not None:
        negation = {}
        for i, atom in enumerate(structure.domain):
            negation[new_labels[i]] = new_labels[
                structure.domain.index(structure.negation[atom])
            ]
    copy = FiniteConsequenceStructure(tuple(ordered), table, negation)
    mapping = {atom: new_labels[i] for i, atom in enumerate(structure.domain)}
    return copy, mapping


def oracle_transform_table(structure, inclusive=False):
    """CnP by its definition, from the source table alone.

    CnP(A) is the union of Cn(A') over the consistent A' (Cn(A') not the
    whole domain) with A' a subset of A, plus A itself when inclusive.
    """
    full = structure.full_mask
    consistent = [m for m in range(full + 1) if structure.table[m] != full]
    table = []
    for mask in range(full + 1):
        closed = mask if inclusive else 0
        for sub in consistent:
            if sub | mask == mask:
                closed |= structure.table[sub]
        table.append(closed)
    return table


def oracle_sweep_table(structure, inclusive=False):
    """CnP by the literal n * 2**n sum-over-subsets sweep, one entry at a time.

    Each atom's pass ORs a subset's running union into the subset one atom
    larger; fast enough at 16 atoms, where the definition's 3**n walk is not.
    """
    full = structure.full_mask
    table = [0 if value == full else value for value in structure.table]
    for i in range(structure.n_atoms):
        bit = 1 << i
        for mask in range(full + 1):
            if mask & bit:
                table[mask] |= table[mask ^ bit]
    if inclusive:
        table = [value | mask for mask, value in enumerate(table)]
    return table


# ---------------------------------------------------------------------------
# When a homomorphism survives the transform, read off the source and target
# tables alone (no call into the transform itself).


def _image_mask(candidate, mask):
    src, tgt = candidate.source, candidate.target
    return tgt.mask_of(candidate.mapping[a] for a in src.labels_of(mask))


def reflects_consistency(candidate):
    """h(A) consistent in the target implies A consistent in the source."""
    src, tgt = candidate.source, candidate.target
    return all(
        src.table[mask] != src.full_mask
        or tgt.table[_image_mask(candidate, mask)] == tgt.full_mask
        for mask in range(src.full_mask + 1)
    )


def survival_obstruction(candidate):
    """The first source subset that stops a homomorphism surviving, or None.

    A validated homomorphism h survives the transform exactly when every
    source-inconsistent A' with a target-consistent image h(A') has
    consistent subsets whose consequences together cover the source domain.
    Returns the labels of the first A' (by bitmask) where that cover fails.
    """
    src, tgt = candidate.source, candidate.target
    full = src.full_mask
    for mask in range(full + 1):
        if src.table[mask] != full:
            continue
        if tgt.table[_image_mask(candidate, mask)] == tgt.full_mask:
            continue
        covered = 0
        for sub in range(full + 1):
            if sub & ~mask == 0 and src.table[sub] != full:
                covered |= src.table[sub]
        if covered != full:
            return src.labels_of(mask)
    return None


class ChoiceFormulaSampler:
    """The formula sampler as first written, drawing with `random.choice`.

    `propsuite.FormulaSampler` reads the same draws straight from
    `getrandbits`; this is the reference it must match draw for draw.
    """

    def __init__(self, rng):
        self.rng = rng

    def formula(self, depth=4):
        kind = self.rng.choice(("var", "not", "and", "or", "implies")) if depth else "var"
        if kind == "var":
            return Var(self.rng.choice(("p", "q", "r")))
        if kind == "not":
            return Not(self.formula(depth - 1))
        left, right = self.formula(depth - 1), self.formula(depth - 1)
        return {"and": And, "or": Or, "implies": Implies}[kind](left, right)


def random_formula(rng, depth=4, pool=("p", "q", "r")):
    """A seeded random formula of at most depth connectives over the pool."""
    kind = rng.choice("vnaoi") if depth else "v"
    if kind == "v":
        return Var(rng.choice(pool))
    if kind == "n":
        return Not(random_formula(rng, depth - 1, pool))
    return {"a": And, "o": Or, "i": Implies}[kind](
        random_formula(rng, depth - 1, pool), random_formula(rng, depth - 1, pool)
    )
