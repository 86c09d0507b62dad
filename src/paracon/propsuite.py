"""Mechanical verification of the consequence-property summary table.

Universally quantified laws are confirmed by seeded randomized trials plus
directed named instances; failures are established by replaying concrete
counterexamples through the public operations.  Nothing here is a proof:
the suite is a regression detector, and every verdict carries replayable
evidence and a trial count (a confirmation with zero trials is forbidden).
Each law the two relations share is written once, against a `Relation`
record, and run under both |- and |-P.

The table and both claim batteries are data over one set of columns:
`verify_table` runs each row's |- column, then its |-P column, and
`_battery` runs each claim's column.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional

from .classical import (
    classify,
    entails,
    is_contradiction,
    is_satisfiable,
    is_theorem,
)
from .formula import (
    And,
    Formula,
    FormulaSet,
    Implies,
    Not,
    Or,
    Var,
    build_universe,
    render,
)
from .parafunctor import (
    maximal_consistent_subsets,
    para_classify,
    para_entails,
    paraconsistentize_finite,
)
from .structures import (
    FiniteConsequenceStructure,
    check_conjunctive_property,
    check_explosive,
    check_joint_consistency,
    is_normal,
)

DEFAULT_SEED = 0
DEFAULT_TRIALS = 1000

VARIABLE_POOL = ("p", "q", "r")
MAX_DEPTH = 4
MAX_PREMISES = 5

P, Q = Var("p"), Var("q")
FALSUM = And(P, Not(P))  # p & ~p
PAIR = FormulaSet([P, Not(P)])


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    verdict: str  # confirmed | refuted | not applicable
    trials: int
    evidence: dict[str, str]


@dataclass(frozen=True)
class TableRow:
    name: str
    holds_cn: bool
    holds_cnp: bool
    evidence: str


# Expected (classical, paraclassical) verdict per property row.
EXPECTED_VERDICTS: dict[str, tuple[bool, bool]] = {
    "finiteness": (True, True),
    "monotonicity": (True, True),
    "inclusion": (True, False),
    "idempotency": (True, False),
    "transitivity": (True, False),
    "weak transitivity": (True, True),
    "deduction": (True, True),
    "inconsistent sets": (True, False),
    "contradictory sets": (True, True),
    "strongly contradictory sets": (True, False),
    "paraconsistent sets": (False, True),
}


# Formulas compare structurally, so every leaf naming p can be one object.
_LEAVES = tuple(Var(name) for name in VARIABLE_POOL)
_LEAF_BITS = len(_LEAVES).bit_length()
_BINARY = (And, Or, Implies)  # kinds 2, 3 and 4


def _draw_formula(bits: Callable[[int], int], depth: int) -> Formula:
    """One formula, drawn as `random.Random.choice` draws.

    choice(seq) takes len(seq).bit_length() bits and redraws while the value
    is out of range (`_randbelow_with_getrandbits`): 3 bits for the five
    kinds, 2 for the three variables.  The left child is drawn first.
    """
    kind = 0  # var
    if depth:
        kind = bits(3)
        while kind > 4:
            kind = bits(3)
    if not kind:
        leaf = bits(_LEAF_BITS)
        while leaf >= len(_LEAVES):
            leaf = bits(_LEAF_BITS)
        return _LEAVES[leaf]
    if kind == 1:
        return Not(_draw_formula(bits, depth - 1))
    left = _draw_formula(bits, depth - 1)
    return _BINARY[kind - 2](left, _draw_formula(bits, depth - 1))


class FormulaSampler:
    """Seeded random formulas over {p, q, r}, depth-bounded.

    Each node draws its kind from (var, not, and, or, implies) and each leaf
    its variable from VARIABLE_POOL with random.choice's draws, read straight
    from getrandbits: the formulas, and the generator state after each one,
    are those of `rng.choice`.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def formula(self, depth: int = MAX_DEPTH) -> Formula:
        return _draw_formula(self.rng.getrandbits, depth)

    def premise_set(self, min_size: int = 0, max_size: int = MAX_PREMISES) -> FormulaSet:
        size = self.rng.randint(min_size, max_size)
        return FormulaSet(self.formula() for _ in range(size))

    def subset_of(self, fs: FormulaSet) -> FormulaSet:
        size = self.rng.randint(0, len(fs))
        picked = sorted(self.rng.sample(range(len(fs)), size))
        return FormulaSet(fs.items[i] for i in picked)

    def contradiction(self) -> Formula:
        # f & ~f is always unsatisfiable; occasionally find one in the wild.
        if self.rng.random() < 0.7:
            f = self.formula(2)
            return And(f, Not(f))
        for _ in range(40):
            f = self.formula()
            if is_contradiction(f):
                return f
        return FALSUM

    def tautology(self) -> Formula:
        roll = self.rng.random()
        if roll < 0.4:
            f = self.formula(2)
            return Implies(f, f)
        if roll < 0.7:
            f = self.formula(2)
            return Or(f, Not(f))
        for _ in range(40):
            f = self.formula()
            if is_theorem(f):
                return f
        return Implies(P, P)

    def consequence_of(self, premises: FormulaSet) -> Formula:
        """A formula classically entailed by the given premises."""
        if len(premises) == 0:
            return self.tautology()
        roll = self.rng.random()
        member = self.rng.choice(premises.items)
        if roll < 0.3:
            return member
        if roll < 0.6:
            return Or(member, self.formula(2))
        if roll < 0.8:
            other = self.rng.choice(premises.items)
            return Or(And(member, other), self.formula(2))
        return self.tautology()

    def para_consequence_of(self, premises: FormulaSet) -> Formula:
        """A formula derivable from the premises under |-P."""
        first_mcs = maximal_consistent_subsets(premises)[0]
        return self.consequence_of(first_mcs)


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _r(f: Optional[Formula]) -> str:
    return render(f) if f is not None else "-"


def _run_trials(
    seed: int,
    label: str,
    trials: int,
    trial: Callable[[FormulaSampler], Optional[bool | dict]],
) -> tuple[int, Optional[dict]]:
    """Run trials until `trials` of them meet their precondition.

    The trial callback returns True (law held), None (precondition not met,
    does not count), or a violation-evidence dict (law broken).  A count
    below one raises ValueError before anything is drawn.
    """
    if trials < 1:
        raise ValueError("confirmations need at least one trial")
    sampler = FormulaSampler(_rng(seed, label))
    effective = 0
    attempts = 0
    cap = max(trials * 80, 2000)
    while effective < trials and attempts < cap:
        attempts += 1
        outcome = trial(sampler)
        if outcome is None:
            continue
        effective += 1
        if outcome is not True:
            return effective, outcome
    if effective == 0:
        raise RuntimeError(f"no effective trials for {label!r}")
    return effective, None


def _render_violation(evidence: dict) -> str:
    return "; ".join(f"{key}={value}" for key, value in evidence.items())


class Relation(NamedTuple):
    """A consequence relation as the law trials read it: |- or |-P."""

    name: str  # as violation evidence names it
    label: str  # RNG label suffix of its trials
    derives: Callable[[Iterable[Formula], Formula], bool]
    consequence_of: Callable[[FormulaSampler, FormulaSet], Formula]


# The lambdas look `entails` and `para_entails` up at call time, so
# replacing the module attributes (as a tracer does) still sees every call.
CLASSICAL = Relation(
    "classical", "cn", lambda A, f: entails(A, f), FormulaSampler.consequence_of
)
PARA = Relation(
    "para",
    "cnp",
    lambda A, f: para_entails(A, f) is not None,
    FormulaSampler.para_consequence_of,
)


# ---------------------------------------------------------------------------
# Laws, each written once against a relation


def _finiteness_trial(s: FormulaSampler, rel: Relation):
    premises = s.premise_set()
    conclusion = rel.consequence_of(s, premises)
    if not rel.derives(premises, conclusion):
        return {"A": premises.render(), "f": _r(conclusion), "lost": rel.name}
    # A itself, or for |-P the witness support, is a finite support
    return True


def _monotonicity_trial(s: FormulaSampler, rel: Relation):
    larger = s.premise_set(min_size=1)
    smaller = s.subset_of(larger)
    conclusion = rel.consequence_of(s, smaller)
    if not rel.derives(smaller, conclusion):
        return None
    if rel.derives(larger, conclusion):
        return True
    return {"A": smaller.render(), "B": larger.render(), "f": _r(conclusion)}


def _weak_transitivity_trial(s: FormulaSampler, rel: Relation):
    premises = s.premise_set()
    middle = rel.consequence_of(s, premises)
    conclusion = rel.consequence_of(s, FormulaSet([middle]))
    if not (rel.derives(premises, middle) and rel.derives([middle], conclusion)):
        return None
    if rel.derives(premises, conclusion):
        return True
    return {"A": premises.render(), "b": _r(middle), "c": _r(conclusion)}


def _deduction_trial(s: FormulaSampler, rel: Relation):
    premises = s.premise_set()
    extra = s.formula()
    extended = FormulaSet([*premises, extra])
    conclusion = rel.consequence_of(s, extended)
    if not rel.derives(extended, conclusion):
        return None
    if rel.derives(premises, Implies(extra, conclusion)):
        return True
    return {"A": premises.render(), "a": _r(extra), "b": _r(conclusion)}


def _contradiction_trial(s: FormulaSampler, key: str = "derived contradiction"):
    # No premise set |-P-derives a contradiction, so none derives everything.
    premises = s.premise_set()
    blocked = s.contradiction()
    if not PARA.derives(premises, blocked):
        return True
    return {"A": premises.render(), key: _r(blocked)}


def _chain_trial(s: FormulaSampler):
    # A derives every member of B, B derives c; the law demands A derives c.
    premises = s.premise_set()
    middle = FormulaSet(s.consequence_of(premises) for _ in range(s.rng.randint(1, 3)))
    if any(not entails(premises, b) for b in middle):
        return None
    conclusion = s.consequence_of(middle)
    if not entails(middle, conclusion):
        return None
    if entails(premises, conclusion):
        return True
    return {"A": premises.render(), "B": middle.render(), "c": _r(conclusion)}


def _inclusion_trial(s: FormulaSampler):
    premises = s.premise_set(min_size=1)
    for member in premises:
        if not entails(premises, member):
            return {"A": premises.render(), "member": _r(member)}
    return True


def _paraconsistent_trial(s: FormulaSampler):
    premises = s.premise_set(min_size=1)
    candidates = build_universe(premises, ("subformulas", "negations"))
    verdict = classify(premises, candidates)
    if not verdict.paraconsistent:
        return True
    return {"A": premises.render(), "witness": _r(verdict.witness)}


def _theorem_trial(s: FormulaSampler):
    # |-P-consequences of a theorem are theorems, derivable from any set.
    theorem = s.tautology()
    if not is_theorem(theorem):
        return None
    roll = s.rng.random()
    conclusion = s.tautology() if roll < 0.5 else s.formula()
    if para_entails([theorem], conclusion) is None:
        return None
    if not is_theorem(conclusion):
        return {"b": _r(theorem), "c": _r(conclusion), "broken": "not a theorem"}
    for _ in range(3):
        premises = s.premise_set()
        if para_entails(premises, conclusion) is None:
            return {"b": _r(theorem), "c": _r(conclusion), "A": premises.render()}
    return True


def _singleton_trial(s: FormulaSampler):
    # A singleton support means theoremhood or consistent classical entailment.
    single = s.formula()
    roll = s.rng.random()
    conclusion = Or(single, s.formula(2)) if roll < 0.5 else s.formula()
    if para_entails([single], conclusion) is None:
        return None
    if is_theorem(conclusion):
        return True
    if is_satisfiable([single]) and entails([single], conclusion):
        return True
    return {"a": _r(single), "b": _r(conclusion)}


def _transitivity_counterexample() -> bool:
    """Replay the paraclassical transitivity failure; True when it replays."""
    b_set = FormulaSet([Or(P, Q), Not(P)])
    return (
        para_entails(PAIR, Or(P, Q)) is not None
        and para_entails(PAIR, Not(P)) is not None
        and para_entails(b_set, Q) is not None
        and para_entails(PAIR, Q) is None
    )


def _deduction_converse_fails() -> bool:
    """Replay {q} |-P (p & ~p) -> (p & ~p) while {q, p & ~p} lacks p & ~p."""
    return (
        para_entails([Q], Implies(FALSUM, FALSUM)) is not None
        and para_entails([Q, FALSUM], FALSUM) is None
    )


# ---------------------------------------------------------------------------
# Columns: one relation's side of a table row.  A column takes (seed, RNG
# label, trials) and returns (holds, trials run or None, violation or None).

Column = Callable[[int, str, int], tuple[bool, Optional[int], Optional[dict]]]


def _law(
    trial: Callable[[FormulaSampler], Optional[bool | dict]],
    instance: Optional[Callable[[], bool]] = None,
    failure: Optional[dict] = None,
) -> Column:
    """Holds when no trial breaks the law and the directed instance, replayed
    after the trials, holds; `failure` is the evidence when it does not."""

    def column(seed: int, label: str, trials: int):
        n, violation = _run_trials(seed, label, trials, trial)
        if instance is None or instance():
            return violation is None, n, violation
        return False, n, violation or failure

    return column


def _found(trial: Callable[[FormulaSampler], Optional[bool | dict]]) -> Column:
    """Holds when some trial finds an instance (returns its evidence dict)."""

    def column(seed: int, label: str, trials: int):
        n, instance = _run_trials(seed, label, trials, trial)
        return instance is not None, n, instance

    return column


def _replay(check: Callable[[], bool]) -> Column:
    """A directed check, with no trials."""
    return lambda seed, label, trials: (check(), None, None)


# ---------------------------------------------------------------------------
# Table rows: (name, RNG label prefix, |- column, |-P column, evidence
# template).  The template's {cn} and {cnp} fields receive the trial counts.

_ROWS: tuple[tuple[str, str, Column, Column, str], ...] = (
    (
        "finiteness",
        "finiteness",
        _law(partial(_finiteness_trial, rel=CLASSICAL)),
        _law(partial(_finiteness_trial, rel=PARA)),
        "finite supports found for every sampled consequence "
        "({cn}+{cnp} trials; vacuous at finite scale)",
    ),
    (
        "monotonicity",
        "monotonicity",
        _law(partial(_monotonicity_trial, rel=CLASSICAL)),
        _law(
            partial(_monotonicity_trial, rel=PARA),
            lambda: (
                entails([P], Or(P, Q))
                and entails([P, Not(P)], Or(P, Q))
                and para_entails([P], Or(P, Q)) is not None
                and para_entails([P, Not(P)], Or(P, Q)) is not None
            ),
            {"instance": "failed"},
        ),
        "preserved under premise growth in {cn}+{cnp} trials; "
        "instance {{p}} into {{p, ~p}} keeps p | q",
    ),
    (
        "inclusion",
        "inclusion",
        _law(_inclusion_trial),
        # The paraclassical counterexample: a self-contradiction loses itself.
        _replay(lambda: para_entails([FALSUM], FALSUM) is not None),
        "classical: every member re-derivable in {cn} trials; "
        "para: {{p & ~p}} does not derive p & ~p",
    ),
    (
        "idempotency",
        "idempotency",
        _law(_chain_trial),
        _replay(lambda: not _transitivity_counterexample()),
        "classical: consequence chains stay closed in {cn} trials; "
        "para: {{p | q, ~p}} lies inside the consequences of {{p, ~p}} yet adds q",
    ),
    (
        "transitivity",
        "transitivity",
        _law(_chain_trial),
        _replay(lambda: not _transitivity_counterexample()),
        "classical: holds in {cn} trials; para: A={{p, ~p}}, B={{p | q, ~p}}, a=q",
    ),
    (
        "weak transitivity",
        "weak transitivity",
        _law(partial(_weak_transitivity_trial, rel=CLASSICAL)),
        _law(partial(_weak_transitivity_trial, rel=PARA)),
        "single-formula middle steps compose in {cn}+{cnp} trials",
    ),
    (
        "deduction",
        "deduction",
        _law(partial(_deduction_trial, rel=CLASSICAL)),
        _law(
            partial(_deduction_trial, rel=PARA),
            _deduction_converse_fails,
            {"converse instance": "failed"},
        ),
        "holds in {cn}+{cnp} trials; converse fails for para: "
        "{{q, p & ~p}} does not derive p & ~p",
    ),
    (
        "inconsistent sets",
        "inconsistent sets",
        # Classical: an unsatisfiable set entails everything.
        _replay(lambda: (not is_satisfiable([FALSUM])) and entails([FALSUM], Q)),
        _found(_contradiction_trial),
        "classical: {{p & ~p}} derives everything; para: every sampled set "
        "left a contradiction underivable ({cnp} trials)",
    ),
    (
        "contradictory sets",
        "contradictory sets",
        _replay(lambda: entails(PAIR, P) and entails(PAIR, Not(P))),
        _replay(
            lambda: para_entails(PAIR, P) is not None
            and para_entails(PAIR, Not(P)) is not None
        ),
        "both derive p and ~p from {{p, ~p}} (para supports {{p}} and {{~p}})",
    ),
    (
        "strongly contradictory sets",
        "strongly contradictory",
        _replay(lambda: is_contradiction(FALSUM) and entails([P, Not(P)], FALSUM)),
        _found(_contradiction_trial),
        "classical: {{p, ~p}} derives p & ~p; para: no contradiction ever "
        "derivable ({cnp} trials)",
    ),
    (
        "paraconsistent sets",
        "paraconsistent sets",
        _found(_paraconsistent_trial),
        _replay(
            lambda: para_classify(
                PAIR, build_universe(FormulaSet([P, Not(P), Q]), ("with_falsum",))
            ).paraconsistent
        ),
        "classical: none found in {cn} trials (consistency excludes "
        "contradictoriness); para: {{p, ~p}} is consistent and contradictory",
    ),
)


def verify_table(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> list[TableRow]:
    """Build all eleven property rows; deterministic for a fixed seed.

    Each row runs its |- column, then its |-P column; the first violation
    replaces the evidence text.  Raises ValueError when `trials` is below one.
    """
    rows = []
    for name, label, cn, cnp, template in _ROWS:
        holds_cn, n_cn, v_cn = cn(seed, f"{label}:cn", trials)
        holds_cnp, n_cnp, v_cnp = cnp(seed, f"{label}:cnp", trials)
        text = template.format(cn=n_cn, cnp=n_cnp)
        if v_cn or v_cnp:
            text = _render_violation(v_cn or v_cnp)
        rows.append(TableRow(name, holds_cn, holds_cnp, text))
    return rows


def table_matches_expected(rows: list[TableRow]) -> bool:
    return [(row.name, row.holds_cn, row.holds_cnp) for row in rows] == [
        (name, cn, cnp) for name, (cn, cnp) in EXPECTED_VERDICTS.items()
    ]


def render_table(rows: list[TableRow]) -> str:
    mark = {True: "✓", False: "×"}
    lines = [f"{'property':<30}{'classical':>10}{'paraclassical':>15}"]
    for row in rows:
        lines.append(
            f"{row.name:<30}{mark[row.holds_cn]:>10}{mark[row.holds_cnp]:>15}"
        )
    lines.append("")
    lines.append("evidence:")
    for row in rows:
        lines.append(f"  {row.name}: {row.evidence}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Claim batteries: (claim, RNG label, column, evidence).  The column is a
# law with its directed check as the instance, or a replay with no trials.

Claim = tuple[str, Optional[str], Column, dict]


def _battery(seed: int, trials: int, claims: tuple[Claim, ...]) -> list[ClaimResult]:
    """Run each claim's column: its trials, then its directed check.

    A claim is confirmed when its column holds; a replayed claim counts as
    one trial.  Raises ValueError when `trials` is below one.
    """
    results = []
    for claim, label, column, evidence in claims:
        holds, n, violation = column(seed, label, trials)
        verdict = "confirmed" if holds else "refuted"
        results.append(ClaimResult(claim, verdict, n or 1, violation or dict(evidence)))
    return results


_SUPPORT_CLAIMS: tuple[Claim, ...] = (
    (
        "contradictions-never-derivable",
        "support:contradictions",
        _law(
            partial(_contradiction_trial, key="b"),
            lambda: para_entails([P, Not(P)], FALSUM) is None,
        ),
        {"directed": "{p, ~p} does not para-derive p & ~p"},
    ),
    (
        "theorem-consequences-are-universal",
        "support:theorems",
        _law(
            _theorem_trial,
            lambda: para_entails([Implies(P, P)], Or(Q, Not(Q))) is not None
            and is_theorem(Or(Q, Not(Q)))
            and para_entails([FALSUM], Or(Q, Not(Q))) is not None,
        ),
        {"directed": "{p -> p} |-P q | ~q, a theorem derivable from any set"},
    ),
    (
        "singleton-support",
        "support:singletons",
        _law(
            _singleton_trial,
            lambda: para_entails([P], Or(P, Q)) is not None
            and is_satisfiable([P])
            and entails([P], Or(P, Q)),
        ),
        {"directed": "{p} |-P p | q with {p} consistent and {p} |- p | q"},
    ),
)

_DEDUCTION_CLAIMS: tuple[Claim, ...] = (
    (
        "deduction",
        "claims:deduction",
        _law(partial(_deduction_trial, rel=PARA)),
        {"law": "A + {a} |-P b implies A |-P a -> b"},
    ),
    (
        "weak-transitivity",
        "claims:weak-transitivity",
        _law(partial(_weak_transitivity_trial, rel=PARA)),
        {"law": "A |-P b and {b} |-P c imply A |-P c"},
    ),
    (
        "deduction-converse-failure",
        None,
        _replay(_deduction_converse_fails),
        {
            "instance": "{q} |-P (p & ~p) -> (p & ~p) "
            "but {q, p & ~p} does not para-derive p & ~p"
        },
    ),
    (
        "modus-ponens-failure",
        None,
        _replay(
            lambda: para_entails(PAIR, P) is not None
            and para_entails(PAIR, Implies(P, FALSUM)) is not None
            and para_entails(PAIR, FALSUM) is None
        ),
        {
            "instance": "{p, ~p} |-P p and |-P p -> (p & ~p), "
            "yet p & ~p stays underivable"
        },
    ),
)


def check_support_laws(
    seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS
) -> list[ClaimResult]:
    """Laws about |-P supports: contradictions, theorems, and singletons.

    Raises ValueError when `trials` is below one.
    """
    return _battery(seed, trials, _SUPPORT_CLAIMS)


def check_deduction_and_weak_transitivity(
    seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS
) -> list[ClaimResult]:
    """Deduction and weak transitivity under |-P, plus their failure modes.

    Raises ValueError when `trials` is below one.
    """
    return _battery(seed, trials, _DEDUCTION_CLAIMS)


def check_paraconsistency_transfer(structure: FiniteConsequenceStructure) -> ClaimResult:
    """Sufficient conditions for the transform to yield a paraconsistent result.

    When the structure is normal, explosive, jointly consistent and has the
    conjunctive property, the transformed structure must fail explosion; the
    verdict is established by exhaustive table checks and carries the
    witnessing premise subset.
    """

    def result(verdict: str, evidence: dict[str, str]) -> ClaimResult:
        return ClaimResult(
            "paraconsistency-transfer", verdict, 1 << structure.n_atoms, evidence
        )

    hypotheses = (
        ("normal", lambda s: is_normal(s)),
        ("explosion", lambda s: s.negation is not None and check_explosive(s).holds),
        ("joint consistency", lambda s: check_joint_consistency(s).holds),
        ("conjunctive property", lambda s: check_conjunctive_property(s).holds),
    )
    for name, probe in hypotheses:
        if not probe(structure):
            evidence = {"failing hypothesis": name}
            if name == "explosion" and structure.negation is None:
                evidence["reason"] = "structure has no negation map"
            return result("not applicable", evidence)
    transformed = paraconsistentize_finite(structure)
    report = check_explosive(transformed)
    if report.holds:
        return result("refuted", {"problem": "transformed structure is still explosive"})
    subset, atom = report.counterexample
    closed = transformed.cn_mask(transformed.mask_of(subset))
    missing = next(
        a for i, a in enumerate(transformed.domain) if not closed >> i & 1
    )
    return result(
        "confirmed",
        {
            "witness premise set": "{" + ", ".join(subset) + "}",
            "derivable pair": f"{atom} and {transformed.negation[atom]}",
            "underivable": missing,
        },
    )
