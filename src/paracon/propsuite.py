"""Mechanical verification of the consequence-property summary table.

Universally quantified laws are confirmed by seeded randomized trials plus
directed named instances; failures are established by replaying concrete
counterexamples through the public operations.  Nothing here is a proof:
the suite is a regression detector, and every verdict carries replayable
evidence and a trial count (a confirmation with zero trials is forbidden).
Each law the two relations share is written once, against a `Relation`
record, and run under both |- and |-P.
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


def _transitivity_counterexample() -> bool:
    """Replay the paraclassical transitivity failure; True when it replays."""
    a_set = FormulaSet([P, Not(P)])
    b_set = FormulaSet([Or(P, Q), Not(P)])
    return (
        para_entails(a_set, Or(P, Q)) is not None
        and para_entails(a_set, Not(P)) is not None
        and para_entails(b_set, Q) is not None
        and para_entails(a_set, Q) is None
    )


def _deduction_converse_fails() -> bool:
    """Replay {q} |-P (p & ~p) -> (p & ~p) while {q, p & ~p} lacks p & ~p."""
    return (
        para_entails([Q], Implies(FALSUM, FALSUM)) is not None
        and para_entails([Q, FALSUM], FALSUM) is None
    )


# ---------------------------------------------------------------------------
# Table rows


def _law_row(
    name: str,
    seed: int,
    trials: int,
    trial: Callable[[FormulaSampler, Relation], Optional[bool | dict]],
    evidence: str,
    instance: Callable[[], bool] = lambda: True,
    instance_failure: Optional[dict] = None,
) -> TableRow:
    """Run a law's trials under |- and then |-P; the |-P verdict also needs
    the directed instance, replayed after the trials, to hold.

    `evidence` is a template whose {trials} field receives both counts.
    """
    (n_cn, v_cn), (n_cnp, v_cnp) = [
        _run_trials(seed, f"{name}:{rel.label}", trials, partial(trial, rel=rel))
        for rel in (CLASSICAL, PARA)
    ]
    instance_ok = instance()
    text = evidence.format(trials=f"{n_cn}+{n_cnp}")
    if v_cn or v_cnp or not instance_ok:
        text = _render_violation(v_cn or v_cnp or instance_failure)
    return TableRow(name, v_cn is None, v_cnp is None and instance_ok, text)


def _row_finiteness(seed: int, trials: int) -> TableRow:
    return _law_row(
        "finiteness",
        seed,
        trials,
        _finiteness_trial,
        "finite supports found for every sampled consequence "
        "({trials} trials; vacuous at finite scale)",
    )


def _row_monotonicity(seed: int, trials: int) -> TableRow:
    return _law_row(
        "monotonicity",
        seed,
        trials,
        _monotonicity_trial,
        "preserved under premise growth in {trials} trials; "
        "instance {{p}} into {{p, ~p}} keeps p | q",
        lambda: (
            entails([P], Or(P, Q))
            and entails([P, Not(P)], Or(P, Q))
            and para_entails([P], Or(P, Q)) is not None
            and para_entails([P, Not(P)], Or(P, Q)) is not None
        ),
        {"instance": "failed"},
    )


def _row_inclusion(seed: int, trials: int) -> TableRow:
    def trial_cn(s: FormulaSampler):
        premises = s.premise_set(min_size=1)
        for member in premises:
            if not entails(premises, member):
                return {"A": premises.render(), "member": _r(member)}
        return True

    n_cn, v_cn = _run_trials(seed, "inclusion:cn", trials, trial_cn)
    # The paraclassical counterexample: a self-contradiction loses itself.
    counterexample_replays = para_entails([FALSUM], FALSUM) is None
    evidence = (
        f"classical: every member re-derivable in {n_cn} trials; "
        f"para: {{p & ~p}} does not derive p & ~p"
    )
    if v_cn:
        evidence = _render_violation(v_cn)
    return TableRow("inclusion", v_cn is None, not counterexample_replays, evidence)


def _row_idempotency(seed: int, trials: int) -> TableRow:
    n_cn, v_cn = _run_trials(seed, "idempotency:cn", trials, _chain_trial)
    counterexample_replays = _transitivity_counterexample()
    evidence = (
        f"classical: consequence chains stay closed in {n_cn} trials; "
        f"para: {{p | q, ~p}} lies inside the consequences of {{p, ~p}} "
        f"yet adds q"
    )
    if v_cn:
        evidence = _render_violation(v_cn)
    return TableRow("idempotency", v_cn is None, not counterexample_replays, evidence)


def _row_transitivity(seed: int, trials: int) -> TableRow:
    n_cn, v_cn = _run_trials(seed, "transitivity:cn", trials, _chain_trial)
    counterexample_replays = _transitivity_counterexample()
    evidence = (
        f"classical: holds in {n_cn} trials; "
        f"para: A={{p, ~p}}, B={{p | q, ~p}}, a=q"
    )
    if v_cn:
        evidence = _render_violation(v_cn)
    return TableRow("transitivity", v_cn is None, not counterexample_replays, evidence)


def _row_weak_transitivity(seed: int, trials: int) -> TableRow:
    return _law_row(
        "weak transitivity",
        seed,
        trials,
        _weak_transitivity_trial,
        "single-formula middle steps compose in {trials} trials",
    )


def _row_deduction(seed: int, trials: int) -> TableRow:
    return _law_row(
        "deduction",
        seed,
        trials,
        _deduction_trial,
        "holds in {trials} trials; converse fails for para: "
        "{{q, p & ~p}} does not derive p & ~p",
        _deduction_converse_fails,
        {"converse instance": "failed"},
    )


def _row_inconsistent_sets(seed: int, trials: int) -> TableRow:
    # Classical: an unsatisfiable set entails everything.
    classical_exists = (not is_satisfiable([FALSUM])) and entails([FALSUM], Q)
    n_cnp, v_cnp = _run_trials(
        seed, "inconsistent sets:cnp", trials, _contradiction_trial
    )
    evidence = (
        f"classical: {{p & ~p}} derives everything; para: every sampled set "
        f"left a contradiction underivable ({n_cnp} trials)"
    )
    if v_cnp:
        evidence = _render_violation(v_cnp)
    return TableRow(
        "inconsistent sets", classical_exists, v_cnp is not None, evidence
    )


def _row_contradictory_sets(seed: int, trials: int) -> TableRow:
    pair = FormulaSet([P, Not(P)])
    classical_exists = entails(pair, P) and entails(pair, Not(P))
    para_exists = (
        para_entails(pair, P) is not None and para_entails(pair, Not(P)) is not None
    )
    evidence = "both derive p and ~p from {p, ~p} (para supports {p} and {~p})"
    return TableRow("contradictory sets", classical_exists, para_exists, evidence)


def _row_strongly_contradictory_sets(seed: int, trials: int) -> TableRow:
    classical_exists = is_contradiction(FALSUM) and entails([P, Not(P)], FALSUM)
    n_cnp, v_cnp = _run_trials(
        seed, "strongly contradictory:cnp", trials, _contradiction_trial
    )
    evidence = (
        f"classical: {{p, ~p}} derives p & ~p; para: no contradiction ever "
        f"derivable ({n_cnp} trials)"
    )
    if v_cnp:
        evidence = _render_violation(v_cnp)
    return TableRow(
        "strongly contradictory sets", classical_exists, v_cnp is not None, evidence
    )


def _row_paraconsistent_sets(seed: int, trials: int) -> TableRow:
    def trial_cn(s: FormulaSampler):
        premises = s.premise_set(min_size=1)
        candidates = build_universe(premises, ("subformulas", "negations"))
        verdict = classify(premises, candidates)
        if not verdict.paraconsistent:
            return True
        return {"A": premises.render(), "witness": _r(verdict.witness)}

    n_cn, v_cn = _run_trials(seed, "paraconsistent sets:cn", trials, trial_cn)
    pair = FormulaSet([P, Not(P)])
    candidates = build_universe(FormulaSet([P, Not(P), Q]), ("with_falsum",))
    para_example = para_classify(pair, candidates)
    evidence = (
        f"classical: none found in {n_cn} trials (consistency excludes "
        f"contradictoriness); para: {{p, ~p}} is consistent and contradictory"
    )
    if v_cn:
        evidence = _render_violation(v_cn)
    return TableRow(
        "paraconsistent sets",
        v_cn is not None,
        para_example.paraconsistent,
        evidence,
    )


_ROW_BUILDERS = (
    _row_finiteness,
    _row_monotonicity,
    _row_inclusion,
    _row_idempotency,
    _row_transitivity,
    _row_weak_transitivity,
    _row_deduction,
    _row_inconsistent_sets,
    _row_contradictory_sets,
    _row_strongly_contradictory_sets,
    _row_paraconsistent_sets,
)


def verify_table(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> list[TableRow]:
    """Build all eleven property rows; deterministic for a fixed seed.

    Raises ValueError when `trials` is below one.
    """
    return [builder(seed, trials) for builder in _ROW_BUILDERS]


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
# Claim batteries


def _claim(
    claim: str, trials: int, violation: Optional[dict], evidence: dict, holds=True
) -> ClaimResult:
    """Confirmed when no trial broke the law and the directed check holds."""
    return ClaimResult(
        claim,
        "confirmed" if violation is None and holds else "refuted",
        trials,
        evidence if violation is None else violation,
    )


def check_support_laws(
    seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS
) -> list[ClaimResult]:
    """Laws about |-P supports: contradictions, theorems, and singletons.

    Raises ValueError when `trials` is below one.
    """
    results = []

    # (a) no premise set para-derives a contradiction
    n_a, v_a = _run_trials(
        seed, "support:contradictions", trials, partial(_contradiction_trial, key="b")
    )
    results.append(
        _claim(
            "contradictions-never-derivable",
            n_a,
            v_a,
            {"directed": "{p, ~p} does not para-derive p & ~p"},
            para_entails([P, Not(P)], FALSUM) is None,
        )
    )

    # (b) para-consequences of a theorem are theorems, derivable from any set
    def trial_b(s: FormulaSampler):
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

    n_b, v_b = _run_trials(seed, "support:theorems", trials, trial_b)
    results.append(
        _claim(
            "theorem-consequences-are-universal",
            n_b,
            v_b,
            {"directed": "{p -> p} |-P q | ~q, a theorem derivable from any set"},
            para_entails([Implies(P, P)], Or(Q, Not(Q))) is not None
            and is_theorem(Or(Q, Not(Q)))
            and para_entails([FALSUM], Or(Q, Not(Q))) is not None,
        )
    )

    # (c) a singleton support means theoremhood or consistent classical entailment
    def trial_c(s: FormulaSampler):
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

    n_c, v_c = _run_trials(seed, "support:singletons", trials, trial_c)
    results.append(
        _claim(
            "singleton-support",
            n_c,
            v_c,
            {"directed": "{p} |-P p | q with {p} consistent and {p} |- p | q"},
            para_entails([P], Or(P, Q)) is not None
            and is_satisfiable([P])
            and entails([P], Or(P, Q)),
        )
    )
    return results


def check_deduction_and_weak_transitivity(
    seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS
) -> list[ClaimResult]:
    """Deduction and weak transitivity under |-P, plus their failure modes.

    Raises ValueError when `trials` is below one.
    """
    results = []
    laws = (
        ("deduction", _deduction_trial, "A + {a} |-P b implies A |-P a -> b"),
        (
            "weak-transitivity",
            _weak_transitivity_trial,
            "A |-P b and {b} |-P c imply A |-P c",
        ),
    )
    for claim, trial, law in laws:
        n, violation = _run_trials(
            seed, f"claims:{claim}", trials, partial(trial, rel=PARA)
        )
        results.append(_claim(claim, n, violation, {"law": law}))
    results.append(
        _claim(
            "deduction-converse-failure",
            1,
            None,
            {
                "instance": "{q} |-P (p & ~p) -> (p & ~p) "
                "but {q, p & ~p} does not para-derive p & ~p"
            },
            _deduction_converse_fails(),
        )
    )
    mp_pair = FormulaSet([P, Not(P)])
    results.append(
        _claim(
            "modus-ponens-failure",
            1,
            None,
            {
                "instance": "{p, ~p} |-P p and |-P p -> (p & ~p), "
                "yet p & ~p stays underivable"
            },
            para_entails(mp_pair, P) is not None
            and para_entails(mp_pair, Implies(P, FALSUM)) is not None
            and para_entails(mp_pair, FALSUM) is None,
        )
    )
    return results


def check_paraconsistency_transfer(
    structure: FiniteConsequenceStructure,
) -> ClaimResult:
    """Sufficient conditions for the transform to yield a paraconsistent result.

    When the structure is normal, explosive, jointly consistent and has the
    conjunctive property, the transformed structure must fail explosion; the
    verdict is established by exhaustive table checks and carries the
    witnessing premise subset.
    """
    if structure.negation is None:
        return ClaimResult(
            "paraconsistency-transfer",
            "not applicable",
            1 << structure.n_atoms,
            {
                "failing hypothesis": "explosion",
                "reason": "structure has no negation map",
            },
        )
    hypotheses = (
        ("normal", lambda s: is_normal(s)),
        ("explosion", lambda s: check_explosive(s).holds),
        ("joint consistency", lambda s: check_joint_consistency(s).holds),
        ("conjunctive property", lambda s: check_conjunctive_property(s).holds),
    )
    for name, probe in hypotheses:
        if not probe(structure):
            return ClaimResult(
                "paraconsistency-transfer",
                "not applicable",
                1 << structure.n_atoms,
                {"failing hypothesis": name},
            )
    transformed = paraconsistentize_finite(structure)
    report = check_explosive(transformed)
    if report.holds:
        return ClaimResult(
            "paraconsistency-transfer",
            "refuted",
            1 << structure.n_atoms,
            {"problem": "transformed structure is still explosive"},
        )
    subset, atom = report.counterexample
    closed = transformed.cn_mask(transformed.mask_of(subset))
    missing = next(
        a for i, a in enumerate(transformed.domain) if not closed >> i & 1
    )
    return ClaimResult(
        "paraconsistency-transfer",
        "confirmed",
        1 << structure.n_atoms,
        {
            "witness premise set": "{" + ", ".join(subset) + "}",
            "derivable pair": f"{atom} and {transformed.negation[atom]}",
            "underivable": missing,
        },
    )
