"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
from pathlib import Path

from oracles import (
    FastParaOracle,
    identity_structure,
    oracle_transform_table,
    random_closure_structure,
    random_structure,
    reflects_consistency,
    relabeled_copy,
    survival_obstruction,
)
from paracon import (
    And,
    FiniteConsequenceStructure,
    FormulaSet,
    HomomorphismCandidate,
    Implies,
    Not,
    Or,
    Var,
    build_universe,
    check_axiom,
    check_conjunctive_property,
    check_deduction_and_weak_transitivity,
    check_explosive,
    check_homomorphism,
    check_joint_consistency,
    check_paraconsistency_transfer,
    check_support_laws,
    classical_restriction,
    dumps_structure,
    is_normal,
    load_structure,
    loads_structure,
    para_entails,
    paraconsistentize_finite,
    parse,
    render,
    save_structure,
)
from paracon.cli import main as cli_main
from paracon.parafunctor import FunctorOptions

P, Q, R = Var("p"), Var("q"), Var("r")
FALSUM = And(P, Not(P))
GOLDEN = Path(__file__).parent / "golden" / "verify_table.txt"


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({title}): {verdict}{suffix}")
    assert ok, f"acceptance criterion {number} failed: {title}"


def test_criterion_1_paraconsistency_of_paraclassical_entailment():
    pair = FormulaSet([P, Not(P)])
    w1 = para_entails(pair, Or(P, Q))
    w2 = para_entails(pair, Not(P))
    w3 = para_entails(FormulaSet([Or(P, Q), Not(P)]), Q)
    blocked = para_entails(pair, Q)
    ok = (
        w1 is not None
        and w1.support.render() == "{p}"
        and w2 is not None
        and w2.support.render() == "{~p}"
        and w3 is not None
        and w3.support.render() == "{p | q, ~p}"
        and blocked is None
    )
    detail = (
        f"supports: p|q from {w1.support.render()}, ~p from {w2.support.render()}, "
        f"q from {w3.support.render()}; q underivable from {{p, ~p}}"
    )
    _report(1, "paraclassical entailment instances", ok, detail)


def test_criterion_2_inclusion_failure():
    ok = para_entails(FormulaSet([FALSUM]), FALSUM) is None
    _report(2, "inclusion fails: {p & ~p} does not derive p & ~p", ok)


def test_criterion_3_transitivity_fails_weak_transitivity_and_deduction_hold():
    a_set = FormulaSet([P, Not(P)])
    b_set = FormulaSet([Or(P, Q), Not(P)])
    triple_ok = (
        para_entails(a_set, Or(P, Q)) is not None
        and para_entails(a_set, Not(P)) is not None
        and para_entails(b_set, Q) is not None
        and para_entails(a_set, Q) is None
    )
    results = {r.claim: r for r in check_deduction_and_weak_transitivity(trials=1000)}
    deduction = results["deduction"]
    weak = results["weak-transitivity"]
    randomized_ok = (
        deduction.verdict == "confirmed"
        and deduction.trials >= 1000
        and weak.verdict == "confirmed"
        and weak.trials >= 1000
    )
    _report(
        3,
        "transitivity counterexample; deduction and weak transitivity",
        triple_ok and randomized_ok,
        f"triple A={{p, ~p}}, B={{p | q, ~p}}, a=q; deduction {deduction.trials} "
        f"trials, weak transitivity {weak.trials} trials, 0 violations",
    )


def test_criterion_4_contradictions_never_derivable():
    result = check_support_laws(trials=1000)[0]
    ok = (
        result.claim == "contradictions-never-derivable"
        and result.verdict == "confirmed"
        and result.trials >= 1000
    )
    _report(4, "no contradiction is para-derivable", ok, f"{result.trials} trials, 0 violations")


def test_criterion_5_summary_table_matches_golden(capsys):
    code = cli_main(["verify-table"])
    out = capsys.readouterr().out
    golden = GOLDEN.read_text(encoding="utf-8")
    ok = code == 0 and out == golden
    with capsys.disabled():
        _report(5, "eleven-row table matches the committed golden file", ok)


def test_criterion_6_subset_scan_agrees_with_mcs_route():
    pool = [
        parse(text)
        for text in (
            "p", "q", "r", "~p", "~q", "~r",
            "p | q", "p & q", "p -> q", "q -> r",
            "p & ~p", "~(p & q)", "p | ~p", "p -> p & q",
            "p & q -> r", "~~p",
        )
    ]
    extras = [parse(text) for text in ("q & r", "p & ~p", "q | ~q", "p -> r", "~q | r")]
    rng = random.Random(606)
    checks = 0
    ok = True
    for size in range(13):
        for _ in range(4):
            premises = FormulaSet(rng.sample(pool, size))
            oracle = FastParaOracle(premises.items)
            conclusions = extras + [rng.choice(pool) for _ in range(3)]
            for conclusion in conclusions:
                got = para_entails(premises, conclusion) is not None
                want = oracle.entails(conclusion)
                ok = ok and (got == want)
                checks += 1
    _report(
        6,
        "maximal-consistent-subset route agrees with the literal subset scan",
        ok,
        f"{checks} queries over premise sets of sizes 0..12, 100% agreement",
    )


def _check_transform_laws(structure) -> bool:
    s = structure
    full = s.full_mask
    transformed = paraconsistentize_finite(s)
    inclusive = paraconsistentize_finite(s, FunctorOptions(inclusive=True))
    # both variants agree with CnP's definition read off the source table
    if list(transformed.table) != oracle_transform_table(s):
        return False
    if list(inclusive.table) != oracle_transform_table(s, inclusive=True):
        return False
    # consistent sets keep their consequences under the transform
    for mask in range(full + 1):
        if s.table[mask] != full and s.table[mask] & ~transformed.table[mask]:
            return False
    # the transform enforces monotonicity, exhaustively over subset pairs
    for mask in range(full + 1):
        sub = mask
        while True:
            if transformed.table[sub] & ~transformed.table[mask]:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & mask
    # finiteness stays vacuously true
    if not (check_axiom(s, "finiteness").holds and check_axiom(transformed, "finiteness").holds):
        return False
    # the inclusive variant really contains its premises
    for mask in range(full + 1):
        if inclusive.table[mask] & mask != mask:
            return False
    return True


def test_criterion_7_finite_structure_laws():
    rng = random.Random(424242)
    structures = [random_structure(rng, rng.randint(1, 5)) for _ in range(140)]
    structures += [
        random_closure_structure(rng, rng.randint(1, 5), index % 2 == 0)
        for index in range(70)
    ]
    structures.append(identity_structure(1, {"a": "a"}))
    structures.append(identity_structure(2, {"a": "b", "b": "a"}))
    structures.append(identity_structure(3, {"a": "b", "b": "a", "c": "c"}))
    structures.append(
        FiniteConsequenceStructure(("a", "b"), (0b00, 0b11, 0b10, 0b01))
    )
    law_violations = sum(0 if _check_transform_laws(s) else 1 for s in structures)

    qualifying = 0
    hypothesis_violations = 0
    for s in structures:
        singleton_blows_up = any(
            s.table[1 << i] == s.full_mask for i in range(s.n_atoms)
        )
        if not (is_normal(s) and singleton_blows_up):
            continue
        qualifying += 1
        transformed = paraconsistentize_finite(s)
        if any(transformed.table[m] == s.full_mask for m in range(s.full_mask + 1)):
            hypothesis_violations += 1
        if paraconsistentize_finite(transformed) != transformed:
            hypothesis_violations += 1

    # homomorphism laws, over every injective map between the small pool
    # members (plus relabeled copies, so the validated set is non-trivial)
    pool = [s for s in structures if s.n_atoms <= 3][:16]
    rng2 = random.Random(777)
    for original in pool[:6]:
        copy, _ = relabeled_copy(original, rng2)
        pool.append(copy)
    pool.append(identity_structure(2))
    pool.append(identity_structure(3))
    validated = []
    for source in pool:
        for target in pool:
            if source.n_atoms > target.n_atoms:
                continue
            for image in itertools.permutations(target.domain, source.n_atoms):
                candidate = HomomorphismCandidate(
                    source, target, dict(zip(source.domain, image))
                )
                if check_homomorphism(candidate).holds:
                    validated.append(candidate)

    # Functoriality: every consistency-reflecting map survives the transform,
    # and a validated map survives exactly when the covering condition read
    # off the source table holds (see oracles.survival_obstruction).
    consistency_violations = 0
    composition_violations = 0
    reflecting_violations = 0
    condition_mismatches = 0
    reflecting_survivors = 0
    other_survivors = 0
    refuted = []
    for candidate in validated:
        src, tgt = candidate.source, candidate.target
        for mask in range(src.full_mask + 1):
            if src.table[mask] != src.full_mask:
                image = tgt.mask_of(
                    candidate.mapping[a] for a in src.labels_of(mask)
                )
                if tgt.table[image] == tgt.full_mask:
                    consistency_violations += 1
        survives = check_homomorphism(
            HomomorphismCandidate(
                paraconsistentize_finite(src),
                paraconsistentize_finite(tgt),
                candidate.mapping,
            )
        ).holds
        reflects = reflects_consistency(candidate)
        obstruction = survival_obstruction(candidate)
        if survives != (obstruction is None):
            condition_mismatches += 1
        if reflects and not survives:
            reflecting_violations += 1
        if not survives:
            refuted.append((candidate, obstruction))
        elif reflects:
            reflecting_survivors += 1
        else:
            other_survivors += 1
    compositions = 0
    for first in validated:
        for second in validated:
            if first.target == second.source:
                composed = {
                    a: second.mapping[first.mapping[a]] for a in first.source.domain
                }
                if not check_homomorphism(
                    HomomorphismCandidate(first.source, second.target, composed)
                ).holds:
                    composition_violations += 1
                compositions += 1

    base_ok = (
        law_violations == 0
        and hypothesis_violations == 0
        and qualifying >= 10
        and len(validated) >= len(pool)
        and consistency_violations == 0
        and composition_violations == 0
        and compositions > 0
    )
    functor_ok = (
        reflecting_violations == 0
        and condition_mismatches == 0
        and reflecting_survivors >= 1
        and len(refuted) >= 1
    )
    detail = (
        f"{len(structures)} structures ({law_violations} transform-law "
        f"violations, {qualifying} met the idempotence hypotheses with "
        f"{hypothesis_violations} violations); {len(validated)} homomorphisms "
        f"({consistency_violations} consistency violations), {compositions} "
        f"compositions ({composition_violations} not closed); after the "
        f"transform {reflecting_survivors} consistency-reflecting maps survive "
        f"({reflecting_violations} violations), {other_survivors} "
        f"non-reflecting maps survive, {len(refuted)} are refuted, and the "
        f"covering condition predicts survival with {condition_mismatches} "
        f"mismatches"
    )
    if refuted:
        first, obstruction = refuted[0]
        detail += (
            f" (first refuted: {first.mapping} from domain {first.source.domain} "
            f"into domain {first.target.domain}: source subset {obstruction} is "
            f"inconsistent, its image stays consistent, and its consistent "
            f"subsets do not derive the whole source domain)"
        )
    _report(7, "finite-structure laws", base_ok and functor_ok, detail)


def test_criterion_8_paraconsistency_transfer_end_to_end():
    universe = build_universe(
        [P, Not(P)], ("subformulas", "negations", "conjunctions", "with_falsum")
    )
    restriction = classical_restriction(universe)
    hypotheses = (
        is_normal(restriction)
        and check_explosive(restriction).holds
        and check_joint_consistency(restriction).holds
        and check_conjunctive_property(restriction).holds
    )
    result = check_paraconsistency_transfer(restriction)
    transformed = paraconsistentize_finite(restriction)
    ok = (
        hypotheses
        and result.verdict == "confirmed"
        and result.evidence["witness premise set"] == "{p, ~p}"
        and not check_explosive(transformed).holds
        and paraconsistentize_finite(transformed) == transformed
    )
    _report(
        8,
        "transfer conditions hold and the transform is idempotent",
        ok,
        f"witness A={result.evidence['witness premise set']}, "
        f"underivable {result.evidence['underivable']}",
    )


def _fuzz_formula(rng, depth):
    kind = rng.choice("vvnaoi") if depth else "v"
    if kind == "v":
        return Var(rng.choice(("p", "q", "r", "x_9", "Zz")))
    if kind == "n":
        return Not(_fuzz_formula(rng, depth - 1))
    return {"a": And, "o": Or, "i": Implies}[kind](
        _fuzz_formula(rng, depth - 1), _fuzz_formula(rng, depth - 1)
    )


def test_criterion_9_round_trips(tmp_path):
    rng = random.Random(909090)
    count = 10000
    ok = all(
        parse(render(f)) == f
        for f in (_fuzz_formula(rng, rng.randint(0, 6)) for _ in range(count))
    )
    files_ok = True
    for index in range(30):
        s = random_structure(rng, rng.randint(1, 4))
        text = dumps_structure(s)
        if loads_structure(text) != s or dumps_structure(loads_structure(text)) != text:
            files_ok = False
        path = tmp_path / f"s{index}.json"
        save_structure(s, path)
        if load_structure(path) != s or path.read_text(encoding="utf-8") != text:
            files_ok = False
    _report(
        9,
        "round trips",
        ok and files_ok,
        f"{count} formulas re-parsed exactly; 30 structure files byte-exact",
    )
