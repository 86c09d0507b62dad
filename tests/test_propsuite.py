import hashlib
import random

import pytest

import paracon.propsuite as propsuite
from oracles import ChoiceFormulaSampler, identity_structure
from paracon import (
    EXPECTED_VERDICTS,
    Formula,
    FormulaSet,
    Not,
    ParaWitness,
    SetClassification,
    Var,
    build_universe,
    check_deduction_and_weak_transitivity,
    check_paraconsistency_transfer,
    check_support_laws,
    classical_restriction,
    render,
    render_table,
    table_matches_expected,
    verify_table,
)

P = Var("p")
TRIALS = 120  # unit-level; the acceptance suite runs the full counts


@pytest.fixture(scope="module")
def rows():
    return verify_table(trials=TRIALS)


def test_table_has_eleven_rows_in_order(rows):
    assert [row.name for row in rows] == list(EXPECTED_VERDICTS)


def test_table_matches_expected_verdicts(rows):
    for row in rows:
        assert (row.holds_cn, row.holds_cnp) == EXPECTED_VERDICTS[row.name], row


def test_table_is_deterministic_per_seed(rows):
    assert verify_table(trials=TRIALS) == rows


def test_verdicts_are_seed_independent(rows):
    for seed in (7, 11):
        other = verify_table(seed=seed, trials=60)
        assert table_matches_expected(other)


def test_render_table_layout(rows):
    text = render_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["property", "classical", "paraclassical"]
    assert len(lines) == 1 + 11 + 2 + 11  # header, rows, blank+label, evidence
    assert "✓" in text and "×" in text
    assert text.endswith("\n")


def test_zero_trials_rejected(monkeypatch):
    """Each battery rejects a count below one with ValueError, before any draw."""

    def no_draws(seed, label):
        raise AssertionError(f"drew for {label!r}")

    monkeypatch.setattr(propsuite, "_rng", no_draws)
    for battery in (verify_table, check_support_laws, check_deduction_and_weak_transitivity):
        for trials in (0, -3):
            with pytest.raises(ValueError, match="confirmations need at least one trial"):
                battery(seed=0, trials=trials)


# -- sampler -------------------------------------------------------------------


def test_sampler_draws_as_random_choice_does():
    """Same formulas and generator state as the random.choice reference."""
    depths = (propsuite.MAX_DEPTH, 0, 2, 2, propsuite.MAX_DEPTH, 0)
    for seed in range(300):
        fast = propsuite.FormulaSampler(random.Random(seed))
        reference = ChoiceFormulaSampler(random.Random(seed))
        for depth in depths:
            assert fast.formula(depth) == reference.formula(depth), (seed, depth)
            assert fast.rng.getstate() == reference.rng.getstate(), (seed, depth)


def test_every_row_reports_its_trial_counts(rows):
    for row in rows:
        if row.name not in ("contradictory sets",):
            assert str(TRIALS) in row.evidence, row


# -- claim batteries ----------------------------------------------------------


def test_support_laws_confirm():
    results = check_support_laws(trials=TRIALS)
    assert [r.claim for r in results] == [
        "contradictions-never-derivable",
        "theorem-consequences-are-universal",
        "singleton-support",
    ]
    for result in results:
        assert result.verdict == "confirmed"
        assert result.trials >= TRIALS
        assert result.evidence


def test_deduction_and_weak_transitivity_confirm():
    results = check_deduction_and_weak_transitivity(trials=TRIALS)
    by_claim = {r.claim: r for r in results}
    assert by_claim["deduction"].verdict == "confirmed"
    assert by_claim["deduction"].trials >= TRIALS
    assert by_claim["weak-transitivity"].verdict == "confirmed"
    assert by_claim["weak-transitivity"].trials >= TRIALS
    assert by_claim["deduction-converse-failure"].verdict == "confirmed"
    assert by_claim["modus-ponens-failure"].verdict == "confirmed"


def test_no_confirmation_without_trials():
    results = check_support_laws(trials=1)
    assert all(r.trials >= 1 for r in results)


# -- paraconsistency transfer ----------------------------------------------------


def test_transfer_confirmed_on_classical_restriction():
    u = build_universe(
        [P, Not(P)], ("subformulas", "negations", "conjunctions", "with_falsum")
    )
    result = check_paraconsistency_transfer(classical_restriction(u))
    assert result.verdict == "confirmed"
    assert result.evidence["witness premise set"] == "{p, ~p}"
    assert result.evidence["underivable"] == "p & ~p"
    assert result.trials == 2 ** 7


def test_transfer_not_applicable_joint_consistency():
    # One self-negating atom whose singleton is the whole domain.
    s = identity_structure(1, {"a": "a"})
    result = check_paraconsistency_transfer(s)
    assert result.verdict == "not applicable"
    assert result.evidence["failing hypothesis"] == "joint consistency"


def test_transfer_not_applicable_explosion():
    s = identity_structure(3, {"a": "b", "b": "a", "c": "c"})
    result = check_paraconsistency_transfer(s)
    assert result.verdict == "not applicable"
    assert result.evidence["failing hypothesis"] == "explosion"


def test_transfer_not_applicable_conjunctive():
    s = identity_structure(2, {"a": "b", "b": "a"})
    result = check_paraconsistency_transfer(s)
    assert result.verdict == "not applicable"
    assert result.evidence["failing hypothesis"] == "conjunctive property"


def test_transfer_not_applicable_without_negation():
    result = check_paraconsistency_transfer(identity_structure(2))
    assert result.verdict == "not applicable"
    assert result.evidence["failing hypothesis"] == "explosion"
    assert "no negation map" in result.evidence["reason"]


def test_transfer_not_applicable_normality():
    from paracon import FiniteConsequenceStructure

    # Normality is the first hypothesis, with or without a negation map.
    for negation in ({"a": "b", "b": "a"}, None):
        s = FiniteConsequenceStructure(("a", "b"), (0b00, 0b11, 0b10, 0b01), negation)
        result = check_paraconsistency_transfer(s)
        assert result.verdict == "not applicable"
        assert result.evidence == {"failing hypothesis": "normal"}


def test_transfer_evidence_replays():
    from paracon import check_explosive, paraconsistentize_finite

    u = build_universe(
        [P, Not(P)], ("subformulas", "negations", "conjunctions", "with_falsum")
    )
    s = classical_restriction(u)
    result = check_paraconsistency_transfer(s)
    transformed = paraconsistentize_finite(s)
    report = check_explosive(transformed)
    assert not report.holds
    subset, atom = report.counterexample
    assert "{" + ", ".join(subset) + "}" == result.evidence["witness premise set"]
    closed = transformed.cn_mask(transformed.mask_of(subset))
    assert closed >> transformed.domain.index(atom) & 1
    missing_index = transformed.domain.index(result.evidence["underivable"])
    assert not closed >> missing_index & 1


# -- call transcript --------------------------------------------------------------

TRANSCRIPT_CALLS = (
    "entails",
    "para_entails",
    "classify",
    "para_classify",
    "is_satisfiable",
    "is_theorem",
    "is_contradiction",
    "maximal_consistent_subsets",
)
# A changed draw, query, result or call order changes these.
TRANSCRIPT_SHA256 = "c7f1545902d9cb707b424ccae49f270c2ae3e66ed5db84b9bc342e42c204d235"
TRANSCRIPT_LENGTH = 2603


def _show(value):
    if isinstance(value, Formula):
        return render(value)
    if isinstance(value, (FormulaSet, list, tuple)):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    if isinstance(value, ParaWitness):
        return f"via {_show(value.support)} maximal={value.maximal}"
    if isinstance(value, SetClassification):
        return (
            f"consistent={value.consistent} contradictory={value.contradictory} "
            f"strong={value.strongly_contradictory} "
            f"paraconsistent={value.paraconsistent} witness={_show(value.witness)}"
        )
    return repr(value)


def test_suites_make_the_same_calls_in_the_same_order(monkeypatch):
    """Every library call the suites make, with arguments and result, in order.

    The golden table shows only verdicts and trial counts; this pins the
    draws and the queries behind them.
    """
    lines = []

    def recording(name, original):
        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            shown = [_show(a) for a in args]
            shown += [f"{k}={_show(v)}" for k, v in sorted(kwargs.items())]
            lines.append(f"{name}({'; '.join(shown)}) -> {_show(result)}")
            return result

        return call

    for name in TRANSCRIPT_CALLS:
        monkeypatch.setattr(propsuite, name, recording(name, getattr(propsuite, name)))
    verify_table(seed=0, trials=30)
    check_support_laws(seed=0, trials=30)
    check_deduction_and_weak_transitivity(seed=0, trials=30)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (TRANSCRIPT_LENGTH, TRANSCRIPT_SHA256)
