import itertools
import random
import time
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_eval, oracle_satisfiable, random_formula
from paracon import (
    And,
    FormulaSet,
    Implies,
    Not,
    Or,
    Var,
    build_universe,
    classify,
    entails,
    evaluate,
    is_contradiction,
    is_satisfiable,
    is_theorem,
    maximal_consistent_subsets,
    para_entails,
)
from paracon import classical
from paracon.classical import TABLE_VARIABLES, _PremiseSet
from paracon.formula import variables

P, Q, R = Var("p"), Var("q"), Var("r")
FALSUM = And(P, Not(P))


def test_evaluate_truth_tables():
    assert evaluate(Implies(P, Q), {"p": True, "q": False}) is False
    assert evaluate(FALSUM, {"p": True}) is False
    assert evaluate(FALSUM, {"p": False}) is False
    assert evaluate(Or(P, Q), {"p": False, "q": True}) is True
    assert evaluate(Not(P), {"p": False}) is True


def test_evaluate_missing_variable():
    with pytest.raises(KeyError):
        evaluate(And(P, Q), {"p": True})


def test_evaluate_rejects_non_formulas():
    with pytest.raises(TypeError):
        evaluate("p", {"p": True})
    with pytest.raises(TypeError):
        evaluate(And(P, "q"), {"p": True, "q": True})


def test_satisfiable_basics():
    assert is_satisfiable([FALSUM]) is False
    assert is_satisfiable([]) is True
    assert is_satisfiable([Or(P, Q), Not(P)]) is True  # witness q := true


def test_entails_basics():
    assert entails([P, Implies(P, Q)], Q) is True  # modus ponens
    assert entails([P, Not(P)], Q) is True  # explosion
    assert entails([], Implies(P, P)) is True
    assert entails([P], Q) is False


def test_is_theorem():
    assert is_theorem(Implies(P, P)) is True
    assert is_theorem(P) is False
    assert is_theorem(Implies(FALSUM, FALSUM)) is True


def test_is_contradiction():
    assert is_contradiction(FALSUM) is True
    assert is_contradiction(P) is False
    assert is_contradiction(Not(Implies(P, P))) is True


def test_satisfiable_agrees_with_naive_oracle():
    rng = random.Random(31)
    for _ in range(600):
        premises = [random_formula(rng) for _ in range(rng.randint(0, 4))]
        assert is_satisfiable(premises) == oracle_satisfiable(premises)


formula_strategy = st.recursive(
    st.sampled_from(["p", "q", "r"]).map(Var),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Or(*t)),
        st.tuples(inner, inner).map(lambda t: Implies(*t)),
    ),
    max_leaves=16,
)


def test_truth_table_rows_follow_product_order():
    # names[0] is the most significant row bit, as in itertools.product
    names = ["a", "b", "c"]
    formulas = [Var("a"), Var("c"), Implies(Var("a"), Not(Var("b")))]
    table = _PremiseSet(formulas)
    assert table.names == names
    rows = [dict(zip(names, v)) for v in itertools.product((False, True), repeat=3)]
    assert table.full == (1 << len(rows)) - 1
    for i, f in enumerate(formulas):
        bits = table.meet(1 << i)
        assert bits == table.rows(f)
        assert [bits >> r & 1 == 1 for r in range(len(rows))] == [
            oracle_eval(f, env) for env in rows
        ]
    # The meet of a mask holds exactly on the rows where its members all do.
    assert [table.meet(0b101) >> r & 1 == 1 for r in range(len(rows))] == [
        oracle_eval(formulas[0], env) and oracle_eval(formulas[2], env) for env in rows
    ]


def _implication_chain(width):
    # x0, x0 -> x1, ..., x(width-2) -> x(width-1): width variables, one model
    xs = [Var(f"x{i}") for i in range(width)]
    return [xs[0], *(Implies(a, b) for a, b in zip(xs, xs[1:]))], xs[-1]


@pytest.mark.parametrize("width", [TABLE_VARIABLES, TABLE_VARIABLES + 1])
def test_satisfiable_at_the_truth_table_boundary(width):
    # exactly TABLE_VARIABLES variables take the truth-table route; one more
    # falls back to the backtracking search
    chain, last = _implication_chain(width)
    for premises in (chain, [*chain, Not(last)], [*chain[1:], Not(last)]):
        assert is_satisfiable(premises) == oracle_satisfiable(premises)
    assert entails(chain, last)
    assert not entails(chain[1:], last)


def test_search_has_no_limit_on_the_number_of_variables():
    # One search level per variable: 1100 levels is past the default
    # recursion limit, which a recursive search would hit.
    atoms = [Var(f"v{i}") for i in range(1100)]
    assert is_satisfiable(atoms)
    assert not is_satisfiable([*atoms, Not(atoms[-1])])
    assert entails(atoms, atoms[-1])
    assert not entails(atoms, Not(atoms[0]))


@pytest.mark.parametrize("satisfiable", [True, False])
def test_search_checks_only_the_formulas_mentioning_the_name_set(
    satisfiable, monkeypatch
):
    # Each node re-checks the formulas over the name it just set, so n
    # one-atom premises cost O(n) evaluations, not one per premise per node.
    import paracon.classical

    n = 1100
    atoms = [Var(f"v{i}") for i in range(n)]
    premises = atoms if satisfiable else [*atoms, Not(atoms[-1])]
    calls = []
    evaluate_partial = paracon.classical._evaluate_partial
    monkeypatch.setattr(
        paracon.classical,
        "_evaluate_partial",
        lambda f, valuation: calls.append(f) or evaluate_partial(f, valuation),
    )
    assert is_satisfiable(premises) is satisfiable
    assert len(calls) <= 4 * n


def test_search_agrees_with_the_table_on_padded_sets():
    # Sixteen tautologies over fresh names push each set past the table, so
    # the search decides it; the unpadded set takes the table route.  The MCS
    # checks, capped at MCS_CAP premises, pad with one 16-name tautology.
    pool = tuple(f"x{i:02}" for i in range(12))
    padding = [Or(Var(f"z{i:02}"), Not(Var(f"z{i:02}"))) for i in range(16)]
    wide = reduce(And, [Var(f"z{i:02}") for i in range(16)])
    pad = Or(wide, Not(wide))
    rng, conclusions = random.Random(1729), random.Random(1730)
    answers = []
    for _ in range(300):
        premises = [random_formula(rng, 3, pool) for _ in range(rng.randint(1, 8))]
        answers.append(is_satisfiable(premises))
        assert is_satisfiable([*padding, *premises]) == answers[-1], premises
        conclusion = random_formula(conclusions, 3, pool)
        candidates = build_universe([conclusion], ("negations", "with_falsum"))
        padded = [*padding, *premises]
        assert entails(padded, conclusion) == entails(premises, conclusion)
        assert classify(padded, candidates) == classify(premises, candidates)
        # The pad is in every MCS and keeps the canonical order.
        mcses = maximal_consistent_subsets(premises)
        assert maximal_consistent_subsets([pad, *premises]) == [
            FormulaSet([pad, *m]) for m in mcses
        ]
        got = para_entails([pad, *premises], conclusion)
        want = para_entails(premises, conclusion)
        assert (got and got.support) == (want and FormulaSet([pad, *want.support]))
    assert True in answers and False in answers


@pytest.mark.parametrize("question", ["classify", "mcs"])
def test_search_route_searches_only_the_chosen_names(question, monkeypatch):
    # Seventeen names that {x, ~x} does not mention push each set past the
    # table.  A search over them too would walk 2**17 valuations before it
    # reached x; one over x alone is a two-row table.
    pad, x = [Var(f"a{i:02}") for i in range(17)], Var("x")
    search = classical._search

    def own_names_only(formulas, names):
        assert names == sorted(frozenset().union(*map(variables, formulas)))
        return search(formulas, names)

    monkeypatch.setattr(classical, "_search", own_names_only)
    start = time.perf_counter()
    if question == "classify":
        verdict = classify([x, Not(x)], build_universe(pad, ("negations",)))
        assert (verdict.consistent, verdict.contradictory) == (False, True)
    else:
        wide = reduce(And, pad)
        assert maximal_consistent_subsets([wide, x, Not(x)]) == [
            FormulaSet([wide, x]),
            FormulaSet([wide, Not(x)]),
        ]
    assert time.perf_counter() - start < 2.0


@given(st.lists(formula_strategy, max_size=4))
def test_satisfiable_matches_oracle_property(premises):
    assert is_satisfiable(premises) == oracle_satisfiable(premises)


@given(st.lists(formula_strategy, max_size=4), formula_strategy)
def test_entailment_monotone(premises, conclusion):
    if entails(premises, conclusion):
        assert entails([*premises, Q], conclusion)
        assert entails([*premises, FALSUM], conclusion)


@given(st.lists(formula_strategy, max_size=3), formula_strategy, formula_strategy)
def test_deduction_equivalence(premises, extra, conclusion):
    left = entails([*premises, extra], conclusion)
    right = entails(premises, Implies(extra, conclusion))
    assert left == right


def test_transitivity_random_instances():
    rng = random.Random(77)
    checked = 0
    for _ in range(400):
        premises = [random_formula(rng) for _ in range(rng.randint(0, 3))]
        middle = [random_formula(rng) for _ in range(rng.randint(1, 3))]
        conclusion = random_formula(rng)
        if all(entails(premises, b) for b in middle) and entails(middle, conclusion):
            assert entails(premises, conclusion)
            checked += 1
    assert checked > 20


def _formulas_up_to(variables_pool, depth):
    layer = [Var(v) for v in variables_pool]
    for _ in range(depth):
        bigger = list(layer)
        seen = set(bigger)

        def push(f):
            if f not in seen:
                seen.add(f)
                bigger.append(f)

        for f in layer:
            push(Not(f))
        for f in layer:
            for g in layer:
                push(And(f, g))
                push(Or(f, g))
                push(Implies(f, g))
        layer = bigger
    return layer


def test_contradiction_matches_literal_definition_exhaustive():
    # is_contradiction(f) must coincide with {f} |- p & ~p; the negated
    # conjunct is a tautology, so only unsatisfiability of f matters.
    for f in _formulas_up_to(("p", "q"), 2):
        assert is_contradiction(f) == entails([f], FALSUM)
    for f in _formulas_up_to(("p",), 3):
        assert is_contradiction(f) == entails([f], FALSUM)


def test_contradiction_matches_literal_definition_sampled():
    rng = random.Random(13)
    for _ in range(1000):
        f = random_formula(rng, depth=4)
        assert is_contradiction(f) == entails([f], FALSUM)


# -- classify -----------------------------------------------------------------


def test_classify_explosive_pair():
    candidates = build_universe([P, Not(P)], ("with_falsum",))
    verdict = classify(FormulaSet([P, Not(P)]), candidates)
    assert verdict.consistent is False
    assert verdict.contradictory is True
    assert verdict.strongly_contradictory is True
    assert verdict.paraconsistent is False
    assert verdict.witness == P


def test_classify_plain_consistent_set():
    candidates = build_universe([P, Not(P)])
    verdict = classify(FormulaSet([P]), candidates)
    assert verdict.consistent is True
    assert verdict.contradictory is False
    assert verdict.strongly_contradictory is False
    assert verdict.paraconsistent is False
    assert verdict.witness is None


def test_classify_empty_set():
    candidates = build_universe([P, Q], ("negations",))
    verdict = classify(FormulaSet(), candidates)
    assert verdict.consistent is True
    assert verdict.contradictory is False


def test_classify_requires_candidates():
    with pytest.raises(ValueError):
        classify(FormulaSet([P]), FormulaSet())


def test_classify_never_paraconsistent_classically():
    rng = random.Random(41)
    for _ in range(150):
        premises = FormulaSet(random_formula(rng, 3) for _ in range(rng.randint(1, 4)))
        candidates = build_universe(premises, ("subformulas", "negations"))
        assert classify(premises, candidates).paraconsistent is False


def test_exhaustive_pair_classification_small():
    # Over every pair of depth<=1 formulas in one variable, consistency and
    # contradictoriness never coincide classically.
    pool = _formulas_up_to(("p",), 1)
    candidates = build_universe(pool, ("negations",))
    for f, g in itertools.product(pool[:8], repeat=2):
        verdict = classify(FormulaSet([f, g]), candidates)
        assert verdict.contradictory == (not verdict.consistent)
        assert not verdict.paraconsistent
