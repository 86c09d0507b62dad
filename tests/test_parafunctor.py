import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

from oracles import (
    LETTERS,
    identity_structure,
    oracle_classification,
    oracle_entails,
    oracle_mcs_masks,
    oracle_mcs_masks_by_rows,
    oracle_para_entails,
    oracle_sweep_table,
    oracle_transform_table,
    random_closure_structure,
    random_formula,
    random_structure,
)
from paracon import (
    And,
    CapExceededError,
    FiniteConsequenceStructure,
    FormulaSet,
    FunctorOptions,
    Implies,
    Not,
    Or,
    Var,
    build_universe,
    classical_restriction,
    classify,
    entails,
    format_formula_set,
    is_contradiction,
    is_satisfiable,
    is_theorem,
    maximal_consistent_subsets,
    para_classify,
    para_entails,
    paraconsistentize_finite,
    render,
    variables,
)
from paracon import parafunctor
from paracon.cli import main

P, Q, R = Var("p"), Var("q"), Var("r")
FALSUM = And(P, Not(P))


# -- finite transform -----------------------------------------------------------


def test_two_atom_worked_example():
    # Cn: empty->empty, {a}->{a}, {b}->{b}, {a,b}->{a,b} (the full domain).
    s = FiniteConsequenceStructure(("a", "b"), (0b00, 0b01, 0b10, 0b11))
    p = paraconsistentize_finite(s)
    # {a,b} is inconsistent, so only empty, {a}, {b} contribute; their union
    # happens to cover the whole domain anyway.
    assert p.table == (0b00, 0b01, 0b10, 0b11)
    assert p.domain == s.domain


def test_inclusive_variant_absorbs_premises():
    s = FiniteConsequenceStructure(("a", "b"), (0b00, 0b01, 0b10, 0b11))
    inclusive = paraconsistentize_finite(s, FunctorOptions(inclusive=True))
    assert inclusive == paraconsistentize_finite(s)  # A was already inside

    rng = random.Random(4)
    for _ in range(40):
        s = random_structure(rng, rng.randint(1, 4))
        inclusive = paraconsistentize_finite(s, FunctorOptions(inclusive=True))
        for mask in range(1 << s.n_atoms):
            assert inclusive.table[mask] & mask == mask


def test_transform_drops_only_inconsistent_subsets():
    rng = random.Random(9)
    for _ in range(60):
        s = random_structure(rng, rng.randint(1, 4))
        p = paraconsistentize_finite(s)
        full = s.full_mask
        for mask in range(full + 1):
            expected = 0
            sub = mask
            while True:
                if s.table[sub] != full:
                    expected |= s.table[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            assert p.table[mask] == expected


def test_consistent_sets_keep_their_consequences_when_monotone():
    # On monotone structures the transform is invisible on consistent sets.
    rng = random.Random(14)
    for _ in range(40):
        s = random_closure_structure(rng, rng.randint(1, 4))
        p = paraconsistentize_finite(s)
        for mask in range(1 << s.n_atoms):
            if s.table[mask] != s.full_mask:
                assert p.table[mask] == s.table[mask]


def test_transform_enforces_monotonicity():
    rng = random.Random(23)
    for _ in range(60):
        s = random_structure(rng, rng.randint(1, 4))
        p = paraconsistentize_finite(s)
        for mask in range(1 << s.n_atoms):
            sub = mask
            while True:
                assert p.table[sub] & ~p.table[mask] == 0
                if sub == 0:
                    break
                sub = (sub - 1) & mask


def test_transform_idempotent_under_hypotheses():
    # Normal structure with an inconsistent singleton: applying the
    # transform twice changes nothing, table-exact.
    rng = random.Random(33)
    hits = 0
    for _ in range(60):
        s = random_closure_structure(rng, rng.randint(1, 4), True)
        once = paraconsistentize_finite(s)
        assert paraconsistentize_finite(once) == once
        hits += 1
    assert hits == 60


def test_transform_on_restriction_is_idempotent():
    u = build_universe([P, Not(P)], ("subformulas", "negations", "conjunctions", "with_falsum"))
    s = classical_restriction(u)
    once = paraconsistentize_finite(s)
    assert paraconsistentize_finite(once) == once


# Universes of 5, 6, 7, 8, 10 and 12 formulas over p, q and r.
CLASSICAL_CASE_UNIVERSES = (
    ([P, Not(P)], ("subformulas", "negations", "with_falsum")),
    ([P, Q, Not(And(P, Q))], ("subformulas", "with_falsum")),
    ([P, Not(P)], ("subformulas", "negations", "conjunctions", "with_falsum")),
    ([P, Q, Implies(R, P), Not(And(P, Q))], ("subformulas", "with_falsum")),
    ([Or(P, Q), Not(P), Not(Q), R], ("negations", "with_falsum")),
    ([P, Q, Implies(Q, R), Not(R), Or(P, R)], ("negations", "with_falsum")),
)


@pytest.mark.parametrize("seed,flags", CLASSICAL_CASE_UNIVERSES)
def test_transformed_restriction_is_paraclassical_entailment(seed, flags):
    # The paper's classical case: the transform of classical consequence
    # restricted to U decides A |-P f for every A within U and f in U.
    formulas = build_universe(seed, flags).items
    n = len(formulas)
    index = {f: i for i, f in enumerate(formulas)}
    s = classical_restriction(FormulaSet(formulas))
    para = paraconsistentize_finite(s).table
    inclusive = paraconsistentize_finite(s, FunctorOptions(inclusive=True)).table
    consistent = [value != s.full_mask for value in s.table]
    for a in range(1 << n):
        premises = FormulaSet(formulas[i] for i in range(n) if a >> i & 1)
        for i, f in enumerate(formulas):
            answered = para_entails(premises, f) is not None
            assert (para[a] >> i & 1, inclusive[a] >> i & 1) == (
                answered,
                answered or a >> i & 1,
            ), (premises, f)
        # The maximal subsets of A that are consistent in the restriction.
        maximal = set()
        sub = a
        while True:
            outside = [1 << i for i in range(n) if a >> i & 1 and not sub >> i & 1]
            if consistent[sub] and not any(consistent[sub | bit] for bit in outside):
                maximal.add(sub)
            if not sub:
                break
            sub = (sub - 1) & a
        listed = {
            sum(1 << index[f] for f in mcs)
            for mcs in maximal_consistent_subsets(premises)
        }
        assert listed == maximal, premises


def _assert_transform_matches_definition(s):
    for inclusive in (False, True):
        p = paraconsistentize_finite(s, FunctorOptions(inclusive=inclusive))
        assert list(p.table) == oracle_transform_table(s, inclusive), (s.table, inclusive)


def test_transform_matches_its_definition_on_every_table_up_to_two_atoms():
    # All 4 + 256 tables, closure operators or not; Cn(empty) may be the
    # whole domain.
    for n in (1, 2):
        size = 1 << n
        for table in itertools.product(range(size), repeat=size):
            _assert_transform_matches_definition(
                FiniteConsequenceStructure(LETTERS[:n], table)
            )


def _closure_systems(n):
    """Every intersection-closed family of subsets of n atoms holding the full set.

    Adding a set X to such a family F and closing gives F plus every X & m
    for m in F, so a search from {full} by single additions reaches them all.
    """
    full = (1 << n) - 1
    seen = {frozenset([full])}
    todo = list(seen)
    while todo:
        family = todo.pop()
        for extra in range(full):
            if extra not in family:
                grown = family | {extra & m for m in family}
                if grown not in seen:
                    seen.add(grown)
                    todo.append(grown)
    return seen


def test_transform_matches_its_definition_on_every_closure_system():
    for n, count in ((3, 61), (4, 2480)):
        systems = _closure_systems(n)
        assert len(systems) == count
        for family in systems:
            # Cn(A) is the least member of the family containing A.
            table = [
                min((m for m in family if m & mask == mask), key=int.bit_count)
                for mask in range(1 << n)
            ]
            _assert_transform_matches_definition(
                FiniteConsequenceStructure(LETTERS[:n], table)
            )


def test_transform_matches_its_definition_on_random_tables():
    rng = random.Random(51)
    for n in range(5, 11):
        full = (1 << n) - 1
        for _ in range(2):
            # A quarter of the entries inconsistent, so the filter matters.
            table = [
                full if rng.random() < 0.25 else rng.randrange(full + 1)
                for _ in range(full + 1)
            ]
            _assert_transform_matches_definition(
                FiniteConsequenceStructure(LETTERS[:n], table)
            )


@pytest.mark.parametrize("inclusive", [False, True])
def test_transform_at_the_atom_cap(inclusive):
    # 16 atoms fill each 16-bit packed field: inputs and results include
    # 0xFFFF and 0, so a narrower or signed field would change the table.
    rng = random.Random(16)
    full = 0xFFFF
    table = [
        rng.choice((0, full, full, rng.randrange(full + 1))) for _ in range(full + 1)
    ]
    table[0], table[1], table[2] = 0, full ^ 1, 1  # {a} and {b} cover the domain
    s = FiniteConsequenceStructure(LETTERS[:16], table)
    p = paraconsistentize_finite(s, FunctorOptions(inclusive=inclusive))
    assert list(p.table) == oracle_sweep_table(s, inclusive)
    assert p.table[0] == 0 and p.table[3] == full


# -- maximal consistent subsets ---------------------------------------------------


def test_mcs_examples():
    assert [s.render() for s in maximal_consistent_subsets([P, Not(P)])] == [
        "{p}",
        "{~p}",
    ]
    assert [s.render() for s in maximal_consistent_subsets([P, Q])] == ["{p, q}"]
    assert [s.render() for s in maximal_consistent_subsets([P, Not(P), Q])] == [
        "{p, q}",
        "{~p, q}",
    ]


def test_mcs_of_satisfiable_set_is_itself():
    premises = FormulaSet([P, Or(Q, R), Implies(P, Q)])
    assert maximal_consistent_subsets(premises) == [premises]


def test_mcs_empty_only_when_all_members_unsatisfiable():
    result = maximal_consistent_subsets([FALSUM, And(Q, Not(Q))])
    assert result == [FormulaSet()]
    assert maximal_consistent_subsets([]) == [FormulaSet()]


def test_mcs_matches_oracle_order():
    rng = random.Random(2)
    for _ in range(80):
        items = tuple(random_formula(rng, 3) for _ in range(rng.randint(0, 6)))
        premises = FormulaSet(items)
        got = maximal_consistent_subsets(premises)
        want_masks = oracle_mcs_masks(premises.items)
        want = [
            FormulaSet(
                premises.items[i]
                for i in range(len(premises.items))
                if mask >> i & 1
            )
            for mask in want_masks
        ]
        assert got == want


@pytest.mark.parametrize("width", [12, 13, 16, 17])
def test_mcs_at_the_truth_table_boundaries(width):
    # up to 16 variables each mask tested ANDs its members' bitmaps, above
    # 16 each mask tested is a backtracking search
    xs = [Var(f"x{i:02}") for i in range(width)]
    everything = xs[0]
    for x in xs[1:]:
        everything = And(everything, x)
    premises = FormulaSet(
        [
            everything,
            Not(xs[0]),
            Not(xs[1]),
            Or(xs[0], xs[1]),
            Or(Not(xs[0]), Not(xs[1])),
            Implies(xs[2], Not(xs[-1])),
        ]
    )
    want = [
        FormulaSet(premises.items[i] for i in range(len(premises)) if mask >> i & 1)
        for mask in oracle_mcs_masks_by_rows(premises.items)
    ]
    assert len(want) > 2
    assert maximal_consistent_subsets(premises) == want


def _pairs_and_fillers(n_premises, n_vars, seed=0):
    # x_i, ~x_i pairs plus distinct two-variable fillers that name every
    # other variable: many premises over a narrow truth table.
    rng = random.Random(seed)
    xs = [Var(f"x{i}") for i in range(4)]
    vs = [Var(f"v{i:02}") for i in range(n_vars - len(xs))]
    premises = [g for x in xs for g in (x, Not(x))]
    k = 0
    while len(premises) < n_premises:
        a, b = vs[k % len(vs)], vs[(k + 1) % len(vs)]
        k += 1
        f = rng.choice(
            [Or(a, Not(b)), Implies(And(a, b), rng.choice(xs)), And(a, Not(b))]
        )
        if f not in premises:
            premises.append(f)
    return FormulaSet(premises)


@pytest.mark.parametrize("n_premises, n_vars", [(14, 9), (16, 12), (18, 12)])
def test_wide_listing_matches_the_row_oracle(n_premises, n_vars):
    premises = _pairs_and_fillers(n_premises, n_vars)
    items = premises.items
    assert len(items) == n_premises
    assert len(set().union(*map(variables, items))) == n_vars
    want = [
        FormulaSet(items[i] for i in range(n_premises) if mask >> i & 1)
        for mask in oracle_mcs_masks_by_rows(items)
    ]
    assert len(want) >= 16
    assert maximal_consistent_subsets(premises) == want
    x, v = Var("x1"), Var("v00")
    for conclusion in (Not(x), Or(x, v), Implies(v, Var("x3")), Var("q")):
        literal = next((m for m in want if oracle_entails(m, conclusion)), None)
        witness = para_entails(premises, conclusion)
        assert (witness and witness.support) == literal, render(conclusion)


def test_wide_listing_memory():
    # Listing this base peaks near 30 MB; tabling every subset's meet (2**18
    # ints of up to 4096 bits) took it to about 100 MB.
    resource = pytest.importorskip("resource")
    premises = _pairs_and_fillers(18, 12)
    child = (
        "import resource, sys\n"
        "from paracon import maximal_consistent_subsets, parse_formula_set\n"
        "premises = parse_formula_set(sys.stdin.read())\n"
        "assert len(maximal_consistent_subsets(premises)) >= 16\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(parafunctor.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    # A child keeps its parent's peak RSS across exec, so a fresh interpreter
    # starts the measured one instead of this process.
    launch = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    result = subprocess.run(
        [sys.executable, "-c", launch, sys.executable, "-c", child],
        input=format_formula_set(premises),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    assert int(result.stdout) / scale < 60, "peak RSS in MB"


def test_mcs_cap():
    premises = [Var(f"v{i}") for i in range(21)]
    with pytest.raises(CapExceededError):
        maximal_consistent_subsets(premises)


def test_para_entails_reaches_the_cap_without_a_quadratic_dedupe():
    premises = [Var(f"v{i}") for i in range(5000)]
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="5000 formulas"):
        para_entails(premises, P)
    assert time.perf_counter() - start < 0.5


# -- paraclassical entailment ------------------------------------------------------


def test_para_entailment_named_instances():
    pair = FormulaSet([P, Not(P)])
    w = para_entails(pair, Or(P, Q))
    assert w is not None and w.support.render() == "{p}" and w.maximal

    w = para_entails(pair, Not(P))
    assert w is not None and w.support.render() == "{~p}"

    assert para_entails(pair, Q) is None
    assert para_entails([FALSUM], FALSUM) is None


def test_para_witness_replays():
    rng = random.Random(55)
    for _ in range(200):
        premises = FormulaSet(random_formula(rng) for _ in range(rng.randint(0, 5)))
        conclusion = random_formula(rng)
        witness = para_entails(premises, conclusion)
        if witness is None:
            continue
        assert is_satisfiable(witness.support)
        assert all(f in premises for f in witness.support)
        assert entails(witness.support, conclusion)
        assert witness.conclusion == conclusion


def test_para_agrees_with_literal_subset_scan():
    rng = random.Random(70)
    agreements = 0
    for _ in range(250):
        premises = FormulaSet(random_formula(rng) for _ in range(rng.randint(0, 5)))
        conclusion = random_formula(rng)
        got = para_entails(premises, conclusion) is not None
        assert got == oracle_para_entails(premises, conclusion)
        agreements += 1
    assert agreements == 250


def test_para_entailment_monotone():
    rng = random.Random(81)
    for _ in range(150):
        bigger = FormulaSet(random_formula(rng) for _ in range(rng.randint(1, 5)))
        keep = sorted(rng.sample(range(len(bigger)), rng.randint(0, len(bigger))))
        smaller = FormulaSet(bigger.items[i] for i in keep)
        conclusion = random_formula(rng)
        if para_entails(smaller, conclusion) is not None:
            assert para_entails(bigger, conclusion) is not None


def test_classical_and_para_coincide_on_satisfiable_sets():
    rng = random.Random(90)
    checked = 0
    for _ in range(300):
        premises = FormulaSet(random_formula(rng) for _ in range(rng.randint(0, 4)))
        if not is_satisfiable(premises):
            continue
        conclusion = random_formula(rng)
        assert entails(premises, conclusion) == (
            para_entails(premises, conclusion) is not None
        )
        checked += 1
    assert checked > 150


def test_theorems_survive_any_premises():
    rng = random.Random(101)
    theorems = [Implies(P, P), Or(Q, Not(Q)), Not(FALSUM), Implies(FALSUM, R)]
    for theorem in theorems:
        assert is_theorem(theorem)
        for _ in range(30):
            premises = FormulaSet(random_formula(rng) for _ in range(rng.randint(0, 5)))
            assert para_entails(premises, theorem) is not None


def _entailing_mcses(premises, conclusion):
    """Every MCS that entails the conclusion, in canonical order (literal scan)."""
    items = FormulaSet(premises).items
    subsets = (
        FormulaSet(items[i] for i in range(len(items)) if mask >> i & 1)
        for mask in oracle_mcs_masks(items)
    )
    return [subset for subset in subsets if oracle_entails(subset, conclusion)]


def _literal_support(premises, conclusion):
    return (_entailing_mcses(premises, conclusion) + [None])[0]


def _order_sensitive_cases(seed, count):
    # Random premise sets over p, q, r, with conclusions that may also
    # mention s, a variable no premise has.
    rng = random.Random(seed)
    for _ in range(count):
        premises = FormulaSet(random_formula(rng, 2) for _ in range(rng.randint(0, 6)))
        yield premises, random_formula(rng, 2, ("p", "q", "r", "s"))


def test_para_witness_is_the_first_entailing_mcs():
    ambiguous = unmentioned = 0
    for premises, conclusion in _order_sensitive_cases(120, 300):
        witness = para_entails(premises, conclusion)
        entailing = _entailing_mcses(premises, conclusion)
        assert (witness and witness.support) == (entailing + [None])[0], premises
        ambiguous += len(entailing) > 1
        unmentioned += "s" in variables(conclusion)
    assert ambiguous >= 20 and unmentioned >= 100


def test_cli_para_support_is_the_first_entailing_mcs(tmp_path, capsys):
    premises, conclusion = next(
        (premises, conclusion)
        for premises, conclusion in _order_sensitive_cases(121, 1000)
        if "s" in variables(conclusion) and len(_entailing_mcses(premises, conclusion)) > 1
    )
    path = tmp_path / "premises.txt"
    path.write_text("".join(render(f) + "\n" for f in premises), encoding="utf-8")
    want = _literal_support(premises, conclusion)
    code = main(["entail", str(path), render(conclusion), "--para"])
    assert (code, capsys.readouterr().out) == (0, f"YES, support: {want.render()}\n")
    code = main(["--format", "structured", "entail", str(path), render(conclusion), "--para"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["support"] == [render(f) for f in want]


def _right_chain(connective, operands):
    # right-nested, so the literal oracle settles most rows at the first operand
    result = operands[-1]
    for f in reversed(operands[:-1]):
        result = connective(f, result)
    return result


@pytest.mark.parametrize("extra", [2, 3])
def test_para_entails_at_the_table_boundary(extra, monkeypatch):
    # Premises over 14 variables; the conclusions add `extra` more, sorting
    # before the premises' own.  16 in all stay on the table; 17 scan the
    # MCSes with classical entailment.
    xs = [Var(f"x{i:02}") for i in range(14)]
    ys = _right_chain(And, [Var(f"a{i}") for i in range(extra)])
    # MCSes in order: {all xs, x00 -> x13}, then {x00 -> x13, ~x00}
    premises = FormulaSet([_right_chain(And, xs), Implies(xs[0], xs[-1]), Not(xs[0])])
    conclusions = [
        Or(Not(xs[0]), ys),  # the second MCS entails it, the first does not
        And(xs[-1], ys),  # no MCS does: the first only for one value of the a's
    ]
    scans = []
    monkeypatch.setattr(
        "paracon.classical.entails", lambda A, f: scans.append(f) or entails(A, f)
    )
    witnesses = [para_entails(premises, f) for f in conclusions]
    assert [w and w.support.render() for w in witnesses] == ["{x00 -> x13, ~x00}", None]
    for conclusion, witness in zip(conclusions, witnesses):
        assert (witness and witness.support) == _literal_support(premises, conclusion)
    assert bool(scans) == (14 + extra > 16)


def _classify_counting_scans(premises, width, monkeypatch):
    """Classify over `width` variables; return whether entails and is_contradiction ran."""
    candidates = build_universe(
        [Var(f"x{i:02}") for i in range(width - 1)], ("negations", "with_falsum")
    )
    scans, contradictions = [], []
    monkeypatch.setattr(
        "paracon.classical.entails", lambda A, f: scans.append(f) or entails(A, f)
    )
    monkeypatch.setattr(
        "paracon.classical.is_contradiction",
        lambda f: contradictions.append(f) or is_contradiction(f),
    )
    verdict = classify(premises, candidates)
    assert (
        verdict.consistent,
        verdict.contradictory,
        verdict.strongly_contradictory,
        verdict.paraconsistent,
        verdict.witness,
    ) == oracle_classification(premises, candidates, False)
    return bool(scans), bool(contradictions)


@pytest.mark.parametrize("premises", [[P, Not(P)], [P, Implies(P, Var("x00"))]])
def test_classify_at_the_table_boundary(premises, monkeypatch):
    # 16 variables over premises and candidates: one table decides
    # derivability and contradictions.
    assert _classify_counting_scans(premises, 16, monkeypatch) == (False, False)


@pytest.mark.parametrize("premises", [[P, Not(P)], [P, Implies(P, Var("x00"))]])
def test_classify_beyond_the_table(premises, monkeypatch):
    # 17 variables over premises and candidates: each candidate is decided
    # by classical entailment and is_contradiction, not by one table.
    assert _classify_counting_scans(premises, 17, monkeypatch) == (True, True)


# -- para classification -------------------------------------------------------------


def test_para_classify_pair_is_paraconsistent():
    candidates = build_universe([P, Not(P), Q], ("with_falsum",))
    verdict = para_classify(FormulaSet([P, Not(P)]), candidates)
    assert verdict.consistent is True
    assert verdict.contradictory is True
    assert verdict.strongly_contradictory is False
    assert verdict.paraconsistent is True
    assert verdict.witness == P


def test_para_classify_plain_set():
    candidates = build_universe([P, Not(P)])
    verdict = para_classify(FormulaSet([P]), candidates)
    assert verdict.consistent is True
    assert verdict.contradictory is False
    assert verdict.paraconsistent is False


def test_para_classify_requires_candidates():
    with pytest.raises(ValueError):
        para_classify(FormulaSet([P]), FormulaSet())


# Every flag combination (consistent, contradictory, strongly contradictory,
# paraconsistent) each relation can reach.  Classically a consistent set
# derives nothing contradictory and an inconsistent one derives everything;
# |-P never derives a contradiction.
REACHABLE_CLASSIFICATIONS = {
    False: {
        (True, False, False, False),
        (False, True, True, False),
        (False, True, False, False),
    },
    True: {
        (True, False, False, False),
        (True, True, False, True),
        (False, False, False, False),
        (False, True, False, False),
    },
}


@pytest.mark.parametrize("para", [False, True])
def test_classification_matches_its_definition(para):
    classifier = para_classify if para else classify
    rng = random.Random(72)
    kinds = set()
    widened = 0
    for _ in range(150):
        premises = FormulaSet(
            random_formula(rng, 2, ("p", "q")) for _ in range(rng.randint(0, 4))
        )
        flags = [
            f for f in ("subformulas", "negations", "with_falsum") if rng.random() < 0.5
        ]
        seed = [*premises] if len(premises) else [P]
        if rng.random() < 0.5:  # a candidate the premises' variables do not cover
            seed.append(random_formula(rng, 1, ("q", "s")))
        candidates = build_universe(seed, flags)
        unmentioned = set().union(*map(variables, candidates)) - set().union(
            set(), *map(variables, premises)
        )
        widened += bool(len(premises) and unmentioned)
        expected = oracle_classification(premises, candidates, para)
        verdict = classifier(premises, candidates)
        assert (
            verdict.consistent,
            verdict.contradictory,
            verdict.strongly_contradictory,
            verdict.paraconsistent,
            verdict.witness,
        ) == expected, premises
        kinds.add(expected[:4])
    assert kinds == REACHABLE_CLASSIFICATIONS[para]
    assert widened >= 30


def test_no_premise_set_is_para_inconsistent():
    # With a contradiction among the candidates, the consistency surrogate
    # always finds an underivable formula.
    rng = random.Random(112)
    for _ in range(60):
        premises = FormulaSet(random_formula(rng) for _ in range(rng.randint(0, 5)))
        seed = premises if len(premises) else FormulaSet([P])
        candidates = build_universe(seed, ("with_falsum",))
        assert para_classify(premises, candidates).consistent is True


def test_para_classify_falsum_singleton():
    candidates = build_universe([P, Q], ("negations", "with_falsum"))
    verdict = para_classify(FormulaSet([FALSUM]), candidates)
    assert verdict.consistent is True  # only tautologies follow
    assert verdict.contradictory is False
    assert verdict.strongly_contradictory is False


# -- functoriality on finite structures ------------------------------------------------


def test_bijective_homomorphisms_survive_the_transform():
    # Bijections reflect consistency, so the transform keeps them morphisms.
    from oracles import relabeled_copy
    from paracon import HomomorphismCandidate, check_homomorphism

    rng = random.Random(61)
    validated = 0
    for _ in range(25):
        s = random_structure(rng, rng.randint(1, 3))
        copy, mapping = relabeled_copy(s, rng)
        candidate = HomomorphismCandidate(s, copy, mapping)
        assert check_homomorphism(candidate).holds
        transformed = HomomorphismCandidate(
            paraconsistentize_finite(s), paraconsistentize_finite(copy), mapping
        )
        assert check_homomorphism(transformed).holds
        validated += 1
    assert validated == 25


def test_proper_injections_need_not_survive_the_transform():
    # Refutation witness: morphisms preserve consistency but do not reflect
    # it.  {a} is inconsistent at the source while its image {b} stays
    # consistent in the target, so after the transform the square breaks.
    from paracon import HomomorphismCandidate, check_homomorphism

    source = FiniteConsequenceStructure(("a",), (0b0, 0b1))
    target = identity_structure(2)
    embed = HomomorphismCandidate(source, target, {"a": "b"})
    assert check_homomorphism(embed).holds

    survives = HomomorphismCandidate(
        paraconsistentize_finite(source), paraconsistentize_finite(target), {"a": "b"}
    )
    report = check_homomorphism(survives)
    assert not report.holds
    assert report.counterexample == (("a",),)


def test_covering_condition_decides_survival_exhaustively_up_to_two_atoms():
    # Every table on one or two atoms, every injective map between them: the
    # transform keeps a homomorphism exactly when the covering condition
    # (computed from the tables alone) holds, and keeps every map that
    # reflects consistency.
    import itertools

    from oracles import reflects_consistency, survival_obstruction
    from paracon import HomomorphismCandidate, check_homomorphism

    structures = [
        FiniteConsequenceStructure(("a", "b")[:n], table)
        for n in (1, 2)
        for table in itertools.product(range(1 << n), repeat=1 << n)
    ]
    transformed = [paraconsistentize_finite(s) for s in structures]
    candidates = 0
    outcomes = set()
    for src, p_src in zip(structures, transformed):
        for tgt, p_tgt in zip(structures, transformed):
            if src.n_atoms > tgt.n_atoms:
                continue
            for image in itertools.permutations(tgt.domain, src.n_atoms):
                candidates += 1
                mapping = dict(zip(src.domain, image))
                candidate = HomomorphismCandidate(src, tgt, mapping)
                if not check_homomorphism(candidate).holds:
                    continue
                survives = check_homomorphism(
                    HomomorphismCandidate(p_src, p_tgt, mapping)
                ).holds
                assert survives == (survival_obstruction(candidate) is None)
                assert survives or not reflects_consistency(candidate)
                outcomes.add(survives)
    assert candidates == 4 * 4 + 4 * 256 * 2 + 256 * 256 * 2
    assert outcomes == {True, False}


def test_category_laws_on_every_closure_system_up_to_three_atoms():
    # All 70 closure systems on 1-3 atoms and every injective map between two
    # of them.  Survival is the covering condition; homomorphisms compose;
    # composites of surviving maps survive and identities survive, so the
    # transform is a functor on the subcategory of surviving maps.
    from oracles import survival_obstruction
    from paracon import HomomorphismCandidate, check_homomorphism

    def is_hom(source, target, mapping):
        return check_homomorphism(HomomorphismCandidate(source, target, mapping)).holds

    structures = [
        FiniteConsequenceStructure(
            LETTERS[:n],
            [
                min((m for m in family if m & mask == mask), key=int.bit_count)
                for mask in range(1 << n)
            ],
        )
        for n in (1, 2, 3)
        for family in sorted(_closure_systems(n), key=sorted)
    ]
    assert len(structures) == 70
    transformed = [paraconsistentize_finite(s) for s in structures]
    homs = [[] for _ in structures]  # per source: (target, mapping, survives)
    candidates = 0
    for i, src in enumerate(structures):
        for j, tgt in enumerate(structures):
            for image in itertools.permutations(tgt.domain, src.n_atoms):
                candidates += 1
                mapping = dict(zip(src.domain, image))
                if not is_hom(src, tgt, mapping):
                    continue
                survives = is_hom(transformed[i], transformed[j], mapping)
                candidate = HomomorphismCandidate(src, tgt, mapping)
                assert survives == (survival_obstruction(candidate) is None)
                homs[i].append((j, mapping, survives))
    assert candidates == 25384
    assert sum(map(len, homs)) == 607

    compositions = surviving = 0
    for i, outgoing in enumerate(homs):
        for j, first, first_survives in outgoing:
            for k, second, second_survives in homs[j]:
                composite = {a: second[first[a]] for a in structures[i].domain}
                compositions += 1
                assert is_hom(structures[i], structures[k], composite)
                if first_survives and second_survives:
                    surviving += 1
                    assert is_hom(transformed[i], transformed[k], composite)
    assert (compositions, surviving) == (4065, 2562)

    for i, s in enumerate(structures):
        identity = {a: a for a in s.domain}
        assert (i, identity, True) in homs[i]
        assert is_hom(transformed[i], transformed[i], identity)


def test_identity_map_survives_the_transform():
    s = identity_structure(3, {"a": "b", "b": "a", "c": "c"})
    from paracon import HomomorphismCandidate, check_homomorphism

    p = paraconsistentize_finite(s)
    assert check_homomorphism(
        HomomorphismCandidate(p, p, {a: a for a in p.domain})
    ).holds
