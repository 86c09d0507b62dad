import random

import pytest

from oracles import (
    LETTERS,
    _image_mask,
    identity_structure,
    oracle_entails,
    oracle_satisfiable,
    random_closure_structure,
    random_structure,
    relabeled_copy,
)
from paracon import (
    And,
    CapExceededError,
    FiniteConsequenceStructure,
    FormulaSet,
    HomomorphismCandidate,
    Implies,
    Not,
    Or,
    StructureFormatError,
    Var,
    build_universe,
    check_axiom,
    check_conjunctive_property,
    check_explosive,
    check_homomorphism,
    check_joint_consistency,
    classical_restriction,
    cn,
    dumps_structure,
    entails,
    is_consistent_in,
    is_normal,
    is_satisfiable,
    loads_structure,
    load_structure,
    save_structure,
    variables,
)
from paracon.propsuite import FormulaSampler

P = Var("p")


# -- construction -------------------------------------------------------------


def test_rejects_empty_domain():
    with pytest.raises(ValueError):
        FiniteConsequenceStructure((), (0,))


@pytest.mark.parametrize(
    "domain", [[["a"]], [["a"], ["a"]], ["a", ""], ["a", 1], ["a", "a", None]]
)
def test_rejects_non_string_labels_before_checking_distinctness(domain):
    # An unhashable label must not reach the set() of the distinctness check.
    table = [0] * (1 << len(domain))
    with pytest.raises(ValueError, match="domain labels must be non-empty strings"):
        FiniteConsequenceStructure(domain, table)


def test_rejects_repeated_labels():
    with pytest.raises(ValueError, match="domain labels must be distinct"):
        FiniteConsequenceStructure(["a", "a"], [0, 1, 2, 3])


def test_rejects_incomplete_table():
    with pytest.raises(ValueError):
        FiniteConsequenceStructure(("a",), (0,))


def test_rejects_out_of_range_values():
    with pytest.raises(ValueError) as excinfo:
        FiniteConsequenceStructure(("a",), (0, 5))
    assert str(excinfo.value) == "table value out of range for subset 1"


@pytest.mark.parametrize(
    "table, first",
    [
        ((-1, 1, 2, 3, 4, 5, 6, 8), 0),
        ((8, 1, 2, 3, 4, 5, 6, -1), 0),
        ((0, 1, 2, 3, 4, 5, 6, -1), 7),
        ((0, 1, 2, 3, 4, 5, 6, 8), 7),
        ((0, 1, 65535, 3), 2),
        ((0, 1, 65536, 3), 2),
        ((0, 2**70, 2, -(2**70)), 1),
        ((*range(40000), 65536, *range(40001, 1 << 16)), 40000),
        ((*range(50000), -1, *range(50001, 1 << 16)), 50000),
    ],
)
def test_out_of_range_error_names_first_bad_subset(table, first):
    domain = LETTERS[: len(table).bit_length() - 1]
    with pytest.raises(ValueError) as excinfo:
        FiniteConsequenceStructure(domain, table)
    assert str(excinfo.value) == f"table value out of range for subset {first}"


def test_accepts_every_value_up_to_the_full_domain():
    # At 16 atoms every 16-bit value is in range; bools are ints.
    full = FiniteConsequenceStructure(LETTERS[:16], [65535] * (1 << 16))
    assert full.cn_mask(7) == 65535
    assert FiniteConsequenceStructure(("a",), (False, True)).table == (False, True)


@pytest.mark.parametrize("bad", ["1", None, [1], 0.5, float("nan")])
def test_rejects_non_int_values(bad):
    with pytest.raises(TypeError):
        FiniteConsequenceStructure(("a", "b"), (0, 1, bad, 3))
    with pytest.raises(TypeError, match="table values must be ints"):
        FiniteConsequenceStructure(("a", "b"), (0, 2**70, 2, bad))


def test_rejects_partial_negation():
    with pytest.raises(ValueError):
        FiniteConsequenceStructure(("a", "b"), (0, 1, 2, 3), {"a": "b"})


def test_rejects_oversized_domain():
    with pytest.raises(CapExceededError):
        FiniteConsequenceStructure(tuple("abcdefghijklmnopq"), (0,) * (1 << 17))


# -- lookups ------------------------------------------------------------------


def test_cn_lookup_identity():
    s = identity_structure(1)
    assert cn(s, ["a"]) == ("a",)
    assert cn(s, []) == ()


def test_cn_out_of_domain():
    s = identity_structure(2)
    with pytest.raises(ValueError):
        cn(s, ["z"])


def test_consistency_is_properness():
    s = FiniteConsequenceStructure(("a",), (0, 1))
    assert is_consistent_in(s, []) is True  # Cn(empty) = empty != {a}
    assert is_consistent_in(s, ["a"]) is False


# -- axiom checks -------------------------------------------------------------


def test_identity_operator_satisfies_all_axioms():
    s = identity_structure(3)
    for axiom in ("inclusion", "idempotency", "monotonicity", "finiteness"):
        assert check_axiom(s, axiom).holds
    assert is_normal(s)


def test_monotonicity_failure_with_counterexample():
    # Cn({a}) = {a, b} but Cn({a, b}) = {a}
    s = FiniteConsequenceStructure(("a", "b"), (0b00, 0b11, 0b10, 0b01))
    report = check_axiom(s, "monotonicity")
    assert not report.holds
    assert report.counterexample == (("a",), ("a", "b"))
    assert not is_normal(s)


def test_inclusion_holds_with_theorems_from_nothing():
    s = FiniteConsequenceStructure(("a",), (0b1, 0b1))
    assert check_axiom(s, "inclusion").holds


def test_inclusion_failure_detected():
    s = FiniteConsequenceStructure(("a", "b"), (0, 0, 2, 3))
    report = check_axiom(s, "inclusion")
    assert not report.holds
    assert report.counterexample == (("a",),)


def test_idempotency_failure_detected():
    # Cn({a}) = {b}, Cn({b}) = {a, b}
    s = FiniteConsequenceStructure(("a", "b"), (0, 0b10, 0b11, 0b11))
    report = check_axiom(s, "idempotency")
    assert not report.holds


def test_finiteness_vacuous_note():
    report = check_axiom(random_structure(random.Random(3), 3), "finiteness")
    assert report.holds
    assert report.note == "vacuous at finite scale"


def test_unknown_axiom_rejected():
    with pytest.raises(ValueError):
        check_axiom(identity_structure(1), "compactness")


# -- homomorphisms ------------------------------------------------------------


def test_identity_map_is_homomorphism():
    s = random_closure_structure(random.Random(8), 3)
    candidate = HomomorphismCandidate(s, s, {a: a for a in s.domain})
    assert check_homomorphism(candidate).holds


def test_homomorphism_at_the_atom_cap():
    # A relabelled copy of a 16-atom table holds; swapping two atoms'
    # images fails first where a per-subset reference says it does.
    rng = random.Random(16)
    n, size = 16, 1 << 16
    perm = list(range(n))
    rng.shuffle(perm)

    def images_under(perm):
        return [
            sum(1 << perm[i] for i in range(n) if mask >> i & 1) for mask in range(size)
        ]

    # Identity on the subsets without the last atom, arbitrary on the rest.
    source_table = [*range(size // 2), *(rng.randrange(size) for _ in range(size // 2))]
    source = FiniteConsequenceStructure(LETTERS[:n], source_table)
    image = images_under(perm)
    target_table = [0] * size
    for mask, value in enumerate(source_table):
        target_table[image[mask]] = image[value]
    target = FiniteConsequenceStructure([f"t{i}" for i in range(n)], target_table)
    mapping = {a: target.domain[perm[i]] for i, a in enumerate(source.domain)}
    assert check_homomorphism(HomomorphismCandidate(source, target, mapping)).holds

    perm[0], perm[1] = perm[1], perm[0]
    image = images_under(perm)
    first = next(
        mask
        for mask in range(size)
        if image[source_table[mask]] != target_table[image[mask]]
    )
    assert first >= size // 2
    mapping = {a: target.domain[perm[i]] for i, a in enumerate(source.domain)}
    report = check_homomorphism(HomomorphismCandidate(source, target, mapping))
    assert not report.holds
    assert report.counterexample == (source.labels_of(first),)
    assert report.note == "consequence square does not commute"


def test_constant_map_fails_injectivity():
    s = identity_structure(2)
    report = check_homomorphism(HomomorphismCandidate(s, s, {"a": "a", "b": "a"}))
    assert not report.holds
    assert report.note == "not injective"


def test_injective_map_breaking_the_square():
    source = identity_structure(2)
    # target: Cn({a}) = {a, b}, everything else as identity
    target = FiniteConsequenceStructure(("a", "b"), (0b00, 0b11, 0b10, 0b11))
    report = check_homomorphism(
        HomomorphismCandidate(source, target, {"a": "a", "b": "b"})
    )
    assert not report.holds
    assert report.counterexample == (("a",),)


def test_mapping_must_be_total():
    s = identity_structure(2)
    with pytest.raises(ValueError):
        HomomorphismCandidate(s, s, {"a": "a"})


def test_mapping_must_stay_in_the_target():
    s = identity_structure(2)
    with pytest.raises(ValueError, match=r"sends \['b'\] outside the target domain"):
        HomomorphismCandidate(s, identity_structure(1), {"a": "a", "b": "b"})


def test_relabeling_is_homomorphism_and_preserves_consistency():
    rng = random.Random(12)
    for _ in range(20):
        s = random_structure(rng, rng.randint(1, 3))
        copy, mapping = relabeled_copy(s, rng)
        candidate = HomomorphismCandidate(s, copy, mapping)
        assert check_homomorphism(candidate).holds
        for mask in range(1 << s.n_atoms):
            if s.table[mask] != s.full_mask:
                image = copy.mask_of(mapping[a] for a in s.labels_of(mask))
                assert copy.table[image] != copy.full_mask


def test_homomorphisms_compose():
    rng = random.Random(21)
    for _ in range(10):
        s1 = random_structure(rng, rng.randint(1, 3))
        s2, map12 = relabeled_copy(s1, rng)
        s3, map23 = relabeled_copy(s2, rng)
        comp = {a: map23[map12[a]] for a in s1.domain}
        assert check_homomorphism(HomomorphismCandidate(s1, s3, comp)).holds


def _literal_homomorphism_verdict(candidate):
    """(holds, counterexample, note) read off the definition, atom by atom."""
    src, tgt = candidate.source, candidate.target
    hit = {}
    for atom in src.domain:
        image = candidate.mapping[atom]
        if image in hit:
            return False, (hit[image], atom), "not injective"
        hit[image] = atom
    for mask in range(src.full_mask + 1):
        if _image_mask(candidate, src.table[mask]) != tgt.table[
            _image_mask(candidate, mask)
        ]:
            return False, (src.labels_of(mask),), "consequence square does not commute"
    return True, None, ""


def test_homomorphism_counterexample_is_the_first_failing_subset():
    rng = random.Random(31)
    kinds = {"holds": 0, "not injective": 0, "consequence square does not commute": 0}
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(n, 5)
        source = random_structure(rng, n)
        labels = list(LETTERS[:m])
        rng.shuffle(labels)
        if rng.random() < 0.2:
            mapping = {a: rng.choice(labels) for a in source.domain}
        else:
            mapping = dict(zip(source.domain, rng.sample(labels, n)))
        # A target where the square commutes, then a few entries broken, so
        # the first failure falls on varied subsets.
        table = [rng.randrange(1 << m) for _ in range(1 << m)]
        if len(set(mapping.values())) == n:

            def image(mask):
                return sum(1 << labels.index(mapping[a]) for a in source.labels_of(mask))

            for mask in range(1 << n):
                table[image(mask)] = image(source.table[mask])
            for _ in range(rng.randint(0, 2)):
                table[rng.randrange(1 << m)] = rng.randrange(1 << m)
        candidate = HomomorphismCandidate(
            source, FiniteConsequenceStructure(labels, table), mapping
        )
        report = check_homomorphism(candidate)
        expected = _literal_homomorphism_verdict(candidate)
        assert (report.holds, report.counterexample, report.note) == expected
        kinds[expected[2] or "holds"] += 1
    assert min(kinds.values()) >= 30, kinds


# -- negation-law checks --------------------------------------------------------


def test_identity_2atom_with_swap_negation_is_explosive():
    s = identity_structure(2, {"a": "b", "b": "a"})
    assert check_explosive(s).holds


def test_identity_3atom_not_explosive():
    s = identity_structure(3, {"a": "b", "b": "a", "c": "c"})
    report = check_explosive(s)
    assert not report.holds
    assert report.counterexample == (("a", "b"), "a")
    assert report.note == "structure is paraconsistent"


def test_explosion_requires_negation():
    with pytest.raises(ValueError):
        check_explosive(identity_structure(2))


def test_joint_consistency_on_identity_2atom():
    s = identity_structure(2, {"a": "b", "b": "a"})
    report = check_joint_consistency(s)
    assert report.holds and report.witness == "a"


def test_joint_consistency_fails_on_identity_3atom():
    s = identity_structure(3, {"a": "b", "b": "a", "c": "c"})
    assert not check_joint_consistency(s).holds


def test_joint_consistency_fails_on_inconsistent_singleton():
    s = FiniteConsequenceStructure(("a",), (0, 1), {"a": "a"})
    assert not check_joint_consistency(s).holds


def test_conjunctive_property_trivial_on_one_atom():
    s = FiniteConsequenceStructure(("a",), (0, 1), {"a": "a"})
    assert check_conjunctive_property(s).holds


def test_conjunctive_property_fails_on_identity_2atom():
    report = check_conjunctive_property(identity_structure(2))
    assert not report.holds
    assert report.counterexample == ("a", "b")


# -- classical restriction ------------------------------------------------------


def _pair_universe():
    return build_universe([P, Not(P)], ("with_falsum",))


def test_restriction_tables_match_hand_computed_values():
    s = classical_restriction(_pair_universe())
    assert s.domain == ("p", "~p", "p & ~p")
    assert cn(s, ["p"]) == ("p",)
    assert cn(s, []) == ()
    assert cn(s, ["p", "~p"]) == ("p", "~p", "p & ~p")
    assert cn(s, ["p & ~p"]) == ("p", "~p", "p & ~p")


def test_restriction_negation_falls_back_to_falsum():
    # ~p and p & ~p have no negation in the universe: both map to the falsum.
    s = classical_restriction(_pair_universe())
    assert s.negation == {"p": "~p", "~p": "p & ~p", "p & ~p": "p & ~p"}


def test_restriction_is_normal_and_explosive():
    s = classical_restriction(_pair_universe())
    assert is_normal(s)
    assert check_explosive(s).holds
    assert check_joint_consistency(s).holds
    assert check_joint_consistency(s).witness == "p"


def test_restriction_conjunctive_fails_without_conjunction_closure():
    u = build_universe([P, Var("q")], ("with_falsum",))
    report = check_conjunctive_property(classical_restriction(u))
    assert not report.holds
    assert report.counterexample == ("p", "q")


def test_restriction_conjunctive_holds_with_closure():
    u = build_universe([P, Not(P)], ("subformulas", "negations", "conjunctions", "with_falsum"))
    assert check_conjunctive_property(classical_restriction(u)).holds


def test_restriction_agrees_with_satisfiability():
    # Consistency inside the restriction must mirror satisfiability outside.
    u = build_universe(
        [P, Not(P), Var("q")], ("subformulas", "negations", "with_falsum")
    )
    s = classical_restriction(u)
    formulas = list(u)
    for mask in range(1 << s.n_atoms):
        subset = [formulas[i] for i in range(s.n_atoms) if mask >> i & 1]
        assert is_consistent_in(s, s.labels_of(mask)) == oracle_satisfiable(subset)
        assert is_satisfiable(subset) == oracle_satisfiable(subset)


def _entailed_mask(formulas, mask, entailment):
    premises = [f for i, f in enumerate(formulas) if mask >> i & 1]
    return sum(1 << i for i, f in enumerate(formulas) if entailment(premises, f))


def test_restriction_matches_the_entailment_oracle_on_random_universes():
    rng = random.Random(31)
    sampler = FormulaSampler(rng)
    for _ in range(15):
        seed = [sampler.formula(rng.randint(0, 3)) for _ in range(5)]
        formulas = build_universe(seed, ("with_falsum",)).items
        s = classical_restriction(FormulaSet(formulas))
        for mask in range(1 << len(formulas)):
            assert s.table[mask] == _entailed_mask(formulas, mask, oracle_entails)


def test_restriction_at_the_atom_and_variable_caps():
    x = [Var(f"x{i:02d}") for i in range(16)]
    seed = [And(x[2 * i], Or(x[2 * i + 1], Not(x[(2 * i + 3) % 16]))) for i in range(8)]
    seed += [Implies(x[i], x[i + 1]) for i in range(6)] + [Not(x[0])]
    formulas = build_universe(seed, ("with_falsum",)).items
    assert len(formulas) == 16
    assert len(set().union(*map(variables, formulas))) == 16
    s = classical_restriction(FormulaSet(formulas))
    rng = random.Random(16)
    for mask in [0, s.full_mask, 0b1000000000001, *rng.sample(range(1 << 16), 40)]:
        assert s.table[mask] == _entailed_mask(formulas, mask, entails), mask


def test_restriction_requires_falsum():
    with pytest.raises(ValueError):
        classical_restriction(build_universe([P]))


def test_restriction_takes_any_formula_set_holding_the_falsum():
    falsum = And(P, Not(P))
    s = classical_restriction(FormulaSet([P, falsum]))
    assert s.domain == ("p", "p & ~p")
    assert s.negation == {"p": "p & ~p", "p & ~p": "p & ~p"}
    assert cn(s, ["p & ~p"]) == s.domain
    # The falsum is that of the least variable: q & ~q does not serve.
    q = Var("q")
    with pytest.raises(ValueError, match="with_falsum"):
        classical_restriction(FormulaSet([P, q, And(q, Not(q))]))
    with pytest.raises(ValueError, match="with_falsum"):
        classical_restriction(FormulaSet())


def test_restriction_size_cap():
    seed = [Var(f"x{i}") for i in range(9)]
    u = build_universe(seed, ("negations", "with_falsum"))
    with pytest.raises(
        CapExceededError, match="domain of 20 atoms exceeds the cap of 16"
    ):
        classical_restriction(u)


def test_restriction_checks_the_atom_cap_before_the_truth_table(monkeypatch):
    import paracon.classical

    def unreachable(k):
        raise AssertionError("truth table built above the atom cap")

    monkeypatch.setattr(paracon.classical, "_row_patterns", unreachable)
    # 16 variables and their falsum: only the atom cap stops it.
    u = build_universe([Var(f"x{i:02d}") for i in range(16)], ("with_falsum",))
    assert len(u) == 17
    with pytest.raises(CapExceededError, match="domain of 17 atoms"):
        classical_restriction(u)


def test_restriction_variable_cap():
    wide = Var("x0")
    for i in range(1, 17):
        wide = And(wide, Var(f"x{i}"))
    with pytest.raises(CapExceededError):
        classical_restriction(build_universe([wide], ("with_falsum",)))


# -- file format ----------------------------------------------------------------


def test_round_trip_bytes_exact(tmp_path):
    rng = random.Random(6)
    for i in range(12):
        s = random_structure(rng, rng.randint(1, 4))
        text = dumps_structure(s)
        again = loads_structure(text)
        assert again == s
        assert dumps_structure(again) == text
        path = tmp_path / f"s{i}.json"
        save_structure(s, path)
        assert load_structure(path) == s


def test_dumps_text_is_pinned():
    # Domain order is not sorted order, and the labels need JSON escaping.
    s = FiniteConsequenceStructure(
        ("z\u00e9", 'a"b', "m"),
        (0b000, 0b011, 0b010, 0b111, 0b100, 0b101, 0b110, 0b111),
        {"z\u00e9": "m", 'a"b': "z\u00e9", "m": 'a"b'},
    )
    assert dumps_structure(s) == r"""{
  "domain": ["z\u00e9", "a\"b", "m"],
  "cn": [
    [[], []],
    [["z\u00e9"], ["a\"b", "z\u00e9"]],
    [["a\"b"], ["a\"b"]],
    [["a\"b", "z\u00e9"], ["a\"b", "m", "z\u00e9"]],
    [["m"], ["m"]],
    [["m", "z\u00e9"], ["m", "z\u00e9"]],
    [["a\"b", "m"], ["a\"b", "m"]],
    [["a\"b", "m", "z\u00e9"], ["a\"b", "m", "z\u00e9"]]
  ],
  "negation": [
    ["a\"b", "z\u00e9"],
    ["m", "a\"b"],
    ["z\u00e9", "m"]
  ]
}
"""


def test_load_accepts_scrambled_entry_order():
    s = identity_structure(2, {"a": "b", "b": "a"})
    text = dumps_structure(s)
    import json

    data = json.loads(text)
    data["cn"].reverse()
    assert loads_structure(json.dumps(data)) == s


def test_load_without_negation():
    s = identity_structure(2)
    assert loads_structure(dumps_structure(s)) == s


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d["cn"].pop(), "missing"),
        (lambda d: d["cn"].append(d["cn"][0]), "duplicate"),
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d["cn"][0][0].append("zz"), "unknown atom"),
        (lambda d: d["negation"].pop(), "not total"),
        (lambda d: d.update(domain="ab"), "'domain' must be a list of labels"),
        (lambda d: d["domain"].append("a"), "domain labels must be distinct"),
        (lambda d: d.update(cn={}), "'cn' must be a list"),
        (lambda d: d["cn"][0].append([]), "each 'cn' entry must be a"),
        (lambda d: d["cn"][0][0].append(1), "a 'cn' subset must be a list of labels"),
        (lambda d: d["cn"][0][1].append(None), "a 'cn' value must be a list of labels"),
        (lambda d: d.update(negation={"a": "b"}), "'negation' must be a list"),
        (lambda d: d["negation"][0].append("a"), "each 'negation' entry must be an"),
        (lambda d: d["negation"].append(["a", "b"]), "duplicate negation entry for 'a'"),
        (lambda d: d["negation"].append(["z", "a"]), "negation map mentions unknown atoms"),
        (
            lambda d: d.update(negation=[["a", "z"], ["b", "a"]]),
            "negation map has values outside the domain",
        ),
    ],
)
def test_load_rejects_malformed(mutate, message):
    import json

    s = identity_structure(2, {"a": "b", "b": "a"})
    data = json.loads(dumps_structure(s))
    mutate(data)
    with pytest.raises(StructureFormatError) as excinfo:
        loads_structure(json.dumps(data))
    assert message in str(excinfo.value)


@pytest.mark.parametrize("n_atoms", [17, 64])
def test_load_checks_the_atom_cap_before_reading_the_table(n_atoms):
    # 64 labels would need a 2**64-entry table; only the cap check stops it.
    import json

    text = json.dumps({"domain": [f"a{i}" for i in range(n_atoms)], "cn": []})
    with pytest.raises(CapExceededError) as excinfo:
        loads_structure(text)
    assert f"domain of {n_atoms} atoms exceeds the cap of 16" in str(excinfo.value)


def test_load_rejects_non_json():
    with pytest.raises(StructureFormatError):
        loads_structure("domain: [a]")
    with pytest.raises(StructureFormatError, match="must be a JSON object"):
        loads_structure('["domain", "cn"]')
