import copy
import pickle
import random
import time
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_universe, oracle_variables, random_formula
from paracon import (
    And,
    CapExceededError,
    FormulaSet,
    Implies,
    Not,
    Or,
    ParseError,
    Var,
    build_universe,
    format_formula_set,
    parse,
    parse_formula_set,
    render,
    subformulas,
    variables,
)
from paracon.formula import CLOSURE_FLAGS, MAX_NESTING, falsum_of

P, Q, R = Var("p"), Var("q"), Var("r")


# -- parsing ----------------------------------------------------------------


def test_parse_precedence_implies_or():
    assert parse("p -> q | r") == Implies(P, Or(Q, R))


def test_parse_negation_binds_tightest():
    assert parse("~p & p") == And(Not(P), P)


def test_parse_implies_right_associative():
    assert parse("p -> q -> r") == Implies(P, Implies(Q, R))


def test_parse_and_or_left_associative():
    assert parse("p & q & r") == And(And(P, Q), R)
    assert parse("p | q | r") == Or(Or(P, Q), R)


def test_parse_and_binds_tighter_than_or():
    assert parse("p & q | r") == Or(And(P, Q), R)


def test_parse_parentheses_override():
    assert parse("p & (q | r)") == And(P, Or(Q, R))
    assert parse("(p -> q) -> r") == Implies(Implies(P, Q), R)


def test_parse_unicode_aliases():
    assert parse("¬p ∧ q") == And(Not(P), Q)
    assert parse("p ∨ q → r") == Implies(Or(P, Q), R)
    assert parse("!p") == Not(P)
    assert parse("¬¬p") == Not(Not(P))


def test_parse_long_identifiers():
    assert parse("_x1 -> Foo_bar") == Implies(Var("_x1"), Var("Foo_bar"))


def test_parse_shares_one_var_per_name():
    f = parse("p & (q -> ~p)")
    assert f == And(P, Implies(Q, Not(P)))
    assert f.left is f.right.right.child
    # Separate parses build their own nodes.
    assert parse("p") is not parse("p")


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("   ", 0),
        ("p &", 3),
        ("& p", 0),
        ("p # q", 2),
        ("(p | q", 6),
        ("p - q", 2),
        ("p q", 2),
        ("p -> (q))", 8),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert excinfo.value.position == position


# Messages and positions as the tokenizer and parser reported them before
# the tokenizer became one regular expression.
@pytest.mark.parametrize(
    "text,message,position",
    [
        ("-", "expected '->'", 0),
        ("-x", "expected '->'", 0),
        ("p -", "expected '->'", 2),
        ("p--q", "expected '->'", 1),
        ("p->-q", "expected '->'", 3),
        ("→", "unexpected token '→'", 0),
        ("¬¬", "unexpected end of input", 2),
        ("\t", "empty formula", 0),
        ("\n", "empty formula", 0),
        ("\u2003", "empty formula", 0),
        ("p & q$", "unexpected character '$'", 5),
        ("p -> q ?", "unexpected character '?'", 7),
        ("(p)#", "unexpected character '#'", 3),
        ("p é", "unexpected character 'é'", 2),
        ("1p", "unexpected character '1'", 0),
        ("p & &", "unexpected token '&'", 4),
        ("p ) q", "unexpected token ')' after formula", 2),
        ("()", "unexpected token ')'", 1),
        ("~", "unexpected end of input", 1),
    ],
)
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert (excinfo.value.message, excinfo.value.position) == (message, position)


@pytest.mark.parametrize(
    "text", ["p\t&\tq", "p\n&\nq", "p & q   ", "p\u00a0& q", "p &\u2003q", "\tp&q\n"]
)
def test_parse_skips_every_kind_of_whitespace(text):
    assert parse(text) == And(P, Q)


def test_var_rejects_bad_names():
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Var("1p")
    with pytest.raises(ValueError):
        Var("p q")


# -- nodes ------------------------------------------------------------------

ONE_OF_EACH = [P, Not(P), And(P, Q), Or(P, Not(Q)), Implies(And(P, Q), R)]


def test_node_repr_is_unchanged():
    assert [repr(f) for f in ONE_OF_EACH] == [
        "Var(name='p')",
        "Not(child=Var(name='p'))",
        "And(left=Var(name='p'), right=Var(name='q'))",
        "Or(left=Var(name='p'), right=Not(child=Var(name='q')))",
        "Implies(left=And(left=Var(name='p'), right=Var(name='q')), right=Var(name='r'))",
    ]


@pytest.mark.parametrize("f", ONE_OF_EACH, ids=lambda f: type(f).__name__)
def test_nodes_are_immutable(f):
    before = repr(f), hash(f), variables(f)
    for field in (*type(f).__match_args__, "_hash", "_vars", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, field, Q)
        with pytest.raises(AttributeError):
            delattr(f, field)
    assert (repr(f), hash(f), variables(f)) == before


def test_nodes_survive_pickle_and_copy():
    rng = random.Random("pickle")
    for f in ONE_OF_EACH + [random_formula(rng, 6, "pqrstuvwxyz") for _ in range(50)]:
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert twin == f and hash(twin) == hash(f)
            assert type(twin) is type(f) and variables(twin) == variables(f)


def test_nodes_reject_non_formula_children_when_built():
    for build, bad in [
        (lambda: And(P, "q"), "'q'"),
        (lambda: Or("p", Q), "'p'"),
        (lambda: Implies(P, None), "None"),
        (lambda: Not(3), "3"),
    ]:
        with pytest.raises(TypeError, match=f"^not a Formula: {bad}$"):
            build()


def test_equal_nodes_hash_equal_and_others_compare_unequal():
    rng = random.Random("equality")
    for _ in range(300):
        f, g = random_formula(rng, 3), random_formula(rng, 3)
        twin = parse(render(f))
        assert twin == f and hash(twin) == hash(f)
        assert (f == g) == (render(f) == render(g))
    assert P != "p" and And(P, Q) != Or(P, Q) and And(P, Q) != And(Q, P)


def test_hash_has_no_recursion_limit():
    def chain():
        f = P
        for _ in range(100_000):
            f = And(f, P)
        return f

    f = chain()
    assert hash(f) == hash(chain()) and f in {f}


# -- rendering --------------------------------------------------------------


def test_render_examples():
    assert render(And(Not(P), P)) == "~p & p"
    assert render(Implies(P, Or(Q, R))) == "p -> q | r"
    assert render(Or(And(P, Q), R)) == "p & q | r"


def test_render_inserts_needed_parens_only():
    assert render(And(Or(P, Q), R)) == "(p | q) & r"
    assert render(Implies(Implies(P, Q), R)) == "(p -> q) -> r"
    assert render(Implies(P, Implies(Q, R))) == "p -> q -> r"
    assert render(Not(And(P, Q))) == "~(p & q)"
    assert render(Not(Not(P))) == "~~p"
    assert render(And(P, And(Q, R))) == "p & (q & r)"


# Names of every shape the tokenizer accepts.
NAME_POOL = ("p", "q", "r", "x_1", "Long_name9")


def test_round_trip_seeded_fuzz():
    rng = random.Random(99)
    for _ in range(2000):
        f = random_formula(rng, rng.randint(0, 6), NAME_POOL)
        assert parse(render(f)) == f


formula_strategy = st.recursive(
    st.sampled_from(["p", "q", "r"]).map(Var),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Or(*t)),
        st.tuples(inner, inner).map(lambda t: Implies(*t)),
    ),
    max_leaves=20,
)


@given(formula_strategy)
def test_round_trip_property(f):
    assert parse(render(f)) == f


@given(st.text(max_size=30))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse(text)
    except ParseError:
        pass  # the only acceptable failure mode


@given(st.lists(st.sampled_from(["p", "q", "~", "&", "|", "->", "(", ")", " "]), max_size=12))
def test_parser_total_on_token_soup(pieces):
    try:
        parse("".join(pieces))
    except ParseError:
        pass


def test_parser_caps_hostile_nesting():
    deep = parse("~" * 100 + "p")
    assert parse(render(deep)) == deep
    for text in ("~" * 5000 + "p", "(" * 3000 + "p" + ")" * 3000, "p" + " -> p" * 4000):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert "nesting" in str(excinfo.value)


@pytest.mark.parametrize("op", ["&", "|"])
def test_parser_counts_chain_links_as_nesting(op):
    # a left-associative chain of n terms is a tree n - 1 levels deep
    longest = parse(f" {op} ".join(["p"] * (MAX_NESTING + 1)))
    assert parse(render(longest)) == longest
    assert variables(longest) == {"p"}
    for terms in (MAX_NESTING + 2, 3000):
        with pytest.raises(ParseError) as excinfo:
            parse(f" {op} ".join(["p"] * terms))
        assert "nesting" in str(excinfo.value)


# -- variables / subformulas -------------------------------------------------


def test_variables():
    assert variables(And(P, Not(P))) == {"p"}
    assert variables(Implies(P, Or(Q, R))) == {"p", "q", "r"}
    assert variables(P) == {"p"}
    assert isinstance(variables(Or(P, Q)), frozenset)


def test_variables_on_both_sides_of_the_kept_set_cap():
    # Nodes keep their variable set up to 16 names; above that, variables
    # unions the sets kept below.
    rng = random.Random("variables")
    pool = [f"x{i}" for i in range(40)]
    for _ in range(200):
        f = random_formula(rng, rng.randint(3, 8), pool[: rng.randint(2, 40)])
        assert variables(f) == oracle_variables(f)
    for n in (15, 16, 17, 18):
        names = [Var(f"v{i}") for i in range(n)]
        assert variables(reduce(And, names)) == {f"v{i}" for i in range(n)}
        assert variables(Not(reduce(Or, reversed(names)))) == {f"v{i}" for i in range(n)}


def test_variables_of_a_wide_chain_in_linear_memory():
    names = [Var(f"v{i}") for i in range(20_000)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        f = reduce(And, names)
        found = variables(f)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == {f"v{i}" for i in range(20_000)}
    assert elapsed < 2 and peak < 20_000_000, (elapsed, peak)


def test_subformulas_preorder():
    f = Implies(P, Or(Q, R))
    assert list(subformulas(f)) == [f, P, Or(Q, R), Q, R]
    g = And(Not(f), Implies(Q, P))
    assert list(subformulas(g)) == [g, Not(f), f, P, Or(Q, R), Q, R, Implies(Q, P), Q, P]


def test_subformulas_has_no_recursion_limit():
    f = P
    for _ in range(100_000):
        f = Not(f)
    assert len(list(subformulas(f))) == 100_001


# -- formula sets -------------------------------------------------------------


def test_formula_set_dedups_preserving_order():
    fs = FormulaSet([P, Q, P, Not(P), Q])
    assert fs.items == (P, Q, Not(P))
    assert P in fs and Not(Q) not in fs
    assert fs.render() == "{p, q, ~p}"


def test_formula_set_file_format():
    # A repeated line keeps its first position.
    text = "# premises\np\n\n~p  \n# trailing comment\np | q\n~ p\n"
    fs = parse_formula_set(text)
    assert fs.items == (P, Not(P), Or(P, Q))
    assert format_formula_set(fs) == "p\n~p\np | q\n"


def test_formula_set_file_reports_line():
    with pytest.raises(ParseError) as excinfo:
        parse_formula_set("p\nq &\n")
    assert "line 2" in str(excinfo.value)


# -- universes ----------------------------------------------------------------


def test_universe_no_flags():
    u = build_universe([P])
    assert isinstance(u, FormulaSet)
    assert u.items == (P,)


def test_universe_negations_falsum_example():
    # Independently derived closure of {p, ~p} under subformulas, negations
    # and the falsum member.
    u = build_universe([P, Not(P)], ("subformulas", "negations", "with_falsum"))
    expected = {"p", "~p", "~~p", "p & ~p", "~(p & ~p)"}
    assert {render(f) for f in u} == expected
    assert And(P, Not(P)) in u


def test_universe_conjunctions_example():
    u = build_universe([P, Q], ("conjunctions",))
    assert {render(f) for f in u} == {"p", "q", "p & q"}


def test_universe_falsum_uses_least_seed_variable():
    u = build_universe([Var("z"), Var("m")], ("with_falsum",))
    assert [render(f) for f in u] == ["z", "m", "m & ~m"]


def test_universe_closure_postconditions():
    # With the subformula flag, the whole universe is subformula-closed;
    # negation/conjunction additions only ever stack on closed members.
    rng = random.Random(5)
    for _ in range(25):
        seed = [
            random_formula(rng, rng.randint(0, 3), NAME_POOL)
            for _ in range(rng.randint(1, 4))
        ]
        u = build_universe(seed, ("subformulas", "negations", "conjunctions", "with_falsum"))
        members = set(u.items)
        assert set(seed) <= members
        core = set()
        falsum = falsum_of(v for f in seed for v in variables(f))
        for f in [*seed, falsum]:
            core.update(subformulas(f))
        assert core <= members
        for f in core:
            assert Not(f) in members
        for f in core:
            for g in core:
                if f != g:
                    assert And(f, g) in members or And(g, f) in members


@pytest.mark.parametrize(
    "flags",
    [(), ("subformulas",), ("with_falsum",), ("subformulas", "with_falsum")],
)
def test_universe_idempotent_for_stable_flags(flags):
    rng = random.Random(17)
    for _ in range(20):
        seed = [
            random_formula(rng, rng.randint(0, 3), NAME_POOL)
            for _ in range(rng.randint(1, 4))
        ]
        once = build_universe(seed, flags)
        twice = build_universe(once.items, flags)
        assert set(twice.items) == set(once.items)


def test_universe_rejects_unknown_flag_and_empty_seed():
    with pytest.raises(ValueError):
        build_universe([P], ("negation",))
    with pytest.raises(ValueError):
        build_universe([])


def test_universe_size_cap():
    # 91 variables and their 4095 pairwise conjunctions would make 4186.
    seed = [Var(f"v{i}") for i in range(91)]
    with pytest.raises(CapExceededError, match="4096"):
        build_universe(seed, ("conjunctions",))
    assert len(build_universe(seed[:90], ("conjunctions",))) == 4095


def test_universe_caps_the_seed_before_any_quadratic_dedupe():
    seed = [Var(f"v{i}") for i in range(5000)]
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="4096"):
        build_universe(seed)
    assert time.perf_counter() - start < 0.5


def test_universe_checks_types_then_emptiness_then_flags():
    with pytest.raises(TypeError, match="not a Formula: 'q'"):
        build_universe([P, "q"])
    with pytest.raises(TypeError, match="not a Formula: 3"):
        build_universe([3], ("negation",))
    with pytest.raises(ValueError, match="seed must be non-empty"):
        build_universe([], ("negation",))
    with pytest.raises(ValueError, match="unknown closure flag: 'negation'"):
        build_universe([P, P], ("negation",))


@pytest.mark.parametrize(
    "flags",
    [
        tuple(flag for i, flag in enumerate(CLOSURE_FLAGS) if subset >> i & 1)
        for subset in range(1 << len(CLOSURE_FLAGS))
    ],
)
def test_universe_matches_the_fixpoint_closure(flags):
    rng = random.Random(f"universe {flags}")
    for _ in range(200):
        seed = [
            random_formula(rng, rng.randint(0, 3), NAME_POOL)
            for _ in range(rng.randint(1, 3))
        ]
        assert build_universe(seed, flags).items == oracle_universe(seed, flags)
