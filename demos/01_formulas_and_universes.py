"""
Formulas, parsing, rendering, and closure universes
===================================================

A walk through the syntax layer: the ASCII grammar, structural identity,
and how finite candidate universes are built from a seed set.
"""

from paracon import FormulaSet, build_universe, parse, render, variables

# Parse text into a structural tree.  Precedence is ~ then & then | then ->,
# with -> associating to the right.
f = parse("p -> q | r")
print("parsed:   ", f)
print("rendered: ", render(f))
print("variables:", sorted(variables(f)))

# Rendering inserts only the parentheses the precedence rules require.
for text in ("(p -> q) -> r", "p & (q | r)", "~~p & ~(p & q)"):
    print(f"{text:>18}  ->  {render(parse(text))}")

# Unicode connectives are accepted on input and normalized on output.
print(render(parse("¬p ∧ (q ∨ r)")))

# A universe closes a seed set under chosen one-level operations.  The
# with_falsum flag always contributes an unsatisfiable member, which the
# finite restriction of classical logic later relies on.
universe = build_universe(
    [parse("p"), parse("~p")],
    ("subformulas", "negations", "conjunctions", "with_falsum"),
)
print("\nuniverse over {p, ~p} with every closure applied:")
for member in universe:
    print("  ", render(member))
# The falsum member is p0 & ~p0 for the least seed variable p0.
print("falsum p & ~p is a member:", parse("p & ~p") in universe)
print("a universe is a FormulaSet:", isinstance(universe, FormulaSet))
