"""Consequence structures, paraconsistentization, and paraclassical entailment.

The package has two levels.  Finite consequence structures carry explicit
subset-to-subset tables and support exhaustive checking of closure axioms,
homomorphisms and negation laws; the paraconsistentization transform
rebuilds such a table from the consistent subsets only.  On top of
classical propositional logic the same transform yields paraclassical
entailment, decided through maximal consistent subsets with explicit
witness supports, plus a verification suite for the property table.
"""

from .classical import (
    SetClassification,
    classify,
    entails,
    evaluate,
    is_contradiction,
    is_satisfiable,
    is_theorem,
)
from .errors import CapExceededError, ParseError, StructureFormatError
from .formula import (
    And,
    CLOSURE_FLAGS,
    Formula,
    FormulaSet,
    Implies,
    Not,
    Or,
    Var,
    build_universe,
    format_formula_set,
    parse,
    parse_formula_set,
    read_formula_set,
    render,
    subformulas,
    variables,
)
from .parafunctor import (
    FunctorOptions,
    ParaWitness,
    maximal_consistent_subsets,
    para_classify,
    para_entails,
    paraconsistentize_finite,
)
from .propsuite import (
    ClaimResult,
    EXPECTED_VERDICTS,
    TableRow,
    check_deduction_and_weak_transitivity,
    check_paraconsistency_transfer,
    check_support_laws,
    render_table,
    table_matches_expected,
    verify_table,
)
from .structures import (
    AXIOMS,
    AxiomReport,
    FiniteConsequenceStructure,
    HomomorphismCandidate,
    check_axiom,
    check_conjunctive_property,
    check_explosive,
    check_homomorphism,
    check_joint_consistency,
    classical_restriction,
    cn,
    is_consistent_in,
    is_normal,
)
from .structures import dumps as dumps_structure
from .structures import load as load_structure
from .structures import loads as loads_structure
from .structures import save as save_structure

__version__ = "0.1.0"

__all__ = [
    "And",
    "AXIOMS",
    "AxiomReport",
    "CapExceededError",
    "ClaimResult",
    "CLOSURE_FLAGS",
    "EXPECTED_VERDICTS",
    "FiniteConsequenceStructure",
    "Formula",
    "FormulaSet",
    "FunctorOptions",
    "HomomorphismCandidate",
    "Implies",
    "Not",
    "Or",
    "ParaWitness",
    "ParseError",
    "SetClassification",
    "StructureFormatError",
    "TableRow",
    "Var",
    "build_universe",
    "check_axiom",
    "check_conjunctive_property",
    "check_deduction_and_weak_transitivity",
    "check_explosive",
    "check_homomorphism",
    "check_joint_consistency",
    "check_paraconsistency_transfer",
    "check_support_laws",
    "classical_restriction",
    "classify",
    "cn",
    "dumps_structure",
    "entails",
    "evaluate",
    "format_formula_set",
    "is_consistent_in",
    "is_contradiction",
    "is_normal",
    "is_satisfiable",
    "is_theorem",
    "load_structure",
    "loads_structure",
    "maximal_consistent_subsets",
    "para_classify",
    "para_entails",
    "paraconsistentize_finite",
    "parse",
    "parse_formula_set",
    "read_formula_set",
    "render",
    "render_table",
    "save_structure",
    "subformulas",
    "table_matches_expected",
    "variables",
    "verify_table",
]
