"""The record types: construction, equality, hashing, repr, immutability,
pickling and pattern matching, pinned type by type; and the import cost."""

import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from paracon import (
    AxiomReport,
    ClaimResult,
    FiniteConsequenceStructure,
    FormulaSet,
    FunctorOptions,
    HomomorphismCandidate,
    ParaWitness,
    SetClassification,
    TableRow,
    Var,
)

P, Q = Var("p"), Var("q")
TWO = FiniteConsequenceStructure(("a", "b"), (0, 1, 2, 3))
ONE = FiniteConsequenceStructure(("a",), (0, 1))
TWO_TEXT = "FiniteConsequenceStructure(domain=('a', 'b'), |table|=4, negation=no)"


def _case(cls, args, text, *, kwargs=None, fields=None, defaults=(), errors=()):
    """cls(*args) and cls(**kwargs) build the same record, whose field
    values are `fields` and whose repr is `text`.  Each (short, values) in
    defaults is a call that leaves fields to their defaults, with the field
    values it gives; each (bad, message) in errors is a constructor call
    that raises ValueError(message)."""
    if kwargs is None:
        kwargs = dict(zip(cls.__match_args__, args))
    if fields is None:
        fields = tuple(args)
    return pytest.param(
        cls, args, kwargs, fields, text, defaults, errors, id=cls.__name__
    )


def _values(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


CASES = [
    _case(
        SetClassification,
        (True, True, False, False, P),
        "SetClassification(consistent=True, contradictory=True, "
        "strongly_contradictory=False, paraconsistent=False, witness=Var(name='p'))",
    ),
    _case(
        FormulaSet,
        ([P, Q, P],),
        "FormulaSet({p, q})",
        kwargs={"formulas": (P, Q)},
        fields=((P, Q),),
        defaults=[((), ((),))],
    ),
    _case(
        FunctorOptions,
        (True,),
        "FunctorOptions(inclusive=True)",
        defaults=[((), (False,))],
    ),
    _case(
        ParaWitness,
        (Q, FormulaSet([P, Q]), True),
        "ParaWitness(conclusion=Var(name='q'), support=FormulaSet({p, q}), "
        "maximal=True)",
    ),
    _case(
        ClaimResult,
        ("deduction", "confirmed", 7, {"seed": "0"}),
        "ClaimResult(claim='deduction', verdict='confirmed', trials=7, "
        "evidence={'seed': '0'})",
    ),
    _case(
        TableRow,
        ("inclusion", True, False, "1000 trials"),
        "TableRow(name='inclusion', holds_cn=True, holds_cnp=False, "
        "evidence='1000 trials')",
    ),
    _case(
        AxiomReport,
        ("inclusion", False, (("a",),), 3, "why"),
        "AxiomReport(name='inclusion', holds=False, counterexample=(('a',),), "
        "witness=3, note='why')",
        defaults=[
            (("finiteness", True), ("finiteness", True, None, None, "")),
            (("finiteness", True, None, None), ("finiteness", True, None, None, "")),
        ],
    ),
    _case(
        HomomorphismCandidate,
        (TWO, TWO, {"a": "b", "b": "a"}),
        f"HomomorphismCandidate(source={TWO_TEXT}, target={TWO_TEXT}, "
        "mapping={'a': 'b', 'b': 'a'})",
        errors=[
            ((TWO, TWO, {"a": "a"}), "mapping is not total; missing ['b']"),
            (
                (TWO, ONE, {"a": "a", "b": "b"}),
                "mapping sends ['b'] outside the target domain",
            ),
        ],
    ),
]


@pytest.mark.parametrize("cls, args, kwargs, fields, text, defaults, errors", CASES)
def test_record_contract(cls, args, kwargs, fields, text, defaults, errors):
    record = cls(*args)
    assert _values(record) == fields
    assert cls(**kwargs) == record
    for short, values in defaults:
        assert _values(cls(*short)) == values

    # Equal only to a record of the very same class.
    class Sub(cls):
        pass

    assert record != Sub(*args)
    assert record != fields
    assert record != object()

    try:
        expected_hash = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected_hash

    assert repr(record) == text

    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text

    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == text

    match record:
        case cls(first):
            assert first == fields[0]
        case _:
            pytest.fail("the first positional pattern did not match")

    for bad, message in errors:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(*bad)


def test_import_does_not_load_dataclasses():
    """Importing the package and its CLI stays clear of `dataclasses`, whose
    import (with `inspect`, `ast` and `dis`) was most of the startup time."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import paracon, paracon.cli\n"
        "print('dataclasses' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(src)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "False"
