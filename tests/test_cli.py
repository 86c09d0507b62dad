import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from paracon import (
    FiniteConsequenceStructure,
    Not,
    Var,
    build_universe,
    classical_restriction,
    dumps_structure,
    load_structure,
    loads_structure,
)
import paracon
from paracon import cli
from paracon.cli import main
from paracon.formula import CLOSURE_FLAGS

from oracles import identity_structure


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("p\n~p\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- entail ---------------------------------------------------------------------


def test_entail_para_no(pair_file, capsys):
    code, out, _ = run(capsys, "entail", pair_file, "q", "--para")
    assert (code, out) == (1, "NO\n")


def test_entail_para_yes_with_support(pair_file, capsys):
    code, out, _ = run(capsys, "entail", pair_file, "p | q", "--para")
    assert (code, out) == (0, "YES, support: {p}\n")


def test_entail_classical_explosion(pair_file, capsys):
    code, out, _ = run(capsys, "entail", pair_file, "q")
    assert (code, out) == (0, "YES\n")


def test_entail_classical_no(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("p\n", encoding="utf-8")
    code, out, _ = run(capsys, "entail", str(path), "q")
    assert (code, out) == (1, "NO\n")


def test_entail_structured_output(pair_file, capsys):
    code, out, _ = run(capsys, "--format", "structured", "entail", pair_file, "~p", "--para")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "paracon.report/1"
    assert payload["entailed"] is True
    assert payload["support"] == ["~p"]


def test_entail_bad_formula_exits_2(pair_file, capsys):
    code, _, err = run(capsys, "entail", pair_file, "q &")
    assert code == 2
    assert "error" in err


def test_entail_bad_premises_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p\nq | |\n", encoding="utf-8")
    code, _, err = run(capsys, "entail", str(path), "q")
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("op", ["&", "|"])
def test_entail_rejects_a_3000_term_chain_with_exit_2(tmp_path, capsys, op):
    path = tmp_path / "chain.txt"
    path.write_text(f" {op} ".join(["p"] * 3000) + "\n", encoding="utf-8")
    for flags in ([], ["--para"]):
        code, out, err = run(capsys, "entail", str(path), "p", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: formula nesting exceeds")
        assert "Traceback" not in err


def test_recursion_limit_exits_3_not_no(pair_file, capsys, monkeypatch):
    def too_deep(premises, conclusion):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("paracon.cli.entails", too_deep)
    code, out, err = run(capsys, "entail", pair_file, "q")
    assert (code, out) == (3, "")
    assert err.startswith("error: formula too deep")


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "entail", "/nonexistent/premises.txt", "q")
    assert code == 2


def test_usage_error_exits_2(capsys):
    assert main(["entail"]) == 2


def test_module_run_exits_with_the_answer(pair_file):
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(paracon.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "paracon.cli", "entail", pair_file, "q", "--para"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (1, "NO\n", "")


# -- mcs ------------------------------------------------------------------------


def test_mcs_listing(pair_file, capsys):
    code, out, _ = run(capsys, "mcs", pair_file)
    assert (code, out) == (0, "{p}\n{~p}\n")


def test_mcs_triple(tmp_path, capsys):
    path = tmp_path / "three.txt"
    path.write_text("p\n~p\nq\n", encoding="utf-8")
    code, out, _ = run(capsys, "mcs", str(path))
    assert (code, out) == (0, "{p, q}\n{~p, q}\n")


def test_mcs_satisfiable_single_line(tmp_path, capsys):
    path = tmp_path / "sat.txt"
    path.write_text("p\nq\n", encoding="utf-8")
    code, out, _ = run(capsys, "mcs", str(path))
    assert (code, out) == (0, "{p, q}\n")


def test_mcs_cap_exits_3(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("".join(f"v{i}\n" for i in range(21)), encoding="utf-8")
    code, _, err = run(capsys, "mcs", str(path))
    assert code == 3


# -- classify ---------------------------------------------------------------------


def test_classify_classical(pair_file, capsys):
    code, out, _ = run(capsys, "classify", pair_file)
    assert code == 0
    assert "consistent: no" in out
    assert "contradictory: yes" in out
    assert "paraconsistent: no" in out


def test_classify_para(pair_file, capsys):
    code, out, _ = run(capsys, "classify", pair_file, "--para")
    assert code == 0
    assert "consistent: yes" in out
    assert "paraconsistent: yes" in out
    assert "finite candidate universe" in out


def test_classify_with_universe_file(pair_file, tmp_path, capsys):
    upath = tmp_path / "universe.txt"
    upath.write_text("p\n~p\nq\np & ~p\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", pair_file, "--para", "--universe", str(upath))
    assert code == 0
    assert "searched 4 candidate formulas" in out


def test_classify_empty_premises_need_explicit_universe(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    upath = tmp_path / "universe.txt"
    upath.write_text("p\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(path), "--universe", str(upath))
    assert code == 0
    assert "consistent: yes" in out


def test_classify_beyond_the_recursion_limit_in_variables(tmp_path, capsys):
    # 1100 one-atom premises: the search goes one level per variable, past
    # the default recursion limit, though no formula is deeper than one.
    path = tmp_path / "wide.txt"
    path.write_text("".join(f"v{i}\n" for i in range(1100)), encoding="utf-8")
    upath = tmp_path / "universe.txt"
    upath.write_text("v0\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", str(path), "--universe", str(upath))
    assert (code, err) == (0, "")
    assert "consistent: yes" in out


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_entail_para_cap_exits_3(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("".join(f"v{i}\n" for i in range(21)), encoding="utf-8")
    code, _, err = run(capsys, "entail", str(path), "q", "--para")
    assert code == 3
    assert "cap" in err


def test_classify_structured(pair_file, capsys):
    code, out, _ = run(capsys, "--format", "structured", "classify", pair_file, "--para")
    payload = json.loads(out)
    assert payload["paraconsistent"] is True
    assert payload["witness"] == "p"


# -- structure ----------------------------------------------------------------------


@pytest.fixture()
def structure_file(tmp_path):
    s = identity_structure(2, {"a": "b", "b": "a"})
    path = tmp_path / "identity.json"
    path.write_text(dumps_structure(s), encoding="utf-8")
    return str(path)


def test_structure_check_identity(structure_file, capsys):
    code, out, _ = run(capsys, "structure", "check", structure_file)
    assert code == 0
    assert "inclusion: holds" in out
    assert "idempotency: holds" in out
    assert "monotonicity: holds" in out
    assert "finiteness: holds  (vacuous at finite scale)" in out
    assert "normal: yes" in out
    assert "explosion: holds" in out
    assert "joint consistency: holds  witness: a" in out
    assert "conjunctive property: FAILS" in out


def test_structure_check_malformed_exits_2(tmp_path, capsys):
    s = identity_structure(2)
    data = json.loads(dumps_structure(s))
    data["cn"].pop()
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "structure", "check", str(path))
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize("n_atoms", [17, 64])
def test_structure_check_over_the_atom_cap_exits_3(tmp_path, capsys, n_atoms):
    path = tmp_path / "wide.json"
    labels = [f"a{i}" for i in range(n_atoms)]
    path.write_text(json.dumps({"domain": labels, "cn": []}), encoding="utf-8")
    code, out, err = run(capsys, "structure", "check", str(path))
    assert (code, out) == (3, "")
    assert "cap" in err
    assert "Traceback" not in err


def test_structure_functor_round_trip(structure_file, tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "structure", "functor", structure_file, "-o", str(out_path))
    assert code == 0
    written = load_structure(out_path)
    original = loads_structure(Path(structure_file).read_text(encoding="utf-8"))
    # CnP({a, b}) covers the domain via the consistent singletons.
    assert written.table[3] == 0b11
    assert written.domain == original.domain
    # saved file is canonical: loading and re-dumping is byte-identical
    assert dumps_structure(written) == out_path.read_text(encoding="utf-8")


def test_structure_functor_refuses_overwriting_input(structure_file, capsys):
    code, _, err = run(capsys, "structure", "functor", structure_file, "-o", structure_file)
    assert code == 2
    assert "differ" in err


def test_structure_functor_opens_the_output_before_transforming(
    structure_file, tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(
        "paracon.parafunctor.paraconsistentize_finite", lambda *a: calls.append(a)
    )
    out_path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "structure", "functor", structure_file, "-o", str(out_path))
    assert (code, out, err) == (2, "", f"error: cannot write {out_path}\n")
    assert calls == []


def test_structure_functor_inclusive_flag(structure_file, tmp_path, capsys):
    out_path = tmp_path / "inc.json"
    code, _, _ = run(
        capsys, "structure", "functor", structure_file, "-o", str(out_path), "--inclusive"
    )
    assert code == 0
    written = load_structure(out_path)
    for mask in range(4):
        assert written.table[mask] & mask == mask


def test_structure_theorem42_on_restriction(tmp_path, capsys):
    from paracon import Not, Var, build_universe, classical_restriction, save_structure

    u = build_universe(
        [Var("p"), Not(Var("p"))],
        ("subformulas", "negations", "conjunctions", "with_falsum"),
    )
    path = tmp_path / "restriction.json"
    save_structure(classical_restriction(u), path)
    code, out, _ = run(capsys, "structure", "theorem42", str(path))
    assert code == 0
    assert "hypotheses hold" in out
    assert "witness A={p, ~p}" in out


def test_structure_theorem42_not_applicable(structure_file, capsys):
    code, out, _ = run(capsys, "structure", "theorem42", structure_file)
    assert code == 1
    assert "not applicable: conjunctive property fails" in out


# -- verify-table --------------------------------------------------------------------


def test_verify_table_small_trials(capsys):
    code, out, _ = run(capsys, "verify-table", "--trials", "40")
    assert code == 0
    assert out.count("✓") == 16  # 10 classical + 6 paraclassical check marks
    assert out.count("×") == 6


def test_verify_table_zero_trials_exits_2(capsys):
    code, _, err = run(capsys, "verify-table", "--trials", "0")
    assert code == 2
    assert "(got --trials 0)" in err


def test_verify_table_negative_trials_exits_2_naming_the_count(capsys):
    code, out, err = run(capsys, "verify-table", "--trials", "-5")
    assert (code, out) == (2, "")
    assert "(got --trials -5)" in err


def test_verify_table_other_seed_same_verdicts(capsys):
    code, _, _ = run(capsys, "verify-table", "--trials", "40", "--seed", "7")
    assert code == 0


def test_verify_table_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured", "verify-table", "--trials", "30")
    payload = json.loads(out)
    assert payload["matches_expected"] is True
    assert len(payload["rows"]) == 11


# -- golden transcript ----------------------------------------------------------------

# An intended change of CLI output rewrites this file from cli_transcript();
# its diff then shows every byte the change alters.
GOLDEN_TRANSCRIPT = Path(__file__).parent / "golden" / "cli_transcript.txt"

# Each command line runs under --format text and --format structured; "<tmp>"
# stands for the directory holding the fixture files below.
TRANSCRIPT_COMMANDS = (
    "entail <tmp>/pair.txt q",
    "entail <tmp>/pair.txt q --para",
    "entail <tmp>/pair.txt p|q --para",
    "entail <tmp>/kb.txt r",
    "entail <tmp>/kb.txt r->p --para",
    "entail <tmp>/comment.txt q",
    "entail <tmp>/comment.txt p|~p --para",
    "entail <tmp>/wide.txt q --para",
    "entail <tmp>/bad.txt q",
    "entail <tmp>/pair.txt q&",
    "entail /nonexistent/premises.txt q",
    "mcs <tmp>/pair.txt",
    "mcs <tmp>/kb.txt",
    "mcs <tmp>/comment.txt",
    "mcs <tmp>/wide.txt",
    "mcs <tmp>/bad.txt",
    "classify <tmp>/pair.txt",
    "classify <tmp>/pair.txt --para",
    "classify <tmp>/kb.txt --para",
    "classify <tmp>/comment.txt",
    "classify <tmp>/pair.txt --para --universe <tmp>/kb.txt",
    "classify <tmp>/comment.txt --universe <tmp>/pair.txt",
    "classify <tmp>/pair.txt --universe <tmp>/comment.txt",
    "structure check <tmp>/swap.json",
    "structure check <tmp>/nonnormal.json",
    "structure check <tmp>/plain.json",
    "structure check <tmp>/restriction.json",
    "structure check <tmp>/missing.json",
    "structure check <tmp>/wide.json",
    "structure check /nonexistent/structure.json",
    "structure functor <tmp>/swap.json -o <tmp>/out.json",
    "structure functor <tmp>/nonnormal.json -o <tmp>/out.json --inclusive",
    "structure functor <tmp>/restriction.json -o <tmp>/para.json",
    "structure check <tmp>/para.json",
    "structure functor <tmp>/swap.json -o <tmp>/swap.json",
    "structure functor <tmp>/swap.json -o /nonexistent/x.json",
    "structure theorem42 <tmp>/restriction.json",
    "structure theorem42 <tmp>/swap.json",
    "structure theorem42 <tmp>/plain.json",
    "structure theorem42 <tmp>/nonnormal.json",
    "verify-table --trials 5",
    "verify-table --trials 0",
)

# argparse's own usage errors: only the exit code is pinned, because the
# usage text differs between Python versions.
USAGE_ERRORS = (
    "",
    "entail",
    "structure",
    "structure functor <tmp>/swap.json",
    "verify-table --trials x",
    "mcs <tmp>/pair.txt --para",
)


def _write_transcript_fixtures(directory: Path) -> None:
    premises = {
        "pair.txt": "p\n~p\n",
        "kb.txt": "p\nq\n~(p & q)\nr -> p\n",
        "comment.txt": "# nothing here\n",
        "wide.txt": "".join(f"v{i}\n" for i in range(21)),
        "bad.txt": "p &\n",
    }
    for name, text in premises.items():
        (directory / name).write_text(text, encoding="utf-8")
    # Cn({}) = {a} and Cn({a}) = {}: inclusion, idempotency and
    # monotonicity all fail, each with a counterexample subset.
    nonnormal = FiniteConsequenceStructure(("a", "b"), (0b01, 0b00, 0b10, 0b11))
    universe = build_universe([Var("p"), Not(Var("p"))], CLOSURE_FLAGS)
    swap = dumps_structure(identity_structure(2, {"a": "b", "b": "a"}))
    missing = json.loads(swap)
    missing["cn"].pop()
    texts = {
        "swap.json": swap,
        "nonnormal.json": dumps_structure(nonnormal),
        "plain.json": dumps_structure(identity_structure(2)),
        "restriction.json": dumps_structure(classical_restriction(universe)),
        "missing.json": json.dumps(missing),
        "wide.json": json.dumps({"domain": [f"a{i}" for i in range(17)], "cn": []}),
    }
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")


def _stream(name: str, text: str) -> list[str]:
    *lines, last = text.split("\n")
    tail = [f"| {last}", "\\ no newline at end"] if last else []
    return [f"{name}:", *(f"| {line}" for line in lines), *tail]


def cli_transcript(directory: Path, capsys) -> str:
    """Every transcript command's exit code, stdout and stderr, in both formats."""
    _write_transcript_fixtures(directory)
    tmp = str(directory)
    lines = []
    for command in TRANSCRIPT_COMMANDS + USAGE_ERRORS:
        for fmt in ("text", "structured"):
            argv = ["--format", fmt, *command.replace("<tmp>", tmp).split()]
            code = main(argv)
            out, err = capsys.readouterr()
            lines.append(f"$ paracon --format {fmt} {command}".rstrip())
            lines.append(f"exit {code}")
            if command in TRANSCRIPT_COMMANDS:
                lines += _stream("stdout", out.replace(tmp, "<tmp>"))
                lines += _stream("stderr", err.replace(tmp, "<tmp>"))
            lines.append("")
    return "\n".join(lines)


def test_cli_transcript_matches_golden(tmp_path, capsys):
    transcript = cli_transcript(tmp_path, capsys)
    assert transcript == GOLDEN_TRANSCRIPT.read_text(encoding="utf-8")
