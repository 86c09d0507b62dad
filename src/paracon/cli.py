"""Command-line front end.

Exit codes: 0 the query answered yes / the command succeeded, 1 the query
answered no, 2 usage or parse errors, 3 a resource cap was exceeded: a size
cap, or the interpreter's recursion limit on a formula too deep for it
(parsed formulas stay within MAX_NESTING levels and never reach it).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import parafunctor, propsuite, structures
from .classical import classify, entails
from .errors import CapExceededError
from .formula import CLOSURE_FLAGS, build_universe, parse, read_formula_set, render

SCHEMA = "paracon.report/1"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "structured":
        print(json.dumps({"schema": SCHEMA, **payload}, ensure_ascii=False))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_entail(args) -> int:
    premises = read_formula_set(args.premises)
    conclusion = parse(args.formula)
    witness = None
    if args.para:
        witness = parafunctor.para_entails(premises, conclusion)
        entailed = witness is not None
    else:
        entailed = entails(premises, conclusion)
    payload = {"command": "entail", "para": args.para, "entailed": entailed}
    text = "YES" if entailed else "NO"
    if witness is not None:
        payload["support"] = [render(f) for f in witness.support]
        text += f", support: {witness.support.render()}"
    _emit(args, payload, text)
    return 0 if entailed else 1


def _cmd_mcs(args) -> int:
    premises = read_formula_set(args.premises)
    subsets = parafunctor.maximal_consistent_subsets(premises)
    _emit(
        args,
        {"command": "mcs", "subsets": [[render(f) for f in s] for s in subsets]},
        "\n".join(s.render() for s in subsets),
    )
    return 0


# SetClassification's flags: text "name: yes|no" lines and JSON keys alike.
_VERDICT_FLAGS = (
    "consistent",
    "contradictory",
    "strongly_contradictory",
    "paraconsistent",
)


def _cmd_classify(args) -> int:
    premises = read_formula_set(args.premises)
    if args.universe:
        seed, flags = read_formula_set(args.universe), ()
        empty = "cannot build a candidate universe from an empty --universe file"
    else:
        seed, flags = premises, CLOSURE_FLAGS
        empty = "cannot build a default candidate universe from an empty premise set"
    if len(seed) == 0:
        return _fail(empty, 2)
    candidates = build_universe(seed, flags)
    verdict = (
        parafunctor.para_classify(premises, candidates)
        if args.para
        else classify(premises, candidates)
    )
    lines = [
        f"{name.replace('_', ' ')}: {'yes' if getattr(verdict, name) else 'no'}"
        for name in _VERDICT_FLAGS
    ]
    lines += [
        f"witness: {render(verdict.witness) if verdict.witness else '-'}",
        f"searched {len(candidates)} candidate formulas",
    ]
    if args.para:
        lines.append("note: consistency decided over the finite candidate universe")
    _emit(
        args,
        {
            "command": "classify",
            "para": args.para,
            **{name: getattr(verdict, name) for name in _VERDICT_FLAGS},
            "witness": render(verdict.witness) if verdict.witness else None,
            "candidates_searched": len(candidates),
        },
        "\n".join(lines),
    )
    return 0


def _report_line(report: structures.AxiomReport) -> str:
    line = f"{report.name}: {'holds' if report.holds else 'FAILS'}"
    if report.counterexample is not None:
        parts = [
            "{" + ", ".join(item) + "}" if isinstance(item, tuple) else str(item)
            for item in report.counterexample
        ]
        line += "  counterexample: " + ", ".join(parts)
    if report.witness is not None:
        line += f"  witness: {report.witness}"
    if report.note:
        line += f"  ({report.note})"
    return line


def _cmd_structure_check(args) -> int:
    structure = structures.load(args.file)
    reports = [structures.check_axiom(structure, axiom) for axiom in structures.AXIOMS]
    normal = all(r.holds for r in reports if r.name in structures.NORMAL_AXIOMS)
    lines = [_report_line(r) for r in reports]
    lines.append(f"normal: {'yes' if normal else 'no'}")
    if structure.negation is not None:
        extra = [
            structures.check_explosive(structure),
            structures.check_joint_consistency(structure),
            structures.check_conjunctive_property(structure),
        ]
        reports.extend(extra)
        lines.extend(_report_line(r) for r in extra)
    _emit(
        args,
        {
            "command": "structure check",
            "normal": normal,
            "reports": [{k: getattr(r, k) for k in r.__match_args__} for r in reports],
        },
        "\n".join(lines),
    )
    return 0


def _cmd_structure_functor(args) -> int:
    structure = structures.load(args.file)
    options = parafunctor.FunctorOptions(inclusive=bool(args.inclusive))
    out_path = Path(args.output)
    if out_path.resolve() == Path(args.file).resolve():
        return _fail("output path must differ from the input structure file", 2)
    try:
        # Opened before the transform: an unwritable path costs no work.
        with open(out_path, "w", encoding="utf-8") as handle:
            transformed = parafunctor.paraconsistentize_finite(structure, options)
            handle.write(structures.dumps(transformed))
    except OSError:
        return _fail(f"cannot write {out_path}", 2)
    _emit(
        args,
        {"command": "structure functor", "output": str(out_path)},
        f"wrote transformed structure to {out_path}",
    )
    return 0


def _cmd_structure_theorem42(args) -> int:
    result = propsuite.check_paraconsistency_transfer(structures.load(args.file))
    if result.verdict == "confirmed":
        text = (
            "hypotheses hold; transformed structure is paraconsistent; "
            f"witness A={result.evidence['witness premise set']} "
            f"(derives {result.evidence['derivable pair']}, "
            f"misses {result.evidence['underivable']})"
        )
    elif result.verdict == "not applicable":
        text = f"not applicable: {result.evidence['failing hypothesis']} fails"
        if "reason" in result.evidence:
            text += f" ({result.evidence['reason']})"
    else:
        text = f"REFUTED: {result.evidence}"
    _emit(
        args,
        {
            "command": "structure theorem42",
            "verdict": result.verdict,
            "checked_subsets": result.trials,
            "evidence": result.evidence,
        },
        text,
    )
    return 0 if result.verdict == "confirmed" else 1


def _cmd_verify_table(args) -> int:
    if args.trials < 1:
        return _fail(
            f"a confirmation needs at least one trial (got --trials {args.trials})", 2
        )
    rows = propsuite.verify_table(seed=args.seed, trials=args.trials)
    matches = propsuite.table_matches_expected(rows)
    _emit(
        args,
        {
            "command": "verify-table",
            "seed": args.seed,
            "trials": args.trials,
            "matches_expected": matches,
            "rows": [
                {
                    "property": row.name,
                    "classical": row.holds_cn,
                    "paraclassical": row.holds_cnp,
                    "evidence": row.evidence,
                }
                for row in rows
            ],
        },
        propsuite.render_table(rows),
    )
    return 0 if matches else 1


@functools.cache  # one parser per process: building it costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracon",
        description="Consequence structures, paraconsistentization, and "
        "paraclassical entailment with witnesses.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output format (structured = one JSON object)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    entail = commands.add_parser("entail", help="does a premise file entail a formula?")
    entail.add_argument("premises", help="premise file: one formula per line")
    entail.add_argument("formula", help="conclusion formula (quote it in the shell)")
    entail.add_argument(
        "--para",
        action="store_true",
        help="use paraclassical entailment and print the witness support",
    )
    entail.set_defaults(handler=_cmd_entail)

    mcs = commands.add_parser(
        "mcs", help="list the maximal consistent subsets of a premise file"
    )
    mcs.add_argument("premises")
    mcs.set_defaults(handler=_cmd_mcs)

    cls = commands.add_parser(
        "classify", help="consistency/contradictoriness classification"
    )
    cls.add_argument("premises")
    cls.add_argument("--para", action="store_true", help="classify under |-P")
    cls.add_argument(
        "--universe",
        help="formula file of candidate witnesses (default: built from the "
        "premises with all closures)",
    )
    cls.set_defaults(handler=_cmd_classify)

    struct = commands.add_parser("structure", help="operations on structure files")
    actions = struct.add_subparsers(dest="action", required=True)
    handlers = {
        "check": _cmd_structure_check,
        "functor": _cmd_structure_functor,
        "theorem42": _cmd_structure_theorem42,
    }
    for name, help_text in (
        ("check", "check the closure axioms (and negation laws when present)"),
        ("functor", "apply the paraconsistentization transform and save it"),
        ("theorem42", "check the paraconsistency-transfer conditions end to end"),
    ):
        sub = actions.add_parser(name, help=help_text)
        sub.add_argument("file", help="structure file (JSON)")
        if name == "functor":
            sub.add_argument("-o", "--output", required=True, help="output path")
            sub.add_argument(
                "--inclusive",
                action="store_true",
                help="also union each premise set into its own consequences",
            )
        sub.set_defaults(handler=handlers[name])

    table = commands.add_parser(
        "verify-table", help="verify the eleven-row property table"
    )
    table.add_argument("--seed", type=int, default=propsuite.DEFAULT_SEED)
    table.add_argument("--trials", type=int, default=propsuite.DEFAULT_TRIALS)
    table.set_defaults(handler=_cmd_verify_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        return _fail(f"cannot read {exc.filename}", 2)
    except CapExceededError as exc:
        return _fail(str(exc), 3)
    except RecursionError:
        return _fail("formula too deep for the interpreter's recursion limit", 3)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
