"""Quick self-test of the benchmark: python3 bench/selftest.py (under a minute).

Runs every workload for one round at tiny sizes with every check on, shows
that the checks catch two broken programs, cross-checks the oracle, and
runs bench/run.py itself: its output format, identical traced call counts
at one seed, and failure in a directory without paracon's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import paracon  # noqa: E402
from paracon import parafunctor  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


class TinyTable(W.PropertyTable):
    TRIALS = 2


class TinyQueries(W.KbQueries):
    BASES = (("narrow", 12, 6), ("wide", 12, 13))
    PARA, CLASSICAL, CLI = W.QUERY_KINDS[::2], W.CLASSICAL_KINDS[:2], 2


class TinyStructures(W.StructureTables):
    CLOSURE_ATOMS, CLI_ATOMS = (6,), (5,)


TINY = {
    "property-table": TinyTable,
    "kb-queries": TinyQueries,
    "structure-tables": TinyStructures,
}


def one_round(name, seed=7):
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = TINY[name](seed, str(workdir))
        rounds = run.Rounds(workload)
        rounds.run(0, 0.0, float("inf"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rounds


def patched(module_attrs, replacement):
    """Replace a function at every attribute that holds it; returns an undo."""
    undo = []
    for module, attr in module_attrs:
        undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore():
        for module, attr, original in undo:
            setattr(module, attr, original)

    return restore


def check_tiny_rounds():
    for name in TINY:
        rounds = one_round(name)
        assert rounds.failed == 0 and rounds.wrong == 0, (name, rounds.errors)
        assert rounds.attempted > 0 and rounds.samples["unit"] and rounds.samples["cli"], name
        print(f"ok   {name}: {rounds.attempted} calls checked")


def check_broken_programs():
    original_para, original_mcs = parafunctor.para_entails, parafunctor.maximal_consistent_subsets

    def first_mcs(premises, conclusion, max_size=parafunctor.MCS_CAP):
        supports = original_mcs(premises, max_size=max_size)
        return parafunctor.ParaWitness(conclusion, supports[0], True) if supports else None

    restore = patched([(paracon, "para_entails"), (parafunctor, "para_entails")], first_mcs)
    try:
        rounds = one_round("kb-queries")
    finally:
        restore()
    assert rounds.failed > 0, "a support that does not entail the query went unnoticed"
    print(f"ok   para_entails returning the first MCS: {rounds.failed} failed calls")
    assert parafunctor.para_entails is original_para

    def unfiltered(structure, options=parafunctor.FunctorOptions()):
        table = []
        for mask in range(structure.full_mask + 1):
            closed = mask if options.inclusive else 0
            sub = mask
            while True:
                closed |= structure.table[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            table.append(closed)
        return paracon.FiniteConsequenceStructure(structure.domain, table, structure.negation)

    holders = [(paracon, "paraconsistentize_finite"), (parafunctor, "paraconsistentize_finite")]
    holders.append((paracon.propsuite, "paraconsistentize_finite"))
    restore = patched(holders, unfiltered)
    try:
        rounds = one_round("structure-tables")
    finally:
        restore()
    assert rounds.failed > 0, "a transform without the consistency filter went unnoticed"
    print(f"ok   transform without its consistency filter: {rounds.failed} failed calls")

    def raises(seed, trials):
        raise RuntimeError("broken")

    restore = patched([(paracon, "check_support_laws")], raises)
    try:
        rounds = one_round("property-table")
    finally:
        restore()
    metrics = run.end_to_end(rounds, 0.0)
    assert rounds.failed == 2 and rounds.wrong == 0, "a raised call and the calls after it in its piece count as failed"
    assert metrics["call_p50_ms"][0] is None and metrics["cli_p50_ms"][0] is not None
    print("ok   a call that always raises: counted as failed, its metric reported as null")


def check_oracle():
    rng = random.Random(1)
    names = ["a", "b", "c", "d"]
    tt = oracle.TruthTable(names)
    for _ in range(300):
        kind = rng.choice(W.QUERY_KINDS)
        f = W.conclusion(rng, [W.clause(rng, names, 3) for _ in range(3)], names, kind)
        table = tt.table(f)
        for row in range(tt.rows):
            assert bool(table >> row & 1) == oracle.evaluate(f, tt.valuation(row))
        assert paracon.parse(W.render(f)) == f and paracon.render(f) == W.render(f)
    n = 5
    labels, table, neg = W.closure_system(rng, n)
    full = (1 << n) - 1
    for inclusive in (False, True):
        literal = []
        for mask in range(1 << n):
            closed = mask if inclusive else 0
            for sub in range(1 << n):
                if sub & mask == sub and table[sub] != full:
                    closed |= table[sub]
            literal.append(closed)
        assert oracle.transform(table, n, inclusive) == literal
    print("ok   oracle agrees with per-valuation evaluation and the literal transform")


def bench(*args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=170)


def check_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = bench("--workload", "property-table", "--seed", "3", "--seconds", "0.1", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, done.stderr
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in spec[key]}, set(got) ^ {m["name"] for m in spec[key]}
        if trace:
            again = bench("--workload", "property-table", "--seed", "3", "--seconds", "0.1", "--trace", "1")
            second = json.loads(again.stdout.strip().splitlines()[-1])["metrics"]
            calls = {k: v for k, v in result["metrics"].items() if k.endswith(".calls")}
            assert calls == {k: second[k] for k in calls}, "traced call counts differ at one seed"
    print("ok   run.py prints every metric of BENCHMARK.json; traced call counts repeat")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        done = bench("--workload", "kb-queries", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), "ran without paracon's sources"
    print("ok   run.py fails without paracon's sources")


if __name__ == "__main__":
    check_oracle()
    check_tiny_rounds()
    check_broken_programs()
    check_run_py()
    print("self-test passed")
