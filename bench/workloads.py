"""The benchmark's workloads: seeded inputs, timed rounds, and output checks.

A workload is set up once, then runs rounds.  Round r draws its inputs from
(workload, seed, r) alone and is a list of pieces.  A piece makes a fixed
number of timed calls into paracon through `call(kind, fn, *args)` and
keeps what it needs to check them; its check, made after the round,
returns one message per call whose output is wrong.  Call kinds:
"unit" (the workload's main call, behind call_p50_ms), "cli" (an
in-process `paracon.cli.main`, behind cli_p50_ms) and "other".
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
from array import array
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

import paracon as pc
from paracon.formula import And, Implies, Not, Or, Var

import oracle


class Piece:
    def __init__(self, ops, run, check):
        self.ops = ops
        self.run = run
        self.check = check


def run_cli(argv):
    """paracon.cli.main in this process; returns (exit code, stdout, stderr)."""
    cli = importlib.import_module("paracon.cli")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_json(result, expected_codes):
    """The JSON report of a run_cli result, if the exit code is expected."""
    code, out, _ = result
    if code not in expected_codes:
        raise ValueError(f"exit code {code}")
    payload = json.loads(out)
    if payload.get("schema") != "paracon.report/1":
        raise ValueError("wrong schema")
    return payload


# ---------------------------------------------------------------------------
# Formula text, written here so that parsing is checked too.

_PREC = {Var: 5, Not: 4, And: 3, Or: 2, Implies: 1}
_OP = {And: "&", Or: "|", Implies: "->"}


def render(f) -> str:
    return _render(f)[0]


def _render(f):
    kind = type(f)
    if kind is Var:
        return f.name, 5
    if kind is Not:
        text, prec = _render(f.child)
        return "~" + (text if prec >= 4 else f"({text})"), 4
    prec = _PREC[kind]
    left, lp = _render(f.left)
    right, rp = _render(f.right)
    if kind is Implies:
        left_wrap, right_wrap = lp <= prec, False
    else:
        left_wrap, right_wrap = lp < prec, rp <= prec
    if left_wrap:
        left = f"({left})"
    if right_wrap:
        right = f"({right})"
    return f"{left} {_OP[kind]} {right}", prec


def literal(rng, names):
    v = Var(rng.choice(names))
    return Not(v) if rng.random() < 0.5 else v


def clause(rng, names, width):
    lits = [Var(v) if rng.random() < 0.5 else Not(Var(v)) for v in rng.sample(names, width)]
    out = lits[0]
    for lit in lits[1:]:
        out = Or(out, lit)
    return out


# ---------------------------------------------------------------------------
# Contradictory knowledge bases

# (family, premises, variables).  "narrow" bases mention at most 12
# variables, so paracon lists their MCSes from truth tables; "wide" bases
# mention 13 or 14 and take the per-subset satisfiability route.
#
# Every base is a few contradictory pairs plus filler premises that hold
# both when every filler variable is false and when every one is true,
# whatever the pairs say.  So a base with k pairs has exactly 2**k MCSes,
# a model of any MCS is found on the first branch that sets the fillers
# false, and every MCS is true in the all-true row of the truth table.  The
# pair variables sort first.  The draw changes the fillers and their order,
# not this shape, so a base's cost and memory depend on its size more than
# on the seed.  Narrow pairs are x, ~x; wide pairs are x & y, ~x.


def knowledge_base(rng, family, n, n_vars):
    """n distinct premises naming exactly n_vars variables; returns the formulas."""
    if family == "narrow":
        names = [f"p{i}" for i in range(3)]
        premises = [g for x in names for g in (Var(x), Not(Var(x)))]
        free = [f"v{i}" for i in range(n_vars - 3)]
    else:
        pairs = 4
        names = [f"{c}{i}" for i in range(pairs) for c in "xy"]
        premises = [g for i in range(pairs) for g in (And(Var(f"x{i}"), Var(f"y{i}")), Not(Var(f"x{i}")))]
        free = [f"z{i}" for i in range(n_vars - 2 * pairs)]
    names += free
    k = 0
    while len(premises) < n:
        # Filler k names free[k] and free[k + 1], so every free variable occurs.
        a, b = Var(free[k % len(free)]), Var(free[(k + 1) % len(free)])
        roll = rng.random()
        if family == "wide" or roll < 0.5:
            f = Or(Or(a, Not(b)), literal(rng, names))
        elif roll < 0.8:
            f = Implies(And(b, literal(rng, names)), a)
        else:
            f = And(Or(a, Not(b)), Or(b, Not(a)))
        if f not in premises:
            premises.append(f)
            k += 1
    rng.shuffle(premises)
    return premises


def kb_text(premises) -> str:
    return "".join(render(f) + "\n" for f in premises)


def mcs_masks(kb_formulas, subsets):
    """Program MCS list -> index bitmasks; raises if a member is not a premise."""
    index = {f: i for i, f in enumerate(kb_formulas)}
    masks = []
    for subset in subsets:
        mask = 0
        for f in subset:
            mask |= 1 << index[f]
        masks.append(mask)
    return masks


def check_mcs_list(kb, masks):
    """Errors in a listed MCS family, judged against the truth table."""
    n = len(kb.premises)
    if len(set(masks)) != len(masks):
        return "MCS list has duplicates"
    for m in masks:
        if not kb.satisfiable(m):
            return "an MCS is unsatisfiable"
        for i in range(n):
            if not m >> i & 1 and kb.satisfiable(m | 1 << i):
                return "an MCS is not maximal"
    for a in masks:
        for b in masks:
            if a != b and a & b == a:
                return "two MCSes are comparable"
    if not kb.maximal_satisfiable_masks() <= set(masks):
        return "the MCS list is incomplete"
    return None


# Query conclusions by kind.  A round asks each base a fixed list of kinds,
# so the mix of cheap and costly queries is the same in every round.
QUERY_KINDS = (
    "member", "member", "member or literal", "member or literal", "literal", "literal",
    "clause", "clause", "negated member", "contradiction", "two members", "clause",
)
CLASSICAL_KINDS = ("member or literal", "literal", "clause", "negated member")


def conclusion(rng, premises, names, kind):
    member = rng.choice(premises)
    if kind == "member":
        return member
    if kind == "member or literal":
        return Or(member, literal(rng, names))
    if kind == "literal":
        return literal(rng, names)
    if kind == "clause":
        return clause(rng, names, 2)
    if kind == "negated member":
        return Not(member)
    if kind == "contradiction":
        v = Var(rng.choice(names))
        return And(v, Not(v))
    return And(member, rng.choice(premises))


# ---------------------------------------------------------------------------
# Workloads


class PropertyTable:
    """The suite users run: the eleven-row table and both claim batteries.

    Users run it once per process at 1000 trials.  A round runs it at 100
    trials, where the calls per trial of every traced function are within 6%
    of those at 1000 trials and the batteries take the same shares of the
    time; at 10 trials the fixed per-row work inflates them by up to 40%.
    Each round draws a fresh suite seed: run again at one seed, the suite
    finds every MCS list in paracon's cache, which a user's single run never
    does (bench/README.md has the figures).
    """

    TRIALS = 100

    # The paper's summary table: (property, classical Cn, paraclassical CnP).
    PAPER_TABLE = (
        ("finiteness", True, True),
        ("monotonicity", True, True),
        ("inclusion", True, False),
        ("idempotency", True, False),
        ("transitivity", True, False),
        ("weak transitivity", True, True),
        ("deduction", True, True),
        ("inconsistent sets", True, False),
        ("contradictory sets", True, True),
        ("strongly contradictory sets", True, False),
        ("paraconsistent sets", False, True),
    )
    SAMPLED = {
        "contradictions-never-derivable",
        "theorem-consequences-are-universal",
        "singleton-support",
        "deduction",
        "weak-transitivity",
    }
    INSTANCES = {"deduction-converse-failure", "modus-ponens-failure"}

    def __init__(self, seed, workdir):
        self.seed = seed

    def round(self, r):
        suite_seed = random.Random(f"property-table:{self.seed}:{r}").randrange(1 << 30)
        trials = self.TRIALS
        argv = ["--format", "structured", "verify-table"]
        argv += ["--seed", str(suite_seed), "--trials", str(trials)]

        def run(call):
            cli = call("cli", run_cli, argv)
            support = call("unit", pc.check_support_laws, suite_seed, trials)
            deduction = call("other", pc.check_deduction_and_weak_transitivity, suite_seed, trials)
            return cli, support, deduction

        def check(result):
            cli, support, deduction = result
            errors = []
            try:
                payload = cli_json(cli, (0,))
                table = [(x["property"], x["classical"], x["paraclassical"]) for x in payload["rows"]]
                ok = (
                    table == list(self.PAPER_TABLE)
                    and payload["matches_expected"] is True
                    and (payload["seed"], payload["trials"]) == (suite_seed, trials)
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                errors.append("paracon verify-table disagrees with the paper's table")
            for battery in (support, deduction):
                if not self._claims_ok(battery, trials):
                    errors.append("a claim battery is not confirmed at the requested trials")
            return errors

        return [Piece(3, run, check)]

    def _claims_ok(self, results, trials):
        for claim in results:
            if claim.verdict != "confirmed":
                return False
            if claim.claim in self.SAMPLED:
                if claim.trials != trials:
                    return False
            elif claim.claim not in self.INSTANCES or claim.trials != 1:
                return False
        return True


class Base:
    """A knowledge base of one round: its premises, file, and what its load returned."""

    def __init__(self, premises, path):
        self.premises = premises
        self.text = kb_text(premises)
        self.path = path
        names = set()
        for f in premises:
            oracle.formula_vars(f, names)
        self.names = sorted(names)
        self.lines = {render(f): i for i, f in enumerate(premises)}
        self.parsed = self.subsets = self.masks = self.kb = None

    def supports(self, f):
        """The listed MCSes (checked complete by the load) that entail f."""
        return [m for m in self.masks if self.kb.entails(m, f)]


class KbQueries:
    """Load knowledge bases the process has not seen, then query them."""

    BASES = (("narrow", 12, 9), ("narrow", 14, 11), ("narrow", 18, 12), ("wide", 13, 14))
    PARA, CLASSICAL, CLI = QUERY_KINDS * 2, CLASSICAL_KINDS, 2  # per base per round

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def round(self, r):
        rng = random.Random(f"kb-queries:{self.seed}:{r}")
        pieces = []
        for k, (family, n, n_vars) in enumerate(self.BASES):
            base = Base(knowledge_base(rng, family, n, n_vars), os.path.join(self.workdir, f"base-{k}.txt"))
            with open(base.path, "w", encoding="utf-8") as handle:
                handle.write(base.text)
            pieces.append(self._load(base))
            asked = [conclusion(rng, base.premises, base.names, kind) for kind in self.PARA]
            pieces += [self._para(base, f) for f in asked]
            for kind in self.CLASSICAL:
                f = conclusion(rng, base.premises, base.names, kind)
                which = None if rng.random() < 0.5 else rng.randrange(1 << 20)
                pieces.append(self._classical(base, f, which))
            pieces += [self._cli(base, f) for f in asked[: self.CLI]]
        return pieces

    @staticmethod
    def _load(base):
        def load():
            parsed = pc.parse_formula_set(base.text)
            return parsed, pc.maximal_consistent_subsets(parsed)

        def run(call):
            base.parsed, base.subsets = call("other", load)
            return base.parsed, base.subsets

        def check(result):
            parsed, subsets = result
            base.kb = oracle.KnowledgeBase(base.premises)
            if parsed.items != tuple(base.premises):
                return ["parse_formula_set changed the premises"]
            try:
                base.masks = mcs_masks(base.premises, subsets)
            except KeyError:
                return ["an MCS holds a formula that is not a premise"]
            problem = check_mcs_list(base.kb, base.masks)
            return [problem] if problem else []

        return Piece(1, run, check)

    @staticmethod
    def _para(base, f):
        def check(witness):
            supports = base.supports(f)
            if witness is None:
                return ["para_entails said NO but an MCS entails the query"] if supports else []
            if witness.conclusion != f or witness.support not in base.subsets:
                return ["para_entails support is not a listed MCS"]
            if base.masks[base.subsets.index(witness.support)] not in supports:
                return ["para_entails support does not entail the query"]
            return []

        return Piece(1, lambda call: call("unit", pc.para_entails, base.parsed, f), check)

    @staticmethod
    def _classical(base, f, which):
        """Classical entails from the whole base, or from one listed MCS."""

        def run(call):
            premises = base.parsed if which is None else base.subsets[which % len(base.subsets)]
            return call("other", pc.entails, premises, f)

        def check(answer):
            if which is None:
                mask = (1 << len(base.premises)) - 1
            else:
                mask = base.masks[which % len(base.masks)]
            return [] if answer == base.kb.entails(mask, f) else ["entails disagrees with the truth table"]

        return Piece(1, run, check)

    @staticmethod
    def _cli(base, f):
        argv = ["--format", "structured", "entail", base.path, render(f), "--para"]

        def check(result):
            supports = base.supports(f)
            try:
                payload = cli_json(result, (0, 1))
                entailed = payload["entailed"]
                if entailed != (result[0] == 0) or entailed != bool(supports):
                    return ["paracon entail --para gives the wrong answer"]
                if entailed and sum(1 << base.lines[s] for s in payload["support"]) not in supports:
                    return ["paracon entail --para support is wrong"]
            except (ValueError, KeyError, TypeError):
                return ["paracon entail --para output is malformed"]
            return []

        return Piece(1, lambda call: call("cli", run_cli, argv), check)


# ---------------------------------------------------------------------------
# Finite structures


def universe(seed_formulas, flags):
    """build_universe's documented closure, recomputed here."""
    items = []

    def add(f):
        if f not in items:
            items.append(f)

    for f in seed_formulas:
        add(f)
    falsum = None
    if "with_falsum" in flags:
        least = min(set().union(*(oracle.formula_vars(f) for f in seed_formulas)))
        falsum = And(Var(least), Not(Var(least)))
        add(falsum)
    if "subformulas" in flags:
        k = 0
        while k < len(items):
            stack = [items[k]]
            k += 1
            while stack:
                g = stack.pop()
                add(g)
                if isinstance(g, Not):
                    stack.append(g.child)
                elif not isinstance(g, Var):
                    stack += [g.right, g.left]
    core = list(items)
    if "negations" in flags:
        for f in core:
            add(Not(f))
    if "conjunctions" in flags:
        for i, left in enumerate(core):
            for right in core[i + 1 :]:
                add(And(left, right))
    return items, falsum


# Universes of 14 formulas whose restriction meets Theorem 4.2's hypotheses,
# and of 10 formulas whose restriction fails joint consistency.  Each has
# exactly that many because the conjunctions that repeat a formula are not
# added again: `a & ~a` (the falsum) in all, and `a & b` in the third.
MEETS_42 = (
    (lambda a, b: [a, Not(a), b, Not(b)], ("with_falsum", "conjunctions")),
    (lambda a, b: [a, Not(b)], ("with_falsum", "subformulas", "conjunctions")),
    (lambda a, b: [And(a, b), Not(a)], ("with_falsum", "subformulas", "conjunctions")),
)
FAILS_42 = (
    (lambda a, b, c: [Implies(a, b), a, Not(b)], ("with_falsum", "conjunctions")),
    (lambda a, b, c: [a, b, c], ("with_falsum", "conjunctions")),
)


def closure_system(rng, n):
    """A random closure system on n atoms with a random negation involution."""
    labels = [f"u{i}" for i in rng.sample(range(100), n)]
    full = (1 << n) - 1
    closed = {full}
    for _ in range(3 * n):
        closed.add(rng.getrandbits(n) | rng.getrandbits(n))
    table = oracle.closure_table(closed, n)
    order = rng.sample(range(n), n)
    neg = list(range(n))
    for i in range(0, n - 1, 2):
        neg[order[i]], neg[order[i + 1]] = order[i + 1], order[i]
    return labels, table, neg


def structure_text(labels, table, neg) -> str:
    """The structure file format, written here from its description."""
    def names(mask):
        return sorted(labels[i] for i in range(len(labels)) if mask >> i & 1)

    return json.dumps(
        {
            "domain": labels,
            "cn": [[names(mask), names(value)] for mask, value in enumerate(table)],
            "negation": [[labels[i], labels[neg[i]]] for i in range(len(labels))],
        }
    )


def relabel(labels, table, neg, rng):
    """A bijective copy: atom i becomes new atom perm[i] with a fresh label."""
    n = len(labels)
    perm = rng.sample(range(n), n)
    new_labels = [None] * n
    for i, p in enumerate(perm):
        new_labels[p] = labels[i] + "_r"
    new_table = [0] * (1 << n)
    for mask, value in enumerate(table):
        new_table[oracle.image_mask(mask, perm)] = oracle.image_mask(value, perm)
    new_neg = [0] * n
    for i in range(n):
        new_neg[perm[i]] = perm[neg[i]]
    mapping = {labels[i]: new_labels[perm[i]] for i in range(n)}
    return new_labels, new_table, new_neg, mapping, perm


def build_structure(labels, table, neg):
    return pc.FiniteConsequenceStructure(labels, table, {labels[i]: labels[neg[i]] for i in range(len(labels))})


Report = namedtuple("Report", "name holds counterexample witness")


def check_structure_laws(labels, table, neg, reports):
    """Axiom and negation-law verdicts against sweeps; counterexamples replay."""
    n = len(labels)
    full = (1 << n) - 1
    index = {a: i for i, a in enumerate(labels)}

    def mask(labels):
        out = 0
        for a in labels:
            out |= 1 << index[a]
        return out

    errors = []
    truth = {
        "inclusion": oracle.inclusion_holds(table),
        "idempotency": oracle.idempotency_holds(table),
        "monotonicity": oracle.monotonicity_holds(table, n),
        "finiteness": True,
        "explosion": oracle.explosion_holds(table, n, neg),
        "joint consistency": bool(oracle.joint_consistency_atoms(table, n, neg)),
        "conjunctive property": oracle.conjunctive_holds(table, n),
    }
    for report in reports:
        name = report.name
        if name not in truth or report.holds != truth[name]:
            errors.append(f"{name} verdict is wrong")
            continue
        ce = report.counterexample
        try:
            if name == "inclusion" and not report.holds:
                a = mask(ce[0])
                ok = table[a] & a != a
            elif name == "idempotency" and not report.holds:
                a = mask(ce[0])
                ok = table[table[a]] != table[a]
            elif name == "monotonicity" and not report.holds:
                a, b = mask(ce[0]), mask(ce[1])
                ok = a & b == a and table[a] & ~table[b] != 0
            elif name == "explosion" and not report.holds:
                a, i = mask(ce[0]), index[ce[1]]
                ok = table[a] != full and table[a] >> i & 1 and table[a] >> neg[i] & 1
            elif name == "joint consistency" and report.holds:
                ok = index[report.witness] in oracle.joint_consistency_atoms(table, n, neg)
            elif name == "conjunctive property" and not report.holds:
                i, j = index[ce[0]], index[ce[1]]
                ok = table[(1 << i) | (1 << j)] not in {table[1 << k] for k in range(n)}
            else:
                ok = True
        except (KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            errors.append(f"{name} evidence does not replay")
    return errors


def check_transfer(labels, table, neg, result, transformed):
    """The Theorem 4.2 verdict follows the hypotheses, and its witness replays."""
    n = len(labels)
    full = (1 << n) - 1
    hypotheses = (
        ("normal", oracle.normal_holds(table, n)),
        ("explosion", oracle.explosion_holds(table, n, neg)),
        ("joint consistency", bool(oracle.joint_consistency_atoms(table, n, neg))),
        ("conjunctive property", oracle.conjunctive_holds(table, n)),
    )
    failing = next((name for name, holds in hypotheses if not holds), None)
    if result.trials != 1 << n:
        return False
    if failing is not None:
        return result.verdict == "not applicable" and result.evidence.get("failing hypothesis") == failing
    if oracle.explosion_holds(transformed, n, neg):
        return result.verdict == "refuted"
    if result.verdict != "confirmed":
        return False
    index = {a: i for i, a in enumerate(labels)}
    try:
        text = result.evidence["witness premise set"]
        members = [a for a in text[1:-1].split(", ") if a] if text != "{}" else []
        a = sum(1 << index[x] for x in members)
        atom, negated = result.evidence["derivable pair"].split(" and ")
        missing = index[result.evidence["underivable"]]
        closed = transformed[a]
        return (
            closed != full
            and closed >> index[atom] & 1
            and closed >> index[negated] & 1
            and index[negated] == neg[index[atom]]
            and not closed >> missing & 1
        )
    except (KeyError, ValueError, AttributeError):
        return False


def check_dumped(text, labels, table, neg):
    try:
        data = json.loads(text)
        index = {a: i for i, a in enumerate(data["domain"])}
        if data["domain"] != list(labels):
            return False
        seen = {}
        for subset, value in data["cn"]:
            seen[sum(1 << index[a] for a in subset)] = sum(1 << index[a] for a in value)
        negation = dict(map(tuple, data["negation"]))
        return seen == dict(enumerate(table)) and negation == {
            labels[i]: labels[neg[i]] for i in range(len(labels))
        }
    except (ValueError, KeyError, TypeError):
        return False


class StructureTables:
    """Finite structures: restrictions of closure universes and closure systems."""

    CLOSURE_ATOMS = (12, 12)
    CLI_ATOMS = (10, 10, 10)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def round(self, r):
        rng = random.Random(f"structure-tables:{self.seed}:{r}")
        a, b, c = sorted(f"{x}{rng.randrange(100)}" for x in rng.sample("pqrst", 3))
        pieces = []
        build, flags = rng.choice(MEETS_42)
        pieces.append(self._restriction(build(Var(a), Var(b)), flags, 14, rng))
        build, flags = rng.choice(FAILS_42)
        pieces.append(self._restriction(build(Var(a), Var(b), Var(c)), flags, 10, rng))
        for n in self.CLOSURE_ATOMS:
            labels, table, neg = closure_system(rng, n)
            pieces.append(self._closure(labels, table, neg, rng))
        for k, n in enumerate(self.CLI_ATOMS):
            labels, table, neg = closure_system(rng, n)
            path = os.path.join(self.workdir, f"structure-{k}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(structure_text(labels, table, neg))
            pieces.append(self._cli(path, labels, table, neg))
        return pieces

    def _restriction(self, seed_formulas, flags, size, rng):
        text = kb_text(seed_formulas)
        items, falsum = universe(seed_formulas, flags)
        # Every round's structures have the same sizes, so rounds cost alike.
        assert len(items) == size, f"a template's universe has {len(items)} formulas"
        labels = [render(f) for f in items]
        table = oracle.restriction_table(items)
        position = {f: i for i, f in enumerate(items)}
        neg = [position.get(Not(f), position[falsum]) for f in items]

        def restrict():
            built = pc.build_universe(pc.parse_formula_set(text), flags)
            return pc.classical_restriction(built)

        return self._pipeline(
            lambda call: call("other", restrict), labels, table, neg, rng, "classical_restriction"
        )

    def _closure(self, labels, table, neg, rng):
        text = structure_text(labels, table, neg)
        return self._pipeline(
            lambda call: call("other", pc.loads_structure, text), labels, table, neg, rng, "loads"
        )

    def _pipeline(self, first, labels, table, neg, rng, first_name):
        """16 calls on one structure; the first builds it from its text."""
        copy_labels, copy_table, copy_neg, mapping, perm = relabel(labels, table, neg, rng)
        inclusive = pc.FunctorOptions(inclusive=True)

        def run(call):
            S = first(call)
            copy = build_structure(copy_labels, copy_table, copy_neg)
            out = {"S": (S.domain, array("H", S.table), dict(S.negation or {}))}
            out["laws"] = [call("other", pc.check_axiom, S, axiom) for axiom in pc.AXIOMS]
            out["laws"] += [
                call("other", pc.check_explosive, S),
                call("other", pc.check_joint_consistency, S),
                call("other", pc.check_conjunctive_property, S),
            ]
            T = call("unit", pc.paraconsistentize_finite, S)
            out["T"] = array("H", T.table)
            out["TI"] = array("H", call("unit", pc.paraconsistentize_finite, S, inclusive).table)
            out["transfer"] = call("other", pc.check_paraconsistency_transfer, S)
            out["hom"] = call("other", pc.check_homomorphism, pc.HomomorphismCandidate(S, copy, mapping))
            Tc = call("unit", pc.paraconsistentize_finite, copy)
            out["Tc"] = array("H", Tc.table)
            out["homT"] = call("other", pc.check_homomorphism, pc.HomomorphismCandidate(T, Tc, mapping))
            text = call("other", pc.dumps_structure, S)
            back = call("other", pc.loads_structure, text)
            out["dumped"] = text
            out["back"] = (back.domain, array("H", back.table), dict(back.negation or {}))
            return out

        negation = {labels[i]: labels[neg[i]] for i in range(len(labels))}

        def check(out):
            errors = []
            n = len(labels)
            if out["S"] != (tuple(labels), array("H", table), negation):
                return [f"{first_name} built the wrong structure"] + ["depends on it"] * 15
            errors += check_structure_laws(labels, table, neg, out["laws"])
            plain = oracle.transform(table, n, False)
            if list(out["T"]) != plain:
                errors.append("paraconsistentize_finite disagrees with the definition")
            if list(out["TI"]) != oracle.transform(table, n, True):
                errors.append("inclusive paraconsistentize_finite disagrees with the definition")
            if not check_transfer(labels, table, neg, out["transfer"], plain):
                errors.append("check_paraconsistency_transfer is wrong")
            if not out["hom"].holds:
                errors.append("a relabelled copy is not a homomorphism")
            copy_plain = oracle.transform(copy_table, n, False)
            if list(out["Tc"]) != copy_plain:
                errors.append("paraconsistentize_finite disagrees with the definition on a copy")
            if not (out["homT"].holds and oracle.commutes(plain, copy_plain, perm)):
                errors.append("a bijection stopped being a homomorphism after the transform")
            if not check_dumped(out["dumped"], labels, table, neg):
                errors.append("dumps wrote the wrong table")
            if out["back"] != out["S"]:
                errors.append("loads(dumps(S)) != S")
            return errors

        return Piece(16, run, check)

    @staticmethod
    def _cli(path, labels, table, neg):
        argv = ["--format", "structured", "structure", "check", path]

        def check(result):
            try:
                payload = cli_json(result, (0,))
                reports = [
                    Report(x["name"], x["holds"], x["counterexample"], x["witness"])
                    for x in payload["reports"]
                ]
                if len(reports) != 7 or payload["normal"] != oracle.normal_holds(table, len(labels)):
                    return ["paracon structure check output is wrong"]
                if check_structure_laws(labels, table, neg, reports):
                    return ["paracon structure check verdicts are wrong"]
            except (ValueError, KeyError, TypeError):
                return ["paracon structure check output is malformed"]
            return []

        return Piece(1, lambda call: call("cli", run_cli, argv), check)


WORKLOADS = {
    "property-table": PropertyTable,
    "kb-queries": KbQueries,
    "structure-tables": StructureTables,
}
