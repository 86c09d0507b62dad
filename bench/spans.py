"""Span recording at paracon's module boundaries, installed from outside.

Each traced function is replaced, at every module attribute of the package
that holds it, by a wrapper that records a span: name, start, end and the
index of the enclosing span.  Spans stay in memory until the run ends.
A recursive call of a function from inside itself records no new span, so
`calls` counts the calls made from elsewhere.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

MODULES = ("formula", "classical", "parafunctor", "structures", "propsuite", "cli")

TRACED = {
    "formula": ("parse_formula_set", "variables", "build_universe"),
    "classical": ("is_satisfiable", "entails", "classify"),
    "parafunctor": (
        "maximal_consistent_subsets",
        "para_entails",
        "paraconsistentize_finite",
    ),
    "structures": (
        "classical_restriction",
        "check_axiom",
        "check_homomorphism",
        "check_explosive",
        "check_joint_consistency",
        "check_conjunctive_property",
        "dumps",
        "loads",
    ),
    "propsuite": (
        "verify_table",
        "check_support_laws",
        "check_deduction_and_weak_transitivity",
        "check_paraconsistency_transfer",
    ),
    "cli": ("main",),
}

SUITES = ("verify_table", "check_support_laws", "check_deduction_and_weak_transitivity")
BENEATH = ("entails", "para_entails")


def span_names() -> list:
    return [f"{module}.{name}" for module in MODULES for name in TRACED[module]]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.spans = []  # [name index, start, end, parent index]
        self.stack = []
        self.replaced = []  # (module, attribute, original)
        self.originals = {}
        self.witnessed = []  # per witnessed para_entails: (premises, support)

    def install(self) -> None:
        package = importlib.import_module("paracon")
        modules = [package] + [
            importlib.import_module(f"paracon.{m}") for m in (*MODULES, "errors")
        ]
        for module_name in MODULES:
            home = importlib.import_module(f"paracon.{module_name}")
            for name in TRACED[module_name]:
                original = getattr(home, name, None)
                if not callable(original):
                    raise RuntimeError(f"paracon.{module_name}.{name} no longer exists")
                self.originals[name] = original
                wrapper = self._wrap(self.names.index(f"{module_name}.{name}"), original)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attribute, wrapper)
                            self.replaced.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self.replaced):
            setattr(module, attribute, original)
        self.replaced.clear()

    def _wrap(self, name_index: int, original):
        spans, stack = self.spans, self.stack
        para = self.names[name_index] == "parafunctor.para_entails"

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name_index:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append([name_index, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return_value = original(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            if para and return_value is not None:
                self.witnessed.append((args[0] if args else kwargs["premises"], return_value.support))
            return return_value

        traced.__wrapped__ = original
        return traced

    def mark(self) -> tuple:
        return len(self.spans), len(self.witnessed)

    def summarize(self, start: tuple, end: tuple) -> dict:
        """Calls and self time per name, and the suite counts, for spans in a range."""
        lo, hi = start[0], end[0]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        child = {}
        suite_of = {}
        beneath = {(s, b): 0 for s in SUITES for b in BENEATH}
        for i in range(lo, hi):
            name_index, t0, t1, parent = self.spans[i]
            name = self.names[name_index].split(".", 1)[1]
            calls[name_index] += 1
            self_s[name_index] += t1 - t0
            if parent >= lo:
                self_s[self.spans[parent][0]] -= t1 - t0
            suite = suite_of.get(parent)
            if name in SUITES:
                suite_of[i] = name
            elif suite is not None:
                suite_of[i] = suite
                if name in BENEATH:
                    beneath[(suite, name)] += 1
        return {
            "calls": dict(zip(self.names, calls)),
            "self_ms": {n: s * 1000.0 for n, s in zip(self.names, self_s)},
            "beneath": beneath,
        }

    def mcs_used(self, start: tuple, end: tuple) -> tuple:
        """(MCSes up to and including the witness, MCSes listed), summed over the
        witnessed para_entails calls in a range.

        It lists the MCSes again, so call it after `uninstall`, outside every span.
        """
        if self.replaced:
            raise RuntimeError("mcs_used must run after uninstall")
        used = listed = 0
        for premises, support in self.witnessed[start[1] : end[1]]:
            mcses = self.originals["maximal_consistent_subsets"](premises)
            if support in mcses:
                used += mcses.index(support) + 1
                listed += len(mcses)
        return used, listed

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)
