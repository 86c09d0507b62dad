"""paracon benchmark: one workload per process, timed from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; paracon is imported from its `src`.
The workload runs rounds in a closed loop on one thread until its timed
calls add up to S seconds, checking each round's outputs against
bench/oracle.py between rounds.  The last line of standard output is one
JSON object: correct, attempted, failed, and the metrics (the end-to-end
metrics, or with --trace 1 the per-layer metrics of a traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

PROBES = 15
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import paracon, paracon.cli\n"
    "print(time.perf_counter() - t)\n"
)


def setup_seconds() -> float:
    """Median time to import paracon and paracon.cli in a fresh interpreter.

    One extra probe runs first and is dropped: it may compile bytecode.
    """
    times = []
    for _ in range(PROBES + 1):
        probe = subprocess.run(
            [sys.executable, "-I", "-c", PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(probe.stdout))
    return statistics.median(times[1:])


class Rounds:
    """Runs rounds, timing each call, and checks every round after it ends."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = {"unit": [], "cli": [], "other": []}
        self.round_seconds = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []

    def run(self, first: int, seconds: float, deadline: float, on_round=None) -> int:
        """Rounds first, first+1, ... until their calls took `seconds`; returns the next."""
        r, spent = first, 0.0
        while True:
            spent += self._round(r)
            if on_round:
                on_round(r)
            r += 1
            if spent >= seconds or perf_counter() >= deadline:
                return r

    def _round(self, r: int) -> float:
        pieces = self.workload.round(r)
        done = [0]
        taken = [0.0]

        def call(kind, fn, *args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            self.samples[kind].append(elapsed)
            taken[0] += elapsed
            done[0] += 1
            return result

        outcomes = []
        for piece in pieces:
            done[0] = 0
            try:
                outcomes.append((piece, piece.run(call), None))
            except Exception as exc:  # a failed call; its dependants fail too
                outcomes.append((piece, None, piece.ops - done[0]))
                self._note(f"round {r}: {type(exc).__name__}: {exc}")
        self.round_seconds.append(taken[0])
        for piece, result, raised in outcomes:
            self.attempted += piece.ops
            if raised is not None:
                self.failed += raised
                continue
            try:
                errors = piece.check(result)
            except Exception as exc:  # output of an unexpected shape
                errors = [f"check raised {type(exc).__name__}: {exc}"] * piece.ops
            if errors:
                wrong = min(len(errors), piece.ops)
                self.failed += wrong
                self.wrong += wrong
                self._note(f"round {r}: {errors[0]}")
        return taken[0]

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def median(values, scale=1.0):
    """The median times scale, or None (printed as null) if no call of the kind returned."""
    return statistics.median(values) * scale if values else None


def end_to_end(rounds: Rounds, setup: float) -> dict:
    return {
        "setup_s": (setup, "s"),
        "wall_s": (median(rounds.round_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "call_p50_ms": (median(rounds.samples["unit"], 1000.0), "ms"),
        "cli_p50_ms": (median(rounds.samples["cli"], 1000.0), "ms"),
    }


def per_layer(rounds: Rounds, seconds: float, deadline: float, workload: str) -> dict:
    """A traced half-run from round 0, then an untraced half-run for comparison."""
    from spans import BENEATH, SUITES, Tracer

    tracer = Tracer()
    marks = [tracer.mark()]
    tracer.install()
    try:
        nxt = rounds.run(0, seconds / 2, deadline, lambda r: marks.append(tracer.mark()))
    finally:
        tracer.uninstall()
    traced = list(rounds.round_seconds)
    rounds.run(nxt, seconds / 2, deadline)
    untraced = rounds.round_seconds[len(traced) :]

    summaries = [tracer.summarize(a, b) for a, b in zip(marks, marks[1:])]
    first = summaries[0]
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = (first["calls"][name], "count")
        metrics[f"{name}.self_ms"] = (
            statistics.median(s["self_ms"][name] for s in summaries),
            "ms",
        )
    for suite in SUITES:
        for below in BENEATH:
            label = "para" if below == "para_entails" else below
            metrics[f"propsuite.{suite}.{label}.calls"] = (first["beneath"][(suite, below)], "count")
    used, listed = tracer.mcs_used(marks[0], marks[1])
    metrics["parafunctor.mcs_used_ratio"] = (used / listed if listed else 0.0, "ratio")
    metrics["parafunctor.mcs_used_ratio.base"] = (listed, "count")
    metrics["trace.wall_s"] = (median(traced), "s")
    overhead = median(traced) - median(untraced) if untraced else None
    metrics["trace.overhead_s"] = (overhead, "s")
    tracer.dump(OUT / f"trace-{workload}-{os.getpid()}.json")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "paracon" / "__init__.py").is_file():
        print(f"error: no paracon sources under {SRC}", file=sys.stderr)
        return 2
    start = perf_counter()
    setup = None if args.trace else setup_seconds()

    sys.path[:0] = [str(SRC), str(HERE)]
    import paracon

    if Path(paracon.__file__).resolve().parent != SRC / "paracon":
        print(f"error: imported paracon from {paracon.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        rounds = Rounds(workload)
        # Start no round after this, so that a run ends within three minutes.
        deadline = start + min(4 * args.seconds + 30, 140)
        if args.trace:
            metrics = per_layer(rounds, args.seconds, deadline, args.workload)
        else:
            rounds.run(0, args.seconds, deadline)
            metrics = end_to_end(rounds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in rounds.errors:
        print(message, file=sys.stderr)
    result = {
        "correct": rounds.wrong == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
