"""Seeded closed-loop benchmark of the addingmachine command line.

    python3 perfbench/run.py --workload ifs-rotation --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
One client calls `addingmachine.cli.main` in-process: an op is one CLI
invocation and the next op starts when the previous one returns. No
threads; each run is its own process, so peak RSS belongs to one
workload. Every op's output is checked by the workload's own oracle.

The timed phase runs whole passes over the seeded deck, at least three
and more until --seconds have elapsed, so every run times the same mix
of ops. A fixed reference loop runs beside every timed op and set-up,
and each time is reported at a fixed speed of that loop (see
`end_to_end`), so the host's changing speed moves the figures little.
With --trace 1 the passes alternate untraced and traced, and the
run reports per-layer figures and the tracing overhead instead of
end-to-end metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. `attempted` and `failed` count the ops
of the run's first pass and those the oracle rejects; `correct` is
false on any failure other than the documented known defect, on a
digest mismatch between passes, on nondeterministic layer counts, or
when a traced function predicted to work is never called.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
REFERENCE_ROUNDS = 3
# One reference round at the reference speed: its best time on the
# 2-vCPU Xeon VM where the benchmark was written. Timings are reported
# at this speed.
REFERENCE_ROUND_S = 0.65e-3
MIN_PASSES = 3
PERCENTILES = (50, 70, 75, 80, 90, 95, 99, 99.9)


def import_cli():
    """Import addingmachine afresh, so each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "addingmachine" or n.startswith("addingmachine.")]:
        del sys.modules[name]
    return importlib.import_module("addingmachine.cli")


def run_op(cli, op):
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - t0


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = self.known = self.unexpected = 0
        self.messages = []

    def record(self, op, rc, out) -> None:
        self.attempted += 1
        problems = op.check(out, rc) if isinstance(rc, int) else [("unexpected", rc)]
        if not problems:
            return
        self.failed += 1
        if all(kind == workloads.KNOWN_DEFECT for kind, _ in problems):
            self.known += 1
        else:
            self.unexpected += 1
        if len(self.messages) < 5:
            self.messages.append(f"{' '.join(op.argv)}: {problems[0][0]}: {problems[0][1]}")


def reference_seconds() -> float:
    """Seconds per round of a fixed pure-Python loop, collector off.

    Run before and after every timed op, it measures how fast the host
    runs the interpreter at that moment, independently of the program and
    its heap.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REFERENCE_ROUNDS):
            seen = set()
            for i in range(300):
                seen.add(tuple((i * x + 7) % 31 for x in range(24)))
        return (time.perf_counter() - t0) / REFERENCE_ROUNDS
    finally:
        gc.enable()


def run_pass(cli, deck, workdir, tally=None, tracer=None, refs=None):
    """One pass over the deck; returns its output digest and op times.

    Only a pass given a tally has its ops checked and counted. Every pass
    of a run must print the same digest, so later passes repeat the
    checked one exactly, and `attempted` and `failed` depend on the seed
    alone, not on how many passes fit in the run. Given a list `refs`,
    the pass appends one reference time before its first op and one
    after each op.
    """
    digest = hashlib.sha256()
    times = []
    if refs is not None:
        refs.append(reference_seconds())
    for i, op in enumerate(deck):
        if tracer is not None:
            tracer.op_id = i
        rc, out, seconds = run_op(cli, op)
        times.append(seconds)
        if refs is not None:
            refs.append(reference_seconds())
        if tally is not None:
            tally.record(op, rc, out)
        digest.update(f"{rc}\n{out}".replace(str(workdir), "<work>").encode())
    return digest.hexdigest(), times


def nearest_rank(ordered, p: float):
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int):
    """The highest listed percentile with at least ten samples beyond it."""
    fit = [p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= 10]
    return fit[-1] if fit else 100


def setup(workload, seed: int, workdir: Path):
    """Import, generate and write the inputs, and run one warm-up op.

    Repeated SETUP_REPEATS times; returns each set-up's time with the
    reference time measured right after it, the CLI and the deck.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = import_cli()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        deck = workload.build(seed, workdir)
        run_op(cli, deck[0])
        samples.append((time.perf_counter() - t0, reference_seconds()))
    return samples, cli, deck


def end_to_end(cli, deck, seconds, workdir, tally, setup_samples):
    """At least MIN_PASSES passes, and more until `seconds` have passed.

    The host lends this process a share of a core that changes from one
    moment to the next: within one run the median round of the reference
    loop is up to 1.7 times its best round, and averages of raw op times
    move by a fifth from run to run. So every op time is divided by the
    mean of the reference times right before and after it, and each op's
    cost is the median of these ratios over the run's passes. Costs and
    set-up time are reported at a fixed reference speed, one reference
    round per REFERENCE_ROUND_S; the raw figures are printed as notes.
    """
    digests, ratios, refs, passes = set(), [[] for _ in deck], [], 0
    t0 = time.perf_counter()
    while True:
        pass_refs = []
        digest, times = run_pass(cli, deck, workdir, None if digests else tally,
                                 refs=pass_refs)
        digests.add(digest)
        for column, t, before, after in zip(ratios, times, pass_refs, pass_refs[1:]):
            column.append(2 * t / (before + after))
        refs += pass_refs
        passes += 1
        if passes >= MIN_PASSES and time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    cost = sorted(statistics.median(column) * REFERENCE_ROUND_S for column in ratios)
    p = tail_percentile(len(deck))
    metrics = {
        "setup_s": (statistics.median(t / r for t, r in setup_samples) * REFERENCE_ROUND_S, "s"),
        "ops_per_s": (len(deck) / sum(cost), "ops/s"),
        "op_p50_ms": (nearest_rank(cost, 50) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(cost, p) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [f"passes: {passes} of {len(deck)} ops in {wall:.3f} s, reference rounds"
             f" best {min(refs) * 1e3:.4f} ms, median {statistics.median(refs) * 1e3:.4f} ms",
             f"unscaled: {passes * len(deck) / wall:.4f} ops/s over all passes with"
             f" the reference loop, set-up median"
             f" {statistics.median(t for t, _ in setup_samples):.4f} s",
             f"op_tail_ms: p{p} of {len(deck)} op costs, each the median over {passes} passes"]
    return metrics, digests, notes


def per_layer(cli, deck, seconds, workdir, tally, workload_name, spans_path):
    """Alternate untraced and traced passes; report per-layer figures."""
    tracer = layers.Tracer()
    digests, plain_walls, traced_walls, self_times = set(), [], [], []
    counts, counts_stable, rung_times = None, True, {}
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        digest, times = run_pass(cli, deck, workdir, None if digests else tally)
        plain_walls.append(time.perf_counter() - t)
        digests.add(digest)
        for op, seconds_ in zip(deck, times):
            rung_times.setdefault(op.rung, []).append(seconds_)
        first = len(tracer.name)
        tracer.install()
        try:
            t = time.perf_counter()
            digest, _ = run_pass(cli, deck, workdir, tracer=tracer)
            traced_walls.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        digests.add(digest)
        calls, self_s, counters = tracer.take(first)
        self_times.append(self_s)
        if counts is None:
            counts = (calls, counters)
        else:  # later passes repeat the first; keep its spans only
            tracer.drop(first)
        counts_stable = counts_stable and counts == (calls, counters)
        if time.perf_counter() - t0 >= seconds:
            break
    tracer.write(spans_path)
    calls, counters = counts
    metrics = {}
    for name in layers.NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(s[name] for s in self_times), "s")
    for name, value in counters.items():
        metrics[name] = (value, "bits" if name == layers.MAX_BITS else "count")
    for rung, times in sorted(rung_times.items()):
        metrics[f"cli.main.p50_ms.rung{rung}"] = (statistics.median(times) * 1e3, "ms")
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics["trace_overhead"] = (overhead, "ratio")
    missing = sorted(n for n in layers.ACTIVE[workload_name] if not calls[n])
    notes = [f"passes: {len(traced_walls)} untraced + {len(traced_walls)} traced of {len(deck)} ops",
             f"trace_overhead: traced pass {statistics.median(traced_walls):.3f} s"
             f" / untraced pass {statistics.median(plain_walls):.3f} s",
             f"spans: {len(tracer.name)} of the first traced pass written to {spans_path}"]
    problems = []
    if missing:
        problems.append("coverage: no calls recorded for " + ", ".join(missing))
    if not counts_stable:
        problems.append("layer counts differ between traced passes")
    return metrics, digests, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "addingmachine" / "cli.py").is_file():
        print(f"error: no addingmachine package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = workloads.WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        setup_samples, cli, deck = setup(workload, args.seed, workdir)
        if args.trace:
            spans = work / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, digests, notes, problems = per_layer(
                cli, deck, args.seconds, workdir, tally, args.workload, spans)
        else:
            metrics, digests, notes = end_to_end(
                cli, deck, args.seconds, workdir, tally, setup_samples)
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(digests) != 1:
        problems.append("output digest differs between passes")

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for line in notes:
        print(line)
    print(f"fail_ratio: {tally.failed}/{tally.attempted}"
          f" = {tally.failed / tally.attempted:.4f}"
          f" (known defect {tally.known}, unexpected {tally.unexpected})")
    for message in tally.messages:
        print(f"failure: {message}")
    for problem in problems:
        print(f"problem: {problem}")
    print("digest: sha256:" + " ".join(sorted(digests)))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": tally.unexpected == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
