"""One measured run, in a fresh interpreter whose environment run.py fixed.

    python -S bench/worker.py --workload W --seed N --seconds S --trace 0|1

Prints one JSON object on its last stdout line.  See README.md for what is
measured and why.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import checks
import pools
import tracing
from setup_probe import MODULES, speed_probe_ms, timed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")

# The machine's speed switches, within a second and for minutes at a time,
# between a quiet state and states up to twice as slow, and whole runs can
# fall in a slow one.  So every timed attempt is scaled to the machine's
# quiet speed by the speed probe taken just before and just after it: its
# seconds times PROBE_QUIET_MS over the probe's mean reading.  PROBE_QUIET_MS
# is the probe's reading on the quiet machine the benchmark was built on, so
# there the figures read as plain seconds.  Each operation's latency is the
# median of its scaled attempts in the run (one per round), and the metrics
# are computed over these per-operation latencies; see README.md for the
# spreads that led here.  The tail is the highest percentile that leaves an
# operation beyond it, and a run makes enough rounds for ten samples beyond it.
PROBE_QUIET_MS = 0.5
TAIL_PERCENTILE = {"cli-cold": 95, "class-ring": 95, "arith-tables": 98}
SAMPLES_BEYOND_TAIL = 10
SETUP_PROBES = 5
CLI_TIMEOUT_S = 60


def scaled(seconds: float, probe_ms: float) -> float:
    """Seconds at the machine's quiet speed."""
    return seconds * PROBE_QUIET_MS / probe_ms


def nearest_rank(sorted_values: list, p: float) -> float:
    return sorted_values[max(math.ceil(p / 100 * len(sorted_values)), 1) - 1]


class Run:
    """Closed loop, one client: whole rounds over a seeded permutation of the pool."""

    def __init__(self, args):
        self.args = args
        self.rng = random.Random(args.seed)
        self.samples: dict[str, list[float]] = {}  # label -> seconds of every attempt
        self.scaled: dict[str, list[float]] = {}  # label -> scaled seconds of every attempt
        self.succeeded: dict[str, list[float]] = {}  # label -> scaled seconds of successful attempts
        self.probes: list[float] = []  # ms, the speed probe around every attempt
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self.looped = 0.0  # seconds spent in timed rounds
        self.setups: list[float] = []  # scaled seconds of each whole set-up
        self.reported: set = set()

    def note(self, kind: str, label: str, message: str) -> None:
        if (kind, label) not in self.reported:
            self.reported.add((kind, label))
            print(f"bench: {kind}: {label}: {message}", file=sys.stderr)

    def record(self, label: str, seconds: float, probe_ms: float, outcome: "Exception | None") -> None:
        self.attempted += 1
        self.busy += seconds
        self.probes.append(probe_ms)
        self.samples.setdefault(label, []).append(seconds)
        self.scaled.setdefault(label, []).append(scaled(seconds, probe_ms))
        if outcome is None or isinstance(outcome, checks.CheckError):
            self.succeeded.setdefault(label, []).append(scaled(seconds, probe_ms))
        else:
            self.failed += 1
            self.note("failed", label, f"{type(outcome).__name__}: {outcome}")
        if isinstance(outcome, checks.CheckError):
            self.wrong += 1
            self.note("wrong", label, str(outcome))

    def min_rounds(self, size: int) -> int:
        """Rounds that put SAMPLES_BEYOND_TAIL samples beyond the tail percentile."""
        beyond = size - math.ceil(TAIL_PERCENTILE[self.args.workload] / 100 * size)
        if beyond < 1:
            raise ValueError(f"a pool of {size} leaves no operation beyond the tail percentile")
        return math.ceil(SAMPLES_BEYOND_TAIL / beyond)

    def loop(self, size: int, run_one, seconds: float, min_rounds: int) -> None:
        """Whole rounds until the run has spent `seconds` in timed rounds and
        done `min_rounds`, counting from the run's first round."""
        start = time.perf_counter() - self.looped
        while self.rounds < min_rounds or time.perf_counter() - start < seconds:
            for i in self.rng.sample(range(size), size):
                run_one(i)
            self.rounds += 1
        self.looped = time.perf_counter() - start

    def measure(self, size: int, run_one, set_up) -> None:
        """The timed rounds.  With tracing off, SETUP_PROBES calls of `set_up`
        (returning [seconds, speed probe] for each part of one set-up) are
        spread over the run between stretches of rounds."""
        min_rounds = self.min_rounds(size)
        if self.args.trace:
            self.loop(size, run_one, self.args.seconds, min_rounds)
            return
        for k in range(1, SETUP_PROBES + 1):
            self.setups.append(sum(scaled(seconds, probe_ms) for seconds, probe_ms in set_up()))
            self.loop(size, run_one, self.args.seconds * k / SETUP_PROBES, math.ceil(min_rounds * k / SETUP_PROBES))

    def metrics(self, peak_rss_kb: int) -> dict:
        """Throughput of a round made of each operation's median scaled attempt,
        counting only the completed share; latency percentiles over the
        operations' median scaled successful attempts, a never-successful
        operation counting as infinite."""
        typical = sorted(statistics.median(self.succeeded.get(label, [math.inf])) for label in self.samples)
        round_s = sum(statistics.median(v) for v in self.scaled.values())
        completed_share = (self.attempted - self.failed) / self.attempted
        return {
            "throughput_ops_per_s": {"value": completed_share * len(self.samples) / round_s, "unit": "1/s"},
            "op_p50_ms": {"value": nearest_rank(typical, 50) * 1000, "unit": "ms"},
            "op_tail_ms": {"value": nearest_rank(typical, TAIL_PERCENTILE[self.args.workload]) * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(self.setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
        }

    def summary(self, metrics: dict) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "info": {
                "rounds": self.rounds,
                "samples": self.attempted,
                "tail_percentile": TAIL_PERCENTILE[self.args.workload],
                "mean_throughput_ops_per_s": (self.attempted - self.failed) / self.busy,
                "round_s": self.busy / self.rounds,
                "op_median_ms": {k: statistics.median(v) * 1000 for k, v in self.samples.items()},
                "op_scaled_median_ms": {k: statistics.median(v) * 1000 for k, v in self.scaled.items()},
                "calibration_ms": statistics.median(self.probes),
                "calibration_quiet_share": sum(p < 1.2 * PROBE_QUIET_MS for p in self.probes) / len(self.probes),
                "setup_samples_s": self.setups,
            },
        }


def _run_checked(fn, check) -> "tuple[float, float, Exception | None]":
    """Seconds of one call of fn, the speed probe around it, and the failure
    or wrong output, if any."""
    before = speed_probe_ms()
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # the program failed this operation; count it
        seconds = time.perf_counter() - start
        return seconds, (before + speed_probe_ms()) / 2, exc
    seconds = time.perf_counter() - start
    probe_ms = (before + speed_probe_ms()) / 2
    try:
        check(out)
    except (checks.CheckError, checks.OpFailed) as exc:
        return seconds, probe_ms, exc
    return seconds, probe_ms, None


# -- in-process workloads ------------------------------------------------------


def set_up(pool: list) -> "tuple[list, list]":
    """Import tautorder and run the warm-up round over the pool.

    Returns the bound operations and the warm-up outputs (an exception where
    an operation raised)."""
    mods = {name: importlib.import_module(f"tautorder.{name}") for name in MODULES}
    calls = [op.bind(mods) for op in pool]
    warm = []
    for fn in calls:
        try:
            warm.append(fn())
        except Exception as exc:  # reported when the outputs are checked
            warm.append(exc)
    return calls, warm


def probe_setup(args) -> list:
    """[seconds, speed probe] of each part of one set-up in a fresh interpreter (setup_probe.py)."""
    proc = subprocess.run([sys.executable, "-S", os.path.join(BENCH, "setup_probe.py"), args.workload, str(args.seed)],
                          cwd=ROOT, check=True, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def in_process(args) -> dict:
    pool = pools.IN_PROCESS[args.workload](args.seed)
    calls, warm = set_up(pool)
    run = Run(args)
    ref = checks.Reference()
    for op, out in zip(pool, warm):
        if isinstance(out, Exception):
            run.note("failed", op.label, f"warm-up: {type(out).__name__}: {out}")
            continue
        try:
            op.check(out, ref)
        except checks.CheckError as exc:
            run.wrong += 1
            run.note("wrong", op.label, f"warm-up: {exc}")

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def run_one(i: int) -> None:
        if tracer:
            tracer.op += 1
        seconds, probe_ms, outcome = _run_checked(calls[i], lambda out: pool[i].check(out, ref))
        run.record(pool[i].label, seconds, probe_ms, outcome)

    run.measure(len(pool), run_one, lambda: probe_setup(args))

    def alloc_round() -> None:
        tracemalloc.start()
        for fn in calls:
            try:
                fn()
            except Exception:  # already counted in the timed rounds
                pass
        tracemalloc.stop()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return finish(args, run, tracer, peak_kb, alloc_round)


# -- cli-cold ----------------------------------------------------------------


def cli_cold(args) -> dict:
    pool = pools.cli_pool(args.seed)
    py = sys.executable
    sys.set_int_max_str_digits(0)  # reference values are compared as full decimal strings

    def cold_import() -> list:
        # captured like the operations' output: without pipes, a wait with a
        # timeout polls, and the poll's sleeps (up to 50 ms) would be timed too
        return [timed(lambda: subprocess.run([py, "-S", "-c", "import tautorder.cli"], cwd=ROOT, check=True,
                                             capture_output=True, timeout=CLI_TIMEOUT_S))]

    cold_import()  # writes the bytecode cache on a checkout's first run
    run = Run(args)
    ref = checks.Reference()
    tracer = tracing.Tracer() if args.trace else None
    span_file = os.path.join(OUT, f"spans-{os.getpid()}.json")

    def command(op: pools.CliOp, alloc: bool = False) -> list:
        if tracer:
            return [py, "-S", os.path.join(BENCH, "cli_trace.py"), span_file, str(tracer.op), "1" if alloc else "0",
                    *op.argv]
        return [py, "-S", "-m", "tautorder.cli", *op.argv]

    def invoke(op: pools.CliOp, alloc: bool = False):
        proc = subprocess.run(command(op, alloc), cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if tracer:
            with open(span_file) as fh:
                tracer.merge(json.load(fh))
            os.remove(span_file)
        return proc

    def run_one(i: int) -> None:
        if tracer:
            tracer.op += 1
        op = pool[i]
        seconds, probe_ms, outcome = _run_checked(lambda: invoke(op), lambda proc: pools.check_cli(op, proc, ref))
        run.record(" ".join(op.argv), seconds, probe_ms, outcome)

    def alloc_round() -> None:
        for op in pool:
            invoke(op, alloc=True)

    run.measure(len(pool), run_one, cold_import)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return finish(args, run, tracer, peak_kb, alloc_round)


def finish(args, run: Run, tracer: "tracing.Tracer | None", peak_kb: int, alloc_round) -> dict:
    """End-to-end metrics, or for a traced run the per-layer ones: those of the
    timed rounds, then the allocation peak from one more round under
    tracemalloc.  The spans are written out here."""
    if not tracer:
        return run.summary(run.metrics(peak_kb))
    layers = tracing.layer_metrics(tracer, run.rounds)
    tracer.recording = False
    alloc_round()
    layers["chern_symbolics.alloc_peak_kb"]["value"] = tracer.alloc_peak / 1024
    with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "rounds": run.rounds,
            "span_fields": ["op", "id", "parent", "name", "key", "start_ns", "end_ns"],
            "spans": tracer.spans,
            "counts": tracer.counts,
        }, fh)
    return run.summary(layers)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["cli-cold", *pools.IN_PROCESS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    os.makedirs(OUT, exist_ok=True)
    # One core for the worker and every process it starts, so that the speed
    # probe reads the core that runs the operation, CLI children included.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = cli_cold(args) if args.workload == "cli-cold" else in_process(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
