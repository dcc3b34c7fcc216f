"""Benchmark for tautorder: three workloads, each a closed loop with one client.

    python3 bench/run.py --workload cli-cold|class-ring|arith-tables \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The work happens in child interpreters
started with `-S` and an environment fixed here rather than inherited, so
that every run sees the same hash seed, module path and bytecode cache.  The
last stdout line is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics, or with --trace 1 the per-layer ones).
The same object, with the calibration figure and run details under `info`,
is written to .bench_out/.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cli-cold", "class-ring", "arith-tables")


def child_env() -> dict:
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), BENCH]),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": os.path.join(OUT, "pycache"),
        "LC_ALL": "C.UTF-8",
    }


def worker_timeout_s(seconds: float) -> float:
    """Room for a traced run, set-ups and the alloc round: about twice the timed seconds."""
    return 2 * seconds + 90


def worker(args) -> dict:
    cmd = [
        sys.executable, "-S", os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # a session of its own, so that a timeout also ends the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=worker_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"bench: worker for {args.workload} timed out after {worker_timeout_s(args.seconds)} s")
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: worker for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "tautorder", "cli.py")):
        print(f"bench: no tautorder sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    result = worker(args)
    info = result.pop("info")
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**result, "info": info}, fh, indent=1)
    print(
        f"bench: {args.workload} seed {args.seed}: {info['rounds']} rounds, {info['samples']} ops, "
        f"p{info['tail_percentile']} tail, speed probe {info['calibration_ms']:.2f} ms",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
