"""Time one set-up of an in-process workload in a fresh interpreter.

    python -S bench/setup_probe.py WORKLOAD SEED

Set-up is importing the tautorder modules and running one warm-up round over
the workload's pool, in pool order, from empty caches.  Prints one JSON list:
for the import, for binding the operations, and for each warm-up operation in
pool order, the pair [seconds, speed probe in ms around it].  The import is
timed before any benchmark module is loaded, so the standard-library modules
tautorder needs are loaded by it, as in a user's process.  The worker scales
each part by its speed probe and reports the median of several set-ups (see
README.md).
"""
import importlib
import sys
import time

MODULES = ("exact_arith", "bernoulli_zeta", "torsion_orders", "group_orders",
           "chern_symbolics", "finite_field_checks", "verify")


def speed_probe_ms() -> float:
    """The machine's speed right now: the fastest of three runs of a fixed
    2000-update dict loop, about 0.5 ms when the machine is quiet."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        d = {}
        for i in range(2000):
            k = f"k{i}"
            d[k] = d.get(k, 0) + i
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best * 1000


def timed(fn) -> list:
    """[seconds, mean speed probe before and after] of one call of fn."""
    before = speed_probe_ms()
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    return [seconds, (before + speed_probe_ms()) / 2]


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    mods = {}
    parts = [timed(lambda: mods.update({name: importlib.import_module(f"tautorder.{name}") for name in MODULES}))]

    import json
    import pools

    pool = pools.IN_PROCESS[workload](seed)
    calls = []
    parts.append(timed(lambda: calls.extend(op.bind(mods) for op in pool)))
    for fn in calls:
        parts.append(timed(lambda: _quietly(fn)))
    print(json.dumps(parts))


def _quietly(fn) -> None:
    try:
        fn()
    except Exception:  # the worker's own warm-up round reports failures
        pass


if __name__ == "__main__":
    main()
