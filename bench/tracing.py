"""Spans and counters around tautorder's public functions, installed from
outside the package by rebinding module and class attributes.

A span is (op, id, parent, name, key, start_ns, end_ns): `op` is the
operation that caused it (spans of one operation share it), `parent` the
enclosing span's id or 0.  Spans stay in memory and are written out when the
run ends.  Functions called too often for a span each (is_prime) only count.
A name the package no longer defines is skipped, and its metrics read 0.
"""
from __future__ import annotations

import sys
import time
import tracemalloc

SPANS = {
    "cli": ["run"],
    "verify": ["run_suite"],
    "bernoulli_zeta": [
        "bernoulli", "bernoulli_table", "zeta_neg", "proportionality",
        "todd_inverse_series", "von_staudt_denominator",
    ],
    "exact_arith": ["primes_upto", "primes_above"],
    "torsion_orders": [
        "ng_local", "ng_oracle", "torsion_report", "product_identity_check",
        "product_identity_tail_is_trivial", "denominator_corollary_check",
        "boundary_coefficient", "grr_chain_check",
    ],
    "group_orders": ["sp_order", "degree_integrality", "koblitz_coefficient", "factorize"],
    "chern_symbolics": [
        "lambda_star_class", "borel_serre_check", "todd_class", "symmetric_reduce",
        "substitute_elementary", "chern_character", "newton_special_case",
        "fundamental_relations", "GradedPolynomial.__mul__", "GradedPolynomial.__rmul__",
        "GradedPolynomial.inverse",
    ],
    "finite_field_checks": [
        "cyclotomic_chern_check", "cyclotomic_chern_product", "symplectic_pairing_check",
        "hurwitz_genus", "CyclotomicElement.trace",
    ],
}
# counted only; the two private steps are watched for the term count of
# lambda_star_class's intermediate products
COUNTS = {
    "exact_arith": ["is_prime"],
    "chern_symbolics": ["GradedPolynomial._times_one_plus_sum", "GradedPolynomial._div_one_plus_sum"],
}
_SHORT = {"__mul__": "mul", "__rmul__": "mul"}

SUITES = [
    "chern-lemma", "borel-serre", "newton", "fundamental-relations", "product-lemma",
    "denominator", "integrality", "grr-chain", "cyclotomic", "symplectic", "von-staudt",
    "oracle-agreement",
]
LAMBDA_GS = range(1, 8)
PAIRING_RANKS = (2, 4, 6, 10, 12)


def _key(name: str, args: tuple):
    if name == "chern_symbolics.lambda_star_class":
        return f"g{args[0]}"
    if name == "verify.run_suite":
        return str(args[0])
    if name == "finite_field_checks.symplectic_pairing_check":
        l, k = args[0], args[1]
        return f"rank{l ** (k - 1) * (l - 1)}"
    return None


def _terms(result) -> int:
    if hasattr(result, "terms"):
        return len(result.terms)
    if hasattr(result, "output"):
        return max(len(result.output.terms), len(result.input.terms))
    if isinstance(result, list):
        return max((_terms(r) for r in result), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self.recording = True
        self.max_index = 0
        self.peak_terms = 0
        self.alloc_peak = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._chern_depth = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, chern: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(sid)
            measure_alloc = chern and tracer._chern_depth == 0 and tracemalloc.is_tracing()
            if chern:
                tracer._chern_depth += 1
            if measure_alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                if chern:
                    tracer._chern_depth -= 1
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    tracer.alloc_peak = max(tracer.alloc_peak, peak)
                if tracer.recording:
                    tracer.spans.append((tracer.op, sid, parent, name, _key(name, args), start, end))
                    tracer.counts[name] = tracer.counts.get(name, 0) + 1
            if chern:
                tracer.peak_terms = max(tracer.peak_terms, _terms(result))
            if name == "bernoulli_zeta.bernoulli" and args:
                tracer.max_index = max(tracer.max_index, args[0])
            return result

        return wrapper

    def _count(self, name: str, fn, chern: bool):
        counts = self.counts
        counts.setdefault(name, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if chern:
                tracer.peak_terms = max(tracer.peak_terms, len(result.terms))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed name that the loaded tautorder modules define."""
        loaded = [m for n, m in list(sys.modules.items()) if n == "tautorder" or n.startswith("tautorder.")]
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for layer, attrs in table.items():
                mod = sys.modules.get(f"tautorder.{layer}")
                if mod is None:
                    continue
                for attr in attrs:
                    owner_name, _, member = attr.rpartition(".")
                    name = f"{layer}.{_SHORT.get(member, member)}"
                    chern = layer == "chern_symbolics"
                    if owner_name:
                        owner = getattr(mod, owner_name, None)
                        original = vars(owner).get(member) if owner is not None else None
                        if original is not None:
                            setattr(owner, member, make(name, original, chern))
                        continue
                    original = getattr(mod, member, None)
                    if original is None:
                        continue
                    wrapped = make(name, original, chern)
                    for m in loaded:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, key, wrapped)

    def add_span(self, name: str, start: int, end: int) -> None:
        self.spans.append((self.op, self._next_id, 0, name, None, start, end))
        self._next_id += 1

    # -- child processes ---------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "max_index": self.max_index,
            "peak_terms": self.peak_terms,
            "alloc_peak": self.alloc_peak,
        }

    def merge(self, dump: dict) -> None:
        if self.recording:
            self.spans.extend(tuple(s) for s in dump["spans"])
            for name, n in dump["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + n
            self.max_index = max(self.max_index, dump["max_index"])
            self.peak_terms = max(self.peak_terms, dump["peak_terms"])
        self.alloc_peak = max(self.alloc_peak, dump["alloc_peak"])


# -- per-layer metrics -------------------------------------------------------


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in the order it is printed, with its unit."""
    ms, count = "ms", "count"
    out = [("cli.import_ms", ms), ("cli.run_self_ms", ms)]
    out += [(f"verify.run_suite_ms.{s}", ms) for s in SUITES]
    out += [
        ("bernoulli_zeta.bernoulli_ms", ms), ("bernoulli_zeta.bernoulli_calls", count),
        ("bernoulli_zeta.max_index", count),
        ("exact_arith.is_prime_calls", count), ("exact_arith.primes_upto_ms", ms),
        ("torsion_orders.torsion_report_ms", ms), ("torsion_orders.ng_local_calls", count),
        ("torsion_orders.ng_oracle_ms", ms),
        ("group_orders.sp_order_ms", ms), ("group_orders.factorize_calls", count),
    ]
    out += [(f"chern_symbolics.lambda_star_class_ms.g{g}", ms) for g in LAMBDA_GS]
    out += [
        ("chern_symbolics.symmetric_reduce_ms", ms), ("chern_symbolics.borel_serre_check_ms", ms),
        ("chern_symbolics.mul_calls", count), ("chern_symbolics.mul_ms", ms),
        ("chern_symbolics.inverse_calls", count),
        ("chern_symbolics.peak_terms", count), ("chern_symbolics.alloc_peak_kb", "KiB"),
    ]
    out += [(f"finite_field_checks.symplectic_pairing_check_ms.rank{r}", ms) for r in PAIRING_RANKS]
    out += [
        ("finite_field_checks.trace_calls", count), ("finite_field_checks.trace_ms", ms),
        ("finite_field_checks.cyclotomic_chern_check_ms", ms),
    ]
    return out


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-round totals: time inside the outermost span of each name (ms),
    calls (count); max_index, peak_terms and alloc_peak_kb are maxima."""
    by_id = {(s[0], s[1]): s for s in tracer.spans}
    total: dict = {}
    child_time: dict = {}
    for span in tracer.spans:
        op, _, parent, name, key, start, end = span
        dur = end - start
        if parent:
            pid = (op, parent)
            child_time[pid] = child_time.get(pid, 0) + dur
        ancestor = by_id.get((op, parent))
        nested = False
        while ancestor is not None:
            if ancestor[3] == name:
                nested = True
                break
            ancestor = by_id.get((op, ancestor[2]))
        if nested:
            continue
        total[name] = total.get(name, 0) + dur
        if key is not None:
            total[(name, key)] = total.get((name, key), 0) + dur
    run_self = sum(
        s[6] - s[5] - child_time.get((s[0], s[1]), 0) for s in tracer.spans if s[3] == "cli.run"
    )

    def ms(name, key=None) -> float:
        return total.get((name, key) if key else name, 0) / 1e6 / rounds

    def calls(name) -> float:
        return tracer.counts.get(name, 0) / rounds

    values = {
        "cli.import_ms": ms("cli.import"),
        "cli.run_self_ms": run_self / 1e6 / rounds,
        "bernoulli_zeta.bernoulli_ms": ms("bernoulli_zeta.bernoulli"),
        "bernoulli_zeta.bernoulli_calls": calls("bernoulli_zeta.bernoulli"),
        "bernoulli_zeta.max_index": tracer.max_index,
        "exact_arith.is_prime_calls": calls("exact_arith.is_prime"),
        "exact_arith.primes_upto_ms": ms("exact_arith.primes_upto"),
        "torsion_orders.torsion_report_ms": ms("torsion_orders.torsion_report"),
        "torsion_orders.ng_local_calls": calls("torsion_orders.ng_local"),
        "torsion_orders.ng_oracle_ms": ms("torsion_orders.ng_oracle"),
        "group_orders.sp_order_ms": ms("group_orders.sp_order"),
        "group_orders.factorize_calls": calls("group_orders.factorize"),
        "chern_symbolics.symmetric_reduce_ms": ms("chern_symbolics.symmetric_reduce"),
        "chern_symbolics.borel_serre_check_ms": ms("chern_symbolics.borel_serre_check"),
        "chern_symbolics.mul_calls": calls("chern_symbolics.mul"),
        "chern_symbolics.mul_ms": ms("chern_symbolics.mul"),
        "chern_symbolics.inverse_calls": calls("chern_symbolics.inverse"),
        "chern_symbolics.peak_terms": tracer.peak_terms,
        "chern_symbolics.alloc_peak_kb": tracer.alloc_peak / 1024,
        "finite_field_checks.trace_calls": calls("finite_field_checks.trace"),
        "finite_field_checks.trace_ms": ms("finite_field_checks.trace"),
        "finite_field_checks.cyclotomic_chern_check_ms": ms("finite_field_checks.cyclotomic_chern_check"),
    }
    for s in SUITES:
        values[f"verify.run_suite_ms.{s}"] = ms("verify.run_suite", s)
    for g in LAMBDA_GS:
        values[f"chern_symbolics.lambda_star_class_ms.g{g}"] = ms("chern_symbolics.lambda_star_class", f"g{g}")
    for r in PAIRING_RANKS:
        values[f"finite_field_checks.symplectic_pairing_check_ms.rank{r}"] = ms(
            "finite_field_checks.symplectic_pairing_check", f"rank{r}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
