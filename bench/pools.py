"""Operation pools of the three workloads.

A pool is a list of Op.  `bind(mods)` turns an Op into a zero-argument
callable once tautorder is imported (`mods` maps a module's short name to the
module); functions are looked up on every call, so the traced run sees the
wrapped versions.  `check(output, ref)` raises checks.CheckError on a wrong
output.  A few cheap operations take parameters drawn from the seed; the
costly ones are fixed, so the seed moves the mix's cost by well under 1%, and
the seeded ones stay well below each pool's median operation, so the seed
does not move which operation the median lands on.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

import checks
import oracle


@dataclass(frozen=True)
class Op:
    label: str
    bind: Callable
    check: Callable


def _lib(module: str, name: str, args: tuple, check: Callable, prepare: Callable = None, label: str = None) -> Op:
    """The call mods[module].name(*args).  `prepare(mods)` builds leading
    arguments that are program objects, once and outside the timing."""

    def bind(mods):
        mod = mods[module]
        full = (*prepare(mods), *args) if prepare else args
        return lambda: getattr(mod, name)(*full)

    return Op(label or f"{name}({', '.join(map(str, args))})", bind, check)


# -- cli-cold ----------------------------------------------------------------

FORMATS = ("text", "json", "csv")

# (suite, --max-g or None); formats cycle over the list
VERIFY_SUITES = [
    ("chern-lemma", 6),
    ("borel-serre", None),
    ("newton", None),
    ("fundamental-relations", None),
    ("product-lemma", None),
    ("denominator", None),
    ("integrality", None),
    ("grr-chain", None),
    ("cyclotomic", None),
    ("symplectic", None),
    ("von-staudt", None),
    ("oracle-agreement", None),
]

# exits 1 with one stderr line
ERROR_INPUTS = [["ng", "0"], ["hurwitz", "2", "2"], ["bernoulli", "-1"]]

# a Python 4300-digit str() limit inside cli._payload turns this into a traceback
KNOWN_FAULT = ["sp-order", "50", "1000003"]

_SMALL_PRIMES = [p for p in range(2, 100) if oracle.is_prime(p)]


@dataclass(frozen=True)
class CliOp:
    argv: tuple  # arguments after `python -m tautorder.cli`, --format included
    kind: str  # "value", "verify" or "error"
    detail: tuple = ()  # (suite, max_g) of a verify call


def _expected_cli(argv: list, ref: checks.Reference) -> dict:
    """The flat result a correct CLI prints for `argv` (no --format)."""
    cmd, nums = argv[0], [int(a) for a in argv[1:] if a.lstrip("-").isdigit()]
    s = str
    if cmd == "ng":
        g = nums[0]
        n = ref.ng(g)
        if "--oracle" in argv:
            return {"route": "oracle", "g": s(g), "value": s(n), "prime_count": "100", "stabilization_window": "50"}
        out = {"route": "local", "g": s(g), "value": s(n)}
        out.update({f"factors.{p}": s(e) for p, e in oracle.factor(n).items()})
        return out
    if cmd == "bernoulli":
        return {"m": s(nums[0]), "value": checks.frac_text(ref.bernoulli(nums[0]))}
    if cmd == "zeta":
        return {"g": s(nums[0]), "value": checks.frac_text(oracle.zeta_neg(nums[0], ref.bern))}
    if cmd == "prop":
        v = oracle.proportionality(nums[0], ref.bern)
        return {"g": s(nums[0]), "signed_value": checks.frac_text(v), "absolute_value": checks.frac_text(abs(v)),
                "denominator": s(abs(v).denominator)}
    if cmd == "bounds":
        g = nums[0]
        out = {"g": s(g), "n_g": s(ref.ng(g)), "lower_bound_lambda": s(ref.ng(g) // 2),
               "scheme_upper_bound": s(factorial(g - 1) * ref.ng(g)),
               "stack_upper_bound": s(factorial(g - 1) * ref.ng_product(g))}
        out.update({f"r_orders.{i}": s(ref.ng(i) // 2) for i in range(1, g + 1)})
        return out
    if cmd == "sp-order":
        g, n = nums
        order, local = oracle.sp_order(g, oracle.factor(n))
        out = {"g": s(g), "n": s(n), "order": s(order)}
        out.update({f"local_factors.{p}": s(v) for p, v in local.items()})
        return out
    if cmd == "degree":
        g, n = nums
        degree = oracle.sp_order(g, oracle.factor(n))[0] * abs(oracle.proportionality(g, ref.bern))
        return {"g": s(g), "n": s(n), "degree": checks.frac_text(degree),
                "integral": "true" if degree.denominator == 1 else "false"}
    if cmd == "koblitz":
        g, p = nums
        return {"g": s(g), "p": s(p), "value": s(oracle.koblitz(g, p))}
    if cmd == "boundary":
        g = nums[0]
        return {"g": s(g), "value": checks.frac_text(Fraction((-1) ** g) / oracle.zeta_neg(g, ref.bern))}
    if cmd == "hurwitz":
        l, k = nums
        return {"l": s(l), "k": s(k), "genus": s(oracle.hurwitz_genus(l, k))}
    raise ValueError(f"no reference for {cmd}")


def check_cli(op: CliOp, proc, ref: checks.Reference) -> None:
    fmt = op.argv[op.argv.index("--format") + 1]
    argv = list(op.argv[: op.argv.index("--format")])
    if op.kind == "error":
        checks.check_cli_error(proc)
    elif op.kind == "verify":
        checks.check_cli_verify(argv, fmt, proc, op.detail[0], op.detail[1])
    else:
        checks.check_cli_value(argv, fmt, proc, _expected_cli(argv, ref))


def cli_pool(seed: int) -> list[CliOp]:
    rng = random.Random(seed * 7919 + 1)
    value_cmds = [
        ["ng", "1"], ["ng", "6"], ["ng", "12"], ["ng", str(rng.randint(2, 11))],
        ["ng", "2", "--oracle"], ["ng", "8", "--oracle"], ["ng", "12", "--oracle"],
        ["ng", str(rng.randint(3, 11)), "--oracle"],
        ["bernoulli", "12"], ["bernoulli", "120"], ["bernoulli", "250"], ["bernoulli", str(2 * rng.randint(5, 30))],
        ["zeta", "3"], ["zeta", "60"], ["zeta", "125"],
        ["prop", "2"], ["prop", "8"], ["prop", "30"],
        ["bounds", "3"], ["bounds", "60"], ["bounds", "300"],
        ["sp-order", "2", "3"], ["sp-order", "3", str(_seeded_squarefree(rng, 3))], ["sp-order", "4", "1000"],
        ["degree", "2", "3"], ["degree", "3", "5"], ["degree", "5", str(rng.randint(3, 12))],
        ["koblitz", "3", "3"], ["koblitz", "5", str(rng.choice(_SMALL_PRIMES))], ["koblitz", "12", "101"],
        ["boundary", "1"], ["boundary", "6"], ["boundary", "12"],
        ["hurwitz", "3", "2"], ["hurwitz", "5", "1"], ["hurwitz", "2", str(rng.randint(3, 8))],
    ]
    ops = [CliOp((*a, "--format", FORMATS[i % 3]), "value") for i, a in enumerate(value_cmds)]
    for i, (suite, max_g) in enumerate(VERIFY_SUITES):
        argv = ("verify", suite) + (("--max-g", str(max_g)) if max_g else ())
        ops.append(CliOp((*argv, "--format", FORMATS[i % 3]), "verify", (suite, max_g)))
    ops += [CliOp((*a, "--format", FORMATS[i % 3]), "error") for i, a in enumerate(ERROR_INPUTS)]
    ops.append(CliOp((*KNOWN_FAULT, "--format", "text"), "value"))
    return ops


def _seeded_squarefree(rng: random.Random, count: int) -> int:
    out = 1
    for p in rng.sample(_SMALL_PRIMES[:10], count):
        out *= p
    return out


# -- class-ring --------------------------------------------------------------


def _power_sum_input(g: int, k: int):
    """sum_i x_i^k in the program's root ring, truncated at degree k."""

    def prepare(mods):
        gp = mods["chern_symbolics"].GradedPolynomial
        names = tuple(f"x{i}" for i in range(1, g + 1))
        terms = {tuple(k if j == i else 0 for j in range(g)): 1 for i in range(g)}
        return (gp(names, (1,) * g, k, terms),)

    return prepare


def _chern_character_input(g: int, depth: int):
    return lambda mods: (mods["chern_symbolics"].chern_character(g, depth),)


def class_ring_pool(seed: int) -> list[Op]:
    rng = random.Random(seed * 7919 + 2)
    chern = "chern_symbolics"
    ops = []
    for g, depth in [(4, 4), (5, 5), (6, 6), (7, 7), (6, 8)]:
        ops.append(_lib(chern, "lambda_star_class", (g, depth),
                        lambda out, ref, g=g: checks.check_lambda_star(out, g)))
    for g in range(1, 7):
        ops.append(_lib(chern, "borel_serre_check", (g, 2 * g), lambda out, ref: checks.check_true(out, "borel_serre")))
    for g, d in [(4, 8), (6, 6), (5, 5), (rng.randint(2, 3), rng.randint(3, 5))]:
        ops.append(_lib(chern, "todd_class", (g, d), lambda out, ref, g=g, d=d: checks.check_todd(out, g, d, ref)))
    for g, d in [(4, 8), (6, 6)]:
        want = oracle.chern_character_in_classes(g, d)
        ops.append(_lib(chern, "symmetric_reduce", (),
                        lambda out, ref, w=want: checks.check_symmetric_reduce(out, w, "ch"),
                        prepare=_chern_character_input(g, d), label=f"symmetric_reduce(ch({g}, {d}))"))
    for g, k in [(6, 6), (4, 8), (3, 7), (5, rng.randint(3, 5))]:
        want = oracle.newton_power_sums(g, k)[k]
        ops.append(_lib(chern, "symmetric_reduce", (),
                        lambda out, ref, w=want: checks.check_symmetric_reduce(out, w, "p"),
                        prepare=_power_sum_input(g, k), label=f"symmetric_reduce(p{k} in {g} roots)"))
    for g in (8, 6, rng.randint(3, 5)):
        ops.append(_lib(chern, "newton_special_case", (g,), lambda out, ref: checks.check_true(out, "newton")))
    for g in (6, rng.randint(2, 4)):
        ops.append(_lib(chern, "fundamental_relations", (g, 2 * g),
                        lambda out, ref, g=g: checks.check_fundamental(out, g, 2 * g)))
    for suite, max_g in [("chern-lemma", 6), ("borel-serre", 5), ("newton", 6), ("fundamental-relations", 6)]:
        ops.append(_lib("verify", "run_suite", (suite, max_g),
                        lambda out, ref, s=suite, m=max_g: checks.check_suite(out, s, m)))
    return ops


# -- arith-tables ------------------------------------------------------------


def _seeded_composite(rng: random.Random) -> tuple[int, dict]:
    """s * p * q with s squarefree over small primes and p < q primes just above 2e5.

    Trial division costs about p/2 steps, so every seed pays nearly the same."""
    big = [p for p in range(200_003, 202_000, 2) if oracle.is_prime(p)]
    p, q = sorted(rng.sample(big, 2))
    factors = {r: 1 for r in rng.sample(_SMALL_PRIMES[:8], 3)}
    factors.update({p: 1, q: 1})
    n = 1
    for r in factors:
        n *= r
    return n, factors


def arith_pool(seed: int) -> list[Op]:
    rng = random.Random(seed * 7919 + 3)
    torsion, groups, bern, fields = "torsion_orders", "group_orders", "bernoulli_zeta", "finite_field_checks"
    ops = []
    for g in (12, 100, 300, 600, 1000):
        ops.append(_lib(torsion, "torsion_report", (g,),
                        lambda out, ref, g=g: checks.check_torsion_report(out, g, ref)))
    for g in (1, 2, 4, 6, 9, 12):
        ops.append(_lib(torsion, "ng_local", (g,), lambda out, ref, g=g: checks.check_ng_local(out, g, ref)))
    for g in (1, 3, 6, 8, 11, 12):
        ops.append(_lib(torsion, "ng_oracle", (g,), lambda out, ref, g=g: checks.check_ng_value(out, g, ref)))
    for g in (8, 16, 30):
        ops.append(_lib(torsion, "product_identity_check", (g,),
                        lambda out, ref, g=g: checks.check_product_identity(out, g, ref)))
        ops.append(_lib(torsion, "denominator_corollary_check", (g,),
                        lambda out, ref, g=g: checks.check_denominator(out, g, ref)))
    for g, n in [(2, 3), (3, 5), (5, rng.randint(3, 12))]:
        ops.append(_lib(groups, "degree_integrality", (g, n),
                        lambda out, ref, g=g, n=n: checks.check_degree(out, g, n, oracle.factor(n), ref)))
    for g in (2, 3, 6):
        n, factors = _seeded_composite(rng)
        ops.append(_lib(groups, "sp_order", (g, n),
                        lambda out, ref, g=g, n=n, f=factors: checks.check_sp_order(out, g, n, f)))
    for m in (2 * rng.randint(50, 125), 1000):
        ops.append(_lib(bern, "von_staudt_denominator", (m,), lambda out, ref, m=m: checks.check_von_staudt(out, m)))
    for l, k in [(3, 1), (3, 2), (5, 1), (7, 1), (2, 3), (2, 4), (3, 3), (3, 4), (3, 5)]:
        ops.append(_lib(fields, "cyclotomic_chern_check", (l, k),
                        lambda out, ref, l=l, k=k: checks.check_cyclotomic(out, l, k)))
    for l, k in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        ops.append(_lib(fields, "symplectic_pairing_check", (l, k),
                        lambda out, ref, l=l, k=k: checks.check_pairing(out, l, k)))
    ops.append(_lib(bern, "bernoulli_table", (250,), lambda out, ref: checks.check_bernoulli_table(out, 250, ref)))
    lookups = [rng.randint(0, 250) for _ in range(64)]
    ops.append(Op("bernoulli x64 (seeded indices <= 250)", lambda mods: _lookups(mods[bern], lookups),
                  lambda out, ref: [checks.check_bernoulli(v, m, ref) for v, m in zip(out, lookups)]))
    for g in (10, 60, 125):
        ops.append(_lib(bern, "proportionality", (g,),
                        lambda out, ref, g=g: checks.check_proportionality(out, g, ref)))
    return ops


def _lookups(mod, indices: list):
    return lambda: [getattr(mod, "bernoulli")(m) for m in indices]


IN_PROCESS = {"class-ring": class_ring_pool, "arith-tables": arith_pool}
