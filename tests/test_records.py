"""The frozen result records against the standard library's frozen dataclass.

`_Record` stands in for `@dataclass(frozen=True)` so that importing the package
does not load `dataclasses` (and with it `inspect`, `ast` and `dis`).  Here the
dataclass is the oracle: for every record class a frozen dataclass is built
from the same annotations, and the two must agree on field order, repr,
equality and hash.
"""
from __future__ import annotations

import ast
from dataclasses import fields, make_dataclass
from pathlib import Path

import pytest
from root_ring_oracle import elementary_symmetric, root_variables

from tautorder.bernoulli_zeta import bernoulli_table, proportionality
from tautorder.chern_symbolics import GradedPolynomial, chern_character, symmetric_reduce
from tautorder.exact_arith import PrimeLocalOrder, _Record
from tautorder.finite_field_checks import (
    ModPPolynomial,
    cyclotomic_chern_check,
    symplectic_pairing_check,
)
from tautorder.group_orders import degree_integrality, sp_order
from tautorder.torsion_orders import ng_local, product_identity_check, torsion_report
from tautorder.verify import run_suite

SRC = Path(__file__).resolve().parent.parent / "src" / "tautorder"

# one real result of each record class, named by the class
SAMPLES = {
    type(rec).__name__: rec
    for rec in (
        bernoulli_table(6),
        proportionality(3),
        symmetric_reduce(chern_character(2, 2)),
        PrimeLocalOrder(3, 2),
        cyclotomic_chern_check(3, 2),
        symplectic_pairing_check(5, 1),
        sp_order(2, 6),
        degree_integrality(2, 3),
        ng_local(6),
        product_identity_check(3),
        torsion_report(4),
        run_suite("newton", 2)[0],
    )
}


def _values(rec: _Record) -> list:
    return [getattr(rec, name) for name in rec._fields]


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a field holds a dict or a GradedPolynomial
        return type(exc)


def test_every_record_class_is_sampled() -> None:
    assert len(SAMPLES) == 12
    assert all(isinstance(rec, _Record) for rec in SAMPLES.values())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_agrees_with_a_frozen_dataclass(name: str) -> None:
    rec = SAMPLES[name]
    cls = type(rec)
    oracle = make_dataclass(name, list(cls.__annotations__.items()), frozen=True)
    assert cls._fields == tuple(f.name for f in fields(oracle))
    values = _values(rec)
    twin, ref, ref_twin = cls(*values), oracle(*values), oracle(*values)
    assert repr(rec) == repr(ref)
    assert (rec == twin, rec != twin) == (ref == ref_twin, ref != ref_twin) == (True, False)
    assert _hash_or_error(rec) == _hash_or_error(ref)
    if _hash_or_error(rec) is not TypeError:
        assert hash(rec) == hash(twin)
    other = [*values[:-1], values[-1] + 1 if type(values[-1]) is int else object()]
    assert rec != cls(*other) and ref != oracle(*other)
    assert rec != ref and ref != rec  # by exact class, as a dataclass compares
    assert rec != tuple(values)



def test_records_of_two_classes_differ_even_with_equal_fields() -> None:
    class Left(_Record):
        x: int

    class Right(_Record):
        x: int

    assert Left(1) == Left(1) and hash(Left(1)) == hash(Right(1))
    assert Left(1) != Right(1) and Right(1) != Left(1)
    left, right = (make_dataclass(n, [("x", int)], frozen=True) for n in ("Left", "Right"))
    assert left(1) != right(1)  # the dataclass rule the records follow

@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_builds_from_positionals_or_keywords_and_checks_arity(name: str) -> None:
    rec = SAMPLES[name]
    cls, names, values = type(rec), type(rec)._fields, _values(rec)
    by_name = dict(zip(names, values))
    assert cls(**by_name) == rec
    assert cls(**dict(reversed(by_name.items()))) == rec
    assert cls(values[0], **dict(list(by_name.items())[1:])) == rec
    with pytest.raises(TypeError):
        cls(*values[:-1])  # one missing
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one too many
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})  # given twice
    with pytest.raises(TypeError):
        cls(*values, not_a_field=0)
    with pytest.raises(TypeError):
        cls(**dict(list(by_name.items())[1:]))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_is_frozen(name: str) -> None:
    rec = SAMPLES[name]
    before = repr(rec)
    for attr in (rec._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, 0)
        with pytest.raises(AttributeError):
            delattr(rec, attr)
    assert repr(rec) == before


POLYNOMIALS = [root_variables(2, 3)[0] * 3 + 1, ModPPolynomial(5, [1, 2, 3])]


@pytest.mark.parametrize("poly", POLYNOMIALS, ids=lambda p: type(p).__name__)
def test_polynomial_is_an_immutable_record(poly) -> None:
    assert isinstance(poly, _Record) and not hasattr(poly, "__slots__")
    before = str(poly)
    for attr in (*type(poly)._fields, "not_a_field"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(poly, attr, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(poly, attr)
    assert str(poly) == before


def test_cached_polynomial_survives_a_refused_delete() -> None:
    # a homogeneous component shares its source's packed components
    source = elementary_symmetric(3, 2, 4)
    part = source.homogeneous_component(2)
    with pytest.raises(AttributeError):
        del part._comps
    assert part.render() == source.render() == "x1*x2 + x1*x3 + x2*x3"


def test_polynomial_hashing() -> None:
    assert hash(ModPPolynomial(5, [1, 2])) == hash((5, (1, 2)))
    assert hash(ModPPolynomial(5, [6, 7, 0])) == hash(ModPPolynomial(5, [1, 2]))
    assert GradedPolynomial.__hash__ is None
    with pytest.raises(TypeError):
        hash(elementary_symmetric(3, 2, 4))


def test_prime_local_order_still_validates() -> None:
    for prime, exponent in ((4, 1), (3, -1), (1, 0)):
        with pytest.raises(ValueError):
            PrimeLocalOrder(prime, exponent)
        with pytest.raises(ValueError):
            PrimeLocalOrder(prime=prime, exponent=exponent)
    assert PrimeLocalOrder(exponent=0, prime=2).value == 1


def test_raw_skips_validation_only(monkeypatch: pytest.MonkeyPatch) -> None:
    rec = PrimeLocalOrder._raw(3, 2)
    assert rec == PrimeLocalOrder(3, 2) and repr(rec) == repr(PrimeLocalOrder(3, 2))
    with pytest.raises(AttributeError, match="immutable"):
        setattr(rec, "prime", 5)

    # ng_local proves each of its primes with is_prime, so it builds the factors raw
    def refuse(*args, **kwargs):
        raise AssertionError("validating constructor called")

    monkeypatch.setattr(PrimeLocalOrder, "__init__", refuse)
    assert ng_local(12).value == 131040


def test_no_module_of_the_package_imports_dataclasses() -> None:
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name
