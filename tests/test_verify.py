"""Suite-level guards on verify.run_suite: no suite passes vacuously, and a
suite builds what its cases share once."""
from __future__ import annotations

import pytest

from tautorder import verify
from tautorder.chern_symbolics import GradedPolynomial
from tautorder.verify import SUITE_NAMES, run_suite


@pytest.mark.parametrize("max_g", [1, 2, 3, 4])
def test_no_suite_passes_vacuously(max_g: int) -> None:
    names = [r.name for r in run_suite("all", max_g)]
    assert len(names) == len(set(names))
    for suite in [s for s in SUITE_NAMES if s != "all"]:
        results = run_suite(suite, max_g)
        assert results, suite
        for r in results:
            anchor = suite == "oracle-agreement" and r.name.startswith("table-anchor ")
            assert r.name.startswith(f"{suite} ") or anchor, r.name


@pytest.mark.parametrize("suite, max_g", [("borel-serre", 9), ("chern-lemma", 40)])
def test_class_ring_suites_pass_past_their_default_bounds(suite: str, max_g: int) -> None:
    results = run_suite(suite, max_g)
    assert len(results) == max_g
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]


def test_chern_lemma_compares_with_literal_terms(monkeypatch) -> None:
    # an expected value built as a polynomial would pass through code the suite
    # checks, so both suites compare the results' terms with literal dicts
    def refuse(*args, **kwargs):
        raise AssertionError("GradedPolynomial built to compare with")

    monkeypatch.setattr(GradedPolynomial, "__init__", refuse)
    for suite in ("chern-lemma", "fundamental-relations"):
        results = run_suite(suite, 8)
        assert len(results) == 8 and all(r.ok for r in results), suite


@pytest.mark.parametrize("max_g, top", [(None, 60), (3, 6)])
def test_von_staudt_runs_the_recurrence_once(max_g, top: int, monkeypatch) -> None:
    # the recurrence costs O(top^2); one run serves every case of the suite
    calls = []
    original = verify._log_derivative_scaled
    monkeypatch.setattr(verify, "_log_derivative_scaled", lambda t: calls.append(t) or original(t))
    results = run_suite("von-staudt", max_g)
    assert calls == [top] and len(results) == top // 2 and all(r.ok for r in results)
