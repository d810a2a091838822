"""The built-in property suites and their failure reporting."""

import pytest

from specopt.errors import ConfigError
from specopt.verify import SUITE_NAMES, all_passed, format_table, run_suites


def test_all_suites_pass_at_defaults():
    results = run_suites(["all"], seed=0)
    assert len(results) == 9  # one per contract 01-06, vector-routing, one per task gradient
    assert all_passed(results)
    assert sorted({r.suite for r in results}) == sorted(SUITE_NAMES)


def test_single_suite_selection():
    results = run_suites(["oracle"], seed=0)
    assert len(results) == 2
    assert all(r.suite == "oracle" for r in results)


def test_selectors_deduplicate():
    results = run_suites(["oracle", "all", "oracle"], seed=0)
    assert len(results) == 9


def test_unknown_selector_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suites(["bogus"])


def test_starved_kernels_fail_loudly_instead_of_vacuously_passing():
    results = run_suites(["kernels"], seed=0, iters=1)
    assert not all_passed(results)
    failed = [r for r in results if not r.passed]
    assert failed and all(r.detail for r in failed)


def test_format_table_summarizes_counts():
    results = run_suites(["optimizers"], seed=0)
    table = format_table(results)
    assert "PASS" in table
    assert table.strip().endswith("2/2 checks passed")
    broken = run_suites(["kernels"], seed=0, iters=1)
    table = format_table(broken)
    assert "FAIL" in table
    assert "0/3 checks passed" in table


def test_suites_are_deterministic_per_seed():
    a = run_suites(["oracle", "kernels"], seed=3)
    b = run_suites(["oracle", "kernels"], seed=3)
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]
