"""Run the cross-model validation battery as part of the test suite."""

import pytest

from repro.validation import RELATIONS, ValidationResult, validate_all


def test_battery_on_int_benchmark():
    results = validate_all("gcc", length=3000)
    failures = [str(r) for r in results.values() if not r.passed]
    assert not failures, "\n".join(failures)


def test_battery_on_fp_benchmark():
    results = validate_all("milc", length=3000)
    failures = [str(r) for r in results.values() if not r.passed]
    assert not failures, "\n".join(failures)


def test_battery_on_pointer_chaser():
    results = validate_all("mcf", length=3000)
    failures = [str(r) for r in results.values() if not r.passed]
    assert not failures, "\n".join(failures)


def test_battery_covers_all_checks():
    results = validate_all("gcc", length=1500)
    assert list(results) == list(RELATIONS)
    assert len(results) == 9
    assert all(result.passed for result in results.values())


def test_result_rendering():
    passed = ValidationResult("x", True, "ok")
    failed = ValidationResult("y", False, "broken")
    assert "PASS" in str(passed)
    assert "FAIL" in str(failed)
