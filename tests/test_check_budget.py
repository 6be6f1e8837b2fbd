"""``benchmarks/check_budget.py``: every gated field must be present.

The script runs without ``src/`` on the path, so it is loaded from its
file.  A fresh smoke run that lacks a gated field must fail the check,
whether the field is a budgeted wall, a must-be-zero fallback count or
a speedup floor.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_budget.py"
_SPEC = importlib.util.spec_from_file_location("check_budget", _PATH)
check_budget = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_budget)


def _put(payload: dict, dotted: str, value) -> None:
    node = payload
    *parents, leaf = dotted.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value


def _drop(payload: dict, dotted: str) -> None:
    node = payload
    *parents, leaf = dotted.split(".")
    for part in parents:
        node = node[part]
    del node[leaf]


def _passing_run() -> dict:
    run: dict = {}
    for field in (check_budget.TRACKED_FIELDS
                  + tuple(check_budget.TIGHT_FACTOR_FIELDS)):
        _put(run, field, 1.0)
    for field in check_budget.ZERO_FALLBACK_FIELDS:
        _put(run, field, 0)
    for field, floor in check_budget.SPEEDUP_FLOOR_FIELDS.items():
        _put(run, field, floor + 1.0)
    return run


def test_complete_run_passes():
    run = _passing_run()
    assert check_budget.check(run, copy.deepcopy(run), 2.0) == []


@pytest.mark.parametrize("field", (
    check_budget.TRACKED_FIELDS
    + tuple(check_budget.TIGHT_FACTOR_FIELDS)
    + check_budget.ZERO_FALLBACK_FIELDS
    + tuple(check_budget.SPEEDUP_FLOOR_FIELDS)))
def test_field_missing_from_fresh_run_fails(field):
    committed = _passing_run()
    fresh = copy.deepcopy(committed)
    _drop(fresh, field)
    failures = check_budget.check(committed, fresh, 2.0)
    assert failures == [f"{field}: missing from the fresh run"]


def test_gated_values_still_fail():
    committed = _passing_run()
    fresh = copy.deepcopy(committed)
    _put(fresh, check_budget.ZERO_FALLBACK_FIELDS[0], 3)
    _put(fresh, "kvstore_point.serving_speedup", 4.66)
    failures = check_budget.check(committed, fresh, 2.0)
    assert len(failures) == 2
    assert "interpreter fallbacks" in failures[0]
    assert "below the 5.0x floor" in failures[1]
