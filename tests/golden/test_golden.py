"""The golden corpus: every CLI case and every library pin must reproduce
exactly what regen.py recorded (see its docstring)."""

import json

import pytest

import regen

CASES = json.loads(regen.CASES_FILE.read_text())
PINS = json.loads(regen.PINS_FILE.read_text())


def test_corpus_lists_every_case_and_pin():
    assert [case["argv"] for case in CASES] == regen.case_argvs()
    assert sorted(PINS) == sorted(
        f"{route}/{pair}" for route in regen.ROUTES for pair in regen.PIN_PAIRS
    )


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_cli_case(case):
    code, out, err = regen.run_case(case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("key", sorted(PINS))
def test_library_pin(key):
    route, pair = key.split("/")
    assert regen.pin(route, pair) == PINS[key]
