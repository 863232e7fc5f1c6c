"""Regenerate the golden corpus: cases.json (CLI runs) and pins.json
(library results of the five solve routes).

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Every CLI case runs through cli.main in process with inputs/ as the
working directory, and records the exit code and the exact stdout and
stderr.  Every pin records one gromov_distance result exactly: floats by
repr, Fractions as p/q.  test_golden.py replays both files and compares
them character for character, so a refactor that must not move a value
is checked by leaving the corpus as it is.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
CASES_FILE = HERE / "cases.json"
PINS_FILE = HERE / "pins.json"

MODES = ("float", "rational")

# (first, second, extra flags) for `dist`, each run in both modes
DIST = [
    ("unit_a.nwk", "unit_b.nwk", ["--norm", "all", "--variant", "both"]),
    ("unit_a.nwk", "unit_b.nwk", ["--csv"]),
    ("unit_a.nwk", "unit_b.nwk", ["--bounded"]),
    ("unit_a.nwk", "unit_b.nwk", ["--norm", "1", "--variant", "lower"]),
    ("dec_a.nwk", "dec_b.nwk", ["--norm", "all", "--variant", "both"]),
    ("dec_a.nwk", "dec_b.nwk", ["--csv", "--bounded"]),
    ("mix_a.nwk", "mix_b.nwk", ["--norm", "all", "--variant", "both"]),
    ("mix_a.nwk", "mix_b.nwk", ["--csv"]),
    ("mix_a.nwk", "mix_b.nwk", ["--bounded", "--norm", "2"]),
    ("dec_a.nwk", "dec_a.nwk", ["--csv"]),
    ("mix_a.nwk", "dec_b.nwk", ["--norm", "inf", "--variant", "full"]),
    ("((a,b),(c,d));", "((a,c),(b,d));", ["--csv"]),
    ("t1.csv", "t2.csv", ["--norm", "all", "--variant", "both"]),
    ("t1.csv", "t2.csv", ["--csv", "--bounded"]),
    ("square.csv", "square2.csv", ["--csv"]),
    # hostile inputs
    ("deep.nwk", "deep.nwk", []),
    ("deep.nwk", "((a:2,c),b);", ["--csv"]),
    ("unit_a.nwk", "other_taxa.nwk", []),
    ("unit_a.nwk", "missing.nwk", []),
    ("nan.csv", "t2.csv", []),
    ("nan.nwk", "unit_a.nwk", []),
    ("t1.csv", "unit_a.nwk", []),
    ("triangle.csv", "triangle.csv", []),
    ("((a:1/0,b),c);", "((a,b),c);", []),
    ("((a,b),(c,d);", "((a,c),(b,d));", []),
    ("inf.csv", "t2.csv", []),
    # malformed Newick: structural faults first, then labels and lengths
    # in depth-first order
    ("( ,b);", "((a,b),c);", []),
    ("(a,b:);", "((a,b),c);", []),
    ("(a, b) ;x", "((a,b),c);", []),
    ("((a,b)a,c);", "((a,b),c);", []),
    ("(a,(b,c)d:1,(e,f)d:-1);", "((a,b),c);", []),
    ("(a:x,a);", "((a,b),c);", []),
    # a length on the root alone ends the topology-only reading
    ("((a,b),(c,d)):1;", "((a,b),(c,d));", ["--csv"]),
]

MATRIX = [
    ["--norm", "1"],
    ["--norm", "2"],
    ["--norm", "inf"],
    ["--norm", "1", "--variant", "lower", "--bounded"],
]

EXPERIMENT = [
    ["compare", "--n", "6", "--trials", "2", "--seed", "3"],
    ["compare", "--n", "5", "--trials", "2", "--seed", "1", "--weights", "uniform01"],
    ["caterpillar", "--n", "5", "--trials", "2", "--seed", "2"],
    ["caterpillar", "--n", "6", "--trials", "1", "--seed", "4"],
    ["parallelogram", "--n", "6", "--trials", "2", "--seed", "5"],
]

VALIDATE = [
    "unit_a.nwk",
    "mix_a.nwk",
    "t1.csv",
    "asym.csv",
    "diag.csv",
    "neg.csv",
    "triangle.csv",
    "square.csv",
    "asym_tiny.csv",
    "tiny_triangle.csv",
    "nan.csv",
    "nan.nwk",
    "deep.nwk",
    "missing.csv",
]


def case_argvs():
    out = []
    for mode in MODES:
        for a, b, flags in DIST:
            out.append(["dist", a, b, *flags, "--mode", mode])
        for flags in MATRIX:
            out.append(["matrix", "trees.nwk", *flags, "--mode", mode])
        for flags in EXPERIMENT:
            out.append(["experiment", *flags, "--mode", mode])
        for path in VALIDATE:
            out.append(["validate", path, "--mode", mode])
    return out


def run_case(argv):
    """(exit code, stdout, stderr) of cli.main(argv) run in inputs/."""
    from treegromov.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# library pins

PIN_PAIRS = {
    "unit-nni": ("unit_a.nwk", "unit_b.nwk"),
    "mixed": ("mix_a.nwk", "mix_b.nwk"),
    "decimal-nni": ("dec_a.nwk", "dec_b.nwk"),
    "equal": ("dec_a.nwk", "dec_a.nwk"),
}

# mixed denominators; float routes use the nearest floats
WEIGHTS = (Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 4), 3, Fraction(1, 7))

# route name: (mode, norm, weighted)
ROUTES = {
    "d1-unit-float": ("float", 1, False),
    "d1-unit-rational": ("rational", 1, False),
    "d1-weighted-float": ("float", 1, True),
    "d1-weighted-rational": ("rational", 1, True),
    "d2-unit": ("float", 2, False),
    "d2-weighted": ("float", 2, True),
}


def _show(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def pin(route, pair):
    """The exact record of one gromov_distance result."""
    from treegromov import GromovSpec, gromov_distance, parse_newick, tree_to_semimetric

    mode, norm, weighted = ROUTES[route]
    metrics = [
        tree_to_semimetric(parse_newick((INPUTS / name).read_text().strip(), mode=mode))
        for name in PIN_PAIRS[pair]
    ]
    weights = None
    if weighted:
        weights = WEIGHTS if mode == "rational" else tuple(float(w) for w in WEIGHTS)
    res = gromov_distance(*metrics, GromovSpec(norm=norm, taxon_weights=weights))
    cert = res.certificate
    key = "dual" if norm == 1 else "multipliers"
    record = {
        "method": res.method,
        "iterations": res.iterations,
        "value": _show(res.value),
        "argmin": [_show(v) for v in res.argmin.values],
        key: [_show(v) for v in cert[key]],
    }
    if norm == 1:
        record["duality_gap"] = _show(cert["duality_gap"])
    else:
        record["raw_objective"] = _show(cert["raw_objective"])
        record["kkt_residual"] = _show(res.kkt_residual)
    return record


def all_pins():
    return {f"{route}/{pair}": pin(route, pair) for route in ROUTES for pair in PIN_PAIRS}


def main():
    cases = []
    for argv in case_argvs():
        code, out, err = run_case(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    CASES_FILE.write_text(json.dumps(cases, indent=1) + "\n")
    PINS_FILE.write_text(json.dumps(all_pins(), indent=1) + "\n")
    print(f"{len(cases)} cases, {len(ROUTES) * len(PIN_PAIRS)} pins")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    main()
