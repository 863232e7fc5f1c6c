"""The names perfbench's layer tracer wraps must exist in the package.

perfbench/layers.py replaces package functions and classmethods by name to
record spans.  A rename in the package would otherwise only surface in a
traced benchmark run; here the tracer is installed on the package, an
unweighted and a weighted norm-1 distance in each mode and a D2 distance
run under it, and the originals must be back after uninstall.  Unweighted
norm 1 takes the assignment route, so the LP spans come from the weighted
calls (int weights, which rational mode solves exactly).
"""

from pathlib import Path

import treegromov
from treegromov import GromovSpec, parse_newick, solver, tree_to_semimetric

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EXPECTED_SPANS = {
    "solver.LinearProgram.from_sparse",
    "solver.QuadraticProgram.from_sparse",
    "solver.solve_lp.float",
    "solver.solve_lp.rational",
    "solver.solve_qp",
}


def _pair(mode):
    t1 = parse_newick("((a,b),(c,(d,e)));", mode=mode)
    t2 = parse_newick("((a,c),(b,(d,e)));", mode=mode)
    return tree_to_semimetric(t1), tree_to_semimetric(t2)


def test_layer_tracer_installs_and_records_solver_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    originals = {
        "lp": solver.LinearProgram.__dict__["from_sparse"],
        "qp": solver.QuadraticProgram.__dict__["from_sparse"],
        "solve_lp": treegromov.gromov.solve_lp,
        "solve_qp": treegromov.gromov.solve_qp,
        "root": treegromov.gromov_distance,
    }
    tracer = layers.Tracer(treegromov)
    tracer.install()
    try:
        assert treegromov.gromov.solve_lp is not originals["solve_lp"]
        for mode in ("float", "rational"):
            r1, r2 = _pair(mode)
            treegromov.gromov_distance(r1, r2, GromovSpec(norm=1))
            treegromov.gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=(1, 2, 1, 3, 1)))
        r1, r2 = _pair("float")
        treegromov.gromov_distance(r1, r2, GromovSpec(norm=2))
    finally:
        tracer.uninstall()
    spans = {name for name, *_ in tracer.spans}
    assert EXPECTED_SPANS <= spans, EXPECTED_SPANS - spans
    summary = tracer.summary()
    assert summary["solver.solve_lp.rational"]["calls"] == 1
    assert summary["solver.solve_lp.float"]["calls"] == 1
    # unweighted norm 1 in both modes and rational weighted norm 1 run the
    # transportation kernel; float weighted norm 1 runs the simplex
    assert tracer.counts["gromov.gromov_distance.route.assignment"] == 3
    assert tracer.counts["gromov.gromov_distance.route.dual"] == 1
    assert tracer.counts["solver.solve_qp.rows"] > 0
    assert solver.LinearProgram.__dict__["from_sparse"] is originals["lp"]
    assert solver.QuadraticProgram.__dict__["from_sparse"] is originals["qp"]
    assert treegromov.gromov.solve_lp is originals["solve_lp"]
    assert treegromov.gromov.solve_qp is originals["solve_qp"]
    assert treegromov.gromov_distance is originals["root"]
