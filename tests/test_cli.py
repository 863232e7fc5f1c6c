"""Command line interface: output shapes, exit codes, determinism."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest

from treegromov import (
    GromovSpec,
    gromov_distance,
    parse_newick,
    random_binary_tree,
    semimetric_to_csv,
    semimetric_from_table,
    tree_to_semimetric,
    write_newick,
)
from treegromov.cli import build_parser, main

Q1 = "((1,2),(3,4));"
Q2 = "((1,3),(2,4));"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# dist


def test_dist_human_line(capsys):
    code, out, err = run(capsys, ["dist", Q1, Q2])
    assert code == 0 and err == ""
    assert out.startswith("D1=2")
    fields = dict(part.split("=") for part in out.strip().split(", "))
    assert float(fields["D1"]) == pytest.approx(2.0)
    assert float(fields["D2"]) == pytest.approx(1.0)
    assert float(fields["Dinf"]) == pytest.approx(0.5)
    assert float(fields["Dt1"]) == pytest.approx(2.0)
    assert fields["RF"] == "2"
    assert set(fields) == {
        "D1", "D2", "Dinf", "Dt1", "Dt2", "Dtinf", "PD1", "PD2", "PDinf", "RF"
    }


def test_dist_csv_three_lines(capsys):
    code, out, _ = run(capsys, ["dist", Q1, Q2, "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "#schema=1"
    header = lines[1].split(",")
    values = lines[2].split(",")
    assert len(lines) == 3
    assert len(header) == len(values)
    cell = dict(zip(header, values))
    assert float(cell["Dinf"]) == pytest.approx(0.5)


def test_dist_single_norm_variant(capsys):
    code, out, _ = run(capsys, ["dist", Q1, Q2, "--norm", "1", "--variant", "full"])
    assert code == 0
    fields = dict(part.split("=") for part in out.strip().split(", "))
    assert set(fields) == {"D1", "PD1", "RF"}


def test_dist_rational_exact(capsys):
    code, out, _ = run(capsys, ["dist", Q1, Q2, "--mode", "rational", "--norm", "1"])
    assert code == 0
    fields = dict(part.split("=") for part in out.strip().split(", "))
    assert fields["D1"] == "2"
    assert fields["Dt1"] == "2"


def test_dist_rational_norm2_falls_back_to_float(capsys):
    code, out, _ = run(capsys, ["dist", Q1, Q2, "--mode", "rational", "--norm", "2"])
    assert code == 0
    fields = dict(part.split("=") for part in out.strip().split(", "))
    assert float(fields["D2"]) == pytest.approx(1.0)


def test_dist_csv_table_inputs(tmp_path, capsys):
    r1 = tree_to_semimetric(parse_newick(Q1))
    r2 = tree_to_semimetric(parse_newick(Q2))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    p1.write_text(semimetric_to_csv(r1))
    p2.write_text(semimetric_to_csv(r2))
    code, out, _ = run(capsys, ["dist", str(p1), str(p2)])
    assert code == 0
    # tables carry no topology, so no RF cell
    assert "RF" not in out
    fields = dict(part.split("=") for part in out.strip().split(", "))
    assert float(fields["D1"]) == pytest.approx(2.0)


def test_dist_matches_library(capsys):
    t1 = "((a:1.5,b:2):1,(c:0.5,d:3):2);"
    t2 = "((a:2,c:1):1,(b:1,d:1):1);"
    code, out, _ = run(capsys, ["dist", t1, t2, "--norm", "2", "--variant", "full"])
    assert code == 0
    fields = dict(part.split("=") for part in out.strip().split(", "))
    r1 = tree_to_semimetric(parse_newick(t1))
    r2 = tree_to_semimetric(parse_newick(t2))
    want = gromov_distance(r1, r2, GromovSpec(norm=2)).value
    assert float(fields["D2"]) == pytest.approx(want, abs=1e-12)


def test_dist_taxon_mismatch_is_validation_error(capsys):
    code, out, err = run(capsys, ["dist", Q1, "((1,2),(3,5));"])
    assert code == 3
    assert "validation error" in err


def test_dist_bad_newick_is_parse_error(capsys):
    code, _, err = run(capsys, ["dist", "((1,2),(3,4);", Q2])
    assert code == 2
    assert "parse error" in err


def test_dist_out_file(tmp_path, capsys):
    path = tmp_path / "result.txt"
    code, out, _ = run(capsys, ["dist", Q1, Q2, "--out", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("D1=2")


# ---------------------------------------------------------------------------
# matrix


def test_matrix_identical_trees(tmp_path, capsys):
    p = tmp_path / "trees.nwk"
    p.write_text(Q1 + "\n" + Q1 + "\n" + Q1 + "\n")
    code, out, _ = run(capsys, ["matrix", str(p), "--norm", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "#schema=1"
    assert lines[1] == "0,1,2"
    for row in lines[2:]:
        assert all(float(c) == 0.0 for c in row.split(","))


def test_matrix_symmetric(tmp_path, capsys):
    p = tmp_path / "trees.nwk"
    trees = [Q1, Q2, "((1,4),(2,3));"]
    p.write_text("\n".join(trees) + "\n")
    code, out, _ = run(capsys, ["matrix", str(p), "--norm", "1"])
    assert code == 0
    rows = [
        [float(c) for c in ln.split(",")]
        for ln in out.strip().splitlines()[2:]
    ]
    mat = np.array(rows)
    assert mat.shape == (3, 3)
    assert np.allclose(mat, mat.T)
    assert mat[0, 1] == pytest.approx(2.0)


def test_matrix_single_tree(tmp_path, capsys):
    p = tmp_path / "one.nwk"
    p.write_text(Q1 + "\n")
    code, out, _ = run(capsys, ["matrix", str(p), "--norm", "inf"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "0"
    assert float(lines[2]) == 0.0


def test_matrix_rational_byte_identical(tmp_path, capsys):
    p = tmp_path / "trees.nwk"
    p.write_text("((a:1/3,b:2):1,(c:1,d:1):1);\n" + Q1.replace("1", "a").replace("2", "b").replace("3", "c").replace("4", "d") + "\n")
    code1, out1, _ = run(capsys, ["matrix", str(p), "--norm", "1", "--mode", "rational"])
    code2, out2, _ = run(capsys, ["matrix", str(p), "--norm", "1", "--mode", "rational"])
    assert code1 == code2 == 0
    assert out1 == out2
    cell = out1.strip().splitlines()[2].split(",")[1]
    assert "/" in cell or cell.isdigit()  # exact rational rendering


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_bounded_flag_leaves_stdout_unchanged(tmp_path, capsys, mode):
    # the bound rows never bind at a lower optimum, so --bounded only adds
    # an audit and prints the same bytes
    texts = [write_newick(random_binary_tree(7, seed, weight_model="uniform01")) + "\n"
             for seed in (3, 103, 203)]
    paths = []
    for k, text in enumerate(texts):
        p = tmp_path / f"t{k}.nwk"
        p.write_text(text)
        paths.append(str(p))
    many = tmp_path / "many.nwk"
    many.write_text("".join(texts))
    argvs = [["dist", paths[0], paths[1], "--mode", mode, "--csv"]]
    argvs += [["matrix", str(many), "--norm", nm, "--variant", v, "--mode", mode]
              for nm in ("1", "2") for v in ("full", "lower")]
    for argv in argvs:
        plain = run(capsys, argv)
        bounded = run(capsys, argv + ["--bounded"])
        assert plain[0] == bounded[0] == 0
        assert plain[1] == bounded[1], argv


# ---------------------------------------------------------------------------
# experiments


def _parse_csv(out):
    lines = out.strip().splitlines()
    assert lines[0] == "#schema=1"
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:] if not ln.startswith("#")]
    trailer = [ln for ln in lines[2:] if ln.startswith("#")]
    return header, rows, trailer


def test_experiment_compare_shape(capsys):
    code, out, _ = run(
        capsys, ["experiment", "compare", "--n", "6", "--trials", "3", "--seed", "5"]
    )
    assert code == 0
    header, rows, _ = _parse_csv(out)
    assert header == [
        "trial", "D1", "D2", "Dinf", "Dt1", "Dt2", "Dtinf", "PD1", "PD2", "PDinf", "RF"
    ]
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["0", "1", "2"]
    for r in rows:
        d1, d2, dinf = float(r[1]), float(r[2]), float(r[3])
        assert d1 >= d2 - 1e-9 >= dinf - 2e-9


def test_experiment_compare_deterministic(capsys):
    args = ["experiment", "compare", "--n", "6", "--trials", "2", "--seed", "9"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2


def test_experiment_caterpillar_bound_row(capsys):
    code, out, _ = run(
        capsys, ["experiment", "caterpillar", "--n", "9", "--trials", "1"]
    )
    assert code == 0
    header, rows, _ = _parse_csv(out)
    assert header[-1] == "bound"
    row = dict(zip(header, rows[0]))
    assert float(row["bound"]) == 10.0
    assert float(row["Dinf"]) == pytest.approx(3.0)
    assert float(row["D1"]) == pytest.approx(16.0)
    assert float(row["D1"]) >= float(row["bound"])


def test_experiment_caterpillar_bound_column_general_n(capsys):
    code, out, _ = run(
        capsys, ["experiment", "caterpillar", "--n", "7", "--trials", "2", "--seed", "3"]
    )
    assert code == 0
    header, rows, _ = _parse_csv(out)
    for r in rows:
        assert float(dict(zip(header, r))["bound"]) == pytest.approx(7 * 7 / 4 - 7 + 2)


def test_experiment_parallelogram(capsys):
    code, out, _ = run(
        capsys,
        ["experiment", "parallelogram", "--n", "6", "--trials", "4", "--seed", "11"],
    )
    assert code == 0
    header, rows, _ = _parse_csv(out)
    assert header == ["trial", "lhs", "rhs"]
    for r in rows:
        assert float(r[1]) == pytest.approx(float(r[2]), rel=1e-9)


def _count_solves(monkeypatch):
    """Wrap the gromov_distance the CLI calls; returns the list of
    (norm, variant) it is called with."""
    from treegromov import cli

    calls = []
    real = cli.gromov_distance

    def spy(rho, rho_prime, spec):
        calls.append((spec.norm, spec.variant))
        return real(rho, rho_prime, spec)

    monkeypatch.setattr(cli, "gromov_distance", spy)
    return calls


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_dist_solves_once_per_norm(monkeypatch, capsys, mode):
    calls = _count_solves(monkeypatch)
    code, out, _ = run(capsys, ["dist", Q1, Q2, "--norm", "all", "--variant", "both", "--mode", mode])
    assert code == 0
    assert calls == [("1", "full"), ("2", "full"), ("inf", "full")]
    fields = dict(part.split("=") for part in out.strip().split(", "))
    for nm in ("1", "2", "inf"):
        assert fields[f"D{nm}"] == fields[f"Dt{nm}"]
    calls.clear()
    assert run(capsys, ["dist", Q1, Q2, "--norm", "1", "--variant", "lower", "--mode", mode])[0] == 0
    assert calls == [("1", "lower")]


@pytest.mark.parametrize("experiment", ["compare", "caterpillar"])
def test_experiment_solves_once_per_norm(monkeypatch, capsys, experiment):
    calls = _count_solves(monkeypatch)
    code, _, _ = run(capsys, ["experiment", experiment, "--n", "6", "--trials", "3", "--seed", "2"])
    assert code == 0
    assert calls == [("1", "full"), ("2", "full"), ("inf", "full")] * 3


def test_experiment_equality_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "equality", "--n", "6"])
    capsys.readouterr()


def test_experiment_extra_column(tmp_path, capsys):
    vals = tmp_path / "labels.txt"
    vals.write_text("alpha\nbeta\n")
    code, out, _ = run(
        capsys,
        [
            "experiment", "compare", "--n", "6", "--trials", "2",
            "--extra-column", "tag:" + str(vals),
        ],
    )
    assert code == 0
    header, rows, _ = _parse_csv(out)
    assert header[-1] == "tag"
    assert [r[-1] for r in rows] == ["alpha", "beta"]


def test_experiment_extra_column_too_short(tmp_path, capsys):
    vals = tmp_path / "labels.txt"
    vals.write_text("alpha\n")
    code, _, err = run(
        capsys,
        [
            "experiment", "compare", "--n", "6", "--trials", "2",
            "--extra-column", "tag:" + str(vals),
        ],
    )
    assert code == 3
    assert "validation error" in err


def test_experiment_extra_column_bad_spec(capsys):
    code, _, err = run(
        capsys,
        ["experiment", "compare", "--trials", "1", "--extra-column", "nocolon"],
    )
    assert code == 2


def test_experiment_invalid_n(capsys):
    code, _, err = run(capsys, ["experiment", "compare", "--n", "3"])
    assert code == 3


def test_experiment_out_file(tmp_path, capsys):
    path = tmp_path / "exp.csv"
    code, out, _ = run(
        capsys,
        ["experiment", "compare", "--n", "5", "--trials", "1", "--out", str(path)],
    )
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("#schema=1\n")


# ---------------------------------------------------------------------------
# validate


def test_validate_tree_all_pass(capsys):
    code, out, _ = run(capsys, ["validate", Q1])
    assert code == 0
    for line in ("symmetric: PASS", "zero-diagonal: PASS", "nonnegative: PASS",
                 "triangle: PASS", "four-point: PASS"):
        assert line in out
    assert "source: tree, 4 taxa" in out


def test_validate_tree_with_fractional_lengths_passes(capsys):
    from treegromov import random_binary_tree, write_newick

    text = write_newick(random_binary_tree(9, 3, "uniform01"))
    code, out, _ = run(capsys, ["validate", text])
    assert code == 0
    assert "symmetric: PASS" in out


def test_validate_triangle_violation(tmp_path, capsys):
    labs = ["a", "b", "c"]
    rho = semimetric_from_table(
        labs, [[0, 1, 5], [1, 0, 1], [5, 1, 0]], validate=False
    )
    p = tmp_path / "bad.csv"
    p.write_text(semimetric_to_csv(rho))
    code, out, _ = run(capsys, ["validate", str(p)])
    assert code == 3
    assert "triangle: FAIL" in out
    assert "d(a,c) > d(a,b) + d(b,c)" in out or "d(c,a)" in out
    assert "four-point: SKIPPED" in out


def test_validate_and_dist_agree_on_a_small_triangle_break(tmp_path, capsys):
    # d(a,b) breaks the triangle through c by 1e-7, above its own tolerance
    # 1e-9 * max(1, d(a,b)); validate once judged every triple against the
    # largest entry, 1000, and passed the table that dist rejects
    labs = ["a", "b", "c", "z"]
    tab = [[0, 1 + 1e-7, 0.5, 1000], [1 + 1e-7, 0, 0.5, 1000],
           [0.5, 0.5, 0, 1000], [1000, 1000, 1000, 0]]
    p = tmp_path / "near.csv"
    p.write_text(semimetric_to_csv(semimetric_from_table(labs, tab, validate=False)))
    code, out, _ = run(capsys, ["validate", str(p)])
    assert code == 3
    assert "triangle: FAIL (d(a,b) > d(a,c) + d(c,b))" in out
    code, _, err = run(capsys, ["dist", str(p), str(p)])
    assert code == 3
    assert "triangle inequality violated: d(a,b)" in err


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_triangle_witness_matches_the_loop(mode):
    # random symmetric tables break the triangle inequality in many places;
    # the first witness in (i, j, k) order must be the triple loop's, also
    # on float tables just inside and just outside the tolerance
    from treegromov.cli import _triangle_witness

    import _oracles as orc

    rng = np.random.default_rng(17)
    labs = [f"t{i}" for i in range(9)]
    seen = 0
    for trial in range(40):
        n = int(rng.integers(3, 10))
        d = np.triu(rng.integers(1, 12, size=(n, n)), 1)
        d = d + d.T
        if mode == "rational":
            tab = [[Fraction(int(x), 3) for x in row] for row in d]
        else:
            tab = d / 3.0
            if trial % 2:  # closed under shortest paths, then nudged
                for k in range(n):
                    tab = np.minimum(tab, tab[:, k : k + 1] + tab[k : k + 1, :])
                i, j = rng.choice(n, size=2, replace=False)
                tab[i, j] = tab[j, i] = tab[i, j] + float(rng.choice([0.5e-9, 2e-9])) * 4
        rho = semimetric_from_table(labs[:n], tab, mode=mode, validate=False)
        want = orc.triangle_witness_loop(rho)
        assert _triangle_witness(rho) == want
        seen += want is not None
    assert seen > 20


def test_validate_four_point_failure(tmp_path, capsys):
    # the 4-cycle metric satisfies the triangle inequality but no tree
    # realizes it
    tab = [
        [0, 1, 2, 1],
        [1, 0, 1, 2],
        [2, 1, 0, 1],
        [1, 2, 1, 0],
    ]
    rho = semimetric_from_table(["a", "b", "c", "d"], tab)
    p = tmp_path / "cycle.csv"
    p.write_text(semimetric_to_csv(rho))
    code, out, _ = run(capsys, ["validate", str(p)])
    assert code == 3
    assert "triangle: PASS" in out
    assert "four-point: FAIL (quadruple a,b,c,d)" in out


def test_validate_asymmetric_table(tmp_path, capsys):
    p = tmp_path / "asym.csv"
    p.write_text("a,b\n0,1\n2,0\n")
    code, out, _ = run(capsys, ["validate", str(p)])
    assert code == 3
    assert "symmetric: FAIL" in out


@pytest.mark.parametrize("token", ["inf", "nan"])
def test_non_finite_table_cell_is_validation_error(tmp_path, capsys, token):
    p = tmp_path / "nonfinite.csv"
    p.write_text(f"a,b,c\n0,1,2\n1,0,{token}\n2,{token},0\n")
    code, out, err = run(capsys, ["validate", str(p)])
    assert code == 3
    assert "PASS" not in out
    assert f"non-finite entry d(b,c)={token}" in err
    code, out, err = run(capsys, ["dist", str(p), str(p)])
    assert code == 3
    assert out == ""
    assert f"non-finite entry d(b,c)={token}" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, ["validate", "/no/such/file.csv"])
    assert code == 2


# ---------------------------------------------------------------------------
# parser plumbing


def test_no_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_norm_rejected():
    with pytest.raises(SystemExit):
        main(["dist", Q1, Q2, "--norm", "7"])


def test_parser_is_built_once_and_reused(capsys):
    # main runs on one cached parser; each call must still read exactly
    # what a fresh parser reads
    calls = (
        ["dist", Q1, Q2, "--norm", "2"],
        ["experiment", "compare", "--n", "5", "--trials", "2", "--seed", "3"],
        ["dist", Q1, Q2, "--csv", "--variant", "lower"],
        ["validate", Q1],
    )
    warm = [run(capsys, argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert warm == fresh
    assert all(code == 0 for code, _, _ in warm)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["dist", Q1, Q2, "--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
