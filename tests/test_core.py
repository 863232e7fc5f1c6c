"""Scalar modes, taxon sets, semimetric tables, Newick parsing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from treegromov import (
    ParseError,
    PhyloTree,
    Semimetric,
    TaxonSet,
    ValidationError,
    parse_newick,
    parse_newick_file,
    semimetric_from_csv,
    semimetric_from_table,
    semimetric_to_csv,
    tree_to_semimetric,
    write_newick,
)
from treegromov.core import as_scalar, format_scalar, parse_scalar, scalar_array


# ---------------------------------------------------------------------------
# scalars


def test_as_scalar_float_mode():
    assert as_scalar(3, "float") == 3.0
    assert isinstance(as_scalar(Fraction(1, 2), "float"), float)


def test_as_scalar_rational_rejects_float():
    assert as_scalar(3, "rational") == Fraction(3)
    assert as_scalar("2/7", "rational") == Fraction(2, 7)
    with pytest.raises(ValidationError):
        as_scalar(0.5, "rational")


def test_parse_scalar_fraction_token_both_modes():
    assert parse_scalar("3/4", "float") == 0.75
    assert parse_scalar("3/4", "rational") == Fraction(3, 4)
    assert parse_scalar("2.5", "float") == 2.5
    with pytest.raises(ParseError):
        parse_scalar("abc", "float")


def test_format_scalar_round_trip():
    assert format_scalar(Fraction(22, 7), "rational") == "22/7"
    assert format_scalar(Fraction(4), "rational") == "4"
    assert float(format_scalar(0.1, "float")) == 0.1


def test_bad_mode_rejected():
    with pytest.raises(ValidationError):
        as_scalar(1, "decimal")


# ---------------------------------------------------------------------------
# TaxonSet


def test_taxon_set_sorted_and_indexed():
    ts = TaxonSet(["b", "a", "c"])
    assert ts.labels == ("a", "b", "c")
    assert ts.position("b") == 1
    assert "c" in ts
    assert len(ts) == 3


def test_taxon_set_rejects_duplicates_and_non_strings():
    with pytest.raises(ValidationError):
        TaxonSet(["a", "a"])
    with pytest.raises(ValidationError):
        TaxonSet(["a", 3])
    with pytest.raises(ValidationError):
        TaxonSet([])


def test_taxon_set_unknown_label():
    ts = TaxonSet(["a", "b"])
    with pytest.raises(ValidationError):
        ts.position("z")


def test_taxon_set_subset():
    small = TaxonSet(["a", "c"])
    big = TaxonSet(["a", "b", "c"])
    assert small.is_subset_of(big)
    assert not big.is_subset_of(small)


# ---------------------------------------------------------------------------
# Semimetric


def _quartet_table():
    return np.array(
        [
            [0.0, 2.0, 3.0, 3.0],
            [2.0, 0.0, 3.0, 3.0],
            [3.0, 3.0, 0.0, 2.0],
            [3.0, 3.0, 2.0, 0.0],
        ]
    )


def test_semimetric_basics():
    rho = semimetric_from_table(["1", "2", "3", "4"], _quartet_table())
    assert rho.dist("1", "2") == 2.0
    assert rho.dist("2", "1") == 2.0
    assert rho.is_strictly_positive()
    assert len(rho.taxa) == 4


def test_semimetric_label_order_is_canonical():
    # same table handed over in shuffled label order lands identically
    tab = _quartet_table()
    shuffled = ["3", "1", "4", "2"]
    perm = [2, 0, 3, 1]
    shuffled_tab = tab[np.ix_(perm, perm)]
    a = semimetric_from_table(["1", "2", "3", "4"], tab)
    b = semimetric_from_table(shuffled, shuffled_tab)
    assert a == b


def test_semimetric_validation_failures():
    bad = _quartet_table()
    bad[0, 1] = 9.0
    with pytest.raises(ValidationError):
        semimetric_from_table(list("abcd"), bad)  # asymmetric

    bad = _quartet_table()
    bad[2, 2] = 1.0
    with pytest.raises(ValidationError):
        semimetric_from_table(list("abcd"), bad)

    bad = _quartet_table()
    bad[0, 1] = bad[1, 0] = -1.0
    with pytest.raises(ValidationError):
        semimetric_from_table(list("abcd"), bad)

    bad = _quartet_table()
    bad[0, 1] = bad[1, 0] = 7.0  # 7 > 3 + 3 via any third point
    with pytest.raises(ValidationError):
        semimetric_from_table(list("abcd"), bad)


@pytest.mark.parametrize("bad_value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("validate", [True, False])
def test_semimetric_rejects_non_finite_entries(bad_value, validate):
    bad = _quartet_table()
    bad[1, 3] = bad[3, 1] = bad_value
    with pytest.raises(ValidationError, match=r"non-finite entry d\(b,d\)="):
        semimetric_from_table(list("abcd"), bad, validate=validate)


def test_semimetric_table_frozen():
    rho = semimetric_from_table(list("abcd"), _quartet_table())
    with pytest.raises(ValueError):
        rho.table[0, 1] = 5.0


def test_semimetric_leaves_caller_array_writable():
    arr = _quartet_table()
    rho = Semimetric(TaxonSet(list("abcd")), arr)
    arr[0, 1] = 5.0  # the caller's array is not frozen ...
    assert rho.dist("a", "b") == 2.0  # ... nor shared
    with pytest.raises(ValueError):
        rho.table[0, 1] = 5.0


def test_semimetric_zero_distances_allowed():
    # semimetric, not metric: distinct taxa at distance zero are fine
    tab = np.zeros((3, 3))
    rho = semimetric_from_table(list("abc"), tab)
    assert not rho.is_strictly_positive()


def test_semimetric_add_and_scale():
    rho = semimetric_from_table(list("abcd"), _quartet_table())
    double = rho + rho
    assert double.dist("a", "b") == 4.0
    scaled = rho.scaled(0.5)
    assert scaled.dist("a", "b") == 1.0
    with pytest.raises(ValidationError):
        rho.scaled(-1.0)


def test_semimetric_rational_exact_validation():
    tab = [[0, Fraction(1, 3)], [Fraction(1, 3), 0]]
    rho = semimetric_from_table(["x", "y"], tab, mode="rational")
    assert rho.dist("x", "y") == Fraction(1, 3)
    flt = rho.to_float()
    assert flt.mode == "float"
    assert flt.dist("x", "y") == pytest.approx(1 / 3)


def test_scalar_array_rational_coerces_every_cell_into_a_new_array():
    src = np.array([[0, Fraction(1, 3)], ["2/7", np.int64(4)]], dtype=object)
    out = scalar_array(src, "rational")
    assert out.shape == (2, 2) and out.dtype == object
    assert all(type(x) is Fraction for x in out.ravel())
    assert out.tolist() == [[0, Fraction(1, 3)], [Fraction(2, 7), 4]]
    assert not np.shares_memory(out, src)
    src[0, 0] = Fraction(5)
    assert out[0, 0] == 0
    assert scalar_array([], "rational").shape == (0,)
    for bad in ([[0, 0.5], [0.5, 0]], np.array([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(ValidationError, match="rational mode does not accept float"):
            scalar_array(bad, "rational")


@pytest.mark.parametrize(
    "mode,unit",
    [("float", 1), ("rational", 1), ("rational", Fraction(1, 6)), ("rational", 10**19)],
)
def test_semimetric_reports_the_first_of_tied_triangle_violations(mode, unit):
    # d(a,b) = d(c,d) = 7 and every other pair 3 (in units of `unit`; the
    # last one is too large for int64 sums): each long pair breaks the
    # triangle inequality through both other points, and the first triple
    # (i, j, k) in lexicographic order is (a, c, b), d(a,b) through c
    tab = [[0, 7, 3, 3], [7, 0, 3, 3], [3, 3, 0, 7], [3, 3, 7, 0]]
    tab = np.array(tab, dtype=float) if mode == "float" else [[x * unit for x in row] for row in tab]
    with pytest.raises(ValidationError) as err:
        semimetric_from_table(list("abcd"), tab, mode=mode)
    num = "{}.0" if mode == "float" else "{}"
    want = "triangle inequality violated: d(a,b)={} > d(a,c)+d(c,b)={}+{}"
    assert str(err.value) == want.format(*(num.format(v * unit) for v in (7, 3, 3)))


def test_semimetric_judges_every_triangle_by_its_own_entry():
    # five taxa on a line at a=0, b=1, c=0.5, d=-99.5, e=100.5; d(a,b)
    # breaks the triangle through c by 3e-9, above its tolerance 1e-9.  A
    # second break of 5e-8 at d(d,e) = 200 is within that entry's own
    # tolerance (2e-7) and has the larger excess, and judging only the
    # worst triple against its own entry once accepted the table
    pos = {"a": 0.0, "b": 1.0, "c": 0.5, "d": -99.5, "e": 100.5}
    labs = list(pos)
    tab = np.array([[abs(pos[x] - pos[y]) for y in labs] for x in labs])
    tab[0, 1] = tab[1, 0] = 1 + 3e-9
    semimetric_from_table(labs, tab, validate=False)
    for bent in (tab, tab.copy()):
        bent[3, 4] = bent[4, 3] = 200 + 5e-8
        with pytest.raises(ValidationError, match=r"violated: d\(a,b\)=1.000000003 > d\(a,c\)"):
            semimetric_from_table(labs, bent)
    # within every entry's tolerance, the same line is accepted
    tab[0, 1] = tab[1, 0] = 1 + 0.5e-9
    semimetric_from_table(labs, tab)


@pytest.mark.parametrize("unit", [1, Fraction(1, 6), 10**19])
def test_semimetric_rational_triangle_check_matches_the_loop(unit):
    import _oracles as orc

    rng = np.random.default_rng(29)
    labs = [f"t{i}" for i in range(8)]
    raised = 0
    for _ in range(30):
        n = int(rng.integers(3, 9))
        d = np.triu(rng.integers(1, 10, size=(n, n)), 1)
        tab = [[int(x) * unit for x in row] for row in d + d.T]
        rho = semimetric_from_table(labs[:n], tab, mode="rational", validate=False)
        want = orc.triangle_witness_loop(rho)
        if want is None:
            semimetric_from_table(labs[:n], tab, mode="rational")
            continue
        i, j, k = (labs.index(lab) for lab in want)
        message = (
            f"triangle inequality violated: d({labs[i]},{labs[k]})={tab[i][k]} > "
            f"d({labs[i]},{labs[j]})+d({labs[j]},{labs[k]})={tab[i][j]}+{tab[j][k]}"
        )
        with pytest.raises(ValidationError) as err:
            semimetric_from_table(labs[:n], tab, mode="rational")
        assert str(err.value) == message
        raised += 1
    assert raised > 10


def test_semimetric_mode_mixing_rejected():
    a = semimetric_from_table(["x", "y"], [[0, 1], [1, 0]], mode="rational")
    b = semimetric_from_table(["x", "y"], [[0.0, 1.0], [1.0, 0.0]], mode="float")
    with pytest.raises(ValidationError):
        a + b


# ---------------------------------------------------------------------------
# CSV round trips


def test_semimetric_csv_round_trip_float():
    rho = semimetric_from_table(list("abcd"), _quartet_table())
    text = semimetric_to_csv(rho)
    back = semimetric_from_csv(text)
    assert back == rho


def test_semimetric_csv_round_trip_rational_bytes():
    tab = [
        [0, Fraction(1, 3), Fraction(1, 2)],
        [Fraction(1, 3), 0, Fraction(2, 3)],
        [Fraction(1, 2), Fraction(2, 3), 0],
    ]
    rho = semimetric_from_table(list("abc"), tab, mode="rational")
    text = semimetric_to_csv(rho)
    assert semimetric_to_csv(semimetric_from_csv(text, mode="rational")) == text


def test_semimetric_csv_bad_shape():
    with pytest.raises(ParseError):
        semimetric_from_csv("a,b\n0,1\n")
    with pytest.raises(ParseError):
        semimetric_from_csv("a,b\n0,1\n1,0,9\n")
    with pytest.raises(ParseError):
        semimetric_from_csv("")


def test_semimetric_csv_comments_skipped():
    text = "#schema=1\na,b\n0,1\n1,0\n"
    rho = semimetric_from_csv(text)
    assert rho.dist("a", "b") == 1.0


# ---------------------------------------------------------------------------
# PhyloTree


def test_phylo_tree_invariants():
    with pytest.raises(ValidationError):  # n edges: stops at the edge count
        PhyloTree(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], {"a": 0, "b": 1, "c": 2})
    with pytest.raises(ValidationError):  # disconnected
        PhyloTree(4, [(0, 1, 1.0), (2, 3, 1.0)], {"a": 0, "b": 1, "c": 2, "d": 3})
    four = {"a": 0, "b": 1, "c": 2, "d": 3}
    # n-1 edges holding a cycle, through vertex 0 and away from it
    for cycle in ((0, 1), (1, 2), (0, 2)), ((1, 2), (2, 3), (1, 3)):
        with pytest.raises(ValidationError, match="edges contain a cycle"):
            PhyloTree(4, [(u, v, 1.0) for u, v in cycle], four)
    with pytest.raises(ValidationError):  # nonpositive weight
        PhyloTree(2, [(0, 1, 0.0)], {"a": 0, "b": 1})
    with pytest.raises(ValidationError):  # unlabeled degree-2 vertex
        PhyloTree(3, [(0, 1, 1.0), (1, 2, 1.0)], {"a": 0, "c": 2})


def test_phylo_tree_unlabeled_internal_needs_degree_three():
    # labeled internal vertices of any degree are fine
    t = PhyloTree(3, [(0, 1, 1.0), (1, 2, 1.0)], {"a": 0, "b": 1, "c": 2})
    assert t.degrees()[1] == 2
    assert not t.is_binary()


def test_phylo_tree_binary():
    t = parse_newick("((a,b),(c,d));")
    assert t.is_binary()
    assert t.n_vertices == 6
    assert len(t.edges) == 5


# ---------------------------------------------------------------------------
# Newick, no-lengths regime


def test_parse_newick_topology_only_unit_weights():
    t = parse_newick("((1,2),(3,4));")
    assert all(w == 1.0 for _, _, w in t.edges)
    assert t.taxa.labels == ("1", "2", "3", "4")
    rho = tree_to_semimetric(t)
    assert rho.dist("1", "2") == 2.0
    assert rho.dist("1", "3") == 3.0


def test_parse_newick_topology_only_suppresses_root():
    # rooted caterpillar input; the degree-2 root vanishes before default
    # weights are applied, so the unrooted path 1..5 has length 5
    t = parse_newick("(1,(2,(3,(4,5))));")
    rho = tree_to_semimetric(t)
    assert rho.dist("1", "5") == 4.0
    assert rho.dist("1", "2") == 2.0


def test_parse_newick_default_weight_parameter():
    t = parse_newick("((1,2),(3,4));", default_weight=2)
    rho = tree_to_semimetric(t)
    assert rho.dist("1", "2") == 4.0


# ---------------------------------------------------------------------------
# Newick, explicit-lengths regime


def test_parse_newick_lengths():
    t = parse_newick("((A:1,B:2):3,(C:1,D:1):1);")
    rho = tree_to_semimetric(t)
    assert rho.dist("A", "B") == 3.0
    assert rho.dist("A", "C") == 6.0


def test_parse_newick_partial_lengths_fill_default():
    # any explicit length switches regimes: missing rooted edges get the
    # default, and suppressing the root merges the two incident edges
    t = parse_newick("((A:1,B),(C,D:5));")
    rho = tree_to_semimetric(t)
    assert rho.dist("A", "B") == 2.0
    assert rho.dist("C", "D") == 6.0
    assert rho.dist("A", "C") == 4.0


def test_parse_newick_rational_lengths():
    t = parse_newick("(A:1/3,B:2/3);", mode="rational")
    rho = tree_to_semimetric(t)
    assert rho.dist("A", "B") == Fraction(1)


def test_parse_newick_internal_labels_are_taxa():
    t = parse_newick("((A,B)E,(C,D));")
    assert "E" in t.taxa
    rho = tree_to_semimetric(t)
    assert rho.dist("A", "E") == 1.0
    assert rho.dist("E", "C") == 2.0


def test_parse_newick_errors():
    with pytest.raises(ParseError):
        parse_newick("((A,B),(C,D)")  # missing ; and )
    with pytest.raises(ParseError):
        parse_newick("(A,A);")  # duplicate
    with pytest.raises(ParseError):
        parse_newick("(A:0,B:1);")  # nonpositive length
    with pytest.raises(ParseError):
        parse_newick("A;")  # fewer than 2 taxa
    with pytest.raises(ParseError):
        parse_newick("(A,B); junk")


def test_parse_error_carries_position():
    try:
        parse_newick("((A,B)")
    except ParseError as exc:
        assert "position" in str(exc)
    else:
        raise AssertionError("expected ParseError")


# structural faults first, then label and length faults in depth-first
# order; a node's position is the index right after the '(' or ',' before
# it, white space included
@pytest.mark.parametrize(
    "text, message, position",
    [
        ("( ,b);", "expected a label or '('", 2),
        ("(a,b:);", "expected a branch length after ':'", 5),
        ("(a,b)", "expected ';'", 5),
        ("(a, b) ;x", "trailing characters after ';'", 8),
        ("(a, a);", "duplicate label 'a'", 3),
        ("(a:0,b);", "branch length 0 must be positive", 1),
        ("((a,b)a,c);", "duplicate label 'a'", 2),
        ("(a,(b,c)d:1,(e,f)d:-1);", "duplicate label 'd'", 12),
        ("(a:x,a);", "bad number 'x'", None),
    ],
)
@pytest.mark.parametrize("mode", ["float", "rational"])
def test_parse_newick_error_messages_and_positions(text, message, position, mode):
    with pytest.raises(ParseError) as info:
        parse_newick(text, mode=mode)
    assert str(info.value).startswith(message)
    assert info.value.position == position
    if position is not None:
        assert str(info.value) == f"{message} (at position {position})"


@pytest.mark.parametrize(
    "text, edges, leaf_map",
    [
        # a length on the root alone makes the statement carry lengths
        ("((g\n))q :0.2;", ((0, 1, 2.0),), {"g": 0, "q": 1}),
        ("((g))q;", ((0, 1, 1.0),), {"g": 0, "q": 1}),
        ("(a b,c);", ((0, 1, 1.0),), {"a b": 0, "c": 1}),
    ],
)
def test_parse_newick_reader_results(text, edges, leaf_map):
    t = parse_newick(text)
    assert t.edges == edges and t.leaf_map == leaf_map


# ---------------------------------------------------------------------------
# Newick writing


def test_write_newick_round_trip_float():
    src = "((A:1.5,B:2.25):0.5,(C:1,D:1):2);"
    t = parse_newick(src)
    back = parse_newick(write_newick(t))
    assert tree_to_semimetric(back) == tree_to_semimetric(t)


def test_write_newick_round_trip_rational_exact():
    src = "((A:1/3,B:2/3):1/7,(C:1,D:2):3);"
    t = parse_newick(src, mode="rational")
    back = parse_newick(write_newick(t), mode="rational")
    assert tree_to_semimetric(back) == tree_to_semimetric(t)


def test_write_newick_two_leaf_exact():
    t = parse_newick("(A:1/3,B:1/3);", mode="rational")
    s = write_newick(t)
    back = parse_newick(s, mode="rational")
    assert tree_to_semimetric(back).dist("A", "B") == Fraction(2, 3)


def test_write_newick_random_round_trips():
    from treegromov import random_binary_tree

    for seed in range(8):
        t = random_binary_tree(7, seed=seed, weight_model="uniform01")
        back = parse_newick(write_newick(t))
        assert tree_to_semimetric(back) == tree_to_semimetric(t)


DEPTH = 1500  # well past the default recursion limit of 1000


def test_parse_newick_deep_nesting():
    # 1500 single-child groups around a cherry: the dangling root chain is
    # suppressed, leaving one edge
    t = parse_newick("(" * DEPTH + "a,b" + ")" * DEPTH + ";")
    assert t.taxa.labels == ("a", "b") and t.edges == ((0, 1, 1.0),)
    # a caterpillar nested 1500 deep round-trips through write_newick
    text = "".join(f"(t{i:04d}:1," for i in range(DEPTH)) + "x:1" + ")" * DEPTH + ";"
    t = parse_newick(text)
    assert len(t.taxa) == DEPTH + 1
    back = parse_newick(write_newick(t))
    assert back.edges == t.edges and back.leaf_map == t.leaf_map


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_write_newick_deep_caterpillar_round_trips(mode):
    from treegromov import random_caterpillar

    t = random_caterpillar(DEPTH, 1, mode)
    text = write_newick(t)
    back = parse_newick(text, mode=mode)
    assert back.edges == t.edges and back.leaf_map == t.leaf_map
    assert write_newick(back) == text


@pytest.mark.parametrize(
    "text",
    [
        "(" * 5000 + "a",
        "(" * 5000 + ";",
        "(a," * 3000 + "b" + ")" * 2999 + ";",
        "(a," * 3000 + "b" + ")" * 3001 + ";",
        "".join(f"(t{i}:1," for i in range(3000)) + "x:" + ")" * 3000 + ";",
    ],
    ids=["unclosed", "no-label", "one-paren-short", "one-paren-too-many", "empty-length"],
)
def test_parse_newick_malformed_deep_input_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_newick(text)


# ---------------------------------------------------------------------------
# Newick files


def test_parse_newick_file():
    text = "# two quartets\n((1,2),(3,4));\n\n((1,3),(2,4));\n"
    trees = parse_newick_file(text)
    assert len(trees) == 2
    assert trees[0].taxa == trees[1].taxa


def test_parse_newick_file_reports_line():
    try:
        parse_newick_file("((1,2),(3,4));\n((1,2;\n")
    except ParseError as exc:
        assert "line 2" in str(exc)
    else:
        raise AssertionError("expected ParseError")
