"""Tree metrics, four-point condition, splits, NNI, generators."""

import math
from fractions import Fraction

import numpy as np
import pytest

import _oracles as orc
from treegromov import (
    NniMove,
    PhyloTree,
    Split,
    ValidationError,
    apply_nni,
    four_point_check,
    internal_edges,
    caterpillar_swap_pair,
    nni_moves,
    nontrivial_splits,
    parse_newick,
    pd_distance,
    pd_distance_squared,
    random_binary_tree,
    random_caterpillar,
    restrict,
    robinson_foulds,
    semimetric_from_table,
    splits_of,
    tree_to_semimetric,
)
from treegromov import _kernels
from treegromov.treemetric import FOUR_POINT_RTOL, normalize_norm


# ---------------------------------------------------------------------------
# norms


def test_normalize_norm_spellings():
    assert normalize_norm(1) == "1"
    assert normalize_norm("2") == "2"
    assert normalize_norm("inf") == "inf"
    assert normalize_norm(math.inf) == "inf"
    with pytest.raises(ValidationError):
        normalize_norm(3)


# ---------------------------------------------------------------------------
# tree -> semimetric


def test_tree_metric_matches_dijkstra():
    for seed in range(12):
        t = random_binary_tree(8, seed=seed, weight_model="uniform01")
        rho = tree_to_semimetric(t)
        assert np.allclose(rho.table, orc.tree_metric_oracle(t), atol=1e-12)


def test_tree_metric_float_table_is_exactly_symmetric():
    # sums of the same path taken from its two ends round differently, so
    # each distance must be summed once and written to both cells
    for seed in range(40):
        t = random_binary_tree(9, seed=seed, weight_model="uniform01")
        table = tree_to_semimetric(t).table
        assert (table == table.T).all(), seed


def test_tree_metric_rational_exact():
    t = parse_newick("((A:1/3,B:2/3):1/7,(C:3/2,D:1):2);", mode="rational")
    rho = tree_to_semimetric(t)
    assert rho.dist("A", "B") == Fraction(1)
    assert rho.dist("A", "C") == Fraction(1, 3) + Fraction(1, 7) + 2 + Fraction(3, 2)


def _scaled(tree, scale):
    return PhyloTree(
        tree.n_vertices, [(u, v, w * scale) for u, v, w in tree.edges], tree.leaf_map
    )


def _random_labelled_tree(n, seed):
    """A random recursive tree with every vertex a taxon, so taxa sit at
    internal vertices of every degree."""
    rng = np.random.default_rng(seed)
    edges = [(i, int(rng.integers(0, i)), float(rng.uniform(0.01, 1.0))) for i in range(1, n)]
    return PhyloTree(n, edges, {f"x{i}": i for i in range(n)})


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e8])
@pytest.mark.parametrize("model", ["unit", "uniform01"])
def test_tree_metric_is_bitwise_the_traversal_oracle(model, scale):
    # every cell is summed outward from its earlier taxon, in the
    # traversal's order, so the tables agree byte for byte
    for seed in range(12):
        n = 3 + 7 * seed
        tree = _scaled(random_binary_tree(n, seed, model), scale)
        got = tree_to_semimetric(tree).table
        assert got.tobytes() == orc.tree_metric_traversal(tree).tobytes()


def test_tree_metric_with_labelled_internal_vertices_is_bitwise_the_oracle():
    for seed in range(20):
        tree = _random_labelled_tree(2 + 2 * seed, seed)
        got = tree_to_semimetric(tree).table
        assert got.tobytes() == orc.tree_metric_traversal(tree).tobytes()


def test_rational_tree_metric_equals_the_traversal_oracle_exactly():
    for seed in range(6):
        tree = random_caterpillar(6 + 3 * seed, seed, mode="rational")
        tree = PhyloTree(
            tree.n_vertices,
            [(u, v, w / (seed + 3)) for u, v, w in tree.edges],
            tree.leaf_map,
            "rational",
        )
        got = tree_to_semimetric(tree).table
        assert all(type(x) is Fraction for x in got.flat)
        assert (got == orc.tree_metric_traversal(tree)).all()
        labelled = _random_labelled_tree(9, seed).with_mode("float")
        exact = PhyloTree(
            labelled.n_vertices,
            [(u, v, Fraction(k + 1, 7)) for k, (u, v, _) in enumerate(labelled.edges)],
            labelled.leaf_map,
            "rational",
        )
        assert (tree_to_semimetric(exact).table == orc.tree_metric_traversal(exact)).all()


def test_tree_metric_of_a_1500_deep_caterpillar():
    # the rooted pass keeps an explicit stack, so depth is no limit
    tree = random_caterpillar(1500, 1)
    table = tree_to_semimetric(tree).table
    labs = tree.taxa.labels
    # one traversal from the first taxon gives the whole first row
    adj = tree.adjacency()
    dist = {tree.leaf_map[labs[0]]: 0.0}
    stack = list(dist)
    while stack:
        u = stack.pop()
        for v, w in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + w
                stack.append(v)
    assert table[0].tolist() == [dist[tree.leaf_map[lab]] for lab in labs]
    assert table.max() == 1499.0  # the two cherries at the ends
    assert (table == table.T).all()


# ---------------------------------------------------------------------------
# four-point condition


def test_four_point_holds_on_tree_metrics():
    for seed in range(10):
        t = random_binary_tree(9, seed=seed, weight_model="uniform01")
        ok, witness = four_point_check(tree_to_semimetric(t))
        assert ok and witness is None


def test_four_point_fails_on_cycle_metric():
    # the 4-cycle graph metric: opposite corners at distance 2
    tab = np.array(
        [
            [0.0, 1.0, 2.0, 1.0],
            [1.0, 0.0, 1.0, 2.0],
            [2.0, 1.0, 0.0, 1.0],
            [1.0, 2.0, 1.0, 0.0],
        ]
    )
    rho = semimetric_from_table(list("abcd"), tab)
    ok, witness = four_point_check(rho)
    assert not ok
    assert witness == ("a", "b", "c", "d")
    assert orc.four_point_oracle(tab) == (0, 1, 2, 3)


def test_four_point_witness_matches_oracle():
    rng = np.random.default_rng(3)
    for trial in range(15):
        t = random_binary_tree(7, seed=trial, weight_model="uniform01")
        tab = tree_to_semimetric(t).table.copy()
        i, j = sorted(rng.choice(7, size=2, replace=False))
        tab[i, j] = tab[j, i] = tab[i, j] * 2.0 + 1.0
        rho = semimetric_from_table([f"t{k}" for k in range(7)], tab, validate=False)
        ok, witness = four_point_check(rho)
        want = orc.four_point_oracle(tab)
        if want is None:
            assert ok
        else:
            assert not ok
            got = tuple(rho.taxa.position(x) for x in witness)
            assert got == want


def test_four_point_rational_exact():
    t = parse_newick("((A:1/3,B:2/3):1/7,(C:3/2,D:1):2);", mode="rational")
    ok, witness = four_point_check(tree_to_semimetric(t))
    assert ok
    tab = tree_to_semimetric(t).table.copy()
    tab[0, 3] = tab[3, 0] = tab[0, 3] + Fraction(1, 10**12)
    rho = semimetric_from_table(list("ABCD"), tab, mode="rational", validate=False)
    ok, witness = four_point_check(rho)
    assert not ok  # exact arithmetic sees even a 1e-12 bump


# the O(n^2) certificate in front of the scan


def _labels(n):
    return [f"t{k:02d}" for k in range(n)]


def _check_against_oracle(tab, mode="float"):
    rho = semimetric_from_table(_labels(len(tab)), tab, mode=mode, validate=False)
    ok, witness = four_point_check(rho)
    want = orc.four_point_oracle(tab)
    if want is None:
        assert ok and witness is None
    else:
        assert not ok
        assert tuple(rho.taxa.position(x) for x in witness) == want


def _no_scan(monkeypatch):
    def scan(d, tol):
        raise AssertionError("a tree metric reached the four-point scan")

    monkeypatch.setattr(_kernels, "four_point", scan)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e8])
def test_float_tree_metrics_never_reach_the_scan(monkeypatch, scale):
    _no_scan(monkeypatch)
    for n in (4, 5, 9, 30):
        for seed in range(4):
            for model in ("unit", "uniform01"):
                t = random_binary_tree(n, seed=seed, weight_model=model)
                assert four_point_check(tree_to_semimetric(t).scaled(scale)) == (True, None)
    cat = tree_to_semimetric(random_caterpillar(12, seed=1))
    assert four_point_check(cat) == (True, None)


def test_near_tree_metrics_are_certified(monkeypatch):
    # one cell moved by a tenth of the scan's tolerance moves each doubled
    # Gromov product by at most that much, which keeps it within the
    # certificate's slack 2*eps = tol/4 of its bottleneck
    _no_scan(monkeypatch)
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = 4 + trial % 20
        tab = tree_to_semimetric(
            random_binary_tree(n, seed=trial, weight_model="uniform01")
        ).table * 10.0 ** rng.integers(-6, 9)
        tol = FOUR_POINT_RTOL * max(1.0, tab.max())
        i, j = sorted(rng.choice(n, size=2, replace=False))
        tab[i, j] = tab[j, i] = tab[i, j] + rng.choice([-0.1, 0.1]) * tol
        rho = semimetric_from_table(_labels(n), tab, validate=False)
        assert four_point_check(rho) == (True, None)


def test_rational_tree_metrics_never_reach_the_scan(monkeypatch):
    _no_scan(monkeypatch)
    t = parse_newick("((A:1/3,B:2/3):1/7,((C:3/2,D:1):2/9,E:5):2);", mode="rational")
    assert four_point_check(tree_to_semimetric(t)) == (True, None)
    for seed in range(4):
        t = random_binary_tree(10, seed=seed, mode="rational")
        assert four_point_check(tree_to_semimetric(t)) == (True, None)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e8])
def test_bumped_tree_witness_matches_oracle(scale):
    rng = np.random.default_rng(11)
    for trial in range(6):
        tab = tree_to_semimetric(
            random_binary_tree(8, seed=trial, weight_model="uniform01")
        ).table * scale
        i, j = sorted(rng.choice(8, size=2, replace=False))
        tab[i, j] = tab[j, i] = tab[i, j] * 1.5
        _check_against_oracle(tab)


@pytest.mark.parametrize("factor", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_near_tolerance_witness_matches_oracle(factor):
    # bumps on either side of the scan's tolerance: the certificate must
    # leave every flagged table to the scan and its witness.  At exactly
    # 1 x tol a quadruple's slack ties the tolerance, and rounding (done in
    # a different order by the oracle) decides it, so there the answer is
    # compared with the scan alone.
    rng = np.random.default_rng(int(factor * 10))
    for trial in range(8):
        scale = 10.0 ** rng.integers(-6, 9)
        tab = tree_to_semimetric(
            random_binary_tree(8, seed=trial, weight_model="uniform01")
        ).table * scale
        tol = FOUR_POINT_RTOL * max(1.0, tab.max())
        i, j = sorted(rng.choice(8, size=2, replace=False))
        sign = 1.0 if trial % 2 else -1.0
        tab[i, j] = tab[j, i] = tab[i, j] + sign * factor * tol
        if factor != 1.0:
            _check_against_oracle(tab)
        rho = semimetric_from_table(_labels(8), tab, validate=False)
        quad = _kernels.four_point(tab, tol)
        want = (True, None) if quad[0] < 0 else (False, tuple(_labels(8)[q] for q in quad))
        assert four_point_check(rho) == want


def test_triangle_breaking_witness_matches_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = 5 + trial % 4
        tab = np.triu(rng.random((n, n)) * 10.0 ** rng.integers(-3, 4), 1)
        tab = tab + tab.T
        tab[0, n - 1] = tab[n - 1, 0] = tab.max() * 5.0
        _check_against_oracle(tab)


def test_rational_bump_witness_matches_exact_oracle():
    for seed in range(6):
        tab = tree_to_semimetric(random_binary_tree(9, seed=seed, mode="rational")).table.copy()
        # a farthest pair is no cherry, so some quadruple ties its pairing
        # sum with the largest one, and the bump breaks that tie
        i, j = np.unravel_index(np.argmax(tab.astype(float)), tab.shape)
        tab[i, j] = tab[j, i] = tab[i, j] + Fraction(1, 10**12)
        assert orc.four_point_oracle(tab) is not None
        _check_against_oracle(tab, mode="rational")


def _fraction_newick(n, seed):
    """A random binary tree on n taxa with edge lengths of mixed
    denominators, as Newick."""
    rng = np.random.default_rng(seed)
    lengths = ["1/3", "2/7", "5/11", "1", "3/2", "13/17"]
    items = [f"t{k:02d}:{rng.choice(lengths)}" for k in range(n)]
    while len(items) > 2:
        i = int(rng.integers(len(items) - 1))
        items[i : i + 2] = [f"({items[i]},{items[i + 1]}):{rng.choice(lengths)}"]
    return f"({items[0]},{items[1]});"


def test_rational_four_point_matches_float_mode(monkeypatch):
    # the rational certificate runs on the table scaled to integers; its
    # verdicts and the scan's witnesses are those of float mode wherever
    # float mode is exact enough to tell
    real = _kernels.tree_certificate
    cells = []

    def spy(d, eps):
        cells.extend(type(x) for row in d for x in row)
        return real(d, eps)

    monkeypatch.setattr(_kernels, "tree_certificate", spy)
    tables = []
    for seed in range(6):
        tables.append(tree_to_semimetric(random_binary_tree(9, seed, "unit", "rational")).table)
        tables.append(tree_to_semimetric(parse_newick(_fraction_newick(10, seed), mode="rational")).table)
    seen = {True: 0, False: 0}
    for tab in tables:
        bumped = tab.copy()
        i, j = np.unravel_index(np.argmax(tab.astype(float)), tab.shape)
        bumped[i, j] = bumped[j, i] = tab[i, j] + Fraction(1, 3)
        for t in (tab, bumped):
            rho = semimetric_from_table(_labels(len(t)), t, mode="rational", validate=False)
            cells.clear()
            got = four_point_check(rho)
            assert cells and set(cells) == {int}
            assert got == four_point_check(rho.to_float())
            seen[got[0]] += 1
    assert seen[True] == len(tables) and seen[False] == len(tables)


def test_validate_rational_n80_tree(capsys, tmp_path):
    from treegromov.cli import main

    path = tmp_path / "tree.nwk"
    path.write_text(_fraction_newick(80, 3) + "\n")
    want = (
        "symmetric: PASS\nzero-diagonal: PASS\nnonnegative: PASS\ntriangle: PASS\n"
        "four-point: PASS\nsource: tree, 80 taxa\n"
    )
    for mode in ("rational", "float"):
        assert main(["validate", str(path), "--mode", mode]) == 0
        assert capsys.readouterr().out == want


# ---------------------------------------------------------------------------
# path-difference distances


def test_pd_distance_values():
    r1 = tree_to_semimetric(parse_newick("((1,2),(3,4));"))
    r2 = tree_to_semimetric(parse_newick("((1,3),(2,4));"))
    assert pd_distance(r1, r2, 1) == pytest.approx(4.0)
    assert pd_distance(r1, r2, 2) == pytest.approx(2.0)
    assert pd_distance(r1, r2, "inf") == pytest.approx(1.0)
    assert pd_distance_squared(r1, r2) == pytest.approx(4.0)


def test_pd_distance_rational_exact_sqrt():
    r1 = tree_to_semimetric(parse_newick("((1,2),(3,4));", mode="rational"))
    r2 = tree_to_semimetric(parse_newick("((1,3),(2,4));", mode="rational"))
    assert pd_distance(r1, r2, 1) == Fraction(4)
    assert pd_distance(r1, r2, 2) == Fraction(2)  # sqrt(4) is exact
    assert pd_distance(r1, r2, "inf") == Fraction(1)


def test_pd_distance_rational_matches_fraction_sums():
    # the integer route against the pair differences summed as Fractions:
    # mixed denominators, and entries above 2**61 whose squares and sums
    # leave int64
    rng = np.random.default_rng(9)
    for big in (1, Fraction(2**70 + 1, 3)):
        for n in (1, 2, 7, 15):
            labs = [f"t{k}" for k in range(n)]
            tabs = []
            for _ in range(2):
                cut = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(1, 9, n), rng.choice([1, 3, 7], n))]
                # a star metric: d(x, y) = cut_x + cut_y
                tabs.append([[0 if x == y else big * (cut[x] + cut[y]) for y in range(n)] for x in range(n)])
            r1, r2 = (semimetric_from_table(labs, t, mode="rational") for t in tabs)
            diffs = [abs(tabs[0][x][y] - tabs[1][x][y]) for x in range(n) for y in range(x + 1, n)]
            assert pd_distance(r1, r2, 1) == sum(diffs, Fraction(0))
            assert pd_distance(r1, r2, "inf") == max(diffs, default=Fraction(0))
            assert pd_distance_squared(r1, r2) == sum((d * d for d in diffs), Fraction(0))
            assert all(
                isinstance(pd_distance(r1, r2, k), Fraction) for k in (1, "inf")
            )


def test_pd_distance_rational_irrational_sqrt_raises():
    tabs = (
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        [[0, 2, 2], [2, 0, 1], [2, 1, 0]],
    )
    r1 = semimetric_from_table(list("abc"), tabs[0], mode="rational")
    r2 = semimetric_from_table(list("abc"), tabs[1], mode="rational")
    assert pd_distance_squared(r1, r2) == Fraction(1)
    assert pd_distance(r1, r2, 2) == Fraction(1)
    r3 = semimetric_from_table(
        list("abc"), [[0, 2, 3], [2, 0, 1], [3, 1, 0]], mode="rational"
    )
    assert pd_distance_squared(r1, r3) == Fraction(2)
    with pytest.raises(ValidationError):
        pd_distance(r1, r3, 2)  # sqrt(2) has no exact rational value


# ---------------------------------------------------------------------------
# splits and Robinson-Foulds


def test_splits_of_quartet():
    t = parse_newick("((1,2),(3,4));")
    splits = splits_of(t)
    assert len(splits) == 5
    nt = nontrivial_splits(t)
    assert len(nt) == 1
    split = next(iter(nt))
    assert split.block_a == ("1", "2")
    assert split.block_b == ("3", "4")


def test_split_canonical_orientation_and_mask():
    s = Split(("3", "4"), ("1", "2"))
    assert s.block_a == ("1", "2")  # block with the least taxon first
    taxa = tree_to_semimetric(parse_newick("((1,2),(3,4));")).taxa
    # block_b = {3,4} occupies positions 2,3 -> mask 0b1100
    assert s.to_bitmask_hex(taxa) == "0xc"


def test_split_bitmask_goldens():
    # frozen: caterpillar 1-2-3-4-5 has interior splits {1,2}|{3,4,5} and
    # {1,2,3}|{4,5}; block_b masks over sorted taxa are 0b11100 and 0b11000
    t = parse_newick("(1,(2,(3,(4,5))));")
    taxa = tree_to_semimetric(t).taxa
    masks = sorted(s.to_bitmask_hex(taxa) for s in nontrivial_splits(t))
    assert masks == ["0x18", "0x1c"]


def test_robinson_foulds_values():
    t1 = parse_newick("((1,2),(3,4));")
    t2 = parse_newick("((1,3),(2,4));")
    assert robinson_foulds(t1, t1) == 0
    assert robinson_foulds(t1, t2) == 2
    c1 = parse_newick("(1,(2,(3,(4,5))));")
    c2 = parse_newick("(1,(3,(2,(4,5))));")
    assert robinson_foulds(c1, c2) == 2


def _split_cases():
    """Random, caterpillar and one-NNI pairs of trees."""
    for seed in range(10):
        n = 4 + 5 * seed
        t1 = random_binary_tree(n, seed, "uniform01")
        t2 = random_binary_tree(n, seed + 100)
        cat = random_caterpillar(n, seed)
        moves = nni_moves(t1)
        yield t1, t2
        yield t1, cat
        yield cat, random_caterpillar(n, seed + 100)
        yield t1, apply_nni(t1, moves[seed % len(moves)])


def _renumbered(tree, seed):
    """The same tree with its vertex ids shuffled, so that vertex 0 (where
    the split pass roots the tree) is some other vertex."""
    perm = np.random.default_rng(seed).permutation(tree.n_vertices)
    edges = [(perm[u], perm[v], w) for u, v, w in tree.edges]
    leaf_map = {lab: perm[v] for lab, v in tree.leaf_map.items()}
    return PhyloTree(tree.n_vertices, edges, leaf_map, tree.mode)


def test_splits_and_robinson_foulds_equal_the_per_edge_walk():
    for k, (t1, t2) in enumerate(_split_cases()):
        t2 = _renumbered(t2, k)
        assert splits_of(t1) == orc.splits_walk(t1)
        assert splits_of(t2) == orc.splits_walk(t2)
        assert robinson_foulds(t1, t2) == orc.robinson_foulds_walk(t1, t2)
    # taxa on internal vertices: trivial splits differ between trees
    for seed in range(8):
        t1 = _random_labelled_tree(3 + 4 * seed, seed)
        t2 = _renumbered(_random_labelled_tree(3 + 4 * seed, seed + 50), seed)
        assert splits_of(t2) == orc.splits_walk(t2)
        assert robinson_foulds(t1, t2) == orc.robinson_foulds_walk(t1, t2)


def test_robinson_foulds_requires_same_taxa():
    t1 = parse_newick("((1,2),(3,4));")
    t2 = parse_newick("((1,2),(3,5));")
    with pytest.raises(ValidationError):
        robinson_foulds(t1, t2)


# ---------------------------------------------------------------------------
# NNI


def test_nni_moves_on_quartet():
    t = parse_newick("((1,2),(3,4));")
    moves = nni_moves(t)
    assert len(moves) == 2
    others = {
        robinson_foulds(apply_nni(t, mv), parse_newick("((1,3),(2,4));"))
        for mv in moves
    }
    # one move reaches each of the two other quartet topologies
    assert others == {0, 2}


def test_nni_move_count_binary():
    for n in (5, 7, 10):
        t = random_binary_tree(n, seed=n)
        assert len(internal_edges(t)) == n - 3
        assert len(nni_moves(t)) == 2 * (n - 3)


def test_nni_quartet_inverse():
    # choice 1 is literally involutive here; choice 2 is undone by
    # choice 1 at the same pivot (positional conventions renumber the
    # neighbor slots after the first exchange)
    t = parse_newick("((1,2),(3,4));")
    mv1, mv2 = nni_moves(t)
    assert robinson_foulds(apply_nni(apply_nni(t, mv1), mv1), t) == 0
    t2 = apply_nni(t, mv2)
    assert robinson_foulds(apply_nni(t2, mv1), t) == 0


def test_nni_inverse_exists_at_same_pivot():
    # the pivot endpoints survive the move, but its index in the sorted
    # edge list may shift, so locate it again before inverting
    for seed in range(10):
        t = random_binary_tree(8, seed=seed)
        for mv in nni_moves(t)[:4]:
            u, v, _ = t.edges[mv.edge]
            t2 = apply_nni(t, mv)
            pivot = next(
                i for i, (a, b, _) in enumerate(t2.edges) if (a, b) == (u, v)
            )
            undone = [
                robinson_foulds(apply_nni(t2, NniMove(pivot, c)), t) for c in (1, 2)
            ]
            assert 0 in undone


def test_nni_preserves_weights_and_taxa():
    t = random_binary_tree(8, seed=5, weight_model="uniform01")
    mv = nni_moves(t)[0]
    t2 = apply_nni(t, mv)
    assert t2.taxa == t.taxa
    assert sorted(w for _, _, w in t2.edges) == sorted(w for _, _, w in t.edges)
    assert robinson_foulds(t, t2) == 2  # exactly one split changes


def test_nni_rejects_non_binary():
    star = parse_newick("(1,2,3,4);")
    assert nni_moves(star) == []
    with pytest.raises(ValidationError):
        apply_nni(star, NniMove(0, 1))


def test_one_nni_unit_pairs_have_dinf_half():
    """One NNI on a unit-weight binary tree changes every leaf-to-leaf
    path by -1, 0, or +1 edges, so max |rho - rho'| = 1 and Dinf = 1/2."""
    from treegromov import GromovSpec, gromov_distance

    for seed in range(6):
        t = random_binary_tree(8, seed=seed)
        mv = nni_moves(t)[seed % len(nni_moves(t))]
        t2 = apply_nni(t, mv)
        r1, r2 = tree_to_semimetric(t), tree_to_semimetric(t2)
        for variant in ("full", "lower"):
            res = gromov_distance(r1, r2, GromovSpec(norm="inf", variant=variant))
            assert res.value == pytest.approx(0.5, abs=1e-12)
    # enumeration oracle confirms on one instance
    t = random_binary_tree(5, seed=2)
    t2 = apply_nni(t, nni_moves(t)[0])
    r1, r2 = tree_to_semimetric(t), tree_to_semimetric(t2)
    assert orc.gromov_oracle(r1.table, r2.table, "inf", "full") == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# restriction


def test_restrict_subtable():
    t = parse_newick("((1,2),(3,(4,5)));")
    rho = tree_to_semimetric(t)
    sub = restrict(rho, ["1", "4", "5"])
    assert sub.taxa.labels == ("1", "4", "5")
    assert sub.dist("4", "5") == rho.dist("4", "5")
    assert sub.dist("1", "4") == rho.dist("1", "4")
    with pytest.raises(ValidationError):
        restrict(rho, ["1", "z"])


# ---------------------------------------------------------------------------
# generators


def test_random_binary_tree_shape_and_determinism():
    t1 = random_binary_tree(10, seed=42)
    t2 = random_binary_tree(10, seed=42)
    assert t1.edges == t2.edges
    assert t1.is_binary()
    assert len(t1.taxa) == 10
    t3 = random_binary_tree(10, seed=43)
    assert t3.edges != t1.edges


def test_random_binary_tree_uniform01_weights():
    t = random_binary_tree(12, seed=3, weight_model="uniform01")
    ws = [w for _, _, w in t.edges]
    assert all(0.0 < w <= 1.0 for w in ws)
    assert len(set(ws)) > 1


def test_random_binary_tree_rational_unit():
    t = random_binary_tree(6, seed=1, mode="rational")
    assert all(w == Fraction(1) for _, _, w in t.edges)
    with pytest.raises(ValidationError):
        random_binary_tree(6, seed=1, weight_model="uniform01", mode="rational")


def test_random_caterpillar_shape():
    t = random_caterpillar(9, seed=0)
    assert len(t.taxa) == 9
    degs = t.degrees()
    leaf_ids = sorted(t.leaf_map.values())
    assert all(degs[v] == 1 for v in leaf_ids)
    # spine of n-2 unit-weight internal vertices
    internal = [v for v in range(t.n_vertices) if v not in leaf_ids]
    assert len(internal) == 7
    assert random_caterpillar(9, seed=0).edges == t.edges


def test_caterpillar_swap_pair_m1():
    ta, tb = caterpillar_swap_pair(1)
    ra, rb = tree_to_semimetric(ta), tree_to_semimetric(tb)
    assert ra.dist("1", "2") == 2.0
    assert ra.dist("1", "5") == 4.0
    # the swap sends 2 to the far end (with 5) and 4 to the near end (with 1)
    assert rb.dist("1", "4") == 2.0
    assert rb.dist("2", "5") == 2.0
    assert rb.dist("1", "2") == 4.0


def test_caterpillar_swap_pair_positions_m2():
    # spine order of the exchanged tree at m=2: [1,8],3,6,5,4,7,[2,9]
    ta, tb = caterpillar_swap_pair(2, mode="rational")
    rb = tree_to_semimetric(tb)
    assert rb.dist("1", "8") == 2  # share the first position
    assert rb.dist("8", "3") == 3  # adjacent positions
    assert rb.dist("1", "9") == 8  # across the whole spine
    assert rb.dist("2", "9") == 2  # share the last position
