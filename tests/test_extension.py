"""Graph shortest-path metrics, extendability criteria, amalgamation."""

from fractions import Fraction

import numpy as np
import pytest

import _oracles as orc
from treegromov import (
    TreegromovError,
    ValidationError,
    WeightedGraph,
    amalgamate,
    check_extendable,
    check_extendable_minimal_cycles,
    chordless_cycles,
    graph_metric,
    parse_edge_list,
    parse_newick,
    restrict,
    semimetric_from_table,
    tree_to_semimetric,
)


def _random_graph(rng, nmax=12, mode="float"):
    n = int(rng.integers(4, nmax + 1))
    labs = [f"v{i:02d}" for i in range(n)]
    edges = []
    # random spanning tree keeps it connected
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((labs[i], labs[j]))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False)
        e = (labs[min(i, j)], labs[max(i, j)])
        if e not in edges and (e[1], e[0]) not in edges:
            edges.append(e)
    if mode == "rational":
        weighted = [(u, v, Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 4)))) for u, v in edges]
    else:
        weighted = [(u, v, float(rng.uniform(0.5, 4.0))) for u, v in edges]
    return WeightedGraph(labs, weighted, mode=mode)


# ---------------------------------------------------------------------------
# graphs and their metrics


def test_weighted_graph_validation():
    with pytest.raises(ValidationError):
        WeightedGraph(["a"], [("a", "a", 1.0)])
    with pytest.raises(ValidationError):
        WeightedGraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 2.0)])
    with pytest.raises(ValidationError):
        WeightedGraph(["a", "b"], [("a", "b", -1.0)])
    with pytest.raises(ValidationError):
        WeightedGraph(["a", "b"], [("a", "c", 1.0)])
    with pytest.raises(ValidationError):
        WeightedGraph(["a", 3], [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_weighted_graph_rejects_non_finite_weights(bad):
    # a NaN weight used to pass and then read as "graph is disconnected"
    with pytest.raises(ValidationError, match=r"non-finite weight .* on \('b','c'\)"):
        WeightedGraph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", bad)])


def test_graph_metric_path():
    g = WeightedGraph(
        ["a", "b", "c", "d"],
        [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 1.5)],
    )
    d = graph_metric(g)
    assert d.dist("a", "d") == pytest.approx(4.5)
    assert d.dist("a", "c") == pytest.approx(3.0)


def test_graph_metric_shortcut():
    g = WeightedGraph(
        ["a", "b", "c"],
        [("a", "b", 5.0), ("a", "c", 1.0), ("c", "b", 1.0)],
    )
    d = graph_metric(g)
    assert d.dist("a", "b") == pytest.approx(2.0)


def test_graph_metric_rational_exact():
    g = WeightedGraph(
        ["a", "b", "c"],
        [("a", "b", Fraction(1, 3)), ("b", "c", Fraction(1, 6))],
        mode="rational",
    )
    d = graph_metric(g)
    assert d.dist("a", "c") == Fraction(1, 2)
    assert all(type(x) is Fraction for x in d.table.ravel())
    rng = np.random.default_rng(8)
    for _ in range(5):
        d = graph_metric(_random_graph(rng, mode="rational"))
        assert all(type(x) is Fraction for x in d.table.ravel())


def test_graph_metric_modes_agree():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        labs = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges.append((labs[i], labs[j], int(rng.integers(1, 7))))
        gf = WeightedGraph(labs, [(u, v, float(w)) for u, v, w in edges])
        gr = WeightedGraph(labs, [(u, v, Fraction(w)) for u, v, w in edges], mode="rational")
        df, dr = graph_metric(gf), graph_metric(gr)
        for a in labs:
            for b in labs:
                assert df.dist(a, b) == pytest.approx(float(dr.dist(a, b)), abs=1e-9)


def test_graph_metric_disconnected():
    for mode in ("float", "rational"):
        g = WeightedGraph(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 2)], mode=mode)
        for check in (graph_metric, check_extendable):
            with pytest.raises(ValidationError, match="graph is disconnected"):
                check(g)


def test_graph_metric_satisfies_triangle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = _random_graph(rng, nmax=9)
        d = graph_metric(g)
        labs = d.taxa.labels
        for a in labs:
            for b in labs:
                for c in labs:
                    assert d.dist(a, c) <= d.dist(a, b) + d.dist(b, c) + 1e-9


# ---------------------------------------------------------------------------
# chordless cycles


def test_chordless_cycles_k4():
    labs = ["a", "b", "c", "d"]
    edges = [(u, v, 1.0) for i, u in enumerate(labs) for v in labs[i + 1 :]]
    g = WeightedGraph(labs, edges)
    cycles = chordless_cycles(g)
    assert len(cycles) == 4
    assert all(len(c) == 3 for c in cycles)


def test_chordless_cycles_c5():
    labs = ["a", "b", "c", "d", "e"]
    edges = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "e", 1.0), ("e", "a", 1.0)]
    g = WeightedGraph(labs, edges)
    cycles = chordless_cycles(g)
    assert len(cycles) == 1
    assert len(cycles[0]) == 5


def test_chordless_cycles_c4_with_chord():
    labs = ["a", "b", "c", "d"]
    edges = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0), ("a", "c", 1.0)]
    g = WeightedGraph(labs, edges)
    cycles = chordless_cycles(g)
    # the chord splits the square into two triangles; the square itself
    # has a chord and is excluded
    assert sorted(len(c) for c in cycles) == [3, 3]


def test_chordless_cycles_tree_has_none():
    g = WeightedGraph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)])
    assert chordless_cycles(g) == []


def test_chordless_cycles_cap():
    n = 20
    labs = [f"v{i:02d}" for i in range(n)]
    edges = [(labs[i], labs[(i + 1) % n], 1.0) for i in range(n)]
    g = WeightedGraph(labs, edges)
    with pytest.raises(ValidationError):
        chordless_cycles(g, cap=16)
    assert len(chordless_cycles(g, cap=20)) == 1


# ---------------------------------------------------------------------------
# extendability


def test_extendable_tree_edges():
    t = parse_newick("((a:1,b:2):1,(c:3,d:1):2);")
    d = tree_to_semimetric(t)
    labs = list(d.taxa.labels)
    edges = [(u, v, d.dist(u, v)) for i, u in enumerate(labs) for v in labs[i + 1 :]]
    g = WeightedGraph(labs, edges)
    ok, witness = check_extendable(g)
    assert ok and witness is None


def test_not_extendable_heavy_edge():
    g = WeightedGraph(
        ["a", "b", "c"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 5.0)],
    )
    ok, witness = check_extendable(g)
    assert not ok
    assert witness == ("a", "c", 5.0)


def test_extendable_rational_boundary():
    # 2w == cycle length exactly: still extendable
    g = WeightedGraph(
        ["a", "b", "c"],
        [("a", "b", Fraction(1)), ("b", "c", Fraction(1)), ("a", "c", Fraction(2))],
        mode="rational",
    )
    ok, _ = check_extendable(g)
    assert ok
    g2 = WeightedGraph(
        ["a", "b", "c"],
        [("a", "b", Fraction(1)), ("b", "c", Fraction(1)), ("a", "c", Fraction(2) + Fraction(1, 10**12))],
        mode="rational",
    )
    ok2, witness = check_extendable(g2)
    assert not ok2
    assert witness[:2] == ("a", "c")


def test_extendability_criteria_agree():
    """The direct shortest-path check and the chordless-cycle check decide
    the same way on random graphs."""
    rng = np.random.default_rng(99)
    agree_true = agree_false = 0
    for _ in range(200):
        g = _random_graph(rng, nmax=12)
        a, _ = check_extendable(g)
        b = check_extendable_minimal_cycles(g)
        assert a == b
        if a:
            agree_true += 1
        else:
            agree_false += 1
    # the sweep must exercise both outcomes
    assert agree_true > 10
    assert agree_false > 10


def test_extendability_criteria_agree_rational():
    rng = np.random.default_rng(123)
    for _ in range(40):
        g = _random_graph(rng, nmax=9, mode="rational")
        a, _ = check_extendable(g)
        assert a == check_extendable_minimal_cycles(g)


# ---------------------------------------------------------------------------
# amalgamation


def test_amalgamate_trees_sharing_pair():
    t1 = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
    t2 = parse_newick("((c:1,d:1):1,(e:1,f:1):1);")
    d1, d2 = tree_to_semimetric(t1), tree_to_semimetric(t2)
    merged = amalgamate(d1, d2)
    assert set(merged.taxa.labels) == {"a", "b", "c", "d", "e", "f"}
    assert restrict(merged, ["a", "b", "c", "d"]) == d1
    assert restrict(merged, ["c", "d", "e", "f"]) == d2
    # a-to-e goes through the shared block
    assert merged.dist("a", "e") <= merged.dist("a", "c") + merged.dist("c", "e") + 1e-12


def test_amalgamate_rational_exact():
    t1 = parse_newick("((a:1,b:1):1,(c:1,d:1):1);", mode="rational")
    t2 = parse_newick("((c:1,d:1):1,(e:1,f:1):1);", mode="rational")
    d1, d2 = tree_to_semimetric(t1), tree_to_semimetric(t2)
    merged = amalgamate(d1, d2)
    assert merged.dist("a", "e") == Fraction(8)
    assert restrict(merged, ["a", "b", "c", "d"]) == d1


def test_amalgamate_disagreement():
    labs = ["a", "b", "c"]
    d1 = semimetric_from_table(labs, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    d2 = semimetric_from_table(["b", "c", "d"], [[0, 5, 1], [5, 0, 4], [1, 4, 0]])
    with pytest.raises(ValidationError):
        amalgamate(d1, d2)


def test_amalgamate_no_shared():
    d1 = semimetric_from_table(["a", "b"], [[0, 1], [1, 0]])
    d2 = semimetric_from_table(["c", "d"], [[0, 1], [1, 0]])
    with pytest.raises(ValidationError):
        amalgamate(d1, d2)


def test_amalgamate_two_shared_points():
    d1 = semimetric_from_table(
        ["a", "s", "t"], [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
    )
    d2 = semimetric_from_table(
        ["b", "s", "t"], [[0, 5, 5], [5, 0, 2], [5, 2, 0]]
    )
    merged = amalgamate(d1, d2)
    assert merged.dist("a", "b") == pytest.approx(6.0)
    d3 = semimetric_from_table(
        ["b", "s", "t"], [[0, 0.4, 0.4], [0.4, 0, 0.8], [0.4, 0.8, 0]]
    )
    with pytest.raises(ValidationError):
        # shared distances disagree between the two inputs
        amalgamate(d1, d3)


def test_amalgamate_restriction_failure_raises():
    """Both inputs satisfying the triangle inequality makes the glued
    restriction provably exact, so the defensive check only fires for
    tables built unvalidated."""
    d1 = semimetric_from_table(
        ["a", "s", "t"], [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
    )
    cheat = semimetric_from_table(
        ["b", "s", "t"],
        [[0, 0.3, 0.3], [0.3, 0, 2], [0.3, 2, 0]],
        validate=False,
    )
    with pytest.raises(TreegromovError):
        # the s-b-t detour of length 0.6 undercuts the shared distance 2
        amalgamate(d1, cheat)


# ---------------------------------------------------------------------------
# edge list parsing


def test_parse_edge_list():
    text = "# comment\na b 1.5\nb c 2\n\nc d 0.5\n"
    g = parse_edge_list(text)
    assert g.vertices == ("a", "b", "c", "d")
    d = graph_metric(g)
    assert d.dist("a", "d") == pytest.approx(4.0)


def test_parse_edge_list_rational():
    g = parse_edge_list("a b 1/3\nb c 2/3\n", mode="rational")
    d = graph_metric(g)
    assert d.dist("a", "c") == Fraction(1)


def test_parse_edge_list_errors():
    from treegromov import ParseError

    with pytest.raises(ParseError):
        parse_edge_list("a b\n")
    with pytest.raises(ParseError):
        parse_edge_list("a b xyz\n")
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ValidationError):
        parse_edge_list("a a 1\n")


# ---------------------------------------------------------------------------
# cross-checks with the four-point world


def test_graph_metric_vs_tree_metric():
    """A tree drawn as a graph yields the same semimetric as the tree
    pipeline (restricted to leaves)."""
    t = parse_newick("((a:1,b:2):1.5,(c:3,d:1):2);")
    want = tree_to_semimetric(t)
    # rebuild the same tree as an explicit vertex/edge graph
    g = WeightedGraph(
        ["a", "b", "c", "d", "u", "v"],
        [
            ("a", "u", 1.0),
            ("b", "u", 2.0),
            ("u", "v", 3.5),
            ("c", "v", 3.0),
            ("d", "v", 1.0),
        ],
    )
    d = graph_metric(g)
    got = restrict(d, ["a", "b", "c", "d"])
    assert got == want or all(
        got.dist(x, y) == pytest.approx(want.dist(x, y), abs=1e-12)
        for x in "abcd"
        for y in "abcd"
    )


def test_dijkstra_oracle_agrees():
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = _random_graph(rng, nmax=8)
        d = graph_metric(g)
        # re-derive with the tests' independent Dijkstra
        labs = list(g.vertices)
        idx = {l: i for i, l in enumerate(labs)}
        adj = {l: [] for l in labs}
        for u, v, w in g.edge_labels():
            adj[u].append((v, float(w)))
            adj[v].append((u, float(w)))
        import heapq

        for src in labs:
            dist = {l: float("inf") for l in labs}
            dist[src] = 0.0
            pq = [(0.0, src)]
            while pq:
                du, u = heapq.heappop(pq)
                if du > dist[u]:
                    continue
                for v, w in adj[u]:
                    nd = du + w
                    if nd < dist[v] - 1e-15:
                        dist[v] = nd
                        heapq.heappush(pq, (nd, v))
            for dst in labs:
                assert d.dist(src, dst) == pytest.approx(dist[dst], abs=1e-9)
