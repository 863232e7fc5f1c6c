"""Property tests on random semimetrics drawn by hypothesis."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import _oracles as orc  # noqa: E402
from treegromov import (  # noqa: E402
    GromovSpec,
    _kernels,
    gromov_distance,
    pd_distance,
    quadrangle_feasible,
    random_binary_tree,
    semimetric_from_table,
    tree_to_semimetric,
)
from treegromov.core import RTOL  # noqa: E402


def _closure(n, weights):
    """Shortest-path semimetric of the complete graph on n points whose
    edges carry the drawn integer weights (zero allowed)."""
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = weights
    d = d + d.T
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


@st.composite
def semimetric_pairs(draw, mode="float", max_n=8, count=2):
    n = draw(st.integers(3, max_n))
    m = n * (n - 1) // 2
    labs = [f"t{i}" for i in range(n)]
    tables = [
        _closure(n, draw(st.lists(st.integers(0, 9), min_size=m, max_size=m)))
        for _ in range(count)
    ]
    if mode == "rational":
        tables = [t.astype(int).tolist() for t in tables]
    return tuple(semimetric_from_table(labs, t, mode=mode) for t in tables)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(semimetric_pairs())
def test_full_d1_is_feasible_and_matches_the_primal_oracle(pair):
    r1, r2 = pair
    n = len(r1.taxa)
    res = gromov_distance(r1, r2, GromovSpec(norm=1))
    ok, violations = quadrangle_feasible(r1, r2, res.argmin)
    assert ok, violations
    A, b, _ = orc.assemble_dense(r1.table, r2.table, "full")
    want, _ = orc.lp_primal_oracle(np.ones(n), A, b)
    assert res.value == pytest.approx(want, abs=1e-9 * max(1.0, float(np.abs(b).max())))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(semimetric_pairs(mode="rational"))
def test_rational_bounded_and_swapped_values_are_exact(pair):
    # the bound rows never bind, and the program is symmetric in its inputs
    r1, r2 = pair
    for norm in (1, "inf"):
        value = gromov_distance(r1, r2, GromovSpec(norm=norm)).value
        assert gromov_distance(r1, r2, GromovSpec(norm=norm, bounded=True)).value == value
        assert gromov_distance(r2, r1, GromovSpec(norm=norm)).value == value


@st.composite
def permuted_pairs(draw):
    """A rational pair, and the same pair with its taxa relabelled by a
    drawn permutation (row and column k of the tables move to perm[k])."""
    r1, r2 = draw(semimetric_pairs(mode="rational", max_n=6))  # brute force below
    n = len(r1.taxa)
    perm = draw(st.permutations(range(n)))
    labs = list(r1.taxa.labels)
    inv = np.argsort(perm)
    moved = tuple(
        semimetric_from_table(labs, r.table[np.ix_(inv, inv)].tolist(), mode="rational")
        for r in (r1, r2)
    )
    return (r1, r2), moved


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(permuted_pairs())
def test_d1_is_half_the_max_assignment_and_ignores_taxon_order(pairs):
    (r1, r2), (p1, p2) = pairs
    n = len(r1.taxa)
    g = np.abs(r1.table - r2.table).tolist()
    best = max(sum(g[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
    value = gromov_distance(r1, r2, GromovSpec(norm=1)).value
    assert isinstance(value, Fraction) and value == Fraction(best) / 2
    assert gromov_distance(p1, p2, GromovSpec(norm=1)).value == value


@st.composite
def bumped_trees(draw, mode="float"):
    """A random tree metric with a few cells moved: by multiples of the
    scan's tolerance in float mode, by small Fractions in rational mode.
    Returns (table, tol)."""
    n = draw(st.integers(4, 10))
    seed = draw(st.integers(0, 10**6))
    if mode == "float":
        model = draw(st.sampled_from(["unit", "uniform01"]))
        tab = tree_to_semimetric(random_binary_tree(n, seed, model)).table.copy()
        tab *= 10.0 ** draw(st.integers(-6, 8))
        tol = RTOL * tab.max()
        step = st.floats(-8.0, 8.0).map(lambda f: f * tol)
    else:
        tab = tree_to_semimetric(random_binary_tree(n, seed, mode="rational")).table.copy()
        tol = 0
        step = st.fractions(-2, 2, max_denominator=10**6)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), step)
    for i, j, bump in draw(st.lists(pairs, max_size=4)):
        if i != j:
            tab[i, j] = tab[j, i] = tab[i, j] + bump
    return tab, tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bumped_trees())
def test_tree_certificate_never_accepts_a_table_the_scan_rejects(case):
    tab, tol = case
    if _kernels.tree_certificate(tab.tolist(), tol / 8):
        assert _kernels.four_point(tab, tol)[0] < 0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(bumped_trees(mode="rational"))
def test_exact_tree_certificate_agrees_with_the_scan(case):
    tab, _ = case
    accepted = _kernels.tree_certificate(tab.tolist(), 0)
    assert accepted == (_kernels.four_point(tab, 0)[0] < 0)


NORMS = (1, 2, "inf")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(semimetric_pairs(), st.integers(-6, 8), st.floats(1.0, 9.99))
def test_distances_scale_with_the_tables(pair, exponent, mantissa):
    # D(c rho, c rho') = c D(rho, rho'): every row is homogeneous of degree
    # one and the norms are too
    r1, r2 = pair
    c = mantissa * 10.0**exponent
    s1, s2 = r1.scaled(c), r2.scaled(c)
    scale = c * max(1.0, r1.table.max(), r2.table.max())
    for norm in NORMS:
        want = c * gromov_distance(r1, r2, GromovSpec(norm=norm)).value
        got = gromov_distance(s1, s2, GromovSpec(norm=norm)).value
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * scale)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(semimetric_pairs(count=3))
def test_distances_meet_the_triangle_inequality(triple):
    # delta_ab + delta_bc meets every pair row of (a, c), so the sum of two
    # optima bounds the third
    a, b, c = triple
    scale = max(1.0, *(float(r.table.max()) for r in triple))
    for norm in NORMS:
        spec = GromovSpec(norm=norm)
        ab, bc, ac = (gromov_distance(x, y, spec).value for x, y in ((a, b), (b, c), (a, c)))
        assert ac <= ab + bc + 1e-9 * scale


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(semimetric_pairs())
def test_d2_is_at_least_pd2_over_root_two_n_minus_one(pair):
    # summing (delta_x + delta_y)^2 <= 2 (delta_x^2 + delta_y^2) over the
    # pairs gives PD2^2 <= 2 (n - 1) D2^2
    r1, r2 = pair
    n = len(r1.taxa)
    d2 = gromov_distance(r1, r2, GromovSpec(norm=2)).value
    bound = pd_distance(r1, r2, 2) / math.sqrt(2 * (n - 1))
    assert d2 >= bound - 1e-9 * max(1.0, r1.table.max(), r2.table.max())
