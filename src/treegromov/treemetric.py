"""Tree-induced semimetrics, four-point checks, splits, NNI moves, and
baseline metrics (path-difference, Robinson-Foulds), plus tree generators.

four_point_check certifies tree metrics in O(n^2) before it scans the
O(n^4) quadruples (Buneman 1974).  The certificate reads the Gromov
products at taxon 0, P(x,y) = (d(0,x) + d(0,y) - d(x,y))/2, and succeeds
when P(x,y) >= B(x,y) - eps for every pair x, y >= 1, where B(x,y) is the
smallest edge on the path between x and y in a maximum spanning tree of P.
It then holds that no quadruple's four-point slack (largest pairing sum
minus the middle one) exceeds 4*eps.  The argument needs only symmetry,
not the triangle inequality:

* Each B(x,y) >= P(x,y) (a spanning-tree edge is at least every pair it
  bridges) and B is an ultrametric, so
  P(x,y) >= B(x,y) - eps >= min(B(x,z), B(z,y)) - eps
  >= min(P(x,z), P(z,y)) - eps: P is an eps-ultrametric.
* The pairing sums of a quadruple {0,x,y,z} are S - 2P(x,y),
  S - 2P(x,z) and S - 2P(y,z) with S = d(0,x) + d(0,y) + d(0,z), so its
  slack is 2*(mid - min) of its three products, at most 2*eps.
* Gromov products that are an eps-ultrametric at one base point are a
  2*eps-ultrametric at every base point (Gromov 1987; Ghys-de la Harpe
  1990, ch. 2).  Every quadruple contains a base point, so its slack is at
  most 4*eps.

In float mode eps = tol/8, where tol = RTOL * S is the scan's own
tolerance and S the largest entry (core.tolerance), so a certified table
has slack at most tol/2.  The other half of tol absorbs rounding: on a
nonnegative table every entry, Gromov product and pairing sum is at most
2S, so the few roundings between them are a few ulps of 2S, far below
tol/2 = 5e-10 S.  At S = 0 the table is zero, tol = 0 and nothing
rounds.  A certified table therefore never holds a quadruple the
scan would flag, and the scan runs only when the certificate fails.  In
rational mode eps = 0, and the certificate holds exactly when the table is
a tree metric; it runs on the table times the lcm of its denominators,
since at eps = 0 every comparison it makes is unchanged by a positive
scaling.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import _kernels
from .core import (
    MODE_FLOAT,
    MODE_RATIONAL,
    PhyloTree,
    Semimetric,
    TaxonSet,
    ValidationError,
    _as_integers,
    as_scalar,
    check_mode,
    tolerance,
)


def normalize_norm(norm) -> str:
    """Map 1 / 2 / inf in their common spellings to '1' / '2' / 'inf'."""
    if norm in (1, "1"):
        return "1"
    if norm in (2, "2"):
        return "2"
    if norm in ("inf", "Inf", "INF") or norm == math.inf:
        return "inf"
    raise ValidationError(f"norm must be 1, 2, or inf, got {norm!r}")


# ---------------------------------------------------------------------------
# Induced semimetric
# ---------------------------------------------------------------------------

def tree_to_semimetric(tree: PhyloTree) -> Semimetric:
    """Path-length distances between taxa (exact in rational mode).

    Two sweeps over the tree's stored rooted form (PhyloTree._rooted,
    rooted at vertex 0) fill a (vertices x taxa) table D with D[v, x] =
    dist_x(v).  The taxa are numbered in preorder, so the taxa below v
    form a column range [lo_v, hi_v).  With p the parent of v and w the
    weight of their edge, a post-order sweep sets D[p, lo_v:hi_v] =
    D[v, lo_v:hi_v] + w (v is p's hop toward those taxa) and a preorder
    sweep sets D[v, x] = D[p, x] + w for every other x (p is v's hop).
    Each entry is thus dist_x(hop) + w with hop the neighbour toward x, so
    every distance is summed along its path starting from x, in the same
    order as a traversal out of x.  Cell (x, y) is read from the taxon
    earlier in canonical order and written into both cells, so float
    tables are exactly symmetric."""
    taxa = tree.taxa
    n = len(taxa)
    n_vertices = tree.n_vertices
    order, parent, weight = tree._rooted
    vert = [tree.leaf_map[lab] for lab in taxa.labels]
    taxon_at = [-1] * n_vertices
    for i, v in enumerate(vert):
        taxon_at[v] = i
    column = [0] * n  # preorder column of each canonical taxon
    lo = [0] * n_vertices
    hi = [0] * n_vertices
    count = 0
    for v in order:
        lo[v] = count
        if taxon_at[v] >= 0:
            column[taxon_at[v]] = count
            count += 1
        hi[v] = count
    for v in reversed(order[1:]):
        hi[parent[v]] = max(hi[parent[v]], hi[v])
    zero = as_scalar(0, tree.mode)
    dtype = np.float64 if tree.mode == MODE_FLOAT else object
    dist = np.full((n_vertices, n), zero, dtype=dtype)
    for v in reversed(order[1:]):
        a, b = lo[v], hi[v]
        dist[parent[v], a:b] = dist[v, a:b] + weight[v]
    for v in order[1:]:
        a, b, p, w = lo[v], hi[v], parent[v], weight[v]
        dist[v, :a] = dist[p, :a] + w
        dist[v, b:] = dist[p, b:] + w
    # from_x[y, x] = dist_x(y) over canonical taxa; cell (x, y), x < y,
    # takes the sum started at x
    from_x = dist[np.ix_(vert, column)]
    iu, ju = np.triu_indices(n, 1)
    table = np.full((n, n), zero, dtype=dtype)
    table[iu, ju] = table[ju, iu] = from_x[ju, iu]
    return Semimetric(taxa, table, tree.mode, validate=False)


# ---------------------------------------------------------------------------
# Four-point condition
# ---------------------------------------------------------------------------

def four_point_check(rho: Semimetric):
    """Tree-realizability test.

    Returns (True, None) when for every quadruple the largest of the three
    pairing sums ties the second largest; otherwise (False, witness) with
    the first violating taxon quadruple in lexicographic order.  Exact in
    rational mode, within core.tolerance of the table in float mode.  An
    O(n^2) certificate (see the module docstring) accepts tree metrics; the
    O(n^4) scan runs only when it fails.
    """
    d = rho.table
    if rho.mode == MODE_FLOAT:
        tol = tolerance(d)
        # the docstring's rounding margin needs entries in [0, max d]
        certified = d.min(initial=0.0) >= 0 and _kernels.tree_certificate(
            d.tolist(), tol / 8
        )
    else:
        tol = 0
        certified = _kernels.tree_certificate(_as_integers(d)[0].tolist(), 0)
    if certified:
        return True, None
    i, j, k, l = _kernels.four_point(d, tol)
    if i < 0:
        return True, None
    labs = rho.taxa.labels
    return False, (labs[i], labs[j], labs[k], labs[l])


# ---------------------------------------------------------------------------
# Path-difference metrics
# ---------------------------------------------------------------------------

def _check_comparable(rho: Semimetric, rho_prime: Semimetric):
    if rho.taxa != rho_prime.taxa:
        raise ValidationError("taxon sets differ")
    if rho.mode != rho_prime.mode:
        raise ValidationError("modes differ")


def _pair_diffs(rho: Semimetric, rho_prime: Semimetric):
    """(diffs, den): |rho - rho'| on the pairs i < j, as floats with den 1,
    or in rational mode as Python ints, the pair entries of both tables
    times den, the lcm of all their denominators (core._as_integers)."""
    iu = np.triu_indices(len(rho.taxa), k=1)
    d, dp = rho.table[iu], rho_prime.table[iu]
    if rho.mode == MODE_FLOAT:
        return np.abs(d - dp), 1
    ints, den = _as_integers(np.concatenate([d, dp]))
    m = len(d)
    # object dtype: a sum or square of int64 entries could overflow
    return np.abs(ints[:m] - ints[m:]).astype(object), den


def pd_distance_squared(rho: Semimetric, rho_prime: Semimetric):
    """Exact sum of squared pair differences (any mode)."""
    _check_comparable(rho, rho_prime)
    diffs, den = _pair_diffs(rho, rho_prime)
    total = np.dot(diffs, diffs)
    return float(total) if rho.mode == MODE_FLOAT else Fraction(total, den * den)


def pd_distance(rho: Semimetric, rho_prime: Semimetric, norm):
    """Entrywise-difference distance over the n(n-1)/2 taxon pairs; exact
    in rational mode, where the sums run on integers and divide once."""
    _check_comparable(rho, rho_prime)
    key = normalize_norm(norm)
    if key == "2":
        square = pd_distance_squared(rho, rho_prime)
        if rho.mode == MODE_FLOAT:
            return math.sqrt(square)
        root = _exact_sqrt(square)
        if root is None:
            raise ValidationError(
                "norm-2 path difference is irrational here; use "
                "pd_distance_squared or float mode"
            )
        return root
    diffs, den = _pair_diffs(rho, rho_prime)
    total = diffs.sum() if key == "1" else diffs.max(initial=0)
    return float(total) if rho.mode == MODE_FLOAT else Fraction(total, den)


def _exact_sqrt(q: Fraction):
    """Square root of a nonnegative Fraction when rational, else None."""
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


# ---------------------------------------------------------------------------
# Splits and Robinson-Foulds
# ---------------------------------------------------------------------------

class Split:
    """Bipartition A|B of a taxon set; the block holding the
    lexicographically least taxon is stored first, so A|B == B|A."""

    __slots__ = ("block_a", "block_b")

    def __init__(self, block_a, block_b):
        a = tuple(sorted(block_a))
        b = tuple(sorted(block_b))
        if not a or not b:
            raise ValidationError("split blocks must be non-empty")
        if set(a) & set(b):
            raise ValidationError("split blocks must be disjoint")
        if b[0] < a[0]:
            a, b = b, a
        object.__setattr__(self, "block_a", a)
        object.__setattr__(self, "block_b", b)

    def __setattr__(self, name, value):
        raise AttributeError("Split is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Split)
            and self.block_a == other.block_a
            and self.block_b == other.block_b
        )

    def __hash__(self):
        return hash((self.block_a, self.block_b))

    def __repr__(self):
        return f"Split({'|'.join(','.join(b) for b in (self.block_a, self.block_b))})"

    def is_trivial(self) -> bool:
        return min(len(self.block_a), len(self.block_b)) == 1

    def to_bitmask_hex(self, taxa: TaxonSet) -> str:
        """Hex bitmask of block_b positions; stable golden for tests."""
        mask = 0
        for lab in self.block_b:
            mask |= 1 << taxa.position(lab)
        return hex(mask)


def _split_masks(tree: PhyloTree):
    """Every edge's split as an int bitmask over canonical taxon positions:
    the taxa below the edge's lower end in the tree's stored rooted form
    (PhyloTree._rooted, rooted at vertex 0), gathered in one post-order
    pass."""
    order, parent, _ = tree._rooted
    mask = [0] * tree.n_vertices
    for lab, v in tree.leaf_map.items():
        mask[v] = 1 << tree.taxa.index[lab]
    for v in reversed(order[1:]):
        mask[parent[v]] |= mask[v]
    return [mask[v] for v in order[1:]]


def splits_of(tree: PhyloTree) -> set:
    """One split per edge: the taxa on either side of its removal."""
    labs = tree.taxa.labels
    out = set()
    for mask in _split_masks(tree):
        sides = ([], [])
        for k, lab in enumerate(labs):
            sides[mask >> k & 1].append(lab)
        out.add(Split(*sides))
    return out


def nontrivial_splits(tree: PhyloTree) -> set:
    return {s for s in splits_of(tree) if not s.is_trivial()}


def _nontrivial_masks(tree: PhyloTree) -> set:
    """The non-trivial splits as bitmasks, each turned to the side without
    taxon 0 so that one split has one mask."""
    n = len(tree.taxa)
    full = (1 << n) - 1
    out = set()
    for mask in _split_masks(tree):
        if mask & 1:
            mask ^= full
        if 2 <= mask.bit_count() <= n - 2:
            out.add(mask)
    return out


def robinson_foulds(t1: PhyloTree, t2: PhyloTree) -> int:
    """Symmetric difference count of the non-trivial split sets."""
    if t1.taxa != t2.taxa:
        raise ValidationError("taxon sets differ")
    return len(_nontrivial_masks(t1) ^ _nontrivial_masks(t2))


# ---------------------------------------------------------------------------
# NNI moves
# ---------------------------------------------------------------------------

class NniMove:
    """One nearest-neighbor interchange.

    ``edge`` indexes tree.edges and must be internal (both endpoints
    unlabeled, degree 3).  With the pivot (u, v), u < v, u's other
    neighbors sorted as (a1, a2) and v's as (b1, b2): choice 1 exchanges
    the subtrees behind a2 and b1, choice 2 those behind a2 and b2.  The
    two choices produce the two alternative quartet topologies around the
    pivot; moved edges keep their weights.
    """

    __slots__ = ("edge", "choice")

    def __init__(self, edge: int, choice: int):
        if choice not in (1, 2):
            raise ValidationError(f"choice must be 1 or 2, got {choice}")
        object.__setattr__(self, "edge", int(edge))
        object.__setattr__(self, "choice", int(choice))

    def __setattr__(self, name, value):
        raise AttributeError("NniMove is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, NniMove)
            and self.edge == other.edge
            and self.choice == other.choice
        )

    def __hash__(self):
        return hash((self.edge, self.choice))

    def __repr__(self):
        return f"NniMove(edge={self.edge}, choice={self.choice})"


def internal_edges(tree: PhyloTree):
    """Edge ids whose endpoints are both unlabeled (degree 3 if binary)."""
    labeled = tree.labeled_vertices()
    return [
        i
        for i, (u, v, _) in enumerate(tree.edges)
        if u not in labeled and v not in labeled
    ]


def nni_moves(tree: PhyloTree):
    """All NNI moves: internal edges ascending, choices 1 then 2."""
    return [NniMove(e, c) for e in internal_edges(tree) for c in (1, 2)]


def apply_nni(tree: PhyloTree, move: NniMove) -> PhyloTree:
    """Perform the designated subtree exchange across an internal edge."""
    if not tree.is_binary():
        raise ValidationError("NNI moves require a binary tree")
    if not 0 <= move.edge < len(tree.edges):
        raise ValidationError(f"edge id {move.edge} out of range")
    u, v, _w = tree.edges[move.edge]
    labeled = tree.labeled_vertices()
    if u in labeled or v in labeled:
        raise ValidationError(f"edge {move.edge} is not internal")
    adj = tree._adj
    a1, a2 = sorted(nbr for nbr, _ in adj[u] if nbr != v)
    b1, b2 = sorted(nbr for nbr, _ in adj[v] if nbr != u)
    swap_b = b1 if move.choice == 1 else b2
    edges = []
    for a, b, w in tree.edges:
        pair = {a, b}
        if pair == {u, a2}:
            edges.append((v, a2, w))
        elif pair == {v, swap_b}:
            edges.append((u, swap_b, w))
        else:
            edges.append((a, b, w))
    return PhyloTree(tree.n_vertices, edges, tree.leaf_map, tree.mode)


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------

def restrict(rho: Semimetric, subset) -> Semimetric:
    """Sub-table on a subset of the taxa (still a valid Semimetric)."""
    if not isinstance(subset, TaxonSet):
        subset = TaxonSet(subset)
    idx = np.array([rho.taxa.position(lab) for lab in subset.labels])
    return Semimetric(subset, rho.table[np.ix_(idx, idx)], rho.mode, validate=False)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _numbered_labels(n: int, prefix: str = "t"):
    width = len(str(n))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(n)]


def random_binary_tree(
    n: int, seed: int, weight_model: str = "unit", mode: str = MODE_FLOAT
) -> PhyloTree:
    """Random binary X-tree by sequential leaf attachment.

    Each new leaf subdivides a uniformly chosen existing edge.  Weights are
    all 1 ("unit") or i.i.d. uniform on (0, 1] ("uniform01"); deterministic
    for a fixed (n, seed, weight_model).
    """
    check_mode(mode)
    if n < 2:
        raise ValidationError(f"need n >= 2 taxa, got {n}")
    if weight_model not in ("unit", "uniform01"):
        raise ValidationError(f"unknown weight model {weight_model!r}")
    if weight_model == "uniform01" and mode == MODE_RATIONAL:
        raise ValidationError("uniform01 weights are float-only")
    rng = np.random.default_rng(seed)
    labels = _numbered_labels(n)
    pairs = [(0, 1)]
    for k in range(2, n):
        internal = n + k - 2
        u, v = pairs.pop(int(rng.integers(len(pairs))))
        pairs.extend([(u, internal), (v, internal), (k, internal)])
    pairs.sort(key=lambda p: (min(p), max(p)))
    one = as_scalar(1, mode)
    if weight_model == "unit":
        edges = [(u, v, one) for u, v in pairs]
    else:
        edges = [(u, v, float(1.0 - rng.random())) for u, v in pairs]
    leaf_map = {lab: i for i, lab in enumerate(labels)}
    n_vertices = n + max(0, n - 2)
    return PhyloTree(n_vertices, edges, leaf_map, mode)


def _caterpillar_from_slots(labels_at_position, n: int, mode: str) -> PhyloTree:
    """Build a unit-weight caterpillar; labels_at_position maps spine
    position (1-based) to the labels hanging there."""
    positions = sorted(labels_at_position)
    spine_len = len(positions)
    all_labels = sorted(lab for labs in labels_at_position.values() for lab in labs)
    vert = {lab: i for i, lab in enumerate(all_labels)}
    spine_id = {p: n + i for i, p in enumerate(positions)}
    one = as_scalar(1, mode)
    edges = []
    for i in range(spine_len - 1):
        edges.append((spine_id[positions[i]], spine_id[positions[i + 1]], one))
    for p, labs in labels_at_position.items():
        for lab in labs:
            edges.append((vert[lab], spine_id[p], one))
    return PhyloTree(n + spine_len, edges, vert, mode)


def caterpillar_swap_pair(m: int, mode: str = MODE_FLOAT):
    """The extremal caterpillar pair on n = 4m+1 taxa.

    Labels "1".."4m+1" hang off a unit-weight spine of 4m-1 vertices:
    cherries {1,2} and {4m,4m+1} at the ends, label i at spine position
    i-1 in between.  The second tree keeps the shape and interchanges the
    even labels 2i and 2(2m+1-i), reversing their order along the spine.
    """
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    n = 4 * m + 1

    def position(i: int) -> int:
        if i <= 2:
            return 1
        if i >= 4 * m:
            return 4 * m - 1
        return i - 1

    slots_a = {}
    slots_b = {}
    for i in range(1, n + 1):
        if i % 2 == 0:
            swapped = 4 * m + 2 - i
        else:
            swapped = i
        slots_a.setdefault(position(i), []).append(str(i))
        slots_b.setdefault(position(swapped), []).append(str(i))
    return (
        _caterpillar_from_slots(slots_a, n, mode),
        _caterpillar_from_slots(slots_b, n, mode),
    )


def random_caterpillar(n: int, seed: int, mode: str = MODE_FLOAT) -> PhyloTree:
    """Unit-weight caterpillar with the n labels in seeded random spine
    order (two cherries at the ends)."""
    if n < 4:
        raise ValidationError(f"need n >= 4 taxa, got {n}")
    rng = np.random.default_rng(seed)
    labels = _numbered_labels(n)
    order = [labels[i] for i in rng.permutation(n)]
    spine_len = n - 2
    slots = {p: [] for p in range(1, spine_len + 1)}
    slots[1] = order[:2]
    slots[spine_len] = order[n - 2 :]
    for i, lab in enumerate(order[2 : n - 2]):
        slots[2 + i] = [lab]
    slots = {p: labs for p, labs in slots.items() if labs}
    return _caterpillar_from_slots(slots, n, mode)
