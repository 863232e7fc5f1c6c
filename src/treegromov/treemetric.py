"""Tree-induced semimetrics, four-point checks, splits, NNI moves, and
baseline metrics (path-difference, Robinson-Foulds), plus tree generators.
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
    as_scalar,
    check_mode,
)

FOUR_POINT_RTOL = 1e-9


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
    """Path-length distances between taxa (exact in rational mode)."""
    taxa = tree.taxa
    n = len(taxa)
    adj = tree.adjacency()
    zero = as_scalar(0, tree.mode)
    if tree.mode == MODE_FLOAT:
        table = np.zeros((n, n))
    else:
        table = np.full((n, n), zero, dtype=object)
    vert = [tree.leaf_map[lab] for lab in taxa.labels]
    vert_to_taxon = {v: i for i, v in enumerate(vert)}
    for i in range(n):
        dist = {vert[i]: zero}
        stack = [vert[i]]
        while stack:
            u = stack.pop()
            du = dist[u]
            for nbr, w in adj[u]:
                if nbr not in dist:
                    dist[nbr] = du + w
                    stack.append(nbr)
        for v, d in dist.items():
            j = vert_to_taxon.get(v)
            if j is not None:
                table[i, j] = d
    return Semimetric(taxa, table, tree.mode, validate=False)


# ---------------------------------------------------------------------------
# Four-point condition
# ---------------------------------------------------------------------------

def four_point_check(rho: Semimetric):
    """Tree-realizability test.

    Returns (True, None) when for every quadruple the largest of the three
    pairing sums ties the second largest; otherwise (False, witness) with a
    violating taxon quadruple.  Exact in rational mode, relative tolerance
    FOUR_POINT_RTOL in float mode.
    """
    n = len(rho.taxa)
    if rho.mode == MODE_FLOAT:
        d = rho.table
        tol = FOUR_POINT_RTOL * max(1.0, float(d.max(initial=0.0)))
        i, j, k, l = _kernels.four_point(d, tol)
        if i < 0:
            return True, None
        labs = rho.taxa.labels
        return False, (labs[i], labs[j], labs[k], labs[l])
    d = rho.table
    labs = rho.taxa.labels
    for i in range(n - 3):
        for j in range(i + 1, n - 2):
            for k in range(j + 1, n - 1):
                for l in range(k + 1, n):
                    sums = sorted(
                        (
                            d[i, j] + d[k, l],
                            d[i, k] + d[j, l],
                            d[i, l] + d[j, k],
                        )
                    )
                    if sums[2] > sums[1]:
                        return False, (labs[i], labs[j], labs[k], labs[l])
    return True, None


# ---------------------------------------------------------------------------
# Path-difference metrics
# ---------------------------------------------------------------------------

def _check_comparable(rho: Semimetric, rho_prime: Semimetric):
    if rho.taxa != rho_prime.taxa:
        raise ValidationError("taxon sets differ")
    if rho.mode != rho_prime.mode:
        raise ValidationError("modes differ")


def _pair_diffs(rho: Semimetric, rho_prime: Semimetric):
    n = len(rho.taxa)
    iu = np.triu_indices(n, k=1)
    diff = rho.table[iu] - rho_prime.table[iu]
    return np.abs(diff) if rho.mode == MODE_FLOAT else np.array(
        [abs(x) for x in diff], dtype=object
    )


def pd_distance_squared(rho: Semimetric, rho_prime: Semimetric):
    """Exact sum of squared pair differences (any mode)."""
    _check_comparable(rho, rho_prime)
    diffs = _pair_diffs(rho, rho_prime)
    if rho.mode == MODE_FLOAT:
        return float(np.dot(diffs, diffs))
    total = Fraction(0)
    for x in diffs:
        total += x * x
    return total


def pd_distance(rho: Semimetric, rho_prime: Semimetric, norm):
    """Entrywise-difference distance over the n(n-1)/2 taxon pairs."""
    _check_comparable(rho, rho_prime)
    key = normalize_norm(norm)
    diffs = _pair_diffs(rho, rho_prime)
    if rho.mode == MODE_FLOAT:
        if key == "1":
            return float(diffs.sum())
        if key == "2":
            return float(math.sqrt(np.dot(diffs, diffs)))
        return float(diffs.max(initial=0.0))
    if key == "1":
        total = Fraction(0)
        for x in diffs:
            total += x
        return total
    if key == "inf":
        return max(diffs, default=Fraction(0))
    square = pd_distance_squared(rho, rho_prime)
    root = _exact_sqrt(square)
    if root is None:
        raise ValidationError(
            "norm-2 path difference is irrational here; use "
            "pd_distance_squared or float mode"
        )
    return root


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


def splits_of(tree: PhyloTree) -> set:
    """One split per edge: the taxa on either side of its removal."""
    adj = tree.adjacency()
    labels_at = {}
    for lab, v in tree.leaf_map.items():
        labels_at.setdefault(v, []).append(lab)
    out = set()
    all_taxa = set(tree.taxa.labels)
    for u, v, _ in tree.edges:
        side = {u}
        stack = [u]
        while stack:
            a = stack.pop()
            for nbr, _w in adj[a]:
                if nbr != v and nbr not in side:
                    side.add(nbr)
                    stack.append(nbr)
        block_a = {lab for w in side for lab in labels_at.get(w, ())}
        out.add(Split(block_a, all_taxa - block_a))
    return out


def nontrivial_splits(tree: PhyloTree) -> set:
    return {s for s in splits_of(tree) if not s.is_trivial()}


def robinson_foulds(t1: PhyloTree, t2: PhyloTree) -> int:
    """Symmetric difference count of the non-trivial split sets."""
    if t1.taxa != t2.taxa:
        raise ValidationError("taxon sets differ")
    return len(nontrivial_splits(t1) ^ nontrivial_splits(t2))


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
    adj = tree.adjacency()
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
