"""Taxon sets, semimetrics, phylogenetic trees, and Newick/CSV text I/O.

Scalars come in two modes that never mix silently: ``"float"`` uses float64
and ``"rational"`` uses :class:`fractions.Fraction` held in numpy object
arrays.  Every container records its mode, and mode mismatches raise
:class:`ValidationError` instead of converting.

Every float verdict on data follows one rule: quantities at data scale S,
the largest |entry| of the tables or program being judged, are compared
with tolerance RTOL * S and no floor (``tolerance``).  When S = 0, and
always in rational mode, the comparison is exact.  So a verdict on 2^k x
is the verdict on x for every power of two that keeps float64 exact.

All types are immutable after construction (numpy buffers are marked
read-only), so concurrent readers need no locking.
"""

from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np

MODE_FLOAT = "float"
MODE_RATIONAL = "rational"
MODES = (MODE_FLOAT, MODE_RATIONAL)

RTOL = 1e-9


class TreegromovError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TreegromovError):
    """Malformed Newick or CSV input.  ``position`` is a 0-based offset
    into the input text when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ValidationError(TreegromovError):
    """Violated domain invariant: semimetric axioms, tree shape, taxon
    mismatches, mode mixing."""


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def as_scalar(value, mode: str):
    """Coerce ``value`` into the given mode.

    Rational mode accepts Fraction, int, and numeric strings; floats are
    rejected so binary rounding never leaks into exact arithmetic.
    """
    check_mode(mode)
    if mode == MODE_FLOAT:
        return float(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    raise ValidationError(
        f"rational mode does not accept {type(value).__name__} values; "
        "pass Fraction, int, or a numeric string"
    )


def parse_scalar(token: str, mode: str):
    """Parse a number token; accepts 'a/b' fractions in both modes."""
    token = token.strip()
    try:
        if mode == MODE_RATIONAL:
            return Fraction(token)
        if "/" in token:
            num, den = token.split("/", 1)
            return float(num) / float(den)
        return float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {token!r}: {exc}") from None


def format_scalar(value, mode: str) -> str:
    """Inverse of parse_scalar; float uses repr (shortest round-trip form)."""
    if mode == MODE_FLOAT:
        return repr(float(value))
    value = as_scalar(value, MODE_RATIONAL)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def scalar_array(table, mode: str) -> np.ndarray:
    """Build a new array of the mode's type from a nested sequence or
    ndarray; never a view of the input, so callers may freeze it."""
    check_mode(mode)
    if mode == MODE_FLOAT:
        return np.array(table, dtype=np.float64)
    arr = np.asarray(table, dtype=object)
    cells = [as_scalar(x, MODE_RATIONAL) for x in arr.ravel().tolist()]
    return np.array(cells, dtype=object).reshape(arr.shape)


# ---------------------------------------------------------------------------
# TaxonSet
# ---------------------------------------------------------------------------

class TaxonSet:
    """Canonically (lexicographically) ordered set of distinct labels.

    The order fixes matrix layouts, so two constructions from permuted
    label lists are interchangeable.
    """

    __slots__ = ("labels", "index")

    def __init__(self, labels):
        labels = tuple(labels)
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise ValidationError(f"taxon labels must be non-empty strings, got {lab!r}")
        labels = tuple(sorted(labels))
        if not labels:
            raise ValidationError("taxon set must be non-empty")
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise ValidationError(f"duplicate taxon labels: {dup}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "index", {lab: i for i, lab in enumerate(labels)})

    def __setattr__(self, name, value):
        raise AttributeError("TaxonSet is immutable")

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self.index

    def __getitem__(self, i):
        return self.labels[i]

    def __eq__(self, other):
        return isinstance(other, TaxonSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"TaxonSet({list(self.labels)!r})"

    def position(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise ValidationError(f"unknown taxon {label!r}") from None

    def is_subset_of(self, other: "TaxonSet") -> bool:
        return all(lab in other.index for lab in self.labels)


# ---------------------------------------------------------------------------
# Semimetric
# ---------------------------------------------------------------------------

def tolerance(*data, mode: str = MODE_FLOAT):
    """RTOL times S, the largest |entry| of data (arrays or scalars), with
    no floor; 0, an exact comparison, when S = 0 or in rational mode."""
    if mode == MODE_RATIONAL:
        return 0
    return RTOL * max((float(np.abs(a).max(initial=0.0)) for a in data), default=0.0)


def _as_integers(d: np.ndarray):
    """(ints, den): the Fraction array d times den, the lcm of its
    denominators.  The scaling is exact and order-preserving; ints is int64
    when sums of three entries cannot overflow, else Python ints."""
    den = math.lcm(*(x.denominator for x in d.flat))
    ints = [x.numerator * (den // x.denominator) for x in d.flat]
    small = max(map(abs, ints), default=0) < 2**61
    return np.array(ints, dtype=np.int64 if small else object).reshape(d.shape), den


def axiom_witnesses(d: np.ndarray, mode: str):
    """The first witness of each semimetric axiom that d breaks, or None:
    (symmetry, diagonal, sign, triangle) as index tuples (i, j), (i,),
    (i, j) and (i, j, k), each first in lexicographic order.

    Symmetry breaks where |d(i,j) - d(j,i)| > RTOL * max(|d(i,j)|, |d(j,i)|)
    (i < j), the diagonal where d(i,i) != 0, sign where d(i,j) < 0, and the
    triangle where d(i,k) - RTOL * |d(i,k)| > d(i,j) + d(j,k).  A rational
    table is scaled to integers once (_as_integers), which keeps every
    comparison, and judged with tolerance 0.

    Each triangle entry carries its own tolerance.  Rounding can make a
    float table that is a semimetric on the reals (a tree metric summed
    along paths, say) look broken only where d(i,k) is within rounding of
    d(i,j) + d(j,k).  There d(i,k) is the largest of the three nonnegative
    entries, so rounding errors of many ulps of the sums stay below
    RTOL * d(i,k), at every scale of the table.
    """
    if mode == MODE_RATIONAL:
        d = _as_integers(d)[0]
        rtol = 0
    else:
        rtol = RTOL
    n = d.shape[0]
    a = np.abs(d)
    sym = np.abs(d - d.T) > rtol * np.maximum(a, a.T)
    lhs = d - rtol * a
    tri = None
    buf = np.empty_like(d)
    for i in range(n):
        # buf[j, k] = d(i,j) + d(j,k), against d(i,k) less its tolerance
        np.add(d[i][:, None], d, out=buf)
        bad = lhs[i] > buf
        if bad.any():
            tri = (i, *divmod(int(bad.argmax()), n))
            break

    def first(mask):
        return tuple(int(x) for x in np.argwhere(mask)[0]) if mask.any() else None

    return first(sym), first(d.diagonal() != 0), first(d < 0), tri


class Semimetric:
    """Symmetric nonnegative distance table over a TaxonSet.

    Zero off-diagonal entries are allowed (semimetric, not metric).  The
    axioms are judged by axiom_witnesses: exactly in rational mode, and in
    float mode with each entry's own tolerance, RTOL times its size.
    """

    __slots__ = ("taxa", "table", "mode")

    def __init__(self, taxa: TaxonSet, table, mode: str = MODE_FLOAT, validate: bool = True):
        check_mode(mode)
        d = scalar_array(table, mode)
        n = len(taxa)
        if d.shape != (n, n):
            raise ValidationError(f"table shape {d.shape} does not match {n} taxa")
        if mode == MODE_FLOAT and not np.isfinite(d).all():
            # checked even without validate: no solver or check is defined on nan/inf
            i, j = np.argwhere(~np.isfinite(d))[0]
            raise ValidationError(
                f"non-finite entry d({taxa.labels[i]},{taxa.labels[j]})={d[i, j]}"
            )
        if validate:
            self._validate(taxa, d, mode)
        d.flags.writeable = False
        object.__setattr__(self, "taxa", taxa)
        object.__setattr__(self, "table", d)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Semimetric is immutable")

    @staticmethod
    def _validate(taxa, d, mode):
        """Raise ValidationError on the first broken axiom, in the order
        symmetry, diagonal, sign, triangle."""
        labs = taxa.labels
        sym, diag, neg, tri = axiom_witnesses(d, mode)
        if sym is not None:
            i, j = sym
            raise ValidationError(
                f"asymmetric table: d({labs[i]},{labs[j]})={d[i, j]} "
                f"but d({labs[j]},{labs[i]})={d[j, i]}"
            )
        if diag is not None:
            (i,) = diag
            raise ValidationError(f"nonzero diagonal at {labs[i]}: {d[i, i]}")
        if neg is not None:
            i, j = neg
            raise ValidationError(f"negative entry d({labs[i]},{labs[j]})={d[i, j]}")
        if tri is not None:
            i, j, k = tri
            raise ValidationError(
                f"triangle inequality violated: d({labs[i]},{labs[k]})={d[i, k]} > "
                f"d({labs[i]},{labs[j]})+d({labs[j]},{labs[k]})={d[i, j]}+{d[j, k]}"
            )

    def __len__(self):
        return len(self.taxa)

    def dist(self, x: str, y: str):
        return self.table[self.taxa.position(x), self.taxa.position(y)]

    def __eq__(self, other):
        if not isinstance(other, Semimetric):
            return NotImplemented
        return (
            self.taxa == other.taxa
            and self.mode == other.mode
            and bool(np.all(self.table == other.table))
        )

    __hash__ = None

    def __repr__(self):
        return f"Semimetric({len(self.taxa)} taxa, mode={self.mode})"

    def is_strictly_positive(self) -> bool:
        """True iff every off-diagonal entry is > 0 (a genuine metric table)."""
        n = len(self.taxa)
        off = ~np.eye(n, dtype=bool)
        return bool(np.all(self.table[off] > 0))

    def to_float(self) -> "Semimetric":
        if self.mode == MODE_FLOAT:
            return self
        return Semimetric(self.taxa, self.table, MODE_FLOAT, validate=False)

    def __add__(self, other):
        if not isinstance(other, Semimetric):
            return NotImplemented
        if self.taxa != other.taxa:
            raise ValidationError("taxon sets differ")
        if self.mode != other.mode:
            raise ValidationError("cannot add semimetrics of different modes")
        return Semimetric(self.taxa, self.table + other.table, self.mode, validate=False)

    def scaled(self, factor) -> "Semimetric":
        """Pointwise scaling by a nonnegative factor (stays a semimetric)."""
        factor = as_scalar(factor, self.mode)
        if factor < 0:
            raise ValidationError("scale factor must be nonnegative")
        return Semimetric(self.taxa, self.table * factor, self.mode, validate=False)


def semimetric_from_table(labels, table, mode: str = MODE_FLOAT, validate: bool = True) -> Semimetric:
    """Build a Semimetric; rows/columns follow the order of ``labels``
    and are permuted into the canonical (sorted) layout."""
    labels = list(labels)
    taxa = TaxonSet(labels)
    arr = scalar_array(table, mode)
    n = len(taxa)
    if arr.shape != (n, n):
        raise ValidationError(f"table shape {arr.shape} does not match {n} labels")
    order = [labels.index(lab) for lab in taxa.labels]
    perm = np.array(order)
    arr = arr[np.ix_(perm, perm)]
    return Semimetric(taxa, arr, mode, validate=validate)


# ---------------------------------------------------------------------------
# PhyloTree
# ---------------------------------------------------------------------------

class PhyloTree:
    """Weighted unrooted tree with taxa attached to vertices.

    Vertices are 0..n_vertices-1.  Labeled vertices may sit anywhere
    (degree-1 leaves in the binary case, but internal taxa are legal);
    unlabeled vertices must have degree >= 3 so the shape is determined
    by the induced distances.

    The tree check is one depth-first pass from vertex 0, and the tree
    keeps what it computes, for the tree-metric modules to read:

    * ``_adj``: per vertex, its (neighbor, weight) pairs in edge order;
    * ``_rooted``: (order, parent, weight), the vertices in depth-first
      preorder (every subtree is one contiguous run headed by its root),
      each vertex's parent (-1 at vertex 0) and the weight of the edge to
      it (None at vertex 0).
    """

    __slots__ = ("n_vertices", "edges", "leaf_map", "taxa", "mode", "_adj", "_rooted")

    def __init__(self, n_vertices: int, edges, leaf_map: dict, mode: str = MODE_FLOAT):
        check_mode(mode)
        if n_vertices < 1:
            raise ValidationError("tree needs at least one vertex")
        canon = []
        seen = set()
        for u, v, w in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValidationError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            w = as_scalar(w, mode)
            if w <= 0:
                raise ValidationError(f"edge ({u},{v}) weight {w} must be positive")
            canon.append((u, v, w))
        canon.sort(key=lambda e: (e[0], e[1]))
        if len(canon) != n_vertices - 1:
            raise ValidationError(
                f"{len(canon)} edges for {n_vertices} vertices; a tree needs n-1"
            )
        adj = [[] for _ in range(n_vertices)]
        for u, v, w in canon:
            adj[u].append((v, w))
            adj[v].append((u, w))
        taxa = TaxonSet(leaf_map.keys())
        vert_of = {}
        for lab in taxa.labels:
            v = int(leaf_map[lab])
            if not 0 <= v < n_vertices:
                raise ValidationError(f"taxon {lab!r} placed at invalid vertex {v}")
            if v in vert_of.values():
                raise ValidationError(f"two taxa share vertex {v}")
            vert_of[lab] = v
        labeled = set(vert_of.values())
        for v in range(n_vertices):
            if v not in labeled and len(adj[v]) < 3:
                raise ValidationError(
                    f"unlabeled vertex {v} has degree {len(adj[v])} (must be >= 3)"
                )
        # with n-1 edges, the pass from vertex 0 reaches every vertex once
        # exactly when the edges form a tree; a cycle shows as a vertex
        # reached twice (never vertex 0: its neighbours skip it as their
        # parent) or, away from vertex 0, as a pass that ends short
        parent = [-1] * n_vertices
        weight = [None] * n_vertices
        order = []
        stack = [0]
        while stack:
            u = stack.pop()
            order.append(u)
            for v, w in adj[u]:
                if v == parent[u]:
                    continue
                if parent[v] >= 0:
                    raise ValidationError("edges contain a cycle")
                parent[v] = u
                weight[v] = w
                stack.append(v)
        if len(order) != n_vertices:
            raise ValidationError("edges contain a cycle")
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "leaf_map", dict(vert_of))
        object.__setattr__(self, "taxa", taxa)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))
        object.__setattr__(self, "_rooted", (tuple(order), tuple(parent), tuple(weight)))

    def __setattr__(self, name, value):
        raise AttributeError("PhyloTree is immutable")

    def __repr__(self):
        return (
            f"PhyloTree({self.n_vertices} vertices, {len(self.taxa)} taxa, "
            f"mode={self.mode})"
        )

    def adjacency(self):
        """Tuple of (neighbor, weight) tuples indexed by vertex."""
        return self._adj

    def degrees(self):
        return [len(nbrs) for nbrs in self._adj]

    def labeled_vertices(self) -> set:
        return set(self.leaf_map.values())

    def is_binary(self) -> bool:
        """All taxa at degree-1 vertices and every internal vertex of degree 3."""
        deg = self.degrees()
        labeled = self.labeled_vertices()
        for v in range(self.n_vertices):
            want = 1 if v in labeled else 3
            if deg[v] != want:
                return False
        return True

    def with_mode(self, mode: str) -> "PhyloTree":
        if mode == self.mode:
            return self
        if mode == MODE_FLOAT:
            edges = [(u, v, float(w)) for u, v, w in self.edges]
        else:
            edges = [(u, v, as_scalar(w, MODE_RATIONAL)) for u, v, w in self.edges]
        return PhyloTree(self.n_vertices, edges, self.leaf_map, mode)


# ---------------------------------------------------------------------------
# Newick
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[(),:;]|[^(),:;]+")


def parse_newick(text: str, default_weight=1, mode: str = MODE_FLOAT) -> PhyloTree:
    """Parse one Newick statement into an unrooted PhyloTree.

    A label or a branch length is a run of characters other than
    "(),:;", stripped of white space; a label may hold inner spaces.
    Every leaf needs a label, a group's label is optional, and a length
    follows ':'.  Unlabeled vertices of degree <= 2 (including the
    synthetic root) are suppressed, their incident edge weights summed.
    Interior labels are kept as taxa.  Missing branch lengths take
    ``default_weight``; when the statement carries no lengths at all (a
    length on the root counts, although it is never read) it is treated
    as pure topology and every edge of the *unrooted* tree gets the
    default, which makes "((A,B),(C,D));" the quartet with five unit
    edges rather than a tree with a doubled middle edge.

    The text is read in one pass over its tokens, so nesting depth is
    bounded by memory, not by the recursion limit.  A structural fault is
    raised first; then duplicate labels and bad or nonpositive lengths in
    depth-first order.  A ParseError's position is the offending token's
    first non-space character, or, for a duplicate label or a nonpositive
    length, the index right after the '(' or ',' that opens the vertex; a
    length that is not a number has none.
    """
    check_mode(mode)
    default = as_scalar(default_weight, mode)
    if default <= 0:
        raise ValidationError(f"default_weight must be positive, got {default}")
    tokens = []  # (token, position); "" marks the end
    for match in _TOKEN.finditer(text):
        run = match.group().lstrip()
        if run:
            tokens.append((run.rstrip(), match.end() - len(run)))
    tokens.append(("", len(text)))
    stops = {"(", ")", ",", ":", ";", ""}

    # one read, the vertices in preorder: their label, start, parent and
    # length token; steps lists "v opens" as v and "v's length has been
    # read" as ~v, in reading order, which is depth-first order
    label, start, parent, length = [], [], [], []
    steps = []
    groups = []  # the vertex of each open '('
    k = at = 0
    while True:
        tok, pos = tokens[k]
        v = len(start)
        steps.append(v)
        label.append("")
        start.append(at)
        parent.append(groups[-1] if groups else -1)
        length.append(None)
        if tok == "(":
            groups.append(v)
            k, at = k + 1, pos + 1
            continue
        if tok in stops:
            raise ParseError("expected a label or '('", position=pos)
        while True:
            # v's own label (required of a leaf) and length
            if tok not in stops:
                label[v] = tok
                k += 1
            tok, pos = tokens[k]
            if tok == ":":
                tok, pos = tokens[k + 1]
                if tok in stops:
                    raise ParseError("expected a branch length after ':'", position=pos)
                length[v] = tok
                k += 2
                tok, pos = tokens[k]
            if not groups:
                break
            steps.append(~v)
            k += 1
            if tok == ",":
                break
            if tok != ")":
                raise ParseError("expected ')' or ','", position=pos)
            v = groups.pop()
            tok = tokens[k][0]
        if not groups:
            break
        at = pos + 1
    if tok != ";":
        raise ParseError("expected ';'", position=pos)
    if tokens[k + 1][0]:
        raise ParseError("trailing characters after ';'", position=tokens[k + 1][1])

    # then labels and lengths, in the same order: vertices are numbered in
    # preorder and each edge is added once its child's subtree is done
    topology_only = not any(length)
    adj = {v: {} for v in range(len(start))}  # vertex -> {neighbor: weight or None}
    labels = {}
    for v in steps:
        if v >= 0:
            if label[v]:
                if label[v] in labels:
                    raise ParseError(f"duplicate label {label[v]!r}", position=start[v])
                labels[label[v]] = v
            continue
        v = ~v
        if length[v] is None:
            w = None if topology_only else default
        else:
            w = parse_scalar(length[v], mode)
            if w <= 0:
                raise ParseError(
                    f"branch length {length[v]} must be positive", position=start[v]
                )
        adj[parent[v]][v] = w
        adj[v][parent[v]] = w

    if len(labels) < 2:
        raise ParseError("tree has fewer than 2 labeled vertices")

    labeled = set(labels.values())
    # suppress unlabeled vertices of degree 1 (dangling roots) and degree 2;
    # adj stays a tree, so the two neighbours joined are never adjacent
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in labeled:
                continue
            nbrs = adj[v]
            if len(nbrs) == 1:
                (u,) = nbrs
                del adj[u][v]
                del adj[v]
                changed = True
            elif len(nbrs) == 2:
                (a, wa), (b, wb) = nbrs.items()
                merged = None if wa is None or wb is None else wa + wb
                del adj[a][v]
                del adj[b][v]
                del adj[v]
                adj[a][b] = merged
                adj[b][a] = merged
                changed = True

    # canonical ids: sorted taxa first, then remaining vertices in creation order
    order = [labels[lab] for lab in sorted(labels)]
    order += sorted(v for v in adj if v not in labeled)
    renum = {old: new for new, old in enumerate(order)}
    edges = []
    for u in adj:
        for v, w in adj[u].items():
            if u < v:
                edges.append((renum[u], renum[v], default if w is None else w))
    leaf_map = {lab: renum[v] for lab, v in labels.items()}
    try:
        return PhyloTree(len(order), edges, leaf_map, mode)
    except ValidationError as exc:
        raise ParseError(f"parsed tree is invalid: {exc}") from exc


def write_newick(tree: PhyloTree) -> str:
    """Serialize as a rooted Newick statement.

    The root is the lowest-id vertex of degree >= 2; a single-edge tree is
    written as a one-child group rooted at the lower vertex so that exact
    weights survive the round trip.  parse_newick(write_newick(t)) induces
    the same semimetric, exactly in rational mode.
    """
    label_of = {v: lab for lab, v in tree.leaf_map.items()}
    if tree.n_vertices == 1:
        return f"{label_of[0]};"
    adj = tree._adj
    internal = [v for v in range(tree.n_vertices) if len(adj[v]) >= 2]
    root = internal[0] if internal else 0

    # depth-first with an explicit stack of vertices still to write and
    # literal text still to append, so depth is not bounded by recursion
    parts = []
    stack = [(root, -1, "")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        v, parent, suffix = item
        kids = [(nbr, w) for nbr, w in sorted(adj[v]) if nbr != parent]
        tail = label_of.get(v, "") + suffix
        if not kids:
            parts.append(tail)
            continue
        parts.append("(")
        stack.append(")" + tail)
        for k, (nbr, w) in enumerate(reversed(kids)):
            if k:
                stack.append(",")
            stack.append((nbr, v, f":{format_scalar(w, tree.mode)}"))
    return "".join(parts) + ";"


def parse_newick_file(text: str, default_weight=1, mode: str = MODE_FLOAT):
    """One tree per non-empty line; '#' lines are comments."""
    trees = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            trees.append(parse_newick(line, default_weight, mode))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if not trees:
        raise ParseError("no trees found")
    return trees


# ---------------------------------------------------------------------------
# Semimetric CSV
# ---------------------------------------------------------------------------

def semimetric_to_csv(rho: Semimetric) -> str:
    """Header row of labels, then the n x n table."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rho.taxa.labels)
    for i in range(len(rho.taxa)):
        writer.writerow([format_scalar(x, rho.mode) for x in rho.table[i]])
    return buf.getvalue()


def semimetric_from_csv(text: str, mode: str = MODE_FLOAT, validate: bool = True) -> Semimetric:
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    if not rows:
        raise ParseError("empty CSV")
    labels = [lab.strip() for lab in rows[0]]
    n = len(labels)
    if len(rows) != n + 1:
        raise ParseError(f"expected {n} data rows after the header, got {len(rows) - 1}")
    table = []
    for r, row in enumerate(rows[1:]):
        if len(row) != n:
            raise ParseError(f"row {r + 1} has {len(row)} entries, expected {n}")
        table.append([parse_scalar(tok, mode) for tok in row])
    return semimetric_from_table(labels, table, mode, validate=validate)
