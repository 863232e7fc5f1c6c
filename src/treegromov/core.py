"""Taxon sets, semimetrics, phylogenetic trees, and Newick/CSV text I/O.

Scalars come in two modes that never mix silently: ``"float"`` uses float64
and ``"rational"`` uses :class:`fractions.Fraction` held in numpy object
arrays.  Every container records its mode, and mode mismatches raise
:class:`ValidationError` instead of converting.

All types are immutable after construction (numpy buffers are marked
read-only), so concurrent readers need no locking.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

MODE_FLOAT = "float"
MODE_RATIONAL = "rational"
MODES = (MODE_FLOAT, MODE_RATIONAL)

TRIANGLE_RTOL = 1e-9


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

def _triangle_lhs(d: np.ndarray) -> np.ndarray:
    """The float table d less each entry's own triangle tolerance,
    TRIANGLE_RTOL * max(1, d): d(i,j) breaks the triangle through k when
    this exceeds d(i,k) + d(k,j)."""
    return d - TRIANGLE_RTOL * np.maximum(1.0, d)


def _worst_triangle(d: np.ndarray, lhs: np.ndarray):
    """Return (excess, i, j, k) maximizing lhs[i,j] - d[i,k] - d[k,j], the
    first maximum in k-major, then row-major order; floats or integers.
    lhs is d itself, or d less each entry's own tolerance, so that one
    pass judges every entry by its own rule."""
    n = d.shape[0]
    worst = (-math.inf, 0, 0, 0)
    for k in range(n):
        excess = lhs - (d[:, k : k + 1] + d[k : k + 1, :])
        t = int(np.argmax(excess))
        i, j = divmod(t, n)
        if excess[i, j] > worst[0]:
            worst = (excess[i, j], i, j, k)
    return worst


def _as_integers(d: np.ndarray):
    """(ints, den): the Fraction array d times den, the lcm of its
    denominators.  The scaling is exact and order-preserving; ints is int64
    when sums of three entries cannot overflow, else Python ints."""
    den = math.lcm(*(x.denominator for x in d.flat))
    ints = [x.numerator * (den // x.denominator) for x in d.flat]
    small = max(map(abs, ints), default=0) < 2**61
    return np.array(ints, dtype=np.int64 if small else object).reshape(d.shape), den


class Semimetric:
    """Symmetric nonnegative distance table over a TaxonSet.

    Zero off-diagonal entries are allowed (semimetric, not metric).  The
    triangle inequality is validated exactly in rational mode; in float
    mode d(i,j) may exceed d(i,k) + d(k,j) by TRIANGLE_RTOL * max(1, d(i,j)),
    each entry judged by its own tolerance.
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
        n = len(taxa)
        labs = taxa.labels
        if mode == MODE_FLOAT:
            scale = np.maximum(1.0, np.maximum(np.abs(d), np.abs(d.T)))
            bad = np.abs(d - d.T) > TRIANGLE_RTOL * scale
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValidationError(
                    f"asymmetric table: d({labs[i]},{labs[j]})={d[i, j]} "
                    f"but d({labs[j]},{labs[i]})={d[j, i]}"
                )
            if (np.abs(np.diag(d)) > 0).any():
                i = int(np.argmax(np.abs(np.diag(d)) > 0))
                raise ValidationError(f"nonzero diagonal at {labs[i]}: {d[i, i]}")
            if (d < 0).any():
                i, j = np.argwhere(d < 0)[0]
                raise ValidationError(f"negative entry d({labs[i]},{labs[j]})={d[i, j]}")
            excess, i, j, k = _worst_triangle(d, _triangle_lhs(d))
            violated = excess > 0
        else:
            for i in range(n):
                if d[i, i] != 0:
                    raise ValidationError(f"nonzero diagonal at {labs[i]}: {d[i, i]}")
                for j in range(n):
                    if d[i, j] != d[j, i]:
                        raise ValidationError(
                            f"asymmetric table: d({labs[i]},{labs[j]}) != d({labs[j]},{labs[i]})"
                        )
                    if d[i, j] < 0:
                        raise ValidationError(f"negative entry d({labs[i]},{labs[j]})={d[i, j]}")
            # exact, and scaling keeps the first maximum in place
            ints = _as_integers(d)[0]
            excess, i, j, k = _worst_triangle(ints, ints)
            violated = excess > 0
        if violated:
            raise ValidationError(
                f"triangle inequality violated: d({labs[i]},{labs[j]})={d[i, j]} > "
                f"d({labs[i]},{labs[k]})+d({labs[k]},{labs[j]})={d[i, k]}+{d[k, j]}"
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
    """

    __slots__ = ("n_vertices", "edges", "leaf_map", "taxa", "mode")

    def __init__(self, n_vertices: int, edges, leaf_map: dict, mode: str = MODE_FLOAT):
        check_mode(mode)
        if n_vertices < 1:
            raise ValidationError("tree needs at least one vertex")
        canon = []
        seen = set()
        degree = [0] * n_vertices
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
            degree[u] += 1
            degree[v] += 1
        canon.sort(key=lambda e: (e[0], e[1]))
        if len(canon) != n_vertices - 1:
            raise ValidationError(
                f"{len(canon)} edges for {n_vertices} vertices; a tree needs n-1"
            )
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
            if v in labeled:
                continue
            if degree[v] < 3:
                raise ValidationError(
                    f"unlabeled vertex {v} has degree {degree[v]} (must be >= 3)"
                )
        # connectivity: |E| = n-1 plus no cycles via union-find
        parent = list(range(n_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v, _ in canon:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise ValidationError("edges contain a cycle")
            parent[ru] = rv
        if n_vertices > 1 and len({find(v) for v in range(n_vertices)}) != 1:
            raise ValidationError("tree is disconnected")
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "leaf_map", dict(vert_of))
        object.__setattr__(self, "taxa", taxa)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("PhyloTree is immutable")

    def __repr__(self):
        return (
            f"PhyloTree({self.n_vertices} vertices, {len(self.taxa)} taxa, "
            f"mode={self.mode})"
        )

    def adjacency(self):
        """List of (neighbor, weight) lists indexed by vertex."""
        adj = [[] for _ in range(self.n_vertices)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def degrees(self):
        deg = [0] * self.n_vertices
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def edge_weight(self, u: int, v: int):
        if u > v:
            u, v = v, u
        for a, b, w in self.edges:
            if (a, b) == (u, v):
                return w
        raise ValidationError(f"no edge ({u},{v})")

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

_LABEL_STOP = set("(),:;")


class _Node:
    __slots__ = ("label", "length", "children", "pos")

    def __init__(self, label, length, children, pos):
        self.label = label
        self.length = length
        self.children = children
        self.pos = pos


class _NewickReader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.saw_length = False

    def fail(self, message):
        raise ParseError(message, position=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def read_statement(self) -> _Node:
        node = self.read_subtree()
        if self.peek() != ";":
            self.fail("expected ';'")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing characters after ';'")
        return node

    def read_subtree(self) -> _Node:
        """One subtree, read with an explicit stack of open groups so that
        nesting depth is bounded by memory, not by the recursion limit."""
        groups = []  # (start, children) of each open '('
        while True:
            start = self.pos
            if self.peek() == "(":
                self.pos += 1
                groups.append((start, []))
                continue
            label = self.read_label()
            if not label:
                self.fail("expected a label or '('")
            node = _Node(label, self.read_length(), [], start)
            while groups:
                groups[-1][1].append(node)
                if self.peek() == ",":
                    self.pos += 1
                    break
                if self.peek() != ")":
                    self.fail("expected ')' or ','")
                self.pos += 1
                start, children = groups.pop()
                label = self.read_label()
                node = _Node(label, self.read_length(), children, start)
            else:
                return node

    def read_length(self):
        if self.peek() != ":":
            return None
        self.pos += 1
        self.saw_length = True
        return self.read_number()

    def read_label(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _LABEL_STOP:
            self.pos += 1
        return self.text[start : self.pos].strip()

    def read_number(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _LABEL_STOP:
            self.pos += 1
        token = self.text[start : self.pos].strip()
        if not token:
            self.fail("expected a branch length after ':'")
        return token


def parse_newick(text: str, default_weight=1, mode: str = MODE_FLOAT) -> PhyloTree:
    """Parse one Newick statement into an unrooted PhyloTree.

    Unlabeled vertices of degree <= 2 (including the synthetic root) are
    suppressed, their incident edge weights summed.  Interior labels are
    kept as taxa.  Missing branch lengths take ``default_weight``; when the
    statement carries no lengths at all it is treated as pure topology and
    every edge of the *unrooted* tree gets the default, which makes
    "((A,B),(C,D));" the quartet with five unit edges rather than a tree
    with a doubled middle edge.
    """
    check_mode(mode)
    default = as_scalar(default_weight, mode)
    if default <= 0:
        raise ValidationError(f"default_weight must be positive, got {default}")
    reader = _NewickReader(text)
    root = reader.read_statement()
    topology_only = not reader.saw_length

    adj = {}  # vertex -> {neighbor: weight or None}
    labels = {}
    counter = 0

    def new_vertex():
        nonlocal counter
        adj[counter] = {}
        counter += 1
        return counter - 1

    def place(node: _Node) -> int:
        v = new_vertex()
        if node.label:
            if node.label in labels:
                raise ParseError(f"duplicate label {node.label!r}", position=node.pos)
            labels[node.label] = v
        return v

    # depth-first with an explicit stack: vertices are numbered in preorder
    # and each edge is added once its child's subtree is done
    stack = [(root, place(root), iter(root.children))]
    while stack:
        node, v, pending = stack[-1]
        child = next(pending, None)
        if child is not None:
            stack.append((child, place(child), iter(child.children)))
            continue
        stack.pop()
        if not stack:
            break
        parent = stack[-1][1]
        if node.length is None:
            w = None if topology_only else default
        else:
            w = parse_scalar(node.length, mode)
            if w <= 0:
                raise ParseError(
                    f"branch length {node.length} must be positive",
                    position=node.pos,
                )
        adj[parent][v] = w
        adj[v][parent] = w

    if len(labels) < 2:
        raise ParseError("tree has fewer than 2 labeled vertices")

    labeled = set(labels.values())
    # suppress unlabeled vertices of degree 1 (dangling roots) and degree 2
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
                if b in adj[a]:
                    raise ParseError("suppression would create a parallel edge")
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
    deg = tree.degrees()
    adj = tree.adjacency()
    internal = [v for v in range(tree.n_vertices) if deg[v] >= 2]
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
