"""Graph metrics, metric-extension criteria, and semimetric amalgamation.

A weighted graph's edge weights extend to a semimetric on its vertex set
(with every edge realized at exactly its weight) iff no edge admits a
shorter path between its endpoints; equivalently, iff on every chordless
cycle every edge carries at most half the cycle's total weight.  Both
criteria are implemented; the second is enumerative and capped by vertex
count, serving as an independent oracle for the first.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import _kernels
from .core import (
    MODE_FLOAT,
    ParseError,
    Semimetric,
    TaxonSet,
    TreegromovError,
    ValidationError,
    as_scalar,
    check_mode,
    parse_scalar,
    tolerance,
)

DEFAULT_CYCLE_CAP = 16


class WeightedGraph:
    """Simple undirected graph with finite nonnegative edge weights;
    vertex names are non-empty strings."""

    __slots__ = ("vertices", "edges", "index", "mode")

    def __init__(self, vertices, edges, mode: str = MODE_FLOAT):
        check_mode(mode)
        vertices = tuple(vertices)
        for v in vertices:
            if not isinstance(v, str) or not v:
                raise ValidationError(f"vertex names must be non-empty strings, got {v!r}")
        if len(set(vertices)) != len(vertices):
            raise ValidationError("duplicate vertex names")
        index = {v: i for i, v in enumerate(vertices)}
        canon = []
        seen = set()
        for u, v, w in edges:
            if u not in index or v not in index:
                raise ValidationError(f"edge ({u!r},{v!r}) uses unknown vertices")
            iu, iv = index[u], index[v]
            if iu == iv:
                raise ValidationError(f"self-loop at {u!r}")
            if iu > iv:
                iu, iv = iv, iu
            if (iu, iv) in seen:
                raise ValidationError(f"parallel edge ({u!r},{v!r})")
            seen.add((iu, iv))
            w = as_scalar(w, mode)
            if mode == MODE_FLOAT and not math.isfinite(w):
                raise ValidationError(f"non-finite weight {w} on ({u!r},{v!r})")
            if w < 0:
                raise ValidationError(f"negative weight on ({u!r},{v!r})")
            canon.append((iu, iv, w))
        canon.sort(key=lambda e: (e[0], e[1]))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    def __repr__(self):
        return (
            f"WeightedGraph({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, mode={self.mode})"
        )

    def edge_labels(self):
        """Edges as (u_label, v_label, weight) in canonical order."""
        return [
            (self.vertices[iu], self.vertices[iv], w) for iu, iv, w in self.edges
        ]

    def neighbor_masks(self):
        """Adjacency bitmasks, indexable by vertex position."""
        masks = [0] * len(self.vertices)
        for iu, iv, _ in self.edges:
            masks[iu] |= 1 << iv
            masks[iv] |= 1 << iu
        return masks


def _all_pairs(graph: WeightedGraph):
    """Shortest-path matrix in graph vertex order, by the Floyd-Warshall
    kernel in both modes (an object array of Fractions in rational mode,
    where Fraction + inf is inf); raises on disconnected input."""
    nv = len(graph.vertices)
    if graph.mode == MODE_FLOAT:
        d = np.full((nv, nv), math.inf)
        np.fill_diagonal(d, 0.0)
    else:
        d = np.full((nv, nv), math.inf, dtype=object)
        np.fill_diagonal(d, Fraction(0))
    for iu, iv, w in graph.edges:
        d[iu, iv] = d[iv, iu] = w
    d = _kernels.floyd_warshall(d)
    if not (d < math.inf).all():  # a NaN weight fails too
        raise ValidationError("graph is disconnected")
    return d


def graph_metric(graph: WeightedGraph) -> Semimetric:
    """All-pairs shortest-path semimetric on the vertices (zero weights
    permitted, so distinct vertices may end up at distance zero)."""
    d = _all_pairs(graph)
    taxa = TaxonSet(graph.vertices)
    perm = np.array([graph.index[lab] for lab in taxa.labels])
    return Semimetric(taxa, d[np.ix_(perm, perm)], graph.mode, validate=False)


def check_extendable(graph: WeightedGraph):
    """(True, None) iff every edge weight equals the shortest-path
    distance between its endpoints; otherwise (False, witness_edge)."""
    d = _all_pairs(graph)
    tol = tolerance([w for _, _, w in graph.edges], mode=graph.mode)
    for iu, iv, w in graph.edges:
        if w - d[iu, iv] > tol:
            return False, (graph.vertices[iu], graph.vertices[iv], w)
    return True, None


def chordless_cycles(graph: WeightedGraph, cap: int = DEFAULT_CYCLE_CAP):
    """All chordless cycles as vertex-index tuples (each reported once,
    starting at its smallest vertex)."""
    nv = len(graph.vertices)
    if nv > cap:
        raise ValidationError(
            f"cycle enumeration capped at {cap} vertices (graph has {nv})"
        )
    masks = graph.neighbor_masks()
    cycles = []
    for s in range(nv):
        # grow induced paths s, v1, ..., vk with all vi > s; closing back
        # to s yields a chordless cycle exactly when no interior vertex
        # touches s and no chords appeared along the way
        start_nbrs = [v for v in range(s + 1, nv) if masks[s] >> v & 1]
        stack = [([s, v], (1 << s) | (1 << v)) for v in start_nbrs]
        while stack:
            path, used = stack.pop()
            last = path[-1]
            interior_mask = used & ~(1 << s) & ~(1 << last)
            for w in range(s + 1, nv):
                if used >> w & 1 or not (masks[last] >> w & 1):
                    continue
                if masks[w] & interior_mask:
                    continue  # chord into the path interior
                if masks[w] >> s & 1:
                    if len(path) >= 2 and path[1] < w:
                        cycles.append(tuple(path) + (w,))
                else:
                    stack.append((path + [w], used | (1 << w)))
    return cycles


def check_extendable_minimal_cycles(graph: WeightedGraph, cap: int = DEFAULT_CYCLE_CAP) -> bool:
    """Extension criterion via chordless cycles: every edge on every such
    cycle must weigh at most half the cycle total.  Agrees with
    check_extendable on every connected graph (tested, not assumed)."""
    weight = {}
    for iu, iv, w in graph.edges:
        weight[(iu, iv)] = w
        weight[(iv, iu)] = w
    tol = tolerance([w for _, _, w in graph.edges], mode=graph.mode)
    for cycle in chordless_cycles(graph, cap):
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        total = sum(weight[p] for p in pairs)
        for p in pairs:
            if 2 * weight[p] > total + tol:
                return False
    return True


def amalgamate(d1: Semimetric, d2: Semimetric) -> Semimetric:
    """Glue two semimetrics along their shared taxa via shortest paths.

    The union graph carries a clique for each input; the output restricts
    to d1 and d2 exactly (detours through the other side can always be
    contracted across the shared set by the triangle inequality).  The
    shared pairs must agree, and the output is audited to restrict to
    both inputs, exactly in rational mode and within core.tolerance of
    both tables in float mode.
    """
    if d1.mode != d2.mode:
        raise ValidationError("modes differ")
    shared = [lab for lab in d1.taxa.labels if lab in d2.taxa]
    only1 = [lab for lab in d1.taxa.labels if lab not in d2.taxa]
    only2 = [lab for lab in d2.taxa.labels if lab not in d1.taxa]
    if not shared and only1 and only2:
        raise ValidationError("no shared taxa: the union would be disconnected")
    tol = tolerance(d1.table, d2.table, mode=d1.mode)
    for x in shared:
        for y in shared:
            if abs(d1.dist(x, y) - d2.dist(x, y)) > tol:
                raise ValidationError(
                    f"inputs disagree on the shared pair ({x},{y}): "
                    f"{d1.dist(x, y)} vs {d2.dist(x, y)}"
                )
    vertices = only1 + shared + only2
    edges = []
    for rho in (d1, d2):
        labs = rho.taxa.labels
        for i in range(len(labs)):
            for j in range(i + 1, len(labs)):
                if rho is d2 and labs[i] in d1.taxa and labs[j] in d1.taxa:
                    continue  # shared-pair edge already added from d1
                edges.append((labs[i], labs[j], rho.table[i, j]))
    graph = WeightedGraph(vertices, edges, mode=d1.mode)
    out = graph_metric(graph)
    for rho, name in ((d1, "first"), (d2, "second")):
        for i, x in enumerate(rho.taxa.labels):
            for j in range(i + 1, len(rho.taxa.labels)):
                y = rho.taxa.labels[j]
                if abs(out.dist(x, y) - rho.table[i, j]) > tol:
                    raise TreegromovError(
                        f"amalgamation failed to restrict to the {name} input "
                        f"at ({x},{y})"
                    )
    return out


def parse_edge_list(text: str, mode: str = MODE_FLOAT) -> WeightedGraph:
    """Graph from lines "u v w"; '#' starts a comment."""
    vertices = []
    seen = set()
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w', got {line!r}")
        u, v, tok = parts
        w = parse_scalar(tok, mode)
        for lab in (u, v):
            if lab not in seen:
                seen.add(lab)
                vertices.append(lab)
        edges.append((u, v, w))
    if not vertices:
        raise ParseError("empty edge list")
    return WeightedGraph(vertices, edges, mode=mode)
