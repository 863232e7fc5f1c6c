"""Seeded benchmark inputs, made without the package.

Trees come from the standard library's ``random.Random`` by sequential leaf
attachment and are written out as Newick text; the program under test only
ever receives that text.  The same objects give the checker its reference
distances and splits, so no expected value is computed by the package, and a
change to the package's own generators cannot change a workload.
"""

from __future__ import annotations

import random


def labels(n: int):
    """Zero-padded labels, so their sorted order is their index order."""
    width = len(str(n))
    return [f"x{i:0{width}d}" for i in range(n)]


class Tree:
    """Unrooted binary tree: leaves are vertices 0..n-1 (labelled
    ``names[i]``), inner vertices n..2n-3, edges are (u, v, length)."""

    def __init__(self, names, edges):
        self.names = list(names)
        self.edges = list(edges)
        self.adj = {}
        for u, v, w in self.edges:
            self.adj.setdefault(u, []).append((v, w))
            self.adj.setdefault(v, []).append((u, w))

    @property
    def n(self):
        return len(self.names)

    def newick(self) -> str:
        """Rooted at the first inner vertex, every edge with its length.
        Floats are written with ``repr``, so the parser reads back the same
        doubles the checker sums."""
        out = []
        # iterative DFS; a frame is (vertex, parent, length to parent, next child index)
        stack = [[self.n, -1, None, 0]]
        while stack:
            frame = stack[-1]
            v, parent, _, k = frame
            kids = [(c, w) for c, w in self.adj[v] if c != parent]
            if k == 0 and kids:
                out.append("(")
            if k < len(kids):
                if k > 0:
                    out.append(",")
                frame[3] += 1
                c, w = kids[k]
                stack.append([c, v, w, 0])
                continue
            stack.pop()
            if kids:
                out.append(")")
            if v < self.n:
                out.append(self.names[v])
            if frame[2] is not None:
                out.append(":" + _fmt_length(frame[2]))
        return "".join(out) + ";"

    def path_table(self):
        """Leaf-to-leaf path lengths as a list of rows, in leaf order."""
        n = self.n
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            dist = {i: 0}
            stack = [i]
            while stack:
                u = stack.pop()
                for v, w in self.adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + w
                        stack.append(v)
            for j in range(n):
                table[i][j] = dist[j]
        return table

    def splits(self):
        """Nontrivial splits as leaf bitmasks, each taken on the side
        without leaf 0 (the DFS root)."""
        n = self.n
        below = {}
        order = []
        parent = {0: -1}
        stack = [0]
        while stack:
            u = stack.pop()
            order.append(u)
            for v, _ in self.adj[u]:
                if v not in parent:
                    parent[v] = u
                    stack.append(v)
        for u in reversed(order):
            mask = 1 << u if u < n else 0
            for v, _ in self.adj[u]:
                if parent.get(v) == u:
                    mask |= below[v]
            below[u] = mask
        return {
            mask
            for u, mask in below.items()
            if u != 0 and 2 <= bin(mask).count("1") <= n - 2
        }


def _fmt_length(w) -> str:
    return str(w) if isinstance(w, int) else repr(float(w))


def random_tree(rng: random.Random, n: int, length=None) -> Tree:
    """Binary tree on ``labels(n)``: each new leaf subdivides a uniformly
    chosen edge.  ``length(rng)`` draws each branch length; None gives unit
    (integer) lengths."""
    if n < 3:
        raise ValueError("need at least 3 leaves")
    pairs = [(0, 1)]
    for k in range(2, n):
        inner = n + k - 2
        u, v = pairs.pop(rng.randrange(len(pairs)))
        pairs += [(u, inner), (v, inner), (k, inner)]
    edges = [(u, v, 1 if length is None else length(rng)) for u, v in pairs]
    return Tree(labels(n), edges)


def uniform01(rng: random.Random) -> float:
    """Uniform on (0, 1]."""
    return 1.0 - rng.random()


def scaled(tree: Tree, factor: float) -> Tree:
    return Tree(tree.names, [(u, v, w * factor) for u, v, w in tree.edges])
