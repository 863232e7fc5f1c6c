"""The four workloads.

Each workload builds its inputs from the seed with ``gen`` (set-up), runs one
op at a time through the package's public functions, and checks an op's
answer with ``check`` outside the timed region.  ``WHY`` is the text of the
workload's entry in BENCHMARK.json; the class docstring says what one op is
and which layer it loads.  The package is reached through its modules'
attributes at call time, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction

import numpy as np

import check
import gen


class OpFailed(Exception):
    """An op that ended without an answer, under a failure kind of its own
    (a CLI exit code rather than an exception type)."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def run_cli(tg, argv):
    """One in-process ``treegromov`` command; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tg.cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit{code}", err.getvalue().strip())
    return out.getvalue()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class Workload:
    NAME = ""
    WHY = ""
    # Rough seconds per op; sets how many ops a traced run covers.
    NOMINAL_OP_S = 1.0

    def __init__(self, tg, seed, workdir):
        self.tg = tg
        self.workdir = workdir
        self.rng = random.Random(f"{self.NAME}:{seed}")

    def warm_up(self):
        """Run the op's code path once on a tiny input, so imports and
        first-call costs fall in set-up."""

    def op(self, k):
        raise NotImplementedError

    def check(self, k, out):
        """None when op k's answer ``out`` is right, else the reason."""
        raise NotImplementedError

    def probe_size(self):
        """Problems run once each after the timed ops, outside the timing
        (see PairsScaled); most workloads have none."""
        return 0

    def probe_op(self, j):
        raise NotImplementedError

    def probe_check(self, j, out):
        raise NotImplementedError


class MatrixD1(Workload):
    """Batch use: a norm-1 distance matrix over a tree sample.

    One op is one in-process ``treegromov matrix FILE --norm 1 --out TMP``
    on a seeded file of 10 random binary trees with n=50 and uniform(0,1]
    branch lengths (45 full-variant LPs).  Loads cli, core parsing,
    gromov.pairwise_matrix, LP assembly and the float dual simplex.
    """

    NAME = "matrix-d1"
    WHY = (
        "Batch CLI use: 'matrix --norm 1' over 10 trees, n=50; "
        "loads LP assembly and the float dual simplex (45 LPs per op)"
    )
    NOMINAL_OP_S = 1.4
    TREES, N, POOL = 10, 50, 12

    def __init__(self, tg, seed, workdir):
        super().__init__(tg, seed, workdir)
        self.samples = []
        self.files = []
        for p in range(self.POOL):
            trees = [gen.random_tree(self.rng, self.N, gen.uniform01) for _ in range(self.TREES)]
            path = os.path.join(workdir, f"sample{p}.nwk")
            _write(path, "".join(t.newick() + "\n" for t in trees))
            self.samples.append(trees)
            self.files.append(path)
        self.out = os.path.join(workdir, "matrix.csv")
        self._tables = {}

    def warm_up(self):
        rng = random.Random(0)
        path = os.path.join(self.workdir, "warm.nwk")
        _write(path, "".join(gen.random_tree(rng, 6, gen.uniform01).newick() + "\n" for _ in range(3)))
        run_cli(self.tg, ["matrix", path, "--norm", "1", "--out", self.out])

    def op(self, k):
        run_cli(self.tg, ["matrix", self.files[k % self.POOL], "--norm", "1", "--out", self.out])
        with open(self.out, encoding="utf-8") as fh:
            return fh.read()

    def check(self, k, out):
        p = k % self.POOL
        if p not in self._tables:
            self._tables[p] = [t.path_table() for t in self.samples[p]]
        tables = self._tables[p]
        lines = out.splitlines()
        m = self.TREES
        if len(lines) != m + 2 or lines[0] != "#schema=1":
            return f"matrix output has {len(lines)} lines"
        cells = [[float(x) for x in line.split(",")] for line in lines[2:]]
        for i in range(m):
            if cells[i][i] != 0.0:
                return f"nonzero diagonal cell {i}"
            for j in range(i + 1, m):
                if cells[i][j] != cells[j][i]:
                    return f"asymmetric cell ({i},{j})"
                problem = check.check_d1_uniform(cells[i][j], tables[i], tables[j])
                if problem:
                    return f"cell ({i},{j}): {problem}"
        return None


class PairsScaled(Workload):
    """Single-pair library use in real units.

    One op is one ``gromov_distance`` call on a seeded tree pair with n=60
    whose branch lengths are scaled by a power of ten from 1e-3 to 1e1,
    eight pairs per factor.  Ops cycle through D2 full, D2 lower and
    weighted D1 full.  Loads QuadraticProgram assembly with the active-set
    QP, and the weighted float simplex, which a uniform-weight assignment
    route cannot take over.

    The scales 1e2 to 1e6 (years rather than substitutions per site) are the
    known-defect range (ROADMAP item 3).  There the QP raises LinAlgError
    today on about one D2 pair in a hundred at 1e2 and on most from 1e3 up.
    Now and then the QP, or the weighted simplex at 1e6, hits its iteration
    limit instead (TreegromovError, seconds per call).  As timed ops they
    would make a run's failure count depend on how many ops fit in its
    time, so they form a fixed probe instead: two pairs per factor, all
    three kinds, each problem run once after the timed ops and checked like
    an op.  Its failures are counted by type and reported (``probe.*``);
    none is skipped or rescaled.
    """

    NAME = "pairs-scaled"
    WHY = (
        "Library use in real units: one gromov_distance on an n=60 pair scaled "
        "1e-3..1e1, cycling D2 full, D2 lower, weighted D1; loads the active-set "
        "QP and weighted simplex; 1e2..1e6 is a probe"
    )
    NOMINAL_OP_S = 0.035
    N = 60
    SCALES = (1e-3, 1e-2, 1e-1, 1.0, 1e1) * 8
    PROBE_SCALES = (1e2, 1e3, 1e4, 1e5, 1e6) * 2
    KINDS = (("2", "full", False), ("2", "lower", False), ("1", "full", True))

    def __init__(self, tg, seed, workdir):
        super().__init__(tg, seed, workdir)
        self.pairs = [self._pair(factor) for factor in self.SCALES]
        self.probe_pairs = [self._pair(factor) for factor in self.PROBE_SCALES]
        self._tables = {}

    def _pair(self, factor):
        tg = self.tg
        trees = [
            gen.scaled(gen.random_tree(self.rng, self.N, gen.uniform01), factor)
            for _ in range(2)
        ]
        weights = tuple(0.5 + 1.5 * self.rng.random() for _ in range(self.N))
        rhos = [tg.tree_to_semimetric(tg.parse_newick(t.newick())) for t in trees]
        specs = [
            tg.GromovSpec(norm=norm, variant=variant, taxon_weights=weights if weighted else None)
            for norm, variant, weighted in self.KINDS
        ]
        return trees, rhos, weights, specs

    @staticmethod
    def _which(k, pairs):
        return pairs[k % len(pairs)], (k // len(pairs)) % len(PairsScaled.KINDS)

    def warm_up(self):
        rng = random.Random(0)
        a, b = (self.tg.tree_to_semimetric(self.tg.parse_newick(
            gen.random_tree(rng, 6, gen.uniform01).newick())) for _ in range(2))
        for norm, variant, weighted in self.KINDS:
            w = (1.5,) * 6 if weighted else None
            self.tg.gromov.gromov_distance(
                a, b, self.tg.GromovSpec(norm=norm, variant=variant, taxon_weights=w))

    def _solve(self, pair, kind):
        _, (ra, rb), _, specs = pair
        return self.tg.gromov.gromov_distance(ra, rb, specs[kind])

    def _check(self, pair, kind, res):
        trees, _, weights, _ = pair
        key = id(pair)
        if key not in self._tables:
            self._tables[key] = [np.array(t.path_table()) for t in trees]
        ta, tb = self._tables[key]
        norm, variant, weighted = self.KINDS[kind]
        if list(res.argmin.taxa.labels) != trees[0].names:
            return "delta is not in taxon order"
        delta = np.asarray(res.argmin.values, dtype=float)
        problem = check.check_rows(delta, ta, tb, variant)
        if problem:
            return problem
        if norm == "1":
            return check.check_lp_dual(res.value, delta, weights, res.certificate["dual"], ta, tb)
        ones = np.ones(self.N)
        return check.check_d2(res.value, delta, ones, res.certificate["multipliers"], ta, tb)

    def op(self, k):
        return self._solve(*self._which(k, self.pairs))

    def check(self, k, res):
        return self._check(*self._which(k, self.pairs), res)

    def probe_size(self):
        return len(self.probe_pairs) * len(self.KINDS)

    def probe_op(self, j):
        return self._solve(*self._which(j, self.probe_pairs))

    def probe_check(self, j, res):
        return self._check(*self._which(j, self.probe_pairs), res)


class ExactDist(Workload):
    """The exact-arithmetic route.

    One op is one in-process ``treegromov dist A B --mode rational --norm 1
    --variant both`` on a seeded pair of unit-length Newick strings with
    n=12.  Loads Fraction row assembly and the Fraction simplex on maximally
    degenerate inputs; it shares no kernel with the float path.  Op times
    vary by about 30% from pair to pair, so a run needs over a hundred
    distinct pairs for its median to repeat from seed to seed: n=12 rather
    than 16 buys that within the run time.
    """

    NAME = "exact-dist"
    WHY = (
        "Exact route: CLI 'dist --mode rational --norm 1 --variant both' on "
        "unit-length n=12 pairs; loads Fraction assembly and the Fraction "
        "simplex on degenerate inputs"
    )
    NOMINAL_OP_S = 0.18
    N, POOL = 12, 160

    def __init__(self, tg, seed, workdir):
        super().__init__(tg, seed, workdir)
        self.pairs = [[gen.random_tree(self.rng, self.N) for _ in range(2)] for _ in range(self.POOL)]
        self.texts = [[t.newick() for t in pair] for pair in self.pairs]

    def warm_up(self):
        rng = random.Random(0)
        a, b = (gen.random_tree(rng, 5).newick() for _ in range(2))
        run_cli(self.tg, ["dist", a, b, "--mode", "rational", "--norm", "1", "--variant", "both"])

    def op(self, k):
        a, b = self.texts[k % self.POOL]
        return run_cli(
            self.tg, ["dist", a, b, "--mode", "rational", "--norm", "1", "--variant", "both"]
        )

    def check(self, k, out):
        ta_tree, tb_tree = self.pairs[k % self.POOL]
        ta, tb = ta_tree.path_table(), tb_tree.path_table()
        try:
            cells = dict(item.split("=") for item in out.strip().split(", "))
            values = {key: Fraction(cells[key]) for key in ("D1", "Dt1", "PD1", "RF")}
        except (KeyError, ValueError):
            return f"unreadable dist output {out!r}"
        for key in ("D1", "Dt1"):
            problem = check.check_d1_uniform(values[key], ta, tb, exact=True)
            if problem:
                return f"{key}: {problem}"
        pd1 = sum(abs(ta[i][j] - tb[i][j]) for i in range(self.N) for j in range(i + 1, self.N))
        if values["PD1"] != pd1:
            return f"PD1 {values['PD1']} != {pd1}"
        if values["RF"].denominator != 1:
            return f"RF {values['RF']} is not an integer"
        return check.check_rf(int(values["RF"]), self.N, ta_tree.splits(), tb_tree.splits())


class TreesetQC(Workload):
    """Quality control over a tree sample, with no solving.

    The input is one seeded Newick file of 24 trees at n=80; one op handles
    one tree: parse_newick, tree_to_semimetric, semimetric_from_table with
    validation, four_point_check on the tree metric (full scan) and on its
    average with the previous tree's table (not a tree metric, so the scan
    stops early at a witness), robinson_foulds and pd_distance against the
    previous tree, and realize_extension with the closed-form Dinf delta.
    four_point_check is most of an op; the tree/witness mix shows whether
    a faster tree path slows the failing path.
    """

    NAME = "treeset-qc"
    WHY = (
        "Tree-set QC, no solving: per tree of an n=80 file, parse, metric, "
        "validation, four-point (tree and witness), RF, PD, Dinf extension; "
        "loads core, treemetric, extension"
    )
    NOMINAL_OP_S = 0.28
    N, TREES = 80, 24

    def __init__(self, tg, seed, workdir):
        super().__init__(tg, seed, workdir)
        self.trees = [gen.random_tree(self.rng, self.N, gen.uniform01) for _ in range(self.TREES)]
        path = os.path.join(workdir, "treeset.nwk")
        _write(path, "".join(t.newick() + "\n" for t in self.trees))
        with open(path, encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        last = self.TREES - 1
        self.parsed = {last: self._parse(self.lines[last])}
        self._refs = {}

    def _parse(self, line):
        tree = self.tg.core.parse_newick(line)
        return tree, self.tg.treemetric.tree_to_semimetric(tree)

    def warm_up(self):
        rng = random.Random(0)
        saved = self.lines, self.parsed
        self.lines = [gen.random_tree(rng, 6, gen.uniform01).newick() for _ in range(2)]
        self.parsed = {1: self._parse(self.lines[1])}
        self.op(0)
        self.lines, self.parsed = saved

    def op(self, k):
        tg = self.tg
        core, tm, gromov = tg.core, tg.treemetric, tg.gromov
        i = k % len(self.lines)
        j = (i - 1) % len(self.lines)
        prev_tree, prev_rho = self.parsed.get(j) or self._parse(self.lines[j])
        tree = core.parse_newick(self.lines[i])
        induced = tm.tree_to_semimetric(tree)
        rho = core.semimetric_from_table(induced.taxa.labels, induced.table)
        on_tree = tm.four_point_check(rho)
        on_mix = tm.four_point_check((rho + prev_rho).scaled(0.5))
        rf = tm.robinson_foulds(tree, prev_tree)
        pd1 = tm.pd_distance(rho, prev_rho, 1)
        dinf = gromov.dinf_closed_form(prev_rho, rho)
        delta = gromov.DeltaVector(rho.taxa, np.full(len(rho.taxa), dinf))
        ext = gromov.realize_extension(prev_rho, rho, delta)
        self.parsed[i] = (tree, rho)
        self.parsed.pop((i - 2) % len(self.lines), None)
        return {
            "prev": j,
            "rho": (rho.taxa.labels, rho.table),
            "on_tree": on_tree,
            "on_mix": on_mix,
            "rf": rf,
            "pd1": pd1,
            "dinf": dinf,
            "ext": (ext.semimetric.taxa.labels, ext.semimetric.table),
        }

    def _ref(self, i):
        if i not in self._refs:
            t = self.trees[i]
            self._refs[i] = (np.array(t.path_table()), t.splits())
        return self._refs[i]

    def check(self, k, out):
        i = k % self.TREES
        names = self.trees[i].names
        ta, sa = self._ref(i)
        tb, sb = self._ref(out["prev"])
        mix = (ta + tb) / 2
        n = self.N
        return (
            check.check_table(*out["rho"], names, ta)
            or check.check_four_point(out["on_tree"], ta, names, True)
            or check.check_four_point(out["on_mix"], mix, names, False)
            or check.check_rf(out["rf"], n, sa, sb)
            or check.check_pd1(out["pd1"], ta, tb)
            or check.check_dinf(out["dinf"], ta, tb)
            or check.check_extension(*out["ext"], names, tb, ta, [out["dinf"]] * n)
        )


WORKLOADS = {w.NAME: w for w in (MatrixD1, PairsScaled, ExactDist, TreesetQC)}
