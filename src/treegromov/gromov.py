"""The Gromov-type distances between semimetrics and between trees.

For semimetrics rho, rho' on a shared taxon set, the distance with norm i
is the i-norm of the cheapest matched-distance vector delta in

    delta_x + delta_y >= |rho - rho'|(x, y)            (pair rows)
    |delta_x - delta_y| <= (rho + rho')(x, y)          (difference rows)

over all taxon pairs.  Dropping the difference rows gives the lower
variants (written Dt in CSV headers); adding the bound rows
delta_x <= 2 * Dinf gives the bounded flavor, which never changes the
optimum.  Norm 1 is an LP (without taxon weights, an assignment; see
below), norm 2 a strictly convex QP (the reported value is the square root
of its optimum), and norm inf has the closed form max|rho - rho'| / 2 over
the pairs: the constant vector at that value is feasible for both
variants, and any feasible delta has max delta >= (delta_x + delta_y)/2
>= |rho - rho'|(x, y)/2 at the maximizing pair.

Only the pair rows are ever built: the difference rows are redundant on
semimetrics and the bound rows never bind, so the full variant is the
lower solve followed by an O(n^2) audit of the difference rows, and the
bounded flavor adds an O(n) audit of max delta <= 2 * Dinf.  Proof, for
norms 1 and 2 and any positive taxon weights w: write g = |rho - rho'| and
let delta be an optimum of the lower program.  Each delta_x > 0 is tight
on some pair row (x, z), for otherwise lowering delta_x a little keeps
every row and lowers the objective by w_x > 0 times a strictly increasing
term.  So delta_x = g(x, z) - delta_z <= g(x, z) <= max g = 2 * Dinf, and
delta meets every bound row.  Now take x, y with delta_x > delta_y >= 0
and (x, z) tight as above.  If z = y, then delta_x - delta_y <= delta_x +
delta_y = g(x, y) <= (rho + rho')(x, y).  Otherwise delta_x = g(x, z) -
delta_z and delta_y >= g(y, z) - delta_z, so

    delta_x - delta_y <= g(x, z) - g(y, z)
                      <= |rho(x, z) - rho(y, z)| + |rho'(x, z) - rho'(y, z)|
                      <= rho(x, y) + rho'(x, y)

by the triangle inequality.  So delta is feasible for the full and the
bounded programs, whose feasible sets lie inside the lower one's: D_i =
Dt_i, bounded or not, and the lower certificate (LP dual, or QP
multipliers, padded with zeros on the difference and bound rows) proves
delta optimal for each of them.  On a table built with validate=False that
breaks the triangle inequality the difference audit can fail; that is a
ValidationError, never a silent second solve.  A failed bound audit
contradicts the proof and raises TreegromovError.

In float mode both audits, like quadrangle_feasible and realize_extension,
judge against tol = RTOL * S, S the largest |entry| of rho and rho'
(core.tolerance), with no floor.  Every quantity they compare is at most
2S: delta_x <= max g <= S at the optimum, Dinf <= S/2, and the difference
rows set |delta_x - delta_y| against (rho + rho')(x, y) <= 2S.  The
solvers return delta within rounding of an exact optimum (the
transportation kernel sums gap entries, the simplex carries an exact
basis inverse, and every step of the QP is relative to the data), and the
sums that form each side round by a few ulps of 2S; both stay far below
tol, so the audits pass where the proof says they must.  Scaling both
tables by 2^k scales delta, S and tol exactly and leaves every verdict
unchanged; at S = 0 both tables are zero, so is delta, and the
comparisons are exact.

Norm 1 is half a maximum-profit transportation problem (Nemhauser-Trotter
1975, the bipartite double cover; Kuhn 1955 for unit weights, where it is
an assignment).  Mirror g into a symmetric n x n table with g(x, x) = 0,
and give row and column x the capacity w_x.  Let u, v be optimal
potentials: u_x + v_y >= g(x, y) for all x, y, with sum_x w_x (u_x + v_x)
= T, the largest sum g(x, y) F_xy over flows F >= 0 whose row and column
sums at each x are at most w_x.  Then delta = (u + v) / 2 is feasible:
delta_x + delta_y = ((u_x + v_y) + (u_y + v_x)) / 2 >= g(x, y), and
delta_x = (u_x + v_x) / 2 >= g(x, x) / 2 = 0; and sum w delta = T / 2.
Conversely, for such a flow put y_xy = (F_xy + F_yx) / 2 on each pair
row.  Then y >= 0, the rows through x carry sum_{y != x} (F_xy + F_yx) / 2
<= (w_x + w_x) / 2 - F_xx <= w_x, so y is feasible for the LP dual
(A^T y <= w), and b.y = sum_{x != y} g(x, y) F_xy / 2 = sum g F / 2
because the diagonal is zero.  By weak duality every feasible delta has
sum w delta >= b.y; at an optimal flow the two sums meet, so D1 = Dt1 =
T / 2, and delta with y is the same dual certificate ("dual",
"duality_gap") the simplex returns.  The solver audits exactly these three
facts, with the audit the simplex's answer gets.  Float weighted norm 1
stays on the LP simplex; every other norm-1 solve runs the transportation
kernel.

Every program is the gap table g = |rho - rho'| on the upper-triangle
pairs i < j in row-major order (np.triu_indices), mirrored into a
symmetric table with a zero diagonal, plus the spec's taxon weights:
gromov_distance chooses only by norm, solve_lp(LinearProgram) for norm 1
and solve_qp(QuadraticProgram) for norm 2, and solve_lp chooses the
kernel (see the solver module docstring).  The same pair arrays give the
tight pair of the norm-inf closed form and the active-row list of
format_certificate.  In rational mode the transportation and its audit
run on the gap table and the weights scaled to integers, and
quadrangle_feasible, which also needs rho + rho', compares the pair
entries of both tables and delta scaled by one common lcm; Fractions
appear only in what they return.

Every quadrangle-feasible delta, each optimum among them, is realizable:
the carrier graph (a rho-weighted clique on the taxa, a rho'-weighted
clique on primed copies x', and an edge x - x' of weight delta_x) has a
path metric d with d = rho on the taxa, d = rho' on the copies and

    d(x, y') = C(x, y) = min_z rho(x, z) + delta_z + rho'(z, y),

which realize_extension computes in closed form, with no graph.  Proof,
for semimetrics rho and rho': take a path that crosses between the
copies twice.  Between two consecutive crossings it runs z -> z' ... u'
-> u, of length at least delta_z + rho'(z, u) + delta_u by the triangle
inequality of rho', and that is at least rho(z, u) by the pair row
delta_z + delta_u >= rho(z, u) - rho'(z, u).  Replacing the stretch by
the edge z - u drops two crossings and no length, so some shortest path
crosses at most once.  A path within one copy collapses to its single
edge by the triangle inequality; so d = rho and d = rho' on the copies,
and a path crossing once at z is at least rho(x, z) + delta_z + rho'(z,
y), which the path x - z - z' - y' attains.  On the diagonal the term
z = x gives C(x, x) <= delta_x, and the difference row delta_x - delta_z
<= rho(x, z) + rho'(x, z) gives every other term >= delta_x, so d(x, x')
= delta_x.  realize_extension audits the premises (quadrangle
feasibility and the triangle inequality of both tables) and the
conclusion C(x, x) = delta_x.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from .core import (
    MODE_FLOAT,
    MODE_RATIONAL,
    PhyloTree,
    Semimetric,
    TaxonSet,
    TreegromovError,
    ValidationError,
    _as_integers,
    as_scalar,
    tolerance,
)
from .solver import (
    STATUS_OPTIMAL,
    LinearProgram,
    OptResult,
    QuadraticProgram,
    solve_lp,
    solve_qp,
)
from .treemetric import normalize_norm, tree_to_semimetric

VARIANT_FULL = "full"
VARIANT_LOWER = "lower"
PRIME_SUFFIX = "'"


class DeltaVector:
    """Nonnegative matched-distance candidates, one value per taxon in
    canonical order."""

    __slots__ = ("taxa", "values", "mode")

    def __init__(self, taxa: TaxonSet, values, mode: str = MODE_FLOAT):
        if mode == MODE_FLOAT:
            arr = np.asarray(values, dtype=np.float64).copy()
        else:
            arr = np.array([as_scalar(v, MODE_RATIONAL) for v in values], dtype=object)
        if arr.shape != (len(taxa),):
            raise ValidationError(f"need {len(taxa)} values, got shape {arr.shape}")
        if mode == MODE_FLOAT:
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ValidationError(
                    f"delta values must be finite; value {bad[0]} is {arr[bad[0]]}"
                )
        if (arr < 0).any():
            raise ValidationError("delta values must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "taxa", taxa)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("DeltaVector is immutable")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, label: str):
        return self.values[self.taxa.position(label)]

    def to_dict(self):
        return dict(zip(self.taxa.labels, self.values))

    def __repr__(self):
        return f"DeltaVector({self.to_dict()!r})"


class GromovSpec:
    """Which distance to compute: norm in {1, 2, inf}, variant full or
    lower, optionally bounded, optionally with finite positive taxon
    weights (norms 1 and 2 only), kept as given so that int and Fraction
    weights solve exactly in rational mode."""

    __slots__ = ("norm", "variant", "bounded", "taxon_weights")

    def __init__(self, norm=1, variant=VARIANT_FULL, bounded=False, taxon_weights=None):
        norm = normalize_norm(norm)
        if variant not in (VARIANT_FULL, VARIANT_LOWER):
            raise ValidationError(f"variant must be 'full' or 'lower', got {variant!r}")
        if taxon_weights is not None:
            taxon_weights = tuple(taxon_weights)
            for k, w in enumerate(taxon_weights):
                if not (
                    isinstance(w, numbers.Real)
                    and (isinstance(w, numbers.Rational) or math.isfinite(w))
                    and w > 0
                ):
                    raise ValidationError(
                        f"taxon weights must be finite and strictly positive; "
                        f"weight {k} is {w!r}"
                    )
            if norm == "inf":
                raise ValidationError(
                    "taxon weights are supported for norms 1 and 2 only"
                )
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "bounded", bool(bounded))
        object.__setattr__(self, "taxon_weights", taxon_weights)

    def __setattr__(self, name, value):
        raise AttributeError("GromovSpec is immutable")

    def __repr__(self):
        parts = [f"norm={self.norm}", f"variant={self.variant}"]
        if self.bounded:
            parts.append("bounded")
        if self.taxon_weights is not None:
            parts.append("weighted")
        return f"GromovSpec({', '.join(parts)})"


def _check_pair(rho: Semimetric, rho_prime: Semimetric):
    if not isinstance(rho, Semimetric) or not isinstance(rho_prime, Semimetric):
        raise ValidationError("expected two Semimetric inputs")
    if rho.taxa != rho_prime.taxa:
        raise ValidationError("taxon sets differ")
    if rho.mode != rho_prime.mode:
        raise ValidationError("modes differ")


def _pair_arrays(rho, rho_prime):
    """(iu, ju, gap): the pairs iu < ju in row-major order with
    |rho - rho'| on them, in the semimetrics' mode."""
    iu, ju = np.triu_indices(len(rho.taxa), 1)
    return iu, ju, np.abs(rho.table[iu, ju] - rho_prime.table[iu, ju])


def _dinf_and_tight_pair(rho, rho_prime):
    """(Dinf, pair): half the largest gap over the pairs iu < ju, and the
    labels of the first pair, in row-major order, that attains it (None
    below two taxa)."""
    iu, ju, gap = _pair_arrays(rho, rho_prime)
    if not len(gap):
        return as_scalar(0, rho.mode) / 2, None
    k = int(np.argmax(gap))
    labs = rho.taxa.labels
    return as_scalar(gap[k], rho.mode) / 2, (labs[iu[k]], labs[ju[k]])


def dinf_closed_form(rho: Semimetric, rho_prime: Semimetric):
    """max |rho - rho'| / 2 over the pairs, the exact norm-inf optimum of
    both variants: it reads the pair entries, as every program does."""
    _check_pair(rho, rho_prime)
    return _dinf_and_tight_pair(rho, rho_prime)[0]


def _gap_table(rho, rho_prime):
    """|rho - rho'| on the pairs, mirrored into a symmetric n x n table with
    a zero diagonal, the gap table of every program: the solvers see the
    pair entries' data, also on tables built with validate=False."""
    iu, ju, gap = _pair_arrays(rho, rho_prime)
    n = len(rho.taxa)
    if rho.mode == MODE_FLOAT:
        g = np.zeros((n, n))
    else:
        g = np.full((n, n), Fraction(0), dtype=object)
    g[iu, ju] = gap
    g[ju, iu] = gap
    return g


def _audit_bound_rows(rho, rho_prime, delta):
    """Raise unless the lower optimum delta meets the bound rows
    delta_x <= 2 * Dinf, which the module docstring proves it always does."""
    bound = 2 * dinf_closed_form(rho, rho_prime)
    top = delta.values.max(initial=0)
    tol = tolerance(rho.table, rho_prime.table, mode=rho.mode)
    if not top - bound <= tol:  # NaN fails
        raise TreegromovError(
            f"the lower optimum breaks a bound row: max delta {top} exceeds "
            f"2*Dinf = {bound}"
        )


def _audit_difference_rows(rho, rho_prime, delta):
    """Raise unless the lower optimum delta also meets the difference rows,
    which makes it (with the lower certificate) the full-variant optimum."""
    ok, violations = quadrangle_feasible(rho, rho_prime, delta)
    if ok:
        return
    diff = [v for v in violations if v[0] == "difference"]
    if not diff:
        raise TreegromovError(
            f"optimum breaks its own pair rows; first violation: {violations[0]}"
        )
    _, x, y, amount = diff[0]
    raise ValidationError(
        f"the lower optimum breaks the difference row ({x},{y}) by {amount}: "
        "the tables break the triangle inequality, which the full variant needs"
    )


def gromov_distance(rho: Semimetric, rho_prime: Semimetric, spec: GromovSpec) -> OptResult:
    """Distance between two semimetrics under the given spec.

    norm inf uses the closed form.  The returned OptResult carries the
    achieved value, the optimal DeltaVector, and solver certificates; for
    norm 2 the value is the square root of the QP optimum, which itself is
    kept in certificate["raw_objective"].  Every spec solves the lower
    program, so "dual" or "multipliers" holds one entry per pair row.  The
    bounded flavor then audits max delta <= 2 * Dinf and raises
    TreegromovError if it fails; the full variant audits the difference
    rows and raises ValidationError if one fails (see the module
    docstring).
    """
    _check_pair(rho, rho_prime)
    mode = rho.mode
    taxa = rho.taxa
    n = len(taxa)

    if spec.norm == "inf":
        value, pair = _dinf_and_tight_pair(rho, rho_prime)
        const = np.full(n, value) if mode == MODE_FLOAT else [value] * n
        return OptResult(
            STATUS_OPTIMAL,
            value,
            DeltaVector(taxa, const, mode),
            0,
            mode,
            "closed-form",
            certificate={"tight_pair": pair},
        )

    if spec.norm == "2" and mode == MODE_RATIONAL:
        raise ValidationError(
            "norm-2 distances are float-only (quadratic solves); "
            "convert with .to_float()"
        )
    g = _gap_table(rho, rho_prime)
    if spec.norm == "1":
        result = solve_lp(LinearProgram.from_sparse(spec.taxon_weights, g, mode))
        result = result.with_updates(argmin=DeltaVector(taxa, result.argmin, mode))
    else:  # norm 2
        result = solve_qp(QuadraticProgram.from_sparse(spec.taxon_weights, g))
        raw = result.value
        cert = dict(result.certificate)
        cert["raw_objective"] = raw
        result = result.with_updates(
            value=math.sqrt(max(raw, 0.0)),
            argmin=DeltaVector(taxa, result.argmin, MODE_FLOAT),
            certificate=cert,
        )
    if spec.bounded:
        _audit_bound_rows(rho, rho_prime, result.argmin)
    if spec.variant == VARIANT_FULL:
        _audit_difference_rows(rho, rho_prime, result.argmin)
    return result


def tree_distance(t1: PhyloTree, t2: PhyloTree, spec: GromovSpec) -> OptResult:
    """Distance between the induced semimetrics of two trees on one taxon set."""
    return gromov_distance(tree_to_semimetric(t1), tree_to_semimetric(t2), spec)


def quadrangle_feasible(rho: Semimetric, rho_prime: Semimetric, delta: DeltaVector):
    """Check both inequality families at delta.

    Returns (ok, violations); each violation is a tuple
    (family, x, y, amount) with family "pair" or "difference" and amount
    the (positive) excess.  Exact in rational mode, where the comparisons
    run on the pair entries of both tables and delta times the lcm of all
    their denominators (core._as_integers) and only the amounts are turned
    back into Fractions; within core.tolerance of both tables in float mode.
    """
    _check_pair(rho, rho_prime)
    if delta.taxa != rho.taxa:
        raise ValidationError("delta taxa differ from the semimetrics'")
    labs = rho.taxa.labels
    dv = delta.values
    tol = tolerance(rho.table, rho_prime.table, mode=rho.mode)
    iu, ju = np.triu_indices(len(labs), 1)
    d, dp = rho.table[iu, ju], rho_prime.table[iu, ju]
    if rho.mode == MODE_RATIONAL:
        m = len(iu)
        ints, den = _as_integers(np.concatenate([d, dp, dv]))
        d, dp, dv = ints[:m], ints[m : 2 * m], ints[2 * m :]
    gap, total = np.abs(d - dp), d + dp
    short = gap - (dv[iu] + dv[ju])
    excess = np.abs(dv[iu] - dv[ju]) - total
    # "not <= tol" rather than "> tol", so that a NaN counts as a violation
    short_bad = ~(short <= tol)
    excess_bad = ~(excess <= tol)

    def amount(a):
        return a if rho.mode == MODE_FLOAT else Fraction(int(a), den)

    violations = []
    for k in np.flatnonzero(short_bad | excess_bad):
        pair = labs[iu[k]], labs[ju[k]]
        if short_bad[k]:
            violations.append(("pair", *pair, amount(short[k])))
        if excess_bad[k]:
            violations.append(("difference", *pair, amount(excess[k])))
    return not violations, violations


class ExtensionMetric:
    """A semimetric on the disjoint union of the taxa with their primed
    copies, restricting to rho and rho' on the two halves."""

    __slots__ = ("semimetric", "base_taxa")

    def __init__(self, semimetric: Semimetric, base_taxa: TaxonSet):
        object.__setattr__(self, "semimetric", semimetric)
        object.__setattr__(self, "base_taxa", base_taxa)

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionMetric is immutable")

    def matched_distance(self, label: str):
        return self.semimetric.dist(label, label + PRIME_SUFFIX)

    def _half(self, primed: bool) -> Semimetric:
        labs = self.base_taxa.labels
        sub = [lab + PRIME_SUFFIX if primed else lab for lab in labs]
        idx = [self.semimetric.taxa.position(s) for s in sub]
        table = self.semimetric.table[np.ix_(idx, idx)]
        return Semimetric(self.base_taxa, table, self.semimetric.mode, validate=False)

    def restrict_left(self) -> Semimetric:
        return self._half(primed=False)

    def restrict_right(self) -> Semimetric:
        return self._half(primed=True)

    def __repr__(self):
        return f"ExtensionMetric({len(self.base_taxa)}+{len(self.base_taxa)} points)"


def _min_plus(a, b):
    """The min-plus product min_z a[x, z] + b[z, y], one z at a time so that
    memory stays O(n^2); floats or Fractions."""
    out = a[:, :1] + b[:1, :]
    step = np.empty_like(out)
    for z in range(1, a.shape[1]):
        np.add(a[:, z : z + 1], b[z : z + 1, :], out=step)
        np.minimum(out, step, out=out)
    return out


def _clique_block(table, mode):
    """The clique's edge weights as a table: the upper triangle mirrored,
    with a zero diagonal, whatever a validate=False table holds elsewhere."""
    n = table.shape[0]
    iu, ju = np.triu_indices(n, 1)
    block = np.zeros((n, n)) if mode == MODE_FLOAT else np.full((n, n), Fraction(0), dtype=object)
    block[iu, ju] = block[ju, iu] = table[iu, ju]
    return block


def realize_extension(
    rho: Semimetric, rho_prime: Semimetric, delta: DeltaVector
) -> ExtensionMetric:
    """Build the shortest-path extension with matched distances delta.

    The carrier graph has a rho-weighted clique on the taxa, a
    rho'-weighted clique on their primed copies, and one matching edge per
    taxon weighted delta_x.  Its path metric has the closed form of the
    module docstring: rho and rho' on the two halves and
    C(x, y') = min_z rho(x, z) + delta_z + rho'(z, y) across.  Its
    premises are re-verified (exactly in rational mode, within
    core.tolerance of both tables in float mode): delta is
    quadrangle-feasible (else ValidationError), rho and rho' are symmetric
    with a zero diagonal and meet the triangle inequality, and
    C(x, x') = delta_x; a failure raises TreegromovError.
    """
    ok, violations = quadrangle_feasible(rho, rho_prime, delta)
    if not ok:
        raise ValidationError(
            f"delta is not quadrangle-feasible; first violation: {violations[0]}"
        )
    mode = rho.mode
    tol = tolerance(rho.table, rho_prime.table, mode=rho.mode)
    blocks = []
    for want, name in ((rho, "rho"), (rho_prime, "rho'")):
        block = _clique_block(want.table, mode)
        # the clique's path metric is the block only if no third point
        # gives a shortcut
        shortcut = block - _min_plus(block, block)
        gap = as_scalar(max(np.abs(block - want.table).max(), shortcut.max()), mode)
        if not gap <= tol:
            raise TreegromovError(
                f"extension failed to restrict to {name} (gap {gap})"
            )
        blocks.append(block)
    left, right = blocks
    dv = delta.values
    cross = _min_plus(left + dv[None, :], right)
    labs = rho.taxa.labels
    for i, lab in enumerate(labs):
        gap = abs(cross[i, i] - dv[i])
        if not gap <= tol:
            raise TreegromovError(
                f"extension failed to match delta at {lab} (gap {gap})"
            )
    primed = [lab + PRIME_SUFFIX for lab in labs]
    points = TaxonSet(labs + tuple(primed))
    at = {lab: k for k, lab in enumerate(labs + tuple(primed))}
    perm = np.array([at[lab] for lab in points.labels])
    table = np.block([[left, cross], [cross.T, right]])[np.ix_(perm, perm)]
    return ExtensionMetric(Semimetric(points, table, mode, validate=False), rho.taxa)


def pairwise_matrix(trees, spec: GromovSpec) -> np.ndarray:
    """Symmetric matrix of tree_distance values over a tree list, one
    solve per unordered pair, in row-major order on one thread."""
    trees = list(trees)
    if not trees:
        raise ValidationError("need at least one tree")
    taxa = trees[0].taxa
    mode = trees[0].mode
    for t in trees[1:]:
        if t.taxa != taxa:
            raise ValidationError("all trees must share one taxon set")
        if t.mode != mode:
            raise ValidationError("all trees must share one mode")
    k = len(trees)
    metrics = [tree_to_semimetric(t) for t in trees]
    zero = 0.0 if mode == MODE_FLOAT else Fraction(0)
    out = np.zeros((k, k)) if mode == MODE_FLOAT else np.full((k, k), zero, dtype=object)
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = gromov_distance(metrics[i], metrics[j], spec).value
    return out


def format_certificate(
    result: OptResult,
    rho: Semimetric | None = None,
    rho_prime: Semimetric | None = None,
) -> str:
    """Human-readable dump: status, objective, delta*, and (when the
    defining semimetrics are supplied) the active constraints."""
    lines = [
        f"status      : {result.status}",
        f"method      : {result.method}",
        f"mode        : {result.mode}",
        f"iterations  : {result.iterations}",
        f"value       : {result.value}",
    ]
    if result.kkt_residual is not None:
        lines.append(f"kkt residual: {result.kkt_residual:.3e}")
    delta = result.argmin
    if isinstance(delta, DeltaVector):
        lines.append("delta*:")
        for lab in delta.taxa.labels:
            lines.append(f"  {lab}: {delta[lab]}")
        if rho is not None and rho_prime is not None:
            lines.append("active pair rows (delta_x + delta_y = |rho - rho'|):")
            labs = delta.taxa.labels
            iu, ju, gap = _pair_arrays(rho, rho_prime)
            # relative to the gaps alone, the scale of the pair rows
            tol = tolerance(gap, mode=result.mode)
            dv = delta.values
            for k in np.flatnonzero(dv[iu] + dv[ju] - gap <= tol):
                lines.append(f"  ({labs[iu[k]]},{labs[ju[k]]}): rhs {gap[k]}")
    cert = result.certificate
    if "duality_gap" in cert:
        lines.append(f"duality gap : {cert['duality_gap']}")
    if "kkt" in cert:
        parts = ", ".join(f"{k}={v:.2e}" for k, v in cert["kkt"].items())
        lines.append(f"kkt parts   : {parts}")
    return "\n".join(lines)
