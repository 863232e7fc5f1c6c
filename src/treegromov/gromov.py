"""The Gromov-type distances between semimetrics and between trees.

For semimetrics rho, rho' on a shared taxon set, the distance with norm i
is the i-norm of the cheapest matched-distance vector delta in

    delta_x + delta_y >= |rho - rho'|(x, y)            (pair rows)
    |delta_x - delta_y| <= (rho + rho')(x, y)          (difference rows)

over all taxon pairs.  Dropping the difference rows gives the lower
variants (written Dt in CSV headers); adding delta_x <= 2 * Dinf gives the
bounded flavor, which never changes the optimum but shrinks the feasible
set.  Norm 1 is an LP, norm 2 a strictly convex QP (the reported value is
the square root of its optimum), and norm inf has the closed form
max|rho - rho'| / 2: the constant vector at that value is feasible for
both variants, and any feasible delta has max delta >= (delta_x +
delta_y)/2 >= |rho - rho'|(x, y)/2 at the maximizing pair.

Every optimum delta* is realizable: an actual semimetric on the disjoint
union of the two copies with matched distances delta* exists and is built
by realize_extension via shortest paths.
"""

from __future__ import annotations

import math
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
    as_scalar,
)
from .solver import (
    GE,
    STATUS_OPTIMAL,
    LinearProgram,
    OptResult,
    QuadraticProgram,
    solve_lp,
    solve_qp,
)
from .treemetric import normalize_norm, tree_to_semimetric

FEAS_RTOL = 1e-9

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
    lower, optionally bounded, optionally with positive taxon weights
    (norms 1 and 2 only)."""

    __slots__ = ("norm", "variant", "bounded", "taxon_weights")

    def __init__(self, norm=1, variant=VARIANT_FULL, bounded=False, taxon_weights=None):
        norm = normalize_norm(norm)
        if variant not in (VARIANT_FULL, VARIANT_LOWER):
            raise ValidationError(f"variant must be 'full' or 'lower', got {variant!r}")
        if taxon_weights is not None:
            taxon_weights = tuple(float(w) for w in taxon_weights)
            if any(w <= 0 for w in taxon_weights):
                raise ValidationError("taxon weights must be strictly positive")
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


def dinf_closed_form(rho: Semimetric, rho_prime: Semimetric):
    """max |rho - rho'| / 2, the exact norm-inf optimum of both variants."""
    _check_pair(rho, rho_prime)
    n = len(rho.taxa)
    if rho.mode == MODE_FLOAT:
        return float(np.abs(rho.table - rho_prime.table).max(initial=0.0)) / 2.0
    best = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(rho.table[i, j] - rho_prime.table[i, j])
            if gap > best:
                best = gap
    return best / 2


def _assemble_rows(rho, rho_prime, variant, upper_value):
    """Sparse constraint rows in deterministic order: pair rows for i < j,
    then the two difference rows per pair for the full variant."""
    n = len(rho.taxa)
    d, dp = rho.table, rho_prime.table
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            rows.append((((i, 1), (j, 1)), GE, abs(d[i, j] - dp[i, j])))
    if variant == VARIANT_FULL:
        for i in range(n):
            for j in range(i + 1, n):
                total = d[i, j] + dp[i, j]
                rows.append((((i, 1), (j, -1)), GE, -total))
                rows.append((((j, 1), (i, -1)), GE, -total))
    upper = None if upper_value is None else [upper_value] * n
    return rows, upper


def gromov_distance(rho: Semimetric, rho_prime: Semimetric, spec: GromovSpec) -> OptResult:
    """Distance between two semimetrics under the given spec.

    norm inf uses the closed form.  The returned OptResult carries the
    achieved value, the optimal DeltaVector, and solver certificates; for
    norm 2 the value is the square root of the QP optimum, which itself is
    kept in certificate["raw_objective"].
    """
    _check_pair(rho, rho_prime)
    mode = rho.mode
    taxa = rho.taxa
    n = len(taxa)

    if spec.norm == "inf":
        if spec.taxon_weights is not None:
            raise ValidationError("taxon weights are supported for norms 1 and 2 only")
        value = dinf_closed_form(rho, rho_prime)
        const = np.full(n, value) if mode == MODE_FLOAT else [value] * n
        return OptResult(
            STATUS_OPTIMAL,
            value,
            DeltaVector(taxa, const, mode),
            0,
            mode,
            "closed-form",
            certificate={"tight_pair": _argmax_pair(rho, rho_prime)},
        )

    upper_value = None
    if spec.bounded:
        upper_value = 2 * dinf_closed_form(rho, rho_prime)
    weights = spec.taxon_weights or tuple([1] * n)
    if len(weights) != n:
        raise ValidationError(f"need {n} taxon weights, got {len(weights)}")
    rows, upper = _assemble_rows(rho, rho_prime, spec.variant, upper_value)

    if spec.norm == "1":
        objective = [as_scalar(w, mode) for w in weights]
        lp = LinearProgram.from_sparse(objective, rows, upper=upper, mode=mode)
        result = solve_lp(lp)
        if result.status != STATUS_OPTIMAL:
            raise TreegromovError(
                f"norm-1 program reported {result.status} on valid semimetrics; "
                f"instance: {n} taxa, variant={spec.variant}, bounded={spec.bounded}"
            )
        return result.with_updates(argmin=DeltaVector(taxa, result.argmin, mode))

    # norm 2
    if mode == MODE_RATIONAL:
        raise ValidationError(
            "norm-2 distances are float-only (quadratic solves); "
            "convert with .to_float()"
        )
    qp = QuadraticProgram.from_sparse(weights, rows, upper=upper)
    result = solve_qp(qp)
    if result.status != STATUS_OPTIMAL:
        raise TreegromovError(
            f"norm-2 program reported {result.status} on valid semimetrics; "
            f"instance: {n} taxa, variant={spec.variant}, bounded={spec.bounded}"
        )
    raw = result.value
    cert = dict(result.certificate)
    cert["raw_objective"] = raw
    return result.with_updates(
        value=math.sqrt(max(raw, 0.0)),
        argmin=DeltaVector(taxa, np.maximum(result.argmin, 0.0), MODE_FLOAT),
        certificate=cert,
    )


def _argmax_pair(rho, rho_prime):
    n = len(rho.taxa)
    labs = rho.taxa.labels
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(rho.table[i, j] - rho_prime.table[i, j])
            if best is None or gap > best[0]:
                best = (gap, labs[i], labs[j])
    if best is None:
        return None
    return best[1], best[2]


def tree_distance(t1: PhyloTree, t2: PhyloTree, spec: GromovSpec) -> OptResult:
    """Distance between the induced semimetrics of two trees on one taxon set."""
    if t1.taxa != t2.taxa:
        raise ValidationError("taxon sets differ")
    if t1.mode != t2.mode:
        raise ValidationError("modes differ")
    return gromov_distance(tree_to_semimetric(t1), tree_to_semimetric(t2), spec)


def quadrangle_feasible(rho: Semimetric, rho_prime: Semimetric, delta: DeltaVector):
    """Check both inequality families at delta.

    Returns (ok, violations); each violation is a tuple
    (family, x, y, amount) with family "pair" or "difference" and amount
    the (positive) excess.  Exact in rational mode, relative tolerance
    FEAS_RTOL in float mode.
    """
    _check_pair(rho, rho_prime)
    if delta.taxa != rho.taxa:
        raise ValidationError("delta taxa differ from the semimetrics'")
    n = len(rho.taxa)
    labs = rho.taxa.labels
    d, dp, dv = rho.table, rho_prime.table, delta.values
    if rho.mode == MODE_FLOAT:
        tol = FEAS_RTOL * max(
            1.0, float(d.max(initial=0.0)), float(dp.max(initial=0.0))
        )
    else:
        tol = 0
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(d[i, j] - dp[i, j])
            short = gap - (dv[i] + dv[j])
            if short > tol:
                violations.append(("pair", labs[i], labs[j], short))
            excess = abs(dv[i] - dv[j]) - (d[i, j] + dp[i, j])
            if excess > tol:
                violations.append(("difference", labs[i], labs[j], excess))
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


def realize_extension(
    rho: Semimetric, rho_prime: Semimetric, delta: DeltaVector
) -> ExtensionMetric:
    """Build the shortest-path extension with matched distances delta.

    The carrier graph has a rho-weighted clique on the taxa, a
    rho'-weighted clique on their primed copies, and one matching edge per
    taxon weighted delta_x.  For quadrangle-feasible delta the resulting
    shortest-path semimetric restricts to rho and rho' and realizes
    d(x, x') = delta_x; all three facts are re-verified (exactly in
    rational mode) and a failure is an internal error.
    """
    from .extension import WeightedGraph, graph_metric

    ok, violations = quadrangle_feasible(rho, rho_prime, delta)
    if not ok:
        raise ValidationError(
            f"delta is not quadrangle-feasible; first violation: {violations[0]}"
        )
    labs = rho.taxa.labels
    n = len(labs)
    primed = [lab + PRIME_SUFFIX for lab in labs]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((labs[i], labs[j], rho.table[i, j]))
            edges.append((primed[i], primed[j], rho_prime.table[i, j]))
    for i in range(n):
        edges.append((labs[i], primed[i], delta.values[i]))
    graph = WeightedGraph(labs + tuple(primed), edges, mode=rho.mode)
    metric = graph_metric(graph)
    ext = ExtensionMetric(metric, rho.taxa)
    tol = 0 if rho.mode == MODE_RATIONAL else FEAS_RTOL * max(
        1.0, float(np.max(np.asarray(rho.table, dtype=float), initial=0.0))
    )
    left, right = ext.restrict_left(), ext.restrict_right()
    for got, want, name in ((left, rho, "rho"), (right, rho_prime, "rho'")):
        gap = _max_abs_gap(got.table, want.table, rho.mode)
        if gap > tol:
            raise TreegromovError(
                f"extension failed to restrict to {name} (gap {gap})"
            )
    for i, lab in enumerate(labs):
        gap = abs(ext.matched_distance(lab) - delta.values[i])
        if gap > tol:
            raise TreegromovError(
                f"extension failed to match delta at {lab} (gap {gap})"
            )
    return ext


def _max_abs_gap(a, b, mode):
    if mode == MODE_FLOAT:
        return float(np.abs(a - b).max(initial=0.0))
    worst = Fraction(0)
    for idx in np.ndindex(a.shape):
        gap = abs(a[idx] - b[idx])
        if gap > worst:
            worst = gap
    return worst


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
            n = len(labs)
            tol = 0 if result.mode == MODE_RATIONAL else 1e-7
            for i in range(n):
                for j in range(i + 1, n):
                    gap = abs(rho.table[i, j] - rho_prime.table[i, j])
                    slack = delta.values[i] + delta.values[j] - gap
                    if slack <= tol:
                        lines.append(f"  ({labs[i]},{labs[j]}): rhs {gap}")
    cert = result.certificate
    if "duality_gap" in cert:
        lines.append(f"duality gap : {cert['duality_gap']}")
    if "farkas_ray" in cert and cert["farkas_ray"] is not None:
        lines.append("farkas ray  : certifies infeasibility (b . y > 0, A^T y <= 0)")
    if "kkt" in cert:
        parts = ", ".join(f"{k}={v:.2e}" for k, v in cert["kkt"].items())
        lines.append(f"kkt parts   : {parts}")
    return "\n".join(lines)
