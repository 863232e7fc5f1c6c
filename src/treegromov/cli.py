"""Command-line surface: distances, matrices, experiments, validation.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 internal or
solver error.  All CSV output starts with a `#schema=1` comment line and
is deterministic given flags and seed (byte-identical in rational mode).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from .core import (
    MODE_FLOAT,
    MODE_RATIONAL,
    MODES,
    ParseError,
    Semimetric,
    TaxonSet,
    TreegromovError,
    ValidationError,
    axiom_witnesses,
    format_scalar,
    parse_newick,
    parse_newick_file,
    semimetric_from_csv,
)
from .gromov import GromovSpec, gromov_distance, pairwise_matrix
from .treemetric import (
    four_point_check,
    caterpillar_swap_pair,
    pd_distance,
    random_binary_tree,
    random_caterpillar,
    robinson_foulds,
    tree_to_semimetric,
)

SCHEMA_LINE = "#schema=1"
NORMS_ALL = ("1", "2", "inf")
METRIC_COLUMNS = ("D1", "D2", "Dinf", "Dt1", "Dt2", "Dtinf", "PD1", "PD2", "PDinf", "RF")

EXPERIMENTS = ("compare", "caterpillar", "parallelogram")
WEIGHT_MODELS = ("unit", "uniform01")


class ExperimentConfig:
    """Validated bundle of experiment parameters."""

    __slots__ = ("experiment", "n", "trials", "seed", "weight_model")

    def __init__(self, experiment, n=10, trials=10, seed=0, weight_model="unit"):
        if experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {experiment!r}")
        if n < 4:
            raise ValidationError(f"need n >= 4, got {n}")
        if trials < 1:
            raise ValidationError(f"need trials >= 1, got {trials}")
        if weight_model not in WEIGHT_MODELS:
            raise ValidationError(f"unknown weight model {weight_model!r}")
        self.experiment = experiment
        self.n = int(n)
        self.trials = int(trials)
        self.seed = int(seed)
        self.weight_model = weight_model


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return format_scalar(value, MODE_RATIONAL)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _pair_seed(seed: int, trial: int, which: int) -> int:
    return (seed * 1000003 + 2 * trial + which) % (2**63)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_metric_input(arg: str, mode: str, validate: bool = True):
    """A tree file, a semimetric CSV file, or a literal Newick string.

    Returns (semimetric, tree_or_None); ``validate`` applies to a CSV table.
    """
    text = _read_text(arg) if os.path.exists(arg) else arg
    stripped = text.strip()
    if ";" in stripped:
        tree = parse_newick(stripped, mode=mode)
        return tree_to_semimetric(tree), tree
    if not os.path.exists(arg):
        raise ParseError(f"no such file and not a Newick string: {arg!r}")
    rho = semimetric_from_csv(text, mode=mode, validate=validate)
    return rho, None


def _requested_norms(norm_flag: str):
    return NORMS_ALL if norm_flag == "all" else (norm_flag,)


def _distance_value(rho, rho_prime, norm, variant, bounded, mode):
    """One distance, for both its D and its Dt cell: the full variant is
    the lower solve plus an audit (see the gromov module docstring), so
    callers solve once per norm, with variant full whenever a D cell is
    wanted.  Norm-2 in rational mode falls back to floats (quadratic
    solves are float-only) and reports a float cell."""
    if norm == "2" and mode == MODE_RATIONAL:
        res = gromov_distance(
            rho.to_float(),
            rho_prime.to_float(),
            GromovSpec(norm=norm, variant=variant, bounded=bounded),
        )
        return res.value
    res = gromov_distance(
        rho, rho_prime, GromovSpec(norm=norm, variant=variant, bounded=bounded)
    )
    return res.value


def _pd_value(rho, rho_prime, norm):
    if norm == "2" and rho.mode == MODE_RATIONAL:
        return pd_distance(rho.to_float(), rho_prime.to_float(), norm)
    return pd_distance(rho, rho_prime, norm)


# ---------------------------------------------------------------------------
# dist


def cmd_dist(args) -> int:
    mode = args.mode
    rho1, t1 = _load_metric_input(args.input1, mode)
    rho2, t2 = _load_metric_input(args.input2, mode)
    if rho1.taxa != rho2.taxa:
        raise ValidationError(
            f"taxon sets differ: {rho1.taxa.labels} vs {rho2.taxa.labels}"
        )
    norms = _requested_norms(args.norm)
    variant = "lower" if args.variant == "lower" else "full"
    values = [_distance_value(rho1, rho2, nm, variant, args.bounded, mode) for nm in norms]
    cells = []
    if args.variant in ("full", "both"):
        cells += [(f"D{nm}", v) for nm, v in zip(norms, values)]
    if args.variant in ("lower", "both"):
        cells += [(f"Dt{nm}", v) for nm, v in zip(norms, values)]
    for nm in norms:
        cells.append((f"PD{nm}", _pd_value(rho1, rho2, nm)))
    if t1 is not None and t2 is not None:
        cells.append(("RF", robinson_foulds(t1, t2)))
    out = _open_out(args.out)
    try:
        if args.csv:
            out.write(SCHEMA_LINE + "\n")
            out.write(",".join(name for name, _ in cells) + "\n")
            out.write(",".join(_fmt(v) for _, v in cells) + "\n")
        else:
            out.write(", ".join(f"{name}={_fmt(v)}" for name, v in cells) + "\n")
    finally:
        _close_out(out)
    return 0


# ---------------------------------------------------------------------------
# matrix


def cmd_matrix(args) -> int:
    text = _read_text(args.input)
    trees = parse_newick_file(text, mode=args.mode)
    spec = GromovSpec(norm=args.norm, variant=args.variant, bounded=args.bounded)
    if args.norm == "2" and args.mode == MODE_RATIONAL:
        trees = [t.with_mode(MODE_FLOAT) for t in trees]
    mat = pairwise_matrix(trees, spec)
    out = _open_out(args.out)
    try:
        out.write(SCHEMA_LINE + "\n")
        k = len(trees)
        out.write(",".join(str(i) for i in range(k)) + "\n")
        for i in range(k):
            out.write(",".join(_fmt(mat[i, j]) for j in range(k)) + "\n")
    finally:
        _close_out(out)
    return 0


# ---------------------------------------------------------------------------
# experiments


def _metric_row(rho1, rho2, t1, t2, mode):
    """All ten metric columns for one tree pair; D_i and Dt_i come from
    one solve."""
    dist = [_distance_value(rho1, rho2, nm, "full", False, mode) for nm in NORMS_ALL]
    vals = dist + dist
    for nm in NORMS_ALL:
        vals.append(_pd_value(rho1, rho2, nm))
    vals.append(robinson_foulds(t1, t2))
    return vals


def _compare_row(config, trial, mode, caterpillar=False):
    n = config.n
    if caterpillar:
        if trial == 0 and (n - 1) % 4 == 0 and n >= 5:
            t1, t2 = caterpillar_swap_pair((n - 1) // 4, mode=mode)
        else:
            t1 = random_caterpillar(n, _pair_seed(config.seed, trial, 0), mode=mode)
            t2 = random_caterpillar(n, _pair_seed(config.seed, trial, 1), mode=mode)
    else:
        t1 = random_binary_tree(
            n, _pair_seed(config.seed, trial, 0), weight_model=config.weight_model, mode=mode
        )
        t2 = random_binary_tree(
            n, _pair_seed(config.seed, trial, 1), weight_model=config.weight_model, mode=mode
        )
    r1, r2 = tree_to_semimetric(t1), tree_to_semimetric(t2)
    return _metric_row(r1, r2, t1, t2, mode)


def _caterpillar_bound(n: int):
    if (n - 1) % 4 == 0:
        m = (n - 1) // 4
        return 4 * m * m - 4 * m + 2
    return n * n / 4 - n + 2


def _two_edge_table(sizes, l, lp):
    """Distance table of the two-edge block tree: three leaf blocks A, B,
    C with pendant edges of length 2, internal path A -(l)- B -(lp)- C.
    The slack keeps the table a semimetric for |l|, |lp| < 1, so the
    internal lengths may go negative (needed for the difference tree)."""
    na, nb, nc = sizes
    n = na + nb + nc
    block = [0] * na + [1] * nb + [2] * nc
    between = [[0.0, l, l + lp], [l, 0.0, lp], [l + lp, lp, 0.0]]
    tab = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            tab[i, j] = tab[j, i] = 4.0 + between[block[i]][block[j]]
    return tab


def _parallelogram_row(config, trial):
    n = config.n
    na = n - 2 * (n // 3)
    sizes = (na, n // 3, n // 3)
    rng = np.random.default_rng(_pair_seed(config.seed, trial, 0))
    l1, lp1, l2, lp2 = rng.uniform(0.1, 1.0, size=4)
    labels = [f"x{i:02d}" for i in range(n)]
    taxa = TaxonSet(labels)
    zero = Semimetric(taxa, _two_edge_table(sizes, 0.0, 0.0), MODE_FLOAT, validate=False)

    def dt2sq(l, lp):
        rho = Semimetric(taxa, _two_edge_table(sizes, l, lp), MODE_FLOAT, validate=False)
        v = gromov_distance(zero, rho, GromovSpec(norm=2, variant="lower")).value
        return v * v

    lhs = dt2sq(l1, lp1) + dt2sq(l2, lp2)
    rhs = 0.5 * (dt2sq(l1 + l2, lp1 + lp2) + dt2sq(l1 - l2, lp1 - lp2))
    return [lhs, rhs]


def _experiment_header(config):
    if config.experiment in ("compare", "caterpillar"):
        cols = ("trial",) + METRIC_COLUMNS
        if config.experiment == "caterpillar":
            cols = cols + ("bound",)
        return cols
    return ("trial", "lhs", "rhs")


def _experiment_row(config, trial, mode):
    if config.experiment == "compare":
        return _compare_row(config, trial, mode)
    if config.experiment == "caterpillar":
        row = _compare_row(config, trial, mode, caterpillar=True)
        return row + [_caterpillar_bound(config.n)]
    return _parallelogram_row(config, trial)


def run_experiment(config: ExperimentConfig, mode=MODE_FLOAT, extra_column=None, out=None):
    """Write the experiment CSV to `out` (a writable handle)."""
    header = _experiment_header(config)
    extra_name, extra_values = None, None
    if extra_column is not None:
        extra_name, extra_values = extra_column
        if len(extra_values) < config.trials:
            raise ValidationError(
                f"extra column {extra_name!r} has {len(extra_values)} values, "
                f"need {config.trials}"
            )
        header = header + (extra_name,)
    rows = [_experiment_row(config, t, mode) for t in range(config.trials)]
    out.write(SCHEMA_LINE + "\n")
    out.write(",".join(header) + "\n")
    for trial, row in enumerate(rows):
        cells = [str(trial)] + [_fmt(v) for v in row]
        if extra_values is not None:
            cells.append(extra_values[trial])
        out.write(",".join(cells) + "\n")


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        args.experiment,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        weight_model=args.weights,
    )
    extra = None
    if args.extra_column is not None:
        if ":" not in args.extra_column:
            raise ParseError("--extra-column expects NAME:FILE")
        name, path = args.extra_column.split(":", 1)
        values = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
        extra = (name, values)
    out = _open_out(args.out)
    try:
        run_experiment(config, mode=args.mode, extra_column=extra, out=out)
    finally:
        _close_out(out)
    return 0


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    rho, tree = _load_metric_input(args.input, args.mode, validate=False)
    source = "table" if tree is None else "tree"
    out = _open_out(args.out)
    failed = False
    try:
        n = len(rho.taxa)
        labs = rho.taxa.labels
        witnesses = axiom_witnesses(rho.table, rho.mode)
        checks = [
            ("symmetric", lambda i, j: f"asymmetric at ({labs[i]},{labs[j]})"),
            ("zero-diagonal", lambda i: f"nonzero at {labs[i]}"),
            ("nonnegative", lambda i, j: f"negative at ({labs[i]},{labs[j]})"),
            (
                "triangle",
                lambda i, j, k: (
                    f"d({labs[i]},{labs[k]}) > d({labs[i]},{labs[j]}) + d({labs[j]},{labs[k]})"
                ),
            ),
        ]
        for (name, render), witness in zip(checks, witnesses):
            if witness is None:
                out.write(f"{name}: PASS\n")
            else:
                failed = True
                out.write(f"{name}: FAIL ({render(*witness)})\n")
        if not failed:
            ok, quad = four_point_check(rho)
            if ok:
                out.write("four-point: PASS\n")
            else:
                failed = True
                out.write("four-point: FAIL (quadruple {},{},{},{})\n".format(*quad))
        else:
            out.write("four-point: SKIPPED (axioms failed)\n")
        out.write(f"source: {source}, {n} taxa\n")
    finally:
        _close_out(out)
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# plumbing


def _open_out(path):
    if path is None:
        return sys.stdout
    return open(path, "w", encoding="utf-8")


def _close_out(handle):
    if handle is not sys.stdout:
        handle.close()


def _add_common_flags(p, norms=("1", "2", "inf", "all"), variants=("full", "lower", "both")):
    p.add_argument("--norm", choices=norms, default="all" if "all" in norms else "1")
    p.add_argument("--variant", choices=variants, default="both" if "both" in variants else "full")
    p.add_argument("--bounded", action="store_true")
    p.add_argument("--mode", choices=MODES, default=MODE_FLOAT)
    p.add_argument("--out", default=None, metavar="PATH")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, and in-process callers run main many times."""
    parser = argparse.ArgumentParser(
        prog="treegromov",
        description="Gromov-type distances between trees and semimetric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two trees or tables")
    p.add_argument("input1", help="Newick file/string or semimetric CSV file")
    p.add_argument("input2")
    _add_common_flags(p)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("matrix", help="pairwise distance matrix of many trees")
    p.add_argument("input", help="file with one Newick tree per line")
    _add_common_flags(p, norms=("1", "2", "inf"), variants=("full", "lower"))
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("experiment", help="CSV experiment harness")
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", choices=WEIGHT_MODELS, default="unit")
    p.add_argument("--mode", choices=MODES, default=MODE_FLOAT)
    p.add_argument("--extra-column", default=None, metavar="NAME:FILE")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("validate", help="semimetric axioms and four-point check")
    p.add_argument("input", help="Newick file/string or semimetric CSV file")
    p.add_argument("--mode", choices=MODES, default=MODE_FLOAT)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except TreegromovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
