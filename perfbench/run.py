#!/usr/bin/env python3
"""The treegromov benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload matrix-d1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

A run builds one workload's inputs from the seed, times ops for --seconds of
op time in this one process (a closed loop: the next op starts when the
previous one ends), checks every answer outside the timed region, and prints
report lines followed by one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end: setup_s (median of three fresh
processes, each timed from its start to the moment it would run the first
op), ops_per_s (successful ops per second of op time, failed ops' time
included), op_p50_ms and peak_rss_mb.  Times are rescaled to a reference
host speed measured by a calibration task between ops (see "host speed"
below); the raw wall-clock figures are printed beside them.  The report
lines add op_p90_ms when the run held at least 100 ops, fail_ratio with its
base, the failures by kind, and the run environment.  A workload may also
have a fixed probe, problems run once each after the timed ops (see
workloads.PairsScaled); its failures are reported by kind beside the ops'.

With --trace 1 the run covers a fixed number of ops, each once untraced and
once with the package's layer functions wrapped by ``layers.Tracer``; the
metrics are per layer (calls, busy_s and self_s per function, counts taken
at the boundaries), the probe's failures by kind, and the tracing overhead,
traced minus untraced.

Every run writes its record, spans included, to perfbench/out/.  The
package is imported from src/ next to this directory; without it the run
fails before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

# Single-threaded runs: set before numpy is imported.
THREAD_VARS = (
    "TREEGROMOV_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
P90_MIN_OPS = 100


def import_package():
    """Import treegromov from this checkout's src/, or exit without a result."""
    if not (SRC / "treegromov" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import treegromov

    if Path(treegromov.__file__).resolve().parent != SRC / "treegromov":
        sys.exit(f"perfbench: imported treegromov from {treegromov.__file__}, not {SRC}")
    return treegromov


# ---------------------------------------------------------------------------
# run environment


def _git_revision():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "treegromov").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(tg):
    import importlib.util

    import numpy

    from treegromov import _backend

    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "backend": _backend.active_backend(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "thread_settings": {var: os.environ.get(var) for var in THREAD_VARS},
        "TREEGROMOV_BACKEND": os.environ.get("TREEGROMOV_BACKEND"),
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(name, seed):
    """Child process: set up as a measured run would, then report the wall
    clock at the point where the first op would start, and the host speed."""
    tg = import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as workdir:
        workloads.WORKLOADS[name](tg, seed, workdir).warm_up()
        ready = time.time()
    speed = statistics.median(calibrate() for _ in range(3))
    print(repr(ready), repr(speed), flush=True)


def measure_setup(name, seed):
    """Set-up seconds of fresh processes, raw and at reference host speed."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
        start = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        ready, speed = (float(x) for x in done.stdout.split())
        raw.append(ready - start)
        scaled.append((ready - start) * CAL_REF_S / speed)
    return raw, scaled


# ---------------------------------------------------------------------------
# host speed
#
# On a shared host, speed can drift by 20-45% for minutes at a time with
# other tenants' load (seen on a 2-vCPU x86_64 VM), far more than the
# changes the benchmark must resolve.  A fixed task that never touches the
# package, mixing Python object work with small numpy solves as the
# package's ops do, is timed between ops; an op's time is rescaled to the
# reference speed at which that task takes CAL_REF_S.  Raw wall-clock
# figures are reported beside them.

CAL_REF_S = 0.015
CAL_EVERY_S = 0.25
_CAL_RNG = random.Random(0)
_CAL_MATRIX = [[_CAL_RNG.random() + (60.0 if i == j else 0.0) for j in range(60)] for i in range(60)]
_CAL_VECTOR = [_CAL_RNG.random() for _ in range(5000)]


def calibrate():
    """Seconds taken by the fixed calibration task."""
    import numpy as np

    a = np.array(_CAL_MATRIX)
    v = np.array(_CAL_VECTOR)
    start = perf_counter()
    counts = {}
    total = 0
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += i * i % 7
    for _ in range(200):
        total += float(np.linalg.solve(a, v[:60]).sum() + (v * 1.5 + 2.0).sum())
    return perf_counter() - start


# ---------------------------------------------------------------------------
# ops


def timed_op(wl, k):
    """Run op k; returns (seconds, failure kind or None, answer)."""
    from workloads import OpFailed

    start = perf_counter()
    try:
        out = wl.op(k)
    except OpFailed as exc:
        return perf_counter() - start, exc.kind, str(exc)
    except Exception as exc:  # an op that raises is a failed op, by type
        return perf_counter() - start, type(exc).__name__, str(exc)
    return perf_counter() - start, None, out


class Tally:
    """Op times, failures by kind, and host-speed calibrations."""

    def __init__(self):
        self.ops = []  # [k, seconds, failure kind or None]
        self.speed = []  # [ops recorded before it, calibration seconds]
        self.failures = Counter()
        self.check_failures = 0
        self.examples = {}

    def add(self, wl, k, seconds, kind, out):
        if kind is None:
            problem = wl.check(k, out)
            if problem:
                kind, out = "check", problem
                self.check_failures += 1
        if kind is not None:
            self.failures[kind] += 1
            self.examples.setdefault(kind, f"op {k}: {out}"[:300])
        self.ops.append([k, seconds, kind])

    def calibrate(self):
        self.speed.append([len(self.ops), calibrate()])

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def busy(self):
        return sum(op[1] for op in self.ops)

    def times(self, reference):
        """(seconds, succeeded) per op; with ``reference``, each op's time
        is rescaled by the mean of the calibrations just before and after it."""
        out = []
        for i, (_, seconds, kind) in enumerate(self.ops):
            if reference:
                before = [c for n, c in self.speed if n <= i][-1]
                after = next(c for n, c in self.speed if n > i)
                seconds *= 2 * CAL_REF_S / (before + after)
            out.append((seconds, kind is None))
        return out

    def p50_ms(self, reference=False):
        ok = [t for t, good in self.times(reference) if good]
        return statistics.median(ok) * 1e3 if ok else 0.0

    def p90_ms(self, reference=False):
        ok = [t for t, good in self.times(reference) if good]
        return statistics.quantiles(ok, n=10)[-1] * 1e3

    def ops_per_s(self, reference=False):
        times = self.times(reference)
        total = sum(t for t, _ in times)
        return sum(good for _, good in times) / total if total else 0.0


def measure(wl, seconds):
    """Closed loop of ops until ``seconds`` of op time, calibrating the host
    speed at the start, every CAL_EVERY_S of op time, and at the end."""
    tally = Tally()
    since = CAL_EVERY_S
    k = 0
    while tally.busy < seconds:
        if since >= CAL_EVERY_S:
            tally.calibrate()
            since = 0.0
        result = timed_op(wl, k)
        tally.add(wl, k, *result)
        since += result[0]
        k += 1
    tally.calibrate()
    return tally


def run_probe(wl):
    """The workload's fixed probe problems, once each, after the timed ops
    and outside every gated figure; their failures are counted like ops'."""
    view = types.SimpleNamespace(op=wl.probe_op, check=wl.probe_check)
    tally = Tally()
    for j in range(wl.probe_size()):
        tally.add(view, j, *timed_op(view, j))
    return tally


def measure_traced(wl, tg, seconds):
    """Each of a fixed number of ops runs once untraced and once traced,
    alternating which goes first, so counts repeat exactly and the two
    tallies see the same inputs."""
    from layers import Tracer

    count = max(2, round(seconds / (2 * wl.NOMINAL_OP_S)))
    tracer = Tracer(tg)
    plain, traced = Tally(), Tally()
    for k in range(count):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracer.op = k
                tracer.install()
            try:
                result = timed_op(wl, k)
            finally:
                tracer.uninstall()
            (traced if on else plain).add(wl, k, *result)
    return tracer, plain, traced


# ---------------------------------------------------------------------------
# reporting


def end_to_end(tally, setup):
    """The gated metrics; times at the reference host speed."""
    return {
        "setup_s": (statistics.median(setup[1]), "s"),
        "ops_per_s": (tally.ops_per_s(reference=True), "1/s"),
        "op_p50_ms": (tally.p50_ms(reference=True), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


PROBE_KINDS = ("LinAlgError", "TreegromovError", "check", "other")


def per_layer(tracer, plain, traced, probe):
    from layers import RAISED, ROUTES, SPAN_NAMES

    summary = tracer.summary()
    metrics = {}
    for name in SPAN_NAMES:
        rec = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.busy_s"] = (rec["busy_s"], "s")
        metrics[f"{name}.self_s"] = (rec["self_s"], "s")
    counts = [f"{s}.{c}" for s in ("solver.solve_lp", "solver.solve_qp") for c in ("iterations", "rows")]
    counts += [f"gromov.gromov_distance.route.{r}" for r in ROUTES]
    counts += [f"{s}.raised.{r}" for s in ("gromov.gromov_distance", "solver.solve_qp") for r in RAISED]
    counts.append("treemetric.four_point_check.witness")
    for key in counts:
        metrics[key] = (tracer.counts.get(key, 0), "count")
    metrics["solver.solve_lp.max_duality_gap"] = (
        tracer.maxima.get("solver.solve_lp.max_duality_gap", 0.0), "objective")
    metrics["solver.solve_qp.max_kkt_residual"] = (
        tracer.maxima.get("solver.solve_qp.max_kkt_residual", 0.0), "objective")
    metrics["probe.attempted"] = (probe.attempted, "count")
    for kind in PROBE_KINDS:
        if kind == "other":
            count = sum(n for k, n in probe.failures.items() if k not in PROBE_KINDS)
        else:
            count = probe.failures.get(kind, 0)
        metrics[f"probe.failed.{kind}"] = (count, "count")
    metrics["trace.ops"] = (traced.attempted, "count")
    metrics["trace.overhead.op_p50_ms"] = (traced.p50_ms() - plain.p50_ms(), "ms")
    metrics["trace.overhead.ops_per_s"] = (traced.ops_per_s() - plain.ops_per_s(), "1/s")
    return metrics


def report_lines(tally, probe, metrics, setup):
    lines = [f"{key} {value!r} {unit}" for key, (value, unit) in metrics.items()]
    reference = bool(tally.speed)
    if reference:
        cal = [c * 1e3 for _, c in tally.speed]
        lines.append(
            f"raw wall clock: setup_s {statistics.median(setup[0]):.4f} s, "
            f"ops_per_s {tally.ops_per_s():.4f} 1/s, op_p50_ms {tally.p50_ms():.3f} ms"
        )
        lines.append(
            f"host speed: calibration {statistics.median(cal):.2f} ms median, "
            f"{min(cal):.2f}-{max(cal):.2f} ms range, reference {CAL_REF_S * 1e3:g} ms"
        )
    succeeded = tally.attempted - tally.failed
    if tally.attempted >= P90_MIN_OPS and succeeded >= 10:
        lines.append(
            f"op_p90_ms {tally.p90_ms(reference)!r} ms "
            f"(raw {tally.p90_ms():.3f} ms, {succeeded} successful ops)"
        )
    else:
        lines.append(f"op_p90_ms not reported: {tally.attempted} ops < {P90_MIN_OPS}")
    ratio = tally.failed / tally.attempted
    lines.append(f"fail_ratio {ratio!r} = {tally.failed} failed / {tally.attempted} attempted")
    for kind, count in sorted(tally.failures.items()):
        lines.append(f"  {kind}: {count}, e.g. {tally.examples[kind]}")
    if probe.attempted:
        lines.append(
            f"probe fail_ratio {probe.failed / probe.attempted!r} = {probe.failed} failed / "
            f"{probe.attempted} attempted, once each, untimed"
        )
        for kind, count in sorted(probe.failures.items()):
            lines.append(f"  {kind}: {count}, e.g. {probe.examples[kind]}")
    return lines


def run_workload(args):
    import check
    import gen
    import workloads

    tg = import_package()
    setup = measure_setup(args.workload, args.seed)
    env = environment(tg)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as workdir:
        wl = workloads.WORKLOADS[args.workload](tg, args.seed, workdir)
        wl.warm_up()
        if args.trace:
            tracer, plain, tally = measure_traced(wl, tg, args.seconds)
        else:
            tracer, tally = None, measure(wl, args.seconds)
            metrics = end_to_end(tally, setup)  # peak RSS before the probe
        probe = run_probe(wl)
        if args.trace:
            metrics = per_layer(tracer, plain, tally, probe)
    self_test = check.self_test(tg, gen)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup probes (s, raw): {', '.join(f'{t:.4f}' for t in setup[0])}")
    for line in report_lines(tally, probe, metrics, setup):
        print(line)
    print(f"checker self-test: {'ok' if not self_test else '; '.join(self_test)}")
    correct = (tally.check_failures == 0 and probe.check_failures == 0 and not self_test
               and tally.failed < tally.attempted)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, setup_raw_s=setup[0], setup_reference_s=setup[1],
                  failures=dict(tally.failures), examples=tally.examples, ops=tally.ops,
                  calibrations=tally.speed, self_test=self_test,
                  probe={"ops": probe.ops, "failures": dict(probe.failures),
                         "examples": probe.examples})
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
        record["untraced_ops"] = plain.ops
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))


def run_all(args):
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: workload {name} failed")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))


def run_self_test():
    """The checker rejects corrupted answers, and BENCHMARK.json names the
    workloads and metrics this code reports."""
    import check
    import gen
    from layers import Tracer
    from workloads import WORKLOADS

    tg = import_package()
    problems = check.self_test(tg, gen)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if whys != {name: cls.WHY for name, cls in WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from the code's")
    for key, metrics in (
        ("end_to_end", end_to_end(Tally(), ([0.0], [0.0]))),
        ("per_layer", per_layer(Tracer(tg), Tally(), Tally(), Tally())),
    ):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != [(name, unit) for name, (_, unit) in metrics.items()]:
            problems.append(f"BENCHMARK.json {key} metrics differ from the code's")
    for line in problems:
        print(line)
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        return run_self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
