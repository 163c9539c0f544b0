"""Benchmark of the tritile command line, driven in-process.

    python3 bench/run.py --workload roof_norms --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports ``tritile`` from the
checkout's ``src/``.  One client runs a closed loop: each operation is a
real ``tritile`` argv handed to ``tritile.shell.main`` with stdout and
stderr captured, and the next starts only after it returns.  A run
makes a fixed number of whole passes over the seeded operation list,
about ``--seconds`` worth on the baseline host, then checks every
distinct output with the independent checks in ``checks.py``.

``--trace 0`` reports the end-to-end metrics, with times calibrated
against host speed by ``calibrate.py``.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracer.py``, after a self-check of the tracer against hand counts.
Human-readable lines come first; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from typing import NamedTuple

import calibrate
import checks
import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# op_tail_ms per workload: the percentile, and the fewest operations a run
# completes, so that at least ten operations lie beyond that percentile.
TAIL = {"roof_norms": (97, 334), "wide_roofs": (79, 48), "long_walks": (83, 62)}

SETUPS = 10  # set-ups per run; setup_s is their median

# Raw seconds of one pass on the baseline host (bench/README.md, Machine).
# A run makes a fixed number of passes, about ``--seconds`` worth there,
# rather than timing itself out: two runs of one seed then attempt exactly
# the same operations, and fail exactly the same ones, however fast the
# host happens to be.
PASS_S = {"roof_norms": 20.0, "wide_roofs": 34.0, "long_walks": 28.0}

# Traced counts for two warm-up operations, worked out by hand from the
# code paths (bench/README.md gives the derivation).  Any call that
# escaped the wrappers through a ``from ... import`` binding would show
# here as a shortfall.
HAND_COUNTS = {
    "norm": {"dynamics.step": 6, "surface.on_surface": 39, "surface.section_at": 1450},
    "decode": {"dynamics.step": 0, "surface.on_surface": 49, "surface.section_at": 0},
}


def call(shell, argv) -> tuple[int, int, str]:
    """Run one CLI operation; returns exit code, nanoseconds and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = shell.main(list(argv))
        except Exception:  # a traceback is a failed operation, not a dead benchmark
            traceback.print_exc()
            rc = -1
        ns = time.perf_counter_ns() - t0
    return rc, ns, out.getvalue()


class SetUp(NamedTuple):
    shell: object
    warm: dict
    ops: list
    problems: list
    seconds: float


def set_up(workload: str, seed: int, directory: str) -> SetUp:
    """Import the package afresh, write the inputs and run the warm-up."""
    for name in [m for m in sys.modules if m == "tritile" or m.startswith("tritile.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    shell = importlib.import_module("tritile.shell")
    warm, ops = workloads.build(workload, seed, tempfile.mkdtemp(dir=directory))
    problems = []
    for kind, op in warm.items():
        rc, _, out = call(shell, op.argv)
        reason = op.check(rc, out)
        if reason:
            problems.append(f"warm-up {kind}: {reason}")
    return SetUp(shell, warm, ops, problems, time.perf_counter() - t0)


class Outputs:
    """First output of every operation, and which ones later changed."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, tuple[int, str]] = {}
        self.changed: set[int] = set()

    def record(self, i: int, rc: int, out: str) -> None:
        if i not in self.first:
            self.first[i] = (rc, out)
        elif self.first[i] != (rc, out):
            self.changed.add(i)

    def verdicts(self) -> dict[int, str | None]:
        return {i: self.ops[i].check(rc, out) for i, (rc, out) in self.first.items()}

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.ops)):
            rc, out = self.first[i]
            h.update(f"{rc}\n{out}\0".encode())
        return h.hexdigest()[:16]


def run_pass(shell, ops, outputs: Outputs, samples: list) -> int:
    """One closed-loop pass; appends (op index, exit code, ns) samples and
    returns the summed operation time in nanoseconds.  The module is
    passed rather than ``shell.main``, so an installed tracer's wrapper
    is the one called."""
    total = 0
    for i, op in enumerate(ops):
        rc, ns, out = call(shell, op.argv)
        samples.append((i, rc, ns))
        outputs.record(i, rc, out)
        total += ns
    return total


def tally(outputs: Outputs, samples, problems: list) -> int:
    """Failed operations among the samples; wrong outputs go to ``problems``."""
    verdicts = outputs.verdicts()
    for i, reason in sorted(verdicts.items()):
        if reason and not reason.startswith(checks.EXIT):
            problems.append(f"op {i} {outputs.ops[i].kind}: {reason}")
    for i in sorted(outputs.changed):
        problems.append(f"op {i} {outputs.ops[i].kind}: output differs between passes")
    bad = {i for i, r in verdicts.items() if r} | outputs.changed
    return sum(1 for i, *_ in samples if i in bad)


def exit_codes(samples) -> dict[int, int]:
    return dict(sorted(Counter(rc for _, rc, *_ in samples).items()))


def pass_count(workload: str, n_ops: int, seconds: float) -> int:
    """Passes in an untraced run: about ``seconds`` on the baseline host,
    and enough operations for the workload's tail percentile."""
    _, min_ops = TAIL[workload]
    return max(-(-min_ops // n_ops), round(seconds / PASS_S[workload]))


def figures(pct: int, lat_ms: list[float], setups_s: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setups_s), "s"),
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (statistics.quantiles(lat_ms, n=100, method="inclusive")[pct - 1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def untraced(workload, seed, directory, seconds, problems):
    pct = TAIL[workload][0]
    cal = calibrate.Calibration()
    setups = []  # (seconds, calibration sample index)

    def fresh_set_up():
        j = cal.tick()
        su = set_up(workload, seed, directory)
        setups.append((su.seconds, j))
        return su

    su = fresh_set_up()
    problems += su.problems
    passes = pass_count(workload, len(su.ops), seconds)
    total = passes * len(su.ops)
    # Set-ups are spread evenly over the run, so a burst of load on the
    # host skews few of them.
    fresh_at = {k * total // SETUPS for k in range(1, SETUPS)}
    outputs, samples = Outputs(su.ops), []
    t0 = time.perf_counter()
    for k in range(total):
        if k in fresh_at:
            su = fresh_set_up()
        i = k % len(su.ops)
        j = cal.tick()
        rc, ns, out = call(su.shell, su.ops[i].argv)
        samples.append((i, rc, ns, j))
        outputs.record(i, rc, out)
    wall = time.perf_counter() - t0
    while len(setups) < SETUPS:
        fresh_set_up()
    failed = tally(outputs, samples, problems)
    n = len(samples)
    raw = figures(pct, [ns / 1e6 for _, _, ns, _ in samples], [s for s, _ in setups])
    metrics = figures(pct, [ns / 1e6 * cal.scale(j) for _, _, ns, j in samples], [s * cal.scale(j) for s, j in setups])
    tail = metrics["op_tail_ms"][0]
    beyond = sum(ns / 1e6 * cal.scale(j) > tail for _, _, ns, j in samples)
    detail = {
        "setup_s": f"median of {len(setups)} set-ups spread over the run",
        "ops_per_s": f"n={n}, operations per second of operation time",
        "op_p50_ms": f"n={n}",
        "op_tail_ms": f"p{pct}, n={n}, {beyond} beyond",
    }
    print(f"{workload} seed {seed}: {passes} passes x {len(su.ops)} ops = {n} ops in {wall:.2f} s; "
          f"exit codes {exit_codes(samples)}; output digest {outputs.digest()}")
    print(f"  calibration loop: median {statistics.median(cal.times_ms):.3f} ms of {len(cal.times_ms)} samples, "
          f"nominal {calibrate.NOMINAL_MS} ms")
    print(f"  {'metric':12s} {'calibrated':>12s} {'raw':>12s}  detail")
    for name, (value, unit) in metrics.items():
        print(f"  {name:12s} {value:12.4f} {raw[name][0]:12.4f}  {unit}, {detail.get(name, 'whole process')}")
    print(f"  {'failed_frac':12s} {failed / n:12.4f} {'':12s}  {failed} of {n} operations")
    return n, failed, metrics


def self_check(shell, warm, problems) -> None:
    for kind, expected in HAND_COUNTS.items():
        tr = Tracer()
        tr.install()
        try:
            call(shell, warm[kind].argv)
        finally:
            tr.uninstall()
        got = {name: tr.total_calls(name) for name in expected}
        status = "ok" if got == expected else f"MISMATCH, expected {expected}"
        print(f"tracer self-check {kind}: {got} {status}")
        if got != expected:
            problems.append(f"tracer self-check {kind}: {got} != {expected}")


def traced(workload, seed, directory, seconds, problems):
    shell, warm, ops, warm_problems, _ = set_up(workload, seed, directory)
    problems += warm_problems
    self_check(shell, warm, problems)
    plain, traced_out, samples = Outputs(ops), Outputs(ops), []
    plain_ms, traced_ms, tracers = [], [], []
    # Half as many untraced and traced pairs as an untraced run has passes.
    for _ in range(-(-pass_count(workload, len(ops), seconds) // 2)):
        plain_ms.append(run_pass(shell, ops, plain, samples) / 1e6)
        tr = Tracer()
        tr.install()
        try:
            traced_ms.append(run_pass(shell, ops, traced_out, samples) / 1e6)
        finally:
            tr.uninstall()
        tracers.append(tr)
    failed = tally(plain, samples, problems)
    if plain.digest() != traced_out.digest() or traced_out.changed:
        problems.append("traced and untraced passes emit different outputs")
    if any(tr.counts() != tracers[0].counts() for tr in tracers):
        problems.append("traced counts differ between passes")
    layer = [tr.layer_metrics() for tr in tracers]
    # Self times of the four layers partition each traced operation.
    gaps = []
    for m, op_ms in zip(layer, traced_ms):
        selfs = sum(m[f"{name}.self_ms"][0] for name in ("cones", "surface", "dynamics", "shell"))
        gaps.append(abs(selfs - op_ms) / op_ms)
    if max(gaps) > 0.01:
        problems.append(f"layer self times miss the traced operation time by {max(gaps):.2%}")
    # Counts and ratios are exact; times are the median over traced passes.
    metrics = {
        name: (statistics.median(m[name][0] for m in layer) if unit == "ms" else value, unit)
        for name, (value, unit) in layer[0].items()
    }
    metrics["trace.op_ms"] = (statistics.median(traced_ms), "ms")
    metrics["trace_overhead_frac"] = (statistics.median(traced_ms) / statistics.median(plain_ms) - 1, "frac")
    print(f"{workload} seed {seed}: {len(tracers)} untraced + {len(tracers)} traced passes x {len(ops)} ops; "
          f"exit codes {exit_codes(samples)}; output digest {plain.digest()} (traced {traced_out.digest()})")
    print(f"  layer self times vs traced operation time: largest gap {max(gaps):.5f} over {len(gaps)} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:12.6g} {unit}")
    return len(samples), failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(TAIL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tritile", "__init__.py")):
        print(f"no tritile package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    directory = tempfile.mkdtemp(dir=WORK)
    try:
        problems: list[str] = []
        measure = traced if args.trace else untraced
        attempted, failed, metrics = measure(args.workload, args.seed, directory, args.seconds, problems)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # left in place while another run uses it
    for line in problems:
        print(f"PROBLEM {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
