#!/usr/bin/env python3
"""Benchmark for mml: three workloads, end-to-end and per-layer metrics.

Run from the repository root, for example:

    python3 bench/run.py --workload exact-hitting --seed 3 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and the ``why`` of each in BENCHMARK.json):
``verify-all``, ``exact-hitting``, ``mc-sampling``. Each run imports mml from
``src/`` of this checkout, builds its inputs from ``--seed``, and runs
passes over the workload's ops until ``--seconds`` have gone, and at least
two passes, since the fingerprint of every output is compared between passes
with the same seed. One ``verify-all`` pass takes about 25-30 s on 2 cores,
so its runs take longer than ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of three set-ups in fresh processes), the wall time of one pass (the
sum over ops of each op's median time across passes), and peak RSS. Both
times are given at a fixed reference machine speed: ``calibrate.py`` times a
fixed numpy kernel every 0.4 s during the passes and after each
set-up, and each time is scaled by ``REFERENCE_KERNEL_S`` over the mean
kernel time measured with it, so that the host's slow and fast stretches
cancel. The raw seconds are in the detail block.
``--trace 1`` runs an untraced pass, a traced pass and another untraced
pass, and reports the per-layer metrics: per-function calls and seconds,
self time per module, work counts, and the tracing overhead (the traced
pass time minus that of the untraced pass after it).

The second-to-last line of standard output is a JSON detail block
(provenance, per-op times, fingerprints, failed ops, failed checks). The
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
An op that raises, or whose output fingerprint differs from the first
pass's, is a failed op; a check that fails makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from hashlib import sha256
from pathlib import Path

# One BLAS thread, set before numpy loads: the workloads run single-process,
# and on a 2-core machine a second BLAS thread made passes both slower and
# noisier. A value already in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify-all", "exact-hitting", "mc-sampling")
MIN_PASSES = 2
SETUP_SAMPLES = 3
# Kernel runs timed right after each set-up, to scale it to the reference speed.
SETUP_KERNEL_RUNS = 10
# Seconds between kernel runs during the timed passes: about 5% of the time.
PROBE_EVERY_S = 0.4
# With default verify options these counts do not depend on the seed:
# first_visit_table runs for 3 iid + 6 thm1 + 3 cor1 + 4 cor3 chains, and
# t_large for the 6 + 3 + 4 of thm1, cor1 and cor3.
VERIFY_ALL_SPANS = {"simulate.first_visit_table": 16, "hitting.t_large": 13}


def set_up(workload: str, seed: int, workdir: Path):
    """Import mml from this checkout and build the workload; returns it and the seconds taken."""
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mml

    if not Path(mml.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"mml was imported from {mml.__file__}, not from {src}")
    import workloads

    return workloads.BUILDERS[workload](seed, workdir), time.perf_counter() - start


def scaled_setup(seconds: float) -> tuple[float, float]:
    """Set-up seconds at the reference speed, and the mean kernel time used."""
    from calibrate import REFERENCE_KERNEL_S, time_kernel

    kernel_s = statistics.fmean(time_kernel() for _ in range(SETUP_KERNEL_RUNS))
    return seconds * REFERENCE_KERNEL_S / kernel_s, kernel_s


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds at the reference speed, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Ledger:
    """Outcome of every op run: times, fingerprints, failures and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[dict] = []
        self.problems: list[str] = []
        self.fingerprints: dict[str, dict[str, str]] = {}
        self.rel_errs: dict[str, float] = {}
        self.pass_s: list[float] = []
        self.pass_kernel_s: list[float] = []
        self.op_s: dict[str, list[float]] = defaultdict(list)

    def run_pass(self, workload, tracer=None, probe=None) -> float:
        """Run every op once; returns the summed seconds of the library calls.

        With a ``SpeedProbe`` running, its handler time is left out of each
        op's time, and the op times of this pass are also kept scaled to the
        reference speed by the mean kernel time over the pass.
        """
        index = len(self.pass_s)
        first_sample = len(probe.samples) if probe is not None else 0
        total = 0.0
        times = {}
        for op in workload.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op = op.name
            error = None
            spent = probe.spent if probe is not None else 0.0
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # an op that raises is a failed op; the pass goes on
                error = f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
            if probe is not None:
                elapsed -= probe.spent - spent
            total += elapsed
            times[op.name] = elapsed
            if error is not None:
                self.failed.append({"pass": index, "op": op.name, "error": error})
                continue
            digest = {k: sha256(v).hexdigest() for k, v in op.fingerprint(out).items()}
            first = self.fingerprints.setdefault(op.name, digest)
            if first is digest:
                self.problems += [f"{op.name}: {p}" for p in op.check(out)]
                if op.rel_err is not None:
                    self.rel_errs[op.name] = op.rel_err(out)
            elif digest != first:
                self.failed.append({"pass": index, "op": op.name,
                                    "error": "output fingerprint differs from an earlier pass"})
            del out  # keep one op's output alive at a time
        if tracer is not None:
            tracer.op = None
        scale = 1.0
        if probe is not None:
            from calibrate import REFERENCE_KERNEL_S, time_kernel

            samples = probe.samples[first_sample:]
            if not samples:  # a pass shorter than the probe interval
                samples = [time_kernel()]
            kernel_s = statistics.fmean(samples)
            self.pass_kernel_s.append(kernel_s)
            scale = REFERENCE_KERNEL_S / kernel_s
        for name, elapsed in times.items():
            self.op_s[name].append(elapsed * scale)
        self.pass_s.append(total)
        return total

    def wall_s(self) -> float:
        """One pass of the workload: the sum over ops of each op's median time.

        Taking the median op by op drops a burst of machine noise that hits
        one op in one pass. Passes run with a probe count at the reference
        speed.
        """
        return sum(statistics.median(v) for v in self.op_s.values())

    def detail(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "pass_s": self.pass_s,
            "pass_kernel_s": self.pass_kernel_s,
            "op_median_s": {k: statistics.median(v) for k, v in self.op_s.items()},
            "fingerprints_sha256": self.fingerprints,
            "rel_err": self.rel_errs,
        }


def timed_run(args, workload, setup_s: float):
    from calibrate import SpeedProbe

    first, setup_kernel_s = scaled_setup(setup_s)
    setups = [first] + [probe_setup(args.workload, args.seed)
                        for _ in range(SETUP_SAMPLES - 1)]
    ledger = Ledger()
    start = time.perf_counter()
    with SpeedProbe(PROBE_EVERY_S) as probe:
        while len(ledger.pass_s) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            ledger.run_pass(workload, probe=probe)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": ledger.wall_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return ledger, metrics, {"setup_samples_s": setups,
                             "setup_raw_s": setup_s, "setup_kernel_s": setup_kernel_s,
                             "wall_raw_s": statistics.median(ledger.pass_s),
                             "probe_kernel_runs": len(probe.samples)}


def traced_run(args, workload):
    import numpy as np

    import mml
    from tracer import Tracer

    # The first pass warms caches and allocator arenas; the overhead compares
    # the traced pass with the untraced pass that follows it.
    ledger = Ledger()
    ledger.run_pass(workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced = ledger.run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    untraced = ledger.run_pass(workload)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced - untraced
    metrics["failed_ratio"] = len(ledger.failed) / ledger.attempted
    metrics["max_rel_err"] = max(ledger.rel_errs.values(), default=0.0)

    # The largest first-visit call again at workers=1 and 2, untraced; workers
    # must not change the table.
    metrics["simulate.first_visit_table.speedup_w2"] = 0.0
    call = tracer.largest_first_visit_call()
    if call is not None:
        chain, n, trials, master_seed, pi = call
        seconds, tables = [], []
        for workers in (1, 2):
            start = time.perf_counter()
            tables.append(mml.first_visit_table(chain, n, trials, master_seed, workers, pi))
            seconds.append(time.perf_counter() - start)
        metrics["simulate.first_visit_table.speedup_w2"] = seconds[0] / seconds[1]
        if not np.array_equal(tables[0], tables[1]):
            ledger.problems.append("first_visit_table: workers=2 changed the table")

    spans = tracer.aggregate()
    if workload.name == "verify-all" and args.seed == 3:
        for name, expected in VERIFY_ALL_SPANS.items():
            got = spans.get(name, {}).get("calls", 0)
            if got != expected:
                ledger.problems.append(f"tracer self-check: {got} {name} spans, expected {expected}")
    return ledger, metrics, {"spans": spans, "untraced_pass_s": untraced, "traced_pass_s": traced}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    source = sha256()
    for path in sorted((ROOT / "src" / "mml").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "options": workload.options,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        _, seconds = set_up(args.workload, args.seed, BENCH_DIR / ".tmp-probe")
        print(repr(scaled_setup(seconds)[0]))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as tmp:
        workload, setup_s = set_up(args.workload, args.seed, Path(tmp))
        if args.trace:
            ledger, metrics, extra = traced_run(args, workload)
        else:
            ledger, metrics, extra = timed_run(args, workload, setup_s)

    for f in ledger.failed:
        print(f"failed op: pass {f['pass']} {f['op']}: {f['error']}", file=sys.stderr)
    for p in ledger.problems:
        print(f"check failed: {p}", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"detail": {"provenance": provenance(args, workload), **ledger.detail(),
                                 "all_metrics": metrics, **extra}}))
    print(json.dumps({
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
