"""Benchmark of the supertriples package: one process, one thread, a closed
loop with one client.

    python3 bench/run.py --workload {reproduce,queries,enumerate} \\
        --seed N --seconds S --trace {0,1}

The package is imported from the checkout's ``src/``.  A run repeats one pass
of the workload's operations while the next pass still fits in ``--seconds``
(at least one pass).  Every operation's output is checked (``workloads.py``).

``--trace 0`` reports the end-to-end metrics, all times rescaled to a nominal
machine speed (``probe.py``):

* ``setup_s``: median over fresh interpreters of ``import supertriples`` plus
  the first ``get_catalog()``, the start-up every CLI call pays;
* ``wall_s``, ``cpu_s``: median over passes of the pass time, the sum of its
  operations' times; an operation under SHORT_OP_S runs REPEATS times and
  its time is their median;
* ``ops_per_s``: operations per second of pass time;
* ``op_p50_ms``: median operation time (the mean below 20 samples);
* ``op_p95_ms``: nearest-rank 95th percentile (the slowest operation below
  200 samples);
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``--trace 1`` reports per-layer metrics (``spans.py``): one pass with spans
around each layer boundary, one pass counting scalar operations, and
untraced passes; the traced minus the untraced pass time is the overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the ``#`` lines before it give the
machine, the sample counts, raw times and any failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
# An operation faster than this is timed as the median of REPEATS runs.
SHORT_OP_S = 0.1
REPEATS = 5
SETUP_SNIPPET = """
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import supertriples
from supertriples.catalog import get_catalog
get_catalog()
elapsed = time.perf_counter() - t0
if not supertriples.__file__.startswith(sys.argv[1]):
    sys.exit("imported supertriples from %s" % supertriples.__file__)
sys.path.insert(0, sys.argv[2])
import probe
speed = statistics.median([probe.timed_work() for _ in range(6)][1:])
print(repr(elapsed * probe.NOMINAL_S / speed))
"""


class Failures:
    """Operations attempted and the messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.messages = []


def run_pass(ops, failures, repeat=True):
    """Run every op once, and an op faster than SHORT_OP_S REPEATS times in
    all when ``repeat``; [(kind, [(start, end, cpu seconds), ...])] per op."""
    clock, cpu = time.perf_counter, time.process_time
    timed = []
    for op in ops:
        runs = []
        while True:
            t0, c0 = clock(), cpu()
            try:
                error = op.run()
            except Exception as exc:  # a crash is a failed operation, not the end
                error = "%s: %s: %s" % (op.label, type(exc).__name__, exc)
            runs.append((t0, clock(), cpu() - c0))
            failures.attempted += 1
            if error is not None:
                failures.messages.append(error)
            if not repeat or len(runs) == REPEATS or runs[0][1] - runs[0][0] >= SHORT_OP_S:
                break
        timed.append((op.kind, runs))
    return timed


def pass_span(timed):
    """(start, end) of a pass returned by run_pass."""
    return timed[0][1][0][0], timed[-1][1][-1][1]


def raw_wall(timed):
    start, end = pass_span(timed)
    return end - start


def rescale_pass(timed, speed):
    """[(kind, wall, cpu)] per op: the median over its runs of the run's
    time less the probe's, rescaled by the probe samples of the pass."""
    scale = speed.scale(*pass_span(timed))
    out = []
    for kind, runs in timed:
        walls, cpus = [], []
        for t0, t1, cpu in runs:
            probe_wall, probe_cpu = speed.spent(t0, t1)
            walls.append((t1 - t0 - probe_wall) * scale)
            cpus.append((cpu - probe_cpu) * scale)
        out.append((kind, statistics.median(walls), statistics.median(cpus)))
    return out


def measure_setup():
    """Median rescaled seconds of import plus first catalog load, each in a
    fresh interpreter; the first run only compiles byte code and is not
    counted."""
    times = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, HERE],
                             capture_output=True, text=True, timeout=120,
                             env=_clean_env(), cwd=ROOT)
        if out.returncode != 0:
            raise SystemExit("setup run failed: %s" % out.stderr.strip())
        if i:
            times.append(float(out.stdout))
    return statistics.median(times)


def _clean_env():
    env = dict(os.environ)
    env.pop("SUPERTRIPLES_CATALOG_PATH", None)
    env.pop("PYTHONPATH", None)
    return env


def median_or_mean(values):
    """The median when ten samples lie beyond it, else the mean: a median of
    fewer samples is the time of one operation, which no bound can hold."""
    return statistics.median(values) if len(values) >= 20 else statistics.fmean(values)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(ops, seconds, failures):
    passes = []
    start = time.perf_counter()
    with probe.SpeedProbe() as speed:
        while not passes or (time.perf_counter() - start
                             + statistics.median(map(raw_wall, passes)) <= seconds):
            passes.append(run_pass(ops, failures))
    samples, walls, cpus = [], [], []
    for timed in passes:
        scaled = rescale_pass(timed, speed)
        samples += scaled
        walls.append(sum(w for _, w, _ in scaled))
        cpus.append(sum(c for _, _, c in scaled))
    times = [w for _, w, _ in samples]
    metrics = {
        "setup_s": (measure_setup(), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "ops_per_s": (len(times) / sum(walls), "1/s"),
        "op_p50_ms": (median_or_mean(times) * 1e3, "ms"),
        "op_p95_ms": (percentile(times, 0.95) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    by_kind = {}
    for kind, t, _ in samples:
        by_kind[kind] = by_kind.get(kind, 0.0) + t
    raw = [raw_wall(w) for w in passes]
    notes = ["passes=%d op_samples=%d beyond_p95=%d"
             % (len(walls), len(times),
                sum(1 for t in times if t > metrics["op_p95_ms"][0] / 1e3)),
             "pass_wall_s rescaled %s raw %s" % (
                 " ".join("%.4f" % w for w in walls), " ".join("%.4f" % w for w in raw)),
             "probe samples=%d median_s=%.6f nominal_s=%s"
             % (len(speed.durations), statistics.median(speed.durations or [0]),
                probe.NOMINAL_S),
             "time_share " + " ".join("%s=%.3f" % (k, v / sum(times))
                                      for k, v in sorted(by_kind.items()))]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def per_layer(ops, seconds, failures, spans_path):
    start = time.perf_counter()
    untraced = [raw_wall(run_pass(ops, failures, repeat=False))]
    with spans.Tracer() as tracer:
        traced_wall = raw_wall(run_pass(ops, failures, repeat=False))
    with spans.Counting() as counting:
        run_pass(ops, failures, repeat=False)
    counts = counting.counts()
    while time.perf_counter() - start + statistics.median(untraced) <= seconds:
        untraced.append(raw_wall(run_pass(ops, failures, repeat=False)))
    tracer.write(spans_path)
    metrics = spans.layer_metrics(tracer, counts, traced_wall,
                                  statistics.median(untraced))
    notes = ["untraced_passes=%d spans=%d spans_file=%s"
             % (len(untraced), len(tracer.spans), os.path.relpath(spans_path, ROOT))]
    return metrics, notes


def machine_note():
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return ("machine python=%s cpu=%r nproc=%d platform=%s"
            % (platform.python_version(), cpu_model, os.cpu_count() or 0,
               platform.platform()))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for needed in (os.path.join(SRC, "supertriples", "__init__.py"),
                   os.path.join(ROOT, "tests", "golden")):
        if not os.path.exists(needed):
            print("bench: %s is missing; run from a full checkout" % needed,
                  file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    os.environ.pop("SUPERTRIPLES_CATALOG_PATH", None)
    os.chdir(ROOT)  # check --file requests name catalog files relative to it

    workloads.warm_up()
    ops = workloads.make_ops(args.workload, args.seed, ROOT)
    failures = Failures()
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        metrics, notes = per_layer(
            ops, args.seconds, failures,
            os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
    else:
        metrics, notes = end_to_end(ops, args.seconds, failures)

    failed = len(failures.messages)
    print("# " + machine_note())
    print("# workload=%s seed=%d trace=%d ops_per_pass=%d attempted=%d "
          "failed=%d failed_ratio=%s"
          % (args.workload, args.seed, args.trace, len(ops), failures.attempted,
             failed, failed / failures.attempted))
    for note in notes:
        print("# " + note)
    for message in failures.messages[:20]:
        print("# FAILED " + message)
    for name, m in metrics.items():
        print("# %s = %r %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": failures.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
