"""Run one qsymx benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qsymx is imported from src/.  Every
pass of the workload's fixed work runs in a fresh single-threaded process
(worker.py), which builds the inputs from --seed and runs the pass once,
cold, as a `qsymx` command does: no cache of the program is carried from
one pass to the next.  Passes repeat for about --seconds seconds.  Every
output of every pass is checked.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where attempted and
failed count output checks.

--trace 0 reports the end-to-end metrics, untraced.  Every time is scaled
to a reference machine speed by clock.SpeedClock, which samples the speed
while the work runs (see clock.py for why):
  setup_s      median over the run's processes of the seconds from starting
               the process to qsymx imported and inputs generated
               (PROBES_PER_PASS set-up-only processes precede each pass)
  wall_s       median over passes of the wall seconds of one pass, output
               checks included
  cpu_s        the same for CPU seconds of the process and its children
  op_p50_ms,   percentiles over operations of each operation's median over
  op_p90_ms    passes; an operation is one CLI command (decompose-canonical,
               registry-standard), one decomposed functional with its checks
               (decompose-general) or one checked product (hopf-products)
  peak_rss_mb  median over passes of ru_maxrss of the process that ran it
Quartiles of the per-process figures are printed before the result.
--trace 1 alternates untraced and traced passes and reports the medians of
the per-layer metrics of the traced passes (see layertrace.py; span times
are not scaled), plus trace_overhead_s, the median scaled traced pass minus
the median scaled untraced pass.
Spans are written to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOAD_NAMES = (
    "decompose-canonical",
    "decompose-general",
    "hopf-products",
    "registry-standard",
)

# Set-up-only processes started before each pass of an untraced run.
PROBES_PER_PASS = 2


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _report(label, values, scale=1.0):
    q1, q2, q3 = (v * scale for v in _quartiles(values))
    print("%-14s n=%-5d q1=%.6g median=%.6g q3=%.6g" % (label, len(values), q1, q2, q3))


class Run:
    """The processes of one run: their set-up times and pass results, and
    the output checks summed over the passes."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.setups = []
        self.raw_setups = []
        self.attempted = self.failed = 0
        self.first_failure = None
        self.properties = {}

    def worker(self, command: str, trace: int = 0, spans=None, number: int = 0):
        """Start a worker, time its set-up, then send it `command` ("quit"
        or "run").  Set-up is scaled by the speed the worker sampled just
        before "ready".  Returns the pass result of "run", else None."""
        args = [sys.executable, WORKER, self.name, str(self.seed), str(trace)]
        if spans:
            args += [spans, str(number)]
        start = time.perf_counter()
        with subprocess.Popen(
            args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT
        ) as proc:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            proc.stdin.write(command.encode() + b"\n")
            proc.stdin.close()
            out = proc.stdout.read()
            code = proc.wait()
        ready = ready.split()
        if code != 0 or not ready or ready[0] != b"ready":
            raise RuntimeError("worker for %s failed with exit code %d" % (self.name, code))
        self.raw_setups.append(setup - float(ready[1]))
        self.setups.append(self.raw_setups[-1] * float(ready[2]))
        if command != "run":
            return None
        result = json.loads(out.decode().splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.first_failure = self.first_failure or result["first_failure"]
        self.properties = result["properties"]
        return result


def untraced_run(run: Run, seconds: float) -> dict:
    passes = []
    start = time.perf_counter()
    while True:
        for _ in range(PROBES_PER_PASS):
            run.worker("quit")
        passes.append(run.worker("run"))
        step = (PROBES_PER_PASS + 1) * statistics.median(run.setups) + statistics.median(
            p["wall_s"] for p in passes
        )
        if time.perf_counter() - start + step > seconds:
            break
    walls = [p["wall_s"] for p in passes]
    cpus = [p["cpu_s"] for p in passes]
    rss = [p["rss_mb"] for p in passes]
    op_walls = [statistics.median(op) for op in zip(*([w for w, _ in p["ops"]] for p in passes))]
    _report("setup_s", run.setups)
    _report("setup_raw_s", run.raw_setups)
    _report("setup_speed", [s / r for s, r in zip(run.setups, run.raw_setups)])
    _report("pass_speed", [p["speed"] for p in passes])
    _report("pass_wall_s", walls)
    _report("pass_cpu_s", cpus)
    _report("op_ms", op_walls, 1000.0)
    _report("peak_rss_mb", rss)
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "op_p50_ms": (_percentile(op_walls, 50) * 1000.0, "ms"),
        "op_p90_ms": (_percentile(op_walls, 90) * 1000.0, "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def _layer_unit(metric: str) -> str:
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.endswith("max_bits"):
        return "bits"
    return "count"


def traced_run(run: Run, seconds: float) -> dict:
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s-seed%d.tsv" % (run.name, run.seed))
    if os.path.exists(spans):
        os.remove(spans)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run.worker("run")["wall_s"])
        traced.append(run.worker("run", 1, spans, len(traced)))
        step = 2 * statistics.median(run.setups) + statistics.median(plain) + statistics.median(
            t["wall_s"] for t in traced
        )
        if time.perf_counter() - start + step > seconds:
            break
    print(
        "aggregated helpers (calls in the last traced pass): "
        + ", ".join("%s=%d" % item for item in traced[-1]["aggregated_calls"].items())
    )
    print("spans written to %s" % os.path.relpath(spans, ROOT))
    traced_walls = [t["wall_s"] for t in traced]
    _report("untraced_s", plain)
    _report("traced_s", traced_walls)
    layers = [t["layers"] for t in traced]
    metrics = {
        key: (statistics.median(p[key] for p in layers), _layer_unit(key))
        for key in layers[0]
    }
    metrics["trace_overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain),
        "s",
    )
    print("tracing overhead: %.3f s per pass" % metrics["trace_overhead_s"][0])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "qsymx", "__init__.py")):
        print("perfbench: no qsymx sources under %s" % SRC, file=sys.stderr)
        return 2
    print("workload %s, seed %d, Python %s, nproc %d" % (
        args.workload, args.seed, sys.version.split()[0], os.cpu_count() or 0))
    run = Run(args.workload, args.seed)
    measure = traced_run if args.trace else untraced_run
    metrics = measure(run, args.seconds)
    print("input properties: " + json.dumps(run.properties, sort_keys=True))
    print("failed_frac: %d/%d = %.6g" % (
        run.failed, run.attempted, run.failed / max(run.attempted, 1)))
    if run.first_failure:
        print("first failed check: " + run.first_failure)
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and run.attempted > 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
