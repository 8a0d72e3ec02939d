"""One fresh process of a benchmark run: set up a workload, then run at
most one pass of it.

    python3 perfbench/worker.py NAME SEED TRACE [SPANS PASS]

run.py starts this once per pass, so that every pass starts cold, as a
`qsymx` command or a new interpreter using the library does: no cache of
the program survives from one pass to the next.  The worker imports qsymx
from src/, builds the workload's inputs from SEED, samples the machine's
speed (SETUP_SAMPLES samples, whose median scales the set-up time) and
prints "ready", the seconds spent sampling and that speed.  It
then reads one line from stdin.  "quit" ends it: the process was a set-up
probe.  "run" runs one pass, traced if TRACE is 1, and prints one JSON line
with the pass's wall and CPU seconds and each operation's (wall, CPU)
seconds, all scaled by the pass's mean speed (see clock.py), that speed,
ru_maxrss, the output checks attempted and failed, the input properties
and, if traced, the per-layer metrics.  A traced pass appends
its spans to the file SPANS as pass number PASS.
"""

import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402
from clock import SpeedClock  # noqa: E402

# Speed samples taken right after set-up, to scale the set-up time.
SETUP_SAMPLES = 20


def main(argv) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    workload = workloads.make(name, seed)
    probe = SpeedClock()
    probe.sample_now(SETUP_SAMPLES)
    print("ready %r %r" % (probe.excluded, statistics.median(probe.speeds)), flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    tally = workloads.Tally()
    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
    clock = SpeedClock()
    clock.start()
    try:
        with tracer.installed() if tracer else nullcontext():
            t0 = clock.now()
            ops = workload.run_pass(tally, clock)
            wall, cpu = clock.since(t0)
    finally:
        clock.stop()
    speed = clock.speed(0)
    result = {}
    if tracer:
        from qsymx import identities

        result["layers"] = tracer.pass_metrics(identities.registry_ids())
        counts = tracer.call_counts()
        result["aggregated_calls"] = {n: counts.get(n, 0) for n in sorted(layertrace.AGGREGATED)}
        if len(argv) > 3:
            tracer.write(argv[3], int(argv[4]))
    result.update(
        wall_s=wall * speed,
        cpu_s=cpu * speed,
        ops=[(w * speed, c * speed) for w, c in ops],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=tally.attempted,
        failed=tally.failed,
        first_failure=tally.first_failure,
        properties=workload.properties(),
        speed=speed,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
