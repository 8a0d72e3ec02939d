"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --seconds 20 --runs 10 [--workload NAME ...]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
for each workload, one run at a time, and prints for each metric its ten
values' quartiles and the spread (q3 - q1) / median, the figure a bound in
BENCHMARK.json is compared with.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=180,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    worst = 0.0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in results[-1]["metrics"].items()})),
                flush=True)
        correct = all(r["correct"] for r in results)
        print("== %s: %d runs, all correct: %s" % (workload, len(results), correct))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            worst = max(worst, spread / bound)
            print("   %-12s q1=%-10.6g median=%-10.6g q3=%-10.6g spread=%.4f bound=%.2f"
                  % (name, q1, q2, q3, spread, bound), flush=True)
    print("largest spread / bound: %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
