"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. One pass of each workload on the unmodified program fails no check.
2. A fault planted from outside the program (a monkeypatched wrong value,
   or an exception) makes some check of each workload fail, so that
   failed_frac > 0.
3. run.py prints exactly the metrics BENCHMARK.json names, with
   --trace 0 and with --trace 1.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   with a non-zero code and prints no result.

Exits with code 1 if any of these does not hold.
"""

import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from qsymx import characters, exactnum, qsym  # noqa: E402


@contextmanager
def planted(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _off_by_one_minus(decompose):
    """decompose with one top-degree entry of phi_- changed."""

    def wrong(phi):
        plus, minus = decompose(phi)
        tables = [list(row) for row in minus.tables]
        tables[-1][-1] += 1
        return plus, characters.TruncatedCharacter(minus.max_degree, tables)

    return wrong


def _off_by_one_product(multiply):
    """multiply with its first coefficient changed."""

    def wrong(x, y):
        z = multiply(x, y)
        coeffs = dict(z.coeffs)
        first = next(iter(coeffs))
        coeffs[first] += 1
        return qsym.QSymElement(z.basis, coeffs)

    return wrong


def _raising(fn):
    def wrong(*args, **kwargs):
        raise ArithmeticError("planted")

    return wrong


def _wrong_catalan(bivariate_catalan):
    """bivariate_catalan off by one at (2, 3)."""

    def wrong(m, n):
        return bivariate_catalan(m, n) + (1 if (m, n) == (2, 3) else 0)

    return wrong


FAULTS = [
    ("decompose-canonical", characters, "decompose", _off_by_one_minus),
    ("decompose-general", characters, "decompose", _off_by_one_minus),
    ("hopf-products", qsym, "multiply", _off_by_one_product),
    ("hopf-products", qsym, "antipode", _raising),
    ("registry-standard", exactnum, "bivariate_catalan", _wrong_catalan),
]


def one_pass(workload):
    tally = workloads.Tally()
    workload.run_pass(tally, Clock())
    return tally


def check_faults() -> bool:
    ok = True
    built = {}
    for name, module, attr, fault in FAULTS:
        if name not in built:
            built[name] = workloads.make(name, 1)
            clean = one_pass(built[name])
            print("%-20s unmodified: failed_frac %d/%d" % (name, clean.failed, clean.attempted))
            ok &= clean.failed == 0 and clean.attempted > 0
        with planted(module, attr, fault):
            tally = one_pass(built[name])
        print("%-20s %s.%s planted: failed_frac %d/%d (%s)" % (
            name, module.__name__, attr, tally.failed, tally.attempted, tally.first_failure))
        ok &= tally.failed > 0
    return ok


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "hopf-products", "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180,
    )


def check_metric_names() -> bool:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, trace)
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        same = proc.returncode == 0 and result["correct"] and got == want
        print("--trace %d metrics match BENCHMARK.json %s: %s" % (trace, key, same))
        ok &= same
    return ok


def check_bare_directory() -> bool:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, 0)
    finally:
        shutil.rmtree(bare)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print("without src/: exit code %d, no result printed: %s" % (proc.returncode, ok))
    return ok


def main() -> int:
    results = [check_faults(), check_metric_names(), check_bare_directory()]
    print("selftest: %s" % ("ok" if all(results) else "FAILED"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
