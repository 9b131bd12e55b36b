"""Run one workload in two sets of repeated runs and compare the sets.

    python3 bench/compare.py --workload member [--runs 10] [--first-seed 1]

Each set makes --runs untraced runs, one seed each: the first set takes
seeds first-seed .. first-seed+runs-1, the second set the next runs seeds.
The runs alternate between the sets, so that a change in the machine's
speed that lasts minutes falls on both sets alike. For every end-to-end
metric in BENCHMARK.json it prints each set's median and quartiles, the
spread (third minus first quartile, as a share of the median) against the
metric's bound, and how far the second median moved from the first in the
worse direction. It also checks that the share of failed operations is the
same in every run. Exits 1 if any of this fails. Run it from the root of
the checkout; it takes runs x 2 x (one run's time).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"run with seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description="two sets of runs against the bounds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    sets = ([], [])
    for r in range(args.runs):
        for k, runs in enumerate(sets):
            seed = args.first_seed + k * args.runs + r
            runs.append(one_run(spec["command"], args.workload, seed, spec["run_seconds"]))
            print(f"set {k + 1} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in runs[-1]["metrics"].items()),
                file=sys.stderr)

    ok = True
    shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
    fractions = {f / a for f, a in shares}
    print(f"{args.workload}: failed/attempted {sorted(shares)}")
    if len(fractions) != 1 or not all(r["correct"] for runs in sets for r in runs):
        print("  FAIL: failed share differs between runs, or a run is incorrect")
        ok = False
    print(f"{'metric':<12} {'bound':>6}  {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>7}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for k, runs in enumerate(sets):
            q1, med, q3, spread = describe([r["metrics"][name]["value"] for r in runs])
            medians.append(med)
            verdict = "ok"
            if spread > bound:
                verdict, ok = "SPREAD ABOVE BOUND", False
            elif spread > bound / 3:
                verdict = "above a third of the bound"
            print(f"{name:<12} {bound:>6}  {k + 1:>3} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
                  f"{spread:>7.3f}  {verdict}")
        sign = 1 if metric["better"] == "lower" else -1
        worse = sign * (medians[1] - medians[0]) / medians[0]
        verdict = "ok" if worse <= bound else "SECOND MEDIAN WORSE THAN BOUND"
        ok = ok and worse <= bound
        print(f"{'':<12} {'':>6}  second median worse by {worse:+.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
