#!/usr/bin/env python3
"""Run the benchmark repeatedly on one commit and report how steady each metric is.

    python3 perfbench/steady.py --workload hubs --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --save set1.json
    python3 perfbench/steady.py --seeds 11-20 --save set2.json --against set1.json

For each workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median
and that spread as a share of the metric's bound.  A spread above a third of
the bound is flagged: two sets of runs could then differ by more than the
bound on identical code.  `setup_s` is exempt from the spread rule but not
from the median comparison.  With --against, the medians are compared with
an earlier saved set, the worse direction measured against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, RUN_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(results: dict, earlier: dict | None) -> bool:
    steady = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {sorted(shares)}")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'/bound':>7}")
        for name, _unit, better, bound in END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            steady &= not flag
            line = (f"  {name:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {bound:6.2f} "
                    f"{spread / bound:7.2f}{flag}")
            if earlier and workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                worse = (before - med) / before if better == "higher" else (med - before) / before
                line += f"  vs earlier {worse:+.2%} worse" + ("  <-- beyond bound" if worse > bound else "")
                steady &= worse <= bound
            print(line)
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default every workload")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--save", help="write the raw results here as JSON")
    parser.add_argument("--against", help="saved results of an earlier set to compare medians with")
    args = parser.parse_args()
    results: dict[str, list[dict]] = {}
    for workload in args.workload or list(WORKLOADS):
        for seed in seeds(args.seeds):
            results.setdefault(workload, []).append(one_run(workload, seed))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results), encoding="utf-8")
    earlier = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None
    return 0 if report(results, earlier) else 1


if __name__ == "__main__":
    sys.exit(main())
