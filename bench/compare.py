"""Run the benchmark twice on the same code and test that the two sets agree.

Usage (from the repository root):

    python3 bench/compare.py [--runs 10] [--seconds 24] [--json runs.json]

Each of the two sets runs every workload of BENCHMARK.json ``--runs`` times
with distinct seeds (set s uses seeds 100*s, 100*s + 1, ...).  Per workload
and end-to-end metric it prints each set's median and spread (distance
between the first and third quartiles over the median) and the change of
the second set's median against the first.  A metric agrees when both
spreads are within its bound from BENCHMARK.json (``setup_s`` is exempt),
the second median is not worse than the first by more than the bound, and
the share of failed operations is identical in both sets.  Exit code 0 when
all agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set, at least 2")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every run's result to this file")
    args = parser.parse_args(argv)

    results = {w["name"]: [[] for _ in range(SETS)] for w in spec["workloads"]}
    for s in range(SETS):
        for w, sets in results.items():
            for i in range(args.runs):
                res = run_once(w, 100 * s + i, args.seconds)
                sets[s].append(res)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s} {w} seed {100 * s + i}: failed {res['failed']}/{res['attempted']} {vals}",
                      flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))

    all_ok = True
    print(f"\n{'workload':<12} {'metric':<12} {'bound':>6}  set 1: median (spread)  "
          f"set 2: median (spread)   change   verdict")
    for w, (first, second) in results.items():
        shares = [(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in (first, second)]
        same_share = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        correct = all(r["correct"] for r in first + second)
        all_ok &= same_share and correct
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals1 = [r["metrics"][name]["value"] for r in first]
            vals2 = [r["metrics"][name]["value"] for r in second]
            med1, med2 = statistics.median(vals1), statistics.median(vals2)
            sp1, sp2 = spread(vals1), spread(vals2)
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (med2 / med1 - 1.0)
            ok = change <= bound and (name == "setup_s" or max(sp1, sp2) <= bound)
            all_ok &= ok
            print(f"{w:<12} {name:<12} {bound:>6}  {med1:.4g} ({sp1:.3f})  {med2:.4g} ({sp2:.3f})"
                  f"   {change:+.3f}   {'agree' if ok else 'DISAGREE'}")
        print(f"{w:<12} failed share {'identical' if same_share else 'DIFFERS'}: "
              + ", ".join(f"{f}/{a}" for f, a in shares)
              + ("" if correct else "; some run is not correct"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
