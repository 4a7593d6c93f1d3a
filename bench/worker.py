"""One workload in a fresh process: set up, run timed rounds, then check.

Usage: python3 worker.py WORKLOAD SECONDS TRACE SPAWNED [--setup-only]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` runs from process start
to the first timed call.  Rounds repeat until the next one would end after
SECONDS, and there are at least MIN_ROUNDS.  With TRACE = 1 the first half
of the time runs untraced rounds (at least two) and the second half traced
ones (at least one).  The result is one JSON line on stdout.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# run_s is the median of at least this many rounds
MIN_ROUNDS = 2


def run_rounds(wl, seconds: float, min_rounds: int, tracer=None) -> list[dict]:
    rounds = []
    start = time.perf_counter()
    while True:
        workloads.clear_process_caches()
        if tracer is not None:
            tracer.reset()
        clock = workloads.RoundClock()
        out, stats = wl.run_round()
        clock.stop()
        if tracer is not None:
            for key, value in tracer.stats.items():
                stats[key] = stats.get(key, 0.0) + value
        rounds.append({"wall": clock.wall, "cpu": clock.cpu, "out": out, "stats": stats})
        typical = statistics.median(r["wall"] for r in rounds)
        if len(rounds) >= min_rounds and time.perf_counter() - start + typical > seconds:
            return rounds


def per_round(rounds: list[dict]) -> dict:
    """Mean per round of the counters gathered in the given rounds."""
    total: dict = {}
    for r in rounds:
        for key, value in r["stats"].items():
            total[key] = total.get(key, 0.0) + value
    return {key: value / len(rounds) for key, value in total.items()}


def main() -> int:
    name, seconds, trace, spawned = (
        sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", float(sys.argv[4]))
    wl = workloads.WORKLOADS[name]()
    wl.setup()
    setup_s = time.monotonic() - spawned
    if "--setup-only" in sys.argv[5:]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    doc = {"setup_s": setup_s}
    if not trace:
        rounds = run_rounds(wl, seconds, MIN_ROUNDS)
    else:
        # the first round of a process is often slower, so the untraced
        # reference is taken from the rounds after it
        untraced = run_rounds(wl, seconds / 2, 2)
        tracer = tracing.Tracer()
        tracer.install()
        if hasattr(wl, "trace_child"):
            wl.trace_child = True
        traced = run_rounds(wl, seconds / 2, 1, tracer)
        tracer.uninstall()
        rounds = untraced + traced
        untraced_s = statistics.median(r["wall"] for r in untraced[1:])
        traced_s = statistics.median(r["wall"] for r in traced)
        layers = tracing.derived(per_round(traced))
        layers.update({"trace.untraced_round_s": untraced_s, "trace.traced_round_s": traced_s,
                       "trace.overhead_s": traced_s - untraced_s,
                       "trace.unattributed_s": traced_s - layers["trace.self_sum_s"]})
        doc["layers"] = layers
    doc["peak_rss_mb"] = workloads.peak_rss_mb()
    doc["run_s"] = [r["wall"] for r in rounds]
    doc["cpu_s"] = [r["cpu"] for r in rounds]

    # checks, after all timing and the memory reading: every round's outputs
    # against the references
    if hasattr(wl, "ref"):
        ref_path = workloads.reference_path(name)
        wl.ref = workloads.load_references(ref_path)
        known = len(wl.ref)
    ops = []
    for i, r in enumerate(rounds):
        for op, results in wl.check(r["out"]).items():
            bad = checks.failures(results)
            ops.append({"round": i, "op": op, "failed": bool(bad),
                        "checks": [[c.name, c.ok, c.detail] for c in results]})
    if hasattr(wl, "ref") and len(wl.ref) > known:
        workloads.save_references(ref_path, wl.ref)
    doc["ops"] = ops
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
