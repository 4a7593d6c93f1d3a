"""axishell benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload table2d --seed 0 --seconds 20 --trace 0

Workloads: table2d, constants1d, modes2d, cli_sweep2d (see bench/README.md).
The workload runs in a fresh process (bench/worker.py); with ``--trace 0``
more fresh processes only set up, one after another until they have taken
SETUP_PROBE_S, and ``setup_s`` is the median of all set-up times.  The report lists every operation's checks, every metric
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts operations with a failed check; ``correct`` is false when
a check fails outside the known eigensolver stopping-test fault (see
KNOWN_FAULT).  Workload and metric names come from BENCHMARK.json.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# at least one probe; short set-ups get more, so that their median is steady
SETUP_PROBE_S = 1.5
DEADLINE_S = 175.0

# Checks that fail on every run because eig.solve_smallest stops on a
# backward error that does not bound the eigenvalue error (program seed 0),
# by workload, then operation.  Any other failed check makes a run incorrect.
_LAMBDA_2D = {"lambda(k_opt) vs eigsh"}
_LAMBDA_MODE = {"lambda1 vs eigsh"}
KNOWN_FAULT = {
    "table2d": {"B@0.02": _LAMBDA_2D, "B@0.01": _LAMBDA_2D, "D@0.01": _LAMBDA_2D,
                "H@0.05": _LAMBDA_2D},
    "modes2d": {"H@0.01 k5": _LAMBDA_MODE,
                "H@0.001 k12": _LAMBDA_MODE | {"peak at the H0 minimum"},
                "L@0.0001 k44": _LAMBDA_MODE, "D@0.001 k9": _LAMBDA_MODE,
                "B@0.001 k12": _LAMBDA_MODE},
    "cli_sweep2d": {"H@0.05": _LAMBDA_MODE},
    "constants1d": {},
}


def unexpected_failures(workload: str, ops: list[dict]) -> list[str]:
    """Failed checks of ``ops`` that are not known faults, as 'op: check'."""
    known = KNOWN_FAULT[workload]
    return sorted({f"{op['op']}: {name}" for op in ops for name, ok, _ in op["checks"]
                   if not ok and name not in known.get(op["op"], ())})


def _worker(args, deadline: float, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), args.workload,
           str(args.seconds), str(args.trace), repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(args, doc: dict, setups: list[float]) -> dict:
    ops = doc["ops"]
    for op in ops:
        if op["round"] == 0:
            status = "FAIL" if op["failed"] else "ok  "
            print(f"{status} {op['op']}")
            for name, ok, detail in op["checks"]:
                print(f"       {'pass' if ok else 'FAIL'}  {name}: {detail}")
    n_rounds = 1 + max(op["round"] for op in ops)
    for i in range(1, n_rounds):
        bad = [op["op"] for op in ops if op["round"] == i and op["failed"]]
        print(f"round {i}: {len(bad)} failed {' '.join(bad)}")
    failed = [op for op in ops if op["failed"]]
    unexpected = unexpected_failures(args.workload, ops)
    if unexpected:
        print(f"unexpected failures: {'; '.join(unexpected)}")

    if args.trace:
        layers = doc["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {"run_s": statistics.median(doc["run_s"]), "cpu_s": statistics.median(doc["cpu_s"]),
                  "setup_s": statistics.median(setups), "peak_rss_mb": doc["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"workload {args.workload}, seed {args.seed}: {n_rounds} round(s), "
          f"round wall s {['%.3f' % v for v in doc['run_s']]}, set-ups s {['%.3f' % v for v in setups]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {len(ops)}, failed {len(failed)}")
    return {"correct": not unexpected, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "axishell" / "__init__.py").is_file():
        print(f"error: no axishell sources at {ROOT / 'src' / 'axishell'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        doc = _worker(args, deadline)
        setups = [doc["setup_s"]]
        probes: list[float] = []
        while not args.trace and sum(probes) < SETUP_PROBE_S:
            probes.append(_worker(args, deadline, setup_only=True)["setup_s"])
        setups += probes
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = report(args, doc, setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
