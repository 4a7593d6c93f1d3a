"""Run the axishell command line in this process and record what it used.

Usage: python3 cli_child.py REPORT_JSON TRACE AXISHELL_ARGS...

Runs ``axishell.cli.main(AXISHELL_ARGS)`` exactly as the ``axishell`` console
script does, exits with its code, and writes REPORT_JSON with this process's
CPU seconds and those of its waited-for children (the sweep pool's workers).
With TRACE = 1 the package's layers are traced here and in every pool
worker; each worker writes its spans next to REPORT_JSON after each task,
and the report holds the sum over all processes.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


def _traced_pool_task(cli, tracer, dump_dir: Path) -> None:
    """Make each sweep2d pool task start from empty spans and dump them when done."""
    original = cli._sweep2d_worker

    @functools.wraps(original)
    def task(payload):
        tracer.reset()
        try:
            return original(payload)
        finally:
            path = dump_dir / f"worker-{os.getpid()}-{uuid.uuid4().hex}.json"
            path.write_text(json.dumps(dict(tracer.stats)))

    cli._sweep2d_worker = task


def main() -> int:
    report, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    from axishell import cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        dump_dir = report.parent / "spans"
        dump_dir.mkdir(exist_ok=True)
        _traced_pool_task(cli, tracer, dump_dir)
    code = cli.main(argv)
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    doc = {"exit_code": code,
           "self_cpu_s": own.ru_utime + own.ru_stime,
           "children_cpu_s": kids.ru_utime + kids.ru_stime}
    if tracer is not None:
        stats = dict(tracer.stats)
        for path in sorted(dump_dir.glob("worker-*.json")):
            for key, value in json.loads(path.read_text()).items():
                stats[key] = stats.get(key, 0.0) + value
        doc["trace"] = stats
    report.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
