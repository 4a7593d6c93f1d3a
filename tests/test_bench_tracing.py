"""The benchmark's per-layer tracer still finds every function it names."""

import importlib.util
from pathlib import Path

from axishell import eig, lame2d

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_tracer_installs_and_uninstalls():
    # install() raises when a per-layer metric of BENCHMARK.json names a
    # function that no axishell layer defines any more
    tracer = tracing.Tracer()
    solve, sweep = eig.solve_smallest, lame2d.k_sweep
    try:
        tracer.install()
        assert eig.solve_smallest is not solve and lame2d.k_sweep is not sweep
    finally:
        tracer.uninstall()
    assert eig.solve_smallest is solve and lame2d.k_sweep is sweep
