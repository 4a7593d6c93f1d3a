"""Tests of the benchmark's own checks, tracing and entry point.

Run from the repository root: python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks as C  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _failed(results) -> bool:
    return bool(C.failures(results))


def _sweep_op(k_opt=4, lambdas=(0.30, 0.25, 0.20, 0.21, 0.22, 0.23)):
    ks = [2, 3, 4, 5, 6, 7]
    return {"model": "H", "eps": 0.02, "k_opt": k_opt, "ks": ks,
            "lambdas": list(lambdas), "residuals": [1e-9] * len(ks)}


def _table2d_with_reference(ref):
    wl = workloads.Table2D()
    for k, lam in zip(range(2, 8), ref):
        wl.ref[workloads.ref_key("H", 0.02, k)] = lam
    return wl


REF = [0.30, 0.25, 0.20, 0.21, 0.22, 0.23]


def test_sweep_matching_reference_passes():
    wl = _table2d_with_reference(REF)
    result = wl.check({"H@0.02": _sweep_op()})
    assert not _failed(result["H@0.02"])


def test_perturbed_lambda_fails_the_operation():
    lambdas = list(REF)
    lambdas[2] *= 1.0 + 1e-5
    wl = _table2d_with_reference(REF)
    result = wl.check({"H@0.02": _sweep_op(lambdas=lambdas)})
    assert _failed(result["H@0.02"])
    assert any("lambda(k_opt)" in reason for reason in C.failures(result["H@0.02"]))


def test_wrong_k_opt_fails_the_operation():
    wl = _table2d_with_reference(REF)
    result = wl.check({"H@0.02": _sweep_op(k_opt=6)})
    reasons = C.failures(result["H@0.02"])
    assert any("k_opt vs paper" in r for r in reasons)
    assert any("independent argmin" in r for r in reasons)


def test_argmin_disagreeing_with_independent_solve_fails():
    # the program picks k = 4 but the independent solve says k = 5 is lower
    ref = [0.30, 0.25, 0.20, 0.19, 0.22, 0.23]
    wl = _table2d_with_reference(ref)
    lambdas = list(ref)
    lambdas[3] = 0.205
    result = wl.check({"H@0.02": _sweep_op(lambdas=lambdas)})
    assert any("independent argmin" in r for r in C.failures(result["H@0.02"]))


def test_large_residual_fails():
    op = _sweep_op()
    op["residuals"][0] = 1e-6
    result = _table2d_with_reference(REF).check({"H@0.02": op})
    assert any("residuals" in r for r in C.failures(result["H@0.02"]))


def _constants_out():
    base = {"A": (0.0, 3.3852, 2.9323), "B": (0.0, 3.44638, 2.12470), "D": (0.25, 0.70798, 0.85700),
            "H": (0.0625, 0.60785, 0.75901), "L": (C.polynomial_h0((1.0, 0.0, -0.125, 0.0, -0.0625), 0.5, 1.0),
                                                  1.55472, 0.85141)}
    out = {}
    for m, (a0, a1, g) in base.items():
        if m == "A":
            g, a1 = C.cylinder_constants(2.0, 2.0, 1.0, 0.3)
        out[m] = {"model": m, "E": 1.0, "tag": C.PAPER_CLASS[m], "a0": a0, "a1": a1, "gamma": g,
                  "ratio": 0.5 if m == "B" else None, "lambda2": 0.3 if m == "D" else None}
        out[f"{m} E=2"] = dict(out[m], E=2.0, a0=2 * a0, a1=2 * a1)
    out["torus r_c=-1"] = {"r_circ": -1.0, "Lambda2": 0.3, "gamma_min": out["D"]["gamma"],
                           "a1": out["D"]["a1"], "error": ""}
    return out


def test_consistent_constants_pass():
    result = workloads.Constants1D().check(_constants_out())
    assert not any(_failed(r) for r in result.values()), {
        op: C.failures(r) for op, r in result.items() if _failed(r)}


def test_broken_e_scaling_fails_the_operation():
    out = _constants_out()
    out["H E=2"]["a1"] *= 1.01
    out["B E=2"]["gamma"] *= 1.0 + 1e-4
    result = workloads.Constants1D().check(out)
    assert any("a1 doubles" in r for r in C.failures(result["H E=2"]))
    assert any("gamma unchanged" in r for r in C.failures(result["B E=2"]))
    assert not _failed(result["A E=2"])


def test_torus_row_must_equal_model_d():
    out = _constants_out()
    out["torus r_c=-1"]["a1"] *= 1.0 + 1e-9
    result = workloads.Constants1D().check(out)
    assert any("a1 = compute(D)" in r for r in C.failures(result["torus r_c=-1"]))


def test_mode_checks():
    u = [0.1, 1.0, 0.2]
    assert not _failed(C.check_mode(0.5, 0.5, u, 0.01, peak_at=0.0))
    assert _failed(C.check_mode(0.5 * (1 + 2e-6), 0.5, u, 0.0))
    assert _failed(C.check_mode(0.5, 0.5, [0.1, 0.9], 0.0))
    assert _failed(C.check_mode(0.5, 0.5, u, -0.133, peak_at=0.0))


def test_cli_checks():
    assert not _failed(C.check_cli_csv(0, 1, 4, 4, 0.2, 0.2))
    assert _failed(C.check_cli_csv(3, 1, 4, 4, 0.2, 0.2))
    assert _failed(C.check_cli_csv(0, 2, 4, 4, 0.2, 0.2))
    assert _failed(C.check_cli_csv(0, 1, 4, 6, 0.2, 0.2))
    assert _failed(C.check_cli_csv(0, 1, 4, 4, 0.2 * (1 + 1e-5), 0.2))


def test_tracer_counts_and_restores():
    from axishell import asymptotics, geometry, profiles

    original = geometry.classify
    profile = profiles.preset("H")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        asymptotics.compute(profile)
        stats = tracing.derived(tracer.stats)
    finally:
        tracer.uninstall()
    assert geometry.classify is original
    assert asymptotics.classify is original
    assert stats["geometry.classify.calls"] == 1
    assert stats["profiles.jet.calls"] > 0
    assert stats["asymptotics.compute.s"] >= stats["asymptotics.compute.self_s"]
    assert stats["trace.self_sum_s"] == pytest.approx(stats["asymptotics.compute.s"], rel=1e-9)


def _ops(result: dict) -> list[dict]:
    """Operations as worker.py reports them, from a workload's check results."""
    return [{"round": 0, "op": op, "failed": _failed(r),
             "checks": [[c.name, c.ok, c.detail] for c in r]} for op, r in result.items()]


def test_known_fault_is_expected_only_for_its_own_check():
    # B@0.02 fails its lambda check on every run; that alone is expected
    ref = [0.30, 0.25, 0.20, 0.21, 0.22, 0.23]
    wl = workloads.Table2D()
    for k, lam in zip(range(2, 8), ref):
        wl.ref[workloads.ref_key("B", 0.02, k)] = lam
    lambdas = list(ref)
    lambdas[2] *= 1.0 + 1e-5
    op = dict(_sweep_op(lambdas=lambdas), model="B")
    assert run.unexpected_failures("table2d", _ops(wl.check({"B@0.02": op}))) == []
    # a wrong k_opt on the same operation is not the known fault
    op = dict(op, k_opt=6)
    unexpected = run.unexpected_failures("table2d", _ops(wl.check({"B@0.02": op})))
    assert "B@0.02: k_opt vs paper" in unexpected
    assert "B@0.02: k_opt is the independent argmin" in unexpected
    # the same lambda error on an operation without the fault is unexpected
    wl = _table2d_with_reference(REF)
    result = wl.check({"H@0.02": _sweep_op(lambdas=lambdas)})
    assert run.unexpected_failures("table2d", _ops(result)) == ["H@0.02: lambda(k_opt) vs eigsh"]


def test_known_fault_mode_with_a_broken_trace_is_unexpected():
    u = [0.1, 0.9]
    result = {"D@0.001 k9": C.check_mode(0.36, 0.26, u, 0.0)}
    assert run.unexpected_failures("modes2d", _ops(result)) == ["D@0.001 k9: trace max |u_r| = 1"]


def test_tracer_refuses_a_metric_of_an_untraced_function(monkeypatch):
    from axishell import lame2d

    original = lame2d.k_sweep
    monkeypatch.setattr(tracing, "PER_LAYER_NAMES",
                        tracing.PER_LAYER_NAMES + ["lame2d.no_such_function.s"])
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="lame2d.no_such_function"):
        tracer.install()
    assert lame2d.k_sweep is original


def test_metric_names_read_traced_functions():
    spans = tracing.required_spans(tracing.PER_LAYER_NAMES)
    assert "fem1d.assemble_h20" in spans and "eig.factor" in spans
    assert not any(s.startswith("trace.") or s.endswith(".self") for s in spans)


def test_references_round_trip_through_their_file(tmp_path):
    path = tmp_path / "references" / "table2d-0.json"
    assert workloads.load_references(path) == {}
    ref = {workloads.ref_key("H", 0.02, 4): 0.123456789012345}
    workloads.save_references(path, ref)
    assert workloads.load_references(path) == ref
    assert workloads.reference_path("table2d").name.startswith("table2d-")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "table2d", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
