"""The four benchmark workloads.

A workload sets up once (``setup``), then runs whole rounds of the same
operations (``run_round``); each round returns light outputs per operation
and is timed by a ``RoundClock``.  ``check`` compares the outputs of a round
with independent references and returns the checks of every operation.  It
runs after all timed rounds and after peak memory is read; the 2D references
rebuild the mesh and pencil from the same inputs and solve them with
``eigsh``.  They are kept in ``ref`` by input and stored on disk per version
of the sources (``reference_path``), so later runs of the same code reuse them.

The inputs are the paper's fixed cases, run in a fixed order.  The
benchmark's seed changes neither them nor the program's own ``seed=``
arguments, which stay at their default 0 (README.md says why).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from axishell import asymptotics, geometry, lame2d, profiles

import checks as C

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
TMP_DIR = ROOT / ".bench_tmp"


def clear_process_caches() -> None:
    """Empty the package's process-wide memo caches, so every round starts cold."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "axishell" or mod_name.startswith("axishell."):
            for obj in list(vars(mod).values()):
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    obj.cache_clear()


class RoundClock:
    """Wall and CPU seconds of one round."""

    def __init__(self):
        self._t0, self._c0 = time.perf_counter(), cpu_seconds()

    def stop(self) -> None:
        self.wall = time.perf_counter() - self._t0
        self.cpu = cpu_seconds() - self._c0


def ref_key(*parts) -> str:
    return "|".join(repr(p) for p in parts)


def reference_path(workload: str) -> Path:
    """File of a workload's references, named by a hash of everything they depend on."""
    h = hashlib.sha256(f"numpy {np.__version__} scipy {scipy.__version__}".encode())
    sources = sorted((ROOT / "src" / "axishell").rglob("*.py"))
    for path in sources + [BENCH_DIR / "checks.py", BENCH_DIR / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return TMP_DIR / "references" / f"{workload}-{h.hexdigest()[:20]}.json"


def load_references(path: Path) -> dict[str, float]:
    return json.loads(path.read_text()) if path.exists() else {}


def save_references(path: Path, ref: dict[str, float]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ref))
    os.replace(tmp, path)


def reference_lambdas(profile, eps: float, mesh_size, ks) -> dict[int, float]:
    """``eigsh``'s smallest eigenvalue at each k, on a freshly built mesh and pencil."""
    mesh = lame2d.build_meridian_mesh(profile, eps, *mesh_size)
    out = {}
    for k in ks:
        system = lame2d.assemble_fourier_lame(mesh, k)
        out[k] = C.eigsh_smallest(system.stiffness, system.mass)
    return out


def _op_name(model: str, eps: float) -> str:
    return f"{model}@{eps:g}"


class Table2D:
    """The paper's 16 wavenumber sweeps, serial and in-process."""

    def __init__(self):
        self.order = [(m, eps) for m in "BDHL" for eps in C.PAPER_K[m]]
        self.ref: dict[str, float] = {}

    def setup(self) -> None:
        self.profiles = {m: profiles.preset(m) for m in "BDHL"}
        self.asym = {m: asymptotics.compute(self.profiles[m]) for m in "BDHL"}

    def run_round(self):
        # one call per operation, so nothing of an operation outlives it
        return {_op_name(m, eps): self._sweep(m, eps) for m, eps in self.order}, {}

    def _sweep(self, m: str, eps: float) -> dict:
        # k_sweep builds the default mesh itself
        sweep = lame2d.k_sweep(self.profiles[m], eps, asym=self.asym[m])
        recs = sweep.records
        return dict(model=m, eps=eps, k_opt=sweep.k_opt, ks=[r.k for r in recs],
                    lambdas=[r.lambda1 for r in recs], residuals=[r.residual for r in recs])

    def check(self, out) -> dict:
        result = {}
        for op, o in out.items():
            m, eps = o["model"], o["eps"]
            todo = [k for k in o["ks"] if ref_key(m, eps, k) not in self.ref]
            if todo:
                lams = reference_lambdas(profiles.preset(m), eps, lame2d.default_mesh_size(eps), todo)
                self.ref.update({ref_key(m, eps, k): lam for k, lam in lams.items()})
            ref = [self.ref[ref_key(m, eps, k)] for k in o["ks"]]
            result[op] = C.check_sweep(C.PAPER_K[o["model"]][o["eps"]], o["k_opt"],
                                       o["ks"], o["lambdas"], o["residuals"], ref)
        return result


# (model, eps, k or None for the 1D prediction, meridian cells)
MODE_CASES = [("H", 1e-2, 5, 16), ("H", 1e-3, 12, 24), ("L", 1e-4, None, 48),
              ("A", 0.02, 6, 16), ("A", 0.01, 7, 16), ("D", 1e-3, None, 24),
              ("B", 1e-3, 12, 24)]
MODE_THICKNESS_CELLS = 2
# the Gauss barrel H is even, so its H0 minimum and mode peak sit at z = 0
MODE_PEAKS = {("H", 1e-3): 0.0}


class Modes2D:
    """Cold single-mode solves on fresh meshes, each with its midline trace."""

    def __init__(self):
        self.order = MODE_CASES
        self.ref: dict[str, float] = {}

    def setup(self) -> None:
        self.profiles = {m: profiles.preset(m) for m in "ABDHL"}
        self.k = {}
        for m, eps, k, _ in MODE_CASES:
            if k is None:
                k = asymptotics.predict(asymptotics.compute(self.profiles[m]), eps).k_int
            self.k[(m, eps)] = k

    def run_round(self):
        # one call per operation, so nothing of an operation outlives it
        out = {}
        for m, eps, _, nm in self.order:
            k = self.k[(m, eps)]
            out[f"{_op_name(m, eps)} k{k}"] = self._mode(m, eps, k, nm)
        return out, {}

    def _mode(self, m: str, eps: float, k: int, nm: int) -> dict:
        mesh = lame2d.build_meridian_mesh(self.profiles[m], eps, nm, MODE_THICKNESS_CELLS)
        system = lame2d.assemble_fourier_lame(mesh, k)
        rec, vec = lame2d.first_eigenpair_2d(system)
        trace = lame2d.midline_mode_trace(system, vec)
        return dict(model=m, eps=eps, k=k, nm=nm, lambda1=rec.lambda1,
                    u_r=trace.u_r, argmax_z=trace.argmax_z)

    def check(self, out) -> dict:
        result = {}
        for op, o in out.items():
            key = ref_key(o["model"], o["eps"], o["k"], o["nm"])
            if key not in self.ref:
                self.ref[key] = reference_lambdas(
                    profiles.preset(o["model"]), o["eps"], (o["nm"], MODE_THICKNESS_CELLS),
                    [o["k"]])[o["k"]]
            ref = self.ref[key]
            result[op] = C.check_mode(o["lambda1"], ref, o["u_r"], o["argmax_z"],
                                      MODE_PEAKS.get((o["model"], o["eps"])))
        return result


TORUS_RADIUS = 2.0
TORUS_GRID = [-1.4, -1.2, -1.0, -0.8, -0.6]


class Constants1D:
    """Per-class constants of the presets, with E doubled, and a torus sweep."""

    def __init__(self):
        self.order = [(m, e) for e in (1.0, 2.0) for m in "ABDHL"]

    def setup(self) -> None:
        self.profiles = {(m, e): dataclasses.replace(profiles.preset(m), E=e)
                         for m, e in self.order}

    def run_round(self):
        out = {}
        for m, e in self.order:
            cls = geometry.classify(self.profiles[(m, e)])
            res = asymptotics.compute(self.profiles[(m, e)], cls)
            out[m if e == 1.0 else f"{m} E={e:g}"] = dict(
                model=m, E=e, tag=cls.tag.value, a0=res.a0, a1=res.a1, gamma=res.gamma,
                ratio=res.diagnostics.get("ratio_at_optimum"), lambda2=res.lambda2)
        rows = asymptotics.toroidal_sweep(TORUS_RADIUS, 0.0, (-1.0, 1.0), TORUS_GRID)
        for row in rows:
            out[f"torus r_c={row['r_circ']:g}"] = dict(row)
        return out, {}

    def _reference(self, m: str) -> dict:
        """What the paper and closed forms pin for preset m (E = 1)."""
        p = profiles.preset(m)
        if m == "A":
            g, a1 = C.cylinder_constants(p.coeffs[0], p.length, p.E, p.nu)
            return dict(a0=0.0, gamma=g, a1=a1, rtol=C.CLOSED_FORM_RTOL)
        if m == "B":
            g, a1 = C.PAPER_GAMMA_A1["B"]
            return dict(a0=0.0, gamma=g, a1=a1, rtol=C.PAPER_RTOL, ratio=0.5)
        if m == "D":
            return dict(a0=p.E / p.params[1] ** 2)
        # H: interior Gauss minimum at z = 0; L: boundary minimum at z = 0.5
        z0 = 0.0 if m == "H" else p.interval[0]
        g, a1 = C.PAPER_GAMMA_A1[m]
        return dict(a0=C.polynomial_h0(p.coeffs, z0, p.E), gamma=g, a1=a1, rtol=C.PAPER_RTOL)

    def check(self, out) -> dict:
        result = {}
        for op, o in out.items():
            if op.startswith("torus"):
                # preset D is this arc: radius 2 about r_c = -1, on [-1, 1]
                result[op] = C.check_torus_row(o, out["D"] if o["r_circ"] == -1.0 else None)
            elif o["E"] == 1.0:
                result[op] = C.check_constants(o["model"], o["tag"], o, self._reference(o["model"]))
            else:
                result[op] = C.check_e_scaling(out[o["model"]], o)
        return result


CLI_MODEL = "H"
CLI_EPS = [0.1, 0.05, 0.02, 0.01]
CLI_JOBS = 2


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class CliSweep2D:
    """``axishell sweep2d --model H --jobs 2`` as a subprocess writing CSVs."""

    def __init__(self):
        self.eps = CLI_EPS
        self.trace_child = False  # set while the benchmark traces: the CLI traces itself
        self.ref: dict[str, float] = {}

    def setup(self) -> None:
        self.profile = profiles.preset(CLI_MODEL)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run_round(self):
        TMP_DIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="cli_sweep2d_", dir=TMP_DIR))
        try:
            out_dir, report = work / "out", work / "report.json"
            argv = ["sweep2d", "--model", CLI_MODEL, "--eps", ",".join(f"{e:g}" for e in self.eps),
                    "--jobs", str(CLI_JOBS), "--out", str(out_dir)]
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "cli_child.py"), str(report),
                 "1" if self.trace_child else "0", *argv],
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=150)
            return self._collect(proc, out_dir, report)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _collect(self, proc, out_dir: Path, report: Path):
        stats = {"cli.csv_bytes": float(sum(p.stat().st_size for p in out_dir.glob("*.csv")))}
        if report.exists():
            rep = json.loads(report.read_text())
            stats["cli.workers_cpu_s"] = rep["children_cpu_s"]
            for key, value in rep.get("trace", {}).items():
                stats[key] = stats.get(key, 0.0) + value
        summary = {}
        summary_csv = out_dir / f"sweep2d_{CLI_MODEL}_summary.csv"
        if summary_csv.exists():
            lines = [ln for ln in summary_csv.read_text().splitlines() if not ln.startswith("#")]
            cols = lines[0].split(",")
            for ln in lines[1:]:
                row = dict(zip(cols, ln.split(",")))
                summary[float(row["eps"])] = (int(row["k_observed"]), float(row["lambda1"]))
        out = {}
        for eps in self.eps:
            path = out_dir / f"sweep2d_{CLI_MODEL}_eps{eps:g}.csv"
            text = path.read_text() if path.exists() else ""
            k_obs, lam = summary.get(eps, (-1, float("nan")))
            out[_op_name(CLI_MODEL, eps)] = dict(
                eps=eps, exit_code=proc.returncode, stderr=proc.stderr.strip()[-300:],
                header_lines=sum(ln.startswith("#") for ln in text.splitlines()),
                k_observed=k_obs, lambda1=lam)
        return out, stats

    def check(self, out) -> dict:
        result = {}
        for op, o in out.items():
            key = ref_key(o["eps"], o["k_observed"])
            if key not in self.ref and o["k_observed"] >= 0:
                self.ref[key] = reference_lambdas(
                    self.profile, o["eps"], lame2d.default_mesh_size(o["eps"]),
                    [o["k_observed"]])[o["k_observed"]]
            checks = C.check_cli_csv(o["exit_code"], o["header_lines"],
                                     C.PAPER_K[CLI_MODEL][o["eps"]], o["k_observed"],
                                     o["lambda1"], self.ref.get(key, float("nan")))
            if o["exit_code"] != 0 and o["stderr"]:
                checks.append(C.Check("stderr", False, o["stderr"]))
            result[op] = checks
        return result


WORKLOADS = {"table2d": Table2D, "constants1d": Constants1D,
             "modes2d": Modes2D, "cli_sweep2d": CliSweep2D}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    return _cpu(resource.getrusage(resource.RUSAGE_SELF)) + _cpu(
        resource.getrusage(resource.RUSAGE_CHILDREN))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0
