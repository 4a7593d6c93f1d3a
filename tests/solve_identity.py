"""Record every eigen-solve of the paper's computations, and compare two records.

Usage (from the repository root):

    PYTHONPATH=src python tests/solve_identity.py record before.json
    PYTHONPATH=src python tests/solve_identity.py record after.json
    python tests/solve_identity.py compare before.json after.json

``record`` runs ``classify``, ``locate_H0_minimum`` and
``essential_spectrum_range`` of models A, B, D, H and L, the 16 table sweeps,
the 7 cold single-mode solves of the benchmark's ``modes2d`` workload, the
constants of models A, B, D, H and L at Young's modulus E = 1 and E = 2, two
torus sweeps (the fingerprint grid and the benchmark's), ``energy_ratio`` for
A, B, H and L at eps = 0.01 and ``elliptic_k_minimization`` for H and L at
eps = 1e-3 and 1e-4.  Every call of ``eig.solve_smallest`` writes one line:
its eigenvalues as ``float.hex``, the SHA-256 of its eigenvectors' bytes, its
iteration count, the shift it used and its residuals; each case also writes
its results (the class, the potential minimum and its branches, the spectrum
ends, k_opt, the constants, the torus rows, the ratio) as ``float.hex``.

``compare`` requires equal values, eigenvectors, iteration counts, shifts and
results, prints the largest absolute and the largest relative move of the
residuals (relative to the larger of the two) with the solve where each
happens, and exits with 1 when
anything but the residuals differs.  pytest does not collect this file.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys

import numpy as np


def _hex(x):
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    return x


def _cases():
    """(label, function) of every computation, in a fixed order."""
    import axishell as ax
    from axishell import asymptotics, lame2d

    asym = {m: asymptotics.compute(ax.preset(m)) for m in "ABDHL"}
    cases = []
    for m in "ABDHL":
        def geometry(m=m):
            prof = ax.preset(m)
            return {"class": ax.classify(prof), "H0 minimum": ax.locate_H0_minimum(prof),
                    "essential spectrum": ax.essential_spectrum_range(prof)}
        cases.append((f"geometry {m}", geometry))
    for m in "BDHL":
        for eps in (0.1, 0.05, 0.02, 0.01):
            def sweep(m=m, eps=eps):
                s = lame2d.k_sweep(ax.preset(m), eps, asym=asym[m])
                return {"k_opt": s.k_opt, "lambda1": s.lambda1}
            cases.append((f"table {m}@{eps:g}", sweep))
    for m, eps, k, nm in [("H", 1e-2, 5, 16), ("H", 1e-3, 12, 24), ("L", 1e-4, None, 48),
                          ("A", 0.02, 6, 16), ("A", 0.01, 7, 16), ("D", 1e-3, None, 24),
                          ("B", 1e-3, 12, 24)]:
        def mode(m=m, eps=eps, k=k, nm=nm):
            k = asymptotics.predict(asym[m], eps).k_int if k is None else k
            system = lame2d.assemble_fourier_lame(
                lame2d.build_meridian_mesh(ax.preset(m), eps, nm, 2), k)
            rec, vec = lame2d.first_eigenpair_2d(system)
            trace = lame2d.midline_mode_trace(system, vec)
            return {"k": k, "lambda1": rec.lambda1, "argmax_z": trace.argmax_z,
                    "half_width": trace.half_width}
        cases.append((f"mode {m}@{eps:g} {nm}x2", mode))
    for E in (1.0, 2.0):
        for m in "ABDHL":
            def constants(m=m, E=E):
                res = asymptotics.compute(dataclasses.replace(ax.preset(m), E=E))
                return {**res.to_dict(), "lambda2": res.lambda2}
            cases.append((f"constants {m} E={E:g}", constants))
    grids = {"fingerprint grid": np.arange(-1.4, -0.6 + 0.5 * 0.2, 0.2),
             "benchmark grid": [-1.4, -1.2, -1.0, -0.8, -0.6]}
    for name, grid in grids.items():
        cases.append((f"torus {name}",
                      lambda grid=grid: asymptotics.toroidal_sweep(2.0, 0.0, (-1.0, 1.0), grid)))
    for m in "ABHL":
        cases.append((f"energy_ratio {m}@0.01",
                      lambda m=m: asymptotics.energy_ratio(ax.preset(m), 0.01)))
    for m in "HL":
        for eps in (1e-3, 1e-4):
            cases.append((f"elliptic_k_minimization {m}@{eps:g}",
                          lambda m=m, eps=eps: asymptotics.elliptic_k_minimization(
                              ax.preset(m), eps)))
    return cases


def _plain(result):
    """A case's result as JSON: floats as hex, dataclasses and tuples unpacked."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    if isinstance(result, dict):
        return {str(k): _plain(v) for k, v in result.items()
                if not isinstance(v, np.ndarray) and k != "diagnostics"}
    if isinstance(result, (list, tuple)):
        return [_plain(v) for v in result]
    if isinstance(result, (float, np.floating)):
        return float(result).hex()
    if isinstance(result, enum.Enum):
        return result.value
    if isinstance(result, (int, str, bool)) or result is None:
        return result
    return type(result).__name__  # an object such as a scan: its kind only


def record(path: str) -> None:
    from axishell import eig

    solves = []
    solve = eig.solve_smallest
    label = None

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        solves.append({"case": label, "values": _hex(list(out.values)),
                       "vectors": hashlib.sha256(
                           np.ascontiguousarray(out.vectors).tobytes()).hexdigest(),
                       "iterations": out.iterations, "shift": _hex(out.shift),
                       "residuals": _hex(list(out.residuals))})
        return out

    eig.solve_smallest = recording
    try:
        # the 1D constants behind the sweeps' wavenumber caps solve too
        label = "setup"
        cases = _cases()
        results = []
        for label, run in cases:
            results.append({"case": label, "result": _plain(run())})
    finally:
        eig.solve_smallest = solve
    with open(path, "w") as f:
        json.dump({"solves": solves, "results": results}, f, indent=0)
    print(f"{len(solves)} solves in {len(results)} cases written to {path}")


def compare(before: str, after: str) -> int:
    a, b = (json.load(open(p)) for p in (before, after))
    bad = []
    if len(a["solves"]) != len(b["solves"]):
        bad.append(f"solve counts {len(a['solves'])} and {len(b['solves'])}")
    moves = {"absolute": (0.0, None), "relative": (0.0, None)}
    for i, (x, y) in enumerate(zip(a["solves"], b["solves"])):
        for key in ("case", "values", "vectors", "iterations", "shift"):
            if x[key] != y[key]:
                bad.append(f"solve {i} ({x['case']}): {key} differs")
        for r, s in zip(x["residuals"], y["residuals"]):
            r, s = float.fromhex(r), float.fromhex(s)
            d = abs(r - s)
            for kind, size in (("absolute", d), ("relative", d / max(r, s) if d else 0.0)):
                if size > moves[kind][0]:
                    moves[kind] = (size, f"solve {i} ({x['case']}): {r:.3e} -> {s:.3e}")
    for x, y in zip(a["results"], b["results"]):
        if x != y:
            bad.append(f"result of {x['case']} differs")
    if a["results"] != b["results"] and not any(s.startswith("result") for s in bad):
        bad.append("case lists differ")
    print(f"{len(a['solves'])} solves, {len(a['results'])} cases compared")
    for kind, (size, where) in moves.items():
        print(f"largest {kind} residual move: {size:.3e}" + (f" at {where}" if where else ""))
    for line in bad:
        print("DIFFERS", line)
    return 1 if bad else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "record":
        record(argv[2])
        return 0
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
