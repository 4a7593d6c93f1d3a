"""Correctness checks of the benchmark, kept apart from the timed work.

Every check compares a program output with something the program did not
compute: the paper's tables, closed forms evaluated here, or an independent
``scipy.sparse.linalg.eigsh`` shift-invert solve of the same assembled
pencil.  Each check function is pure: it takes outputs and references and
returns a list of ``Check`` results, so the tests can feed it perturbed
values.  An operation fails when any of its checks fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.optimize import brentq

# the paper's wavenumber table (models B, D, H, L at eps 0.1 ... 0.01)
PAPER_K = {
    "B": {0.1: 2, 0.05: 3, 0.02: 4, 0.01: 6},
    "D": {0.1: 2, 0.05: 2, 0.02: 3, 0.01: 4},
    "H": {0.1: 2, 0.05: 2, 0.02: 4, 0.01: 5},
    "L": {0.1: 2, 0.05: 2, 0.02: 3, 0.01: 4},
}
# the paper's (gamma, a1) rows that the package is meant to reproduce
PAPER_GAMMA_A1 = {"B": (2.1247, 3.4464), "H": (0.75901, 0.60785), "L": (0.85141, 1.55472)}
PAPER_CLASS = {"A": "Cylinder", "B": "Cone", "D": "TorusElliptic",
               "H": "GaussElliptic", "L": "AiryElliptic"}

LAMBDA_RTOL = 1e-6       # program eigenvalue vs independent solve
RESIDUAL_MAX = 1e-8      # backward error the 2D sweeps promise
PAPER_RTOL = 2e-3        # printed digits of the paper's constants
CLOSED_FORM_RTOL = 1e-6  # 1D FEM constants vs closed forms / scaling laws
EXACT_RTOL = 1e-12       # values that are exact up to rounding
PEAK_TOL = 0.05          # distance of a Gauss mode's peak from z0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def failures(checks: list[Check]) -> list[str]:
    return [f"{c.name}: {c.detail}" for c in checks if not c.ok]


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1e-300)


def _close(name: str, value: float, ref: float, rtol: float) -> Check:
    err = _rel(value, ref)
    return Check(name, bool(err <= rtol), f"{value:.10g} vs {ref:.10g} (rel {err:.2e}, tol {rtol:g})")


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------


def eigsh_smallest(K, M) -> float:
    """Smallest eigenvalue of K x = lambda M x by ARPACK shift-invert at 0."""
    v0 = np.ones(K.shape[0])
    w = spla.eigsh(K.tocsc(), k=1, M=M.tocsc(), sigma=0.0, which="LM",
                   v0=v0, return_eigenvectors=False)
    return float(w[0])


def cylinder_constants(R: float, L: float, E: float, nu: float) -> tuple[float, float]:
    """(gamma, a1) of a clamped cylinder from the root of cos x cosh x = 1."""
    kappa = brentq(lambda x: math.cos(x) * math.cosh(x) - 1.0, 4.0, 5.5, xtol=1e-15)
    mu1 = kappa**4 / L**4
    fac = 3.0 * (1.0 - nu * nu)
    gamma = (R**3 * math.sqrt(fac * mu1)) ** 0.25
    a1 = (2.0 * E / R) * math.sqrt(mu1 / fac)
    return gamma, a1


def polynomial_h0(coeffs, z: float, E: float) -> float:
    """H0 = E f''^2 / (1 + f'^2)^3 for f given by ascending coefficients."""
    fp = sum(j * c * z ** (j - 1) for j, c in enumerate(coeffs) if j >= 1)
    fpp = sum(j * (j - 1) * c * z ** (j - 2) for j, c in enumerate(coeffs) if j >= 2)
    return E * fpp**2 / (1.0 + fp**2) ** 3


# ---------------------------------------------------------------------------
# checks per operation
# ---------------------------------------------------------------------------


def check_sweep(k_paper: int, k_opt: int, ks, lambdas, residuals, ref_lambdas) -> list[Check]:
    """One 2D wavenumber sweep against the paper and an independent solve."""
    ks = list(ks)
    checks = [Check("k_opt vs paper", abs(k_opt - k_paper) <= 1, f"k_opt {k_opt}, paper {k_paper}")]
    k_ref = ks[int(np.argmin(ref_lambdas))]
    checks.append(Check("k_opt is the independent argmin", k_opt == k_ref,
                        f"k_opt {k_opt}, eigsh argmin {k_ref}"))
    if k_opt in ks:
        i = ks.index(k_opt)
        checks.append(_close("lambda(k_opt) vs eigsh", lambdas[i], ref_lambdas[i], LAMBDA_RTOL))
    else:
        checks.append(Check("lambda(k_opt) vs eigsh", False, f"k_opt {k_opt} not among evaluated k"))
    worst = max(residuals)
    checks.append(Check("residuals", worst <= RESIDUAL_MAX, f"max residual {worst:.2e}"))
    return checks


def check_mode(lam: float, ref_lam: float, u_r, argmax_z: float,
               peak_at: float | None = None) -> list[Check]:
    """A cold single-mode solve and its midline trace."""
    checks = [_close("lambda1 vs eigsh", lam, ref_lam, LAMBDA_RTOL)]
    peak = float(np.max(np.abs(u_r)))
    checks.append(Check("trace max |u_r| = 1", abs(peak - 1.0) <= EXACT_RTOL, f"max |u_r| {peak!r}"))
    if peak_at is not None:
        checks.append(Check("peak at the H0 minimum", abs(argmax_z - peak_at) <= PEAK_TOL,
                            f"argmax z {argmax_z:.4g}, expected {peak_at:g} +- {PEAK_TOL:g}"))
    return checks


def check_constants(model: str, tag: str, res: dict, ref: dict) -> list[Check]:
    """Per-class constants of a preset; ``ref`` holds what the model pins.

    Keys of ``ref``: ``a0`` (exact), optionally ``gamma``/``a1`` with
    ``rtol``, and ``ratio`` for the cone's energy ratio at the optimum.
    """
    checks = [Check("class", tag == PAPER_CLASS[model], f"{tag}, expected {PAPER_CLASS[model]}")]
    checks.append(_close("a0 exact", res["a0"], ref["a0"], EXACT_RTOL))
    if "gamma" in ref:
        checks.append(_close("gamma", res["gamma"], ref["gamma"], ref["rtol"]))
        checks.append(_close("a1", res["a1"], ref["a1"], ref["rtol"]))
    if "ratio" in ref:
        err = abs(res["ratio"] - ref["ratio"])
        checks.append(Check("energy ratio at optimum", err <= CLOSED_FORM_RTOL,
                            f"{res['ratio']:.10g} vs {ref['ratio']:g} (abs {err:.2e})"))
    return checks


def check_e_scaling(base: dict, doubled: dict) -> list[Check]:
    """Doubling E doubles a0 and a1 and leaves gamma unchanged."""
    return [
        _close("a0 doubles", doubled["a0"], 2.0 * base["a0"], CLOSED_FORM_RTOL),
        _close("a1 doubles", doubled["a1"], 2.0 * base["a1"], CLOSED_FORM_RTOL),
        _close("gamma unchanged", doubled["gamma"], base["gamma"], CLOSED_FORM_RTOL),
    ]


def check_torus_row(row: dict, model_d: dict | None = None) -> list[Check]:
    """One toroidal_sweep row; the row of preset D's arc must equal compute(D)."""
    checks = [Check("no error", not row["error"], row["error"] or "ok")]
    for key in ("Lambda2", "gamma_min", "a1"):
        v = row[key]
        checks.append(Check(f"{key} > 0", v is not None and v > 0.0, f"{key} = {v}"))
    if model_d is not None and not row["error"]:
        checks.append(_close("Lambda2 = compute(D)", row["Lambda2"], model_d["lambda2"], EXACT_RTOL))
        checks.append(_close("gamma = compute(D)", row["gamma_min"], model_d["gamma"], EXACT_RTOL))
        checks.append(_close("a1 = compute(D)", row["a1"], model_d["a1"], EXACT_RTOL))
    return checks


def check_cli_csv(exit_code: int, header_lines: int, k_paper: int, k_observed: int,
                  lam: float, ref_lam: float) -> list[Check]:
    """One eps CSV of ``axishell sweep2d``."""
    return [
        Check("exit code 0", exit_code == 0, f"exit code {exit_code}"),
        Check("one # header line", header_lines == 1, f"{header_lines} header lines"),
        Check("k_observed vs paper", abs(k_observed - k_paper) <= 1,
              f"k_observed {k_observed}, paper {k_paper}"),
        _close("lambda1 vs eigsh", lam, ref_lam, LAMBDA_RTOL),
    ]
