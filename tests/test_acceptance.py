"""Acceptance criteria, one pass/fail line each (summarized at session end).

Two sub-criteria are strict expected failures, explained in "Known deviations
from the paper" in README.md:

* criterion 1, model D: the source table row (0.85935, 0.71500) is
  inconsistent with the printed reduced operator itself; the faithful
  implementation gives (0.857004, 0.707981), confirmed by an independent
  3-component thin-shell oracle (test_koiter_oracle.py).
* criterion 6, model A: the 2D remainder at eps in {0.02, 0.01} follows the
  next-order eps^(5/4) surface-model correction (halving ratio 2^(5/4) ~ 2.38,
  measured 2.29), so the demanded factor 2.5 is unattainable there.
"""

import json
import math
import time
from pathlib import Path

import pytest

import axishell as ax
from axishell import asymptotics as asy
from axishell.verify import identity_suite
from conftest import record_criterion
from make_fingerprints import CONSTANTS, constants_pin, torus_pins

TAB_ASY = {
    "A": (2.9323, 3.3852),
    "B": (2.1247, 3.4464),
    "D": (0.85935, 0.71500),
    "H": (0.75901, 0.60785),
    "L": (0.85141, 1.55472),
}
TAB_K = {
    "B": {0.1: 2, 0.05: 3, 0.02: 4, 0.01: 6},
    "D": {0.1: 2, 0.05: 2, 0.02: 3, 0.01: 4},
    "H": {0.1: 2, 0.05: 2, 0.02: 4, 0.01: 5},
    "L": {0.1: 2, 0.05: 2, 0.02: 3, 0.01: 4},
}
A0_EXACT = {"A": 0.0, "B": 0.0, "D": 0.25, "H": 0.0625}


def test_criterion_1_table_constants(asym_results):
    t0 = time.time()
    results = {mid: ax.compute(ax.preset(mid)) for mid in "ABDHL"}
    elapsed = time.time() - t0
    lines = []
    ok = True
    for mid in "ABHL":
        res = results[mid]
        g_ref, a1_ref = TAB_ASY[mid]
        g_ok = abs(res.gamma / g_ref - 1) <= 2e-3
        a_ok = abs(res.a1 / a1_ref - 1) <= 2e-3
        ok &= g_ok and a_ok
        lines.append(f"{mid}: gamma {res.gamma:.5f}/{g_ref} a1 {res.a1:.5f}/{a1_ref}")
        if mid in A0_EXACT:
            ok &= res.a0 == A0_EXACT[mid]
        else:
            ok &= abs(res.a0 - 0.17804) <= 1e-4
    ok &= results["D"].a0 == 0.25
    ok &= elapsed < 30.0
    record_criterion(
        f"criterion 1 (A,B,H,L constants + all a0, {elapsed:.1f} s): "
        + ("PASS" if ok else "FAIL") + "  " + "; ".join(lines)
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="upstream table row D is inconsistent with its own printed reduced "
    "operator; the faithful value (0.857004, 0.707981) is confirmed by the "
    "independent thin-shell oracle -- see Known deviations in README.md",
)
def test_criterion_1_model_D_table_row(asym_results):
    res = asym_results("D")
    g_ref, a1_ref = TAB_ASY["D"]
    g_ok = abs(res.gamma / g_ref - 1) <= 2e-3
    a_ok = abs(res.a1 / a1_ref - 1) <= 2e-3
    record_criterion(
        f"criterion 1 (model D row): {'PASS' if g_ok and a_ok else 'FAIL (expected, see README)'}"
        f"  gamma {res.gamma:.6f} vs {g_ref} (rel {res.gamma / g_ref - 1:+.2e}),"
        f" a1 {res.a1:.6f} vs {a1_ref} (rel {res.a1 / a1_ref - 1:+.2e})"
    )
    assert g_ok and a_ok


def test_criterion_2_wavenumber_table(sweep2d):
    t0 = time.time()
    rows = []
    ok = True
    for mid in "BDHL":
        for eps, k_ref in TAB_K[mid].items():
            sweep = sweep2d(mid, eps)
            hit = abs(sweep.k_opt - k_ref) <= 1
            ok &= hit
            ok &= all(rec.residual <= 1e-8 for rec in sweep.records)
            rows.append(f"{mid}@{eps:g}:{sweep.k_opt}/{k_ref}")
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    record_criterion(
        f"criterion 2 (2D wavenumber table, {elapsed:.0f} s): "
        + ("PASS" if ok else "FAIL") + "  " + " ".join(rows)
    )
    assert ok


def _pins(section: str) -> list:
    """One section of tests/fingerprints.json, as tests/make_fingerprints.py wrote it."""
    return json.loads(Path(__file__).with_name("fingerprints.json").read_text())[section]


def _pin_drift(pin: dict, got: dict) -> float:
    """Largest relative move of a float field; inf if any other field differs."""
    if pin["exact"] != got["exact"] or pin["hex"].keys() != got["hex"].keys():
        return math.inf
    drift = 0.0
    for name, text in pin["hex"].items():
        want, value = float.fromhex(text), float.fromhex(got["hex"][name])
        if value != want:  # a pinned zero must stay exactly zero
            drift = max(drift, abs(value / want - 1.0) if want else math.inf)
    return drift


def test_wavenumber_table_fingerprints(sweep2d):
    # k_opt and lambda_1(k_opt) of the table sweeps as committed by
    # tests/make_fingerprints.py; an assembly or solver change that moves a
    # table eigenvalue past 1e-8 relative shows here before it can move a k_opt
    pins = _pins("table")
    assert sorted((p["model"], p["eps"]) for p in pins) == sorted(
        (mid, eps) for mid in TAB_K for eps in TAB_K[mid])
    drift, moved = {}, []
    for p in pins:
        sweep = sweep2d(p["model"], p["eps"])
        name = f"{p['model']}@{p['eps']:g}"
        if sweep.k_opt != p["k_opt"]:
            moved.append(f"{name} k_opt {sweep.k_opt}/{p['k_opt']}")
        drift[name] = abs(sweep.lambda1 / float.fromhex(p["lambda1"]) - 1.0)
    worst = max(drift, key=drift.get)
    ok = not moved and drift[worst] <= 1e-8
    record_criterion(
        "table fingerprints (16 k_opt, lambda(k_opt) to 1e-8 vs tests/fingerprints.json): "
        + ("PASS" if ok else "FAIL") + f"  largest lambda drift {drift[worst]:.1e} at {worst}"
        + "".join(f"; {m}" for m in moved))
    assert ok


def test_constants_fingerprints():
    # every field `axishell asymptotics` prints, unrounded, for the five presets
    # at E = 1 and 2: each float within 1e-8 relative, the rest identical
    pins = _pins("constants")
    assert [(p["model"], p["E"]) for p in pins] == CONSTANTS
    drift = {f"{p['model']}@E={p['E']:g}": _pin_drift(p, constants_pin(p["model"], p["E"]))
             for p in pins}
    worst = max(drift, key=drift.get)
    record_criterion(
        "constants fingerprints (5 presets at E = 1, 2 to 1e-8 vs tests/fingerprints.json): "
        + ("PASS" if drift[worst] <= 1e-8 else "FAIL")
        + f"  largest drift {drift[worst]:.1e} at {worst}")
    assert drift[worst] <= 1e-8


def test_torus_sweep_fingerprints():
    pins = _pins("torus_sweep")
    got = torus_pins()
    assert len(got) == len(pins) == 5
    assert max(_pin_drift(p, g) for p, g in zip(pins, got)) <= 1e-8


def test_criterion_3_cylinder_routes():
    closed = ax.cylinder_closed_form(ax.preset("A"))
    optim = ax.optimize_gamma_parabolic(ax.preset("A"))
    route_ok = (abs(optim.gamma / closed.gamma - 1) <= 1e-4
                and abs(optim.a1 / closed.a1 - 1) <= 1e-4)
    from scipy.optimize import brentq

    # the beam constant against the characteristic root; verify's identity
    # suite (criterion 4) checks the 64-element beam solve against the same root
    kappa = brentq(lambda x: math.cos(x) * math.cosh(x) - 1.0, 4.0, 5.5, xtol=1e-14)
    lam = asy.CLAMPED_BEAM_MU1
    beam_ok = abs(lam - kappa**4) <= 1e-15 * kappa**4
    record_criterion(
        "criterion 3 (cylinder closed form vs optimization; beam oracle): "
        + ("PASS" if route_ok and beam_ok else "FAIL")
        + f"  route rel {abs(optim.a1 / closed.a1 - 1):.1e},"
        + f" beam rel {abs(lam - kappa**4) / kappa**4:.1e}"
    )
    assert route_ok and beam_ok


def test_criterion_4_identity_suite():
    checks = list(identity_suite())
    failed = [name for name, _, _, passed in checks if not passed]
    record_criterion(
        "criterion 4 (identity suite): " + ("PASS" if not failed else "FAIL " + ", ".join(failed))
        + "  " + "; ".join(f"{name} {residual:.1e}/{tol:g}" for name, residual, tol, _ in checks)
    )
    assert not failed


def test_criterion_5_energy_ratio(asym_results):
    r_para = asy.energy_ratio(ax.preset("B"), 0.01)
    para_ok = abs(r_para - 0.5) <= 1e-6
    res = asym_results("H")
    eps = 1e-3
    r_num = asy.energy_ratio(ax.preset("H"), eps)
    delta_form = res.ratio_coeff * eps ** 0.4
    # the closed form's denominator keeps only a0; at finite eps the law's
    # own denominator is a0 + a1 eps^(2/5) (see Known deviations in README.md)
    r_finite = delta_form * res.a0 / (res.a0 + res.a1 * eps**0.4)
    gauss_ok = abs(r_num / r_finite - 1) <= 0.10
    record_criterion(
        "criterion 5 (energy ratios): " + ("PASS" if para_ok and gauss_ok else "FAIL")
        + f"  parabolic |R-1/2| {abs(r_para - 0.5):.1e};"
        + f" Gauss R {r_num:.5f} vs finite-eps law {r_finite:.5f}"
        + f" (raw delta*eps^0.4 {delta_form:.5f}, factor {r_num / delta_form:.3f})"
    )
    assert para_ok and gauss_ok


@pytest.mark.xfail(
    strict=True,
    reason="remainder at eps in {0.02, 0.01} follows the eps^(5/4) next-order "
    "surface-model correction (halving ratio <= 2^(5/4) ~ 2.38), so a factor "
    ">= 2.5 is unattainable at these thicknesses -- see Known deviations in README.md",
)
def test_criterion_6_model_A_remainder(sweep2d, asym_results):
    res = asym_results("A")
    rem = {}
    for eps in (0.02, 0.01):
        sweep = sweep2d("A", eps)
        rem[eps] = abs(sweep.lambda1 - res.a1 * eps)
    ratio = rem[0.02] / rem[0.01]
    ok = ratio >= 2.5
    record_criterion(
        f"criterion 6 (model A remainder halving ratio {ratio:.2f} >= 2.5): "
        + ("PASS" if ok else "FAIL (expected, see README)")
    )
    assert ok


def test_criterion_6_model_H_remainder(sweep2d, asym_results):
    res = asym_results("H")
    signs = []
    rels = []
    for eps in (0.05, 0.02, 0.01):
        sweep = sweep2d("H", eps)
        rem = sweep.lambda1 - res.a0 - res.a1 * eps ** 0.4
        signs.append(math.copysign(1.0, rem))
        rels.append(abs(rem) / (res.a1 * eps**0.4))
    ok = len(set(signs)) == 1 and rels[0] > rels[1] > rels[2]
    record_criterion(
        "criterion 6 (model H remainder sign-constant and shrinking): "
        + ("PASS" if ok else "FAIL")
        + "  rel sizes " + " -> ".join(f"{r:.3f}" for r in rels)
    )
    assert ok


def test_criterion_7_concentration(mode_trace, asym_results):
    rec_h2, tr_h2 = mode_trace("H", 1e-2, 5, 16)
    rec_h3, tr_h3 = mode_trace("H", 1e-3, 12, 24)
    ratio = tr_h3.half_width / tr_h2.half_width
    h_ok = 10 ** (-0.5) <= ratio <= 10 ** 0.1

    pred_L = asy.predict(asym_results("L"), 1e-4)
    _, tr_l = mode_trace("L", 1e-4, pred_L.k_int, 48)
    l_ok = abs(tr_l.argmax_z - 0.5) <= 0.15

    a_ok = True
    widths = []
    for eps, k in ((0.02, 6), (0.01, 7)):
        _, tr_a = mode_trace("A", eps, k, 16)
        widths.append(tr_a.half_width)
        a_ok &= tr_a.half_width > 0.25 * 2.0
    ok = h_ok and l_ok and a_ok
    record_criterion(
        "criterion 7 (concentration): " + ("PASS" if ok else "FAIL")
        + f"  H width ratio {ratio:.3f} in [0.316, 1.259];"
        + f" L argmax {tr_l.argmax_z:.3f} (|d| = {abs(tr_l.argmax_z - 0.5):.3f} <= 0.15);"
        + f" A widths {['%.2f' % w for w in widths]} > 0.5"
    )
    assert ok
