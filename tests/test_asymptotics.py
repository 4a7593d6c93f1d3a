"""Per-class constants, exponents, power laws, and numeric cross-routes."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar
from scipy.special import airy

import axishell as ax
from axishell import asymptotics as asy
from axishell import fem1d
from axishell.errors import AdmissibilityError, ReductionNotApplicableError, SolverError
from axishell.geometry import H0Minimum, ShellClass, ShellClassTag
from axishell.profiles import ShellProfile


def test_exponent_table():
    assert asy.exponents_from_eta1(4) == (Fraction(1, 4), Fraction(1))
    assert asy.exponents_from_eta1(2) == (Fraction(1, 3), Fraction(2, 3))
    assert asy.exponents_from_eta1(1) == (Fraction(2, 5), Fraction(2, 5))
    assert asy.exponents_from_eta1(Fraction(2, 3)) == (Fraction(3, 7), Fraction(2, 7))
    with pytest.raises(ValueError):
        asy.exponents_from_eta1(0)


def test_exponent_tuples_by_class(asym_results):
    want = {
        "A": (Fraction(4), Fraction(1, 4), Fraction(1)),
        "B": (Fraction(4), Fraction(1, 4), Fraction(1)),
        "D": (Fraction(2), Fraction(1, 3), Fraction(2, 3)),
        "H": (Fraction(1), Fraction(2, 5), Fraction(2, 5)),
        "L": (Fraction(2, 3), Fraction(3, 7), Fraction(2, 7)),
    }
    for mid, (eta1, beta, alpha1) in want.items():
        res = asym_results(mid)
        assert (res.eta1, res.beta, res.alpha1) == (eta1, beta, alpha1)
        assert res.a1 > 0 and res.gamma > 0


def test_airy_function_and_zero():
    za = asy.airy_first_zero()
    assert abs(za - 2.33811) < 1e-5
    # independent oracle: arbitrary-precision implementation
    assert abs(za - float(-mpmath.airyaizero(1))) < 1e-9
    for x in (-4.5, -2.0, -0.5, 0.0, 1.0, 4.0, 7.5):
        assert abs(airy(x)[0] - float(mpmath.airyai(x))) < 1e-10


def test_airy_first_zero_is_brents_root_bit_for_bit():
    # the constant is the double that Brent's method finds on scipy's Ai
    assert asy.airy_first_zero() == brentq(lambda x: airy(-x)[0], 2.0, 3.0,
                                           xtol=1e-14, rtol=1e-15)


def test_clamped_beam_mu1_is_kappa4_correctly_rounded():
    # kappa the first positive root of cos kappa cosh kappa = 1, at 40 digits
    with mpmath.workdps(40):
        kappa = mpmath.findroot(lambda x: mpmath.cos(x) * mpmath.cosh(x) - 1, 4.73)
        assert asy.CLAMPED_BEAM_MU1 == float(kappa**4)


def test_cylinder_makes_no_eigen_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the cylinder's closed form made an eigen-solve")

    monkeypatch.setattr(fem1d, "smallest_eigenpairs", no_solve)
    closed = asy.cylinder_closed_form(ax.preset("A"))
    assert asy.compute(ax.preset("A")) == closed
    assert closed.diagnostics["mu1_bilaplacian"] == asy.CLAMPED_BEAM_MU1 / 2.0**4


@pytest.mark.parametrize("eta1", [4, 2, 1, Fraction(2, 3)])
@pytest.mark.parametrize("a0, b, c", [(0.0, 0.3, 2.0), (0.0, 4.0, 0.05),
                                      (0.25, 1.7, 0.4), (1.5, 0.05, 11.0)])
def test_law_matches_a_direct_minimization(eta1, a0, b, c):
    # at eps = 1 the law's minimizer over k is gamma and its minimum a0 + a1.
    # Brent's search runs in t = log k on the energy less its value at a first
    # float-precision minimizer, evaluated to 40 digits, so that rounding in
    # the flat bottom does not stop it near sqrt(machine eps)
    res = asy._law(None, eta1, a0, b, c)
    eta1 = Fraction(eta1)

    def energy(t):
        e = mpmath.mpf(eta1.numerator) / eta1.denominator
        return a0 + c * mpmath.exp(-e * t) + b * mpmath.exp(4 * t)

    with mpmath.workdps(40):
        rough = minimize_scalar(lambda t: float(energy(t)), bracket=(-1.0, 1.0)).x
        ref = energy(rough)
        t_min = minimize_scalar(lambda t: float(energy(t) - ref),
                                bracket=(rough - 0.01, rough + 0.01), tol=1e-13).x
        minimum = float(energy(t_min))
        bend = b * mpmath.exp(4 * t_min)
        share = float(bend / (energy(t_min) - a0))
    assert abs(math.exp(t_min) / res.gamma - 1) <= 1e-9
    assert abs((res.a0 + res.a1) / minimum - 1) <= 1e-12
    if a0 == 0.0:
        assert res.ratio_exact == float(res.alpha1 / 2)
        assert abs(share - float(eta1 / (4 + eta1))) <= 1e-9
        assert abs(share - res.ratio_exact) <= 1e-9
    else:
        assert res.ratio_exact is None and res.ratio_coeff > 0.0


def test_cylinder_closed_form(asym_results):
    res = asym_results("A")
    assert abs(res.gamma - 2.9323) <= 2e-4
    assert abs(res.a1 - 3.3852) <= 2e-4
    assert res.a0 == 0.0
    assert res.ratio_exact == 0.5
    # explicit algebra: gamma^4 = R^3 sqrt(3 (1-nu^2) mu1)
    mu1 = res.diagnostics["mu1_bilaplacian"]
    assert abs(res.gamma**4 - 8 * math.sqrt(3 * 0.91 * mu1)) < 1e-9
    assert abs(res.a1 - math.sqrt(mu1 / (3 * 0.91))) < 1e-9


def test_cylinder_optimization_cross_check(asym_results):
    closed = asym_results("A")
    optim = ax.optimize_gamma_parabolic(ax.preset("A"))
    assert abs(optim.gamma / closed.gamma - 1) <= 1e-4
    assert abs(optim.a1 / closed.a1 - 1) <= 1e-4


def test_cone_constants(asym_results):
    res = asym_results("B")
    assert abs(res.gamma - 2.1247) <= 2e-3 * 2.1247
    assert abs(res.a1 - 3.4464) <= 2e-3 * 3.4464
    ends = res.diagnostics["mu1_bracket_ends"]
    assert min(ends) > 10 * res.a1


def test_parabolic_ratio_exactly_half():
    res = ax.optimize_gamma_parabolic(ax.preset("B"))
    assert abs(res.diagnostics["ratio_at_optimum"] - 0.5) <= 1e-6


def test_gauss_constants(asym_results):
    res = asym_results("H")
    assert res.a0 == 0.0625
    assert abs(res.gamma - 0.75901) <= 1e-5
    assert abs(res.a1 - 0.60785) <= 1e-5
    assert abs(res.b - 1.0 / (3 * 0.91)) < 1e-12
    assert abs(res.diagnostics["g_z0"] - 0.375) < 1e-12
    assert abs(res.diagnostics["h0_dd"] - 93.0 / 128.0) < 1e-10


def test_airy_constants(asym_results):
    res = asym_results("L")
    assert abs(res.a0 - 0.17804) <= 1e-4
    assert abs(res.gamma - 0.85141) <= 1e-5
    assert abs(res.a1 - 1.55472) <= 1e-5
    assert res.z0 == 0.5


def test_toroidal_constants(asym_results):
    res = asym_results("D")
    assert res.a0 == 0.25
    assert res.lambda2 > 0.0
    # faithful values of the printed reduced operator; the source table's row
    # (0.85935, 0.71500) is inconsistent with its own formulas (see Known
    # deviations in README.md and the thin-shell oracle test)
    assert abs(res.gamma - 0.857004) <= 2e-4
    assert abs(res.a1 - 0.707981) <= 2e-4
    ends = res.diagnostics["mu1_bracket_ends"]
    assert min(ends) > 10 * res.a1


def test_predict_wavenumber_laws(asym_results):
    pred = asy.predict(asym_results("A"), 1e-4)
    assert abs(pred.k_real - 29.3) < 0.05
    pred = asy.predict(asym_results("B"), 1e-4)
    assert abs(pred.k_real - 21.2) < 0.06 and pred.k_int == 21
    pred = asy.predict(asym_results("H"), 5e-5)
    assert abs(pred.k_real - 39.9) < 0.1
    pred = asy.predict(asym_results("H"), 0.2)
    assert abs(pred.k_real - 1.4) < 0.05
    pred = asy.predict(asym_results("L"), 1e-3)
    assert abs(pred.k_real - 16.4) < 0.1
    pred = asy.predict(asym_results("D"), 0.01)
    assert abs(pred.k_real - 4.0) < 0.05


def test_predict_m1_and_rounding(asym_results):
    res = asym_results("H")
    eps = 0.037
    pred = asy.predict(res, eps)
    assert pred.m1 == res.a0 + res.a1 * eps ** float(res.alpha1)
    assert asy._round_half_up(2.5) == 3
    assert asy._round_half_up(3.49999) == 3
    assert asy._round_half_up(3.5) == 4
    with pytest.raises(ValueError):
        asy.predict(res, 0.3)


def test_hyperbolic_refusal():
    hyper = ShellProfile("polynomial", (-1.0, 1.0), coeffs=(1.0, 0.0, 0.25))
    with pytest.raises(ReductionNotApplicableError):
        ax.compute(hyper)


def test_toroidal_requires_negative_center():
    bad = ShellProfile("circular_arc", (-0.5, 0.5), params=(0.5, 2.0, 0.0))
    with pytest.raises((AdmissibilityError, ReductionNotApplicableError)):
        ax.toroidal_constants(bad)


def test_gauss_two_way_cross_check(asym_results):
    # closed form vs direct numeric k-minimization of the assembled operator
    res = asym_results("H")
    eps = 1e-4
    k_opt, lam_min, _ = asy.elliptic_k_minimization(ax.preset("H"), eps)
    a1_num = (lam_min - res.a0) * eps ** (-float(res.alpha1))
    g_num = k_opt * eps ** float(res.beta)
    assert abs(a1_num / res.a1 - 1) <= 0.01
    assert abs(g_num / res.gamma - 1) <= 0.01


def test_airy_two_way_cross_check(asym_results):
    # the boundary-layer expansion converges like eps^(2/7): at eps = 1e-4 the
    # two routes differ by ~10% on a1 and the gap shrinks at the predicted
    # rate (measured 10.3% -> 5.9% -> 3.2% per decade; see Known deviations in README.md)
    res = asym_results("L")
    errs = []
    for eps in (1e-4, 1e-5):
        k_opt, lam_min, _ = asy.elliptic_k_minimization(ax.preset("L"), eps)
        a1_num = (lam_min - res.a0) * eps ** (-float(res.alpha1))
        g_num = k_opt * eps ** float(res.beta)
        errs.append(abs(a1_num / res.a1 - 1))
        assert abs(g_num / res.gamma - 1) <= 0.025
    assert errs[0] <= 0.12
    decay = errs[1] / errs[0]
    assert 0.4 <= decay <= 0.75  # theoretical 10^(-2/7) = 0.518


def test_multi_branch_gauss_picks_smallest_a1():
    # f'' = -(0.2625 - 0.5 z^2 + z^4) dips at z = +-0.5: a symmetric two-well
    # potential with two interior minimizers reported as branches
    f = ShellProfile(
        "polynomial", (-1.0, 1.0),
        coeffs=(2.0, 0.0, -0.13125, 0.0, 0.5 / 12.0, 0.0, -1.0 / 30.0),
    )
    cls = ax.classify(f)
    assert cls.tag.value == "GaussElliptic"
    assert len(cls.h0_minimum.branches) == 2
    res = ax.compute(f, cls)
    assert res.a1 > 0 and res.z0 in {b.z0 for b in cls.h0_minimum.branches}
    assert res.diagnostics["n_branches"] == 2


def _elliptic_class(tag, *branches):
    """A hand-built elliptic class whose H0 minimum reports ``branches``."""
    first = branches[0]
    minimum = H0Minimum(first.z0, first.value, first.d1, first.d2, first.boundary,
                        branches=branches)
    return ShellClass(tag, z0=first.z0, boundary_minimum=first.boundary, h0_minimum=minimum)


def test_gauss_refuses_an_interior_branch_without_curvature():
    # H0'' <= 0 at an interior minimizer leaves c = sqrt(g H0'' / 2) undefined
    flat = H0Minimum(0.0, 0.0625, 0.0, -1.0, False)
    cls = _elliptic_class(ShellClassTag.GAUSS_ELLIPTIC, flat)
    with pytest.raises(AdmissibilityError, match="degenerate interior minimum"):
        ax.compute(ax.preset("H"), cls)


def test_airy_refuses_a_boundary_slope_that_points_outward():
    # on L = [0.5, 1.5] the potential must rise into the interior from z0 = 0.5
    outward = H0Minimum(0.5, 0.17, -0.3, 0.0, True)
    cls = _elliptic_class(ShellClassTag.AIRY_ELLIPTIC, outward)
    with pytest.raises(AdmissibilityError, match="does not increase toward the interior"):
        ax.compute(ax.preset("L"), cls)


def test_airy_refuses_a_class_with_only_interior_branches():
    interior = (H0Minimum(0.8, 0.2, 0.0, 1.0, False), H0Minimum(1.2, 0.2, 0.0, 1.0, False))
    cls = _elliptic_class(ShellClassTag.AIRY_ELLIPTIC, *interior)
    with pytest.raises(ReductionNotApplicableError, match="no boundary minimizer"):
        ax.compute(ax.preset("L"), cls)


def test_toroidal_sweep_rows():
    rows = asy.toroidal_sweep(2.0, 0.0, (-1.0, 1.0), [-1.05, -1.0, -0.95])
    assert len(rows) == 3
    mid = rows[1]
    assert not mid["error"]
    assert abs(mid["gamma_min"] - 0.857004) < 5e-4
    assert abs(mid["a1"] - 0.707981) < 5e-4
    for row in rows:
        assert row["Lambda2"] > 0
    # continuity: no jumps above 10% between adjacent points
    for a, b in zip(rows, rows[1:]):
        assert abs(b["gamma_min"] / a["gamma_min"] - 1) < 0.10
        assert abs(b["a1"] / a["a1"] - 1) < 0.10
    bad = asy.toroidal_sweep(2.0, 0.0, (-1.0, 1.0), [0.2])
    assert bad[0]["error"]
    # a NaN arc radius is a typed per-point failure, not an untyped ValueError
    nan_row = asy.toroidal_sweep(float("nan"), 0.0, (-1.0, 1.0), [-1.2])[0]
    assert nan_row["error"].startswith("GeometryError: ")


def test_toroidal_sweep_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken toroidal_constants")

    monkeypatch.setattr(asy, "toroidal_constants", broken)
    with pytest.raises(TypeError):
        asy.toroidal_sweep(2.0, 0.0, (-1.0, 1.0), [-1.0])


def test_public_results_are_python_floats(asym_results):
    # a numpy scalar here leaks into callers: a comparison on it gives an
    # np.bool_, which json.dumps rejects
    for m in "ABDHL":
        res = asym_results(m)
        for f in dataclasses.fields(res):
            v = getattr(res, f.name)
            if not isinstance(v, (ShellClass, Fraction, dict)):
                assert v is None or type(v) is float, (m, f.name, type(v))
        diag = [x for v in res.diagnostics.values()
                for x in (v if isinstance(v, tuple) else (v,))]
        assert all(type(x) is float for x in diag if isinstance(x, (float, np.floating)))
    row = asy.toroidal_sweep(2.0, 0.0, (-1.0, 1.0), [-1.0])[0]
    for name in ("r_circ", "Lambda2", "gamma_min", "a1"):
        assert type(row[name]) is float, (name, type(row[name]))


def test_energy_ratio_parabolic_and_json(asym_results):
    r = asy.energy_ratio(ax.preset("A"), 0.01)
    assert abs(r - 0.5) <= 1e-6
    doc = asym_results("D").to_dict()
    assert doc["class"] == "TorusElliptic"
    assert doc["eta1"] == "2" and doc["beta"] == "1/3"
    docA = asym_results("A").to_dict()
    assert docA["ratio"] == 0.5


def _relative_log_slope(K_low, K_high, M, p_low, gamma, K_0=0.0):
    """|d mu1 / d log gamma| / mu1 of lambda_1[K_0 + g^p_low K_low + g^4 K_high] at
    gamma, by Hellmann-Feynman, from a cold solve."""
    low, high = gamma**p_low * K_low, gamma**4 * K_high
    pairs = fem1d.smallest_eigenpairs(K_0 + low + high, M)
    x, mu = pairs.vectors[:, 0], pairs.values[0]
    slope = (p_low * float(x @ (low @ x)) + 4 * float(x @ (high @ x))) / float(x @ (M @ x))
    return abs(slope) / mu


def test_stationarity_certificate_at_returned_optima(asym_results):
    # the scans stop where the Hellmann-Feynman slope vanishes, not on a golden
    # bracket width: a fresh solve at each returned optimum certifies it.  The
    # secant steps take B and H there in 10 and 6 solves (2 of B's 10 are
    # bisections where the slope's sign is at the solver's noise floor); the
    # energy-balance fixed point alone needs 15
    res = asym_results("B")
    scan = asy._parabolic_scan(ax.preset("B"))
    assert _relative_log_slope(scan.K_op, scan.K_b, scan.M, -4, res.gamma) <= 1e-9
    assert abs(res.diagnostics["ratio_at_optimum"] - 0.5) <= 1e-9
    assert res.diagnostics["gamma_iterations"] <= 10
    torus_row = ShellProfile("circular_arc", (-1.0, 1.0), params=(-1.4, 2.0, 0.0))
    for prof in (ax.preset("D"), torus_row):
        res = ax.toroidal_constants(prof)
        scan = asy._toroidal_scan(prof, res.a0)
        assert _relative_log_slope(scan.K_op, scan.K_b, scan.M, -2, res.gamma) <= 1e-9
        assert res.diagnostics["gamma_iterations"] > 0
        assert res.diagnostics["bracket_expansions"] == 0
    eps = 1e-4
    k_opt, _, data = asy.elliptic_k_minimization(ax.preset("H"), eps)
    scan = data["scan"]
    assert _relative_log_slope(scan.K_op, scan.K_b, scan.M, -2, k_opt, K_0=scan.K_0) <= 1e-9
    assert 0 < data["k_iterations"] <= 10 and data["bracket_expansions"] == 0


@pytest.mark.parametrize("scan", ["toroidal D", "elliptic H"])
def test_h2_coefficients_evaluated_once_per_assembly(monkeypatch, asym_results, scan):
    # the H2 pencil's g and V come from one evaluation of the frames and of H2's
    # coefficients at the quadrature points, bit for bit the matrices of one each
    mid = scan[-1]
    prof, lam0 = ax.preset(mid), asym_results(mid).a0
    frame_at, h2_coefficients = asy.frame_at, asy.h2_coefficients
    frames, coefficients = [], []

    def counting_frames(profile, z):
        frames.append(np.shape(z))
        return frame_at(profile, z)

    def counting_coefficients(frame, lam):
        coefficients.append(1)
        return h2_coefficients(frame, lam)

    monkeypatch.setattr(asy, "frame_at", counting_frames)
    monkeypatch.setattr(asy, "h2_coefficients", counting_coefficients)
    if mid == "D":
        built, elements = asy._toroidal_scan(prof, lam0), asy.DEFAULT_ELEMENTS
    else:
        built, elements = asy._elliptic_scan(prof, lam0, 1e-3), asy.K_SCAN_ELEMENTS
    assert len(frames) == len(coefficients) == 1 and frames[0][0] == elements
    mesh = fem1d.Mesh1D.uniform(prof.interval, elements)
    K, M = fem1d.assemble_h10(prof, lambda z: -h2_coefficients(frame_at(prof, z), lam0)[2],
                              lambda z: h2_coefficients(frame_at(prof, z), lam0)[0], mesh)
    for got, want in ((built.K_op, K), (built.M, M)):
        assert all(np.array_equal(getattr(got, a), getattr(want, a))
                   for a in ("data", "indices", "indptr"))


def test_stationarity_iteration_falls_back_outside_fixed_point_basin(monkeypatch):
    # an energy balance that points to the bracket edge gamma = 30 stands for a
    # start outside the fixed point's basin: the grid leaves D's optimum ~ 0.857
    # in a bracket two grid steps wide, the step to gamma = 30 is replaced by a
    # bisection, and the secant steps still reach the same gamma
    scan = asy._toroidal_scan(ax.preset("D"), 0.25)
    ref = scan.minimize(bracket=(0.1, 30.0))
    point, solved = asy._GammaScan._point, []

    def balance_at_edge(self, t):
        solved.append(t)
        return dataclasses.replace(point(self, t), t_fixed=math.log(30.0))

    monkeypatch.setattr(asy._GammaScan, "_point", balance_at_edge)
    edge = scan.minimize(bracket=(0.1, 30.0))
    assert ref.fallbacks == 0
    assert edge.fallbacks > 0
    assert abs(edge.gamma / ref.gamma - 1) <= 1e-10
    grid_step = math.log(30.0 / 0.1) / (asy.GAMMA_COARSE - 1)
    iterates = solved[asy.GAMMA_COARSE:]
    assert iterates and all(abs(t - math.log(ref.gamma)) < 2 * grid_step for t in iterates)


def test_gamma_bracket_expansion_gives_up_after_three_decades():
    scan = asy._parabolic_scan(ax.preset("B"))
    # three decades down from [1e4, 1e5] still leave B's optimum ~ 2.12 outside
    with pytest.raises(SolverError, match=r"in \[10, 100000\] after 3 decades"):
        scan.minimize(bracket=(1e4, 1e5))
