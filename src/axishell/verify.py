"""The identity suite: pointwise identities of the reduction, exact symmetries
of the assembly, and closed-form oracles.

``axishell verify`` prints it and acceptance criterion 4 asserts it.  Every
check is yielded as ``(name, residual, tol, passed)``; a tolerance of 0
demands exact equality.
"""

from __future__ import annotations

import math

import numpy as np

from . import asymptotics, fem1d, lame2d, symbols
from .geometry import frame_at
from .profiles import PRESET_IDS, ShellProfile, preset

__all__ = ["identity_suite"]

V2_TEST_POLYNOMIALS = ([0.0, 1.0, 0.5, -0.25], [0.0, 1.0, -0.5, 0.25])
H2_TEST_POLYNOMIALS = ([0.0, 0.0, 1.0], [1.0, 0.5, -2.0, 1.0])
H2_TEST_LAM0 = (0.0, 0.25)
M1_ZERO = ((0, 0), (1, 1), (0, 2), (2, 0), (2, 2))
M2_ZERO = ((0, 1), (1, 0), (1, 2), (2, 1))
POINTWISE_TOLS = {
    "H0 equals E b_zz^2": 1e-14,
    "second-order coefficient curvature identity": 1e-12,
    "fourth-order principal coefficient identity": 1e-12,
    "H0 elimination recurrence": 1e-12,
    "V2 elimination equation": 1e-10,
    "H2 elimination recurrence": 1e-9,
    "symbol sparsity pattern": 0.0,
}


def _check(name: str, residual, tol: float):
    residual = float(residual)
    return name, residual, tol, residual <= tol


def identity_suite(profile2d: ShellProfile | None = None, seed: int = 0):
    """Yield ``(name, residual, tol, passed)`` for every check of the suite.

    The pointwise identities are evaluated at 20 points per preset, drawn
    uniformly with ``seed``.  The 2D assembly identities use ``profile2d``
    (model D when None); the toroidal check runs for model D only.
    """
    # only the suite needs these, so importing the package does not load them
    from scipy.optimize import brentq
    from scipy.special import airy

    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(POINTWISE_TOLS, 0.0)
    for mid in PRESET_IDS:
        p = preset(mid)
        fr = frame_at(p, rng.uniform(*p.interval, size=20))
        mats, red = symbols.symbols_at(fr)
        curv2 = 2 * p.E * (fr.f**2 / fr.s**2) * fr.b_zz * (fr.b_pp - fr.b_zz)
        curv4 = p.E * (fr.f**4 / fr.s**4) * (fr.b_pp - 3 * fr.b_zz) * (fr.b_pp - fr.b_zz)
        sparse = (all(mats.M1[i][j].is_zero for i, j in M1_ZERO)
                  and all(mats.M2[i][j].is_zero for i, j in M2_ZERO))
        residuals = {
            "H0 equals E b_zz^2": abs(fr.H0 - p.E * fr.b_zz**2) / np.maximum(fr.H0, 1e-3),
            "second-order coefficient curvature identity":
                abs(-symbols.h2_coefficients(fr, 0.0)[2] - curv2) / np.maximum(abs(curv2), 1e-3),
            "fourth-order principal coefficient identity":
                abs(red.H4_principal - curv4) / np.maximum(abs(curv4), 1e-3),
            "H0 elimination recurrence": symbols.verify_H0_recurrence(fr),
            "V2 elimination equation":
                max(np.max(symbols.verify_V2_equation(fr, q)) for q in V2_TEST_POLYNOMIALS),
            "H2 elimination recurrence":
                max(np.max(symbols.verify_H2_recurrence(fr, q, lam0=lam0))
                    for q in H2_TEST_POLYNOMIALS for lam0 in H2_TEST_LAM0),
            "symbol sparsity pattern": 0.0 if sparse else 1.0,
        }
        for name, r in residuals.items():
            worst[name] = max(worst[name], float(np.max(r)))
    for name, tol in POINTWISE_TOLS.items():
        yield _check(name, worst[name], tol)

    beam = ShellProfile("affine", (0.0, 1.0), coeffs=(1.0,))
    K, M = fem1d.assemble_h20(beam, 1.0, 0.0, fem1d.Mesh1D.uniform((0.0, 1.0), 64))
    yield _check("assembled matrix exact symmetry", abs(K - K.T).max(), 0.0)
    kappa = brentq(lambda x: math.cos(x) * math.cosh(x) - 1.0, 4.0, 5.5, xtol=1e-14)
    lam_beam = float(fem1d.smallest_eigenpairs(K, M).values[0])
    yield _check("clamped-beam eigenvalue vs characteristic root",
                 abs(lam_beam - kappa**4) / kappa**4, 1e-5)

    za = asymptotics.airy_first_zero()
    yield _check("reversed-Airy first zero", abs(airy(-za)[0]), 1e-12)

    prof2d = profile2d if profile2d is not None else preset("D")
    mesh = lame2d.build_meridian_mesh(prof2d, 0.1, 4, 2)
    plus, minus = (lame2d.assemble_fourier_lame(mesh, k, degree=3) for k in (3, -3))
    Kp, Km = plus.stiffness.toarray(), minus.stiffness.toarray()
    sgn = np.where(plus.family.free % 3 == 1, -1.0, 1.0)
    scale = max(np.abs(Kp).max(), 1.0)
    yield _check("wavenumber sign-flip assembly identity",
                 np.abs(sgn[:, None] * Km * sgn[None, :] - Kp).max() / scale, 0.0)
    yield _check("2D stiffness symmetry", np.abs(Kp - Kp.T).max() / scale, 0.0)

    if prof2d == preset("D"):
        lambda2 = asymptotics.toroidal_constants(prof2d).lambda2
        yield "toroidal second-order eigenvalue positive", -lambda2, 0.0, lambda2 > 0.0
