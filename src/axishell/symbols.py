"""Membrane symbol matrices and closed-form reduction coefficients.

The azimuthal Fourier symbol of the membrane operator is a formal series
k^2 M0 + k M1 + M2 in 3x3 operator matrices acting on (zeta_z, zeta_phi,
zeta_3).  Eliminating the tangential components against M0 produces scalar
operators H0..H4 and reconstruction operators V1..V3; all of them are stored
here through their printed closed forms.  Every function takes a frame at one
point or at an array of points (see ``geometry.frame_at``); coefficients are
floats for the first and arrays for the second.

Convention for complex factors: several entries are purely imaginary.  A
``DiffOpSymbol`` with ``imag=True`` stores the real coefficient of i, which
keeps all downstream linear algebra real (the azimuthal component is rotated
by i, matching the real-symmetric form used by the 2D solver).  A product of
two imaginary symbols therefore carries an extra factor -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import GeometryFrame
from .jets import Jet, _point_value

__all__ = [
    "DiffOpSymbol",
    "MembraneSymbols",
    "ReductionCoeffs",
    "symbols_at",
    "verify_H0_recurrence",
    "verify_H2_recurrence",
    "verify_V2_equation",
    "reconstruct_surface_mode",
    "h2_coefficients",
]


@dataclass(frozen=True)
class DiffOpSymbol:
    """Sum_j coeffs[j] d^j/dz^j frozen at one point; imag marks an i factor."""

    coeffs: tuple
    imag: bool = False

    @property
    def is_zero(self) -> bool:
        return all(np.all(c == 0.0) for c in self.coeffs)

    @classmethod
    def zero(cls, order: int = 0, imag: bool = False) -> "DiffOpSymbol":
        return cls((0.0,) * (order + 1), imag)


@dataclass(frozen=True)
class MembraneSymbols:
    """3x3 symbol matrices at a fixed point, indexed (z, phi, 3)."""

    M0: np.ndarray  # 3x3 multiplication matrix (floats)
    M1: tuple      # 3x3 nested tuples of DiffOpSymbol, order <= 1, imaginary
    M2: tuple      # 3x3 nested tuples of DiffOpSymbol, order <= 2, real


@dataclass(frozen=True)
class ReductionCoeffs:
    H0: float
    H2: DiffOpSymbol
    H3: DiffOpSymbol
    H4_principal: float
    H4_parabolic: DiffOpSymbol
    V1: tuple  # (z component, phi component)
    V2: tuple
    V3: tuple


def _sym_entries(f, fp, fpp, fppp, fpppp, E, nu, lam0=0.0, lam1=0.0):
    """All symbol entry coefficients from a 4-jet; works on floats, arrays or jets.

    Returns a dict entry name -> list of coefficients (ascending derivative
    order).  Imaginary entries store the real coefficient of i.  Powers are
    written as products, so an array of points rounds exactly as each point
    does alone (numpy's vectorized pow does not).
    """
    s2 = 1.0 + fp * fp
    s = s2.sqrt() if isinstance(s2, Jet) else np.sqrt(s2)
    s3 = s2 * s
    s4 = s2 * s2
    s5 = s4 * s
    s6 = s4 * s2
    s7 = s6 * s
    s8 = s6 * s2
    s9 = s8 * s
    s10 = s8 * s2
    s12 = s10 * s2
    f2 = f * f
    f3 = f2 * f
    f4 = f2 * f2
    fpp3 = fpp * fpp * fpp
    fpp4 = fpp3 * fpp
    C = E / (1.0 - nu * nu)

    e = {}
    e["M0_zz"] = [C * (1.0 - nu) / (2.0 * f2 * s2)]
    e["M0_pp"] = [C / f4]

    e["M1_zp"] = [C * 2.0 * fp / (f3 * s2), C * (-(1.0 + nu) / (2.0 * f2 * s2))]
    e["M1_pz"] = [
        C * ((nu - 3.0) * fp / (2.0 * f3 * s2) + (1.0 + nu) * fp * fpp / (2.0 * f2 * s4)),
        C * (-(1.0 + nu) / (2.0 * f2 * s2)),
    ]
    e["M1_p3"] = [C * (-1.0 / (f3 * s) + nu * fpp / (f2 * s3))]
    e["M1_3p"] = [C * (1.0 / (f3 * s) - nu * fpp / (f2 * s3))]

    e["M2_zz"] = [
        C * ((fpp * fpp + fp * fppp) / s6 - 4.0 * fp * fp * fpp * fpp / s8
             - nu * fpp / (f * s4) + (1.0 + nu) * fp * fp * fpp / (f * s6)
             + fp * fp / (f2 * s4)),
        C * (3.0 * fp * fpp / s6 - fp / (f * s4)),
        C * (-1.0 / s4),
    ]
    e["M2_z3"] = [
        C * (fp / (f2 * s3) + fppp / s5 - 3.0 * fp * fpp * fpp / s7 + fp * fpp / (f * s5)),
        C * (fpp / s5 - nu / (f * s3)),
    ]
    e["M2_pp"] = [
        C * ((1.0 - nu) * fpp / (f3 * s2) - (1.0 - nu) * fp * fp * fpp / (f3 * s4)),
        C * ((1.0 - nu) * fp * fpp / (2.0 * f2 * s4) + (1.0 - nu) * fp / (2.0 * f3 * s2)),
        C * (-(1.0 - nu) / (2.0 * f2 * s2)),
    ]
    e["M2_3z"] = [
        C * (fp * fpp * fpp / s7 + fp / (f2 * s3) - 2.0 * nu * fp * fpp / (f * s5)),
        C * (-fpp / s5 + nu / (f * s3)),
    ]
    e["M2_33"] = [C * (fpp * fpp / s6 + 1.0 / (f2 * s2) - 2.0 * nu * fpp / (f * s4))]

    e["H0"] = [E * fpp * fpp / s6]
    v1 = 1.0 / s - nu * fpp * f / s3
    e["H2"] = [
        E * (-10.0 * fp * fp * fpp * fpp / s8
             + 4.0 * fp * fppp / s6
             + 2.0 * fp * fp * fpp / (f * s6)
             - (nu - 2.0) * f * fp * fp * fpp3 / s10
             - 5.0 * f * fp * fpp * fppp / s8
             + f * fpppp / s6
             + 2.0 * f2 * fpp * fpppp / s8
             + 36.0 * f2 * fp * fp * fpp4 / s12
             + (nu - 2.0) * f * fpp3 / s8
             - 6.0 * f2 * fpp4 / s10
             - 20.0 * f2 * fp * fpp * fpp * fppp / s10)
        - lam0 * v1 * v1,
        2.0 * E * (2.0 * fp * fpp / s6 + f * fppp / s6 - 2.0 * f * fp * fpp * fpp / s8
                   + 2.0 * f2 * fpp * fppp / s8 - 7.0 * f2 * fp * fpp3 / s10),
        2.0 * E * (f * fpp / s6 + f2 * fpp * fpp / s8),
    ]
    e["H3"] = [lam1 * (-1.0 / s2 + 2.0 * nu * f * fpp / s4 - nu * nu * f2 * fpp * fpp / s6)]
    e["H4_principal"] = [E * (4.0 * f3 * fpp / s8 + 3.0 * f4 * fpp * fpp / s10 + f2 / s6)]
    e["H4_parabolic"] = [
        0.0, 0.0,
        E * 6.0 * fp * fp / s6,
        E * 6.0 * fp * f / s6,
        E * f2 / s6,
    ]

    e["V1_p"] = [f / s - nu * fpp * f2 / s3]
    e["V2_z"] = [
        fp / s + 3.0 * (nu + 2.0) * f2 * fp * fpp * fpp / s5
        - (nu + 2.0) * f2 * fppp / s3 - (2.0 * nu + 1.0) * f * fp * fpp / s3,
        -f / s - (nu + 2.0) * f2 * fpp / s3,
    ]
    e["V3_p"] = [
        ((nu * nu + 19.0 * nu + 19.0) * f3 * fp * fp * fpp * fpp / s7
         - (6.0 * nu + 6.0) * f3 * fp * fppp / s5
         - (5.0 * nu + 3.0) * f2 * fp * fp * fpp / s5
         - (36.0 * nu + 18.0) * f4 * fp * fp * fpp3 / s9
         + (20.0 * nu + 10.0) * f4 * fp * fpp * fppp / s7
         + nu * fpp * f2 / s3
         + fp * fp * f / s3
         + (6.0 * nu + 3.0) * f4 * fpp3 / s7
         - (2.0 * nu + 1.0) * f4 * fpppp / s5
         - (nu * nu + nu + 1.0) * f3 * fpp * fpp / s5)
        + lam0 * (1.0 - nu * nu) / E * (f3 / s - nu * f4 * fpp / s3),
        (-(4.0 * nu + 6.0) * f3 * fp * fpp / s5 - (4.0 * nu + 2.0) * f4 * fppp / s5
         + 7.0 * (2.0 * nu + 1.0) * f4 * fp * fpp * fpp / s7 - f2 * fp / s3),
        -nu * f3 / s3 - (1.0 + 2.0 * nu) * f4 * fpp / s5,
    ]
    return e


def _relative_gap(a, b):
    """|a - b| relative to max(|a|, |b|, 1e-3), point by point."""
    scale = np.maximum(np.maximum(abs(a), abs(b)), 1e-3)
    return _point_value(abs(a - b) / scale)


def _float_entries(frame: GeometryFrame, lam0: float, lam1: float):
    return _sym_entries(
        frame.f, frame.fp, frame.fpp, frame.fppp, frame.fpppp,
        frame.E, frame.nu, lam0=lam0, lam1=lam1,
    )


def _jet_entries(frame: GeometryFrame, lam0: float = 0.0, lam1: float = 0.0):
    """Symbol entries with jet-valued coefficients.

    Jets keep their natural orders (products truncate), so exactly the
    derivative information contained in the frame's 4-jet propagates and
    nothing beyond it is ever claimed.
    """
    fj = frame.jet(4)
    f = fj
    fp = fj.diff()
    fpp = fp.diff()
    fppp = fpp.diff()
    fpppp = fppp.diff()
    return _sym_entries(f, fp, fpp, fppp, fpppp, frame.E, frame.nu, lam0=lam0, lam1=lam1)


def symbols_at(frame: GeometryFrame, lam0: float = 0.0, lam1: float = 0.0):
    """Evaluate every printed symbol entry and reduction coefficient at the frame.

    ``lam0`` enters the zeroth-order coefficient of H2 and the constant part
    of V3; ``lam1`` scales H3.  Returns (MembraneSymbols, ReductionCoeffs).
    """
    e = _float_entries(frame, lam0, lam1)

    def sym(name: str, imag: bool = False) -> DiffOpSymbol:
        return DiffOpSymbol(tuple(_point_value(c) for c in e[name]), imag)

    zero0 = DiffOpSymbol.zero()
    M0 = np.zeros((3, 3) + np.shape(frame.z))
    M0[0, 0] = e["M0_zz"][0]
    M0[1, 1] = e["M0_pp"][0]
    M1 = (
        (DiffOpSymbol.zero(imag=True), sym("M1_zp", True), DiffOpSymbol.zero(imag=True)),
        (sym("M1_pz", True), DiffOpSymbol.zero(imag=True), sym("M1_p3", True)),
        (DiffOpSymbol.zero(imag=True), sym("M1_3p", True), DiffOpSymbol.zero(imag=True)),
    )
    M2 = (
        (sym("M2_zz"), zero0, sym("M2_z3")),
        (zero0, sym("M2_pp"), zero0),
        (sym("M2_3z"), zero0, sym("M2_33")),
    )
    red = ReductionCoeffs(
        H0=_point_value(e["H0"][0]),
        H2=sym("H2"),
        H3=sym("H3"),
        H4_principal=_point_value(e["H4_principal"][0]),
        H4_parabolic=sym("H4_parabolic"),
        V1=(zero0, sym("V1_p", True)),
        V2=(sym("V2_z"), zero0),
        V3=(zero0, sym("V3_p", True)),
    )
    return MembraneSymbols(M0=M0, M1=M1, M2=M2), red


def _apply_jet(coeffs, u: Jet) -> Jet:
    """Apply sum_j c_j d^j to a jet; coefficients may be jets or floats."""
    out = None
    du = u
    for c in coeffs:
        term = c * du
        out = term if out is None else out + term
        du = du.diff()
    return out


def verify_H0_recurrence(frame: GeometryFrame) -> float:
    """Residual of the order-0 elimination identity defining H0.

    H0 must equal M2^{33} - M1^{3p} (M0^{pp})^{-1} M1^{p3} at order zero.
    Both M1 entries carry i, so their product contributes a -1 sign in the
    real coefficients.  Returns a relative residual.
    """
    e = _float_entries(frame, 0.0, 0.0)
    m0pp = e["M0_pp"][0]
    c3p = e["M1_3p"][0]
    cp3 = e["M1_p3"][0]
    # (i c3p) (i cp3) = -c3p*cp3
    rec = e["M2_33"][0] - (-(c3p * cp3) / m0pp)
    return _relative_gap(e["H0"][0], rec)


def verify_V2_equation(frame: GeometryFrame, poly_coeffs) -> float:
    """Residual of M0^{zz} V2_z = M1^{zp} (M0^{pp})^{-1} M1^{p3} - M2^{z3}.

    Both sides are applied to a test polynomial (ascending coefficients,
    degree <= 6) at the frame point.  Coefficient derivatives for the
    composition come from the exact jet, not finite differences.
    """
    coeffs = list(poly_coeffs)
    if len(coeffs) - 1 > 6:
        raise ValueError("test polynomial degree must be at most 6")
    e = _jet_entries(frame)
    p = Jet.polynomial(coeffs, frame.z, 4)

    lhs = e["M0_zz"][0] * _apply_jet(e["V2_z"], p)

    g_inner = e["M1_p3"][0] * p / e["M0_pp"][0]          # coefficient of i
    m1zp_g = _apply_jet(e["M1_zp"], g_inner)             # still coefficient of i
    rhs = -1.0 * m1zp_g - _apply_jet(e["M2_z3"], p)      # i*i = -1 on the first term

    return _relative_gap(lhs.value, rhs.value)


def verify_H2_recurrence(frame: GeometryFrame, poly_coeffs, lam0: float = 0.0) -> float:
    """Residual of the order-2 elimination identity H2 = M1^{3p} V3_p + M2^{3z} V2_z.

    Applied to a test polynomial; V3_p and M1^{3p} both carry i, producing a
    -1 sign on their composition.
    """
    e = _jet_entries(frame, lam0=lam0)
    p = Jet.polynomial(poly_coeffs, frame.z, 5)

    lhs = _apply_jet(e["H2"], p)
    v3p = _apply_jet(e["V3_p"], p)        # coefficient of i
    term1 = -1.0 * (e["M1_3p"][0] * v3p)  # i*i = -1
    v2z = _apply_jet(e["V2_z"], p)
    term2 = _apply_jet(e["M2_3z"], v2z)
    rhs = term1 + term2
    return _relative_gap(lhs.value, rhs.value)


def h2_coefficients(frame: GeometryFrame, lam0: float = 0.0):
    """(H2^(0), H2^(1), H2^(2)) at the frame point, with lam0 substituted."""
    e = _float_entries(frame, lam0, 0.0)
    return tuple(_point_value(c) for c in e["H2"])


def reconstruct_surface_mode(
    frame: GeometryFrame, k: float, eta0, eta0_d1=None, eta0_d2=None, lam0: float = 0.0
) -> np.ndarray:
    """Leading surface displacement generated by a scalar profile eta0.

    ``frame`` holds the grid points (``frame_at`` on an array of z).  Returns
    the real-form components (zeta_z, zeta_phi, zeta_3) on that grid:
    (0, 0, eta0) + k^-1 V1 eta0 + k^-2 V2 eta0 + k^-3 V3 eta0.  The phi
    component stores the real coefficient of i.  Derivatives of eta0 may be
    supplied; otherwise they are taken by second-order differences on the
    grid (fine for smooth data, not for identity-level tolerances).
    """
    if k == 0:
        raise GeometryError("surface reconstruction assumes a nonzero wavenumber")
    eta0 = np.asarray(eta0, dtype=float)
    if eta0_d1 is None:
        eta0_d1 = np.gradient(eta0, frame.z, edge_order=2)
    if eta0_d2 is None:
        eta0_d2 = np.gradient(np.asarray(eta0_d1, dtype=float), frame.z, edge_order=2)
    eta0_d1 = np.asarray(eta0_d1, dtype=float)
    eta0_d2 = np.asarray(eta0_d2, dtype=float)

    e = _float_entries(frame, lam0, 0.0)
    v2z, v3p = e["V2_z"], e["V3_p"]
    zeta_z = (v2z[0] * eta0 + v2z[1] * eta0_d1) / k**2
    zeta_p = e["V1_p"][0] * eta0 / k + (
        v3p[0] * eta0 + v3p[1] * eta0_d1 + v3p[2] * eta0_d2
    ) / k**3
    return np.stack([zeta_z, zeta_p, eta0])
