"""Pointwise shell geometry, classification, and the potential minimum.

Everything derives from the profile jet: arc-length factor s, the two
principal curvatures, the Gaussian curvature, the concentration potential
H0 = E f''^2 / s^6, the second-order coefficient g of the elliptic reduction,
and the leading bending coefficient B0 = E / (3 (1 - nu^2) f^4).

``frame_at`` takes one coordinate or an array of them; an array is evaluated
in one batch of numpy calls, and classification samples its grid that way.
The minima of H0 and the extremes of the essential spectrum are refined the
same way: one Newton search on the exact jet, kept inside each candidate's
sampled bracket by bisection ("rtsafe", Press et al., *Numerical Recipes*,
sec. 9.4), runs every candidate as a lane of numpy arrays, each with its own
stop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .jets import Jet
from .profiles import ShellProfile

__all__ = [
    "GeometryFrame",
    "ShellClass",
    "ShellClassTag",
    "H0Minimum",
    "frame_at",
    "classify",
    "locate_H0_minimum",
    "essential_spectrum_range",
    "h0_taylor",
    "g_at",
    "b0_at",
]

H0_CONST_RTOL = 1e-10  # relative variation below which H0 counts as constant
MULTI_MIN_ATOL = 1e-8  # minima within this of the global value are branches
SEARCH_STEPS = 60  # step cap of the extremum search: a bisecting lane halves its cell to rounding
ESSENTIAL_CELLS = 2048  # sampling cells of the essential-spectrum range
CLASSIFY_CELLS = 1024  # sampling cells of classification and of the H0 minimum scan


class ShellClassTag(enum.Enum):
    CYLINDER = "Cylinder"
    CONE = "Cone"
    TORUS_ELLIPTIC = "TorusElliptic"
    GAUSS_ELLIPTIC = "GaussElliptic"
    AIRY_ELLIPTIC = "AiryElliptic"
    HYPERBOLIC = "Hyperbolic"
    INADMISSIBLE = "Inadmissible"


@dataclass(frozen=True)
class GeometryFrame:
    """All pointwise geometric and reduction quantities at z.

    Fields are floats for a scalar z and arrays of z's shape for an array.
    """

    z: float
    f: float
    fp: float
    fpp: float
    fppp: float
    fpppp: float
    s: float
    b_zz: float
    b_pp: float
    K: float
    H0: float
    g: float
    B0: float
    admissible: bool
    E: float
    nu: float

    def jet(self, order: int = 4) -> Jet:
        """Taylor jet of f rebuilt from the stored derivatives."""
        d = [self.f, self.fp, self.fpp, self.fppp, self.fpppp][: order + 1]
        return Jet.from_derivatives(d)


@dataclass(frozen=True)
class H0Minimum:
    """Located minimum of the potential H0 with analytic derivatives."""

    z0: float
    value: float
    d1: float
    d2: float
    boundary: bool
    branches: tuple = field(default=())

    @property
    def multiple(self) -> bool:
        return len(self.branches) > 1


@dataclass(frozen=True)
class ShellClass:
    tag: ShellClassTag
    z0: float | None = None
    boundary_minimum: bool = False
    h0_minimum: H0Minimum | None = None
    detail: str = ""


def h0_taylor(profile: ShellProfile, z, order: int = 2) -> Jet:
    """H0 = E f''^2 / s^6 as a jet (order 2 needs the f jet to order 4)."""
    fj = profile.taylor(z, order + 2)
    fpp = fj.diff().diff()
    s2 = 1.0 + fj.diff() * fj.diff()
    return profile.E * fpp * fpp / (s2 * s2 * s2)


def g_at(f, fp, fpp, E):
    """Second-order reduction coefficient g = -2E (f f''/s^6 + f^2 f''^2/s^8)."""
    s2 = 1.0 + fp * fp
    s6 = s2 * s2 * s2
    return -2.0 * E * (f * fpp / s6 + f * f * fpp * fpp / (s6 * s2))


def b0_at(f, E, nu):
    """Leading bending coefficient B0 = E / (3 (1 - nu^2) f^4)."""
    return E / (3.0 * (1.0 - nu * nu) * f * f * f * f)


def frame_at(profile: ShellProfile, z) -> GeometryFrame:
    """Evaluate the full geometric frame at one coordinate or an array of them."""
    f, fp, fpp, fppp, fpppp = profile.jet(z, 4)
    if np.any(f <= 0.0):
        i = int(np.argmin(f))
        raise GeometryError(
            f"nonpositive radius f({np.ravel(z)[i]}) = {np.ravel(f)[i]}"
        )
    # powers as products: numpy's vectorized pow rounds differently from the
    # scalar one, and a frame must not depend on how many points it holds
    s2 = 1.0 + fp * fp
    s = np.sqrt(s2)
    fields = dict(
        z=np.asarray(z, dtype=float), f=f, fp=fp, fpp=fpp, fppp=fppp, fpppp=fpppp, s=s,
        b_zz=fpp / (s2 * s),
        b_pp=-1.0 / (f * s),
        K=-fpp / (f * s2 * s2),
        H0=profile.E * fpp * fpp / (s2 * s2 * s2),
        g=g_at(f, fp, fpp, profile.E),
        B0=b0_at(f, profile.E, profile.nu),
        admissible=1.0 + fp * fp + f * fpp >= 0.0,
    )
    if np.ndim(z) == 0:
        fields = {name: v.item() for name, v in fields.items()}
    return GeometryFrame(E=profile.E, nu=profile.nu, **fields)


def _newton_min(jet, z, lo, hi, sign=1.0) -> np.ndarray:
    """Minima of ``sign`` times smooth functions, one lane per start z in [lo, hi].

    ``jet`` maps an array of points to the function's jet there (order >= 2),
    element by element; ``sign`` (-1 to find a maximum) is per lane or shared.
    Each step moves one end of a lane's bracket to z by the sign of the first
    derivative, then takes the Newton step, or halves the bracket where the
    second derivative is not positive or the step would leave it.  A lane
    stops after a step of at most 1e-15 max(1, |z|) and is frozen from then
    on, so it makes the same floating-point operations as a search of that
    lane alone.
    """
    z, lo, hi = (np.array(v, dtype=float) for v in (z, lo, hi))
    sign = np.broadcast_to(sign, z.shape)
    active = np.ones(z.shape, dtype=bool)
    for _ in range(SEARCH_STEPS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        z_old, j = z[idx], jet(z[idx])
        d1, d2 = sign[idx] * j.derivative(1), sign[idx] * j.derivative(2)
        lo[idx] = a = np.where(d1 < 0.0, z_old, lo[idx])
        hi[idx] = b = np.where(d1 > 0.0, z_old, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = z_old - d1 / d2
        z[idx] = np.where((d2 > 0.0) & (a <= step) & (step <= b), step, 0.5 * (a + b))
        active[idx] = np.abs(z[idx] - z_old) > 1e-15 * np.maximum(1.0, np.abs(z_old))
    return z


def _h0_constant(h0: np.ndarray) -> bool:
    """Whether sampled H0 varies by at most H0_CONST_RTOL of its largest value."""
    return float(h0.max() - h0.min()) <= H0_CONST_RTOL * max(float(h0.max()), 1e-300)


def _sampled_frame(profile: ShellProfile) -> tuple[np.ndarray, GeometryFrame]:
    """The CLASSIFY_CELLS + 1 grid points of the interval and the frame on them."""
    zs = np.linspace(*profile.interval, CLASSIFY_CELLS + 1)
    return zs, frame_at(profile, zs)


def locate_H0_minimum(profile: ShellProfile) -> H0Minimum:
    """Locate all global minimizers of H0 by grid scan plus Newton refinement.

    The grid has CLASSIFY_CELLS cells.  All sampled local minima are refined
    at once: one batched Newton search on the exact jet, each candidate from
    its sample, kept inside the two cells around it by bisection, with its
    own stop.  Derivatives at the minimizer come from the exact jet (first
    derivative needs f''', second needs f'''').
    Minima within 1e-8 of the global value are reported together as
    branches; the returned top-level fields describe the branch at the
    smallest z.  A potential that ``classify`` counts as constant has no
    minimizer to locate and gives one interior branch at the midpoint.
    """
    zs, fr = _sampled_frame(profile)
    return _h0_minimum(profile, zs, fr.H0)


def _h0_minimum(profile: ShellProfile, zs: np.ndarray, vals: np.ndarray) -> H0Minimum:
    """``locate_H0_minimum`` from H0 sampled at the grid points zs."""
    z_minus, z_plus = profile.interval
    if _h0_constant(vals):
        ends, z = [], np.array([0.5 * (z_minus + z_plus)])
    else:
        ends = [z_end for z_end, at_min in ((z_minus, vals[0] <= vals[1]),
                                            (z_plus, vals[-1] <= vals[-2])) if at_min]
        interior = np.where((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
        z = _newton_min(lambda x: h0_taylor(profile, x, 2),
                        zs[interior], zs[interior - 1], zs[interior + 1])
    candidates = [(z0, True) for z0 in ends] + [(z0, False) for z0 in z.tolist()]

    j = h0_taylor(profile, np.array([z0 for z0, _ in candidates]), 2)
    branches = [
        H0Minimum(z0=z0, value=value, d1=d1, d2=d2, boundary=boundary)
        for (z0, boundary), value, d1, d2 in zip(
            candidates, j.value.tolist(), j.derivative(1).tolist(), j.derivative(2).tolist()
        )
    ]
    global_min = min(b.value for b in branches)
    scale = max(abs(global_min), 1.0e-30)
    kept = sorted(
        (b for b in branches if b.value - global_min <= MULTI_MIN_ATOL * max(1.0, scale)),
        key=lambda b: b.z0,
    )
    # drop near-duplicate locations produced by flat sampled cells
    dedup: list[H0Minimum] = []
    for b in kept:
        if not dedup or abs(b.z0 - dedup[-1].z0) > 1e-7 * (z_plus - z_minus):
            dedup.append(b)
    first = dedup[0]
    return H0Minimum(
        z0=first.z0, value=first.value, d1=first.d1, d2=first.d2,
        boundary=first.boundary, branches=tuple(dedup),
    )


def classify(profile: ShellProfile) -> ShellClass:
    """Decide the shell class from the sign of f'' and the shape of H0, both
    sampled on CLASSIFY_CELLS cells of the interval."""
    z_minus, z_plus = profile.interval
    zs, fr = _sampled_frame(profile)
    f, fp, fpp = fr.f, fr.fp, fr.fpp
    scale = max(1.0, float(np.abs(f).max()))
    tol = 1e-13 * scale

    if np.all(np.abs(fpp) <= tol):
        if np.all(np.abs(fp) <= tol):
            return ShellClass(ShellClassTag.CYLINDER)
        return ShellClass(ShellClassTag.CONE)
    if np.any(fpp > tol):
        return ShellClass(
            ShellClassTag.HYPERBOLIC,
            detail="f'' > 0 somewhere; scalar reduction not applicable",
        )

    # elliptic: f'' < 0 (up to roundoff) everywhere
    if _h0_constant(fr.H0):
        if not np.all(fr.admissible):
            return ShellClass(
                ShellClassTag.INADMISSIBLE,
                detail="constant potential but azimuthal curvature does not dominate",
            )
        return ShellClass(ShellClassTag.TORUS_ELLIPTIC)

    minimum = _h0_minimum(profile, zs, fr.H0)
    branch = minimum
    z0 = branch.z0
    if not frame_at(profile, z0).admissible:
        return ShellClass(
            ShellClassTag.INADMISSIBLE, z0=z0, h0_minimum=minimum,
            detail="admissibility 1 + f'^2 + f f'' >= 0 violated at the minimizer",
        )
    if branch.boundary:
        inward = branch.d1 > 0 if z0 == z_minus else branch.d1 < 0
        if abs(branch.d1) <= 1e-12 or not inward:
            return ShellClass(
                ShellClassTag.INADMISSIBLE, z0=z0, boundary_minimum=True,
                h0_minimum=minimum, detail="degenerate boundary minimum of H0",
            )
        return ShellClass(
            ShellClassTag.AIRY_ELLIPTIC, z0=z0, boundary_minimum=True,
            h0_minimum=minimum,
        )
    if branch.d2 <= 1e-12:
        return ShellClass(
            ShellClassTag.INADMISSIBLE, z0=z0, h0_minimum=minimum,
            detail="degenerate interior minimum of H0",
        )
    return ShellClass(ShellClassTag.GAUSS_ELLIPTIC, z0=z0, h0_minimum=minimum)


def essential_spectrum_range(profile: ShellProfile):
    """Range of E b_phi^2 = E / (f^2 s^2) over the interval.

    Sampled min/max, each refined by the Newton search on the exact jet of
    sig from its sample, inside the cells around it: the min and the max (as
    the min of -sig) are the two lanes of one search.
    """
    z_minus, z_plus = profile.interval
    zs = np.linspace(z_minus, z_plus, ESSENTIAL_CELLS + 1)

    def sig(z):
        f, fp = profile.f(z), profile.df(z)
        return profile.E / (f * f * (1.0 + fp * fp))

    def sig_jet(z):
        fj = profile.taylor(z, 3)
        fpj = fj.diff()
        return profile.E / (fj * fj * (1.0 + fpj * fpj))

    vals = sig(zs)
    idx = np.array([np.argmin(vals), np.argmax(vals)])
    lo, hi = zs[np.maximum(idx - 1, 0)], zs[np.minimum(idx + 1, len(zs) - 1)]
    z = _newton_min(sig_jet, zs[idx], lo, hi, sign=np.array([1.0, -1.0]))
    s_min, s_max = sig(z).tolist()
    return min(float(vals.min()), s_min), max(float(vals.max()), s_max)
