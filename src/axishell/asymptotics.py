"""Per-class asymptotic constants and the wavenumber / eigenvalue laws.

For each admissible shell class the lowest eigenvalue of the reduced
thin-shell operator obeys

    lambda_1(eps) = a0 + a1 eps^alpha1,     k(eps) = gamma eps^(-beta),

with exponents fixed by the class through eta1 (beta = 2/(4+eta1),
alpha1 = eta1*beta).  The cylinder, Gauss and Airy constants follow from
one law, the minimum over k of a0 + c k^-eta1 + b eps^2 k^4, each class
giving its own (eta1, b, c).  The cone and toroidal constants come from
minimizing a one-parameter family of 1D eigenvalue problems, and one scan
result turns either minimum into constants.  One optimizer serves every
such family, and also the direct minimization over k behind the elliptic
cross-check: a short log grid brackets the minimum, and the zero of the
Hellmann-Feynman slope, which every eigen-solve gives at no extra cost,
locates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import fem1d
from .errors import (
    AdmissibilityError, AxishellError, ReductionNotApplicableError, SolverError,
)
from .geometry import (
    ShellClass,
    ShellClassTag,
    b0_at,
    classify,
    frame_at,
    h0_taylor,
    locate_H0_minimum,
)
from .profiles import ShellProfile
from .symbols import h2_coefficients

__all__ = [
    "AsymptoticsResult",
    "exponents_from_eta1",
    "cylinder_closed_form",
    "optimize_gamma_parabolic",
    "toroidal_constants",
    "compute",
    "predict",
    "toroidal_sweep",
    "airy_first_zero",
    "elliptic_k_minimization",
    "energy_ratio",
]

GAMMA_BRACKET = (0.3, 30.0)
GAMMA_COARSE = 8
GAMMA_XTOL = 1e-12     # step in log gamma that ends the stationarity iteration
GAMMA_MAX_STEPS = 60   # bisection alone closes a grid cell to GAMMA_XTOL in 40
DEFAULT_ELEMENTS = 128


def airy_first_zero() -> float:
    """First zero of the reversed Airy function, i.e. smallest x > 0 with Ai(-x) = 0.

    The correctly rounded double of 2.3381074104597670384891972524467...,
    which is ``-mpmath.airyaizero(1)`` at 40 digits.  Brent's method on
    scipy's Ai (``brentq`` on [2, 3], xtol 1e-14, rtol 1e-15) returns the
    same double, which the tests check; ``scipy.special.ai_zeros`` returns
    it 1 ulp high.  A constant keeps scipy.optimize and scipy.special off
    the package's import path.
    """
    return float.fromhex("0x1.2b471a873adf9p+1")


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticsResult:
    """Constants and exponents of the two-term eigenvalue law for one shell."""

    shell_class: ShellClass
    eta1: Fraction
    beta: Fraction
    alpha1: Fraction
    a0: float
    a1: float
    gamma: float
    z0: float | None = None
    b: float | None = None
    c: float | None = None
    ratio_coeff: float | None = None  # delta in R(eps) ~ delta eps^alpha1
    ratio_exact: float | None = None  # alpha1/2 when a0 = 0
    lambda2: float | None = None      # toroidal: first eigenvalue of H2
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def tag(self) -> ShellClassTag:
        return self.shell_class.tag

    def to_dict(self) -> dict:
        return {
            "class": self.tag.value,
            "z0": self.z0,
            "a0": self.a0,
            "a1": self.a1,
            "gamma": self.gamma,
            "eta1": str(self.eta1),
            "beta": str(self.beta),
            "alpha1": str(self.alpha1),
            "ratio": self.ratio_exact if self.ratio_exact is not None else self.ratio_coeff,
        }


@dataclass(frozen=True)
class Prediction:
    eps: float
    k_real: float
    k_int: int
    m1: float
    ratio: float | None


def exponents_from_eta1(eta1) -> tuple[Fraction, Fraction]:
    """Exact rational exponents beta = 2/(4 + eta1), alpha1 = eta1 * beta."""
    eta1 = Fraction(eta1)
    if eta1 <= 0:
        raise ValueError("eta1 must be positive")
    beta = Fraction(2) / (4 + eta1)
    return beta, eta1 * beta


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def predict(result: AsymptoticsResult, eps: float) -> Prediction:
    """Wavenumber and eigenvalue laws at one half-thickness."""
    if not 0.0 < eps <= 0.25:
        raise ValueError(f"eps = {eps} outside (0, 0.25]")
    k_real = result.gamma * eps ** float(-result.beta)
    m1 = result.a0 + result.a1 * eps ** float(result.alpha1)
    if result.ratio_exact is not None:
        ratio = result.ratio_exact
    elif result.ratio_coeff is not None:
        ratio = result.ratio_coeff * eps ** float(result.alpha1)
    else:
        ratio = None
    return Prediction(eps=eps, k_real=k_real, k_int=_round_half_up(k_real), m1=m1, ratio=ratio)


# ---------------------------------------------------------------------------
# gamma optimization machinery (shared by the cone, toroidal and elliptic k scans)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ScanPoint:
    """One solve of a scan at t = log gamma, and what its eigenvector gives for free."""

    t: float
    mu: float
    vector: np.ndarray
    slope: float    # d mu1 / d t, by Hellmann-Feynman
    t_fixed: float  # log of the gamma that balances the two energies of this vector


@dataclass(frozen=True)
class _ScanMinimum:
    """What ``_GammaScan.minimize`` found, and how."""

    gamma: float
    mu: float
    vector: np.ndarray
    ends: tuple[float, float]  # mu1 at the ends of the last coarse grid
    iterations: int            # solves of the stationarity iteration
    fallbacks: int             # bisection steps taken in place of a rejected step
    expansions: int            # decades added to the bracket

    def counts(self, var: str) -> dict:
        return {f"{var}_iterations": self.iterations, f"{var}_fallbacks": self.fallbacks,
                "bracket_expansions": self.expansions}


class _GammaScan:
    """Minimize mu1(gamma) = lambda_1[K_0 + gamma^p_low K_op + gamma^p_high K_b].

    K_op carries the membrane-side operator, K_b the bending potential and the
    optional K_0 a gamma-independent part (H0 in the elliptic k scan); the
    prefactor exponents are (-4, +4) in the parabolic scan and (-2, +4) in the
    toroidal and elliptic ones.  A structural lower bound
    lb_0 + gamma^p_low lambda_1[K_op] + gamma^p_high min(b) serves as shift: at
    extreme gamma the operator is almost a multiplication operator with a
    clustered bottom, where an unshifted solve crawls.

    By Hellmann-Feynman, with x the M-normalized eigenvector,
    d mu1 / d log gamma = p_low gamma^p_low x^T K_op x + p_high gamma^p_high x^T K_b x,
    so every solve also gives the slope, and its zero, where the two energies
    balance, is the minimizer.  ``minimize`` brackets that zero on a short log
    grid, then iterates on t = log gamma: the fixed point that balances the
    energies of the current vector, then secant steps on the slope, with a
    bisection of the bracket whenever a step would leave it.
    """

    def __init__(self, K_op, K_b, M, p_low: int, p_high: int, b_min: float = 0.0,
                 seed: int = 0, K_0=None, lb_0: float = 0.0):
        self.K_op, self.K_b, self.M, self.K_0 = K_op, K_b, M, K_0
        self.p_low, self.p_high = p_low, p_high
        self.b_min, self.lb_0 = b_min, lb_0
        self.seed = seed
        self._warm = None
        self.lam_op_min = float(fem1d.smallest_eigenpairs(K_op, M, seed=seed).values[0])

    def mu1(self, gamma: float, with_vector: bool = False):
        K = gamma ** self.p_low * self.K_op + gamma ** self.p_high * self.K_b
        if self.K_0 is not None:
            K = self.K_0 + K
        lb = (self.lb_0 + gamma ** self.p_low * self.lam_op_min
              + gamma ** self.p_high * self.b_min)
        shift = lb - 0.005 * abs(lb)
        pairs = fem1d.smallest_eigenpairs(
            K, self.M, seed=self.seed, x0=self._warm, shift=shift
        )
        self._warm = pairs.vectors
        mu = float(pairs.values[0])
        return (mu, pairs.vectors[:, 0]) if with_vector else mu

    def _point(self, t: float) -> _ScanPoint:
        gamma = math.exp(t)
        mu, x = self.mu1(gamma, with_vector=True)
        low = self.p_low * gamma ** self.p_low * float(x @ (self.K_op @ x))
        high = self.p_high * gamma ** self.p_high * float(x @ (self.K_b @ x))
        # the gamma at which the two energies of this x would balance
        balance = -low / high
        t_fixed = t + math.log(balance) / (self.p_high - self.p_low) if balance > 0 else math.nan
        return _ScanPoint(t, mu, x, low + high, t_fixed)

    def minimize(self, bracket=GAMMA_BRACKET) -> _ScanMinimum:
        """The interior minimizer of mu1 over the scan variable (gamma, or k).

        Raises SolverError when three decades of bracket expansion find no
        interior grid minimum, or when the iteration has not converged after
        GAMMA_MAX_STEPS solves.
        """
        lo, hi = bracket
        expansions = 0
        while True:
            grid = np.geomspace(lo, hi, GAMMA_COARSE)
            pts = [self._point(math.log(g)) for g in grid]
            i = min(range(GAMMA_COARSE), key=lambda j: pts[j].mu)
            if 0 < i < GAMMA_COARSE - 1:
                break
            if expansions >= 3:
                raise SolverError(
                    f"no interior minimum of mu1 in [{lo:g}, {hi:g}] "
                    "after 3 decades of bracket expansion"
                )
            if i == 0:
                lo /= 10.0
            else:
                hi *= 10.0
            expansions += 1
        # mu1 at grid point i is no larger than at its neighbours, so a minimum
        # lies between them; each new point replaces the end whose slope has its sign
        cur, prev = pts[i], None
        lo, hi = (pts[i - 1], cur) if cur.slope > 0.0 else (cur, pts[i + 1])
        iterations = fallbacks = 0
        while True:
            if prev is None or cur.slope == prev.slope:
                t_new = cur.t_fixed
            else:
                t_new = cur.t - cur.slope * (cur.t - prev.t) / (cur.slope - prev.slope)
            if not lo.t < t_new < hi.t:
                # also where the slope's sign is noise: the secant then steps
                # wide, and halving closes the bracket in a few solves
                t_new = 0.5 * (lo.t + hi.t)
                fallbacks += 1
            step = t_new - cur.t
            if abs(step) <= GAMMA_XTOL:
                break
            if iterations >= GAMMA_MAX_STEPS:
                raise SolverError(
                    "stationarity iteration on the log of the scan variable still "
                    f"stepping {step:.3g} after {iterations} solves"
                )
            prev, cur = cur, self._point(t_new)
            iterations += 1
            lo, hi = (lo, cur) if cur.slope > 0.0 else (cur, hi)
        best = min(lo, hi, key=lambda p: abs(p.slope))
        return _ScanMinimum(math.exp(best.t), best.mu, best.vector,
                            (pts[0].mu, pts[-1].mu), iterations, fallbacks, expansions)


# ---------------------------------------------------------------------------
# per-class constants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _clamped_unit_bilaplacian(n_elements: int = DEFAULT_ELEMENTS) -> float:
    """First eigenvalue of u'''' on (0, 1) with clamped ends (unit weight)."""
    beam = ShellProfile("affine", (0.0, 1.0), coeffs=(1.0,), name="unit-beam")
    mesh = fem1d.Mesh1D.uniform((0.0, 1.0), n_elements)
    return float(fem1d.smallest_eigenpairs(*fem1d.assemble_h20(beam, 1.0, 0.0, mesh)).values[0])


def _require_class(profile: ShellProfile, expected: tuple, cls: ShellClass | None):
    if cls is None:
        cls = classify(profile)
    if cls.tag not in expected:
        raise ReductionNotApplicableError(
            f"operation needs class in {[t.value for t in expected]}, got {cls.tag.value}"
        )
    return cls


def _law(cls: ShellClass, eta1, a0: float, b: float, c: float, **fields) -> AsymptoticsResult:
    """Constants of the minimum over k of a0 + c k^-eta1 + b eps^2 k^4.

    With w = 4/eta1 the minimizer is k = gamma eps^-beta, gamma = (c/(w b))^(beta/2),
    and the minimum is a0 + a1 eps^alpha1 with a1 = (w b c^w)^(alpha1/2) (1 + eta1/4).
    Bending carries the share eta1/(4 + eta1) = alpha1/2 of c k^-eta1 + b eps^2 k^4
    there: the whole ratio when a0 = 0, else (b/a0) (c/(w b))^(2 beta) eps^alpha1.
    """
    eta1 = Fraction(eta1)
    beta, alpha1 = exponents_from_eta1(eta1)
    w = float(4 / eta1)
    scale = c / (w * b)
    ratio = ({"ratio_exact": float(alpha1 / 2)} if a0 == 0.0
             else {"ratio_coeff": (b / a0) * scale ** float(2 * beta)})
    return AsymptoticsResult(
        shell_class=cls, eta1=eta1, beta=beta, alpha1=alpha1, a0=a0,
        a1=(w * b * c**w) ** float(alpha1 / 2) * float(1 + eta1 / 4),
        gamma=scale ** float(beta / 2), b=b, c=c, **ratio, **fields,
    )


def cylinder_closed_form(
    profile: ShellProfile, cls: ShellClass | None = None, n_elements: int = DEFAULT_ELEMENTS
) -> AsymptoticsResult:
    """Cylinder constants: the law with eta1 = 4, b = B0(R) and c = E R^2 mu1,
    mu1 the first clamped bilaplacian eigenvalue on the interval."""
    cls = _require_class(profile, (ShellClassTag.CYLINDER,), cls)
    R = float(profile.f(profile.interval[0]))
    L = profile.length
    mu1 = _clamped_unit_bilaplacian(n_elements) / L**4
    return _law(cls, 4, 0.0, b0_at(R, profile.E, profile.nu), profile.E * R**2 * mu1,
                diagnostics={"mu1_bilaplacian": mu1, "radius": R, "length": L})


def _scan_result(cls: ShellClass, eta1, a0: float, scan: _GammaScan,
                 bracket=GAMMA_BRACKET, lambda2: float | None = None,
                 **diagnostics) -> AsymptoticsResult:
    """Constants from the minimum of a gamma scan: a1 = min mu1, and the bending
    share of the optimal vector's energy (a0 included) is the ratio, exact
    alpha1/2 when a0 = 0; ``diagnostics["scan"]`` holds the minimized scan."""
    opt = scan.minimize(bracket)
    gamma, vec = opt.gamma, opt.vector
    op_energy = float(vec @ (scan.K_op @ vec)) * gamma**scan.p_low
    bend_energy = float(vec @ (scan.K_b @ vec)) * gamma**scan.p_high
    ratio = bend_energy / (op_energy + bend_energy + a0 * float(vec @ (scan.M @ vec)))
    beta, alpha1 = exponents_from_eta1(eta1)
    if a0 == 0.0:
        diagnostics["ratio_at_optimum"] = ratio
    return AsymptoticsResult(
        shell_class=cls, eta1=Fraction(eta1), beta=beta, alpha1=alpha1,
        a0=a0, a1=opt.mu, gamma=gamma, lambda2=lambda2,
        ratio_exact=float(alpha1 / 2) if a0 == 0.0 else None,
        ratio_coeff=None if a0 == 0.0 else ratio,
        diagnostics={**diagnostics, "mu1_bracket_ends": opt.ends, "scan": scan,
                     **opt.counts("gamma")},
    )


def _bending(profile: ShellProfile, mesh: fem1d.Mesh1D, space: str):
    """The B0-weighted mass on ``space`` ("H10" or "H20"), and the minimum of
    B0 over 1025 points, the bending part of every scan's shift."""
    b0_fun = lambda z: b0_at(profile.f(z), profile.E, profile.nu)  # noqa: E731
    K_b = fem1d.assemble_weighted_mass(profile, b0_fun, mesh, space)
    return K_b, float(np.min(b0_fun(np.linspace(*profile.interval, 1025))))


def _parabolic_scan(profile: ShellProfile, n_elements: int, seed: int = 0) -> _GammaScan:
    mesh = fem1d.Mesh1D.uniform(profile.interval, n_elements)
    E = profile.E

    def a4(z):
        f = profile.f(z)
        s2 = 1.0 + profile.df(z) ** 2
        return E * f**2 / s2**3

    K_op, M = fem1d.assemble_h20(profile, a4, 0.0, mesh)
    K_b, b_min = _bending(profile, mesh, "H20")
    return _GammaScan(K_op, K_b, M, -4, 4, b_min=b_min, seed=seed)


def optimize_gamma_parabolic(
    profile: ShellProfile, cls: ShellClass | None = None,
    n_elements: int = DEFAULT_ELEMENTS, seed: int = 0,
) -> AsymptoticsResult:
    """Cone (or cylinder, as a cross-check) constants by gamma optimization;
    ``diagnostics["scan"]`` holds the minimized scan."""
    cls = _require_class(profile, (ShellClassTag.CONE, ShellClassTag.CYLINDER), cls)
    return _scan_result(cls, 4, 0.0, _parabolic_scan(profile, n_elements, seed=seed))


def _elliptic_constants(profile: ShellProfile, cls: ShellClass) -> AsymptoticsResult:
    """Gauss or Airy constants: the law at the H0 branch of least a1, b = B0(z0).

    Gauss (interior minimum): eta1 = 1, c = sqrt(g(z0) H0''(z0) / 2).
    Airy (boundary minimum): eta1 = 2/3, c = zA g(z0)^(1/3) |H0'(z0)|^(2/3) with
    zA the first reversed-Airy zero; interior branches are skipped.
    """
    airy_case = cls.tag is ShellClassTag.AIRY_ELLIPTIC
    minimum = cls.h0_minimum or locate_H0_minimum(profile)
    branches = minimum.branches or (minimum,)
    laws = []
    for br in branches:
        if airy_case:
            if not br.boundary:
                continue
            inward = br.d1 > 0 if br.z0 == profile.interval[0] else br.d1 < 0
            if not inward or abs(br.d1) <= 1e-12:
                raise AdmissibilityError(
                    f"potential slope at boundary minimizer z0 = {br.z0:.6g} does not "
                    "increase toward the interior"
                )
            fr = frame_at(profile, br.z0)
            if fr.g <= 0.0:
                raise AdmissibilityError(f"g(z0) = {fr.g:.3g} not positive at z0 = {br.z0:.6g}")
            c = airy_first_zero() * fr.g ** (1.0 / 3.0) * abs(br.d1) ** (2.0 / 3.0)
            laws.append(_law(cls, Fraction(2, 3), br.value, fr.B0, c, z0=br.z0,
                             diagnostics={"airy_zero": airy_first_zero(), "h0_d1": br.d1,
                                          "n_branches": len(branches)}))
        else:
            fr = frame_at(profile, br.z0)
            if fr.g <= 0.0 or br.d2 <= 0.0:
                raise AdmissibilityError(
                    f"degenerate interior minimum at z0 = {br.z0:.6g} "
                    f"(g = {fr.g:.3g}, H0'' = {br.d2:.3g})"
                )
            laws.append(_law(cls, 1, br.value, fr.B0, math.sqrt(fr.g * br.d2 / 2.0), z0=br.z0,
                             diagnostics={"g_z0": fr.g, "h0_dd": br.d2,
                                          "n_branches": len(branches)}))
    if not laws:
        raise ReductionNotApplicableError("no boundary minimizer found for the Airy case")
    return min(laws, key=lambda res: res.a1)


def _h2_pencil(profile: ShellProfile, lam0: float, mesh: fem1d.Mesh1D):
    """The (K, M) pencil of H2 (lam0 substituted) on H^1_0."""

    def h2(z):
        return h2_coefficients(frame_at(profile, z), lam0)

    return fem1d.assemble_h10(profile, lambda z: -h2(z)[2], lambda z: h2(z)[0], mesh)


def _toroidal_scan(profile: ShellProfile, lam0: float, n_elements: int, seed: int = 0):
    mesh = fem1d.Mesh1D.uniform(profile.interval, n_elements)
    K_h2, M = _h2_pencil(profile, lam0, mesh)
    K_b, b_min = _bending(profile, mesh, "H10")
    return _GammaScan(K_h2, K_b, M, -2, 4, b_min=b_min, seed=seed)


def _arc_parameters(profile: ShellProfile):
    """(r_center, radius, z_center), exact for arc descriptors, else inferred."""
    if profile.kind == "circular_arc":
        return profile.params
    zm = 0.5 * (profile.interval[0] + profile.interval[1])
    fr = frame_at(profile, zm)
    radius = -1.0 / fr.b_zz
    z_center = zm + fr.fp * radius / fr.s  # where f' vanishes for the arc
    r_center = fr.f - math.sqrt(max(radius**2 - (zm - z_center) ** 2, 0.0))
    return r_center, radius, z_center


def toroidal_constants(
    profile: ShellProfile, cls: ShellClass | None = None,
    n_elements: int = DEFAULT_ELEMENTS, seed: int = 0,
) -> AsymptoticsResult:
    """Constant-potential constants by optimizing gamma^-2 H2 + gamma^4 B0;
    ``diagnostics["scan"]`` holds the minimized scan."""
    cls = _require_class(profile, (ShellClassTag.TORUS_ELLIPTIC,), cls)
    r_center, radius, _ = _arc_parameters(profile)
    if r_center >= 0.0:
        raise AdmissibilityError(
            f"arc center radius r = {r_center:.6g} must be negative for the "
            "azimuthal curvature to dominate"
        )
    a0 = profile.E / radius**2
    scan = _toroidal_scan(profile, a0, n_elements, seed=seed)
    if scan.lam_op_min <= 0.0:
        raise AdmissibilityError(
            f"first eigenvalue of the second-order reduction is {scan.lam_op_min:.6g} <= 0"
        )
    # wider bracket than the fourth-order scan: the gamma^-2 side climbs slower
    return _scan_result(cls, 2, a0, scan, (0.1, 30.0), lambda2=scan.lam_op_min,
                        arc_radius=radius, arc_center_r=r_center)


def compute(
    profile: ShellProfile, cls: ShellClass | None = None,
    n_elements: int = DEFAULT_ELEMENTS, seed: int = 0,
) -> AsymptoticsResult:
    """Dispatch on the shell class; refuses hyperbolic/inadmissible shells."""
    if cls is None:
        cls = classify(profile)
    tag = cls.tag
    if tag is ShellClassTag.CYLINDER:
        return cylinder_closed_form(profile, cls, n_elements=n_elements)
    if tag is ShellClassTag.CONE:
        return optimize_gamma_parabolic(profile, cls, n_elements=n_elements, seed=seed)
    if tag in (ShellClassTag.GAUSS_ELLIPTIC, ShellClassTag.AIRY_ELLIPTIC):
        return _elliptic_constants(profile, cls)
    if tag is ShellClassTag.TORUS_ELLIPTIC:
        return toroidal_constants(profile, cls, n_elements=n_elements, seed=seed)
    raise ReductionNotApplicableError(
        f"scalar reduction not applicable to class {tag.value}: {cls.detail}"
    )


def toroidal_sweep(
    radius: float, z_center: float, interval, r_grid, n_elements: int = DEFAULT_ELEMENTS,
) -> list[dict]:
    """One toroidal_constants run per arc-center offset (E = 1, nu = 0.3); failures recorded."""
    rows = []
    for r_c in r_grid:
        row = {"r_circ": float(r_c), "Lambda2": None, "gamma_min": None,
               "a1": None, "error": ""}
        try:
            if r_c >= 0.0:
                raise AdmissibilityError("arc center radius must be negative")
            prof = ShellProfile(
                "circular_arc", tuple(interval), params=(float(r_c), radius, z_center)
            )
            res = toroidal_constants(prof, n_elements=n_elements)
            row.update(Lambda2=res.lambda2, gamma_min=res.gamma, a1=res.a1)
        except AxishellError as err:  # per-point failure, sweep continues
            row["error"] = f"{type(err).__name__}: {err}"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# numeric cross-checks on the assembled reduced operator
# ---------------------------------------------------------------------------


def _elliptic_scan(profile: ShellProfile, lam0: float, eps: float, n_elements: int, seed: int):
    """The k scan of H0 + k^-2 H2 + eps^2 k^4 B0 on H^1_0 (lam0 substituted in H2)."""
    mesh = fem1d.Mesh1D.uniform(profile.interval, n_elements)
    K_h2, M = _h2_pencil(profile, lam0, mesh)
    K_b0, b0_min = _bending(profile, mesh, "H10")
    h0 = lambda z: h0_taylor(profile, z, 0).value  # noqa: E731
    K_h0 = fem1d.assemble_weighted_mass(profile, h0, mesh, "H10")
    h0_min = float(np.min(h0(np.linspace(*profile.interval, 1025)[::8])))
    return _GammaScan(K_h2, eps**2 * K_b0, M, -2, 4,
                      b_min=eps**2 * b0_min, seed=seed, K_0=K_h0, lb_0=h0_min)


def elliptic_k_minimization(
    profile: ShellProfile, eps: float, n_elements: int = 256, seed: int = 0, asym=None,
):
    """Directly minimize over k the first eigenvalue of H0 + k^-2 H2 + eps^2 k^4 B0.

    Returns (k_opt, lambda_min, details), details holding the k ``scan`` and
    the iteration counts.  ``asym``, the profile's ``compute`` result, is
    computed if not given.  The independent route for the Gauss/Airy closed
    forms: the gamma scan with K_0 = H0 and p = (-2, 4), started on a log grid
    over 0.4 to 2.5 times the predicted k.
    """
    if asym is None:
        asym = compute(profile)
    scan = _elliptic_scan(profile, asym.a0, eps, n_elements, seed)
    k_center = predict(asym, eps).k_real
    opt = scan.minimize(bracket=(k_center * 0.4, k_center * 2.5))
    return opt.gamma, opt.mu, {"scan": scan, **opt.counts("k")}


def energy_ratio(profile: ShellProfile, eps: float, n_elements: int = 256, seed: int = 0):
    """Numeric bending/total energy ratio of the reduced operator at k = k(eps).

    ratio = eps^2 k^4 <B0 eta, eta> / <(H0 + k^-2 H2 + eps^2 k^4 B0) eta, eta>
    with eta the computed ground state.  Parabolic profiles use the
    equilibrated gamma form instead (exact 1/2 at the optimum).
    """
    cls = classify(profile)
    if cls.tag in (ShellClassTag.CYLINDER, ShellClassTag.CONE):
        res = optimize_gamma_parabolic(profile, cls, n_elements=n_elements, seed=seed)
        return res.diagnostics["ratio_at_optimum"]
    res = compute(profile, cls)
    scan = _elliptic_scan(profile, res.a0, eps, n_elements, seed)
    k = predict(res, eps).k_real
    _, vec = scan.mu1(k, with_vector=True)
    h0, h2, bend = (float(vec @ (K @ vec)) for K in (scan.K_0, scan.K_op, scan.K_b))
    return k**4 * bend / (h0 + k**-2 * h2 + k**4 * bend)
