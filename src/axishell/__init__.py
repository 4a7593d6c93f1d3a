"""Classification and eigenvalue asymptotics of clamped axisymmetric shells.

Given a meridian profile r = f(z), the package classifies the shell
(cylinder, cone, toroidal / Gauss / Airy barrel, hyperbolic), computes the
constants of the azimuthal-wavenumber power law k(eps) = gamma eps^(-beta)
and the two-term eigenvalue law m1(eps) = a0 + a1 eps^(alpha1), and
cross-validates them against a Fourier-decomposed 2D elasticity eigensolver
on the meridian cross-section.
"""

from .asymptotics import (
    AsymptoticsResult,
    airy_first_zero,
    compute,
    cylinder_closed_form,
    exponents_from_eta1,
    optimize_gamma_parabolic,
    predict,
    toroidal_constants,
    toroidal_sweep,
)
from .errors import (
    AdmissibilityError,
    AssemblyError,
    AxishellError,
    DomainError,
    GeometryError,
    ReductionNotApplicableError,
    SolverError,
    ThicknessError,
)
from .geometry import (
    GeometryFrame,
    ShellClass,
    ShellClassTag,
    classify,
    essential_spectrum_range,
    frame_at,
    locate_H0_minimum,
)
from .profiles import PRESET_IDS, ShellProfile, preset

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AsymptoticsResult",
    "AdmissibilityError",
    "AssemblyError",
    "AxishellError",
    "DomainError",
    "GeometryError",
    "GeometryFrame",
    "PRESET_IDS",
    "ReductionNotApplicableError",
    "ShellClass",
    "ShellClassTag",
    "ShellProfile",
    "SolverError",
    "ThicknessError",
    "airy_first_zero",
    "classify",
    "compute",
    "cylinder_closed_form",
    "essential_spectrum_range",
    "exponents_from_eta1",
    "frame_at",
    "locate_H0_minimum",
    "optimize_gamma_parabolic",
    "predict",
    "preset",
    "toroidal_constants",
    "toroidal_sweep",
]
