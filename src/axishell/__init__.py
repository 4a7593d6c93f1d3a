"""Classification and eigenvalue asymptotics of clamped axisymmetric shells.

Given a meridian profile r = f(z), the package classifies the shell
(cylinder, cone, toroidal / Gauss / Airy barrel, hyperbolic), computes the
constants of the azimuthal-wavenumber power law k(eps) = gamma eps^(-beta)
and the two-term eigenvalue law m1(eps) = a0 + a1 eps^(alpha1), and
cross-validates them against a Fourier-decomposed 2D elasticity eigensolver
on the meridian cross-section.

The public names below resolve lazily (PEP 562): each is imported from its
submodule on first access, so ``import axishell`` loads no numpy and the
command line (``axishell.cli``) chooses how numpy's and scipy's BLAS load.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it, in the order of __all__
_SOURCES = {
    "AsymptoticsResult": "asymptotics",
    "AdmissibilityError": "errors",
    "AssemblyError": "errors",
    "AxishellError": "errors",
    "DomainError": "errors",
    "GeometryError": "errors",
    "GeometryFrame": "geometry",
    "PRESET_IDS": "profiles",
    "ReductionNotApplicableError": "errors",
    "ShellClass": "geometry",
    "ShellClassTag": "geometry",
    "ShellProfile": "profiles",
    "SolverError": "errors",
    "ThicknessError": "errors",
    "airy_first_zero": "asymptotics",
    "classify": "geometry",
    "compute": "asymptotics",
    "cylinder_closed_form": "asymptotics",
    "essential_spectrum_range": "geometry",
    "exponents_from_eta1": "asymptotics",
    "frame_at": "geometry",
    "locate_H0_minimum": "geometry",
    "optimize_gamma_parabolic": "asymptotics",
    "predict": "asymptotics",
    "preset": "profiles",
    "toroidal_constants": "asymptotics",
    "toroidal_sweep": "asymptotics",
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{source}", __name__), name)
