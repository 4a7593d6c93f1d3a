"""Conforming 1D elements for the reduced operators.

Two discretizations on the profile interval, both under the weighted measure
f(z) s(z) dz and with clamped traces eliminated:

* fourth-order forms on H^2_0 with cubic Hermite elements
  (value + slope unknowns per node),
* second-order forms on H^1_0 with quadratic Lagrange elements.

Assembly runs over all elements at once: every coefficient is evaluated in
one call on all quadrature points, and every local block is a Gram-type
product X^T diag(c) X over (element, quadrature point, i, j), made exactly
symmetric, so the assembled CSR matrices satisfy K == K.T bit for bit.  The
(K, M) pairs are CSR matrices like the 2D ones and go through the same
``eig.solve_smallest(K, M, ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import eig
from .errors import AdmissibilityError, AssemblyError, GeometryError
from .profiles import ShellProfile

__all__ = [
    "Mesh1D",
    "assemble_h20",
    "assemble_h10",
    "assemble_weighted_mass",
    "smallest_eigenpairs",
]

GAUSS_POINTS = 6  # per element; order-11 exactness


@dataclass(frozen=True)
class Mesh1D:
    """Sorted node coordinates spanning an interval."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 3:
            raise GeometryError("mesh needs at least two elements")
        if not np.all(np.diff(nodes) > 0):
            raise GeometryError("mesh nodes must be strictly increasing")

    @classmethod
    def uniform(cls, interval, n_elements: int) -> "Mesh1D":
        a, b = interval
        return cls(np.linspace(a, b, n_elements + 1))

    @classmethod
    def boundary_graded(cls, interval, n_elements: int, ratio: float = 1.15) -> "Mesh1D":
        """Element sizes growing geometrically from both ends to the middle."""
        if ratio <= 1.0:
            raise GeometryError("grading ratio must exceed 1")
        a, b = interval
        half = n_elements // 2
        rest = n_elements - 2 * half
        sizes_half = ratio ** np.arange(half)
        sizes = np.concatenate([sizes_half, np.full(rest, ratio**half), sizes_half[::-1]])
        sizes *= (b - a) / sizes.sum()
        nodes = np.concatenate([[a], a + np.cumsum(sizes)])
        nodes[-1] = b
        return cls(nodes)

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1


class _Elements:
    """Quadrature and shape tables of every element of a mesh at once.

    Arrays are indexed (element, quadrature point, local shape function).
    """

    def __init__(self, profile: ShellProfile, mesh: Mesh1D, space: str):
        x, w = np.polynomial.legendre.leggauss(GAUSS_POINTS)
        x0, x1 = mesh.nodes[:-1, None], mesh.nodes[1:, None]
        h = x1 - x0
        mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
        self.z = mid + half * x
        self.measure = half * w * profile.weight(self.z)  # f s dz per point
        xi = (self.z - x0) / h
        e = np.arange(mesh.n_elements)[:, None]
        if space == "H20":
            self.n_dofs = 2 * (mesh.n_elements + 1)
            self.free = np.arange(2, self.n_dofs - 2)
            self.dofs = 2 * e + np.arange(4)
            self.N, self.D = _hermite_shapes(h, xi)
        elif space == "H10":
            self.n_dofs = 2 * mesh.n_elements + 1
            self.free = np.arange(1, self.n_dofs - 1)
            self.dofs = 2 * e + np.arange(3)
            self.N, self.D = _quadratic_shapes(h, xi)
        else:
            raise AssemblyError(f"unknown space {space!r}")

    def values(self, coeff) -> np.ndarray:
        """A constant, or a callable of an array of z, at every quadrature point."""
        if callable(coeff):
            coeff = coeff(self.z)
        return np.broadcast_to(np.asarray(coeff, dtype=float), self.z.shape)

    def gram(self, *terms) -> sp.csr_matrix:
        """sum over (c, X) of int c X_i X_j f s dz, assembled on the free DOFs.

        Each element block is made exactly symmetric, and every global entry
        sums its element contributions in element order, so the result
        equals its transpose bit for bit.
        """
        blocks = 0.0
        for c, X in terms:
            b = np.einsum("eq,eqi,eqj->eij", self.measure * c, X, X)
            blocks = blocks + 0.5 * (b + b.transpose(0, 2, 1))
        n = self.n_dofs
        slots = self.dofs[:, :, None] * n + self.dofs[:, None, :]
        # the pattern's slots, row-major; each sums its contributions in element order
        keys, at = np.unique(slots.ravel(), return_inverse=True)
        A = sp.csr_matrix((np.bincount(at, weights=blocks.ravel()), (keys // n, keys % n)),
                          shape=(n, n))[self.free][:, self.free]
        A.eliminate_zeros()
        return A


def _hermite_shapes(h, xi):
    N = np.stack([
        1 - 3 * xi**2 + 2 * xi**3,
        h * (xi - 2 * xi**2 + xi**3),
        3 * xi**2 - 2 * xi**3,
        h * (-(xi**2) + xi**3),
    ], axis=-1)
    D2 = np.stack([
        (-6 + 12 * xi) / h**2,
        (-4 + 6 * xi) / h,
        (6 - 12 * xi) / h**2,
        (-2 + 6 * xi) / h,
    ], axis=-1)
    return N, D2


def _quadratic_shapes(h, xi):
    N = np.stack([
        (2 * xi - 1) * (xi - 1),
        4 * xi * (1 - xi),
        xi * (2 * xi - 1),
    ], axis=-1)
    D1 = np.stack([
        (4 * xi - 3) / h,
        (4 - 8 * xi) / h,
        (4 * xi - 1) / h,
    ], axis=-1)
    return N, D1


def _require(bad: np.ndarray, values: np.ndarray, z: np.ndarray, error, what: str):
    """Raise ``error`` naming the minimum in the first element with a bad point."""
    if np.any(bad):
        e = int(np.argmax(bad.any(axis=1)))
        q = int(np.argmin(values[e]))
        raise error(f"{what} (min {values[e, q]:.3g} near z = {z[e, q]:.6g})")


def assemble_h20(profile: ShellProfile, a4_coeff, shift, mesh: Mesh1D):
    """(K, M) of the fourth-order form on H^2_0 with cubic Hermite elements.

    K = int a4 u'' v'' f s dz + int shift u v f s dz,
    M = int u v f s dz.
    Clamped value and slope unknowns at both ends are eliminated.
    """
    el = _Elements(profile, mesh, "H20")
    a4 = el.values(a4_coeff)
    _require(a4 <= 0.0, a4, el.z, AssemblyError, "fourth-order coefficient must be positive")
    sh = el.values(shift if shift is not None else 0.0)
    return el.gram((a4, el.D), (sh, el.N)), el.gram((1.0, el.N))


def assemble_h10(profile: ShellProfile, g_coeff, potential, mesh: Mesh1D):
    """(K, M) of the second-order form on H^1_0 with quadratic Lagrange elements.

    K = int (g u' v' + V u v) f s dz, M = int u v f s dz.
    Endpoint values are eliminated; a negative g at any quadrature point is
    an admissibility violation.
    """
    el = _Elements(profile, mesh, "H10")
    g = el.values(g_coeff)
    g_tol = 1e-12 * np.maximum(1.0, np.abs(g).max(axis=1, keepdims=True))
    _require(g < -g_tol, g, el.z, AdmissibilityError, "second-order coefficient g is negative")
    V = el.values(potential if potential is not None else 0.0)
    return el.gram((g, el.D), (V, el.N)), el.gram((1.0, el.N))


def assemble_weighted_mass(
    profile: ShellProfile, density, mesh: Mesh1D, space: str
) -> sp.csr_matrix:
    """int density u v f s dz on the free DOFs of the given space."""
    el = _Elements(profile, mesh, space)
    return el.gram((el.values(density), el.N))


def smallest_eigenpairs(
    K, M, m: int = 1, seed: int = 0, x0: np.ndarray | None = None, shift: float = 0.0,
) -> eig.EigenPairs:
    """The m smallest eigenpairs of K x = lambda M x (sparse shift-invert)."""
    return eig.solve_smallest(K, M, m, shift=shift, seed=seed, x0=x0)
