"""Conforming 1D elements for the reduced operators.

Two discretizations on the profile interval, both under the weighted measure
f(z) s(z) dz and with clamped traces eliminated:

* fourth-order forms on H^2_0 with cubic Hermite elements
  (value + slope unknowns per node),
* second-order forms on H^1_0 with quadratic Lagrange elements.

Assembly runs over all elements at once: every coefficient is evaluated in
one call on all quadrature points, and every local block is a Gram-type
product X^T diag(c) X, made exactly symmetric.  ``_NodePairs`` holds the
sorted unique pairs of free nodes that share a cell, found once per mesh, for
both stacks.  For the 1D matrices it builds the CSR pattern of every
component pair straight away, with the CSR position of every local entry,
into which ``_scatter`` sums the cell blocks in cell order, so K == K.T bit
for bit, and ``_compact`` drops exact zeros.  For lame2d it gives the lower
node pairs, on which the stiffness blocks are summed, and the block-diagonal
mass matrix.  The (K, M) pairs go through ``eig.solve_smallest(K, M, ...)``
like the 2D ones.
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


class _NodePairs:
    """The sorted unique pairs of free nodes that share a cell, from which every
    pattern of one mesh is built.

    ``fn[c, i]`` is the index among the free nodes of local node i of cell c, or
    -1 on a clamped node; a clamped node has all its components fixed, so the
    free DOF of component a of free node i is ncomp i + a.  ``pair[c, i nloc + j]``
    is the pair of local nodes i and j of cell c, -1 where either is clamped.
    """

    def __init__(self, fn: np.ndarray):
        n_free = int(fn.max()) + 1
        n_cells, nloc = fn.shape
        self.fn = fn
        both = (fn[:, :, None] >= 0) & (fn[:, None, :] >= 0)
        # key i span + j - i + span // 2 of each local pair (i, j) of free nodes,
        # which orders the pairs by row, then column: marking the keys sorts them.
        # span, one more than twice the widest node distance in a cell, stays small
        # in the banded numbering of both stacks
        reach = np.broadcast_to(fn[:, None, :] - fn[:, :, None], both.shape)[both]
        span = 2 * int(np.abs(reach).max()) + 1
        keys = np.broadcast_to(fn[:, :, None] * span, both.shape)[both] + reach
        keys += span // 2
        del reach
        seen = np.zeros(n_free * span, dtype=bool)
        seen[keys] = True
        pairs = np.flatnonzero(seen)
        index = np.empty(len(seen), dtype=np.int32)  # of each key among the pairs
        index[pairs] = np.arange(len(pairs), dtype=np.int32)
        self.pair = np.full((n_cells, nloc * nloc), -1, dtype=np.int32)
        self.pair[both.reshape(n_cells, -1)] = index[keys]
        del seen, index
        fi, fj = np.divmod(pairs, span)  # node pairs by row, then column
        fj += fi - span // 2
        self.fi, self.fj = fi.astype(np.int32), fj.astype(np.int32)
        self.deg = np.bincount(fi, minlength=n_free)
        # the rank of each pair in its node row
        self.rank = (np.arange(len(pairs)) - (np.cumsum(self.deg) - self.deg)[fi]).astype(np.int32)

    def pattern(self, ncomp: int) -> "_Pattern":
        """The CSR pattern of every component pair: row ncomp i + a lists ncomp j + b
        for the node neighbours j of i in order, and for each the components b."""
        indptr = np.concatenate([[0], np.cumsum(np.repeat(ncomp * self.deg, ncomp))]
                                ).astype(np.int32)
        indices = np.empty(indptr[-1], dtype=np.int32)
        for a in range(ncomp):
            # where the entries of each pair start in row (i, a)
            start = np.repeat(indptr[a:-1:ncomp], self.deg) + ncomp * self.rank
            for b in range(ncomp):
                indices[start + b] = ncomp * self.fj + b
        return _Pattern(self, ncomp, indptr, indices)

    def lower(self):
        """The lower node pairs (i, j), i >= j: ``(indptr, cols, where)``, the CSR
        pattern (int32) of the strict ones, i > j, rows sorted, and the position of
        each pair among the lower pairs, the strict ones first and then the diagonal
        pairs (i, i) in node order; -1 for a pair i < j."""
        strict = self.fj < self.fi
        n_strict, n_free = int(strict.sum()), len(self.deg)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(self.fi[strict], minlength=n_free))])
        where = np.full(len(self.fj), -1, dtype=np.int32)
        where[strict] = np.arange(n_strict, dtype=np.int32)
        where[self.fj == self.fi] = n_strict + np.arange(n_free, dtype=np.int32)
        return indptr.astype(np.int32), self.fj[strict], where

    def block_diagonal(self, blocks) -> sp.csr_matrix:
        """The CSR matrix of ncomp = len(blocks) components whose block (a, a) holds
        ``blocks[a]``, one entry per node pair, and whose other blocks are empty:
        row ncomp i + a lists ncomp j + a for the node neighbours j of i in order."""
        ncomp = len(blocks)
        indptr = np.concatenate([[0], np.cumsum(np.repeat(self.deg, ncomp))]).astype(np.int32)
        first = indptr[:-1:ncomp][self.fi] + self.rank  # of each pair in row (i, 0)
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
        for a, entries in enumerate(blocks):
            at = first + a * self.deg[self.fi]
            data[at], indices[at] = entries, ncomp * self.fj + a
        n = ncomp * len(self.deg)
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))


@dataclass(frozen=True)
class _Pattern:
    """A CSR pattern of ``_NodePairs.pattern``, with the position of each local entry."""

    pairs: _NodePairs
    ncomp: int
    indptr: np.ndarray
    indices: np.ndarray

    def slot(self, a: int, b: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The CSR positions of the local entries (a, i[t], b, j[t]) of every cell,
        shape (cells, len(i)), int32, nnz where an entry touches a clamped DOF."""
        pairs = self.pairs
        pair = pairs.pair.take(i * pairs.fn.shape[1] + j, axis=1)
        # the rows of a clamped node (fn -1) and the rank of a clamped pair (-1) index
        # arbitrary entries until nnz overwrites every entry that touches it
        slot = self.indptr[self.ncomp * pairs.fn.take(i, axis=1) + a] + b
        slot += self.ncomp * pairs.rank[pair]
        np.copyto(slot, self.indptr[-1], where=pair < 0)
        return slot


def _shared_pattern(fn: np.ndarray, ncomp: int):
    """CSR pattern over the free DOFs of every component pair, shared by every matrix
    of one 1D mesh.  Returns ``(indptr, indices, slot)``, all int32: the index
    arrays with sorted rows, and ``slot``, the CSR position of every local entry
    (cell, comp, i, comp', j) in that order, or nnz where the entry touches a
    clamped DOF."""
    pattern = _NodePairs(fn).pattern(ncomp)
    n_cells, nloc = fn.shape
    i, j = (x.ravel() for x in np.indices((nloc, nloc)))
    slot = np.empty((n_cells, ncomp, nloc, ncomp, nloc), dtype=np.int32)
    for a in range(ncomp):
        for b in range(ncomp):
            slot[:, a, :, b, :] = pattern.slot(a, b, i, j).reshape(n_cells, nloc, nloc)
    return pattern.indptr, pattern.indices, slot.ravel()


def _scatter(slot: np.ndarray, local: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """CSR data: each entry of ``local`` summed, in order, into its slot (an array of
    the same shape); slot nnz dropped."""
    nnz = int(indptr[-1])
    return np.bincount(slot.ravel(), weights=local.ravel(), minlength=nnz + 1)[:nnz]


def _compact(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> sp.csr_matrix:
    """CSR matrix on the pattern without exact zeros; the shared index arrays stay intact."""
    # eliminate_zeros compacts the index arrays in place
    A = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(len(indptr) - 1,) * 2)
    A.eliminate_zeros()
    return A


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
        if space not in ("H20", "H10"):
            raise AssemblyError(f"unknown space {space!r}")
        ncomp, shapes = (2, _hermite_shapes) if space == "H20" else (1, _quadratic_shapes)
        self.N, self.D = shapes(h, xi)
        # element e holds nodes step e .. step (e + 1); both end nodes are clamped
        step = self.N.shape[-1] // ncomp - 1
        node = step * np.arange(mesh.n_elements)[:, None] + np.arange(step + 1)
        self.indptr, self.indices, self.slot = _shared_pattern(
            np.where((node > 0) & (node < step * mesh.n_elements), node - 1, -1), ncomp)

    def values(self, coeff) -> np.ndarray:
        """A constant, or a callable of an array of z, at every quadrature point."""
        if callable(coeff):
            coeff = coeff(self.z)
        return np.broadcast_to(np.asarray(coeff, dtype=float), self.z.shape)

    def gram(self, *terms) -> sp.csr_matrix:
        """sum over (c, X) of int c X_i X_j f s dz on the free DOFs, exactly symmetric."""
        blocks = 0.0
        for c, X in terms:
            b = np.einsum("eq,eqi,eqj->eij", self.measure * c, X, X)
            blocks = blocks + 0.5 * (b + b.transpose(0, 2, 1))
        return _compact(_scatter(self.slot, blocks, self.indptr), self.indices, self.indptr)


def _hermite_shapes(h, xi):
    # columns (value_0, value_1, slope_0, slope_1): component-major, as the pattern expects
    N = np.stack([
        1 - 3 * xi**2 + 2 * xi**3,
        3 * xi**2 - 2 * xi**3,
        h * (xi - 2 * xi**2 + xi**3),
        h * (-(xi**2) + xi**3),
    ], axis=-1)
    D2 = np.stack([
        (-6 + 12 * xi) / h**2,
        (6 - 12 * xi) / h**2,
        (-4 + 6 * xi) / h,
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
    K, M, m: int = 1, x0: np.ndarray | None = None, shift: float = 0.0,
) -> eig.EigenPairs:
    """The m smallest eigenpairs of K x = lambda M x, through ``eig.solve_smallest``:
    Lanczos on U^-T M U^-1 for the banded Cholesky factor K - shift M = U^T U.
    K is a matrix or a list of (scale, matrix) terms that sum to it, or M is an
    ``eig.Pencil`` and K the scales of its terms."""
    return eig.solve_smallest(K, M, m, shift=shift, x0=x0)
