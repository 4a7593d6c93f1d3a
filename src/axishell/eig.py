"""Generalized symmetric-definite eigensolver shared by the 1D and 2D stacks.

The smallest eigenpairs of K x = lambda M x come from Lanczos (ARPACK through
``scipy.sparse.linalg.eigsh``; Lehoucq, Sorensen and Yang 1998) in standard
mode on the spectral transformation (Ericsson and Ruhe, *Math. Comp.* 35,
1980) in its symmetric form (Grimes, Lewis and Simon, *SIAM J. Matrix Anal.
Appl.* 15, 1994).  With one banded Cholesky factor K - shift M = U^T U (LAPACK
``dpbtrf``; Golub and Van Loan, *Matrix Computations*, sec. 4.3), the
operator y -> U^-T M U^-1 y is symmetric positive definite with eigenvalues
nu = 1 / (lambda - shift), and one application is two banded triangular
solves (BLAS ``dtbsv``) around one product with M, where ARPACK's generalized
shift-invert mode needs about three M products per step.  A Ritz vector y
maps back to the M-normalized x = U^-1 y / sqrt(nu), and a start vector x0 to
y0 = U x0 (``dtbmv``).  All n pairs (m = n, beyond ARPACK) come from the
same operator, formed column by column and solved densely (``eigh``).

A pencil (``Pencil``) is K = s_1 K_1 + s_2 K_2 + ... and M, built once by its
owner and solved at any scales s_t, so no sum of the terms is formed: a 2D
family's K(k) = A0 + k A1 + k^2 A2, a 1D gamma scan's gamma^p_low K_op +
gamma^p_high K_b (+ K_0); a matrix K and a matrix M make a pencil of one term
and one node component on the spot.  Each K_t is kept from its lower triangle
as node-level component blocks on the pencil's lower node pairs (i, j),
i >= j: DOF ncomp i + a is component a of node i, and block (a, b) holds
K_t[ncomp i + a, ncomp j + b] on every pair or, when a < b, on the strict
pairs i > j only (at i = j those entries lie above the diagonal).  The strict
pairs come first, by row, then column, then the diagonal pairs, so a strict
block covers a prefix of the pairs.  M stays a full CSR matrix, which every
Lanczos step multiplies by, and ||M||_1 is computed once per pencil.

The band (LAPACK upper band storage of half-bandwidth w, Fortran-ordered)
holds the entry (r, c), r >= c, at flat index w (r + 1) + c, so block (a, b)
lands at base[p] + w a + b for base[p] = w (ncomp i + 1) + ncomp j at pair
p = (i, j).  K is read only one block at a time, its entries summed over the
terms in order (``_blocks``).  Each summed block is assigned through the
pencil's one int32 base map into a view of the flat band offset by w a + b;
no band slot is written twice, so each band entry is bit for bit what the
terms' sparse sum would store.  For a shift s != 0, M's lower entries are
added last, scaled by -s: k + (-(s m)) is k - s m.  K X comes from each
block's node matrix, its transpose and its diagonal pairs, and |K| X the same
way from each block's magnitudes: ||K||_1, the largest column sum of |K|, is
the largest entry of |K| 1 (K is symmetric), computed before the band is
allocated.  The 1D pencils have half-bandwidth 2 (quadratic Lagrange) or 3
(cubic Hermite).  The 2D pencils are numbered meridian-major, so their
half-bandwidth, 3 (p (p_t n_thickness + 1) + p_t) + 2 at meridian degree p
and thickness degree p_t, grows with the thickness nodes: on the 2 cells that
every default uses it is 254 at p = p_t = 6 and 137 at p_t = 3, and the
factor's cost grows with its square.  Dense inputs are converted to CSR.

Every solve runs its BLAS on one thread.  On these pencils a second OpenBLAS
thread mostly spins (on 2 cores it doubled the CPU time of the 2D wavenumber
sweeps without shortening them), pool workers would multiply the threads past
the cores, and a threaded BLAS reduction rounds differently with the thread
count, so the 2D eigenvalues would depend on the machine's core count.
A library caller keeps its own count: each solve sets one thread and restores
the caller's count after.  The command line (``axishell.cli``) loads numpy's
and scipy's OpenBLAS with one thread instead, unless OPENBLAS_NUM_THREADS is
set, so its processes and pool workers start no helper threads at all.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.linalg.cython_blas
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

__all__ = ["EigenPairs", "Pencil", "solve_smallest"]

MAX_RESTARTS = 200  # ARPACK's cap on implicit restarts (eigsh's maxiter)


@dataclass
class EigenPairs:
    values: np.ndarray      # ascending
    vectors: np.ndarray     # columns, M-orthonormal
    residuals: np.ndarray   # ||K x - lambda M x|| / ((||K||_1 + |lambda| ||M||_1) ||x||)
    iterations: int         # applications of U^-T M U^-1, K - shift M = U^T U
    shift: float            # shift of the factor actually used


def _blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` (sets the count, returns the
    previous one) in the BLAS scipy links, which LAPACK and ARPACK call; None if
    that BLAS is not OpenBLAS."""
    try:
        setter = ctypes.CDLL(scipy.linalg.cython_blas.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


_SET_BLAS_THREADS = _blas_thread_setter()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one OpenBLAS thread, then restore the caller's count.

    The count is process-wide, so concurrent solves in threads of one process
    are not pinned reliably; processes (``--jobs``) are.
    """
    if _SET_BLAS_THREADS is None:
        yield
        return
    previous = _SET_BLAS_THREADS(1)
    try:
        yield
    finally:
        _SET_BLAS_THREADS(previous)


def _csr(a) -> sp.csr_matrix:
    """``a`` as a canonical CSR matrix (sorted rows, no duplicates): itself if it is one."""
    a = a if sp.issparse(a) and a.format == "csr" else sp.csr_matrix(a)
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    return a


def _norm1(a: sp.csr_matrix) -> float:
    """||a||_1, the largest column sum of |a|, each column summed in row order."""
    return float(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[1]).max())


class Pencil:
    """K = s_1 K_1 + s_2 K_2 + ... and M, for solves at any scales s_t.

    ``indptr`` and ``cols`` (int32) are the CSR pattern of the strict lower
    node pairs (i, j), i > j, rows sorted: pair p < ``strict`` is one of them,
    and pair ``strict`` + i the diagonal pair (i, i).  ``terms`` holds each K_t
    as {(a, b): its entries on the pairs}, every pair for a >= b and the strict
    ones for a < b.  M is the full SPD matrix, of order ncomp times the nodes.
    The half-bandwidth ``width`` is the widest reach of the blocks and of M,
    ``base`` the band map of the pairs at that width, and ``node`` the strict
    pairs' node matrix (CSR) and its transpose, with placeholder data.
    """

    def __init__(self, ncomp: int, indptr: np.ndarray, cols: np.ndarray, terms: list,
                 M) -> None:
        self.ncomp, self.indptr, self.cols, self.terms, self.M = ncomp, indptr, cols, terms, _csr(M)
        nodes = len(indptr) - 1
        self.n, self.strict = ncomp * nodes, len(cols)
        if self.M.shape != (self.n, self.n):
            raise SolverError("pencil matrices must be square and of equal size")
        rows = self.rows()
        # DOF reach of block (a, b): ncomp times the node reach, plus a - b
        reach = ncomp * int((rows - cols).max(initial=0)) if self.strict else 0
        ptr = self.M.indptr
        filled = np.flatnonzero(np.diff(ptr))  # rows are sorted: a row's first entry bounds it
        self.width = w = max([reach + a - b for term in terms for a, b in term if a >= b or reach]
                             + [int((filled - self.M.indices[ptr[filled]]).max(initial=0))])
        dtype = np.int32 if (w + 1) * self.n <= np.iinfo(np.int32).max else np.intp
        self.base = np.concatenate([w * (ncomp * rows + 1) + ncomp * cols,
                                    (w + 1) * ncomp * np.arange(nodes) + w]).astype(dtype)
        self.m_norm = _norm1(self.M)
        # the strict pairs' node matrix and its transpose on the pattern's index
        # arrays, for K x; each product sets the data of its own shallow copies
        S = sp.csr_matrix((np.broadcast_to(0.0, self.strict), cols, indptr), shape=(nodes, nodes))
        self.node = (S, S.T)

    @classmethod
    def from_matrices(cls, matrices, M) -> "Pencil":
        """The pencil of the symmetric matrices K_1, K_2, ..., each read from its lower
        triangle, and M: one node component, each K_t one block on the union of
        their lower triangles, zero where K_t stores no entry."""
        M = _csr(M)
        n = M.shape[0]
        mats = [_csr(A) for A in matrices]
        if not mats or M.shape[1] != n or any(A.shape != M.shape for A in mats):
            raise SolverError("pencil matrices must be square and of equal size")
        lower = []
        for A in mats:
            row = np.repeat(np.arange(n), np.diff(A.indptr))
            lower.append((row, A.indices, A.data, A.indices < row))
        pairs = np.unique(np.concatenate([row[below] * n + col[below]
                                          for row, col, _, below in lower]))
        rows, cols = np.divmod(pairs, n)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        terms = []
        for row, col, data, below in lower:
            entries = np.zeros(len(pairs) + n)
            entries[np.searchsorted(pairs, row[below] * n + col[below])] = data[below]
            on = col == row
            entries[len(pairs) + row[on]] = data[on]
            terms.append({(0, 0): entries})
        return cls(1, indptr.astype(np.int32), cols.astype(np.int32), terms, M)

    def rows(self) -> np.ndarray:
        """The row node of each strict pair."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    def matrix(self, scales) -> sp.csr_matrix:
        """K at ``scales``, in full, as a CSR matrix of its nonzero entries, rows sorted."""
        nc = self.ncomp
        nodes = np.arange(self.n // nc)
        i, j = np.concatenate([self.rows(), nodes]), np.concatenate([self.cols, nodes])
        parts = []
        for (a, b), entries in _blocks(self, scales):
            keep = np.flatnonzero(entries)
            r, c, v = nc * i[keep] + a, nc * j[keep] + b, entries[keep]
            mirror = r > c
            parts.append((np.concatenate([v, v[mirror]]), np.concatenate([r, c[mirror]]),
                          np.concatenate([c, r[mirror]])))
        data, row, col = (np.concatenate(x) for x in zip(*parts))
        return sp.csr_matrix((data, (row, col)), shape=(self.n, self.n))


def _blocks(pencil: Pencil, scales):
    """Each block (a, b) of K = sum_t scales[t] K_t, its entries summed over the terms in
    order, one block at a time; an unscaled block of one term is the term's own array."""
    for key in dict.fromkeys(key for term in pencil.terms for key in term):
        total = None
        for scale, term in zip(scales, pencil.terms):
            if key in term:
                part = term[key] if scale == 1.0 else scale * term[key]
                total = part if total is None else total + part
        yield key, total


def _band(pencil: Pencil, scales) -> np.ndarray:
    """LAPACK upper band storage, Fortran-ordered, of K = sum_t scales[t] K_t.

    Each summed block (a, b) of ``_blocks`` is assigned through the base map into
    the flat band offset by width a + b; no band slot is written twice, so each
    band entry is the sum of the terms' entries in order, bit for bit what the
    sparse sum scales[0] K_0 + scales[1] K_1 + ... stores.
    """
    w = pencil.width
    band = np.zeros((w + 1, pencil.n), order="F")
    flat = band.reshape(-1, order="F")  # a view: the band is Fortran-contiguous
    for (a, b), entries in _blocks(pencil, scales):
        flat[w * a + b:][pencil.base[:len(entries)]] = entries
    return band


def _add_lower(band: np.ndarray, A: sp.csr_matrix, scale: float) -> None:
    """Add ``scale`` times the lower triangle of the canonical CSR matrix A to the band."""
    w = band.shape[0] - 1
    row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    below = A.indices <= row
    band.reshape(-1, order="F")[w * (row[below] + 1) + A.indices[below]] += scale * A.data[below]


def _factorize(pencil: Pencil, scales, shift: float) -> tuple[np.ndarray, float, float]:
    """Upper banded Cholesky factor U of K - s M = U^T U, the s used, and ||K||_1, for
    K = sum_t scales[t] K_t; a shift at which K - s M is not positive definite is
    retried once, perturbed downwards.  ||K||_1 is the largest entry of |K| 1, K being
    symmetric.  K - s M adds M's lower entries, scaled by -s, to K's band:
    k + (-(s m)) is k - s m, the sparse difference's entry, bit for bit."""
    shifts = [shift, shift - 1e-3 * abs(shift) if shift != 0.0 else -1e-8]
    row_sums = _product(pencil, scales, np.ones((pencil.n, 1)), absolute=True)
    k_norm = float(row_sums.max(initial=0.0))  # before the band is allocated
    for s in shifts:
        band = _band(pencil, scales)
        if s != 0.0:
            _add_lower(band, pencil.M, -s)
        try:
            return sla.cholesky_banded(band, overwrite_ab=True), s, k_norm
        except np.linalg.LinAlgError as err:  # K - s M not positive definite
            last_err = err
    raise SolverError(f"factorization failed at shifts {shifts}: {last_err}")


def _product(pencil: Pencil, scales, X: np.ndarray, absolute: bool = False) -> np.ndarray:
    """K X for K = sum_t scales[t] K_t, or |K| X if ``absolute``: each summed block
    (a, b) adds S X_b to component a and S^T X_a to b, S its strict pairs' node
    matrix, and its diagonal pairs, mirrored."""
    nc, strict = pencil.ncomp, pencil.strict
    nodes = pencil.n // nc
    Xc = [np.ascontiguousarray(x) for x in X.reshape(nodes, nc, -1).transpose(1, 0, 2)]
    Y = np.zeros((nc, nodes, X.shape[1]))
    S, T = (copy.copy(A) for A in pencil.node)  # each block sets the entries of both
    for (a, b), entries in _blocks(pencil, scales):
        if absolute:
            entries = np.abs(entries)
        S.data = T.data = entries[:strict]
        Y[a] += S @ Xc[b]
        Y[b] += T @ Xc[a]
        if len(entries) > strict:
            diagonal = entries[strict:, None]
            Y[a] += diagonal * Xc[b]
            if a != b:
                Y[b] += diagonal * Xc[a]
    return Y.transpose(1, 0, 2).reshape(X.shape)


@_one_blas_thread()
def solve_smallest(K, M, m: int, shift: float = 0.0, tol: float = 1e-10,
                   x0: np.ndarray | None = None) -> EigenPairs:
    """The m smallest eigenpairs of K x = lambda M x, for a ``shift`` below lambda_1.

    K is a symmetric matrix, read from its lower triangle, so it may be given in
    full or as that triangle.  K and M (SPD, in full) are square, of equal size,
    dense (arrays or nested lists) or sparse, and become a ``Pencil`` of one term
    for this solve.  Or M is a ``Pencil``, and K the scales of its terms, one per
    term.  The shift must lie below lambda_1, so that K - shift M is positive
    definite for its Cholesky factor; where it is not, the factor is retried once
    at a shift perturbed downwards (``shift`` in the result).
    ``tol`` bounds each pair's backward error and is checked on the result.
    Deterministic: a cold solve starts from one fixed vector, which an
    optional x0 (n entries or an (n, 1) column, else ``SolverError``) replaces.
    """
    if isinstance(M, Pencil):
        pencil, scales = M, [float(scale) for scale in K]
    else:
        pencil, scales = Pencil.from_matrices([K], M), [1.0]
    n, M = pencil.n, pencil.M
    if not scales or len(scales) != len(pencil.terms):
        raise SolverError(f"{len(scales)} scales for {len(pencil.terms)} stiffness terms")
    if not 1 <= m <= n:
        raise SolverError(f"cannot extract {m} pairs from an n = {n} pencil")
    if x0 is not None and np.shape(x0) not in ((n,), (n, 1)):
        raise SolverError(f"x0 of shape {np.shape(x0)} is not {n} entries or an ({n}, 1) column")
    applied = 0
    U, used, k_norm = _factorize(pencil, scales, shift)
    u, tbsv = U.shape[0] - 1, sla.blas.dtbsv

    def apply(y):  # U^-T M U^-1 y
        nonlocal applied
        applied += 1
        return tbsv(u, U, M @ tbsv(u, U, y), trans=1, overwrite_x=1)

    if m == n:  # ARPACK needs m < n; a pencil this small is solved densely, in the same form
        nu, Y = sla.eigh(np.column_stack([apply(e) for e in np.eye(n)]))
    else:
        v0 = (np.random.default_rng(0).standard_normal(n) if x0 is None
              else sla.blas.dtbmv(u, U, np.ravel(x0)))  # U x0
        # each Ritz value nu = 1 / (lambda - used) to 1e-12 relative, so lambda - used
        # too; tol=0 stalls on the near-degenerate bottoms of the 1D scans at extreme gamma
        try:
            nu, Y = spla.eigsh(
                spla.LinearOperator((n, n), matvec=apply, dtype=float), k=m, which="LM",
                v0=v0, tol=1e-12, maxiter=MAX_RESTARTS,
                ncv=min(n, max(2 * m + 1, 12)))  # 30 % fewer steps than scipy's 20
        except spla.ArpackError as err:
            raise SolverError(f"shift-invert Lanczos failed: {err}") from None
    order = np.argsort(-nu)
    nu, values = nu[order], used + 1.0 / nu[order]
    # x = U^-1 y / sqrt(nu): x^T M x = y^T (U^-T M U^-1) y / nu = 1
    vectors = np.column_stack([tbsv(u, U, Y[:, j]) for j in order]) / np.sqrt(nu)
    residuals = np.linalg.norm(_product(pencil, scales, vectors) - (M @ vectors) * values,
                               axis=0) / (
        (k_norm + np.abs(values) * pencil.m_norm) * np.linalg.norm(vectors, axis=0))
    if not np.all(residuals <= tol):
        raise SolverError(f"backward errors {residuals} exceed tol {tol:g}")
    # deterministic sign: largest-magnitude entry positive
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(m)]
    return EigenPairs(values=values, vectors=vectors * np.where(peaks < 0, -1.0, 1.0),
                      residuals=residuals, iterations=applied, shift=used)
