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

Both stacks pass exactly symmetric CSR pencils in an ordering that is already
banded, so no fill-reducing ordering is computed: the factor fills the band,
stored zeros included.  K is read from its lower triangle L only, which the
2D stack passes as it is and which is taken from a full K: the band is L's
data, ||K||_1 is the column plus the row sums of |L| less |diag L|, and
K x = L x + L^T x - diag(L) x.  M, in every Lanczos step, is full.  The 1D
pencils have half-bandwidth 2 (quadratic Lagrange) or 3 (cubic Hermite).
The 2D pencils are numbered meridian-major, so their half-bandwidth,
3 (p (p_t n_thickness + 1) + p_t) + 2 at meridian degree p and thickness
degree p_t, grows with the thickness nodes: on the 2 cells that every
default uses it is 254 at p = p_t = 6 and 137 at p_t = 3, and the factor's
cost grows with its square.  The band is filled through a map of the CSR
pattern (the flat band indices of its lower triangle, and for a full K the
triangle's mask and index arrays), built once per pattern and kept while
the pattern's index buffer lives: every K(k) of a 2D family shares that
buffer, so a sweep builds one map and the map dies with the family.  Dense
inputs are converted to CSR.

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
import ctypes
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.linalg.cython_blas
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

__all__ = ["EigenPairs", "solve_smallest"]

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


# id of a CSR index buffer -> (weak reference to its indptr buffer, the two
# arrays' memory spans, the band map); an entry dies with its index buffer
_BAND_MAPS: dict[int, tuple] = {}


def _owner(x: np.ndarray):
    """The object that owns x's memory: x itself, or the array that x views."""
    return x if x.base is None else x.base


def _span(x: np.ndarray) -> tuple:
    return x.__array_interface__["data"][0], x.shape, x.strides, x.dtype.str


def _lower_pattern(indptr: np.ndarray, indices: np.ndarray):
    """``(lower, indptr, indices)`` of a CSR pattern: the mask of its entries a[j, i],
    i <= j, and the index arrays of that lower triangle, in the input's dtypes;
    None and the input's own arrays when the pattern holds no other entry."""
    row = np.repeat(np.arange(len(indptr) - 1, dtype=indices.dtype), np.diff(indptr))
    lower = indices <= row
    del row
    if lower.all():
        return None, indptr, indices
    counts = _row_sums(lower, indptr, indptr.dtype)
    return lower, np.concatenate([[0], np.cumsum(counts)]).astype(indptr.dtype), indices[lower]


def _row_sums(x: np.ndarray, indptr: np.ndarray, dtype=None) -> np.ndarray:
    """The sums of x's entries over each row of a CSR pattern, each in row order."""
    # reduceat over x padded with one zero, on which an empty row reads one entry
    sums = np.add.reduceat(np.append(x, np.zeros(1, x.dtype)), indptr[:-1], dtype=dtype)
    sums[indptr[:-1] == indptr[1:]] = 0
    return sums


def _build_band_map(a: sp.csr_matrix):
    """``(lower, triangle, flat, u)`` of a canonical CSR pattern: the mask of its
    lower-triangle entries a[j, i], i <= j, and that triangle's index arrays
    ``(indices, indptr)``, both None when a stores no other entry; the flat
    indices of the triangle's entries in Fortran-ordered LAPACK upper band
    storage, int32 where they fit, and the half-bandwidth u."""
    n = a.shape[0]
    lower, indptr, indices = _lower_pattern(a.indptr, a.indices)
    row = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    u = int((row - indices).max(initial=0))
    # a[i, j], i = col <= j = row, goes to band (u + i - j, j): flat index u (j + 1) + i
    # in Fortran order, formed in place in row's array (fewer temporaries)
    flat = row.astype(np.int32 if (u + 1) * n <= np.iinfo(np.int32).max else np.intp,
                      copy=False)
    flat += 1
    flat *= u
    flat += indices
    return lower, None if lower is None else (indices, indptr), flat, u


def _band_map(a: sp.csr_matrix):
    """``_build_band_map(a)``, built once per pattern.

    Every K(k) of a 2D family views the family's index arrays through new
    array objects, so the map is keyed on the buffers they view and on their
    memory spans.  It lives as long as the index buffer does (nothing may
    modify it in place), so it dies with the family.
    """
    idx, ptr = _owner(a.indices), _owner(a.indptr)
    spans = _span(a.indices), _span(a.indptr)
    entry = _BAND_MAPS.get(id(idx))
    if entry is not None and entry[0]() is ptr and entry[1] == spans:
        return entry[2]
    band_map = _build_band_map(a)
    try:
        if entry is None:  # a first map for this buffer: drop it when the buffer dies
            weakref.finalize(idx, _BAND_MAPS.pop, id(idx), None).atexit = False
        _BAND_MAPS[id(idx)] = (weakref.ref(ptr), spans, band_map)
    except TypeError:  # a buffer that takes no weak reference is not cached
        pass
    return band_map


def _triangle(a: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray, int]:
    """The lower triangle of the symmetric canonical CSR ``a`` (``a`` itself when it
    stores nothing above its diagonal), with its band map ``(flat, u)``."""
    lower, triangle, flat, u = _band_map(a)
    if lower is not None:
        a = sp.csr_matrix((a.data[lower], *triangle), shape=a.shape)
    return a, flat, u


def _band(data: np.ndarray, flat: np.ndarray, u: int, n: int) -> np.ndarray:
    """LAPACK upper band storage, Fortran-ordered, of the n x n symmetric matrix whose
    lower triangle holds ``data`` at the band map ``(flat, u)``.

    Row j's entries a[j, i], i <= j, are column j of the band (a[i, j] = a[j, i]),
    so the lower triangle fills it as it is stored.
    """
    band = np.zeros((u + 1) * n)
    band[flat] = data
    return band.reshape((u + 1, n), order="F")


def _upper_band(a) -> np.ndarray:
    """``_band`` of an exactly symmetric matrix, dense or canonical CSR, given in full
    or as its lower triangle: a duplicate entry would overwrite, not add."""
    a = sp.csr_matrix(a)
    lower, _, flat, u = _band_map(a)
    return _band(a.data if lower is None else a.data[lower], flat, u, a.shape[0])


def _band_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b for two upper band storages of one order, of any half-bandwidths, in a's
    memory where it is the wider: entry for entry what the sparse difference of
    the two matrices holds."""
    if len(a) < len(b):
        a, narrow = np.zeros(b.shape, order="F"), a
        a[len(a) - len(narrow):] = narrow
    a[len(a) - len(b):] -= b
    return a


def _factorize(tri: tuple, M, shift: float) -> tuple[np.ndarray, float]:
    """Upper banded Cholesky factor U of K - s M = U^T U and the s used; a shift
    at which K - s M is not positive definite is retried once, perturbed downwards.
    ``tri`` is ``_triangle(K)``; M is full."""
    L, flat, u = tri
    shifts = [shift, shift - 1e-3 * abs(shift) if shift != 0.0 else -1e-8]
    for s in shifts:
        band = _band(L.data, flat, u, L.shape[0])
        if s != 0.0:
            shifted = _upper_band(M)
            shifted *= s
            band = _band_less(band, shifted)
        try:
            return sla.cholesky_banded(band, overwrite_ab=True), s
        except np.linalg.LinAlgError as err:  # K - s M not positive definite
            last_err = err
    raise SolverError(f"factorization failed at shifts {shifts}: {last_err}")


def _norm1(a: sp.csr_matrix) -> float:
    """||a||_1, the largest column sum of |a|, each column summed in row order."""
    return float(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[1]).max())


def _norm1_lower(low: sp.csr_matrix, diag: np.ndarray) -> float:
    """||a||_1 of the symmetric a whose lower triangle is ``low``, with diagonal
    ``diag``: column j of |a| sums column j and row j of |low|, diag[j] once."""
    mag = np.abs(low.data)
    cols = np.bincount(low.indices, weights=mag, minlength=low.shape[1])
    return float((cols + _row_sums(mag, low.indptr) - np.abs(diag)).max(initial=0.0))


@_one_blas_thread()
def solve_smallest(K, M, m: int, shift: float = 0.0, tol: float = 1e-10,
                   x0: np.ndarray | None = None) -> EigenPairs:
    """The m smallest eigenpairs of K x = lambda M x, for a ``shift`` below lambda_1.

    K (symmetric, in full or as its lower triangle: a K that stores nothing above
    its diagonal is taken for one) and M (SPD, in full) are square, of equal
    size, dense or sparse.  The shift must lie below lambda_1, so that
    K - shift M is positive definite for its Cholesky factor; where it is not,
    the factor is retried once at a shift perturbed downwards (``shift`` in
    the result).
    ``tol`` bounds each pair's backward error and is checked on the result.
    Deterministic: a cold solve starts from one fixed vector, which an
    optional x0 (a vector or an (n, 1) column) replaces.
    The band map of a sparse K's pattern is kept while its index arrays live, so
    they must not be modified in place between solves (``sort_indices`` included).
    """
    if K.shape != M.shape or K.shape[0] != K.shape[1]:
        raise SolverError("pencil matrices must be square and of equal size")
    n = K.shape[0]
    M = sp.csr_matrix(M)
    if not 1 <= m <= n:
        raise SolverError(f"cannot extract {m} pairs from an n = {n} pencil")
    # every use of K reads its lower triangle L: K x = L x + L^T x - diag(L) x
    tri = _triangle(sp.csr_matrix(K))
    L, diag = tri[0], tri[0].diagonal()
    k_norm, m_norm = _norm1_lower(L, diag), _norm1(M)
    applied = 0
    U, used = _factorize(tri, M, shift)
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
    KX = L @ vectors + L.T @ vectors - diag[:, None] * vectors
    residuals = np.linalg.norm(KX - (M @ vectors) * values, axis=0) / (
        (k_norm + np.abs(values) * m_norm) * np.linalg.norm(vectors, axis=0))
    if not np.all(residuals <= tol):
        raise SolverError(f"backward errors {residuals} exceed tol {tol:g}")
    # deterministic sign: largest-magnitude entry positive
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(m)]
    return EigenPairs(values=values, vectors=vectors * np.where(peaks < 0, -1.0, 1.0),
                      residuals=residuals, iterations=applied, shift=used)
