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
stored zeros included.  K may be given as a short list of scaled symmetric
terms, a matrix being the one-term case: the 2D stack passes K(k) as
A0 + k A1 + k^2 A2 and the 1D gamma scans pass gamma^p_low K_op +
gamma^p_high K_b (+ K_0), so no sum of them is formed.  Each term is read
from its lower triangle only, given as it is or taken from a full matrix:
it scatters, scaled, into the band through its own band map, term after
term, so each band entry is the sum of the terms' entries in order, bit for
bit what their sparse sum would store.  For a shift s != 0 the term (-s, M)
is added last: k + (-(s m)) is k - s m.  ||K||_1, the largest column sum of
|K|, is read from the band before the shift (a column's entries on and above
the diagonal, and its row's entries right of it, which lie u apart in the
band's memory), and K x is summed from the terms (a triangle L stands for
L + L^T - diag(L)); neither holds a temporary of the band's or a term's size.
M, in every Lanczos step, is full, and ||M||_1 is computed once per M.  The
1D pencils have half-bandwidth 2 (quadratic Lagrange) or 3 (cubic Hermite).
The 2D pencils are numbered meridian-major, so their half-bandwidth,
3 (p (p_t n_thickness + 1) + p_t) + 2 at meridian degree p and thickness
degree p_t, grows with the thickness nodes: on the 2 cells that every
default uses it is 254 at p = p_t = 6 and 137 at p_t = 3, and the factor's
cost grows with its square.  What a pattern's solves reuse (its
half-bandwidth, its band map at one band width, ||M||_1 of the data on it)
is kept while the pattern's index buffer lives, so a family's or a scan's
maps are built at its first solve and die with it.  Dense inputs are
converted to CSR.

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


# entries of a term that one step of a band fill or norm reads: bounds the
# temporaries that the step makes next to the band
_CHUNK = 1 << 16


class _PatternCache:
    """What the solves of one CSR pattern reuse while its index buffer lives: its
    half-bandwidth ``u``, the positions of its diagonal entries if it stores nothing
    above its diagonal, its band map at one band width, and the 1-norm of one data
    buffer on it."""

    def __init__(self, a: sp.csr_matrix, spans: tuple):
        self.indptr, self.spans = None, spans  # a weak reference to the indptr buffer
        # rows are sorted, so each nonempty row's first and last entries bound it
        ptr = a.indptr
        rows = np.flatnonzero(np.diff(ptr))
        ends = ptr[rows + 1] - 1
        self.u = int((rows - a.indices[ptr[rows]]).max(initial=0))
        # a lower triangle's diagonal entries end their rows; None for a full pattern
        last = a.indices[ends]
        self.diagonal = ends[last == rows] if np.all(last <= rows) else None
        self.band_map = None  # (width, take, flat) of _build_band_map
        self.norm = None      # (weak reference to a data buffer, its span, ||a||_1)


# id of a CSR index buffer -> its _PatternCache; an entry dies with its index buffer
_PATTERNS: dict[int, _PatternCache] = {}


def _owner(x: np.ndarray):
    """The object that owns x's memory: x itself, or the array that x views."""
    return x if x.base is None else x.base


def _span(x: np.ndarray) -> tuple:
    return x.__array_interface__["data"][0], x.shape, x.strides, x.dtype.str


def _cached(a: sp.csr_matrix) -> _PatternCache:
    """The ``_PatternCache`` of a's CSR pattern, made once per pattern.

    It is keyed on the buffer that a's index array views and on the memory spans
    of a's two index arrays, and lives as long as that buffer does (nothing may
    modify it in place), so a family's or a scan's patterns die with it.
    """
    idx, ptr = _owner(a.indices), _owner(a.indptr)
    spans = _span(a.indices), _span(a.indptr)
    entry = _PATTERNS.get(id(idx))
    if entry is not None and entry.indptr() is ptr and entry.spans == spans:
        return entry
    made = _PatternCache(a, spans)
    try:
        made.indptr = weakref.ref(ptr)
        if entry is None:  # a first pattern for this buffer: drop it when the buffer dies
            weakref.finalize(idx, _PATTERNS.pop, id(idx), None).atexit = False
        _PATTERNS[id(idx)] = made
    except TypeError:  # a buffer that takes no weak reference is not cached
        pass
    return made


def _build_band_map(a: sp.csr_matrix, width: int):
    """``(take, flat)`` of a canonical CSR pattern: the positions of its lower-triangle
    entries a[j, i], i <= j, among its entries (None when it stores no other entry), and
    their flat indices in Fortran-ordered LAPACK upper band storage of half-bandwidth
    ``width``, int32 where they fit."""
    row = np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))
    take = None
    if _cached(a).diagonal is None:
        take = np.flatnonzero(a.indices <= row).astype(np.int32)
        row = row[take]
    # a[i, j], i = col <= j = row, goes to band (width + i - j, j): flat index
    # width (j + 1) + i in Fortran order, formed in place in row's array
    n = a.shape[0]
    flat = row.astype(np.int32 if (width + 1) * n <= np.iinfo(np.int32).max else np.intp,
                      copy=False)
    flat += 1
    flat *= width
    flat += a.indices if take is None else a.indices[take]
    return take, flat


def _band_map(a: sp.csr_matrix, width: int):
    """``_build_band_map(a, width)``, built once per pattern and band width."""
    entry = _cached(a)
    if entry.band_map is None or entry.band_map[0] != width:
        entry.band_map = (width, *_build_band_map(a, width))
    return entry.band_map[1:]


def _band(terms, width: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """LAPACK upper band storage, Fortran-ordered, of half-bandwidth ``width`` (the
    terms' largest when None), of the symmetric sum of ``terms``: each (scale, A)
    scaled and added, in order, into the zero band or into ``out``.

    A symmetric CSR matrix A, given in full or as its lower triangle, adds its
    lower triangle: row j's entries a[j, i], i <= j, are column j of the band
    (a[i, j] = a[j, i]), so they fill it as they are stored.  Each entry of the
    band is the sum of the terms' entries in order, bit for bit what the sparse
    sum scale_0 A_0 + scale_1 A_1 + ... stores.  A new band views a buffer that
    holds width^2 zeros past its end, which ``_band_norm1`` reads.
    """
    n = terms[0][1].shape[0]
    if width is None:
        width = max(_cached(A).u for _, A in terms)
    maps = [_band_map(A, width) for _, A in terms]  # before the band is allocated
    if out is None:
        out = np.zeros((width + 1) * n + width * width)[:(width + 1) * n].reshape(
            (width + 1, n), order="F")
    flat_band = out.reshape(-1, order="F")  # a view: out is Fortran-contiguous
    for (scale, A), (take, flat) in zip(terms, maps):
        for start in range(0, len(flat), _CHUNK):
            part = slice(start, start + _CHUNK)
            values = A.data[part] if take is None else A.data[take[part]]
            # flat holds no index twice: each entry of the band is added to once
            np.add.at(flat_band, flat[part], values if scale == 1.0 else scale * values)
    return out


def _band_norm1(band: np.ndarray) -> float:
    """||K||_1, the largest column sum of |K|, of the symmetric K in a band of ``_band``.

    Column j of |K| sums band column j, the entries K[i, j], i <= j, and the
    entries K[j, j + t], 0 < t <= u, of row j, which lie u apart in the band's
    memory from flat index (u + 1) j + 2 u on, the last of them in the zeros past
    the band's end.
    """
    u, n = band.shape[0] - 1, band.shape[1]
    buf = _owner(band)
    size = buf.itemsize
    row = np.lib.stride_tricks.as_strided(buf[2 * u:], shape=(n, u),
                                          strides=(size * (u + 1), size * u), writeable=False)
    step = max(1, _CHUNK // (u + 1))
    norm = 0.0
    for j in range(0, n, step):
        sums = np.abs(band[:, j:j + step]).sum(axis=0) + np.abs(row[j:j + step]).sum(axis=1)
        norm = max(norm, float(sums.max()))
    return norm


def _factorize(terms, M, shift: float) -> tuple[np.ndarray, float, float]:
    """Upper banded Cholesky factor U of K - s M = U^T U, the s used, and ||K||_1, for
    K the sum of ``terms``; a shift at which K - s M is not positive definite is
    retried once, perturbed downwards.  K - s M adds the term (-s, M) to K's band:
    k + (-(s m)) is k - s m, the sparse difference's entry, bit for bit."""
    shifts = [shift, shift - 1e-3 * abs(shift) if shift != 0.0 else -1e-8]
    u = max(_cached(A).u for _, A in terms)
    k_norm = None
    for s in shifts:
        width = u if s == 0.0 else max(u, _cached(M).u)
        if s != 0.0:
            _band_map(M, width)  # built before the band is allocated
        band = _band(terms, width)
        if k_norm is None:
            k_norm = _band_norm1(band)
        if s != 0.0:
            _band([(-s, M)], width, out=band)
        try:
            return sla.cholesky_banded(band, overwrite_ab=True), s, k_norm
        except np.linalg.LinAlgError as err:  # K - s M not positive definite
            last_err = err
    raise SolverError(f"factorization failed at shifts {shifts}: {last_err}")


def _norm1(a: sp.csr_matrix) -> float:
    """||a||_1, the largest column sum of |a|, each column summed in row order; kept
    with a's pattern while a's data buffer lives (nothing may modify it in place)."""
    entry, data = _cached(a), _owner(a.data)
    if entry.norm is None or entry.norm[0]() is not data or entry.norm[1] != _span(a.data):
        value = float(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[1]).max())
        entry.norm = (weakref.ref(data), _span(a.data), value)
    return entry.norm[2]


def _product(terms, X: np.ndarray) -> np.ndarray:
    """K X for K the sum of ``terms``; a term that stores nothing above its diagonal
    stands for the symmetric matrix L + L^T - diag(L)."""
    KX = np.zeros(X.shape)
    for scale, A in terms:
        AX = A @ X
        at = _cached(A).diagonal
        if at is not None:
            AX += A.T @ X
            rows = A.indices[at]
            AX[rows] -= A.data[at, None] * X[rows]
        KX += AX if scale == 1.0 else scale * AX
    return KX


def _csr(a) -> sp.csr_matrix:
    """``a`` as a canonical CSR matrix (sorted rows, no duplicates): itself if it is one."""
    a = a if sp.issparse(a) and a.format == "csr" else sp.csr_matrix(a)
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    return a


@_one_blas_thread()
def solve_smallest(K, M, m: int, shift: float = 0.0, tol: float = 1e-10,
                   x0: np.ndarray | None = None) -> EigenPairs:
    """The m smallest eigenpairs of K x = lambda M x, for a ``shift`` below lambda_1.

    K is a symmetric matrix, or a short list of (scale, matrix) terms of symmetric
    matrices that sum to it, in order; a matrix is the term (1.0, K).  Each matrix
    is given in full or as its lower triangle (one that stores nothing above its
    diagonal is taken for one).  M (SPD, in full) and the matrices are square, of
    equal size, dense or sparse.  The shift must lie below lambda_1, so that
    K - shift M is positive definite for its Cholesky factor; where it is not,
    the factor is retried once at a shift perturbed downwards (``shift`` in
    the result).
    ``tol`` bounds each pair's backward error and is checked on the result.
    Deterministic: a cold solve starts from one fixed vector, which an
    optional x0 (a vector or an (n, 1) column) replaces.
    The band map of a sparse matrix's pattern is kept while its index arrays
    live, and ||M||_1 while M's data lives, so neither may be modified in place
    between solves (``sort_indices`` included).
    """
    terms = ([(float(scale), _csr(A)) for scale, A in K] if isinstance(K, (list, tuple))
             else [(1.0, _csr(K))])
    M = _csr(M)
    n = M.shape[0]
    if not terms or M.shape[1] != n or any(A.shape != M.shape for _, A in terms):
        raise SolverError("pencil matrices must be square and of equal size")
    if not 1 <= m <= n:
        raise SolverError(f"cannot extract {m} pairs from an n = {n} pencil")
    m_norm = _norm1(M)
    applied = 0
    U, used, k_norm = _factorize(terms, M, shift)
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
    residuals = np.linalg.norm(_product(terms, vectors) - (M @ vectors) * values, axis=0) / (
        (k_norm + np.abs(values) * m_norm) * np.linalg.norm(vectors, axis=0))
    if not np.all(residuals <= tol):
        raise SolverError(f"backward errors {residuals} exceed tol {tol:g}")
    # deterministic sign: largest-magnitude entry positive
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(m)]
    return EigenPairs(values=values, vectors=vectors * np.where(peaks < 0, -1.0, 1.0),
                      residuals=residuals, iterations=applied, shift=used)
