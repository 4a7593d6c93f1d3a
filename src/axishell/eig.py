"""Generalized symmetric-definite eigensolver shared by the 1D and 2D stacks.

Shift-invert Lanczos (ARPACK through ``scipy.sparse.linalg.eigsh``; Lehoucq,
Sorensen and Yang 1998) on one banded Cholesky factor of K - shift M (LAPACK
``dpbtrf``/``dpbtrs``; Golub and Van Loan, *Matrix Computations*, sec. 4.3).
Both stacks pass exactly symmetric CSR pencils in an ordering that is already
banded, so no fill-reducing ordering is computed: the factor fills the band,
stored zeros included.  The 1D pencils have half-bandwidth 2 (quadratic
Lagrange) or 3 (cubic Hermite).  The 2D pencils are numbered meridian-major,
so their half-bandwidth, 3 (p (p_t n_thickness + 1) + p_t) + 2 at meridian
degree p and thickness degree p_t, grows with the thickness nodes: on the 2
cells that every default uses it is 254 at p = p_t = 6 and 137 at p_t = 3,
and the factor's cost grows with its square.  Dense inputs are converted to
CSR.

Every solve runs its BLAS on one thread.  On these pencils a second OpenBLAS
thread mostly spins (on 2 cores it doubled the CPU time of the 2D wavenumber
sweeps without shortening them), pool workers would multiply the threads past
the cores, and a threaded BLAS reduction rounds differently with the thread
count, so the 2D eigenvalues would depend on the machine's core count.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.linalg.cython_blas
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

__all__ = ["EigenPairs", "solve_smallest"]


@dataclass
class EigenPairs:
    values: np.ndarray      # ascending
    vectors: np.ndarray     # columns, M-orthonormal
    residuals: np.ndarray   # ||K x - lambda M x|| / ((||K||_1 + |lambda| ||M||_1) ||x||)
    iterations: int         # applications of (K - shift M)^{-1}
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


def _upper_band(a) -> np.ndarray:
    """LAPACK upper band storage of an exactly symmetric matrix, Fortran-ordered.

    ``a`` is dense or canonical CSR: a duplicate entry would overwrite, not add.
    Row j's entries a[j, i], i <= j, are column j of the band (a[i, j] = a[j, i]),
    so the lower triangle fills it without a transpose.
    """
    a = sp.csr_matrix(a)
    n = a.shape[0]
    row = np.repeat(np.arange(n, dtype=np.intp), np.diff(a.indptr))
    lower = a.indices <= row
    row, col = row[lower], a.indices[lower]
    u = int((row - col).max(initial=0))
    # a[i, j], i = col <= j = row, goes to band (u + i - j, j): flat index u (j + 1) + i
    # in Fortran order, formed in place in row's intp array (fewer temporaries)
    flat = row
    flat += 1
    flat *= u
    flat += col
    band = np.zeros((u + 1) * n)
    band[flat] = a.data[lower]
    return band.reshape((u + 1, n), order="F")


def _factorize(K, M, shift: float):
    """Solver for K - s M and the s used, from a banded Cholesky factor; a shift
    at which K - s M is not positive definite is retried once, perturbed downwards."""
    shifts = [shift, shift - 1e-3 * abs(shift) if shift != 0.0 else -1e-8]
    for s in shifts:
        try:
            cb = sla.cholesky_banded(_upper_band(K - s * M if s != 0.0 else K),
                                     overwrite_ab=True)
        except np.linalg.LinAlgError as err:  # K - s M not positive definite
            last_err = err
            continue
        return (lambda b: sla.cho_solve_banded((cb, False), b, check_finite=False)), s
    raise SolverError(f"factorization failed at shifts {shifts}: {last_err}")


def _norm1(a: sp.csr_matrix) -> float:
    """||a||_1, the largest column sum of |a|, each column summed in row order."""
    return float(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[1]).max())


@_one_blas_thread()
def solve_smallest(K, M, m: int, shift: float = 0.0, tol: float = 1e-10, seed: int = 0,
                   max_iter: int = 200, x0: np.ndarray | None = None) -> EigenPairs:
    """The m smallest eigenpairs of K x = lambda M x, for a ``shift`` below lambda_1.

    K (symmetric) and M (SPD) are square, of equal size, dense or sparse.  The
    shift must lie below lambda_1, so that K - shift M is positive definite for
    its Cholesky factor; where it is not, the factor is retried once at a
    shift perturbed downwards (``shift`` in the result).
    ``max_iter`` caps ARPACK's restarts; ``tol`` bounds each pair's backward
    error and is checked on the result.  Deterministic for a fixed seed; an
    optional x0 (a vector or an (n, 1) column) replaces the seeded start vector.
    """
    if K.shape != M.shape or K.shape[0] != K.shape[1]:
        raise SolverError("pencil matrices must be square and of equal size")
    n = K.shape[0]
    K, M = sp.csr_matrix(K), sp.csr_matrix(M)
    if not 1 <= m <= n:
        raise SolverError(f"cannot extract {m} pairs from an n = {n} pencil")
    applied, used = 0, shift
    if m == n:  # ARPACK needs m < n; a pencil this small is solved densely
        values, vectors = sla.eigh(K.toarray(), M.toarray())
    else:
        solve, used = _factorize(K, M, shift)

        def apply(b):
            nonlocal applied
            applied += 1
            return solve(b)

        v0 = np.random.default_rng(seed).standard_normal(n) if x0 is None else np.ravel(x0)
        # each Ritz value of (K - used M)^-1 M to 1e-12 relative, so lambda - used too;
        # tol=0 stalls on the near-degenerate bottoms of the 1D scans at extreme gamma
        try:
            values, vectors = spla.eigsh(
                K, k=m, M=M, sigma=used, which="LM", v0=v0, tol=1e-12, maxiter=max_iter,
                ncv=min(n, max(2 * m + 1, 12)),  # 30 % fewer solves than scipy's 20
                OPinv=spla.LinearOperator((n, n), matvec=apply, dtype=float))
        except spla.ArpackError as err:
            raise SolverError(f"shift-invert Lanczos failed: {err}") from None
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]
    k_norm, m_norm = _norm1(K), _norm1(M)
    residuals = np.linalg.norm(K @ vectors - (M @ vectors) * values, axis=0) / (
        (k_norm + np.abs(values) * m_norm) * np.linalg.norm(vectors, axis=0))
    if not np.all(residuals <= tol):
        raise SolverError(f"backward errors {residuals} exceed tol {tol:g}")
    # deterministic sign: largest-magnitude entry positive
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(m)]
    return EigenPairs(values=values, vectors=vectors * np.where(peaks < 0, -1.0, 1.0),
                      residuals=residuals, iterations=applied, shift=used)
