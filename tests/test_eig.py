"""Shared generalized eigensolver against dense references."""

import ctypes
import gc
import inspect
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.linalg.cython_blas
import scipy.sparse as sp

import axishell as ax
from axishell import asymptotics, eig, fem1d, geometry, lame2d
from axishell.errors import SolverError


def test_diagonal_pencils():
    K = np.diag([1.0, 2.0])
    M = np.eye(2)
    out = eig.solve_smallest(K, M, 2)
    np.testing.assert_allclose(out.values, [1.0, 2.0], rtol=1e-12)
    K = np.diag([2.0, 5.0])
    out = eig.solve_smallest(K, M, 2)
    np.testing.assert_allclose(out.values, [2.0, 5.0], rtol=1e-12)


def test_identity_pencil():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12))
    M = A @ A.T + 12 * np.eye(12)
    out = eig.solve_smallest(M.copy(), M.copy(), 3)
    np.testing.assert_allclose(out.values, np.ones(3), rtol=1e-10)


def test_random_pencil_matches_dense_reference():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((50, 50))
    B = rng.standard_normal((50, 50))
    K = A @ A.T + 50 * np.eye(50)
    M = B @ B.T + 50 * np.eye(50)
    want = sla.eigh(K, M, eigvals_only=True)[:4]
    out = eig.solve_smallest(K, M, 4)
    np.testing.assert_allclose(out.values, want, rtol=1e-9)
    # sorted ascending, M-orthonormal
    assert np.all(np.diff(out.values) >= -1e-12)
    gram = out.vectors.T @ M @ out.vectors
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)


def test_dense_and_sparse_inputs_agree():
    # a dense pencil is converted and factored like its CSR copy
    rng = np.random.default_rng(7)
    n = 80
    main = 2.0 + rng.random(n)
    off = -0.5 * rng.random(n - 1)
    K = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    M = np.diag(1.0 + rng.random(n))
    dense = eig.solve_smallest(K, M, 3)
    sparse = eig.solve_smallest(sp.csr_matrix(K), sp.csr_matrix(M), 3)
    np.testing.assert_allclose(dense.values, sparse.values, rtol=1e-10)


def test_deterministic_cold_start():
    # two cold solves of one pencil start from the same fixed vector
    rng = np.random.default_rng(1)
    A = rng.standard_normal((30, 30))
    K = A @ A.T + 30 * np.eye(30)
    M = np.eye(30)
    a = eig.solve_smallest(K, M, 2)
    b = eig.solve_smallest(K, M, 2)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def _sparse_pencil(n=400, seed=3):
    # banded SPD stiffness with a far off-diagonal coupling, random diagonal mass
    rng = np.random.default_rng(seed)
    off = -rng.random(n - 1)
    far = -0.3 * np.ones(n - 20)
    K = sp.diags([far, off, 4.0 + rng.random(n), off, far], [-20, -1, 0, 1, 20])
    M = sp.diags(1.0 + rng.random(n))
    return K.tocsr(), M.tocsr()


def test_sparse_pencil_deterministic_cold_start():
    K, M = _sparse_pencil()
    a = eig.solve_smallest(K, M, 3)
    b = eig.solve_smallest(K, M, 3)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_warm_start_matches_cold_start():
    K, M = _sparse_pencil()
    cold = eig.solve_smallest(K, M, 1)
    # warm start from the mode of a nearby pencil, as a parameter scan does
    x0 = eig.solve_smallest(K + 1e-2 * sp.eye(K.shape[0]), M, 1).vectors
    warm = eig.solve_smallest(K, M, 1, x0=x0)
    np.testing.assert_allclose(warm.values, cold.values, rtol=1e-12)


def _shifted_h20_pencil():
    """A 1D H^2_0 pencil with a shift below lambda_1, as the gamma scans solve it."""
    prof = ax.preset("B")
    mesh = fem1d.Mesh1D.uniform(prof.interval, 24)
    K, M = fem1d.assemble_h20(prof, lambda z: 1.0 + z**2, lambda z: np.cos(z), mesh)
    lam1 = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)[0]
    return K, M, lam1 - 0.005 * abs(lam1)


@pytest.mark.parametrize("pencil", ["sparse", "shifted h20"])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("warm", [False, True])
def test_standard_form_solve_matches_dense_eigh(monkeypatch, pencil, m, warm):
    K, M, shift = (*_sparse_pencil(), 0.0) if pencil == "sparse" else _shifted_h20_pencil()
    # the dense reference of the same transformation: M x = nu (K - shift M) x,
    # lambda = shift + 1/nu; eigh(K, M) itself loses 2e-10 on the Hermite
    # pencil's lambda_1, whose M has condition number 4e4
    nu, X = sla.eigh(M.toarray(), (K - shift * M).toarray())
    want = shift + 1.0 / nu[::-1]
    x0 = X[:, -1] + 1e-3 * np.random.default_rng(2).standard_normal(len(nu)) if warm else None
    # each application of U^-T M U^-1 makes one transposed triangular solve
    transposed = []
    tbsv = eig.sla.blas.dtbsv

    def counting(*args, **kwargs):
        transposed.append(kwargs.get("trans", 0) == 1)
        return tbsv(*args, **kwargs)

    monkeypatch.setattr(eig.sla.blas, "dtbsv", counting)
    out = eig.solve_smallest(K, M, m, shift=shift, x0=x0)
    assert out.shift == shift
    np.testing.assert_allclose(out.values, want[:m], rtol=1e-12, atol=0)
    gram = out.vectors.T @ (M @ out.vectors)
    np.testing.assert_allclose(gram, np.eye(m), rtol=0, atol=1e-12)
    assert out.iterations == sum(transposed) > 0
    assert len(transposed) == 2 * out.iterations + m  # plus x = U^-1 y per pair


def test_dense_solve_of_every_pair_uses_the_standard_form():
    # m = n is beyond ARPACK and solved densely, on U^-T M U^-1 at the shift used
    # like m < n; eigh(K, M) missed this pencil's lambda_1 by 2.3e-10 relative
    K, M, shift = _shifted_h20_pencil()
    n = K.shape[0]
    assert n == 46
    full, first = (eig.solve_smallest(K, M, m, shift=shift) for m in (n, 1))
    assert full.shift == first.shift == shift
    assert abs(full.values[0] / first.values[0] - 1.0) <= 1e-12
    assert np.all(np.diff(full.values) > 0)
    low = full.vectors[:, :3]
    np.testing.assert_allclose(low.T @ (M @ low), np.eye(3), rtol=0, atol=1e-12)


def _band_pencils():
    """(name, pencil, scales, dense K) of 1D and 2D pencils, a dense input and a far
    coupling: matrices made pencils on the spot, and a 2D family's pencil."""
    prof = ax.preset("B")
    mesh1d = fem1d.Mesh1D.uniform(prof.interval, 24)
    K1, M1 = fem1d.assemble_h20(prof, lambda z: 1.0 + z**2, lambda z: np.cos(z), mesh1d)
    mesh2d = lame2d.build_meridian_mesh(ax.preset("D"), 0.1, 4, 2)
    fam = lame2d.get_family(mesh2d, 3)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((9, 9))
    out = []
    for name, K, M in [("h20 K", K1, M1), ("h20 M", M1, M1), ("2d M", fam.pencil.M, fam.pencil.M),
                       ("dense", A @ A.T + np.diag(np.arange(9.0)), np.eye(9)),
                       ("far", *_sparse_pencil())]:
        out.append((name, eig.Pencil.from_matrices([K], M), [1.0], sp.csr_matrix(K).toarray()))
    # K(k) as the family's blocks at the scales 1, k and k^2, and summed in full
    for k in range(6):
        system = lame2d.assemble_fourier_lame(mesh2d, k, degree=3)
        dense = system.stiffness.toarray()
        out.append((f"2d K({k}) blocks", fam.pencil, system.scales, dense))
        out.append((f"2d K({k}) full", eig.Pencil.from_matrices([system.stiffness], fam.pencil.M),
                    [1.0], dense))
    return out


def _reach(*dense):
    """The largest distance below the diagonal of a nonzero entry of the matrices."""
    return max(int(np.max(np.subtract(*np.nonzero(x)))) for x in dense)


def test_upper_band_matches_a_band_built_diagonal_by_diagonal():
    for name, pencil, scales, dense in _band_pencils():
        u = _reach(dense, pencil.M.toarray())
        assert pencil.width == u, name
        want = np.zeros((u + 1, len(dense)))
        for d in range(u + 1):
            want[u - d, d:] = np.diag(dense, d)
        band = eig._band(pencil, scales)
        assert band.flags.f_contiguous, name
        assert band.shape == want.shape and np.array_equal(band, want), name


def test_shifted_band_is_the_band_of_the_sparse_difference():
    # the factor's K - s M adds M's lower triangle, scaled by -s, to K's band:
    # entry for entry what scipy's sparse difference holds, also where K's and
    # M's half-bandwidths differ
    rng = np.random.default_rng(4)
    h20 = _band_pencils()[:2]
    diag = sp.diags(1.0 + rng.random(46)).tocsr()
    tri = sp.diags([rng.random(45), 2.0 + rng.random(46), rng.random(45)], [-1, 0, 1]).tocsr()
    K1, M1 = (sp.csr_matrix(dense) for *_, dense in h20)
    for K, M in ((K1, M1), (diag, tri), (tri, diag)):
        pencil = eig.Pencil.from_matrices([K], M)
        for s in (0.7, -1.3):
            got = eig._band(pencil, [1.0])
            eig._add_lower(got, pencil.M, -s)
            want = eig._band(eig.Pencil.from_matrices([(K - s * M).tocsr()], M), [1.0])
            assert got.shape == want.shape and np.array_equal(got, want)
            # M as the last term of a pencil adds the same entries
            both = eig._band(eig.Pencil.from_matrices([K, M], M), [1.0, -s])
            assert np.array_equal(both, want)


def test_band_map_built_once_per_family_and_dropped_with_it(monkeypatch):
    # the family builds its pencil, with the one band map of its solves, once;
    # the pencil and its map die with the family
    built = []
    init = eig.Pencil.__init__

    def counting(self, *args):
        built.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(eig.Pencil, "__init__", counting)
    mesh = lame2d.build_meridian_mesh(ax.preset("B"), 0.1, 4, 2)
    for k in range(6):
        lame2d.first_eigenpair_2d(lame2d.assemble_fourier_lame(mesh, k, degree=3))
    fam = lame2d.get_family(mesh, 3)
    assert [ref() for ref in built] == [fam.pencil]
    pencil = fam.pencil
    # one base per node pair, at the width of the widest block, A0's (tau, r)
    assert pencil.base.dtype == np.int32 and len(pencil.base) == pencil.strict + pencil.n // 3
    assert pencil.width == 3 * int(np.max(pencil.rows() - pencil.cols)) + 2
    base = weakref.ref(pencil.base)
    del mesh, fam, pencil
    gc.collect()
    assert built[0]() is None and base() is None


def test_full_pattern_band_map_records_its_triangle():
    # a full K (the 1D assemblers, dense input) and its lower triangle make the
    # same pencil: its strict entries in row order, then its diagonal
    K, M = (sp.csr_matrix(dense) for *_, dense in _band_pencils()[:2])
    L = sp.tril(K, format="csr")
    full, lower = (eig.Pencil.from_matrices([A], M) for A in (K, L))
    for part in ("indptr", "cols", "base"):
        assert np.array_equal(getattr(full, part), getattr(lower, part)), part
    entries = full.terms[0][0, 0]
    assert np.array_equal(entries, lower.terms[0][0, 0])
    assert np.array_equal(entries, np.concatenate([sp.tril(K, -1, format="csr").data,
                                                   K.diagonal()]))
    assert np.array_equal(eig._band(full, [1.0]), eig._band(lower, [1.0]))


def test_norm1_matches_scipy_column_sums_bit_for_bit():
    for name, pencil, _, dense in _band_pencils():
        assert pencil.m_norm == float(abs(pencil.M).sum(axis=0).max()), name
        assert eig._norm1(sp.csr_matrix(dense)) == float(abs(sp.csr_matrix(dense)).sum(axis=0).max())


def test_mass_norm_kept_while_its_data_lives(monkeypatch):
    # ||M||_1 is computed once per pencil, which keeps it for every solve and
    # drops it with M
    counted = []
    norm1 = eig._norm1

    def counting(a):
        counted.append(1)
        return norm1(a)

    monkeypatch.setattr(eig, "_norm1", counting)
    mesh = lame2d.build_meridian_mesh(ax.preset("H"), 0.1, 4, 2)
    for k in range(3):
        lame2d.first_eigenpair_2d(lame2d.assemble_fourier_lame(mesh, k, degree=3))
    pencil = lame2d.get_family(mesh, 3).pencil
    assert len(counted) == 1 and pencil.m_norm == norm1(pencil.M)
    data = weakref.ref(pencil.M.data)
    del mesh, pencil
    gc.collect()
    assert data() is None


def test_norm1_of_a_lower_triangle_matches_the_full_matrix():
    # ||K||_1 from the blocks, each entry counted in its column and, mirrored, in
    # its row, summed in another order than the full matrix's column sums
    empty_row = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, -1.0], [0.0, -1.0, 3.0]])
    cases = [(name, pencil, scales, dense) for name, pencil, scales, dense in _band_pencils()]
    cases.append(("empty row", eig.Pencil.from_matrices([empty_row], np.eye(3)), [1.0], empty_row))
    for name, pencil, scales, dense in cases:
        want = eig._norm1(sp.csr_matrix(dense))
        lower = eig.Pencil.from_matrices([sp.tril(dense, format="csr")], pencil.M)
        for got in (eig._stiffness_norm1(pencil, scales), eig._stiffness_norm1(lower, [1.0])):
            assert abs(got / want - 1.0) <= 1e-15, name
    # a row with no stored entry, solved below a shift that makes K - s M definite
    out = eig.solve_smallest(sp.csr_matrix(empty_row), np.eye(3), 2, shift=-1.0)
    np.testing.assert_allclose(out.values, [0.0, sla.eigvalsh(empty_row)[1]], atol=1e-12)


def test_product_from_blocks_matches_the_full_matrix():
    # K X from each block's node matrix, its transpose and its diagonal pairs
    X = np.random.default_rng(6).standard_normal
    for name, pencil, scales, dense in _band_pencils():
        x = X((len(dense), 2))
        np.testing.assert_allclose(eig._product(pencil, scales, x), dense @ x,
                                   rtol=0, atol=1e-13 * np.abs(dense).max() * np.abs(x).max()
                                   * len(dense), err_msg=name)


def test_eig_keeps_no_state_between_solves():
    # what a solve reuses lives on its pencil: the module holds no mutable
    # container, no id() keys and no weak references, beside the BLAS setter
    immutable = (int, float, str, tuple, frozenset, type(None))
    state = {name: value for name, value in vars(eig).items()
             if not name.startswith("__") and not inspect.ismodule(value)
             and not inspect.isfunction(value) and not inspect.isclass(value)
             and not isinstance(value, immutable)
             and type(value).__module__ != "__future__"}  # ``annotations``
    assert list(state) == ["_SET_BLAS_THREADS"]
    source = inspect.getsource(eig)
    assert "weakref" not in source and "id(" not in source


def _pencils():
    """(name, K, M) of one 1D and one 2D pencil."""
    prof = ax.preset("B")
    K1, M1 = fem1d.assemble_h20(prof, lambda z: 1.0 + z**2, lambda z: np.cos(z),
                                fem1d.Mesh1D.uniform(prof.interval, 24))
    system = lame2d.assemble_fourier_lame(
        lame2d.build_meridian_mesh(ax.preset("D"), 0.1, 4, 2), 3, degree=3)
    return [("1d", K1, M1), ("2d", system.stiffness, system.mass)]


@pytest.mark.parametrize("which", [0, 1], ids=["1d", "2d"])
@pytest.mark.parametrize("shift", [0.0, -0.5])
def test_lower_triangle_and_full_pencil_solve_alike(which, shift):
    # the solver reads K's lower triangle only, so K in full and tril(K) give the
    # same band, factor and Lanczos run; the residuals' sums differ in order only
    _, K, M = _pencils()[which]
    full = eig.solve_smallest(K, M, 3, shift=shift)
    lower = eig.solve_smallest(sp.tril(K, format="csr"), M, 3, shift=shift)
    assert np.array_equal(full.values, lower.values)
    assert np.array_equal(full.vectors, lower.vectors)
    assert full.iterations == lower.iterations and full.shift == lower.shift
    assert np.all(np.abs(full.residuals - lower.residuals) <= 1e-14)


def _scan_terms(monkeypatch, scan, gamma):
    """The (scales, pencil) that ``scan.mu1(gamma)`` hands the solver."""
    seen = []
    solve = fem1d.smallest_eigenpairs

    def recording(K, M, **kwargs):
        seen.append((K, M))
        return solve(K, M, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(fem1d, "smallest_eigenpairs", recording)
        scan.mu1(gamma)
    return seen[0]


def _term_pencils(monkeypatch):
    """(scales, pencil, their sparse sum, M): the parabolic and the elliptic 1D scan
    at one gamma, the scales and pencil as mu1 passes them and the sum as it was
    formed before, and a 2D K(k)."""
    scan = asymptotics._parabolic_scan(ax.preset("B"))
    gamma = 1.7
    ell = asymptotics._elliptic_scan(ax.preset("H"), asymptotics.compute(ax.preset("H")).a0, 1e-3)
    k = 14.0
    system = lame2d.assemble_fourier_lame(
        lame2d.build_meridian_mesh(ax.preset("D"), 0.1, 4, 2), 3, degree=3)
    return {
        "1d": (*_scan_terms(monkeypatch, scan, gamma),
               gamma ** -4 * scan.K_op + gamma ** 4 * scan.K_b, scan.M),
        "1d K_0": (*_scan_terms(monkeypatch, ell, k),
                   ell.K_0 + (k ** -2 * ell.K_op + k ** 4 * ell.K_b), ell.M),
        "2d": (system.scales, system.family.pencil, system.stiffness, system.mass),
    }


@pytest.mark.parametrize("which", ["1d", "1d K_0", "2d"])
@pytest.mark.parametrize("shift", [0.0, -0.5])
def test_terms_and_their_sum_solve_alike(which, shift, monkeypatch):
    # the band of the pencil's terms is the band of their sparse sum, so both give
    # the same factor and Lanczos run; K x comes from the blocks, in another order
    scales, pencil, K, M = _term_pencils(monkeypatch)[which]
    assert isinstance(pencil, eig.Pencil) and len(scales) == len(pencil.terms)
    assert np.array_equal(eig._band(pencil, scales),
                          eig._band(eig.Pencil.from_matrices([K], M), [1.0]))
    split = eig.solve_smallest(scales, pencil, 3, shift=shift)
    summed = eig.solve_smallest(K, M, 3, shift=shift)
    assert np.array_equal(split.values, summed.values)
    assert np.array_equal(split.vectors, summed.vectors)
    assert split.iterations == summed.iterations and split.shift == summed.shift
    assert np.all(np.abs(split.residuals - summed.residuals) <= 1e-14)


def test_scan_builds_one_pencil_for_all_its_solves(monkeypatch):
    # a gamma scan holds one pencil of its matrices for all its solves, the first
    # of them lambda_1[K_op], not a sum, a triangle and a map per solve
    built = []
    init = eig.Pencil.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    solves = []
    solve = eig.solve_smallest

    def counting_solves(*args, **kwargs):
        solves.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(eig.Pencil, "__init__", counting)
    monkeypatch.setattr(eig, "solve_smallest", counting_solves)
    scan = asymptotics.compute(ax.preset("B")).diagnostics["scan"]
    assert len(solves) >= 10  # lambda_1[K_op] and the scan's solves
    assert built == [scan.pencil] and all(M is scan.pencil for M in solves)
    assert len(scan.pencil.terms) == 2 and scan.pencil.M is scan.M


def test_not_positive_definite_shift_is_retried_below():
    # shift above lambda_1: K - shift M is indefinite there and at the retry below it
    K, M = np.diag([1.0, 2.0, 3.0]), np.eye(3)
    with pytest.raises(SolverError, match=r"factorization failed at shifts \[2\.5, 2\.4975\]"):
        eig.solve_smallest(K, M, 1, shift=2.5)


def test_singular_shift_retry():
    # shift exactly at an eigenvalue: K - shift M singular; the retry kicks in
    K = np.diag([1.0, 2.0, 3.0])
    M = np.eye(3)
    out = eig.solve_smallest(K, M, 1, shift=1.0)
    np.testing.assert_allclose(out.values, [1.0], rtol=1e-9)
    assert out.shift == pytest.approx(0.999, rel=1e-12)
    assert out.iterations > 0


def test_unmet_tolerance_and_no_convergence_raise(monkeypatch):
    rng = np.random.default_rng(42)
    A = rng.standard_normal((50, 50))
    B = rng.standard_normal((50, 50))
    K, M = A @ A.T + 50 * np.eye(50), B @ B.T + 50 * np.eye(50)
    with pytest.raises(SolverError, match="exceed tol"):
        eig.solve_smallest(K, M, 4, tol=1e-30)
    monkeypatch.setattr(eig, "MAX_RESTARTS", 1)
    with pytest.raises(SolverError, match="No convergence"):
        eig.solve_smallest(K, M, 4)


def test_no_start_vector_or_restart_knobs():
    # every cold solve starts from one fixed vector under one restart cap, so no
    # function or class of the solver stack takes a seed or an iteration cap;
    # every 1D constant comes from one fixed discretization, so asymptotics
    # takes no element count and geometry no sample count
    knobs = []
    for module, names in ((eig, ("seed", "max_iter")), (fem1d, ("seed", "max_iter")),
                          (lame2d, ("seed", "max_iter")),
                          (asymptotics, ("seed", "max_iter", "n_elements")),
                          (geometry, ("n_samples",))):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) \
                    and obj.__module__ == module.__name__:
                params = inspect.signature(obj).parameters
                knobs += [f"{module.__name__}.{name}({p})" for p in names if p in params]
    assert not knobs


def test_residuals_reported():
    K = np.diag([1.0, 4.0, 9.0])
    M = np.eye(3)
    out = eig.solve_smallest(K, M, 2, tol=1e-12)
    assert np.all(out.residuals <= 1e-12)


def test_bad_sizes():
    with pytest.raises(SolverError, match="square and of equal size"):
        eig.solve_smallest(np.eye(3), np.eye(4), 1)
    with pytest.raises(SolverError, match="square and of equal size"):
        eig.solve_smallest(np.ones((3, 4)), np.ones((3, 4)), 1)
    with pytest.raises(SolverError):
        eig.solve_smallest(np.eye(3), np.eye(3), 5)


_OPENBLAS = ctypes.CDLL(scipy.linalg.cython_blas.__file__)


@pytest.fixture
def two_blas_threads():
    """The caller's OpenBLAS count set to 2 (as read back), restored afterwards."""
    before = _OPENBLAS.scipy_openblas_get_num_threads()
    _OPENBLAS.scipy_openblas_set_num_threads(2)
    yield _OPENBLAS.scipy_openblas_get_num_threads()
    _OPENBLAS.scipy_openblas_set_num_threads(before)


def _record_threads(monkeypatch, module, name, seen, fail=None):
    """Patch ``module.<name>`` to log the OpenBLAS count it runs with, then call
    through or raise ``fail``."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append((name, _OPENBLAS.scipy_openblas_get_num_threads()))
        if fail is not None:
            raise fail
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_solve_runs_factor_and_lanczos_on_one_blas_thread(monkeypatch, two_blas_threads):
    # scipy here links OpenBLAS, so the limiter must not be a silent no-op
    assert eig._SET_BLAS_THREADS is not None
    seen = []
    _record_threads(monkeypatch, eig.sla, "cholesky_banded", seen)
    _record_threads(monkeypatch, eig.spla, "eigsh", seen)
    _record_threads(monkeypatch, eig.sla.blas, "dtbsv", seen)
    K, M = _sparse_pencil()
    out = eig.solve_smallest(K, M, 2)
    assert seen[:2] == [("cholesky_banded", 1), ("eigsh", 1)]
    # two triangular solves per Lanczos step, one per returned pair
    assert seen[2:] == [("dtbsv", 1)] * (2 * out.iterations + 2)
    assert _OPENBLAS.scipy_openblas_get_num_threads() == two_blas_threads


def test_caller_blas_threads_restored_after_solver_error(monkeypatch, two_blas_threads):
    seen = []
    _record_threads(monkeypatch, eig.spla, "eigsh", seen, fail=eig.spla.ArpackError(-9999))
    K, M = _sparse_pencil()
    with pytest.raises(SolverError, match="shift-invert Lanczos failed"):
        eig.solve_smallest(K, M, 1)
    assert seen == [("eigsh", 1)]
    assert _OPENBLAS.scipy_openblas_get_num_threads() == two_blas_threads


_L44 = """
from axishell import lame2d, profiles
mesh = lame2d.build_meridian_mesh(profiles.preset("L"), 1e-4, 48, 2)
rec, _ = lame2d.first_eigenpair_2d(lame2d.assemble_fourier_lame(mesh, 44))
print(rec.dof_count, rec.lambda1.hex())
"""


def test_2d_eigenvalue_does_not_depend_on_blas_thread_count():
    # modes2d's L@1e-4 k44 pencil, whose lambda differed in its last bits
    # between one and two OpenBLAS threads while the solve used the caller's count
    src = str(Path(ax.__file__).parents[1])
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs.append(subprocess.Popen([sys.executable, "-c", _L44], env=env, text=True,
                                      stdout=subprocess.PIPE))
    one, two = (p.communicate(timeout=120)[0].split() for p in procs)
    assert all(p.returncode == 0 for p in procs)
    assert one[0] == "11193"
    assert one == two
