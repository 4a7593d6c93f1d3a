"""1D finite elements: oracles, symmetry, convergence."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import axishell as ax
from axishell import fem1d, lame2d
from axishell.errors import AdmissibilityError, AssemblyError, GeometryError
from axishell.profiles import ShellProfile

UNIT = ShellProfile("affine", (0.0, 1.0), coeffs=(1.0,))


def beam_reference():
    # clamped-beam characteristic equation cos(k) cosh(k) = 1
    kappa = brentq(lambda x: math.cos(x) * math.cosh(x) - 1.0, 4.0, 5.5, xtol=1e-14)
    return kappa**4


def test_clamped_beam_oracle():
    lam_ref = beam_reference()
    assert abs(lam_ref - 500.564) < 1e-3
    mesh = fem1d.Mesh1D.uniform((0.0, 1.0), 64)
    lam = fem1d.smallest_eigenpairs(*fem1d.assemble_h20(UNIT, 1.0, 0.0, mesh)).values[0]
    assert abs(lam - lam_ref) <= 1e-5 * lam_ref
    assert abs(lam - 500.564) <= 1e-3 + 1e-5 * lam_ref


def test_beam_interval_scaling():
    lam_ref = beam_reference()
    for L in (0.5, 2.0):
        prof = ShellProfile("affine", (0.0, L), coeffs=(1.0,))
        mesh = fem1d.Mesh1D.uniform((0.0, L), 64)
        lam = fem1d.smallest_eigenpairs(*fem1d.assemble_h20(prof, 1.0, 0.0, mesh)).values[0]
        assert abs(lam - lam_ref / L**4) <= 1e-5 * lam_ref / L**4


def test_shift_adds_constant():
    mesh = fem1d.Mesh1D.uniform((0.0, 1.0), 32)
    (K, M), (K_shifted, _) = (fem1d.assemble_h20(UNIT, 1.0, s, mesh) for s in (0.0, 2.5))
    scale = abs(K).max()
    np.testing.assert_allclose(
        K_shifted.toarray(), (K + 2.5 * M).toarray(), rtol=0, atol=1e-14 * scale
    )
    lam0 = fem1d.smallest_eigenpairs(K, M).values[0]
    lam1 = fem1d.smallest_eigenpairs(K_shifted, M).values[0]
    assert abs(lam1 - lam0 - 2.5) < 1e-8


def test_dirichlet_laplacian():
    prof = ShellProfile("affine", (0.0, math.pi), coeffs=(1.0,))
    mesh = fem1d.Mesh1D.uniform((0.0, math.pi), 64)
    pairs = fem1d.smallest_eigenpairs(*fem1d.assemble_h10(prof, 1.0, 0.0, mesh), m=3)
    np.testing.assert_allclose(pairs.values, [1.0, 4.0, 9.0], rtol=1e-5)


def test_harmonic_oscillator_oracle():
    # -u'' + (93/256) z^2 u on a large interval: eigenvalues (2l-1) c with
    # c = sqrt(g * Vdd / 2), Vdd = 93/128, g = 1
    c = math.sqrt((93.0 / 128.0) / 2.0)
    prof = ShellProfile("affine", (-12.0, 12.0), coeffs=(1.0,))
    mesh = fem1d.Mesh1D.uniform((-12.0, 12.0), 256)
    K, M = fem1d.assemble_h10(prof, 1.0, lambda z: (93.0 / 256.0) * z**2, mesh)
    lam = fem1d.smallest_eigenpairs(K, M, m=2).values
    assert abs(lam[0] - c) <= 1e-6 * c
    assert abs(lam[1] - 3 * c) <= 1e-5 * c


def test_model_D_second_order_positive():
    res = ax.toroidal_constants(ax.preset("D"))
    assert res.lambda2 > 0.0


def test_exact_symmetry_and_nonnegativity():
    prof = ax.preset("H")
    mesh = fem1d.Mesh1D.uniform(prof.interval, 24)
    K, M = fem1d.assemble_h20(prof, 1.0, 0.5, mesh)
    K2, _ = fem1d.assemble_h10(prof, 1.0, 0.0, mesh)
    for A in (K, M, K2):
        assert (A != A.T).nnz == 0
    vals = np.linalg.eigvalsh(K.toarray())
    assert vals.min() > 0.0


def test_h4_convergence_order():
    lam_ref = beam_reference()
    errs = []
    for n in (16, 32, 64):
        mesh = fem1d.Mesh1D.uniform((0.0, 1.0), n)
        lam = fem1d.smallest_eigenpairs(*fem1d.assemble_h20(UNIT, 1.0, 0.0, mesh)).values[0]
        errs.append(abs(lam - lam_ref))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 3.7 and order2 >= 3.7


def test_refinement_monotone():
    lams = []
    for n in (16, 32, 64):
        mesh = fem1d.Mesh1D.uniform((0.0, 1.0), n)
        lams.append(fem1d.smallest_eigenpairs(*fem1d.assemble_h20(UNIT, 1.0, 0.0, mesh)).values[0])
    assert lams[1] <= lams[0] * (1 + 1e-12)
    assert lams[2] <= lams[1] * (1 + 1e-12)


def test_assembly_guards():
    mesh = fem1d.Mesh1D.uniform((0.0, 1.0), 8)
    with pytest.raises(AssemblyError):
        fem1d.assemble_h20(UNIT, lambda z: z - 0.5, 0.0, mesh)
    with pytest.raises(AdmissibilityError):
        fem1d.assemble_h10(UNIT, lambda z: 0.2 - z, 0.0, mesh)


def test_mesh_validation_and_grading():
    with pytest.raises(GeometryError):
        fem1d.Mesh1D(np.array([0.0, 0.5, 0.4, 1.0]))
    graded = fem1d.Mesh1D.boundary_graded((0.0, 1.0), 16, 1.2)
    assert len(graded.nodes) == 17
    assert graded.nodes[0] == 0.0 and graded.nodes[-1] == 1.0
    sizes = np.diff(graded.nodes)
    assert sizes[0] < sizes[7]  # finer near the boundary
    assert abs(sizes[0] - sizes[-1]) < 1e-15


def test_eigen_solution_rayleigh_quotient():
    mesh = fem1d.Mesh1D.uniform((0.0, 1.0), 32)
    K, M = fem1d.assemble_h20(UNIT, 1.0, 0.0, mesh)
    pairs = fem1d.smallest_eigenpairs(K, M)
    x, lam = pairs.vectors[:, 0], pairs.values[0]
    rq = (x @ (K @ x)) / (x @ (M @ x))
    assert abs(rq - lam) <= 1e-10 * lam


def test_batched_assembly_regression():
    # z-dependent coefficients on a boundary-graded mesh of an arc profile;
    # the eigenvalues are pinned from the per-element-loop assembly
    prof = ax.preset("D")
    mesh = fem1d.Mesh1D.boundary_graded(prof.interval, 24, 1.2)
    a20 = fem1d.assemble_h20(prof, lambda z: 1.0 + 0.5 * z**2, lambda z: 0.25 * np.cos(z), mesh)
    a10 = fem1d.assemble_h10(prof, lambda z: 2.0 - z, lambda z: z * z, mesh)
    w20 = fem1d.assemble_weighted_mass(prof, lambda z: 1.0 + z**4, mesh, "H20")
    w10 = fem1d.assemble_weighted_mass(prof, lambda z: 1.0 + z**4, mesh, "H10")
    for A in (*a20, *a10, w20, w10):
        assert (A != A.T).nnz == 0
    pinned = [
        (*a20, 36.18832496042644),
        (*a10, 4.4398066987458416),
        (a20[0], w20, 35.54440758007932),
        (a10[0], w10, 4.234406648806372),
    ]
    for K, M, lam_ref in pinned:
        lam = fem1d.smallest_eigenpairs(K, M).values[0]
        assert abs(lam / lam_ref - 1.0) <= 1e-12


def _record_scatters(monkeypatch):
    """Every (local blocks, pattern nnz) that goes through ``fem1d._scatter``, in call order."""
    seen = []
    scatter = fem1d._scatter

    def record(slot, local, indptr):
        n_loc = math.isqrt(local[0].size)  # local DOFs per cell, (component, node) order
        seen.append((local.reshape(len(local), n_loc, n_loc).copy(), int(indptr[-1])))
        return scatter(slot, local, indptr)

    monkeypatch.setattr(fem1d, "_scatter", record)
    monkeypatch.setattr(lame2d, "_scatter", record)
    return seen


def _dense_sum(local, dof, n):
    """local[c, l, m] added at (dof[c, l], dof[c, m]) cell after cell; dof -1 is clamped."""
    d = np.where(dof >= 0, dof, n)
    out = np.zeros((n + 1, n + 1))
    np.add.at(out, (np.broadcast_to(d[:, :, None], local.shape).ravel(),
                    np.broadcast_to(d[:, None, :], local.shape).ravel()), local.ravel())
    return out[:n, :n]


def _assert_sorted_csr(A):
    inner = np.ones(A.nnz, dtype=bool)
    inner[A.indptr[:-1][A.indptr[:-1] < A.nnz]] = False  # first entry of each row
    assert np.all(np.diff(A.indices)[inner[1:]] > 0)


def _dofs_1d(n_el, space):
    # global numbering: node-major (value, slope) pairs for H20, one value per
    # node for H10; the end nodes are clamped, local order is (component, node)
    e = np.arange(n_el)[:, None]
    if space == "H20":
        node = e + np.arange(2)
        fn = np.where((node > 0) & (node < n_el), node - 1, -1)
        dof = np.concatenate([2 * fn, 2 * fn + 1], axis=1)
        return np.where(np.concatenate([fn, fn], axis=1) >= 0, dof, -1), 2 * (n_el - 1)
    node = 2 * e + np.arange(3)
    return np.where((node > 0) & (node < 2 * n_el), node - 1, -1), 2 * n_el - 1


@pytest.mark.parametrize("model, graded", [("B", False), ("D", False), ("L", False), ("D", True)])
def test_shared_scatter_matches_dense_accumulation_1d(model, graded, monkeypatch):
    # every stored entry is the cell-order sum of its element contributions,
    # bit for bit, and compaction drops exact zeros only
    prof = ax.preset(model)
    mesh = (fem1d.Mesh1D.boundary_graded(prof.interval, 24, 1.2) if graded
            else fem1d.Mesh1D.uniform(prof.interval, 128))
    seen = _record_scatters(monkeypatch)
    mats = [
        ("H20", fem1d.assemble_h20(prof, lambda z: 1.0 + 0.5 * z**2, lambda z: np.cos(z), mesh)),
        ("H10", fem1d.assemble_h10(prof, lambda z: 2.0 - z, lambda z: z * z, mesh)),
        ("H20", (fem1d.assemble_weighted_mass(prof, lambda z: 1.0 + z**4, mesh, "H20"),)),
        ("H10", (fem1d.assemble_weighted_mass(prof, lambda z: 1.0 + z**4, mesh, "H10"),)),
    ]
    mats = [(space, A) for space, group in mats for A in group]
    assert len(seen) == len(mats)
    for (space, A), (local, nnz) in zip(mats, seen):
        dof, n = _dofs_1d(mesh.n_elements, space)
        assert np.array_equal(A.toarray(), _dense_sum(local, dof, n))
        assert np.all(A.data != 0.0) and A.nnz <= nnz
        _assert_sorted_csr(A)
    # the pattern is built once per mesh and space; compacting K must leave it to M
    el = fem1d._Elements(prof, mesh, "H20")
    pattern = [a.copy() for a in (el.indptr, el.indices, el.slot)]
    el.gram((1.0, el.D)), el.gram((1.0, el.N))
    assert all(np.array_equal(a, b) for a, b in zip(pattern, (el.indptr, el.indices, el.slot)))


def test_shared_scatter_matches_dense_accumulation_2d(monkeypatch):
    p, nz_cells, nt_cells = 3, 4, 2
    seen = _record_scatters(monkeypatch)
    mesh = lame2d.build_meridian_mesh(ax.preset("D"), 0.1, nz_cells, nt_cells)
    fam = lame2d.get_family(mesh, degree=p)
    # scalar node (iz, it) is iz nt + it, DOF 3 node + comp; the lateral ends
    # (the first and last nt nodes) are clamped
    nz, nt = p * nz_cells + 1, p * nt_cells + 1
    cz, ct = np.divmod(np.arange(nz_cells * nt_cells), nt_cells)
    ids = ((p * cz[:, None] + np.arange(p + 1))[:, :, None] * nt
           + (p * ct[:, None] + np.arange(p + 1))[:, None, :]).reshape(len(cz), -1)
    fn = np.where((ids >= nt) & (ids < (nz - 1) * nt), ids - nt, -1)
    dof = np.where(fn[:, None, :] >= 0, 3 * fn[:, None, :] + np.arange(3)[:, None], -1)
    dof = dof.reshape(len(cz), -1)
    n = fam.dof_count
    assert [nnz for _, nnz in seen] == [fam.A0.nnz] * 4
    names = ("A0", "A1", "A2", "M")
    ref = {name: _dense_sum(local, dof, n) for name, (local, _) in zip(names, seen)}
    for name in names:
        A = getattr(fam, name)
        assert np.array_equal(A.toarray(), ref[name]), name
        _assert_sorted_csr(A)
    assert np.all(fam.M.data != 0.0) and fam.M.nnz < fam.A0.nnz
    # A0, A1, A2 and K(k) share one uncompacted pattern; M is a compact copy of it
    pattern = fam.A0.indptr.copy(), fam.A0.indices.copy()
    for k in (0, 3):
        K = lame2d.assemble_fourier_lame(mesh, k, degree=p).stiffness
        assert np.array_equal(K.toarray(), ref["A0"] + k * ref["A1"] + (k * k) * ref["A2"])
        assert np.shares_memory(K.indices, fam.A0.indices)
        assert np.shares_memory(K.indptr, fam.A0.indptr)
    for A in (fam.A1, fam.A2):
        assert np.shares_memory(A.indices, fam.A0.indices)
    assert np.array_equal(fam.A0.indptr, pattern[0]) and np.array_equal(fam.A0.indices, pattern[1])
    assert len(fam.A0.indices) == fam.A0.indptr[-1]
