"""1D finite elements: oracles, symmetry, convergence."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
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
    """Every (slot, local blocks, pattern nnz) that goes through ``fem1d._scatter``, in
    call order."""
    seen = []
    scatter = fem1d._scatter

    def record(slot, local, indptr):
        seen.append((np.array(slot), local.copy(), int(indptr[-1])))
        return scatter(slot, local, indptr)

    monkeypatch.setattr(fem1d, "_scatter", record)
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


def _free_nodes_1d(n_el, step):
    # element e holds nodes step e .. step (e + 1); both end nodes are clamped (-1)
    node = step * np.arange(n_el)[:, None] + np.arange(step + 1)
    return np.where((node > 0) & (node < step * n_el), node - 1, -1)


def _dofs_1d(n_el, space):
    # global numbering: node-major (value, slope) pairs for H20, one value per
    # node for H10; local order is (component, node)
    if space == "H20":
        fn = _free_nodes_1d(n_el, 1)
        dof = np.concatenate([2 * fn, 2 * fn + 1], axis=1)
        return np.where(np.concatenate([fn, fn], axis=1) >= 0, dof, -1), 2 * (n_el - 1)
    return _free_nodes_1d(n_el, 2), 2 * n_el - 1


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
    for (space, A), (_, local, nnz) in zip(mats, seen):
        dof, n = _dofs_1d(mesh.n_elements, space)
        local = local.reshape(len(local), dof.shape[1], dof.shape[1])  # (component, node) order
        assert np.array_equal(A.toarray(), _dense_sum(local, dof, n))
        assert np.all(A.data != 0.0) and A.nnz <= nnz
        _assert_sorted_csr(A)
    # the pattern is built once per mesh and space; compacting K must leave it to M
    el = fem1d._Elements(prof, mesh, "H20")
    pattern = [a.copy() for a in (el.indptr, el.indices, el.slot)]
    el.gram((1.0, el.D)), el.gram((1.0, el.N))
    assert all(np.array_equal(a, b) for a, b in zip(pattern, (el.indptr, el.indices, el.slot)))


def _free_nodes_2d(p, pt, nz_cells, nt_cells):
    # scalar node (iz, it) is iz nt + it, local node (i, s) of a cell i (pt + 1) + s;
    # the lateral ends (the first and last nt nodes) are clamped (-1)
    nz, nt = p * nz_cells + 1, pt * nt_cells + 1
    cz, ct = np.divmod(np.arange(nz_cells * nt_cells), nt_cells)
    ids = ((p * cz[:, None] + np.arange(p + 1))[:, :, None] * nt
           + (pt * ct[:, None] + np.arange(pt + 1))[:, None, :]).reshape(len(cz), -1)
    return np.where((ids >= nt) & (ids < (nz - 1) * nt), ids - nt, -1)


def _kron_pattern(fn, ncomp):
    """``fem1d._shared_pattern`` built the long way: the sorted unique node pairs,
    their Kronecker product with an ncomp x ncomp block of ones, sorted rows, and
    the slot of each free local entry written through a mask."""
    n_free = int(fn.max()) + 1
    both = (fn[:, :, None] >= 0) & (fn[:, None, :] >= 0)
    fi = np.broadcast_to(fn[:, :, None], both.shape)[both]
    fj = np.broadcast_to(fn[:, None, :], both.shape)[both]
    pairs, pair = np.unique(fi * n_free + fj, return_inverse=True)
    node = sp.csr_matrix((np.ones(len(pairs)), divmod(pairs, n_free)),
                         shape=(n_free, n_free))
    dof = sp.kron(node, np.ones((ncomp, ncomp)), format="csr")
    dof.sort_indices()
    a, b = np.arange(ncomp)[:, None], np.arange(ncomp)
    pos = np.full(both.shape + (ncomp, ncomp), dof.nnz)
    pos[both] = (dof.indptr[ncomp * fi[:, None, None] + a]
                 + ncomp * (pair - node.indptr[fi])[:, None, None] + b)
    return dof.indptr, dof.indices, pos.transpose(0, 3, 1, 4, 2).ravel()


@pytest.mark.parametrize("fn, ncomp", [
    (_free_nodes_1d(7, 1), 2),           # cubic Hermite, (value, slope) per node
    (_free_nodes_1d(7, 2), 1),           # quadratic Lagrange
    (_free_nodes_2d(4, 2, 3, 2), 3),     # thickness degree below the meridian degree
], ids=["h20", "h10", "2d"])
def test_shared_pattern_matches_kron_construction(fn, ncomp):
    # the pattern is built straight from the node pairs, for every component pair
    want = _kron_pattern(fn, ncomp)
    pattern = fem1d._NodePairs(fn).pattern(ncomp)
    assert pattern.indptr.dtype == pattern.indices.dtype == np.int32
    assert np.array_equal(pattern.indptr, want[0]) and np.array_equal(pattern.indices, want[1])
    # the position of every local entry, nnz where it touches a clamped DOF
    n_cells, nloc = fn.shape
    i, j = (x.ravel() for x in np.indices((nloc, nloc)))
    slot = want[2].reshape(n_cells, ncomp, nloc, ncomp, nloc)
    for a in range(ncomp):
        for b in range(ncomp):
            got = pattern.slot(a, b, i, j)
            assert got.dtype == np.int32
            assert np.array_equal(got, slot[:, a, :, b, :].reshape(n_cells, -1))
    assert (want[2] == pattern.indptr[-1]).any()  # entries on clamped nodes
    shared = fem1d._shared_pattern(fn, ncomp)
    assert shared[2].dtype == np.int32
    assert all(np.array_equal(a, b) for a, b in zip(shared, want))


@pytest.mark.parametrize("fn", [_free_nodes_2d(4, 2, 3, 2), _free_nodes_2d(3, 3, 2, 2),
                                _free_nodes_1d(7, 1)], ids=["2d", "2d p_t = p", "1d"])
def test_lower_node_pairs_and_block_diagonal_match_kron_construction(fn):
    # the lower node pairs, the strict ones first, are the lower triangle of the
    # node pattern; the block-diagonal matrix holds block a's entry of node pair
    # (i, j) at (3 i + a, 3 j + a)
    pairs = fem1d._NodePairs(fn)
    node_ptr, node_idx, _ = _kron_pattern(fn, 1)
    n = len(node_ptr) - 1
    # entry q of the node pattern, pair q of the node pairs, holds q + 1
    node = sp.csr_matrix((np.arange(1.0, len(node_idx) + 1), node_idx, node_ptr), shape=(n, n))
    strict = sp.tril(node, -1, format="csr")
    indptr, cols, where = pairs.lower()
    assert indptr.dtype == cols.dtype == where.dtype == np.int32
    assert np.array_equal(indptr, strict.indptr) and np.array_equal(cols, strict.indices)
    lower = np.concatenate([strict.data, node.diagonal()]).astype(int) - 1
    assert np.array_equal(where[lower], np.arange(len(lower)))
    assert np.all(np.delete(where, lower) == -1)
    blocks = [np.arange(node.nnz) + 0.5, -np.arange(node.nnz) - 0.25, np.arange(node.nnz) * 2.0]
    got = pairs.block_diagonal(blocks)
    t = node.tocoo()
    q = (t.data - 1).astype(int)
    want = sp.csr_matrix((np.concatenate([x[q] for x in blocks]),
                          (np.concatenate([3 * t.row + a for a in range(3)]),
                           np.concatenate([3 * t.col + a for a in range(3)]))), shape=(3 * n, 3 * n))
    assert got.indptr.dtype == got.indices.dtype == np.int32
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_shared_scatter_matches_dense_accumulation_2d(monkeypatch):
    # every stored entry is the cell-order sum of the full cell blocks'
    # contributions, bit for bit: M in full, A0, A1 and A2 as node-level blocks
    blocks = []
    component_blocks = lame2d._component_blocks

    def record_blocks(*args):
        for name, parts in component_blocks(*args):
            blocks.append((name, {key: B.copy() for key, B in parts.items()}))
            yield name, parts

    monkeypatch.setattr(lame2d, "_component_blocks", record_blocks)
    for p in (3, 6):
        blocks.clear()
        _check_family_scatter(p, blocks)


def _check_family_scatter(p, blocks):
    """The family of degree p on D@0.1 4 x 2 cells against the dense sum of the
    recorded cell blocks of its build."""
    nz_cells, nt_cells = 4, 2
    mesh = lame2d.build_meridian_mesh(ax.preset("D"), 0.1, nz_cells, nt_cells)
    fam = lame2d.get_family(mesh, degree=p)
    # DOF 3 node + comp, local DOFs in (comp, node) order
    fn = _free_nodes_2d(p, p, nz_cells, nt_cells)
    n_cells, nloc = fn.shape
    dof = np.where(fn[:, None, :] >= 0, 3 * fn[:, None, :] + np.arange(3)[:, None], -1)
    dof = dof.reshape(n_cells, -1)
    n = fam.dof_count
    # M, A0, A1 and A2 in turn, each with its nonzero component blocks (a, b); an
    # off-diagonal block of a symmetric matrix stands for its mirror (b, a) too
    R, P, T = 0, 1, 2
    wanted = {"M": {(R, R), (T, T), (P, P)},
              "A0": {(R, R), (T, T), (P, P), (R, T)},
              "A1": {(P, R), (P, T)},
              "A2": {(R, R), (T, T), (P, P)}}
    assert [(name, set(parts)) for name, parts in blocks] == list(wanted.items())
    ref = {}
    for name, parts in blocks:
        local = np.zeros((n_cells, 3, nloc, 3, nloc))
        for (a, b), B in parts.items():
            local[:, a, :, b, :] = B
            local[:, b, :, a, :] = B.transpose(0, 2, 1)
        ref[name] = _dense_sum(local.reshape(n_cells, 3 * nloc, 3 * nloc), dof, n)
    pencil = fam.pencil
    assert np.array_equal(pencil.M.toarray(), ref["M"])
    assert np.all(pencil.M.data != 0.0)
    _assert_sorted_csr(pencil.M)
    # each block (a, b) and its mirror (b, a) on the lower node pairs: the strict
    # pairs i > j, then the diagonal pairs i = i, unless a < b
    nodes = n // 3
    i = np.concatenate([pencil.rows(), np.arange(nodes)])
    j = np.concatenate([pencil.cols, np.arange(nodes)])
    keys = [{(a, b) for a, b in wanted[name]} | {(b, a) for a, b in wanted[name]}
            for name in ("A0", "A1", "A2")]
    assert [set(term) for term in pencil.terms] == keys
    for name, term in zip(("A0", "A1", "A2"), pencil.terms):
        lower = np.zeros((n, n))
        for (a, b), entries in term.items():
            assert len(entries) == pencil.strict + (nodes if a >= b else 0), (name, a, b)
            lower[3 * i[:len(entries)] + a, 3 * j[:len(entries)] + b] = entries
        assert np.array_equal(lower, np.tril(ref[name])), name
    assert pencil.terms[2][T, T] is pencil.terms[2][R, R]  # A2's (tau, tau) block is (r, r)
    # K(k) = A0 + k A1 + k^2 A2 is formed in full from the blocks
    saved = [{key: x.copy() for key, x in term.items()} for term in pencil.terms]
    for k in (0, 3):
        system = lame2d.assemble_fourier_lame(mesh, k, degree=p)
        want = ref["A0"] + k * ref["A1"] + (k * k) * ref["A2"]
        assert np.array_equal(system.stiffness.toarray(), want)
        _assert_sorted_csr(system.stiffness)
        lame2d.first_eigenpair_2d(system)
    # the solves left every block as it was
    assert all(np.array_equal(term[key], x) for term, kept in zip(pencil.terms, saved)
               for key, x in kept.items())
