"""1D finite elements: oracles, symmetry, convergence."""

import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
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


def _assemblies_1d(prof, mesh):
    """The matrices of all three 1D assemblers on one mesh, by name."""
    return {
        "h20": fem1d.assemble_h20(prof, lambda z: 1.0 + 0.5 * z**2, lambda z: np.cos(z), mesh),
        "h10": fem1d.assemble_h10(prof, lambda z: 2.0 - z, lambda z: z * z, mesh),
        "mass H20": (fem1d.assemble_weighted_mass(prof, lambda z: 1.0 + z**4, mesh, "H20"),),
        "mass H10": (fem1d.assemble_weighted_mass(prof, lambda z: 1.0 + z**4, mesh, "H10"),),
    }


# SHA-256 (first 32 hex digits) of the data, indices and indptr arrays, dtype
# first, of each assembler's matrices in order, as the DOF-level CSR pattern with
# a slot for every local entry summed and compacted them; every 1D pencil of the
# constants is built from such arrays
ASSEMBLY_1D_PINS = {
    ("B", False, "h20"): "cd49187366b587e7f430da3409e78d05",
    ("B", False, "h10"): "ae41d586a4c272516ee20d8bb8d07166",
    ("B", False, "mass H20"): "5e389d77dec70c5f1834a2caaf4c354b",
    ("B", False, "mass H10"): "9351681f0975514458231a25d6a4c095",
    ("B", True, "h20"): "15287aa6096de53cd018786ae2741611",
    ("B", True, "h10"): "e59503f7f8182fc21d5022d5af644fcd",
    ("B", True, "mass H20"): "921e2e09755132d4cb3d13767c59b9a6",
    ("B", True, "mass H10"): "ba4d4c1bc6f3afc924200b39835b8933",
    ("D", False, "h20"): "1f01256070d6e19eda14b69e9df5d80b",
    ("D", False, "h10"): "2846b1835c076a452126358c0eac9a88",
    ("D", False, "mass H20"): "bbf37a93f8ee7b30ee83b3e22d4420ba",
    ("D", False, "mass H10"): "842dcac1e2b679aa1113da816090217b",
    ("D", True, "h20"): "c76a8c83ac7c28ea424407dc082c9a12",
    ("D", True, "h10"): "5e8345ad03194802fcacff22fe7795b5",
    ("D", True, "mass H20"): "e00b95b3a007bd3b74b7dd6489140650",
    ("D", True, "mass H10"): "47ffb0b14aa372598f2ea7dc2782b47b",
}


@pytest.mark.parametrize("model, graded", [("B", False), ("B", True), ("D", False), ("D", True)])
def test_assembled_csr_arrays_are_pinned(model, graded):
    # uniform 128-element and boundary-graded 24-element meshes
    prof = ax.preset(model)
    mesh = (fem1d.Mesh1D.boundary_graded(prof.interval, 24, 1.2) if graded
            else fem1d.Mesh1D.uniform(prof.interval, 128))
    for name, mats in _assemblies_1d(prof, mesh).items():
        digest = hashlib.sha256()
        for A in mats:
            for part in (A.data, A.indices, A.indptr):
                digest.update(part.dtype.str.encode())
                digest.update(part.tobytes())
        assert digest.hexdigest()[:32] == ASSEMBLY_1D_PINS[model, graded, name], name


def _record_scatters(monkeypatch):
    """Every (free nodes, cell blocks, number of pairs) that ``fem1d._NodePairs.sum``
    sums, in call order."""
    seen = []
    node_sum = fem1d._NodePairs.sum

    def record(pairs, blocks):
        seen.append((pairs.fn.copy(), blocks.copy(), len(pairs.fj)))
        return node_sum(pairs, blocks)

    monkeypatch.setattr(fem1d._NodePairs, "sum", record)
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


def _check_dense_accumulation(prof, mesh, monkeypatch):
    """Every matrix of the three 1D assemblers on ``mesh`` holds the cell-order sum of
    its element contributions, bit for bit, without exact zeros, rows sorted."""
    seen = _record_scatters(monkeypatch)
    mats = [(name[-3:].upper(), A) for name, group in _assemblies_1d(prof, mesh).items()
            for A in group]
    assert len(seen) == len(mats)
    for (space, A), (fn, local, n_pairs) in zip(mats, seen):
        dof, n = _dofs_1d(mesh.n_elements, space)
        assert np.array_equal(fn, dof)  # one node per DOF, in (component, node) order
        assert np.array_equal(A.toarray(), _dense_sum(local, dof, n))
        assert np.all(A.data != 0.0) and A.nnz <= n_pairs
        _assert_sorted_csr(A)


@pytest.mark.parametrize("model, graded", [("B", False), ("D", False), ("L", False), ("D", True)])
def test_shared_scatter_matches_dense_accumulation_1d(model, graded, monkeypatch):
    # compaction drops exact zeros only
    prof = ax.preset(model)
    mesh = (fem1d.Mesh1D.boundary_graded(prof.interval, 24, 1.2) if graded
            else fem1d.Mesh1D.uniform(prof.interval, 128))
    _check_dense_accumulation(prof, mesh, monkeypatch)
    # the node pairs are found once per mesh and space; a gram leaves them intact
    el = fem1d._Elements(prof, mesh, "H20")
    names = ("fn", "fi", "fj", "pair", "deg", "rank")
    kept = [getattr(el.pairs, name).copy() for name in names]
    el.gram((1.0, el.D)), el.gram((1.0, el.N))
    assert all(np.array_equal(a, getattr(el.pairs, name)) for a, name in zip(kept, names))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(1, 1000), min_size=2, max_size=40))
def test_assembly_matches_dense_accumulation_on_any_mesh(gaps):
    # strictly increasing nodes spanning model D's interval, element sizes drawn
    # as integer multiples of the interval over their sum
    prof = ax.preset("D")
    a, b = prof.interval
    t = np.concatenate([[0], np.cumsum(gaps)]) / sum(gaps)
    mesh = fem1d.Mesh1D(a + (b - a) * t)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_dense_accumulation(prof, mesh, monkeypatch)


def _free_nodes_2d(p, pt, nz_cells, nt_cells):
    # scalar node (iz, it) is iz nt + it, local node (i, s) of a cell i (pt + 1) + s;
    # the lateral ends (the first and last nt nodes) are clamped (-1)
    nz, nt = p * nz_cells + 1, pt * nt_cells + 1
    cz, ct = np.divmod(np.arange(nz_cells * nt_cells), nt_cells)
    ids = ((p * cz[:, None] + np.arange(p + 1))[:, :, None] * nt
           + (pt * ct[:, None] + np.arange(pt + 1))[:, None, :]).reshape(len(cz), -1)
    return np.where((ids >= nt) & (ids < (nz - 1) * nt), ids - nt, -1)


def _kron_pattern(fn, ncomp):
    """The CSR pattern of every component pair of the free nodes ``fn`` built the long
    way: the sorted unique node pairs, their Kronecker product with an ncomp x ncomp
    block of ones and sorted rows; and the position of each free local entry (cell,
    comp, i, comp', j) in that order written through a mask, nnz where it touches a
    clamped node."""
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
    (_dofs_1d(7, "H20")[0], 2),          # cubic Hermite: value and slope are two nodes
    (_free_nodes_1d(7, 2), 1),           # quadratic Lagrange
    (_free_nodes_2d(4, 2, 3, 2), 1),     # thickness degree below the meridian degree
], ids=["h20", "h10", "2d"])
def test_shared_pattern_matches_kron_construction(fn, ncomp):
    # the pairs are the node pattern, rows sorted, and the pair of every local
    # entry is its position there, the number of pairs where it touches a clamped node
    want = _kron_pattern(fn, 1)
    pairs = fem1d._NodePairs(fn)
    assert pairs.fi.dtype == pairs.fj.dtype == pairs.pair.dtype == np.int32
    assert np.array_equal(pairs.fi, np.repeat(np.arange(len(want[0]) - 1), np.diff(want[0])))
    assert np.array_equal(pairs.fj, want[1])
    assert np.array_equal(pairs.pair.ravel(), want[2])
    assert (want[2] == len(want[1])).any()  # entries on clamped nodes
    # the 1D DOF pairs are the Kronecker pattern of the mesh's node pairs
    n_cells = len(fn)
    nodes = fn[:, :fn.shape[1] // ncomp] // ncomp
    want = _kron_pattern(nodes, ncomp)
    assert np.array_equal(np.concatenate([[0], np.cumsum(pairs.deg)]), want[0])
    assert np.array_equal(pairs.fj, want[1])
    assert np.array_equal(pairs.pair.reshape(n_cells, -1), want[2].reshape(n_cells, -1)), ncomp


@pytest.mark.parametrize("fn", [_free_nodes_2d(4, 2, 3, 2), _free_nodes_2d(3, 3, 2, 2),
                                _free_nodes_1d(7, 1)], ids=["2d", "2d p_t = p", "1d"])
def test_lower_node_pairs_and_block_diagonal_match_kron_construction(fn):
    # the lower node pairs, the strict ones first, are the lower triangle of the
    # node pattern, and the cell blocks summed onto them its dense cell-order sums;
    # the block-diagonal matrix holds block a's entry of node pair (i, j) at
    # (3 i + a, 3 j + a)
    pairs = fem1d._NodePairs(fn)
    node_ptr, node_idx, _ = _kron_pattern(fn, 1)
    n = len(node_ptr) - 1
    # entry q of the node pattern, pair q of the node pairs, holds q + 1
    node = sp.csr_matrix((np.arange(1.0, len(node_idx) + 1), node_idx, node_ptr), shape=(n, n))
    strict = sp.tril(node, -1, format="csr")
    lower = pairs.lower()
    assert lower.indptr.dtype == lower.cols.dtype == np.int32
    assert np.array_equal(lower.indptr, strict.indptr) and np.array_equal(lower.cols, strict.indices)
    # a diagonal block on every lower pair; an off-diagonal one on the strict pairs
    # and its mirror, from the cell blocks transposed, on every lower pair
    i = np.concatenate([np.repeat(np.arange(n), np.diff(strict.indptr)), np.arange(n)])
    j = np.concatenate([strict.indices, np.arange(n)])
    B, C = np.random.default_rng(2).standard_normal((2, len(fn), fn.shape[1], fn.shape[1]))
    term = lower.blocks({(0, 0): B, (0, 1): C})
    assert set(term) == {(0, 0), (0, 1), (1, 0)}
    assert np.array_equal(term[0, 0], _dense_sum(B, fn, n)[i, j])
    assert np.array_equal(term[0, 1], _dense_sum(C, fn, n)[i, j][:strict.nnz])
    assert np.array_equal(term[1, 0], _dense_sum(C.transpose(0, 2, 1), fn, n)[i, j])
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
