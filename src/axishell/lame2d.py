"""Fourier-decomposed 3D elasticity on the meridian cross-section.

The shell's 3D vibration problem separates over azimuthal modes e^{ik phi};
each mode is a 3-component problem for (u^r, u^phi, u^tau) on the meridian
domain.  With the azimuthal component rotated by i the bilinear form is real
symmetric and splits as A0 + k A1 + k^2 A2, so one assembly per (mesh, eps)
serves the whole wavenumber sweep.  A0, A1 and A2 share one CSR pattern, so
the stiffness at each k is one axpy on their data arrays.

Assembly happens on the parametric rectangle I x (-eps, eps) using the exact
normal-coordinate map (r, tau) = (f + x3/s, z - x3 f'/s) and its Jacobian;
elements are tensor-product Lagrange of degree p (default 6) along the
meridian and p_t <= p through the thickness on curvilinear quadrilaterals,
clamped on the two lateral ends z = z+-.  A thin shell's displacement is
nearly polynomial of low degree through the thickness, so p_t = min(p, 3)
for 0.01 <= eps < 0.05 (see ``_thickness_degree``) and p_t = p otherwise; the
band, set by the thickness nodes, then halves.  Assembly is batched
over cells: the map, the basis gradients and every X^T diag(w) Y block are
computed for all cells at once, and each matrix is summed into the family's
one CSR pattern by the sparse assembler of fem1d, one nonzero component
block at a time: 5 of the 9 component pairs in A0, 4 in A1 and 3 in A2 and
M.  The mass matrix, in every Lanczos matvec, then drops its exact zeros;
each K(k) keeps the shared pattern, whose band its Cholesky factor fills
anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import asymptotics, eig
from .errors import AssemblyError, SolverError, ThicknessError
from .fem1d import _compact, _scatter, _shared_pattern
from .profiles import ShellProfile

__all__ = [
    "MeridianMesh",
    "LameFamily",
    "FourierLameSystem",
    "SweepRecord",
    "KSweepResult",
    "MidlineTrace",
    "build_meridian_mesh",
    "assemble_fourier_lame",
    "k_sweep",
    "midline_mode_trace",
    "default_mesh_size",
]

DEFAULT_DEGREE = 6
TRACE_SAMPLES = 241  # points of a midline trace


def _lobatto_nodes(p: int) -> np.ndarray:
    """Gauss-Lobatto-Legendre nodes on [0, 1]."""
    if p == 1:
        return np.array([0.0, 1.0])
    inner = np.polynomial.legendre.Legendre.basis(p).deriv().roots()
    return 0.5 * (np.concatenate([[-1.0], np.sort(inner.real), [1.0]]) + 1.0)


def _lagrange_tables(nodes: np.ndarray, at: np.ndarray):
    """Values and derivatives of the nodal basis at the given points."""
    n = len(nodes)
    V = np.zeros((len(at), n))
    D = np.zeros((len(at), n))
    for j in range(n):
        ind = np.ones(n, dtype=bool)
        ind[j] = False
        denom = np.prod(nodes[j] - nodes[ind])
        c = np.polynomial.polynomial.polyfromroots(nodes[ind]) / denom
        V[:, j] = np.polynomial.polynomial.polyval(at, c)
        D[:, j] = np.polynomial.polynomial.polyval(
            at, np.polynomial.polynomial.polyder(c)
        )
    return V, D


@dataclass
class MeridianMesh:
    """Parametric-rectangle mesh; assembly evaluates the exact map."""

    profile: ShellProfile
    eps: float
    n_meridian: int
    n_thickness: int
    z_breaks: np.ndarray
    t_breaks: np.ndarray
    min_jacobian: float
    _families: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class LameFamily:
    """k-independent pieces: stiffness = A0 + k A1 + k^2 A2, plus the mass.

    Elements are Lagrange of degree ``degree`` along the meridian and
    ``thickness_degree`` through the thickness, which ``get_family`` takes
    from ``_thickness_degree(eps, degree)``.  A0, A1, A2 and every K(k)
    share one pair of index arrays; nothing may modify them in place.
    """

    degree: int               # Lagrange degree along the meridian
    thickness_degree: int     # Lagrange degree through the thickness
    A0: sp.csr_matrix
    A1: sp.csr_matrix
    A2: sp.csr_matrix
    M: sp.csr_matrix
    free: np.ndarray          # free DOFs among the 3 * n_nodes unknowns
    node_z: np.ndarray        # parametric z per scalar node (nz,)
    node_t: np.ndarray        # parametric x3 per scalar node (nt,)
    n_nodes: int

    @property
    def dof_count(self) -> int:
        return len(self.free)


@dataclass
class FourierLameSystem:
    k: int
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    family: LameFamily
    mesh: MeridianMesh


@dataclass
class SweepRecord:
    eps: float
    k: int
    lambda1: float
    dof_count: int
    residual: float


@dataclass
class KSweepResult:
    k_opt: int
    lambda1: float
    records: list
    flagged: bool = False
    note: str = ""


@dataclass
class MidlineTrace:
    z: np.ndarray
    u_r: np.ndarray          # normalized to max |u_r| = 1
    argmax_z: float
    half_width: float        # distance where |u_r| falls below e^{-1/2}


def _map_data(profile: ShellProfile, zq: np.ndarray, tq: np.ndarray):
    """Geometry of the normal-coordinate map at paired (z, x3) points (flattened)."""
    f, fp, fpp = profile.jet(zq, 2)
    s2 = 1.0 + fp**2
    s = np.sqrt(s2)
    r = f + tq / s
    tau = zq - tq * fp / s
    r_z = fp - tq * fp * fpp / s**3
    r_t = 1.0 / s
    tau_z = 1.0 - tq * fpp / s**3
    tau_t = -fp / s
    det = r_z * tau_t - r_t * tau_z
    return r, tau, r_z, r_t, tau_z, tau_t, det


def build_meridian_mesh(
    profile: ShellProfile,
    eps: float,
    n_meridian: int | None = None,
    n_thickness: int | None = None,
) -> MeridianMesh:
    """Subdivide the parametric rectangle and validate the geometric map.

    A cell count left out is taken from ``default_mesh_size(eps)``.
    Assembly uses the exact map, so geometry carries no discretization error.
    A nonpositive Jacobian anywhere means the half-thickness exceeds the
    injectivity range of the normal-coordinate map.
    """
    nm_default, nt_default = default_mesh_size(eps)
    n_meridian = nm_default if n_meridian is None else n_meridian
    n_thickness = nt_default if n_thickness is None else n_thickness
    if n_thickness < 2:
        raise ThicknessError("need at least two cells through the thickness")
    if n_meridian < 1:
        raise ThicknessError("need at least one meridian cell")
    z_breaks = np.linspace(profile.interval[0], profile.interval[1], n_meridian + 1)
    t_breaks = np.linspace(-eps, eps, n_thickness + 1)
    # dense positivity check of |det J|
    zs = np.linspace(profile.interval[0], profile.interval[1], 8 * n_meridian + 1)
    ts = np.linspace(-eps, eps, 8 * n_thickness + 1)
    Z, T = np.meshgrid(zs, ts, indexing="ij")
    *_, det = _map_data(profile, Z.ravel(), T.ravel())
    min_jac = float(np.abs(det).min())
    if np.any(det == 0.0) or det.max() * det.min() < 0:
        raise ThicknessError(
            f"normal-coordinate map degenerates (eps = {eps:g} too large for the "
            "meridian curvature)"
        )
    return MeridianMesh(
        profile=profile, eps=eps, n_meridian=n_meridian, n_thickness=n_thickness,
        z_breaks=z_breaks, t_breaks=t_breaks, min_jacobian=min_jac,
    )


def _cell_nodes(breaks: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Nodal coordinates along one direction; a node shared by two cells once."""
    pts = breaks[:-1, None] + np.diff(breaks)[:, None] * ref
    return np.append(pts[:, :-1].ravel(), pts[-1, -1])


def _build_family(mesh: MeridianMesh, degree: int, thickness_degree: int) -> LameFamily:
    """Assemble A0, A1, A2 and M with every cell's quadrature in one batch."""
    p, pt = degree, thickness_degree
    if min(p, pt) < 1:
        raise AssemblyError(f"element degree must be at least 1, got {min(p, pt)}")
    profile = mesh.profile
    E, nu = profile.E, profile.nu
    nq1 = p + 2  # Gauss points per direction: exact through degree 2p + 3
    gx, gw = np.polynomial.legendre.leggauss(nq1)
    gx = 0.5 * (gx + 1.0)
    gw = 0.5 * gw
    ref_z, ref_t = _lobatto_nodes(p), _lobatto_nodes(pt)
    Vz, Dz = _lagrange_tables(ref_z, gx)
    # the same nodes at the same points when p_t = p
    Vt, Dt = (Vz, Dz) if pt == p else _lagrange_tables(ref_t, gx)

    nz_cells, nt_cells = mesh.n_meridian, mesh.n_thickness
    n_cells = nz_cells * nt_cells
    nz = p * nz_cells + 1
    nt = pt * nt_cells + 1
    n_nodes = nz * nt
    nloc = (p + 1) * (pt + 1)
    nq = nq1 * nq1
    node_z = _cell_nodes(mesh.z_breaks, ref_z)
    node_t = _cell_nodes(mesh.t_breaks, ref_t)

    c_fac = E / (1.0 - nu * nu)
    a_c = (1.0 - nu) ** 2 / (1.0 - 2.0 * nu)
    b_c = nu * (1.0 - nu) / (1.0 - 2.0 * nu)
    d_c = 0.5 * (1.0 - nu)

    # cells run meridian-major: cell = cz * nt_cells + ct; quadrature point
    # q = iz * nq1 + it on each cell's tensor Gauss grid
    cz = np.repeat(np.arange(nz_cells), nt_cells)
    ct = np.tile(np.arange(nt_cells), nz_cells)
    hz, ht = np.diff(mesh.z_breaks), np.diff(mesh.t_breaks)
    zq = mesh.z_breaks[:-1, None] + hz[:, None] * gx
    tq = mesh.t_breaks[:-1, None] + ht[:, None] * gx
    Zq = np.broadcast_to(zq[cz][:, :, None], (n_cells, nq1, nq1))
    Tq = np.broadcast_to(tq[ct][:, None, :], (n_cells, nq1, nq1))
    r, tau, r_z, r_t, tau_z, tau_t, det = (
        a.reshape(n_cells, nq) for a in _map_data(profile, Zq.ravel(), Tq.ravel())
    )
    adet = np.abs(det)
    if adet.min() <= 0.0:
        raise ThicknessError("map Jacobian vanished inside a cell")
    wz, wt = gw * hz[:, None], gw * ht[:, None]
    wq = (wz[cz][:, :, None] * wt[ct][:, None, :]).reshape(n_cells, nq) * adet

    # scalar basis tables on the tensor quadrature grid, (cells, q, nloc)
    N = np.broadcast_to(np.einsum("qi,sj->qsij", Vz, Vt).reshape(nq, nloc),
                        (n_cells, nq, nloc))
    Gz = np.einsum("cqi,sj->cqsij", Dz / hz[:, None, None], Vt)
    Gt = np.einsum("qi,csj->cqsij", Vz, Dt / ht[:, None, None])
    Gz = Gz.reshape(nz_cells, nq, nloc)[cz]
    Gt = Gt.reshape(nt_cells, nq, nloc)[ct]
    inv = 1.0 / det
    Gr = (tau_t * inv)[:, :, None] * Gz - (tau_z * inv)[:, :, None] * Gt
    Gtau = (-r_t * inv)[:, :, None] * Gz + (r_z * inv)[:, :, None] * Gt

    def blk(w, X, Y):
        # X^T diag(w) Y for every cell at once
        return np.matmul(X.transpose(0, 2, 1), w[:, :, None] * Y)

    def sym(X):
        # a diagonal block's symmetric part keeps the global matrices exactly symmetric
        return 0.5 * (X + X.transpose(0, 2, 1))

    R, P, T3 = 0, 1, 2
    cpl = a_c + (1.0 - nu)

    def component_blocks():
        # each matrix's nonzero component blocks, one matrix at a time so that only
        # its blocks are alive; an off-diagonal block B at (a, b) also enters the
        # mirrored slots (b, a) as B^T
        yield "A0", {  # k^0 terms
            (R, R): sym(blk(a_c * r * wq, Gr, Gr) + blk(a_c / r * wq, N, N)
                        + blk(b_c * wq, Gr, N) + blk(b_c * wq, N, Gr)
                        + blk(d_c * r * wq, Gtau, Gtau)),
            (T3, T3): sym(blk(a_c * r * wq, Gtau, Gtau) + blk(d_c * r * wq, Gr, Gr)),
            (R, T3): (blk(b_c * r * wq, Gr, Gtau) + blk(b_c * wq, N, Gtau)
                      + blk(d_c * r * wq, Gtau, Gr)),
            (P, P): sym(blk(d_c / r * wq, Gr, Gr) + blk(d_c / r * wq, Gtau, Gtau)
                        - blk(2 * d_c / r**2 * wq, Gr, N) - blk(2 * d_c / r**2 * wq, N, Gr)
                        + blk(4 * d_c / r**3 * wq, N, N)),
        }
        yield "A1", {  # k^1 terms (phi couples to r and tau)
            (P, R): (blk(cpl / r**2 * wq, N, N) + blk(b_c / r * wq, N, Gr)
                     - blk(d_c / r * wq, Gr, N)),
            (P, T3): blk(b_c / r * wq, N, Gtau) - blk(d_c / r * wq, Gtau, N),
        }
        # k^2 terms
        nn = sym(blk(d_c / r * wq, N, N))
        yield "A2", {(R, R): nn, (T3, T3): nn, (P, P): sym(blk(a_c / r**3 * wq, N, N))}
        nn = sym(blk(r * wq, N, N))
        yield "M", {(R, R): nn, (T3, T3): nn, (P, P): sym(blk(wq / r, N, N))}

    # node (iz, it) -> scalar id iz*nt + it; dof = 3*id + comp.  The clamped
    # lateral ends z = z+- hold the first and the last nt ids.
    ids = ((p * cz[:, None] + np.arange(p + 1))[:, :, None] * nt
           + (pt * ct[:, None] + np.arange(pt + 1))[:, None, :]).reshape(n_cells, nloc)
    free = np.arange(3 * nt, 3 * (nz - 1) * nt)
    indptr, indices, slot = _shared_pattern(
        np.where((ids >= nt) & (ids < (nz - 1) * nt), ids - nt, -1), 3)
    slot = slot.reshape(n_cells, 3, nloc, 3, nloc)

    mats = {}
    for name, parts in component_blocks():
        parts = {**parts, **{(b, a): B.transpose(0, 2, 1)
                             for (a, b), B in parts.items() if a != b}}
        # one scatter of the stacked blocks: a slot belongs to one component pair,
        # so each entry is still summed over the cells in cell order
        rows, cols = map(list, zip(*parts))
        local = np.stack(list(parts.values()))
        if name != "M":
            local *= c_fac
        data = _scatter(slot[:, rows, :, cols, :], local, indptr)
        # A0, A1 and A2 keep the shared pattern, zero blocks included, so that
        # K(k) is one axpy on their data; M, in every Lanczos matvec, drops its zeros
        mats[name] = (_compact(data, indices, indptr) if name == "M" else
                      sp.csr_matrix((data, indices, indptr), shape=(len(free), len(free))))
    return LameFamily(degree=p, thickness_degree=pt, **mats, free=free, node_z=node_z,
                      node_t=node_t, n_nodes=n_nodes)


def get_family(mesh: MeridianMesh, degree: int = DEFAULT_DEGREE) -> LameFamily:
    """The mesh's family at meridian degree ``degree``, built once per mesh.

    Its thickness degree follows from ``mesh.eps`` and ``degree`` (see
    ``_thickness_degree``), so ``degree`` alone keys the cache.
    """
    if degree not in mesh._families:
        mesh._families[degree] = _build_family(
            mesh, degree, _thickness_degree(mesh.eps, degree))
    return mesh._families[degree]


def assemble_fourier_lame(
    mesh: MeridianMesh, k: int, degree: int = DEFAULT_DEGREE
) -> FourierLameSystem:
    """Stiffness/mass pair at integer wavenumber k (real symmetric form)."""
    if k != int(k):
        raise SolverError("wavenumber must be an integer")
    fam = get_family(mesh, degree)
    # scipy's A0 + k A1 + k^2 A2 in the same operations and order, on the
    # family's shared index arrays: its exact zeros stay stored
    K = sp.csr_matrix((fam.A0.data + k * fam.A1.data + (k * k) * fam.A2.data,
                       fam.A0.indices, fam.A0.indptr), shape=fam.A0.shape)
    return FourierLameSystem(k=int(k), stiffness=K, mass=fam.M, family=fam, mesh=mesh)


def first_eigenpair_2d(
    system: FourierLameSystem, seed: int = 0, x0: np.ndarray | None = None,
) -> tuple[SweepRecord, np.ndarray]:
    """Smallest eigenpair of the assembled mode; returns (record, eigenvector)."""
    pairs = eig.solve_smallest(system.stiffness, system.mass, 1, tol=1e-8, seed=seed, x0=x0)
    rec = SweepRecord(
        eps=system.mesh.eps, k=system.k, lambda1=float(pairs.values[0]),
        dof_count=system.family.dof_count, residual=float(pairs.residuals[0]),
    )
    return rec, pairs.vectors[:, 0]


def default_mesh_size(eps: float) -> tuple[int, int]:
    """(n_meridian, n_thickness) defaults by thickness."""
    if eps >= 0.05:
        return 8, 2
    if eps >= 0.02:
        return 12, 2
    return 16, 2


def _thickness_degree(eps: float, degree: int) -> int:
    """Thickness degree under meridian degree ``degree`` at half-thickness eps.

    The criterion: on each default mesh, the eigenvalue at the table's k_opt
    moves by at most a tenth of the meridian error |lambda(p + 1) -
    lambda(p)| on every table sweep.  At p = 6, degree 3 meets it for
    0.01 <= eps < 0.05 (worst ratio 0.089, L at 0.02; degree 2 reaches 0.52,
    H at 0.01).  Degree 4 misses it at eps = 0.05 (0.13) and degree 5 at
    eps = 0.1 (0.31), both on L, so eps >= 0.05 keeps the full degree.  Below
    eps = 0.01 the meridian error sinks to the level of the algebraic error
    (7.5e-9 at H, 1e-3, k 12, where degree 5 gives a ratio of 2.6), so the
    criterion cannot judge thinner shells, and they keep the full degree too.
    """
    return min(degree, 3) if 0.01 <= eps < 0.05 else degree


def k_sweep(
    profile: ShellProfile,
    eps: float,
    mesh: MeridianMesh | None = None,
    degree: int = DEFAULT_DEGREE,
    asym=None,
    seed: int = 0,
) -> KSweepResult:
    """Sweep integer wavenumbers from k = 0 until the first eigenvalue has clearly turned up.

    Stops after three consecutive increases past the running minimum, or when
    k exceeds 2.5 gamma eps^(-beta) from the 1D prediction; on either exit a
    minimum at k = 0 or at the cap is flagged, with a note naming the exit.
    """
    if mesh is None:
        mesh = build_meridian_mesh(profile, eps)
    if asym is None:
        asym = asymptotics.compute(profile)
    k_cap = int(math.ceil(2.5 * asym.gamma * eps ** float(-asym.beta))) + 1
    records = []
    best = (math.inf, -1)
    increases = 0
    warm = None
    note = "no interior minimum before the wavenumber budget"
    for k in range(k_cap + 1):
        system = assemble_fourier_lame(mesh, k, degree)
        rec, vec = first_eigenpair_2d(system, seed=seed, x0=warm)
        warm = vec[:, np.newaxis]
        records.append(rec)
        if rec.lambda1 < best[0]:
            best = (rec.lambda1, k)
            increases = 0
        else:
            increases += 1
            if increases >= 3:
                note = "minimum at k = 0: the first eigenvalue rose at the next three wavenumbers"
                break
    flagged = best[1] in (0, k_cap)
    return KSweepResult(k_opt=best[1], lambda1=best[0], records=records, flagged=flagged,
                        note=note if flagged else "")


def midline_mode_trace(system: FourierLameSystem, eigvec: np.ndarray) -> MidlineTrace:
    """Radial component along the midline x3 = 0, normalized to max 1.

    The half-width is the distance from the peak at which |u_r| falls below
    e^{-1/2} (averaged over the two sides where available).
    """
    fam = system.family
    mesh = system.mesh
    profile = mesh.profile
    p, pt = fam.degree, fam.thickness_degree
    full = np.zeros(3 * fam.n_nodes)
    full[fam.free] = eigvec
    u_r = full[0::3].reshape(len(fam.node_z), len(fam.node_t))

    # thickness cell containing x3 = 0 and basis values there
    ct = min(np.searchsorted(mesh.t_breaks, 0.0, side="right") - 1,
             mesh.n_thickness - 1)
    t0, t1 = mesh.t_breaks[ct], mesh.t_breaks[ct + 1]
    xt = (0.0 - t0) / (t1 - t0)
    Vt, _ = _lagrange_tables(_lobatto_nodes(pt), np.array([xt]))
    z_lo, z_hi = profile.interval
    zs = np.linspace(z_lo, z_hi, TRACE_SAMPLES)
    cz = np.minimum(np.searchsorted(mesh.z_breaks, zs, side="right") - 1,
                    mesh.n_meridian - 1)
    z0, z1 = mesh.z_breaks[cz], mesh.z_breaks[cz + 1]
    Vz, _ = _lagrange_tables(_lobatto_nodes(p), (zs - z0) / (z1 - z0))
    # nodal u_r interpolated to x3 = 0, then along each sample's meridian cell
    mid = u_r[:, pt * ct : pt * ct + pt + 1] @ Vt[0]
    vals = np.einsum("si,si->s", Vz, mid[p * cz[:, None] + np.arange(p + 1)])
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        return MidlineTrace(z=zs, u_r=vals, argmax_z=zs[0], half_width=0.0)
    vals = vals / peak
    i_max = int(np.argmax(np.abs(vals)))
    if vals[i_max] < 0:
        vals = -vals
    thr = math.exp(-0.5)
    widths = []
    below = np.abs(vals) < thr
    left = np.where(below[:i_max])[0]
    if len(left):
        widths.append(zs[i_max] - zs[left[-1]])
    right = np.where(below[i_max + 1 :])[0]
    if len(right):
        widths.append(zs[i_max + 1 + right[0]] - zs[i_max])
    half_width = float(np.mean(widths)) if widths else float(z_hi - z_lo)
    return MidlineTrace(z=zs, u_r=vals, argmax_z=float(zs[i_max]),
                        half_width=half_width)
