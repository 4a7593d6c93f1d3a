"""Meridian 2D elasticity: geometry map, assembly identities, solves."""

import numpy as np
import pytest
import scipy.linalg as sla

import axishell as ax
from axishell import lame2d
from axishell.errors import ThicknessError


def test_map_cylinder_trivial():
    prof = ax.preset("A")
    zq = np.array([-0.3, 0.4])
    tq = np.array([0.05, -0.02])
    r, tau, r_z, r_t, tau_z, tau_t, det = lame2d._map_data(prof, zq, tq)
    np.testing.assert_allclose(r, 2.0 + tq, rtol=0, atol=1e-15)
    np.testing.assert_allclose(tau, zq, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.abs(det), 1.0, rtol=0, atol=1e-15)


def test_mesh_jacobians_model_D():
    mesh = lame2d.build_meridian_mesh(ax.preset("D"), 0.2, 16, 2)
    assert mesh.min_jacobian > 0.0
    assert mesh.edge_geometry.shape == (17, 4, 2)


def test_mesh_jacobian_curvature_bound_model_H():
    prof = ax.preset("H")
    eps = 0.01
    mesh = lame2d.build_meridian_mesh(prof, eps, 12, 2)
    # independent estimate: min over z of s (1 - eps |b_zz|)
    zs = np.linspace(-1, 1, 4001)
    s = prof.arc_factor(zs)
    fpp = np.array([prof.jet(z, 2)[2] for z in zs])
    b_zz = fpp / s**3
    want = np.min(s * (1.0 - eps * np.abs(b_zz)))
    assert abs(mesh.min_jacobian - want) <= 0.02 * want


def test_thickness_too_large():
    with pytest.raises(ThicknessError):
        lame2d.build_meridian_mesh(ax.preset("H"), 1.6, 8, 2)
    with pytest.raises(ThicknessError):
        lame2d.build_meridian_mesh(ax.preset("H"), 0.1, 8, 1)


def test_k0_decoupling_and_sign_identity():
    mesh = lame2d.build_meridian_mesh(ax.preset("D"), 0.1, 4, 2)
    fam = lame2d.get_family(mesh, degree=3)
    A0 = fam.A0.toarray()
    comp = fam.free % 3
    phi = np.where(comp == 1)[0]
    oth = np.where(comp != 1)[0]
    assert np.abs(A0[np.ix_(phi, oth)]).max() == 0.0
    k = 4
    Kp = (fam.A0 + k * fam.A1 + k * k * fam.A2).toarray()
    Km = (fam.A0 - k * fam.A1 + k * k * fam.A2).toarray()
    sgn = np.where(comp == 1, -1.0, 1.0)
    assert np.array_equal(sgn[:, None] * Km * sgn[None, :], Kp)


def test_symmetry_and_spd_mass():
    mesh = lame2d.build_meridian_mesh(ax.preset("H"), 0.1, 4, 2)
    system = lame2d.assemble_fourier_lame(mesh, 3, degree=3)
    K = system.stiffness.toarray()
    assert np.array_equal(K, K.T)
    M = system.mass.toarray()
    assert np.array_equal(M, M.T)
    np.linalg.cholesky(M)  # SPD


def test_positive_eigenvalues_all_k():
    mesh = lame2d.build_meridian_mesh(ax.preset("B"), 0.1, 4, 2)
    for k in (0, 1, 5):
        rec = lame2d.first_eigenvalue_2d(
            lame2d.assemble_fourier_lame(mesh, k, degree=3)
        )
        assert rec.lambda1 > 0.0
        assert rec.residual <= 1e-8


@pytest.mark.parametrize("model, k", [("B", 6), ("D", 4), ("H", 5)])
def test_cold_start_eigenvalue_matches_dense_reference(model, k):
    # lambda_1 = 1 / mu_max of the dense reciprocal pencil (M, K), reduced
    # through the Cholesky factor of the SPD K as in tests/koiter1d.py; a
    # small backward error alone does not bound the eigenvalue error
    mesh = lame2d.build_meridian_mesh(ax.preset(model), 0.01, 8, 2)
    system = lame2d.assemble_fourier_lame(mesh, k)
    rec = lame2d.first_eigenvalue_2d(system)
    K, M = system.stiffness.toarray(), system.mass.toarray()
    n = K.shape[0]
    mu_max = sla.eigh(M, K, subset_by_index=[n - 1, n - 1], eigvals_only=True)[0]
    assert abs(rec.lambda1 * mu_max - 1.0) <= 1e-8


def test_p_refinement_monotone():
    mesh = lame2d.build_meridian_mesh(ax.preset("A"), 0.1, 8, 2)
    lams = []
    for degree in (4, 5, 6):
        rec = lame2d.first_eigenvalue_2d(lame2d.assemble_fourier_lame(mesh, 4, degree=degree))
        lams.append(rec.lambda1)
    assert lams[1] <= lams[0] * (1 + 1e-10)
    assert lams[2] <= lams[1] * (1 + 1e-10)
    # regression value recorded from a p-converged run of this assembly
    assert abs(lams[2] - 0.247944) <= 0.02 * 0.247944


def test_sweep_against_1d_prediction_model_A(sweep2d, asym_results):
    sweep = sweep2d("A", 0.01)
    res = asym_results("A")
    # the eps^(5/4)-order surface-model softening leaves the eigenvalue ~31%
    # below a1*eps at this thickness (see Known deviations in README.md)
    assert abs(sweep.lambda1 / (res.a1 * 0.01) - 1) <= 0.35
    ks = [r.k for r in sweep.records]
    lams = [r.lambda1 for r in sweep.records]
    assert sweep.k_opt == ks[int(np.argmin(lams))]
    assert 5 <= sweep.k_opt <= 9


def test_wavenumber_must_be_integer():
    mesh = lame2d.build_meridian_mesh(ax.preset("A"), 0.1, 4, 2)
    with pytest.raises(Exception):
        lame2d.assemble_fourier_lame(mesh, 2.5, degree=3)


def test_midline_trace_normalization(mode_trace):
    rec, trace = mode_trace("A", 0.1, 3, 8)
    assert abs(np.abs(trace.u_r).max() - 1.0) < 1e-12
    assert trace.u_r[np.argmax(np.abs(trace.u_r))] > 0
    assert trace.half_width > 0.3
