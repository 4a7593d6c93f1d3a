"""Symbol matrices, elimination identities, and surface reconstruction."""

import numpy as np
import pytest

import axishell as ax
from axishell import symbols as sy
from axishell.errors import GeometryError


def random_frames(n_per_model=20, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    for mid in "ABDHL":
        prof = ax.preset(mid)
        for z in rng.uniform(*prof.interval, size=n_per_model):
            out.append(ax.frame_at(prof, float(z)))
    return out


def test_sparsity_pattern():
    m1_zero = [(0, 0), (1, 1), (0, 2), (2, 0), (2, 2)]
    m2_zero = [(0, 1), (1, 0), (1, 2), (2, 1)]
    for fr in random_frames():
        mats, _ = sy.symbols_at(fr)
        for i, j in m1_zero:
            assert mats.M1[i][j].is_zero
        for i, j in m2_zero:
            assert mats.M2[i][j].is_zero
        assert mats.M0[2, 2] == 0.0 and mats.M0[0, 1] == 0.0
        assert mats.M0[0, 0] > 0.0 and mats.M0[1, 1] > 0.0


def test_cylinder_values():
    fr = ax.frame_at(ax.preset("A"), 0.3)
    mats, red = sy.symbols_at(fr)
    assert abs(mats.M0[1, 1] - 1.0 / (0.91 * 16)) < 1e-15
    assert red.V1[1].coeffs == (2.0,)
    assert red.V1[0].is_zero
    assert red.H0 == 0.0
    # 5E2-type degeneracy: every parabolic reduction coefficient vanishes
    assert all(c == 0.0 for c in red.H2.coeffs)
    np.testing.assert_allclose(red.H4_parabolic.coeffs, (0, 0, 0, 0, 4.0))


def test_parabolic_H2_vanishes_with_lam0():
    fr = ax.frame_at(ax.preset("B"), -0.4)
    _, red = sy.symbols_at(fr, lam0=0.0)
    assert all(c == 0.0 for c in red.H2.coeffs)


def test_H3_scaling():
    fr = ax.frame_at(ax.preset("H"), 0.2)
    _, red0 = sy.symbols_at(fr, lam1=0.0)
    _, red1 = sy.symbols_at(fr, lam1=1.0)
    assert red0.H3.coeffs == (0.0,)
    assert red1.H3.coeffs[0] != 0.0


def test_H0_recurrence():
    assert sy.verify_H0_recurrence(ax.frame_at(ax.preset("H"), 0.3)) <= 1e-12
    assert sy.verify_H0_recurrence(ax.frame_at(ax.preset("D"), 0.0)) <= 1e-12
    for z in (-0.8, 0.1, 0.9):
        assert sy.verify_H0_recurrence(ax.frame_at(ax.preset("A"), z)) == 0.0
    for fr in random_frames(5):
        assert sy.verify_H0_recurrence(fr) <= 1e-12


def test_V2_equation():
    z2 = [0.0, 0.0, 1.0]
    assert sy.verify_V2_equation(ax.frame_at(ax.preset("H"), 0.3), z2) <= 1e-10
    assert sy.verify_V2_equation(ax.frame_at(ax.preset("B"), 0.5), [1.0]) <= 1e-10
    for fr in random_frames(5, seed=12):
        assert sy.verify_V2_equation(fr, [0.3, -1.0, 0.25, 0.5]) <= 1e-10
    with pytest.raises(ValueError):
        sy.verify_V2_equation(ax.frame_at(ax.preset("H"), 0.0), [1.0] * 8)


def test_V2_cylinder_gradient_scaling():
    # constant radius: V2_z reduces to -R d/dz
    fr = ax.frame_at(ax.preset("A"), -0.2)
    _, red = sy.symbols_at(fr)
    v2z = red.V2[0]
    assert abs(v2z.coeffs[0]) < 1e-15
    assert abs(v2z.coeffs[1] + 2.0) < 1e-15  # -R with R = 2
    # applied to z^3 the image is -R * 3 z^2
    z = -0.2
    assert abs((v2z.coeffs[1] * 3 * z**2) - (-2.0 * 3 * z**2)) < 1e-15


def test_H2_recurrence_including_lam0():
    # order-2 elimination identity ties H2 to V3, V2 and the symbol matrices
    for fr in random_frames(4, seed=13):
        for lam0 in (0.0, 0.25):
            r = sy.verify_H2_recurrence(fr, [0.0, 0.0, 1.0], lam0=lam0)
            assert r <= 1e-9
            r = sy.verify_H2_recurrence(fr, [1.0, 0.5, -2.0, 1.0], lam0=lam0)
            assert r <= 1e-9


def test_H2_selfadjoint_coefficient_relation():
    # H2^(1) = d/dz H2^(2) + H2^(2) (fs)'/(fs): the printed operator is exactly
    # the weak form under the weighted measure
    for fr in random_frames(6, seed=14):
        e = sy._jet_entries(fr, lam0=0.1)
        h2 = e["H2"]
        fj = fr.jet(4)
        w = fj * (1.0 + fj.diff() * fj.diff()).sqrt()
        rhs = h2[2].diff() + h2[2] * w.diff() / w
        scale = max(abs(h2[1].value), abs(rhs.value), 1e-3)
        assert abs(h2[1].value - rhs.value) <= 1e-11 * scale


def test_reconstruct_cylinder():
    prof = ax.preset("A")
    zs = np.linspace(-1, 1, 41)
    frames = ax.frame_at(prof, zs)
    eta = np.sin(np.pi * zs) ** 2
    d1 = 2 * np.pi * np.sin(np.pi * zs) * np.cos(np.pi * zs)
    d2 = 2 * np.pi**2 * np.cos(2 * np.pi * zs)
    k = 10.0
    field = sy.reconstruct_surface_mode(frames, k, eta, d1, d2)
    R, nu = 2.0, 0.3
    # order k^-1 azimuthal term is R eta0
    np.testing.assert_allclose(field[1], R * eta / k + (-nu * R**3 * d2) / k**3,
                               rtol=1e-12, atol=1e-12)
    # meridian term is -R eta0' / k^2
    np.testing.assert_allclose(field[0], -R * d1 / k**2, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(field[2], eta, rtol=0, atol=0)


def test_reconstruct_zero_and_k0():
    prof = ax.preset("H")
    zs = np.linspace(-1, 1, 21)
    frames = ax.frame_at(prof, zs)
    field = sy.reconstruct_surface_mode(frames, 5.0, np.zeros_like(zs))
    assert np.all(field == 0.0)
    with pytest.raises(GeometryError):
        sy.reconstruct_surface_mode(frames, 0.0, np.ones_like(zs))
