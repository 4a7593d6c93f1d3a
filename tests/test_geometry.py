"""Pointwise geometry, classification, and the potential minimum."""

import dataclasses

import numpy as np
import pytest

import axishell as ax
from axishell import geometry
from axishell.errors import DomainError, GeometryError
from axishell.geometry import ShellClassTag
from axishell.profiles import ShellProfile


def test_frame_model_A():
    fr = ax.frame_at(ax.preset("A"), 0.0)
    assert fr.H0 == 0.0
    assert fr.b_pp == -0.5
    assert fr.K == 0.0
    assert fr.admissible


def test_frame_model_D():
    fr = ax.frame_at(ax.preset("D"), 0.0)
    assert abs(fr.H0 - 0.25) < 1e-14
    assert abs(fr.g - 0.5) < 1e-14
    assert abs(fr.K - fr.b_zz * fr.b_pp) < 1e-14


def test_frame_model_H():
    fr = ax.frame_at(ax.preset("H"), 0.0)
    assert abs(fr.H0 - 0.0625) < 1e-15
    assert abs(fr.g - 0.375) < 1e-15
    assert abs(fr.B0 - 1.0 / (3 * 0.91)) < 1e-15


def test_frame_errors():
    prof = ax.preset("H")
    with pytest.raises(DomainError):
        ax.frame_at(prof, 2.0)
    with pytest.raises(GeometryError):
        ShellProfile("polynomial", (-1.0, 1.0), coeffs=(0.1, 0.0, -1.0))
    with pytest.raises(GeometryError):
        ShellProfile("polynomial", (-1.0, 1.0), coeffs=(2.0,) + (0.0,) * 8 + (1e-3,))
    with pytest.raises(GeometryError):
        ShellProfile("circular_arc", (-1.0, 1.0), params=(0.5, 0.9, 0.0))
    with pytest.raises(GeometryError):
        ShellProfile("polynomial", (-1.0, 1.0), coeffs=(2.0,), nu=0.6)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs", [
    dict(kind="circular_arc", interval=(-1.0, 1.0), params=(NAN, 2.0, 0.0)),
    dict(kind="circular_arc", interval=(-1.0, 1.0), params=(-1.0, 2.0, NAN)),
    dict(kind="polynomial", interval=(-1.0, 1.0), coeffs=(2.0, NAN)),
    dict(kind="polynomial", interval=(-1.0, 1.0), coeffs=(2.0, 0.0, INF)),
    dict(kind="affine", interval=(-1.0, INF), coeffs=(2.0,)),
    dict(kind="affine", interval=(-INF, 1.0), coeffs=(2.0,)),
    dict(kind="affine", interval=(-1.0, 1.0), coeffs=(2.0,), E=NAN),
    dict(kind="affine", interval=(-1.0, 1.0), coeffs=(2.0,), E=INF),
])
def test_profile_refuses_non_finite_numbers(kwargs):
    # NaN slips through every comparison guard, so finiteness is checked first
    with pytest.raises(GeometryError, match="must be finite"):
        ShellProfile(**kwargs)


def test_array_frame_matches_pointwise_frames():
    # frame_at and h2_coefficients on an array equal the per-point results
    # field by field, bit for bit; scalar frames keep plain float fields
    from axishell.symbols import h2_coefficients

    profiles = [ax.preset(mid) for mid in "ABDHL"] + [
        ShellProfile("circular_arc", (-0.5, 0.8), params=(-1.0, 2.0, 0.3))
    ]
    for prof in profiles:
        zs = np.linspace(*prof.interval, 41)
        batched = ax.frame_at(prof, zs)
        frames = [ax.frame_at(prof, z) for z in zs]
        for field in dataclasses.fields(geometry.GeometryFrame):
            got = np.broadcast_to(getattr(batched, field.name), zs.shape)
            want = np.array([getattr(fr, field.name) for fr in frames])
            np.testing.assert_array_equal(got, want, err_msg=f"{prof.name} {field.name}")
        h2 = np.array([h2_coefficients(fr, 0.3) for fr in frames]).T
        np.testing.assert_array_equal(np.array(h2_coefficients(batched, 0.3)), h2)
        assert all(type(c) is float for c in h2_coefficients(frames[0], 0.3))
        assert type(frames[0].H0) is float and type(frames[0].admissible) is bool
    with pytest.raises(DomainError):
        ax.frame_at(ax.preset("H"), np.array([0.0, 1.2]))


def test_h0_equals_meridian_curvature_squared():
    # two code paths: the H0 formula vs E * b_zz^2
    rng = np.random.default_rng(3)
    for mid in "ABDHL":
        prof = ax.preset(mid)
        for z in rng.uniform(*prof.interval, size=50):
            fr = ax.frame_at(prof, float(z))
            assert abs(fr.H0 - prof.E * fr.b_zz**2) <= 1e-14 * max(fr.H0, 1.0)


def test_curvature_identity_second_order():
    # -H2^(2) = 2E (f^2/s^2) b_zz (b_pp - b_zz), against the explicit formula
    from axishell.symbols import h2_coefficients

    rng = np.random.default_rng(4)
    for mid in "ABDHL":
        prof = ax.preset(mid)
        for z in rng.uniform(*prof.interval, size=100):
            fr = ax.frame_at(prof, float(z))
            h2 = h2_coefficients(fr, 0.0)
            curv = 2 * prof.E * (fr.f**2 / fr.s**2) * fr.b_zz * (fr.b_pp - fr.b_zz)
            assert abs(-h2[2] - curv) <= 1e-12 * max(abs(curv), 1e-3)
            assert fr.g == -h2[2]
            if fr.admissible:
                assert fr.g >= -1e-14


def test_curvature_identity_fourth_order():
    from axishell.symbols import symbols_at

    rng = np.random.default_rng(5)
    for mid in "ABDHL":
        prof = ax.preset(mid)
        for z in rng.uniform(*prof.interval, size=100):
            fr = ax.frame_at(prof, float(z))
            _, red = symbols_at(fr)
            curv = prof.E * (fr.f**4 / fr.s**4) * (fr.b_pp - 3 * fr.b_zz) * (fr.b_pp - fr.b_zz)
            assert abs(red.H4_principal - curv) <= 1e-12 * max(abs(curv), 1e-3)


def test_classify_presets():
    tags = {
        "A": ShellClassTag.CYLINDER,
        "B": ShellClassTag.CONE,
        "D": ShellClassTag.TORUS_ELLIPTIC,
        "H": ShellClassTag.GAUSS_ELLIPTIC,
        "L": ShellClassTag.AIRY_ELLIPTIC,
    }
    for mid, tag in tags.items():
        cls = ax.classify(ax.preset(mid))
        assert cls.tag is tag, mid
    clsH = ax.classify(ax.preset("H"))
    assert abs(clsH.z0) < 1e-10
    clsL = ax.classify(ax.preset("L"))
    assert clsL.z0 == 0.5 and clsL.boundary_minimum


def test_classify_samples_the_frame_once(monkeypatch):
    # classify hands its sampled H0 to the minimum search: one frame on the
    # CLASSIFY_CELLS grid, then one at the minimizer; the minimum is the one
    # locate_H0_minimum finds on its own sampling
    prof = ax.preset("H")
    sizes = []
    frame_at = geometry.frame_at

    def counting(profile, z):
        sizes.append(np.size(z))
        return frame_at(profile, z)

    monkeypatch.setattr(geometry, "frame_at", counting)
    cls = geometry.classify(prof)
    assert sizes == [geometry.CLASSIFY_CELLS + 1, 1]
    sizes.clear()
    assert geometry.locate_H0_minimum(prof) == cls.h0_minimum
    assert sizes == [geometry.CLASSIFY_CELLS + 1]


def test_classify_hyperbolic_and_mixed():
    hyper = ShellProfile("polynomial", (-1.0, 1.0), coeffs=(1.0, 0.0, 0.25))
    assert ax.classify(hyper).tag is ShellClassTag.HYPERBOLIC
    mixed = ShellProfile("polynomial", (-1.0, 1.0), coeffs=(2.0, 0.0, 0.0, 1.0 / 3.0))
    assert ax.classify(mixed).tag is ShellClassTag.HYPERBOLIC


def test_classify_inadmissible_cases():
    # admissibility violated at a boundary minimizer of the potential
    bad = ShellProfile("polynomial", (-0.2, 0.2), coeffs=(2.0, 0.0, -1.0))
    cls = ax.classify(bad)
    assert cls.tag is ShellClassTag.INADMISSIBLE
    # torus with positive arc-center radius violates admissibility everywhere
    bad_torus = ShellProfile("circular_arc", (-1.0, 1.0), params=(0.5, 2.0, 0.0))
    assert ax.classify(bad_torus).tag is ShellClassTag.INADMISSIBLE
    # degenerate interior minimum (H0 and H0'' both vanish at z0)
    degen = ShellProfile("polynomial", (-0.8, 0.8), coeffs=(4.0, 0.0, 0.0, 0.0, -1.0 / 16))
    assert ax.classify(degen).tag is ShellClassTag.INADMISSIBLE


def test_locate_minimum_model_H():
    mn = ax.locate_H0_minimum(ax.preset("H"))
    assert abs(mn.z0) <= 1e-10
    assert abs(mn.value - 0.0625) < 1e-13
    assert abs(mn.d2 - 93.0 / 128.0) < 1e-10 * (93.0 / 128.0)
    # independent oracle: second central difference of H0 at step 1e-4
    prof = ax.preset("H")
    h = 1e-4
    h0 = lambda z: geometry.h0_taylor(prof, z, 0).value  # noqa: E731
    d2_fd = (h0(mn.z0 + h) - 2 * h0(mn.z0) + h0(mn.z0 - h)) / h**2
    assert abs(mn.d2 - d2_fd) < 2e-6
    assert not mn.boundary and not mn.multiple


def test_locate_minimum_model_L():
    mn = ax.locate_H0_minimum(ax.preset("L"))
    assert mn.z0 == 0.5 and mn.boundary
    assert mn.d1 > 0.0
    assert abs(mn.value - 0.17804) < 1e-4


def test_locate_minimum_model_D_constant():
    # a flat potential (A, B and D) is one interior branch at the midpoint,
    # not one per sample
    for model, value in (("A", 0.0), ("B", 0.0), ("D", 0.25)):
        mn = ax.locate_H0_minimum(ax.preset(model))
        assert len(mn.branches) == 1 and not mn.multiple, model
        assert mn.z0 == 0.0 and not mn.boundary, model
        assert abs(mn.value - value) < 1e-13, model
        assert abs(mn.d1) < 1e-10, model


# (z0, value, d1, d2, boundary) of every branch, and both ends of the
# essential spectrum, as float.hex.  Each candidate of the batched
# golden/Newton search must make the floating-point operations of a search
# of its cells alone, with its own stop, so these bits do not move.
H0_MIN_BITS = {
    "H": ([("0x0.0p+0", "0x1.0000000000000p-4", "0x0.0p+0", "0x1.7400000000000p-1", False)],
          ("0x1.0000000000000p+0", "0x1.363ac622898b1p+0")),
    "L": ([("0x1.0000000000000p-1", "0x1.6ca2ccf82c9f1p-3", "0x1.140bf6f75b333p-1",
            "0x1.7ea9f190f9867p+0", True)],
          ("0x1.0c712696ea427p+0", "0x1.3e2597a2dfbeap+1")),
    "two-end": ([("-0x1.0000000000000p+0", "0x1.0624dd2f1a9fcp-5", "0x1.3a92a30553261p-3",
                  "0x1.a8ac5c13fd0d0p-1", True),
                 ("0x1.0000000000000p+0", "0x1.0624dd2f1a9fcp-5", "-0x1.3a92a30553261p-3",
                  "0x1.a8ac5c13fd0d0p-1", True)],
                ("0x1.2f684bda12f6ap-3", "0x1.0000000000000p-2")),
    "two-well": ([("-0x1.03816f86f981cp-1", "0x1.3a81927a1b688p-5", "0x1.32fd2e9ec8465p-56",
                   "0x1.9462b57cd0b33p-1", False),
                  ("0x1.03816f86f981cp-1", "0x1.3a81927a1b688p-5", "-0x1.32fd2e9ec8465p-56",
                   "0x1.9462b57cd0b33p-1", False)],
                 ("0x1.0000000000000p-2", "0x1.0c2f560625ed7p-2")),
    # the two-well profile moved to (0, 2): its left candidate stops on a
    # Newton step of a few ulp, after which a further step would still move it
    "two-well (0, 2)": ([("0x1.f8fd20f20cfcbp-2", "0x1.3a81927a1b679p-5", "-0x1.2d3ba28bce1e9p-53",
                          "0x1.9462b57cd0b1cp-1", False),
                         ("0x1.81c0b7c37cc12p+0", "0x1.3a81927a1b643p-5", "-0x1.fa882685fda73p-56",
                          "0x1.9462b57cd0b26p-1", False)],
                        ("0x1.0000000000000p-2", "0x1.0c2f560625ed7p-2")),
}
# model D: its flat H0 is one branch at the midpoint
H0_MIN_D = ([("0x0.0p+0", "0x1.0000000000000p-2", "0x0.0p+0", "0x0.0p+0", False)],
            ("0x1.0000000000000p+0", "0x1.6646e17211cc1p+0"))


def _branch_rows(mn):
    return [(b.z0.hex(), b.value.hex(), b.d1.hex(), b.d2.hex(), b.boundary)
            for b in mn.branches]


def test_h0_minimum_and_spectrum_bits():
    profs = {
        "H": ax.preset("H"),
        "L": ax.preset("L"),
        "two-end": ShellProfile("polynomial", (-1.0, 1.0), coeffs=(2.0, 0.0, -1.0)),
        "two-well": ShellProfile(
            "polynomial", (-1.0, 1.0),
            coeffs=(2.0, 0.0, -0.13125, 0.0, 0.5 / 12.0, 0.0, -1.0 / 30.0),
        ),
        "two-well (0, 2)": ShellProfile(
            "polynomial", (0.0, 2.0),
            coeffs=(1.8770833333333332, 0.2958333333333334, -0.38125, 0.5,
                    -0.4583333333333333, 0.2, -0.03333333333333333),
        ),
    }
    for name, prof in profs.items():
        rows, spectrum = H0_MIN_BITS[name]
        assert _branch_rows(ax.locate_H0_minimum(prof)) == rows, name
        assert tuple(v.hex() for v in ax.essential_spectrum_range(prof)) == spectrum, name
    prof = ax.preset("D")
    assert _branch_rows(ax.locate_H0_minimum(prof)) == H0_MIN_D[0]
    assert tuple(v.hex() for v in ax.essential_spectrum_range(prof)) == H0_MIN_D[1]
    # brackets of different widths stop at different steps; a stopped lane
    # must stay as it would be searched alone
    h0 = lambda z: geometry.h0_taylor(profs["H"], z, 0).value  # noqa: E731
    lo, hi = np.array([-0.1, -1e-3, -0.3]), np.array([0.2, 3e-3, 0.25])
    batched = geometry._golden_min(h0, lo, hi, 1e-10)
    alone = [geometry._golden_min(h0, lo[i:i + 1], hi[i:i + 1], 1e-10)[0] for i in range(3)]
    assert batched.tolist() == alone


def test_multi_minimum_report():
    # symmetric profile: equal boundary minima at both ends
    prof = ShellProfile("polynomial", (-1.0, 1.0), coeffs=(2.0, 0.0, -1.0))
    mn = ax.locate_H0_minimum(prof)
    assert mn.multiple and len(mn.branches) == 2
    assert {b.z0 for b in mn.branches} == {-1.0, 1.0}
    cls = ax.classify(prof)
    assert cls.tag is ShellClassTag.AIRY_ELLIPTIC


def test_essential_spectrum_ranges():
    lo, hi = ax.essential_spectrum_range(ax.preset("A"))
    assert abs(lo - 0.25) < 1e-12 and abs(hi - 0.25) < 1e-12
    # model D: range of (1/4)(1 + 1/f)^2, against dense sampling
    prof = ax.preset("D")
    zs = np.linspace(-1, 1, 20001)
    vals = 0.25 * (1 + 1 / prof.f(zs)) ** 2
    lo, hi = ax.essential_spectrum_range(prof)
    assert abs(lo - vals.min()) < 1e-9
    assert abs(hi - vals.max()) < 1e-9
    # parabolic profiles have a strictly positive bottom
    for mid in "AB":
        lo, _ = ax.essential_spectrum_range(ax.preset(mid))
        assert lo > 0.0


def test_admissibility_and_spectral_gap():
    # presets D, H, L admissible everywhere, strictly at the minimizer,
    # and their potential bottom sits below the essential spectrum
    for mid in "DHL":
        prof = ax.preset(mid)
        zs = np.linspace(*prof.interval, 2001)
        adm = 1 + prof.df(zs) ** 2 + prof.f(zs) * prof.jet(zs, 2)[2]
        assert adm.min() >= 0.0
        mn = ax.locate_H0_minimum(prof)
        fr = ax.frame_at(prof, mn.z0)
        assert 1 + fr.fp**2 + fr.f * fr.fpp > 0.0
        lo, _ = ax.essential_spectrum_range(prof)
        assert mn.value < lo


def test_preset_contracts():
    for mid in "ABDHL":
        prof = ax.preset(mid)
        assert prof.E == 1.0 and prof.nu == 0.3
    assert ax.preset("A").interval == (-1.0, 1.0)
    assert ax.preset("L").interval == (0.5, 1.5)
    assert ax.preset("B").f(0.0) == 1.5 and ax.preset("B").df(0.0) == -0.5
    assert ax.preset("d").kind == "circular_arc"  # case-insensitive id
    with pytest.raises(GeometryError):
        ax.preset("Q")


def test_profile_json_roundtrip(tmp_path):
    prof = ax.preset("D")
    text = prof.to_json()
    back = ShellProfile.from_json(text)
    assert back == prof
    custom = ShellProfile("polynomial", (0.1, 0.9), coeffs=(1.0, 0.2, -0.3), E=2.0, nu=0.25)
    assert ShellProfile.from_dict(custom.to_dict()) == custom
