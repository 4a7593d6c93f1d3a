"""Taylor-jet arithmetic against symbolic derivatives."""

import numpy as np
import sympy as sp

import axishell as ax
from axishell.errors import DomainError
from axishell.jets import Jet


def test_polynomial_jet_matches_sympy():
    z = sp.Symbol("z")
    expr = 1 - z**2 / 8 - z**4 / 16
    prof = ax.preset("H")
    for z0 in (-0.7, 0.0, 0.31, 0.99):
        jet = prof.jet(z0, 6)
        for order in range(7):
            want = float(sp.diff(expr, z, order).subs(z, z0))
            assert jet[order] == np.float64(want) or abs(jet[order] - want) <= 1e-14 * max(1, abs(want))


def test_circular_arc_jet_matches_sympy():
    z = sp.Symbol("z")
    expr = -1 + sp.sqrt(4 - z**2)
    prof = ax.preset("D")
    for z0 in (-0.9, -0.2, 0.5, 0.97):
        jet = prof.jet(z0, 5)
        for order in range(6):
            want = float(sp.diff(expr, z, order).subs(z, z0))
            assert abs(jet[order] - want) <= 1e-12 * max(1.0, abs(want))


def test_jet_algebra_against_closed_forms():
    z0 = 0.4
    t = Jet.variable(z0, 5)
    u = (1.0 + t * t).sqrt()      # sqrt(1 + z^2)
    z = sp.Symbol("z")
    expr = sp.sqrt(1 + z**2)
    for order in range(6):
        want = float(sp.diff(expr, z, order).subs(z, z0))
        assert abs(u.derivative(order) - want) <= 1e-13 * max(1.0, abs(want))

    q = (1.0 - t) / (2.0 + t * t * t)
    expr_q = (1 - z) / (2 + z**3)
    for order in range(6):
        want = float(sp.diff(expr_q, z, order).subs(z, z0))
        assert abs(q.derivative(order) - want) <= 1e-13 * max(1.0, abs(want))


def test_jet_diff_and_pow():
    t = Jet.variable(1.5, 4)
    p = t**3
    assert abs(p.value - 3.375) < 1e-15
    assert abs(p.derivative(1) - 3 * 1.5**2) < 1e-13
    dp = p.diff()
    assert abs(dp.value - 3 * 1.5**2) < 1e-13
    assert abs(dp.derivative(1) - 6 * 1.5) < 1e-13


def test_jet_guards():
    t = Jet.variable(0.0, 3)
    try:
        (t - 1.0).sqrt()
    except ValueError:
        pass
    else:
        raise AssertionError("sqrt of a negative-valued jet must fail")


# five presets and an arc whose center is off the interval's midpoint
ARRAY_PROFILES = [ax.preset(mid) for mid in "ABDHL"] + [
    ax.ShellProfile("circular_arc", (-0.5, 0.8), params=(-1.0, 2.0, 0.3))
]


def test_array_jet_equals_stacked_scalar_jets():
    # a jet at an array of points uses the same element-wise operations as
    # one jet per point, so the two agree bit for bit (stronger than 1 ulp)
    for prof in ARRAY_PROFILES:
        zs = np.linspace(*prof.interval, 37)
        for order in range(7):
            stacked = np.stack([prof.jet(z, order) for z in zs], axis=1)
            batched = prof.jet(zs, order)
            assert batched.shape == (order + 1, len(zs))
            np.testing.assert_array_equal(batched, stacked)
        grid = zs[:36].reshape(4, 9)
        np.testing.assert_array_equal(prof.jet(grid, 4), prof.jet(zs[:36], 4).reshape(5, 4, 9))
        assert prof.jet(float(zs[0]), 3).shape == (4,)


def test_array_jet_domain_error():
    prof = ax.preset("H")
    for bad in ([0.0, 0.5, 1.5], [-1.0, np.nan], [[0.0, 2.0]]):
        try:
            prof.jet(np.array(bad), 2)
        except DomainError:
            pass
        else:
            raise AssertionError(f"points {bad} must be rejected")
    assert prof.jet(np.array([-1.0, 1.0]), 2).shape == (3, 2)


def test_jet_algebra_on_arrays_matches_each_point():
    # plain numbers and jets at one point combine with jets at many points
    zs = np.linspace(-0.7, 0.9, 9)
    c = Jet.variable(0.3, 5)
    exprs = [
        lambda t: (1.0 - t) / (2.0 + t * t * t),
        lambda t: 1.0 / (1.0 + t * t).sqrt(),
        lambda t: (c * t - c) ** 2 / (t + 3.0),
        lambda t: (c / (t + 2.0)).diff(),
    ]
    for expr in exprs:
        batched = expr(Jet.variable(zs, 5)).c
        stacked = np.stack([expr(Jet.variable(z, 5)).c for z in zs], axis=1)
        np.testing.assert_array_equal(batched, stacked)


def test_jet_recurrences_match_convolve_and_dot_references():
    # the product and quotient sum exactly as np.convolve and np.dot do: the
    # stored 2D benchmark pencils keep their bits only with this arithmetic
    rng = np.random.default_rng(7)
    for n in range(7):
        for _ in range(40):
            a, b = rng.standard_normal((2, n + 1)) * np.exp(rng.uniform(-3, 3, (2, n + 1)))
            np.testing.assert_array_equal((Jet(a) * Jet(b)).c, np.convolve(a, b)[: n + 1])
            q = np.zeros(n + 1)
            q[0] = a[0] / b[0]
            for j in range(1, n + 1):
                q[j] = (a[j] - np.dot(b[1 : j + 1], q[j - 1 :: -1])) / b[0]
            np.testing.assert_array_equal((Jet(a) / Jet(b)).c, q)
