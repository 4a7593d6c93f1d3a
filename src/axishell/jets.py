"""Truncated Taylor-series arithmetic, evaluated at one point or many at once.

Profile descriptors (polynomials, circular arcs) are closed-form, so every
derivative a downstream formula needs can be computed exactly by evaluating
the descriptor in truncated Taylor arithmetic.  This keeps the tight identity
tolerances (1e-12 and below) free of finite-difference noise.

A jet expanded at an array of points stores one coefficient array per order,
so every operation runs over all points in one numpy call.  At each point the
recurrences make the same floating-point operations as at a single point:
element-wise ``+ - * /`` and ``sqrt``, in-order sums, and one BLAS dot per
point, batched by ``np.matmul``.  A jet at one point runs the same calls, so
a jet at an array of points equals the stacked jets at each point bit for
bit.  The sums are exactly those of ``np.convolve`` and ``np.dot``: the
thin-shell pencils are sensitive enough that the summation order is part of
the results (a change of 2 ulp in f' and f'' of model L moves its
eps = 1e-4, k = 44 eigenvalue by 4e-8).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet"]


def _factorials(n: int) -> np.ndarray:
    return np.array([math.factorial(j) for j in range(n + 1)], dtype=float)


def _lift(c: np.ndarray, ndim: int) -> np.ndarray:
    """Per-order array ``(order + 1, *shape)`` with unit point axes added up to ``ndim`` axes."""
    return c.reshape(c.shape[:1] + (1,) * (ndim - c.ndim) + c.shape[1:])


class Jet:
    """Truncated Taylor expansion of a smooth function at a point or points.

    Stores coefficients ``c[j] = f^(j)(z0) / j!`` of shape
    ``(order + 1, *z0.shape)``.  Supports ``+ - * /``, integer powers and
    square roots, mixing freely with plain floats; jets at different point
    shapes broadcast like numpy arrays.  Values and derivatives are floats
    for a scalar expansion point, arrays otherwise.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        value = np.asarray(value, dtype=float)
        c = np.zeros((order + 1,) + value.shape)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, value, order: int) -> "Jet":
        """The identity function z -> z expanded at ``value``."""
        out = cls.constant(value, order)
        if order >= 1:
            out.c[1] = 1.0
        return out

    @classmethod
    def polynomial(cls, coeffs, value, order: int) -> "Jet":
        """The polynomial with ascending ``coeffs`` expanded at ``value`` (Horner)."""
        t = cls.variable(value, order)
        acc = cls.constant(0.0, order)
        for c in reversed(list(coeffs)):
            acc = acc * t + c
        return acc

    @classmethod
    def from_derivatives(cls, derivs) -> "Jet":
        d = np.asarray(derivs, dtype=float)
        return cls(d / _lift(_factorials(len(d) - 1), d.ndim))

    @property
    def order(self) -> int:
        return len(self.c) - 1

    @property
    def value(self):
        return _point_value(self.c[0])

    def derivative(self, j: int = 1):
        if j > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {j}")
        return _point_value(self.c[j] * math.factorial(j))

    def derivatives(self) -> np.ndarray:
        """Array ``[f, f', ..., f^(order)]``, shape ``(order + 1, *points)``."""
        return self.c * _lift(_factorials(self.order), self.c.ndim)

    def diff(self) -> "Jet":
        """Jet of the derivative function (one order lower)."""
        if self.order == 0:
            return Jet(np.zeros_like(self.c))
        ks = np.arange(1, self.order + 1, dtype=float)
        return Jet(self.c[1:] * _lift(ks, self.c.ndim))

    # arithmetic ------------------------------------------------------

    def _wrap(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.order)

    @staticmethod
    def _align(a: "Jet", b: "Jet"):
        """Both coefficient arrays cut to the common order, point axes broadcast."""
        n = min(a.order, b.order)
        ndim = max(a.c.ndim, b.c.ndim)
        return _lift(a.c[: n + 1], ndim), _lift(b.c[: n + 1], ndim), n

    def __add__(self, other):
        a, b, _ = self._align(self, self._wrap(other))
        return Jet(a + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, _ = self._align(self, self._wrap(other))
        return Jet(a - b)

    def __rsub__(self, other):
        a, b, _ = self._align(self, self._wrap(other))
        return Jet(b - a)

    def __neg__(self):
        return Jet(-self.c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * float(other))
        a, b, n = self._align(self, other)
        # Cauchy product with np.convolve's arithmetic: each partial overlap
        # is a BLAS dot, the full overlap is summed in index order
        c = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for k in range(n):
            c[k] = _blas_dot(a[: k + 1], b[k::-1])
        c[n] = a[0] * b[n]
        for i in range(1, n + 1):
            c[n] = c[n] + a[i] * b[n - i]
        return Jet(c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c / float(other))
        a, b, n = self._align(self, other)
        if np.any(b[0] == 0.0):
            raise ZeroDivisionError("jet division by a jet with zero value")
        q = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        q[0] = a[0] / b[0]
        for j in range(1, n + 1):
            q[j] = (a[j] - _blas_dot(b[1 : j + 1], q[j - 1 :: -1])) / b[0]
        return Jet(q)

    def __rtruediv__(self, other):
        return self._wrap(other).__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Jet.constant(np.ones(self.c.shape[1:]), self.order)
        for _ in range(n):
            out = out * self
        return out

    def sqrt(self) -> "Jet":
        a = self.c
        if np.any(a[0] <= 0.0):
            raise ValueError("jet sqrt needs a positive value part")
        n = self.order
        r = np.zeros_like(a)
        r[0] = np.sqrt(a[0])
        for j in range(1, n + 1):
            acc = _blas_dot(r[1:j], r[j - 1 : 0 : -1]) if j >= 2 else 0.0
            r[j] = (a[j] - acc) / (2.0 * r[0])
        return Jet(r)

    def __repr__(self):
        return f"Jet({self.c!r})"


def _blas_dot(x: np.ndarray, y: np.ndarray):
    """sum_i x[i] y[i] over the order axis: one BLAS dot per point, as np.dot makes."""
    x = np.ascontiguousarray(x.transpose(*range(1, x.ndim), 0))
    y = np.ascontiguousarray(y.transpose(*range(1, y.ndim), 0))
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _point_value(v):
    """A float at one point, an array on an array of points."""
    return float(v) if np.ndim(v) == 0 else v
