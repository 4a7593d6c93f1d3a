"""Meridian profiles r = f(z) with exact derivative jets.

A profile is one of three closed-form descriptors (polynomial of degree at
most 8, affine, circular arc), so jets of any order are exact.  The five
built-in models A, B, D, H, L cover the cylinder / cone / toroidal / Gauss /
Airy shell types.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError
from .jets import Jet

__all__ = ["ShellProfile", "preset", "PRESET_IDS"]

MAX_POLY_DEGREE = 8
R_MIN_GUARD = 1e-6  # smallest radius a profile may reach on its interval
PRESET_IDS = ("A", "B", "D", "H", "L")


@dataclass(frozen=True)
class ShellProfile:
    """Shell midsurface profile with material constants.

    ``kind`` is one of ``"polynomial"``, ``"affine"`` or ``"circular_arc"``.
    Polynomial/affine store ascending coefficients in ``coeffs``; a circular
    arc stores ``params = (r_center, arc_radius, z_center)`` meaning
    f(z) = r_center + sqrt(arc_radius^2 - (z - z_center)^2).
    """

    kind: str
    interval: tuple[float, float]
    coeffs: tuple[float, ...] = ()
    params: tuple[float, ...] = ()
    E: float = 1.0
    nu: float = 0.3
    name: str = field(default="", compare=False)

    def __post_init__(self):
        # NaN passes every comparison guard below, so it is refused first
        if not all(map(math.isfinite, (*self.interval, *self.coeffs, *self.params, self.E))):
            raise GeometryError("interval, coefficients, params and E must be finite")
        if len(self.interval) != 2 or not self.interval[0] < self.interval[1]:
            raise GeometryError(f"interval {self.interval} is not (z-, z+) with z- < z+")
        z_minus, z_plus = self.interval
        if self.E <= 0:
            raise GeometryError("Young modulus must be positive")
        if not (-1.0 < self.nu < 0.5):
            raise GeometryError(f"Poisson ratio {self.nu} outside (-1, 1/2)")
        if self.kind in ("polynomial", "affine"):
            if not self.coeffs:
                raise GeometryError(f"{self.kind} profile needs coefficients 'coeffs'")
            if len(self.coeffs) - 1 > MAX_POLY_DEGREE:
                raise GeometryError(
                    f"polynomial degree {len(self.coeffs) - 1} exceeds {MAX_POLY_DEGREE}"
                )
            if self.kind == "affine" and len(self.coeffs) > 2:
                raise GeometryError("affine profile takes at most two coefficients")
        elif self.kind == "circular_arc":
            if len(self.params) != 3:
                raise GeometryError("circular arc needs 'params' (r_center, radius, z_center)")
            r_c, radius, z_c = self.params
            if radius <= 0:
                raise GeometryError("arc radius must be positive")
            half = max(abs(z_minus - z_c), abs(z_plus - z_c))
            if half >= radius:
                raise GeometryError("interval leaves the arc's parametrization range")
        else:
            raise GeometryError(f"unknown profile kind {self.kind!r}")
        samples = self.f(np.linspace(z_minus, z_plus, 513))
        fmin = float(samples.min())
        if fmin < R_MIN_GUARD:
            raise GeometryError(
                f"profile reaches f = {fmin:.6g} below the guard {R_MIN_GUARD:g}"
            )

    # evaluation ------------------------------------------------------

    def f(self, z):
        """Radius f(z), vectorized."""
        return self.taylor(z, 0).value

    def df(self, z):
        """First derivative f'(z), vectorized."""
        return self.taylor(z, 1).derivative(1)

    def arc_factor(self, z):
        """Arc-length factor sqrt(1 + f'(z)^2), vectorized."""
        return np.sqrt(1.0 + self.df(z) ** 2)

    def weight(self, z):
        """Measure density f(z) * sqrt(1 + f'(z)^2), vectorized."""
        return self.f(z) * self.arc_factor(z)

    def taylor(self, z, order: int) -> Jet:
        """Exact Taylor expansion of f at z, a point or an array of points."""
        if self.kind in ("polynomial", "affine"):
            return Jet.polynomial(self.coeffs, z, order)
        t = Jet.variable(z, order)
        r_c, radius, z_c = self.params
        u = radius**2 - (t - z_c) * (t - z_c)
        return u.sqrt() + r_c

    def jet(self, z, order: int = 4) -> np.ndarray:
        """Array [f, f', ..., f^(order)] at z, exact for the descriptor.

        Shape ``(order + 1,)`` for a scalar z, ``(order + 1, *z.shape)`` for
        an array of points, all evaluated at once.
        """
        self.require_inside(z)
        return self.taylor(z, order).derivatives()

    def require_inside(self, z) -> None:
        """Raise DomainError unless every point of z lies in the interval."""
        z_minus, z_plus = self.interval
        tol = 1e-12 * (1 + abs(z_minus) + abs(z_plus))
        z = np.asarray(z, dtype=float)
        outside = ~((z_minus - tol <= z) & (z <= z_plus + tol))
        if np.any(outside):
            raise DomainError(f"z = {z[outside].flat[0]} outside [{z_minus}, {z_plus}]")

    @property
    def length(self) -> float:
        return self.interval[1] - self.interval[0]

    # serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "interval": list(self.interval),
            "E": self.E,
            "nu": self.nu,
        }
        if self.kind in ("polynomial", "affine"):
            doc["coeffs"] = list(self.coeffs)
        else:
            doc["params"] = list(self.params)
        if self.name:
            doc["name"] = self.name
        return doc

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, doc: dict) -> "ShellProfile":
        """Inverse of ``to_dict``; a missing or malformed field raises GeometryError."""
        for key in ("kind", "interval"):
            if not isinstance(doc, dict) or key not in doc:
                raise GeometryError(f"profile has no {key!r} field")
        kwargs = {}
        for key, convert in (("kind", str), ("interval", _floats), ("coeffs", _floats),
                             ("params", _floats), ("E", float), ("nu", float), ("name", str)):
            if key in doc:
                try:
                    kwargs[key] = convert(doc[key])
                except (TypeError, ValueError):
                    raise GeometryError(
                        f"profile field {key!r} is malformed: {doc[key]!r}") from None
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ShellProfile":
        return cls.from_dict(json.loads(text))


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def preset(model_id: str) -> ShellProfile:
    """Built-in model profiles, all with E = 1 and nu = 0.3.

    A: cylinder f = 2 on (-1, 1)
    B: cone f = 1.5 - 0.5 z on (-1, 1)
    D: toroidal barrel f = -1 + sqrt(4 - z^2) on (-1, 1)
    H: Gauss barrel f = 1 - z^2/8 - z^4/16 on (-1, 1)
    L: Airy barrel, same f as H on (0.5, 1.5)
    """
    mid = model_id.strip().upper()
    if mid == "A":
        return ShellProfile("affine", (-1.0, 1.0), coeffs=(2.0,), name="A")
    if mid == "B":
        return ShellProfile("affine", (-1.0, 1.0), coeffs=(1.5, -0.5), name="B")
    if mid == "D":
        return ShellProfile("circular_arc", (-1.0, 1.0), params=(-1.0, 2.0, 0.0), name="D")
    if mid == "H":
        return ShellProfile(
            "polynomial", (-1.0, 1.0), coeffs=(1.0, 0.0, -0.125, 0.0, -0.0625), name="H"
        )
    if mid == "L":
        return ShellProfile(
            "polynomial", (0.5, 1.5), coeffs=(1.0, 0.0, -0.125, 0.0, -0.0625), name="L"
        )
    raise GeometryError(f"unknown model id {model_id!r} (expected one of A, B, D, H, L)")
