"""Unit-modulus edge gains.

A gain is a complex number on the unit circle. Whenever the angle is a known
rational multiple of a full turn we carry it exactly (as a Fraction in [0, 1)),
so products around cycles of root-of-unity gains stay exact and classification
never has to lean on float tolerances. Arbitrary unit complex values are still
supported through the float path.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParseError

# |z| may deviate this much from 1 before input is rejected; anything closer
# is renormalized to modulus exactly 1.
UNIT_TOL = 1e-6

# two float gains are "the same" below this, and float values this close to
# one of 1, -1, i, -i are snapped to the exact axis angle
SNAP_TOL = 1e-12

# the four axis angles with exact value and token; the package's one copy
AXIS_ANGLES = {
    Fraction(0): (1 + 0j, "1"),
    Fraction(1, 2): (-1 + 0j, "-1"),
    Fraction(1, 4): (1j, "i"),
    Fraction(3, 4): (-1j, "-i"),
}
_TOKEN_ANGLES = {tok: ang for ang, (_, tok) in AXIS_ANGLES.items()}
_ROT_RE = re.compile(r"rot\((-?\d+)/(\d+)\)\Z")
_CPLX_RE = re.compile(r"c\(([^,()]+),([^,()]+)\)\Z")


def _angle_value(angle: Fraction) -> complex:
    # exact values on the axes, cmath elsewhere
    if angle in AXIS_ANGLES:
        return AXIS_ANGLES[angle][0]
    return cmath.exp(2j * math.pi * float(angle))


@dataclass(frozen=True)
class Gain:
    """A unit complex number, with its angle kept exact when known.

    ``angle`` is the fraction of a full turn, reduced into [0, 1), or None
    for gains known only as floats.
    """

    value: complex
    angle: Optional[Fraction] = None

    def __post_init__(self):
        if abs(abs(self.value) - 1.0) > 1e-9:
            raise ValueError(f"gain modulus {abs(self.value)!r} is not 1")
        if self.angle is not None and not 0 <= self.angle < 1:
            raise ValueError(f"gain angle {self.angle} not reduced into [0, 1)")

    @classmethod
    def from_angle(cls, p: int | Fraction, q: int = 1) -> "Gain":
        angle = (Fraction(p, q) if q != 1 or not isinstance(p, Fraction) else p) % 1
        return cls(_angle_value(angle), angle)

    @classmethod
    def from_complex(cls, z: complex) -> "Gain":
        """Normalize a float gain; reject moduli further than UNIT_TOL from 1."""
        mod = abs(z)
        if abs(mod - 1.0) > UNIT_TOL:
            raise ValueError(f"gain {z!r} has modulus {mod:.8g}, not 1")
        z = z / mod
        for angle, (value, _) in AXIS_ANGLES.items():
            if abs(z - value) <= SNAP_TOL:
                return cls(value, angle)
        return cls(z, None)

    @classmethod
    def one(cls) -> "Gain":
        return cls.from_angle(0)

    @classmethod
    def coerce(cls, g: "Gain | complex | int | float | str") -> "Gain":
        if isinstance(g, Gain):
            return g
        if isinstance(g, str):
            return cls.parse_token(g)
        return cls.from_complex(complex(g))

    def conjugate(self) -> "Gain":
        angle = None if self.angle is None else (-self.angle) % 1
        return Gain(self.value.conjugate(), angle)

    def __mul__(self, other: "Gain") -> "Gain":
        if self.angle is not None and other.angle is not None:
            return Gain.from_angle(self.angle + other.angle)
        return Gain.from_complex(self.value * other.value)

    @property
    def real(self) -> float:
        return self.value.real

    def approx_eq(self, other: "Gain", tol: float = SNAP_TOL) -> bool:
        return abs(self.value - other.value) <= tol

    # -- text format -------------------------------------------------------

    @classmethod
    def parse_token(cls, token: str) -> "Gain":
        token = token.strip()
        if token in _TOKEN_ANGLES:
            return cls.from_angle(_TOKEN_ANGLES[token])
        m = _ROT_RE.match(token)
        if m:
            p, q = int(m.group(1)), int(m.group(2))
            if q < 1:
                raise ParseError(f"bad gain token {token!r}: denominator must be >= 1")
            return cls.from_angle(p, q)
        m = _CPLX_RE.match(token)
        if m:
            try:
                z = complex(float(m.group(1)), float(m.group(2)))
            except ValueError as exc:
                raise ParseError(f"bad gain token {token!r}: {exc}") from None
            try:
                return cls.from_complex(z)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        raise ParseError(f"unrecognized gain token {token!r}")

    def token(self) -> str:
        if self.angle is not None:
            if self.angle in AXIS_ANGLES:
                return AXIS_ANGLES[self.angle][1]
            return f"rot({self.angle.numerator}/{self.angle.denominator})"
        return f"c({self.value.real:.17g},{self.value.imag:.17g})"

    def __repr__(self):
        return f"Gain({self.token()})"
