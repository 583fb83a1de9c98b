"""Unit-modulus edge gains.

A gain is a complex number on the unit circle. Whenever it is a root of unity
exp(2*pi*i*k/q) we carry the reduced integer exponent (k, q), 0 <= k < q and
gcd(k, q) = 1, so products around cycles of root-of-unity gains are integer
additions mod q and classification never has to lean on float tolerances.
Arbitrary unit complex values are still supported through the float path.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import ParseError

# |z| may deviate this much from 1 before input is rejected; anything closer
# is renormalized to modulus exactly 1.
UNIT_TOL = 1e-6

# two float gains are "the same" below this, and float values this close to
# one of 1, -1, i, -i are snapped to the exact axis angle
SNAP_TOL = 1e-12

# the four axis exponents (k, q) with exact value and token; the package's one copy
AXIS_ANGLES = {
    (0, 1): (1 + 0j, "1"),
    (1, 2): (-1 + 0j, "-1"),
    (1, 4): (1j, "i"),
    (3, 4): (-1j, "-i"),
}
_TOKEN_ANGLES = {tok: kq for kq, (_, tok) in AXIS_ANGLES.items()}
_ROT_RE = re.compile(r"rot\((-?\d+)/(\d+)\)\Z")
_CPLX_RE = re.compile(r"c\(([^,()]+),([^,()]+)\)\Z")


@lru_cache(maxsize=1 << 16)
def _root(k: int, q: int) -> "Gain":
    """The shared gain exp(2*pi*i*k/q), k/q reduced: exact on the axes, cmath elsewhere."""
    axis = AXIS_ANGLES.get((k, q))
    return Gain(axis[0] if axis else cmath.exp(2j * math.pi * (k / q)), k, q)


@dataclass(frozen=True)
class Gain:
    """A unit complex number, with its exponent kept exact when known.

    The gain is exp(2*pi*i*k/q) with 0 <= k < q and gcd(k, q) = 1, or k and
    q are both None for gains known only as floats.
    """

    value: complex
    k: Optional[int] = None
    q: Optional[int] = None

    def __post_init__(self):
        if not abs(abs(self.value) - 1.0) <= 1e-9:
            raise ValueError(f"gain modulus {abs(self.value)!r} is not 1")
        if self.q is not None and not (0 <= self.k < self.q and math.gcd(self.k, self.q) == 1):
            raise ValueError(f"gain exponent {self.k}/{self.q} not reduced into [0, 1)")

    @classmethod
    def from_angle(cls, p: int | Fraction, q: int = 1) -> "Gain":
        """exp(2*pi*i*p/q) for an int or Fraction p and q >= 1, the angle taken mod 1."""
        k, q = p.numerator, p.denominator * q
        d = math.gcd(k, q)
        return _root(k // d % (q // d), q // d)

    @classmethod
    def from_complex(cls, z: complex) -> "Gain":
        """Normalize a float gain; reject moduli further than UNIT_TOL from 1."""
        mod = abs(z)
        if not abs(mod - 1.0) <= UNIT_TOL:
            raise ValueError(f"gain {z!r} has modulus {mod:.8g}, not 1")
        z = z / mod
        for kq, (value, _) in AXIS_ANGLES.items():
            if abs(z - value) <= SNAP_TOL:
                return _root(*kq)
        return cls(z)

    @classmethod
    def one(cls) -> "Gain":
        return _root(0, 1)

    @classmethod
    def coerce(cls, g: "Gain | complex | int | float | str") -> "Gain":
        if isinstance(g, Gain):
            return g
        if isinstance(g, str):
            return cls.parse_token(g)
        return cls.from_complex(complex(g))

    @property
    def angle(self) -> Optional[Fraction]:
        """The exponent as a fraction of a full turn in [0, 1), or None."""
        return None if self.q is None else Fraction(self.k, self.q)

    def conjugate(self) -> "Gain":
        k = None if self.q is None else -self.k % self.q
        return Gain(self.value.conjugate(), k, self.q)

    def __mul__(self, other: "Gain") -> "Gain":
        if self.q is not None and other.q is not None:
            return Gain.from_angle(self.k * other.q + other.k * self.q, self.q * other.q)
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
            return _root(*_TOKEN_ANGLES[token])
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
        if self.q is not None:
            axis = AXIS_ANGLES.get((self.k, self.q))
            return axis[1] if axis else f"rot({self.k}/{self.q})"
        return f"c({self.value.real:.17g},{self.value.imag:.17g})"

    def __repr__(self):
        return f"Gain({self.token()})"
