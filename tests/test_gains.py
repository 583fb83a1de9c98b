"""Unit gain values: exact exponents, coercion, token round-trips."""
import cmath
import math
import struct
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from gainrank import certify
from gainrank.analysis import analyze, report_to_dict
from gainrank.combinatorics.blocks import cyclomatic_number
from gainrank.combinatorics.cycles import cycle_record
from gainrank.errors import ParseError
from gainrank.gains import Gain
from gainrank.generators import GainSetSpec, assign_gains, random_connected_graph
from gainrank.graphs import GainGraph, parse_gain_graph, serialize_gain_graph
from gainrank.theorems import classify_cycle


def test_axis_values_are_exact():
    assert Gain.from_angle(0).value == 1
    assert Gain.from_angle(1, 2).value == -1
    assert Gain.from_angle(1, 4).value == 1j
    assert Gain.from_angle(3, 4).value == -1j


def test_angle_normalizes_mod_one():
    assert Gain.from_angle(5, 4).angle == Fraction(1, 4)
    assert Gain.from_angle(-1, 4).angle == Fraction(3, 4)


@given(st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_from_angle_lands_on_unit_circle(a):
    g = Gain.from_angle(a.numerator, a.denominator) if a.denominator else Gain.one()
    assert abs(abs(g.value) - 1.0) < 1e-12


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=32),
    st.fractions(min_value=0, max_value=1, max_denominator=32),
)
def test_multiplication_adds_angles(a, b):
    ga = Gain.from_angle(a.numerator, a.denominator)
    gb = Gain.from_angle(b.numerator, b.denominator)
    prod = ga * gb
    assert prod.angle == (a + b) % 1


def test_conjugate_negates_angle():
    g = Gain.from_angle(1, 8)
    assert g.conjugate().angle == Fraction(7, 8)
    assert g.conjugate().value == pytest.approx(g.value.conjugate())


def test_coerce_snaps_near_axis_floats():
    g = Gain.coerce(complex(0.0, 1.0 + 1e-15))
    assert g.angle == Fraction(1, 4)


def test_coerce_rejects_non_unit():
    with pytest.raises(ValueError):
        Gain.coerce(2.0)
    with pytest.raises(ValueError):
        Gain.coerce(0.3 + 0.4j)


@pytest.mark.parametrize("token", ["1", "-1", "i", "-i", "rot(1/8)", "rot(5/12)"])
def test_token_round_trip(token):
    g = Gain.parse_token(token)
    assert Gain.parse_token(g.token()) == g


def test_float_tokens_survive_round_trip():
    z = cmath.exp(1j * 1.234567)
    g = Gain.coerce(z)
    back = Gain.parse_token(g.token())
    assert back.approx_eq(g)


def test_real_part_matches_value():
    g = Gain.from_angle(1, 8)
    assert g.real == pytest.approx(cmath.cos(cmath.pi / 4))


@pytest.mark.parametrize("token", ["c(nan,0)", "c(1,nan)", "c(nan,nan)"])
def test_non_finite_float_tokens_are_rejected(token):
    with pytest.raises(ParseError):
        Gain.parse_token(token)


def test_coerce_and_constructor_reject_nan():
    with pytest.raises(ValueError):
        Gain.coerce(complex("nan"))
    with pytest.raises(ValueError):
        Gain(complex("nan"))


# the Fraction route the exponents replaced: axis constants, else cmath at
# the float of the angle reduced mod 1
_FRACTION_AXES = {Fraction(0): 1 + 0j, Fraction(1, 2): -1 + 0j, Fraction(1, 4): 1j, Fraction(3, 4): -1j}


def _fraction_value(angle: Fraction) -> complex:
    if angle in _FRACTION_AXES:
        return _FRACTION_AXES[angle]
    return cmath.exp(2j * math.pi * float(angle))


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)  # tells -0.0 from 0.0


def test_exponents_match_the_fraction_route_bit_for_bit():
    for q in range(1, 49):
        angles = {}
        for k in range(-q, 2 * q):
            angle = Fraction(k, q) % 1
            g = Gain.from_angle(k, q)
            assert _bits(g.value) == _bits(_fraction_value(angle)), (k, q)
            assert g.angle == angle and (g.k, g.q) == (angle.numerator, angle.denominator)
            conj = g.conjugate()  # the stored value conjugated, not recomputed
            assert _bits(conj.value) == _bits(g.value.conjugate()) and conj.angle == -angle % 1
            angles[angle] = g
        for (a, ga), (b, gb) in product(angles.items(), repeat=2):
            s = (a + b) % 1
            prod = ga * gb
            assert (prod.k, prod.q) == (s.numerator, s.denominator), (a, b)
            assert _bits(prod.value) == _bits(_fraction_value(s))
    assert math.copysign(1.0, Gain.from_angle(3, 4).value.real) == -1.0


def test_equal_exponents_share_one_instance():
    assert Gain.from_angle(Fraction(2, 6)) is Gain.from_angle(4, 12)
    assert Gain.parse_token("-1") is Gain.from_angle(1, 2) is Gain.coerce(-1)


def test_no_fraction_is_built_on_a_hot_path(monkeypatch):
    texts = [
        serialize_gain_graph(assign_gains(random_connected_graph(14, 5, seed), GainSetSpec.parse(kind)))
        for seed, kind in ((1, "gaussian"), (2, "roots:8"))
    ]
    built = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert Fraction(1, 3) and built == [(1, 3)]  # the counter is live
    built.clear()
    for text in texts:
        g = parse_gain_graph(text)
        assert cyclomatic_number(g.underlying()) > 0
        report_to_dict(analyze(g))
    for octants in product(range(8), repeat=4):
        square = GainGraph.build(4, [(i, (i + 1) % 4, Gain.from_angle(o, 8)) for i, o in enumerate(octants)])
        classify_cycle(square, cycle_record(square, (0, 1, 2, 3)))
    monkeypatch.setattr(certify, "_CACTUS_SPOT_EVERY", 50)
    rep = certify.run_cactus_slice(n_max=5, cap=5, seed=0)
    assert rep.cross_checks > 0 and not rep.failures
    assert built == []
