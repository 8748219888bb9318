import math

import pytest

from twistforge import classnum


def test_discriminant_validation():
    with pytest.raises(ValueError):
        classnum.Discriminant(5, False)
    with pytest.raises(ValueError):
        classnum.Discriminant(-5, False)  # -5 = 3 mod 4
    classnum.make_discriminant(-7)
    classnum.make_discriminant(-8)


def test_make_discriminant_flags():
    assert classnum.make_discriminant(-7).is_fundamental
    assert not classnum.make_discriminant(-27).is_fundamental  # -27 = 1 mod 4? no: -27 % 4 = 1
    assert classnum.make_discriminant(-4).is_fundamental   # q = 1
    assert classnum.make_discriminant(-8).is_fundamental   # q = 2
    assert not classnum.make_discriminant(-16).is_fundamental  # q = 4 not squarefree
    assert not classnum.make_discriminant(-12).is_fundamental  # q = 3 = 3 mod 4


def test_exact_class_number_hand_values():
    # classical table of small imaginary quadratic fields
    known = {-7: 1, -8: 1, -11: 1, -19: 1, -23: 3, -31: 3, -43: 1,
             -47: 5, -67: 1, -163: 1, -15: 2, -20: 2, -24: 2}
    for d, h in known.items():
        assert classnum.exact_class_number(d) == h, d


def test_exact_class_number_range_checks():
    with pytest.raises(classnum.OutOfRange):
        classnum.exact_class_number(-4)
    with pytest.raises(classnum.OutOfRange):
        classnum.exact_class_number(-(10**7 + 9))


def test_frobenius_discriminant():
    fr = classnum.frobenius_discriminant(101, 107)  # t = 5
    assert fr.delta == 4 * 101 - 25 == 379
    assert fr.disc.d == -379
    assert fr.accepted  # 379 squarefree and > 303
    fr2 = classnum.frobenius_discriminant(101, 121)  # t = 19, delta = 43 < 3p
    assert not fr2.accepted
    with pytest.raises(ValueError):
        classnum.frobenius_discriminant(101, 123)


def test_acceptance_requires_squarefree():
    # p = 499, t = 2: delta = 1992 = 4 * 498, q = 498 squarefree -> the
    # discriminant -1992 is 0 mod 4; delta itself must be squarefree, 1992 is not.
    fr = classnum.frobenius_discriminant(499, 502)
    assert fr.delta == 1992
    assert not fr.accepted


def test_tatuzawa_bound_values():
    assert classnum.tatuzawa_lower_bound(101) == pytest.approx(
        0.11 * math.sqrt(101) / math.log(101))
    assert classnum.tatuzawa_lower_bound(73999) == pytest.approx(2.6697, abs=1e-3)


def test_tatuzawa_validity_window():
    assert not classnum.tatuzawa_valid(101, 404)
    assert not classnum.tatuzawa_valid(10**6, 10**5)   # |d| < p
    assert not classnum.tatuzawa_valid(101, 73000)     # |d| < e^11.2
    assert classnum.tatuzawa_valid(73999, 295000)


def test_l_upper_bound_example():
    v = classnum.l_upper_bound(404)
    expect = (0.5 + 1 / (2 * math.pi)) * math.log(404) \
        + math.log(math.log(404)) / math.pi + 1
    assert v == pytest.approx(expect)
    assert v == pytest.approx(5.5263, abs=1e-3)
    with pytest.raises(ValueError):
        classnum.l_upper_bound(2)


def test_class_number_upper_bound_dominates_exact():
    for p in (101, 499, 1009):
        hu = classnum.class_number_upper_bound(p)
        s2 = math.isqrt(4 * p)
        for t in range(-s2, s2 + 1):
            d = t * t - 4 * p
            if d >= -4:
                continue
            assert classnum.exact_class_number(d) <= hu, (p, t)


def test_iteration_bounds_shape():
    lo, hi = classnum.iteration_bounds(101)
    assert 0 < lo < hi
    # the sandwich constant pairing: lower uses natural logs, upper 4.251 log2
    assert hi == pytest.approx(4.251 * 101**0.25 * math.sqrt(math.log2(101)))
    pi = math.pi
    ln4p = math.log(404)
    assert lo == pytest.approx(
        math.sqrt(2) * pi * 101**0.25
        / math.sqrt((pi + 1) * ln4p + 2 * math.log(ln4p) + 2 * pi))


def test_report_roundtrip():
    rep = classnum.class_number_report(101, 107)
    assert rep.h == 3
    assert rep.frobenius == classnum.frobenius_discriminant(101, 107)
    assert rep.frobenius.disc.d == -379
    assert not rep.tatuzawa_valid
    assert rep.iteration_lower < math.sqrt(2 * 101 / rep.h) < rep.iteration_upper
    rep2 = classnum.class_number_report(101, 107, with_exact=False)
    assert rep2.h is None
