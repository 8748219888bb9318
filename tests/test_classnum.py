import math

import pytest

from twistforge import classnum
from twistforge.fp_arith import is_prime


def test_discriminant_validation():
    # 5 is 1 mod 4 but positive; -5 is 3 mod 4 and -6 is 2 mod 4
    with pytest.raises(ValueError, match="requires d < -4"):
        classnum.exact_class_number(5)
    for d in (-5, -6):
        with pytest.raises(ValueError, match=f"{d} is not a discriminant"):
            classnum.exact_class_number(d)


def test_is_fundamental():
    assert classnum.is_fundamental(-7)
    assert not classnum.is_fundamental(-27)  # -27 = 1 mod 4, 27 not squarefree
    assert classnum.is_fundamental(-4)   # q = 1
    assert classnum.is_fundamental(-8)   # q = 2
    assert not classnum.is_fundamental(-16)  # q = 4 not squarefree
    assert not classnum.is_fundamental(-12)  # q = 3 = 3 mod 4


def test_frobenius_discriminant_rejects_trace_zero():
    """sigma = p + 1 is never accepted, so mint draws no invalid serial: at
    trace 0, Delta = 4p is 0 mod 4, hence not square-free, even at p = 1
    mod 4, where -4p is fundamental and Delta > 3p."""
    primes = [p for p in range(5, 20000) if is_prime(p)]
    assert any(classnum.is_fundamental(-4 * p) for p in primes)
    assert not [p for p in primes if classnum.frobenius_discriminant(p, p + 1).accepted]


def test_exact_class_number_hand_values():
    # classical table of small imaginary quadratic fields
    known = {-7: 1, -8: 1, -11: 1, -19: 1, -23: 3, -31: 3, -43: 1,
             -47: 5, -67: 1, -163: 1, -15: 2, -20: 2, -24: 2}
    for d, h in known.items():
        assert classnum.exact_class_number(d) == h, d


def test_exact_class_number_range_checks():
    with pytest.raises(ValueError, match="requires d < -4"):
        classnum.exact_class_number(-4)
    with pytest.raises(ValueError, match=r"\|d\| > 10000000 beyond desk scale"):
        classnum.exact_class_number(-(10**7 + 9))


def test_frobenius_discriminant():
    fr = classnum.frobenius_discriminant(101, 107)  # t = 5
    assert fr.delta == 4 * 101 - 25 == 379
    assert fr.is_fundamental
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
    assert rep.frobenius.delta == 379
    assert not rep.tatuzawa_valid
    assert rep.iteration_lower < math.sqrt(2 * 101 / rep.h) < rep.iteration_upper
    rep2 = classnum.class_number_report(101, 107, with_exact=False)
    assert rep2.h is None


def test_report_class_number_cap_edges():
    """h is exact for 4 < Delta <= MAX_ABS_D and None outside it."""
    p = 2500009
    assert classnum.frobenius_discriminant(p, 2500016).delta == classnum.MAX_ABS_D
    assert classnum.class_number_report(p, 2500016).h == 1000
    assert classnum.frobenius_discriminant(p, 2500015).delta == classnum.MAX_ABS_D + 11
    assert classnum.class_number_report(p, 2500015).h is None
    for p, sigma, delta in ((7, 3, 3), (5, 2, 4)):
        assert classnum.frobenius_discriminant(p, sigma).delta == delta
        assert classnum.class_number_report(p, sigma).h is None
