import json
import math
import os

import pytest

from twistforge import estimator, forgery
from twistforge.cli import report_row
from twistforge.curves import NonResidueTable
from twistforge.estimator import ORACLE_MULTS_CONST, QUBITS_CONST, estimate
from twistforge.forgery import OracleConfig, SerialNumber
from twistforge.fp_arith import InvalidInput, MultCounter

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_headline_numbers_n256():
    r = estimate(bits=256)
    assert r.oracle_mults_ours == 1944 * 256 * 256 == 127_401_984
    assert r.qubits_ours == 12 * 256 * 256 == 786_432


def test_constants():
    assert ORACLE_MULTS_CONST == 1944
    assert QUBITS_CONST == 12
    assert estimator.TOTAL_LOWER_CONST == 5097
    assert estimator.TOTAL_UPPER_CONST == 8264
    # 8264 is the product of the oracle constant and the upper iteration constant
    assert 1944 * 4.251 == pytest.approx(8264, abs=1)


def test_estimate_validation():
    with pytest.raises(InvalidInput):
        estimate()
    with pytest.raises(InvalidInput):
        estimate(bits=7)
    with pytest.raises(InvalidInput):
        estimate(p=101)  # ceil(log2 101) = 7 < 8
    for bits in (1022, 1023, 1024):  # 4 * 2^n overflows a float
        with pytest.raises(InvalidInput):
            estimate(bits=bits)
    with pytest.raises(InvalidInput):
        estimate(p=2**1021 + 1)
    for composite in (1000, 2047, 2**50, 2**1021):  # 2047 = 23 * 89 passes base 2
        with pytest.raises(InvalidInput, match="p must be prime"):
            estimate(p=composite)
    for bits, p in ((1021, 3), (8, 1009)):  # p under the floor; n of 1009 is 10
        with pytest.raises(InvalidInput):
            estimate(bits=bits, p=p)
    assert estimate(bits=10, p=1009) == estimate(p=1009)


def test_estimate_bits_of_p_are_exact():
    """n = ceil(log2 p) in integers, at the edges of the float range, for
    the primes next to 2^7, 2^50, 2^64 and 2^1021."""
    assert estimate(p=131).p_bits == 8
    assert estimate(p=2**50 - 27).p_bits == 50
    assert estimate(p=2**64 + 13).p_bits == 65  # float log2 rounds this to 64
    for r in (estimate(bits=1021), estimate(p=2**1021 - 553)):
        assert r.p_bits == 1021
        values = (r.iterations_lower, r.iterations_upper, r.total_lower, r.total_upper)
        assert all(0 < v < math.inf for v in values)


def test_estimate_totals_formulas():
    n = 256
    r = estimate(bits=n)
    pv = 2.0 ** n
    theta = 2 * math.log(math.log(4 * pv)) / (math.pi + 1)
    assert r.total_lower == pytest.approx(5097 * pv**0.25 * n**4 / math.sqrt(n + theta))
    assert r.total_upper == pytest.approx(8264 * pv**0.25 * n**4.5)
    lo, hi = r.iterations_lower, r.iterations_upper
    assert 0 < lo < hi
    assert hi == pytest.approx(4.251 * pv**0.25 * math.sqrt(n))


def test_report_row_schema_and_golden():
    with open(os.path.join(GOLDEN, "estimator_rows.json")) as fh:
        golden = json.load(fh)
    rows = [report_row(estimate(bits=n)) for n in (128, 256, 512)]
    for row in rows:
        assert list(row) == ["bits", "mults_ours", "mults_bf", "qubits_ours", "qubits_bf",
                             "iter_lo", "iter_hi", "total_lo", "total_hi"]
        int(row["mults_ours"])  # decimal strings
    assert rows == golden


def test_mults_bf_is_exact():
    """n^6 exceeds 2^53 from n = 457 on, so only an int column prints it."""
    for n in range(8, 1022):
        assert report_row(estimate(bits=n))["mults_bf"] == str(n**6)


def test_audit_under_ceiling(lab101):
    s = SerialNumber(103, 101)
    cfg = OracleConfig.for_prime(101)
    target = next(c for c, n in zip(lab101.classes, lab101.cards) if n == 103)
    ctr = MultCounter()  # the known target scans all tau offsets
    assert forgery.oracle_predicate(lab101.ctx, target, s, cfg,
                                    NonResidueTable.for_prime(lab101.ctx), ctr) == 1
    rows = estimator.audit(lab101.ctx, s, cfg, sample_size=4, seed=0)
    assert len(rows) == 4
    assert ctr.count <= 1944 * 49  # n = 7 bits
    for r in rows:
        assert r.measured_mults <= r.predicted_ceiling
        assert r.predicted_ceiling == 1944 * 49
        assert r.ratio == r.measured_mults / r.predicted_ceiling
        # the full-tau target is the worst case among the sampled calls
        assert r.measured_mults <= ctr.count


def test_audit_seeded_determinism(lab101):
    s = SerialNumber(103, 101)
    cfg = OracleConfig.for_prime(101)
    a = estimator.audit(lab101.ctx, s, cfg, sample_size=3, seed=9)
    b = estimator.audit(lab101.ctx, s, cfg, sample_size=3, seed=9)
    assert a == b
