import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twistforge import curves, divpoly
from twistforge.curves import WeierstrassCurve
from twistforge.divpoly import TwoTorsionAmbient, _coef_g1, _coef_g2, _rem
from twistforge.fp_arith import FpContext, MultCounter

import grouplaw
import psiref
from psiref import TV_ONE, TV_ZERO, Ambient, ParityMismatch, TwistedValue


def make_ambient(p=101, A=2, B=3, x=5):
    ctx = FpContext(p)
    return ctx, Ambient(ctx, WeierstrassCurve(A, B), x, MultCounter())


def test_twisted_value_normalization():
    assert psiref._tv(0, 1) == TV_ZERO
    assert psiref._tv(3, 1) == TwistedValue(3, 1)


def test_ambient_w():
    ctx, amb = make_ambient(101, 2, 3, 5)
    assert amb.w == (125 + 10 + 3) % 101


def test_mul_parity_law():
    ctx, amb = make_ambient()
    u = TwistedValue(3, 1)
    v = TwistedValue(4, 1)
    prod = amb.mul(u, v)
    assert prod.parity == 0 and prod.c == 12 * amb.w % 101
    prod2 = amb.mul(TwistedValue(3, 0), v)
    assert prod2 == TwistedValue(12, 1)
    assert amb.mul(TV_ZERO, v) == TV_ZERO


def test_add_rules():
    ctx, amb = make_ambient()
    with pytest.raises(ParityMismatch):
        amb.add(TwistedValue(1, 0), TwistedValue(1, 1))
    assert amb.add(TV_ZERO, TwistedValue(1, 1)) == TwistedValue(1, 1)
    assert amb.add(TwistedValue(1, 1), TV_ZERO) == TwistedValue(1, 1)
    assert amb.add(TwistedValue(100, 0), TwistedValue(1, 0)) == TV_ZERO
    assert amb.sub(TwistedValue(5, 1), TwistedValue(2, 1)) == TwistedValue(3, 1)


def test_div_psi2_flips_parity():
    # div_psi2 divides a parity-0 value by 2y (the only case g2 produces):
    # c / (2y) = c*y / (2w), so multiplying back by 2y must recover c.
    ctx, amb = make_ambient()
    u = TwistedValue(6, 0)
    q = amb.div_psi2(u)
    assert q.parity == 1
    back = amb.mul(q, TwistedValue(2, 1))
    assert back == u
    assert amb.div_psi2(TV_ZERO) == TV_ZERO


def test_two_torsion_ambient():
    # y^2 = x^3 - x over F_101 has w = 0 at x = 0, 1, 100
    ctx = FpContext(101)
    E = WeierstrassCurve(100, 0)
    amb = Ambient(ctx, E, 1, MultCounter())
    assert amb.w == 0
    with pytest.raises(TwoTorsionAmbient):
        amb.inv2w
    with pytest.raises(TwoTorsionAmbient):
        divpoly.eval_division_poly(ctx, E, 1, 7, MultCounter())
    with pytest.raises(TwoTorsionAmbient):
        psiref.eval_division_poly_direct(ctx, E, 1, 7, MultCounter())


def test_base_cases_worked_example():
    # psi_3 = 3x^4 + 6Ax^2 + 12Bx - A^2 at p=5, A=1, B=1, x=0 is -1 = 4
    ctx = FpContext(5)
    amb = Ambient(ctx, WeierstrassCurve(1, 1), 0, MultCounter())
    psi = psiref.psi_sequence(amb, 4)
    assert psi[0] == TwistedValue(4, 0)   # psi_{-1} = -1
    assert psi[1] == TV_ZERO              # psi_0
    assert psi[2] == TV_ONE               # psi_1
    assert psi[3] == TwistedValue(2, 1)   # psi_2 = 2y
    assert psi[4] == TwistedValue(4, 0)   # psi_3(0) = -1 mod 5


def test_parity_structure():
    ctx, amb = make_ambient()
    for n, v in enumerate(psiref.psi_sequence(amb, 30), start=-1):
        if v.c:
            assert v.parity == psiref.expected_parity(n)


def test_g1_g2_against_direct():
    ctx, amb = make_ambient()
    psi = psiref.psi_sequence(amb, 10)
    # g1 at n=2 gives psi_5, g2 at n=3 gives psi_6 (index shift: psi[i] = psi_{i-1})
    assert psiref.g1(amb, tuple(psi[2:6])) == psi[6]
    assert psiref.g2(amb, tuple(psi[2:7])) == psi[7]
    with pytest.raises(ValueError):
        psiref.g1(amb, tuple(psi[2:7]))
    with pytest.raises(ValueError):
        psiref.g2(amb, tuple(psi[2:6]))


def _output(entry):
    """The m of the psi_m that a psi_entry computes."""
    is_g1, _, n = entry
    return 2 * n + 1 if is_g1 else 2 * n


def test_step_plan_worked_example():
    # 21 = 2 * 8 + 5 and 8 = 2 * 2 + 4
    k, top, steps = divpoly.step_plan(21)
    assert (k, top, len(steps)) == (2, 9, 2)
    for step, (base, new_base) in zip(steps, ((2, 8), (8, 21))):
        assert step == tuple((i, divpoly.psi_entry(new_base + i, base)) for i in range(10))
    assert divpoly.step_plan(4) == (4, 9, ())
    for ell in (0, -3):
        with pytest.raises(ValueError):
            divpoly.step_plan(ell)
        with pytest.raises(ValueError):
            divpoly.pruned_plan(ell)


def _walk_schedule(ell):
    """The base the doubling plan of both backends ends on for psi_ell."""
    base, top, steps = divpoly.step_plan(ell)
    assert 1 <= base <= 5 and top == 9
    for step in steps:
        new_base = _output(step[0][1])
        assert new_base in (2 * base + 4, 2 * base + 5), (ell, base, new_base)
        assert step == tuple((i, divpoly.psi_entry(new_base + i, base)) for i in range(10))
        base = new_base
    return base


def test_schedule_reaches_every_ell():
    for ell in range(1, 4097):
        assert _walk_schedule(ell) == ell


@given(st.integers(min_value=1, max_value=2**31 - 1))
def test_schedule_reaches_large_ell(ell):
    assert _walk_schedule(ell) == ell


def test_pruned_plan_keeps_what_it_reads():
    """The batch path's plan is the full plan cut to a subset that computes
    every entry a later step reads, and its walk ends on psi_ell alone."""
    for ell in range(1, 4097):
        k, top, steps = divpoly.pruned_plan(ell)
        full_k, full_top, full = divpoly.step_plan(ell)
        assert k == full_k and top <= full_top and len(steps) == len(full)
        have = set(range(top + 1))
        for keep, step in zip(steps, full):
            for i, entry in keep:
                assert entry == step[i][1]
                is_g1, off, _ = entry
                assert set(range(off, off + (4 if is_g1 else 5))) <= have, (ell, i)
            have = {i for i, _ in keep}
        assert have == {0}
        assert (_output(steps[-1][0][1]) if steps else k) == ell


def test_step_plan_matches_direct():
    """Every full step writes psi_base .. psi_{base+9} as psi_sequence does."""
    ctx, amb = make_ambient()
    ref = psiref.psi_sequence(amb, 1010)
    for ell in (10, 11, 21, 202, 999):
        k, top, steps = divpoly.step_plan(ell)
        win = ref[k + 1:k + top + 2]
        for step in steps:
            win = [psiref._g(amb, win, entry) for _, entry in step]
            base = _output(step[0][1])
            assert win == ref[base + 1:base + 11], (ell, base)
        assert win[0] == ref[ell + 1]


def test_eval_matches_direct_small():
    ctx = FpContext(101)
    for A, B, x in ((2, 3, 5), (1, 6, 9), (40, 1, 77)):
        E = WeierstrassCurve(A, B)
        for ell in range(1, 60):
            got = divpoly.eval_division_poly(ctx, E, x, ell, MultCounter())
            want = psiref.eval_division_poly_direct(ctx, E, x, ell, MultCounter())
            assert got == want.c, (A, B, x, ell)


def test_eval_is_deterministic():
    ctx = FpContext(1009)
    E = WeierstrassCurve(7, 11)
    a = divpoly.eval_division_poly(ctx, E, 5, 997, MultCounter())
    b = divpoly.eval_division_poly(ctx, E, 5, 997, MultCounter())
    assert a == b


def test_torsion_semantics_small_curve():
    """psi_ell(P) = 0 iff [ell]P = infinity, on a hand-checkable curve."""
    ctx = FpContext(101)
    E = WeierstrassCurve(1, 18)
    n = curves.count_points(ctx, E)
    for P in grouplaw.affine_points(ctx, E):
        x, y = P
        if y == 0:
            continue
        order = grouplaw.point_order(ctx, P, E, n)
        for ell in range(1, 30):
            v = divpoly.eval_division_poly(ctx, E, x, ell, MultCounter())
            assert (v == 0) == (ell % order == 0), (P, ell, order)


def test_cost_budget_eval():
    """The windowed eval stays within 80 multiplications per bit of ell."""
    ctx = FpContext(1048583)
    E = WeierstrassCurve(123456, 654321)
    for ell in (31, 257, 4999, 65537, 1048583):
        ctr = MultCounter()
        divpoly.eval_division_poly(ctx, E, 5, ell, ctr)
        bits = max(1, (ell - 1).bit_length())
        assert ctr.count <= 80 * bits, (ell, ctr.count)


def _ticked_walk(ctx, E, x, ell, seen):
    """psi_ell and its count by the walk on TwistedValues, with Ambient
    ticking every product; seen collects 'zero in' when an entry reads a
    vanishing psi at an even index and 'zero out' when one vanishes."""
    k, top, steps = divpoly.step_plan(ell)
    amb = Ambient(ctx, E, x, MultCounter())

    def g(win, entry):
        out = psiref._g(amb, win, entry)
        is_g1, off, n = entry
        first = n - 1 if is_g1 else n - 2
        if any(v.c == 0 and (first + d) % 2 == 0
               for d, v in enumerate(win[off:off + (4 if is_g1 else 5)])):
            seen.add("zero in")
        if out.c == 0:
            seen.add("zero out")
        return out

    value = divpoly._walk(psiref.psi_sequence(amb, k + top)[k + 1:], steps, g)
    return value, amb.ctr.count


def _billing_cases(p, rng):
    """A generic curve, one with j = 0 (A = 0) and one with j = 1728
    (B = 0), each at an abscissa off the two-torsion."""
    for a_nonzero, b_nonzero in ((True, True), (False, True), (True, False)):
        A = B = 0
        while (4 * A**3 + 27 * B * B) % p == 0:
            A = rng.randrange(1, p) if a_nonzero else 0
            B = rng.randrange(1, p) if b_nonzero else 0
        xs = range(p) if p < 200 else (rng.randrange(p) for _ in range(64))
        yield WeierstrassCurve(A, B), next(x for x in xs if (x**3 + A * x + B) % p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 2**20 + 7, 2**31 - 1])
def test_eval_bills_as_ticked_walk(p):
    """The kernel walk's value and bill equal those of the walk on Ambient
    that ticks each product, at tiny p (where psi_m vanish mid-walk), at
    large p, and on j = 0 and j = 1728 curves; a two-torsion x raises after
    billing w's 3 products."""
    ctx = FpContext(p)
    rng = random.Random(p)
    if p < 200:
        ells = [*range(1, 301), *(rng.randrange(1, 2**40) for _ in range(50))]
    else:
        hasse = math.isqrt(4 * p)
        ells = [*range(1, 41), *(rng.randrange(p + 1 - hasse, p + 2 + hasse) for _ in range(10)),
                *(rng.randrange(1, 2**40) for _ in range(10))]
    seen = set()
    for E, x in _billing_cases(p, rng):
        for ell in ells:
            want, want_count = _ticked_walk(ctx, E, x, ell, seen)
            ctr = MultCounter()
            got = divpoly.eval_division_poly(ctx, E, x, ell, ctr)
            assert (got, ctr.count) == (want.c, want_count), (E, x, ell)
    if p < 200:
        assert seen == {"zero in", "zero out"}
    x, A = rng.randrange(p), rng.randrange(p)
    E = WeierstrassCurve(A, -(x**3 + A * x) % p)  # w(x) = 0
    ctr = MultCounter()
    with pytest.raises(TwoTorsionAmbient):
        divpoly.eval_division_poly(ctx, E, x, 7, ctr)
    assert ctr.count == 3


@pytest.mark.parametrize("p", [5, 101, 65521, 2**20 + 7, 2**31 - 1])
def test_kernel_int_mod_matches_int64_rem(p):
    """The coefficient kernel gives the same answer on Python ints reduced
    with operator.mod as on int64 arrays, and below 2^16 on uint32 arrays,
    reduced with _rem, lane by lane, and it is the g1 / g2 recurrence
    computed in exact integers mod p.  On uint32 lanes a difference that
    went negative would wrap mod 2^32, not mod p."""
    rng = random.Random(p)
    half = (p + 1) // 2  # 1/2 mod p
    # every 5-tuple of 0, 1 and p - 1 (products near p^2, negative
    # differences), then random residues; one row per lane
    rows = [list(r) for r in itertools.product((0, 1, p - 1), repeat=5)]
    rows += [[rng.randrange(p) for _ in range(5)] for _ in range(300)]
    for dtype in [np.int64] + [np.uint32] * (p < 2**16):
        cols = [np.array(c, dtype=dtype) for c in zip(*rows)]
        # g1 reads psi_{n-1}..psi_{n+2} and w^2; the parity of n picks the
        # side that takes w^2
        for n in (2, 3):
            lanes = _coef_g1(cols[:4], n, cols[4], p, _rem)
            assert lanes.dtype == dtype
            for i, (c0, c1, c2, c3, w2) in enumerate(rows):
                t1, t2 = c3 * c1**3, c0 * c2**3
                want = (t1 * w2 - t2) % p if n % 2 == 0 else (t1 - t2 * w2) % p
                got = _coef_g1((c0, c1, c2, c3), n, w2, p, operator.mod)
                assert got == int(lanes[i]) == want, (p, dtype, n, rows[i])
        # g2 reads psi_{n-2}..psi_{n+2} and halves the result
        lanes = _coef_g2(cols, p, _rem)
        assert lanes.dtype == dtype
        for i, (c0, c1, c2, c3, c4) in enumerate(rows):
            want = (c1 * c1 * c4 - c0 * c3 * c3) * c2 * half % p
            got = _coef_g2((c0, c1, c2, c3, c4), p, operator.mod)
            assert got == int(lanes[i]) == want, (p, dtype, rows[i])


def test_batch_matches_scalar():
    ctx = FpContext(101)
    rng = random.Random(7)
    rows = []
    while len(rows) < 50:
        A, B, x = rng.randrange(101), rng.randrange(101), rng.randrange(101)
        if (4 * A**3 + 27 * B * B) % 101 == 0:
            continue
        if (x**3 + A * x + B) % 101 == 0:
            continue
        rows.append((A, B, x))
    ba = divpoly.BatchAmbient(
        ctx,
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.int64),
    )
    # schedules of 0 to 4 steps, the Hasse band (which holds the twist
    # sigma 2p + 2 - sigma of each of its sigma), ell = 2p (5 steps) and
    # 4097 (9 steps)
    hasse = math.isqrt(4 * 101)
    for ell in [*range(1, 65), *range(102 - hasse, 103 + hasse), 202, 4097]:
        got = ba.eval(ell)
        for i, (A, B, x) in enumerate(rows):
            want = divpoly.eval_division_poly(
                ctx, WeierstrassCurve(A, B), x, ell, MultCounter())
            assert int(got[i]) == want, (A, B, x, ell)


def _batch_matches_scalar_at(p, data):
    """Draws up to 8 ambients and one ell (at most 64 or in the Hasse band)
    and checks BatchAmbient.eval against the scalar eval on each; returns
    the BatchAmbient and the array eval returned.  Half the residues are
    drawn near p, where the products of the kernel are largest."""
    ctx = FpContext(p)
    residue = st.integers(0, p - 1) | st.integers(p - 64, p - 1)
    rows = data.draw(st.lists(st.tuples(residue, residue, residue), min_size=1, max_size=8))
    for A, B, x in rows:
        assume((4 * A**3 + 27 * B * B) % p != 0)
        assume((x**3 + A * x + B) % p != 0)
    hasse = math.isqrt(4 * p)  # floor(2 sqrt p)
    ell = data.draw(st.integers(1, 64) | st.integers(p + 1 - hasse, p + 1 + hasse))
    ba = divpoly.BatchAmbient(ctx, *[np.array(col, dtype=np.int64) for col in zip(*rows)])
    got = ba.eval(ell)
    for i, (A, B, x) in enumerate(rows):
        want = divpoly.eval_division_poly(ctx, WeierstrassCurve(A, B), x, ell, MultCounter())
        assert int(got[i]) == want, (A, B, x, ell)
    return ba, got


@pytest.mark.parametrize("p", [2**31 - 1, 2147483629])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_matches_scalar_near_int64_limit(p, data):
    """Products of two residues below 2^31 fit in int64: the batch backend
    agrees with the Python-int scalar one at the largest legal primes."""
    _batch_matches_scalar_at(p, data)


@pytest.mark.parametrize("p, dtype", [(65519, np.uint32), (65521, np.uint32),
                                      (65537, np.int64)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_matches_scalar_at_uint32_limit(p, dtype, data):
    """(p - 1)^2 + p, the largest intermediate of the kernel, fits in 32 bits
    below 2^16: the lanes are uint32 at the two largest primes under 2^16,
    int64 at the first above, and agree with the scalar backend on both
    sides."""
    ba, got = _batch_matches_scalar_at(p, data)
    assert divpoly.lane_dtype(p) is dtype
    assert all(a.dtype == dtype for a in (ba.A, ba.B, ba.x, ba.w, ba.w2, got))


def test_batch_psi_coeffs_match_scalar():
    ctx = FpContext(101)
    # includes A = 0 (j = 0) and B = 0 (j = 1728)
    rows = [(2, 3, 5), (0, 7, 11), (5, 0, 9), (40, 1, 77), (100, 100, 0)]
    ba = divpoly.BatchAmbient(ctx, *[np.array(col, dtype=np.int64) for col in zip(*rows)])
    coeffs = ba.psi_coeffs(30)
    for i, (A, B, x) in enumerate(rows):
        amb = Ambient(ctx, WeierstrassCurve(A, B), x, MultCounter())
        for n, v in enumerate(psiref.psi_sequence(amb, 30), start=-1):
            assert int(coeffs[n + 1][i]) == v.c, (A, B, x, n)
