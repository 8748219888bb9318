import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twistforge import curves, divpoly, scheme
from twistforge.curves import CurveClass, NonResidueTable, WeierstrassCurve
from twistforge.divpoly import (
    _BASE, _BASE_BILLS, _IN_DEFICIT, _OUT_DEFICIT, _STEP_BILLS, _STEPS, _entry_bill,
    _int_base, _int_step, _psi3_psi4,
)
from twistforge.forgery import OracleConfig, SerialNumber
from twistforge.fp_arith import FpContext, MultCounter

import grouplaw
import psiref
from psiref import TV_ONE, TV_ZERO, Ambient, ParityMismatch, TwistedValue, _coef


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
    with pytest.raises(ValueError, match="is a two-torsion abscissa"):
        amb.inv2w
    with pytest.raises(ValueError, match="is a two-torsion abscissa"):
        divpoly.eval_division_poly(ctx, E, 1, 7, MultCounter())
    with pytest.raises(ValueError, match="is a two-torsion abscissa"):
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


def _made(held, entry):
    """The m of the psi_m that an entry makes from a run whose psi indices
    are held.  Its slice of the run must be consecutive indices, psi_{n-1}
    .. psi_{n+2} for g1 and psi_{n-2} .. psi_{n+2} for g2, so n comes from
    the run, and the entry's parity field must be n & 1."""
    is_g1, off, odd = entry
    width = 4 if is_g1 else 5
    run = held[off:off + width] if off >= 0 else []
    assert len(run) == width and run == list(range(run[0], run[0] + width)), (held, entry)
    n = run[1] if is_g1 else run[2]
    assert odd == n & 1, (held, entry)
    return 2 * n + 1 if is_g1 else 2 * n


def _symbolic_walk(ell):
    """The doubling plan of psi_ell, `_chain` over `_BASE` and `_STEPS`,
    walked on psi indices: k, then per step (b, shift, entries, the m of
    each output).  The base window makes psi_5 .. psi_{k+9}, each entry
    reading those before it, and each step the 10 psi from the window's
    base b: its entries are psi_entry's for them, and they are consecutive
    from the new base 2b + 4 + shift."""
    k, chain = divpoly._chain(ell)
    held = list(range(5))  # psi_0 .. psi_4
    for entry in _BASE[:k + 5]:
        held.append(_made(held, entry))
    assert held == list(range(k + 10)), ell
    held, steps = held[k:], []
    for b, shift in chain:
        new = 2 * b + 4 + shift
        assert held[0] == b and shift in (0, 1), (ell, b, shift)
        entries = _STEPS[b & 1][shift]
        assert tuple(divpoly.psi_entry(new + i, b) for i in range(10)) == entries, (ell, b)
        held = [_made(held, entry) for entry in entries]
        assert held == list(range(new, new + 10)), (ell, b)
        steps.append((b, shift, entries, held))
    assert held[0] == ell
    return k, steps


def _nonzero_bill(m):
    """What psi_m bills when nothing vanishes: 8, or 7 for psi_2n at even n."""
    return 7 if m % 4 == 0 else 8


def test_step_plan_worked_example():
    # 21 = 2 * 8 + 5 and 8 = 2 * 2 + 4; the base psi_5 .. psi_11 holds psi_8,
    # psi_8 .. psi_17 holds psi_8, psi_12 and psi_16, psi_21 .. psi_30 holds
    # psi_24 and psi_28; 12 + 7 * 8 - 1 = 67
    k, steps = _symbolic_walk(21)
    assert (k, [(b, shift) for b, shift, *_ in steps]) == (2, [(2, 0), (8, 1)])
    assert (_BASE_BILLS[k], *(_STEP_BILLS[b & 1][shift] for b, shift, *_ in steps)) == (67, 77, 78)
    assert _BASE[:k + 5] == ((True, 1, 0), (False, 1, 1), (True, 2, 1), (False, 2, 0),
                             (True, 3, 0), (False, 3, 1), (True, 4, 1))
    # the base window is the step of kind (0, 1) read from psi_0
    assert _BASE is _STEPS[0][1] and _BASE == tuple(divpoly.psi_entry(m, 0) for m in range(5, 15))
    assert steps[1][2][:2] == ((True, 1, 0), (False, 1, 1))
    # psi_5 .. psi_13 and no step; 12 + 9 * 8 - 2 = 82
    assert _symbolic_walk(4) == (4, []) and _BASE_BILLS[4] == 82
    for ell in (0, -3):
        with pytest.raises(ValueError):
            divpoly._chain(ell)
        with pytest.raises(ValueError):
            divpoly.pruned_plan(ell)


def _walk_schedule(ell):
    """The base the doubling plan of both backends ends on for psi_ell.
    The base window psi_5 .. psi_{k+9} bills 12 for psi_3 and psi_4 and its
    entries' bills when nothing vanishes, and each step that of its 10
    outputs; with w's 3, that is at most 80 per bit of ell."""
    k, steps = _symbolic_walk(ell)
    assert 1 <= k <= 5, ell
    assert _BASE_BILLS[k] == 12 + sum(map(_nonzero_bill, range(5, k + 10))), ell
    bill = 3 + _BASE_BILLS[k]
    for b, shift, _, held in steps:
        assert _STEP_BILLS[b & 1][shift] == sum(map(_nonzero_bill, held)), (ell, b)
        bill += _STEP_BILLS[b & 1][shift]
    assert bill <= 80 * max(1, (ell - 1).bit_length()), ell
    return steps[-1][3][0] if steps else k


def test_schedule_reaches_every_ell():
    for ell in range(1, 4097):
        assert _walk_schedule(ell) == ell


@given(st.integers(min_value=1, max_value=2**31 - 1))
def test_schedule_reaches_large_ell(ell):
    assert _walk_schedule(ell) == ell


def _check_base_rounds(ell):
    """The batch path's base rounds make psi_5 .. psi_{k+hi-1}, the base
    window up to the end of the run the first step reads, in order and
    nothing past it.  Row i of the walk is psi_i: each round reads exactly
    the rows its entries of `_BASE` read, which hold the psi their
    recurrences read, and only rows already made, psi_1 .. psi_4 by the
    seed and the earlier rounds' outputs.  A round ends only where the next
    entry reads a row it makes, so no two rounds could be one."""
    k, (lo, hi), rounds, _ = divpoly.pruned_plan(ell)
    made = 5  # psi_0 .. psi_4
    for r_lo, r_hi, out_lo, out_hi in rounds:
        assert out_lo == made - 5 < out_hi, (ell, rounds)
        kept = _BASE[out_lo:out_hi]
        read = {off + i for is_g1, off, _ in kept for i in range(4 if is_g1 else 5)}
        assert read == set(range(r_lo, r_hi)) and 1 <= r_lo and r_hi <= made, (ell, rounds)
        held = [_made(list(range(r_lo, r_hi)), (is_g1, off - r_lo, odd)) for is_g1, off, odd in kept]
        assert held == list(range(made, made + out_hi - out_lo)), (ell, rounds)
        if out_hi + 5 < k + hi:
            is_g1, off, _ = _BASE[out_hi]
            assert off + (4 if is_g1 else 5) > made, (ell, rounds)
        made += out_hi - out_lo
    assert made == max(5, k + hi), (ell, rounds)


def _check_pruned_plan(ell):
    """The batch path's plan is the full plan cut to one run of outputs per
    step: every slot of the run that a step reads (the first step, of the
    base window psi_k .. psi_{k+9}) is read by one of its kept entries, and
    holds the psi that entry's recurrence reads.  The walk ends on psi_ell
    alone, and the base rounds make the base run (`_check_base_rounds`)."""
    _check_base_rounds(ell)
    k, (lo, hi), _, steps = divpoly.pruned_plan(ell)
    full_k, full = _symbolic_walk(ell)
    assert k == full_k and 0 <= lo < hi <= 10 and len(steps) == len(full), ell
    held = list(range(k + lo, k + hi))  # the m of each psi_m in the run read
    for (odd, shift, out_lo, out_hi), (b, full_shift, entries, outputs) in zip(steps, full):
        assert (odd, shift) == (b & 1, full_shift) and 0 <= out_lo < out_hi <= 10, ell
        kept = entries[out_lo:out_hi]
        read = {off + i for is_g1, off, _ in kept for i in range(4 if is_g1 else 5)}
        assert read == set(range(lo, hi)), (ell, b)
        held = [_made(held, (is_g1, off - lo, n_odd)) for is_g1, off, n_odd in kept]
        assert held == outputs[out_lo:out_hi], (ell, b)
        lo, hi = out_lo, out_hi
    assert held == [ell] and (steps or (lo, hi) == (0, 1)), ell


def test_pruned_plan_keeps_what_it_reads():
    for ell in range(1, 4097):
        _check_pruned_plan(ell)
    assert divpoly.pruned_plan(148)[2] == ((1, 5, 0, 1), (1, 6, 1, 3), (2, 8, 3, 7), (4, 9, 7, 9))


@given(st.integers(min_value=1, max_value=2**31 - 1))
def test_pruned_plan_keeps_what_it_reads_at_large_ell(ell):
    _check_pruned_plan(ell)




def test_step_plan_matches_direct():
    """Every full step writes psi_base .. psi_{base+9} as psi_sequence does."""
    ctx, amb = make_ambient()
    ref = psiref.psi_sequence(amb, 1010)
    for ell in (1, 5, 10, 11, 21, 202, 999):
        k, chain = divpoly._chain(ell)
        psi = ref[1:6]  # psi_0 .. psi_4
        for entry in _BASE[:k + 5]:
            psi.append(psiref._g(amb, psi, entry))
        assert psi == ref[1:k + 11], ell
        win = psi[k:]
        for b, shift in chain:
            win = [psiref._g(amb, win, entry) for entry in _STEPS[b & 1][shift]]
            base = 2 * b + 4 + shift
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
    vanishing psi at an even index, 'zero out' when one vanishes, and
    'zeros in' when a step's input window holds two or more zeros, the
    case that the billed walk bills entry by entry."""
    k, chain = divpoly._chain(ell)
    amb = Ambient(ctx, E, x, MultCounter())

    def g(win, b, entry):
        out = psiref._g(amb, win, entry)
        is_g1, off, _ = entry
        # win[i] is psi_{b+i}
        if any(v.c == 0 and (b + off + d) % 2 == 0
               for d, v in enumerate(win[off:off + (4 if is_g1 else 5)])):
            seen.add("zero in")
        if out.c == 0:
            seen.add("zero out")
        return out

    win = psiref.psi_sequence(amb, k + 9)[k + 1:]
    for b, shift in chain:
        if sum(v.c == 0 for v in win) > 1:
            seen.add("zeros in")
        win = [g(win, b, entry) for entry in _STEPS[b & 1][shift]]
    return win[0], amb.ctr.count


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
    """The billed walk's value and bill equal those of the walk on Ambient
    that ticks each product, at tiny p (where psi_m vanish mid-walk), at
    large p, and on j = 0 and j = 1728 curves; a two-torsion x raises after
    billing w's 3 products.  An eval in which no psi vanishes, the common
    case at large p, bills 3 for w and the plan's bills, at most 80 per bit
    of ell."""
    ctx = FpContext(p)
    rng = random.Random(p)
    if p < 200:
        ells = [*range(1, 301), *(rng.randrange(1, 2**40) for _ in range(50))]
    else:
        hasse = math.isqrt(4 * p)
        ells = [*range(1, 41), *(rng.randrange(p + 1 - hasse, p + 2 + hasse) for _ in range(10)),
                *(rng.randrange(1, 2**40) for _ in range(10))]
    seen, closed = set(), 0
    for E, x in _billing_cases(p, rng):
        # psi_1 .. psi_14 hold every base window, psi_k .. psi_{k+9} with k <= 5
        base_nonzero = all(v.c for v in psiref.psi_sequence(
            Ambient(ctx, E, x, MultCounter()), 14)[2:])
        for ell in ells:
            walk_seen = set()
            want, want_count = _ticked_walk(ctx, E, x, ell, walk_seen)
            ctr = MultCounter()
            got = divpoly.eval_division_poly(ctx, E, x, ell, ctr)
            assert (got, ctr.count) == (want.c, want_count), (E, x, ell)
            seen |= walk_seen
            if base_nonzero and not walk_seen:
                k, chain = divpoly._chain(ell)
                assert ctr.count == 3 + _BASE_BILLS[k] + sum(
                    _STEP_BILLS[b & 1][shift] for b, shift in chain), (E, x, ell)
                assert ctr.count <= 80 * max(1, (ell - 1).bit_length()), (E, x, ell)
                closed += 1
    if p < 200:
        assert seen == {"zero in", "zero out", "zeros in"}
    else:
        assert closed == 3 * len(ells)
    x, A = rng.randrange(p), rng.randrange(p)
    E = WeierstrassCurve(A, -(x**3 + A * x) % p)  # w(x) = 0
    ctr = MultCounter()
    with pytest.raises(ValueError, match="is a two-torsion abscissa"):
        divpoly.eval_division_poly(ctx, E, x, 7, ctr)
    assert ctr.count == 3


@pytest.mark.parametrize("p", [5, 101, 65521, 2**20 + 7, 2**31 - 1])
def test_kernel_int_mod_matches_int64_rem(p):
    """g1 and g2 computed in exact integers mod p are what the coefficient
    kernel gives on Python ints, which the tests take as the reference of
    the scalar path's straight-line kernels, on int64 arrays, and below
    2^16 on uint32 arrays, lane by lane.  On uint32 lanes a difference that
    went negative would wrap mod 2^32, not mod p."""
    rng = random.Random(p)
    half = (p + 1) // 2  # 1/2 mod p
    # every 5-tuple of 0, 1 and p - 1 (products near p^2, negative
    # differences), then random residues; one row per lane
    rows = [list(r) for r in itertools.product((0, 1, p - 1), repeat=5)]
    rows += [[rng.randrange(p) for _ in range(5)] for _ in range(300)]
    dtypes = [np.int64] + [np.uint32] * (p < 2**16)
    # g1 reads psi_{n-1}..psi_{n+2} and w^2; the parity of n picks the side
    # that takes w^2
    for odd in (0, 1):
        want = []
        for c0, c1, c2, c3, w2 in rows:
            t1, t2 = c3 * c1**3, c0 * c2**3
            want.append((t1 - t2 * w2) % p if odd else (t1 * w2 - t2) % p)
        for row, c in zip(rows, want):
            assert _coef(row, (True, 0, odd), row[4], p) == c, (p, odd, row)
        for dtype in dtypes:
            cols = [np.array(c, dtype=dtype) for c in zip(*rows)]
            lanes = _coef(cols, (True, 0, odd), cols[4], p)
            assert lanes.dtype == dtype and lanes.tolist() == want, (p, dtype, odd)
    # g2 reads psi_{n-2}..psi_{n+2} and halves the result
    want = [(c1 * c1 * c4 - c0 * c3 * c3) * c2 * half % p for c0, c1, c2, c3, c4 in rows]
    assert [_coef(row, (False, 0, 0), 0, p) for row in rows] == want, p
    for dtype in dtypes:
        lanes = _coef([np.array(c, dtype=dtype) for c in zip(*rows)], (False, 0, 0), 0, p)
        assert lanes.dtype == dtype and lanes.tolist() == want, (p, dtype)


def _steps_by_kind(ells):
    """(b, shift, entries, zero-free bill) of every step of the symbolic
    walk of psi_ell for ell in ells, by kind: the parity of the window base
    b, and the shift of the new base 2b + 4 + shift."""
    kinds = {}
    for ell in ells:
        for b, shift, step, held in _symbolic_walk(ell)[1]:
            bill = sum(map(_nonzero_bill, held))
            kinds.setdefault((b & 1, shift), []).append((b, shift, step, bill))
    return kinds


@pytest.mark.parametrize("p", [101, 65537, 2**20 + 7, 2**31 - 1])
def test_int_step_matches_int_coefs(p):
    """The straight-line step is the coefficient kernel on Python ints over
    the entries of its kind, `_STEPS[b & 1][shift]`, for each of the four
    kinds, on random windows (half of them near p, where the products are
    largest) and on windows with a 0 at each single position."""
    rng = random.Random(p)
    half = (p + 1) // 2
    kinds = _steps_by_kind(range(6, 200))
    assert sorted(kinds) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for kind, steps in kinds.items():
        for b, shift, step, _ in steps[:3]:
            windows = [[rng.randrange(p) for _ in range(10)] for _ in range(100)]
            windows += [[rng.randrange(p - 64, p) for _ in range(10)] for _ in range(100)]
            for i in range(10):
                windows += [v[:i] + [0] + v[i + 1:] for v in windows[:5]]
            for v in windows:
                w2 = rng.choice((rng.randrange(p), p - 1))
                want = [_coef(v, entry, w2, p) for entry in step]
                assert _int_step(v, b & 1, shift, w2, p, half) == want, (p, kind, b, v, w2)


@pytest.mark.parametrize("p", [101, 65537, 2**20 + 7, 2**31 - 1])
def test_int_base_matches_coef(p):
    """The straight-line base window is the coefficient kernel on Python
    ints over `_BASE` from psi_0 .. psi_4 = 0, 1, 2, psi_3, psi_4: on
    random inputs, on inputs near p, where the products are largest, and
    with a 0 in each of psi_3, psi_4 and w^2."""
    rng = random.Random(p)
    half = (p + 1) // 2
    draws = [[rng.randrange(p) for _ in range(3)] for _ in range(200)]
    draws += [[rng.randrange(p - 64, p) for _ in range(3)] for _ in range(200)]
    for i in range(3):
        draws += [d[:i] + [0] + d[i + 1:] for d in draws[::20]]
    for c3, c4, w2 in draws:
        psi = [0, 1, 2, c3, c4]
        for entry in _BASE:
            psi.append(_coef(psi, entry, w2, p))
        assert _int_base(c3, c4, w2, p, half) == psi[5:], (p, c3, c4, w2)


@pytest.mark.parametrize("p", [101, 65521, 65537, 2**31 - 1])
def test_psi3_psi4_matches_ticked_seed(p):
    """The seed that both walks share is psiref's closed forms of psi_3 and
    psi_4, on Python ints and on lanes of lane_dtype(p): uint32 at p = 101
    and 65521, the largest prime below 2^16, int64 at 65537 and 2^31 - 1.
    The residues are every triple of 0, 1 and p - 1, then random draws,
    half of them near p, where the products are largest.  The reference
    ticks 5 products for psi_3 and 12 for both."""
    ctx = FpContext(p)
    rng = random.Random(p)
    rows = [list(r) for r in itertools.product((0, 1, p - 1), repeat=3)]
    rows += [[rng.randrange(p) for _ in range(3)] for _ in range(100)]
    rows += [[rng.randrange(p - 64, p) for _ in range(3)] for _ in range(100)]
    want = []
    for A, B, x in rows:
        for upto, ticks in ((3, 5), (4, 12)):
            amb = Ambient(ctx, WeierstrassCurve(A, B), x, MultCounter())
            seed = psiref.psi_sequence(amb, upto)[4:]
            assert amb.ctr.count == 3 + ticks, (p, A, B, x, upto)
        want.append(tuple(v.c for v in seed))
        assert _psi3_psi4(x, A, B, p) == want[-1], (p, A, B, x)
    dtype = divpoly.lane_dtype(p)
    A, B, x = (np.array(col, dtype=dtype) for col in zip(*rows))
    lanes = _psi3_psi4(x, A, B, p)
    assert all(c.dtype == dtype for c in lanes), p
    assert list(zip(*(c.tolist() for c in lanes))) == want, p


def test_step_bills_by_kind():
    """A zero-free step bills by its kind alone: the bill of each kind is
    that of the outputs of every step of that kind, for every ell <= 4096."""
    kinds = _steps_by_kind(range(1, 4097))
    assert sorted(kinds) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for (odd, shift), steps in kinds.items():
        assert {bill for *_, bill in steps} == {_STEP_BILLS[odd][shift]}, (odd, shift)


def test_deficit_tables_are_the_entry_bill():
    """Each deficit is what `_entry_bill`, the one bill rule, drops from a
    step's zero-free bill: `_OUT_DEFICIT[odd][shift][i]` where output i
    alone vanishes, `_IN_DEFICIT[odd][shift][j]` where input slot j alone
    does.  With at most one input zero the deficits add, for every set of
    vanishing outputs; two input zeros can break that, which is why the
    billed walk bills such a step entry by entry."""
    nonzero = (1,) * 10

    def one_zero(j):
        return nonzero[:j] + (0,) + nonzero[j + 1:]

    unadditive = set()
    for odd, shift in itertools.product((0, 1), repeat=2):
        kind, full = _STEPS[odd][shift], _STEP_BILLS[odd][shift]
        out_deficit, in_deficit = _OUT_DEFICIT[odd][shift], _IN_DEFICIT[odd][shift]

        def bill(v, out):
            return sum(_entry_bill(entry, v, c) for entry, c in zip(kind, out))

        assert bill(nonzero, nonzero) == full
        for i in range(10):
            assert out_deficit[i] == full - bill(nonzero, one_zero(i)), (odd, shift, i)
            assert in_deficit[i] == full - bill(one_zero(i), nonzero), (odd, shift, i)
        for j, out in itertools.product(range(-1, 10), itertools.product((0, 1), repeat=10)):
            v = nonzero if j < 0 else one_zero(j)
            drop = sum(d for d, c in zip(out_deficit, out) if c == 0)
            drop += 0 if j < 0 else in_deficit[j]
            assert bill(v, out) == full - drop, (odd, shift, j, out)
        for j1, j2 in itertools.combinations(range(10), 2):
            v = tuple(int(m not in (j1, j2)) for m in range(10))
            if bill(v, nonzero) != full - in_deficit[j1] - in_deficit[j2]:
                unadditive.add((odd, shift))
    assert unadditive == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_one_note_builds_at_most_two_plans(monkeypatch):
    """The tau = 63 evals of a genuine note at p = 2^20 + 7 walk sigma or
    its twist 2p + 2 - sigma, so the billed walk builds at most two chains,
    and its plan cache is bounded at those two: an ell-keyed cache of 256
    plans missed 1392 times over one pass of the verify workload."""
    p = 2**20 + 7
    ctx, c, cfg = FpContext(p), CurveClass(5, 0), OracleConfig.for_prime(p)
    assert cfg.tau == 63
    sigma = curves.count_points(ctx, curves.get_weierstrass_pair(ctx, c, NonResidueTable.for_prime(ctx)))
    chains = []
    chain = divpoly._chain
    monkeypatch.setattr(divpoly, "_chain", lambda ell: chains.append(ell) or chain(ell))
    divpoly._eval_plan.cache_clear()
    assert scheme.check_serial(ctx, c, SerialNumber(sigma, p), cfg) == 1
    assert 1 <= len(chains) <= 2, chains
    assert divpoly._eval_plan.cache_info().maxsize == 2


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
    assert all(a.dtype == dtype for a in (ba.A, ba.B, ba.x, ba.w2, got))


def _coef_walk(p, A, B, x, ell):
    """psi_ell on lanes by `_coef` alone, entry by entry over all of `_BASE`
    and each full step of `_chain(ell)` in `_STEPS`: the reference that
    BatchAmbient.eval's chunks, runs and 2-D step kernel must reproduce."""
    dtype = divpoly.lane_dtype(p)
    A, B, x = (np.asarray(v, dtype=dtype) for v in (A, B, x))
    w2 = np.array([pow(xi**3 + a * xi + b, 2, p) for a, b, xi in zip(A.tolist(), B.tolist(), x.tolist())],
                  dtype=dtype)
    psi = [np.full_like(x, c) for c in (0, 1, 2)]
    psi.extend(_psi3_psi4(x, A, B, p))
    for entry in _BASE:
        psi.append(_coef(psi, entry, w2, p))
    k, chain = divpoly._chain(ell)
    win = psi[k:k + 10]
    for b, shift in chain:
        win = [_coef(win, entry, w2, p) for entry in _STEPS[b & 1][shift]]
    return win[0]


@pytest.mark.parametrize("p", [101, 3001, 65521, 65537, 1000003, 2**31 - 1])
def test_batch_eval_matches_coef_walk(p):
    """BatchAmbient.eval equals the per-entry `_coef` walk for ell = 1 .. 79,
    the first ell <= 4096 of each k and base run of `pruned_plan`, so that
    every cut of the base rounds runs, and both ends of the Hasse band, on
    uint32 and int64 lanes, at lane counts on both sides of every chunk
    edge: 1, 2^13 - 1, 2^13, 2^13 + 1 and 3 * 2^13 + 5 (chunks of 2^13
    uint32 or 2^12 int64 lanes).  The lanes repeat 61 drawn ambients, a
    period prime to the chunk, so a chunk written to the wrong lanes
    differs; the draws include A = 0, B = 0, x = 0 and residues near p."""
    rng = random.Random(p)
    rows = [(0, 1, 0), (0, 7, 3), (5, 0, 9), (p - 1, p - 1, p - 2)]
    while len(rows) < 61:
        A, B, x = (rng.randrange(p) if rng.random() < 0.5 else p - 1 - rng.randrange(64) for _ in range(3))
        if (x**3 + A * x + B) % p:
            rows.append((A, B, x))
    assert all((x**3 + A * x + B) % p for A, B, x in rows), p
    cols = [np.array(col, dtype=np.int64) for col in zip(*rows)]
    chunk = divpoly._ROW_BYTES // np.dtype(divpoly.lane_dtype(p)).itemsize
    assert chunk in (1 << 12, 1 << 13), chunk
    hasse = math.isqrt(4 * p)
    first = {}
    for ell in range(1, 4097):
        k, run, *_ = divpoly.pruned_plan(ell)
        first.setdefault((k, run), ell)
    assert max(first.values()) == 148
    ells = sorted({*range(1, 80), *first.values(), p + 1 - hasse, p + 1 + hasse})
    want = {ell: _coef_walk(p, *cols, ell) for ell in ells}
    ctx = FpContext(p)
    for lanes in (1, 2**13 - 1, 2**13, 2**13 + 1, 3 * 2**13 + 5):
        ba = divpoly.BatchAmbient(ctx, *(np.resize(col, lanes) for col in cols))
        for ell in ells:
            got = ba.eval(ell)
            assert got.dtype == divpoly.lane_dtype(p) and got.shape == (lanes,), (p, lanes, ell)
            assert np.array_equal(got, np.resize(want[ell], lanes)), (p, lanes, ell)


@pytest.mark.parametrize("p", [101, 65537])
def test_batch_eval_matches_psi_sequence(p):
    """BatchAmbient.eval(ell) is the reference recurrence's psi_ell for
    ell = 1 .. 30 on uint32 lanes (p = 101) and on int64 lanes (p = 65537),
    from ell <= 5, where there is no step and the base window is cut at
    psi_ell itself, on."""
    ctx = FpContext(p)
    # includes A = 0 (j = 0), B = 0 (j = 1728) and x = 0
    rows = [(2, 3, 5), (0, 7, 11), (5, 0, 9), (40, 1, 77), (p - 1, p - 1, 0)]
    ba = divpoly.BatchAmbient(ctx, *[np.array(col, dtype=np.int64) for col in zip(*rows)])
    want = [psiref.psi_sequence(Ambient(ctx, WeierstrassCurve(A, B), x, MultCounter()), 30)
            for A, B, x in rows]
    for ell in range(1, 31):
        got = ba.eval(ell)
        assert got.dtype == divpoly.lane_dtype(p), (p, ell)
        assert got.tolist() == [psi[ell + 1].c for psi in want], (p, ell)
