import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twistforge import curves, divpoly
from twistforge.curves import WeierstrassCurve
from twistforge.divpoly import _BASE, _BASE_BILLS, _STEP_BILLS, _STEPS, _coef, _int_base, _int_step
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
    held = list(range(-1, 5))  # psi_{-1} .. psi_4
    for entry in _BASE[:k + 5]:
        held.append(_made(held, entry))
    assert held == list(range(-1, k + 10)), ell
    held, steps = held[k + 1:], []
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
    assert _BASE[:k + 5] == ((True, 2, 0), (False, 2, 1), (True, 3, 1), (False, 3, 0),
                             (True, 4, 0), (False, 4, 1), (True, 5, 1))
    assert _BASE == tuple(divpoly.psi_entry(m, -1) for m in range(5, 15))
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


def test_pruned_plan_keeps_what_it_reads():
    """The batch path's plan is the full plan cut to a subset of each step's
    outputs, each window dense: every kept entry reads only ranks below the
    previous step's kept count (the first step, the base window psi_k ..
    psi_{k+top}), and those hold the psi its recurrence reads.  The walk
    ends on psi_ell alone."""
    for ell in range(1, 4097):
        k, top, steps = divpoly.pruned_plan(ell)
        full_k, full = _symbolic_walk(ell)
        assert k == full_k and top <= 9 and len(steps) == len(full)
        held = list(range(k, k + top + 1))  # the m of each psi_m in the window
        for keep, (*_, outputs) in zip(steps, full):
            held = [_made(held, entry) for entry in keep]
            assert held == sorted(set(held)) and set(held) <= set(outputs), ell
        assert held == [ell]


def test_step_plan_matches_direct():
    """Every full step writes psi_base .. psi_{base+9} as psi_sequence does."""
    ctx, amb = make_ambient()
    ref = psiref.psi_sequence(amb, 1010)
    for ell in (1, 5, 10, 11, 21, 202, 999):
        k, chain = divpoly._chain(ell)
        psi = ref[:6]  # psi_{-1} .. psi_4
        for entry in _BASE[:k + 5]:
            psi.append(psiref._g(amb, psi, entry))
        assert psi == ref[:k + 11], ell
        win = psi[k + 1:]
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
    vanishing psi at an even index and 'zero out' when one vanishes."""
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
        assert seen == {"zero in", "zero out"}
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
    ints over `_BASE` from psi_{-1} .. psi_4 = -1, 0, 1, 2, psi_3, psi_4: on
    random inputs, on inputs near p, where the products are largest, and
    with a 0 in each of psi_3, psi_4 and w^2."""
    rng = random.Random(p)
    half = (p + 1) // 2
    draws = [[rng.randrange(p) for _ in range(3)] for _ in range(200)]
    draws += [[rng.randrange(p - 64, p) for _ in range(3)] for _ in range(200)]
    for i in range(3):
        draws += [d[:i] + [0] + d[i + 1:] for d in draws[::20]]
    for c3, c4, w2 in draws:
        psi = [p - 1, 0, 1, 2, c3, c4]
        for entry in _BASE:
            psi.append(_coef(psi, entry, w2, p))
        assert _int_base(c3, c4, w2, p, half) == psi[6:], (p, c3, c4, w2)


def test_step_bills_by_kind():
    """A zero-free step bills by its kind alone: the bill of each kind is
    that of the outputs of every step of that kind, for every ell <= 4096."""
    kinds = _steps_by_kind(range(1, 4097))
    assert sorted(kinds) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for (odd, shift), steps in kinds.items():
        assert {bill for *_, bill in steps} == {_STEP_BILLS[odd][shift]}, (odd, shift)


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
