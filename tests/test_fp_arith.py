import random

import pytest

from twistforge.fp_arith import FpContext, MultCounter, ZeroInverse, is_prime

from psiref import mul


def test_context_rejects_bad_moduli():
    for bad in (0, 1, 2, 3, 4, 9, 12, 2**31, 2**31 + 11):
        with pytest.raises(ValueError):
            FpContext(bad)
    FpContext(5)
    FpContext(2**31 - 1)  # Mersenne prime, largest legal modulus


def test_is_prime_small():
    under_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(-2, 60):
        assert is_prime(n) == (n in under_60)
    for n in (101, 499, 1009, 10007, 1048583):
        assert is_prime(n)
    assert not is_prime(1048581)


def test_mul_counts():
    ctx = FpContext(11)
    ctr = MultCounter()
    assert mul(ctx, 7, 8, ctr) == 56 % 11
    assert mul(ctx, 0, 5, ctr) == 0
    assert ctr.count == 2


def test_pow_counts_and_values():
    ctx = FpContext(101)
    ctr = MultCounter()
    assert ctx.pow(3, 0, ctr) == 1 and ctr.count == 0
    assert ctx.pow(0, 0, ctr) == 1  # 0**0 == 1 by convention
    for a in (2, 3, 99):
        for e in (1, 2, 7, 50, 100):
            ctr = MultCounter()
            assert ctx.pow(a, e, ctr) == pow(a, e, 101)
            assert ctr.count <= 2 * e.bit_length()
    with pytest.raises(ValueError):
        ctx.pow(2, -1, MultCounter())


def _square_and_multiply(ctx, a, e, ctr):
    """a**e by left-to-right square-and-multiply, each product ticked: the
    reference FpContext.pow is billed as."""
    if e == 0:
        return 1
    a %= ctx.p
    result = a
    for bit in bin(e)[3:]:
        result = mul(ctx, result, result, ctr)
        if bit == "1":
            result = mul(ctx, result, a, ctr)
    return result


def _billed(f, ctx, a, e):
    ctr = MultCounter()
    return f(ctx, a, e, ctr), ctr.count


def test_pow_bills_as_square_and_multiply():
    """FpContext.pow's value and bill equal the ticked loop's: for every e
    up to 2000 at p = 101, for random (a, e) at p = 2^31 - 1, and at a = 0."""
    big = 2**31 - 1
    rng = random.Random(big)
    cases = [(101, a, e) for e in range(2001) for a in (0, 1, 3, 100, -1, 205)]
    cases += [(big, rng.randrange(big), rng.randrange(2**31)) for _ in range(200)]
    cases += [(big, 0, e) for e in (0, 1, (big - 1) // 2, 2**31 - 1)]
    ctxs = {p: FpContext(p) for p in (101, big)}
    for p, a, e in cases:
        want = _billed(_square_and_multiply, ctxs[p], a, e)
        assert _billed(FpContext.pow, ctxs[p], a, e) == want, (p, a, e)


def test_fermat_exhaustive_small_primes():
    for p in (5, 7, 11, 13, 101):
        ctx = FpContext(p)
        for a in range(1, p):
            assert ctx.pow(a, p - 1, MultCounter()) == 1


def test_inv():
    ctx = FpContext(101)
    for a in range(1, 101):
        assert a * ctx.inv(a) % 101 == 1
    with pytest.raises(ZeroInverse):
        ctx.inv(0)
    with pytest.raises(ZeroInverse):
        ctx.inv(101)


def test_euler_criterion_matches_sqrt():
    for p in (5, 7, 11, 13, 101):
        ctx = FpContext(p)
        squares = {x * x % p for x in range(1, p)}
        for w in range(p):
            want = 0 if w == 0 else 1 if w in squares else -1
            assert ctx.euler_criterion(w, MultCounter()) == want, (p, w)


def test_counter_basics():
    c = MultCounter()
    c.tick()
    c.tick(4)
    assert c.count == 5
    assert repr(c) == "MultCounter(5)"
