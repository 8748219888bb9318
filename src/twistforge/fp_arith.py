"""Exact arithmetic in F_p for odd primes p < 2**31.

Every multiplication (squarings included) is billed to an explicit
MultCounter; additions, subtractions and inversions are free.  This is the
accounting unit the cost budgets elsewhere in the package are stated in.

InvalidInput, the package's one input-error type, is what a check on a
caller's argument (p, sigma, tau, a bit size) raises; the CLI maps it, and
only it, to exit 2.
"""

from __future__ import annotations

# Desk-scale cap: everything fits in 64-bit intermediates.
MAX_PRIME = 2**31


class InvalidInput(ValueError):
    """An argument outside what the package accepts; the CLI's exit 2."""


class MultCounter:
    """Counter of F_p multiplications."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, n: int = 1) -> None:
        self.count += n

    def __repr__(self) -> str:
        return f"MultCounter({self.count})"


def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# The first 13 primes.  As Miller-Rabin bases together they decide every n
# below 3.3 * 10^24, the least strong pseudoprime to all of them
# (3317044064679887385961981, Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, by the Miller-Rabin test to each of _MR_BASES:
    exact below 3.3 * 10^24, a probable-prime test above."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpContext:
    """Carries the modulus p; field elements are plain ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not (5 <= p < MAX_PRIME):
            raise InvalidInput(f"p must satisfy 5 <= p < 2**31, got {p}")
        if p % 2 == 0 or not is_prime(p):
            raise InvalidInput(f"p must be an odd prime, got {p}")
        self.p = p

    def __repr__(self) -> str:
        return f"FpContext(p={self.p})"

    def pow(self, a: int, e: int, ctr: MultCounter) -> int:
        """a**e billed as left-to-right square-and-multiply: one squaring per
        bit of e after the leading one, one product per further set bit."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return 1  # 0**0 == 1 by convention
        ctr.tick(e.bit_length() + e.bit_count() - 2)
        return pow(a, e, self.p)

    def euler_criterion(self, w: int, ctr: MultCounter) -> int:
        """The Legendre symbol (w/p) as 1, -1 or 0, by w**((p-1)/2); w = 0
        bills nothing."""
        w %= self.p
        if w == 0:
            return 0
        return 1 if self.pow(w, (self.p - 1) // 2, ctr) == 1 else -1
