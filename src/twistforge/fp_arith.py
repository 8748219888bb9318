"""Exact arithmetic in F_p for odd primes p < 2**31.

Every multiplication (squarings included) is billed to an explicit
MultCounter; additions, subtractions and inversions are free.  This is the
accounting unit the cost budgets elsewhere in the package are stated in.
"""

from __future__ import annotations

FieldElement = int

# Desk-scale cap: everything fits in 64-bit intermediates.
MAX_PRIME = 2**31


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting 0 in F_p."""


class MultCounter:
    """Counter of F_p multiplications."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, n: int = 1) -> None:
        self.count += n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultCounter) and self.count == other.count

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


def is_prime(n: int) -> bool:
    return n >= 2 and _factorize(n) == {n: 1}


class FpContext:
    """Carries the modulus p; field elements are plain ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not (5 <= p < MAX_PRIME):
            raise ValueError(f"p must satisfy 5 <= p < 2**31, got {p}")
        if p % 2 == 0 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p

    def __repr__(self) -> str:
        return f"FpContext(p={self.p})"

    def inv(self, a: FieldElement) -> FieldElement:
        # Inversions are outside the multiplication budget.
        if a % self.p == 0:
            raise ZeroInverse("0 has no inverse in F_p")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: FieldElement, e: int, ctr: MultCounter) -> FieldElement:
        """a**e billed as left-to-right square-and-multiply: one squaring per
        bit of e after the leading one, one product per further set bit."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return 1  # 0**0 == 1 by convention
        ctr.tick(e.bit_length() + e.bit_count() - 2)
        return pow(a, e, self.p)

    def euler_criterion(self, w: FieldElement, ctr: MultCounter) -> int:
        """The Legendre symbol (w/p) as 1, -1 or 0, by w**((p-1)/2); w = 0
        bills nothing."""
        w %= self.p
        if w == 0:
            return 0
        return 1 if self.pow(w, (self.p - 1) // 2, ctr) == 1 else -1
