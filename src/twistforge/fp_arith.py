"""Exact arithmetic in F_p for odd primes p < 2**31.

Every multiplication (squarings included) is billed to an explicit
MultCounter; additions, subtractions and inversions are free.  This is the
accounting unit the cost budgets elsewhere in the package are stated in.
"""

from __future__ import annotations

import enum

FieldElement = int

# Desk-scale cap: everything fits in 64-bit intermediates.
MAX_PRIME = 2**31


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting 0 in F_p."""


class Residue(enum.Enum):
    RESIDUE = 1
    NONRESIDUE = -1
    ZERO = 0


class MultCounter:
    """Counter of F_p multiplications."""

    __slots__ = ("count",)

    def __init__(self, count: int = 0):
        if count < 0:
            raise ValueError("negative count")
        self.count = count

    def tick(self, n: int = 1) -> None:
        self.count += n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultCounter) and self.count == other.count

    def __repr__(self) -> str:
        return f"MultCounter({self.count})"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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

    def mul(self, a: FieldElement, b: FieldElement, ctr: MultCounter) -> FieldElement:
        ctr.tick()
        return a * b % self.p

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

    def euler_criterion(self, w: FieldElement, ctr: MultCounter) -> Residue:
        """w**((p-1)/2): distinguishes residues, nonresidues, and zero."""
        w %= self.p
        if w == 0:
            return Residue.ZERO
        r = self.pow(w, (self.p - 1) // 2, ctr)
        return Residue.RESIDUE if r == 1 else Residue.NONRESIDUE
