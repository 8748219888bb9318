"""Ground truth the benchmark computes itself, apart from the predicates it
measures: exhaustive point counts by the character sum, the scheme's
serial-acceptance rule, and the j-invariant of a Weierstrass pair.
"""

from __future__ import annotations

import math

import numpy as np


class PointCounter:
    """#E(F_p) for y^2 = x^3 + Ax + B, as p + 1 + sum_x chi(x^3 + Ax + B)."""

    def __init__(self, p: int):
        self.p = p
        self._x = np.arange(p, dtype=np.int64)
        self._x3 = self._x * self._x % p * self._x % p
        chi = np.full(p, -1, dtype=np.int8)
        chi[self._x * self._x % p] = 1
        chi[0] = 0
        self._chi = chi

    def count(self, A: int, B: int) -> int:
        p = self.p
        w = (A % p) * self._x  # < p**2 + 2p < 2**63 for p < 2**31
        w += self._x3
        w += B % p
        w %= p
        return p + 1 + int(self._chi[w].sum(dtype=np.int64))


def serials(p: int) -> list[int]:
    """Every legal serial over F_p: the Hasse band without p + 1."""
    r = math.isqrt(4 * p)
    return [p + 1 + t for t in range(-r, r + 1) if t != 0]


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def accepted(p: int, sigma: int) -> bool:
    """The mint's rule: Delta = 4p - t^2 is square-free and exceeds 3p."""
    t = sigma - p - 1
    delta = 4 * p - t * t
    return t != 0 and delta > 3 * p and _squarefree(delta)


def discriminant(p: int, sigma: int) -> int:
    t = sigma - p - 1
    return t * t - 4 * p


def j_invariant(p: int, A: int, B: int) -> int:
    a3 = 4 * pow(A, 3, p) % p
    disc = (a3 + 27 * B * B) % p
    return 1728 * a3 * pow(disc, p - 2, p) % p


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 5), hi + 1)
            if n % 2 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
