"""Elliptic-curve classes over F_p.

(j,b) class enumeration, conversion to short Weierstrass form, exhaustive
ground-truth point counting, and group structure from psi_l torsion counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .divpoly import BatchAmbient, _rem, _vec_pow, lane_dtype
from .fp_arith import FpContext, MultCounter, _factorize


@dataclass(frozen=True)
class CurveClass:
    j: int
    b: int


@dataclass(frozen=True)
class WeierstrassCurve:
    A: int
    B: int


@lru_cache(maxsize=32)
def legendre_table(p: int) -> np.ndarray:
    """The Legendre symbol (v/p) for every v in [0, p), as int8: 1 on the
    nonzero squares, -1 on the nonsquares, 0 at v = 0."""
    x = np.arange(1, p, dtype=np.int64)
    tbl = np.full(p, -1, dtype=np.int8)
    tbl[x * x % p] = 1
    tbl[0] = 0
    tbl.flags.writeable = False  # one cached table is shared by every caller
    return tbl


class NonResidueTable(NamedTuple):
    """The twist parameters alpha_2 (quadratic) and alpha_6 for a prime.

    alpha_2 is the smallest nonsquare.  When p = 1 mod 4 it also generates
    the order-4 quotient F_p*/(F_p*)^4, so it twists j = 1728 as well.
    alpha_6 is the smallest element generating F_p*/(F_p*)^6 when p = 1
    mod 3 (a nonsquare noncube, in particular a sextic nonresidue), and
    alpha_2 otherwise.
    """

    alpha2: int
    alpha6: int

    @classmethod
    def for_prime(cls, ctx: FpContext) -> "NonResidueTable":
        return cls(*_twist_parameters(ctx.p))


@lru_cache(maxsize=32)
def _twist_parameters(p: int) -> tuple[int, int]:
    """(alpha_2, alpha_6) by the Euler criterion: a is a nonsquare iff
    a^((p-1)/2) = -1, and, when p = 1 mod 3, a noncube iff a^((p-1)/3) != 1."""
    def nonsquare(a: int) -> bool:
        return pow(a, (p - 1) // 2, p) == p - 1

    alpha2 = next(a for a in range(2, p) if nonsquare(a))
    if p % 3 != 1:
        return alpha2, alpha2
    return alpha2, next(a for a in range(alpha2, p)
                        if nonsquare(a) and pow(a, (p - 1) // 3, p) != 1)


def b_range(ctx: FpContext, j: int) -> int:
    """Number of legal b values at a given j."""
    p = ctx.p
    if j % p == 1728 % p and p % 4 == 1:
        return 4
    if j % p == 0 and p % 3 == 1:
        return 6
    return 2


def class_count(ctx: FpContext) -> int:
    """Total number of (j, b) classes over F_p."""
    return 2 * ctx.p - 4 + b_range(ctx, 0) + b_range(ctx, 1728)


def class_at(ctx: FpContext, i: int) -> CurveClass:
    """Entry i of enumerate_classes in O(1): j ascends with two b per j,
    except at j = 0 and j = 1728, which take b_range(ctx, j) entries each."""
    if not 0 <= i < class_count(ctx):
        raise IndexError(f"class index {i} out of range mod {ctx.p}")
    w0, j1 = b_range(ctx, 0), 1728 % ctx.p
    start1 = w0 + 2 * (j1 - 1)  # the index of (1728 mod p, 0)
    w1 = b_range(ctx, j1)
    if i < w0:
        return CurveClass(0, i)
    if start1 <= i < start1 + w1:
        return CurveClass(j1, i - start1)
    k = i - w0 + 2 if i < start1 else i - start1 - w1 + 2 * j1 + 2
    return CurveClass(k // 2, k % 2)


def enumerate_classes(ctx: FpContext) -> list[CurveClass]:
    """Every legal (j, b) exactly once, in lexicographic order."""
    return [CurveClass(j, b) for j in range(ctx.p) for b in range(b_range(ctx, j))]


def get_weierstrass_pair(
    ctx: FpContext,
    c: CurveClass,
    nr: NonResidueTable,
    ctr: MultCounter | None = None,
) -> WeierstrassCurve:
    """Recover the (A, B) realization of the class (j, b)."""
    p = ctx.p
    ctr = ctr if ctr is not None else MultCounter()
    j = c.j % p
    if not (0 <= c.b < b_range(ctx, j)):
        raise ValueError(f"b={c.b} out of range for j={j} mod {p}")
    if j == 0:
        return WeierstrassCurve(0, ctx.pow(nr.alpha6, c.b, ctr))
    if j == 1728 % p:
        return WeierstrassCurve(ctx.pow(nr.alpha2, c.b, ctr), 0)
    denom = pow(1728 - j, -1, p)
    a2b = ctx.pow(nr.alpha2, 2 * c.b, ctr)
    a3b = ctx.pow(nr.alpha2, 3 * c.b, ctr)
    A = 3 * j * a2b % p * denom % p
    B = 2 * j * a3b % p * denom % p
    ctr.tick(6)  # 3j*a2b, *denom, 2j*a3b, *denom and the j products
    return WeierstrassCurve(A, B)


def class_pairs(ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of every class as int64 arrays, in enumerate_classes order.

    get_weierstrass_pair in vector form (tested entry for entry); it bills
    nothing, since no caller measures the cost of a whole sweep's pairs.
    """
    p, nr = ctx.p, NonResidueTable.for_prime(ctx)
    counts = np.full(p, 2, dtype=np.int64)
    for j in (0, 1728 % p):  # the only j with a wider b-range
        counts[j] = b_range(ctx, j)
    # the b = 0 pair (3j, 2j) / (1728 - j) once per j, on p lanes, repeated
    # over the j's classes; every b-range is even, so the odd rows are b = 1,
    # the alpha_2-twist (and b = 3, 5 at j = 0, 1728, which are set below)
    k = np.arange(p, dtype=lane_dtype(p))
    denom = _vec_pow(1728 % p + p - k, p - 2, p)
    A, B = (np.repeat(_rem(_rem(c * k, p) * denom, p).astype(np.int64), counts)
            for c in (3, 2))
    for v, e in ((A, 2), (B, 3)):
        v[1::2] = _rem(v[1::2] * pow(nr.alpha2, e, p), p)
    # the pair is (0, 0) at j = 0 and, as 0^(p-2) = 0, at j = 1728; there
    # it is (0, alpha_6^b) and (alpha_2^b, 0)
    for j0, alpha, v in ((0, nr.alpha6, B), (1728 % p, nr.alpha2, A)):
        lo = counts[:j0].sum()
        v[lo:lo + counts[j0]] = [pow(alpha, e, p) for e in range(counts[j0])]
    return A, B


def count_points(ctx: FpContext, E: WeierstrassCurve) -> int:
    """#E(F_p) by the character sum 1 + sum_x (1 + chi(x^3+Ax+B))."""
    A = np.array([E.A], dtype=np.int64)
    B = np.array([E.B], dtype=np.int64)
    return int(count_points_batch(ctx, A, B)[0])


# Cells of the x-by-curve matrix count_points_batch holds at once (8 MiB
# of int64).
COUNT_CHUNK_CELLS = 1 << 20


def count_points_batch(ctx: FpContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cardinalities for many curves at once; A, B are int64 arrays.

    #E = p + 1 + sum_x chi(w(x)), counted in column chunks of at most
    COUNT_CHUNK_CELLS cells (one column when p is larger).
    """
    p = ctx.p
    x = np.arange(p, dtype=np.int64)
    x3 = (x * x % p * x % p)[:, None]
    chi = legendre_table(p)
    step = max(1, COUNT_CHUNK_CELLS // p)
    out = np.empty(len(A), dtype=np.int64)
    for lo in range(0, len(A), step):
        w = np.multiply.outer(x, A[lo:lo + step])
        w += x3
        w += B[lo:lo + step]
        w %= p
        out[lo:lo + step] = p + 1 + chi[w].sum(axis=0, dtype=np.int64)
    return out


def group_structure(ctx: FpContext, E: WeierstrassCurve, n: int) -> tuple[int, int]:
    """(m, k) with E(F_p) = Z/m x Z/mk, m | p-1, m^2 k = n = #E.

    The q-part of m is the largest q^e with #E[q^e] = q^{2e}.  That needs
    q^{2e} | #E, and q^e | p-1 by the Weil pairing, so only the primes of
    gcd(#E, p-1) are tried; each #E[l] is counted with the psi_l test.
    """
    p = ctx.p
    primes = [q for q in _factorize(math.gcd(n, p - 1)) if n % (q * q) == 0]
    if not primes:
        return 1, n
    x = np.arange(p, dtype=np.int64)
    w = (x * x % p * x + E.A * x + E.B) % p
    chi = legendre_table(p)[w]
    lifts = x[chi == 1]  # x of the points with y != 0
    two_torsion = int((chi == 0).sum())
    ba = BatchAmbient(ctx, np.full(lifts.size, E.A, dtype=np.int64),
                      np.full(lifts.size, E.B, dtype=np.int64), lifts)
    m = 1
    for q in primes:
        ell = q
        while n % (ell * ell) == 0:
            # #E[l] = O, the pairs (x, +-y) with psi_l(x) = 0, and for even l
            # the points with y = 0
            torsion = 1 + 2 * int((ba.eval(ell) == 0).sum())
            if ell % 2 == 0:
                torsion += two_torsion
            if torsion != ell * ell:
                break
            m *= q
            ell *= q
    return m, n // (m * m)


@dataclass(frozen=True)
class CurveTableRow:
    j: int
    b: int
    A: int
    B: int
    cardinality: int
    m: int
    k: int


def build_curve_table(ctx: FpContext, with_structure: bool = True) -> list[CurveTableRow]:
    """Ground truth for every class: (A, B), cardinality and group shape."""
    p = ctx.p
    A, B = class_pairs(ctx)
    classes = enumerate_classes(ctx)
    # off j = 0, 1728 the class (j, 1) is the alpha_2-twist of (j, 0), the
    # class just before it, so only b = 0 is counted there
    twist = np.array([c.b == 1 and c.j not in (0, 1728 % p) for c in classes])
    cards = np.empty(A.size, dtype=np.int64)
    cards[~twist] = count_points_batch(ctx, A[~twist], B[~twist])
    cards[twist] = 2 * p + 2 - cards[np.flatnonzero(twist) - 1]
    rows = []
    for c, Ac, Bc, card in zip(classes, A.tolist(), B.tolist(), cards.tolist()):
        if with_structure:
            m, k = group_structure(ctx, WeierstrassCurve(Ac, Bc), card)
        else:
            m, k = 0, 0
        rows.append(CurveTableRow(c.j, c.b, Ac, Bc, card, m, k))
    return rows
