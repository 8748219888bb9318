"""Ticked psi arithmetic in F_p[y]/(y^2 - w), for the tests only.

Values are typed by their parity, c * y^parity, every product goes through
`mul` and ticks the counter, psi_3 and psi_4 come from their own closed
forms, not from the package's seed, and psi_ell is also available by the
naive O(ell) recurrence.  The package's billed walk
(`divpoly.eval_division_poly`) computes each entry in plain ints reduced
once, bills each step by the plan's closed form or, where a psi vanishes,
each entry by rule, and returns only the coefficient; this module is the
independent side its values and counts are checked against.  `_coef`
makes one entry of a plan on Python ints or on lanes, reduced after every
product: the reference of the package's straight-line and 2-D kernels.
"""

from __future__ import annotations

from typing import NamedTuple

from twistforge.curves import WeierstrassCurve
from twistforge.divpoly import _rem, psi_entry
from twistforge.fp_arith import FpContext, MultCounter


class ParityMismatch(ValueError):
    """Nonzero TwistedValues of unequal parity were added."""


class TwistedValue(NamedTuple):
    """c * y^parity in F_p[y]/(y^2 - w); the zero element is (0, 0)."""

    c: int
    parity: int


TV_ZERO = TwistedValue(0, 0)
TV_ONE = TwistedValue(1, 0)


def _tv(c: int, parity: int) -> TwistedValue:
    return TV_ZERO if c == 0 else TwistedValue(c, parity)


def expected_parity(n: int) -> int:
    """psi_n carries a y factor iff n is even and nonzero."""
    return 1 if (n % 2 == 0 and n != 0) else 0


def mul(ctx: FpContext, a: int, b: int, ctr: MultCounter) -> int:
    """a * b mod p, one tick."""
    ctr.tick()
    return a * b % ctx.p


class Ambient:
    """Fixed (A, B, x) evaluation context with its w and billing counter."""

    __slots__ = ("ctx", "A", "B", "x", "w", "ctr", "_inv2w")

    def __init__(self, ctx: FpContext, E: WeierstrassCurve, x: int, ctr: MultCounter):
        self.ctx = ctx
        self.A = E.A
        self.B = E.B
        self.x = x % ctx.p
        self.ctr = ctr
        x2 = mul(ctx, self.x, self.x, ctr)
        x3 = mul(ctx, x2, self.x, ctr)
        ax = mul(ctx, self.A, self.x, ctr)
        self.w = (x3 + ax + self.B) % ctx.p
        self._inv2w = None

    @property
    def inv2w(self) -> int:
        if self._inv2w is None:
            if self.w == 0:
                raise ValueError(f"x={self.x} is a two-torsion abscissa")
            self._inv2w = pow(2 * self.w, -1, self.ctx.p)
        return self._inv2w

    def mul(self, u: TwistedValue, v: TwistedValue) -> TwistedValue:
        c = mul(self.ctx, u.c, v.c, self.ctr)
        if u.parity and v.parity:
            return _tv(mul(self.ctx, c, self.w, self.ctr), 0)
        return _tv(c, u.parity | v.parity)

    def sq(self, u: TwistedValue) -> TwistedValue:
        return self.mul(u, u)

    def cube(self, u: TwistedValue) -> TwistedValue:
        return self.mul(self.sq(u), u)

    def add(self, u: TwistedValue, v: TwistedValue) -> TwistedValue:
        if u.c == 0:
            return v
        if v.c == 0:
            return u
        if u.parity != v.parity:
            raise ParityMismatch(f"cannot add parities {u.parity} and {v.parity}")
        return _tv((u.c + v.c) % self.ctx.p, u.parity)

    def sub(self, u: TwistedValue, v: TwistedValue) -> TwistedValue:
        return self.add(u, self.neg(v))

    def neg(self, u: TwistedValue) -> TwistedValue:
        return _tv((-u.c) % self.ctx.p, u.parity)

    def div_psi2(self, u: TwistedValue) -> TwistedValue:
        """u / (2y): with u = (c, 0), c/(2y) = c*y/(2w), flipping parity."""
        if u.c == 0:
            return TV_ZERO
        return _tv(mul(self.ctx, u.c, self.inv2w, self.ctr), u.parity ^ 1)


def g1(amb: Ambient, v: tuple[TwistedValue, ...]) -> TwistedValue:
    """psi_{2n+1} = psi_{n+2} psi_n^3 - psi_{n-1} psi_{n+1}^3 from 4 inputs."""
    if len(v) != 4:
        raise ValueError("g1 takes psi_{n-1}..psi_{n+2}")
    t1 = amb.mul(v[3], amb.cube(v[1]))
    t2 = amb.mul(v[0], amb.cube(v[2]))
    return amb.sub(t1, t2)


def g2(amb: Ambient, v: tuple[TwistedValue, ...]) -> TwistedValue:
    """psi_{2n} = psi_n (psi_{n-1}^2 psi_{n+2} - psi_{n-2} psi_{n+1}^2) / psi_2."""
    if len(v) != 5:
        raise ValueError("g2 takes psi_{n-2}..psi_{n+2}")
    t1 = amb.mul(amb.sq(v[1]), v[4])
    t2 = amb.mul(v[0], amb.sq(v[3]))
    return amb.div_psi2(amb.mul(amb.sub(t1, t2), v[2]))


def _g(amb: Ambient, v, entry: tuple[bool, int, int]) -> TwistedValue:
    is_g1, off, _ = entry
    return g1(amb, tuple(v[off:off + 4])) if is_g1 else g2(amb, tuple(v[off:off + 5]))


def _coef(v, entry: tuple[bool, int, int], w2, p: int):
    """The coefficient that the psi_entry triple `entry` makes from the run
    v of lane arrays, reduced after every product: g1, psi_{2n+1} from
    psi_{n-1}..psi_{n+2} with w2 = w^2 on the side of the two even-index
    factors that odd = n & 1 picks, or g2, psi_{2n} from psi_{n-2}..psi_{n+2}.
    Every difference is taken after adding p, so unsigned lanes never wrap."""
    is_g1, off, odd = entry
    if is_g1:
        c_nm1, c_n, c_np1, c_np2 = v[off:off + 4]
        t1 = _rem(_rem(c_np2 * _rem(c_n * c_n, p), p) * c_n, p)
        t2 = _rem(_rem(c_nm1 * _rem(c_np1 * c_np1, p), p) * c_np1, p)
        if odd:
            t2 = _rem(t2 * w2, p)
        else:
            t1 = _rem(t1 * w2, p)
        return _rem(t1 + p - t2, p)
    # the division by psi_2 = 2y, c / (2y) = c y / (2w), carried as c / 2
    # since callers exclude w = 0; c / 2 is c >> 1 after adding p to an odd c
    c_nm2, c_nm1, c_n, c_np1, c_np2 = v[off:off + 5]
    inner = _rem(_rem(c_nm1 * c_nm1, p) * c_np2 + p - _rem(c_nm2 * _rem(c_np1 * c_np1, p), p), p)
    c = _rem(inner * c_n, p)
    return (c + (c & 1) * p) >> 1


def psi_sequence(amb: Ambient, upto: int) -> list[TwistedValue]:
    """psi_{-1} .. psi_upto by the direct recurrence; entry [i] is psi_{i-1}.

    This is the naive O(l) evaluation used both to seed base windows and as
    the reference the doubling schedule is checked against.  psi_3 and
    psi_4 come from their closed forms, 5 ticks for psi_3 and 7 more for
    psi_4, each billed only when upto reaches it.
    """
    ctx, ctr, x, A, B = amb.ctx, amb.ctr, amb.x, amb.A, amb.B

    def prod(a: int, b: int) -> int:
        return mul(ctx, a, b, ctr)

    psi = [TwistedValue(ctx.p - 1, 0), TV_ZERO, TV_ONE, TwistedValue(2, 1)]
    if upto >= 3:  # psi_3 = 3x^4 + 6Ax^2 + 12Bx - A^2
        x2, bx, a2 = prod(x, x), prod(B, x), prod(A, A)
        x4 = prod(x2, x2)
        psi.append(_tv((3 * x4 + 6 * prod(A, x2) + 12 * bx - a2) % ctx.p, 0))
    if upto >= 4:  # psi_4 = 4y (x^6 + 5Ax^4 + 20Bx^3 - 5A^2x^2 - 4ABx - 8B^2 - A^3)
        c = (prod(x4, x2) + 5 * prod(A, x4) + 20 * prod(bx, x2) - 5 * prod(a2, x2)
             - 4 * prod(A, bx) - 8 * prod(B, B) - prod(a2, A))
        psi.append(_tv(4 * c % ctx.p, 1))
    for m in range(5, upto + 1):
        psi.append(_g(amb, psi, psi_entry(m, -1)))
    return psi[:upto + 2]


def eval_division_poly_direct(
    ctx: FpContext,
    E: WeierstrassCurve,
    x: int,
    ell: int,
    ctr: MultCounter,
) -> TwistedValue:
    """psi_ell by the naive O(ell) recurrence; reference for the schedule."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    amb = Ambient(ctx, E, x, ctr)
    if amb.w == 0:
        raise ValueError(f"x={x} is a two-torsion abscissa on this curve")
    return psi_sequence(amb, ell)[ell + 1]
