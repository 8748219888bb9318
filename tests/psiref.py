"""Ticked psi arithmetic in F_p[y]/(y^2 - w), for the tests only.

Values are typed by their parity, c * y^parity, every product goes through
`mul` and ticks the counter, and psi_ell is also available by the naive
O(ell) recurrence.  The package's billed walk (`divpoly.eval_division_poly`)
runs the shared coefficient kernel on plain ints, bills each entry by rule
and returns only the coefficient; this module is the independent side its
values and counts are checked against.
"""

from __future__ import annotations

from typing import NamedTuple

from twistforge.curves import WeierstrassCurve
from twistforge.divpoly import TwoTorsionAmbient, _psi3_psi4, psi_entry
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
                raise TwoTorsionAmbient(f"x={self.x} is a two-torsion abscissa")
            self._inv2w = self.ctx.inv(2 * self.w)
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


def psi_sequence(amb: Ambient, upto: int) -> list[TwistedValue]:
    """psi_{-1} .. psi_upto by the direct recurrence; entry [i] is psi_{i-1}.

    This is the naive O(l) evaluation used both to seed base windows and as
    the reference the doubling schedule is checked against.
    """
    ctx, ctr = amb.ctx, amb.ctr
    psi = [TwistedValue(ctx.p - 1, 0), TV_ZERO, TV_ONE, TwistedValue(2, 1)]
    base = _psi3_psi4(lambda a, b: mul(ctx, a, b, ctr), amb.x, amb.A, amb.B, ctx.p)
    # zip stops on the range first, so upto = 3 never bills psi_4's products
    for m, c in zip(range(3, upto + 1), base):
        psi.append(_tv(c, expected_parity(m)))
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
        raise TwoTorsionAmbient(f"x={x} is a two-torsion abscissa on this curve")
    return psi_sequence(amb, ell)[ell + 1]
