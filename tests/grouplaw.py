"""The curve reference on y^2 = x^3 + Ax + B over F_p, for the tests only:
the affine group law, the j-invariant and the quadratic twist.

The package finds torsion and group structure with the psi_l test, and
realises classes and their twists from (j, b); this arithmetic is the
independent side it is checked against.
"""

from __future__ import annotations

from typing import Optional

from twistforge.curves import WeierstrassCurve, _factorize
from twistforge.fp_arith import FpContext, MultCounter

# An affine point (x, y); None is the point at infinity.
CurvePoint = Optional[tuple[int, int]]


class SingularCurve(ValueError):
    """4A^3 + 27B^2 == 0."""


class NotANonResidue(ValueError):
    """Twist parameter is a square (or zero)."""


def j_invariant(ctx: FpContext, E: WeierstrassCurve) -> int:
    p = ctx.p
    a3 = 4 * pow(E.A, 3, p) % p
    disc = (a3 + 27 * E.B * E.B) % p
    if disc == 0:
        raise SingularCurve("singular curve has no j-invariant")
    return 1728 * a3 % p * pow(disc, -1, p) % p


def quadratic_twist(ctx: FpContext, E: WeierstrassCurve, alpha: int) -> WeierstrassCurve:
    """The twist y^2 = x^3 + alpha^-2 A x + alpha^-3 B."""
    if ctx.euler_criterion(alpha, MultCounter()) != -1:
        raise NotANonResidue(f"{alpha} is not a quadratic nonresidue mod {ctx.p}")
    ai = pow(alpha, -1, ctx.p)
    ai2 = ai * ai % ctx.p
    return WeierstrassCurve(ai2 * E.A % ctx.p, ai2 * ai % ctx.p * E.B % ctx.p)


def point_neg(ctx: FpContext, P: CurvePoint) -> CurvePoint:
    if P is None:
        return None
    return (P[0], (-P[1]) % ctx.p)


def point_add(ctx: FpContext, P: CurvePoint, Q: CurvePoint, E: WeierstrassCurve) -> CurvePoint:
    if P is None:
        return Q
    if Q is None:
        return P
    p = ctx.p
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + E.A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def scalar_mul(ctx: FpContext, P: CurvePoint, k: int, E: WeierstrassCurve) -> CurvePoint:
    """[k]P for k >= 0 by double-and-add; [0]P is the point at infinity."""
    result: CurvePoint = None
    addend = P
    while k:
        if k & 1:
            result = point_add(ctx, result, addend, E)
        addend = point_add(ctx, addend, addend, E)
        k >>= 1
    return result


def is_on_curve(ctx: FpContext, P: CurvePoint, E: WeierstrassCurve) -> bool:
    if P is None:
        return True
    x, y = P
    return (y * y - (x * x % ctx.p * x + E.A * x + E.B)) % ctx.p == 0


def affine_points(ctx: FpContext, E: WeierstrassCurve) -> list[tuple[int, int]]:
    """All affine points, by exhaustive x-scan."""
    p = ctx.p
    pts = []
    roots: dict[int, int] = {}
    for y in range(p // 2 + 1):
        roots.setdefault(y * y % p, y)
    for x in range(p):
        w = (x * x % p * x + E.A * x + E.B) % p
        if w == 0:
            pts.append((x, 0))
        elif w in roots:
            y = roots[w]
            pts.append((x, y))
            pts.append((x, p - y))
    return pts


def point_order(ctx: FpContext, P: CurvePoint, E: WeierstrassCurve, n: int,
                factors: dict[int, int] | None = None) -> int:
    """Order of P given the group cardinality n."""
    if P is None:
        return 1
    factors = factors if factors is not None else _factorize(n)
    order = n
    for q in factors:
        while order % q == 0 and scalar_mul(ctx, P, order // q, E) is None:
            order //= q
    return order
