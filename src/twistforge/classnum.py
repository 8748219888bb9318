"""Class numbers of imaginary quadratic orders and the analytic bounds that
sandwich the Grover iteration count.

Exact class numbers come from enumerating reduced primitive binary quadratic
forms.  The bound formulas use natural logarithms except where noted: the
4.251 upper iteration constant is paired with log base 2, consistent with
the 2.622 / 5097 / 8264 constants downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fp_arith import _factorize

MAX_ABS_D = 10**7
TATUZAWA_MIN_ABS_D = math.exp(11.2)


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in _factorize(n).values())


def is_fundamental(d: int) -> bool:
    """Whether the negative discriminant d is fundamental."""
    if d % 4 == 1:
        return _squarefree(-d)
    q = -d // 4
    return _squarefree(q) and q % 4 in (1, 2)  # -4q fundamental iff q = 1, 2 mod 4


@dataclass(frozen=True)
class FrobeniusResult:
    delta: int  # Delta_Fr = 4p - t^2 = |d|
    is_fundamental: bool  # of d = -delta
    accepted: bool  # the scheme's predicate: square-free and Delta > 3p


def frobenius_discriminant(p: int, sigma: int) -> FrobeniusResult:
    """d = t^2 - 4p for trace t = sigma - p - 1, plus the acceptance flag."""
    t = sigma - p - 1
    if t * t > 4 * p:
        raise ValueError("sigma outside the Hasse band")
    delta = 4 * p - t * t
    fundamental = is_fundamental(-delta)
    # Delta square-free without factoring it again: d = t^2 is 0 or 1 mod 4;
    # at 0, 4 | Delta, and at 1, d fundamental means Delta square-free
    accepted = -delta % 4 == 1 and fundamental and delta > 3 * p
    return FrobeniusResult(delta, fundamental, accepted)


def exact_class_number(d: int) -> int:
    """Count of reduced primitive forms (a, b, c) of discriminant d:
    b^2 - 4ac = d, |b| <= a <= c, b >= 0 when |b| = a or a = c, gcd = 1."""
    if d >= -4:
        raise ValueError("requires d < -4")
    if -d > MAX_ABS_D:
        raise ValueError(f"|d| > {MAX_ABS_D} beyond desk scale")
    if d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a discriminant")
    h = 0
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                h += 1
    return h


def tatuzawa_lower_bound(p: int) -> float:
    """0.11 sqrt(p) / ln p (natural log, from epsilon = 1/ln p)."""
    return 0.11 * math.sqrt(p) / math.log(p)


def tatuzawa_valid(p: int, abs_d: int) -> bool:
    """The lower bound applies only when |d| >= max(e^{1/eps}, e^{11.2})
    with eps = 1/ln p, i.e. |d| > max(p, e^{11.2})."""
    return abs_d > max(p, TATUZAWA_MIN_ABS_D)


def l_upper_bound(abs_d: int) -> float:
    """Explicit Polya-Vinogradov bound on L(1, chi) for odd chi mod |d|."""
    if abs_d < 3:
        raise ValueError("requires |d| >= 3")
    ln = math.log(abs_d)
    return (0.5 + 1 / (2 * math.pi)) * ln + math.log(ln) / math.pi + 1


def class_number_upper_bound(p: int) -> float:
    """Upper bound on h(d) for every |d| <= 4p, from l_upper_bound."""
    pi = math.pi
    sp = math.sqrt(p)
    ln4p = math.log(4 * p)
    return ((1 + pi) / pi**2) * sp * ln4p + (2 / pi**2) * sp * math.log(ln4p) + (2 / pi) * sp


def iteration_bounds(p: float, bits: float | None = None) -> tuple[float, float]:
    """The sandwich around sqrt(2p / h(d)).

    Lower end: sqrt(2) pi p^{1/4} / sqrt((pi+1) ln 4p + 2 ln ln 4p + 2 pi)
    (exact, natural logs, from the class-number upper bound).
    Upper end: 4.251 p^{1/4} sqrt(bits), the printed constant with base-2
    log matching its companions 2.622 and 8264; bits defaults to log2 p,
    and the resource table passes its integer bit size n = ceil(log2 p).
    """
    pi = math.pi
    ln4p = math.log(4 * p)
    lower = math.sqrt(2) * pi * p**0.25 / math.sqrt(
        (pi + 1) * ln4p + 2 * math.log(ln4p) + 2 * pi
    )
    upper = 4.251 * p**0.25 * math.sqrt(math.log2(p) if bits is None else bits)
    return lower, upper


@dataclass(frozen=True)
class ClassNumberReport:
    frobenius: FrobeniusResult
    h: int | None
    tatuzawa_lower: float
    tatuzawa_valid: bool
    l_upper: float
    h_upper: float
    iteration_lower: float
    iteration_upper: float


def class_number_report(p: int, sigma: int, with_exact: bool = True) -> ClassNumberReport:
    fr = frobenius_discriminant(p, sigma)
    h = None
    if with_exact and 4 < fr.delta <= MAX_ABS_D:
        h = exact_class_number(-fr.delta)
    lo, hi = iteration_bounds(p)
    return ClassNumberReport(
        frobenius=fr,
        h=h,
        tatuzawa_lower=tatuzawa_lower_bound(p),
        tatuzawa_valid=tatuzawa_valid(p, fr.delta),
        l_upper=l_upper_bound(fr.delta),
        h_upper=class_number_upper_bound(p),
        iteration_lower=lo,
        iteration_upper=hi,
    )
