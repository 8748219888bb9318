"""Division polynomials evaluated in the reduced ring F_p[y]/(y^2 - w).

Values are c * y^eps with the ambient w = x^3 + Ax + B, so the evaluation
never needs a square root.  psi_n has eps = 1 iff n is even and nonzero, a
function of n alone, so only the coefficient c is carried.  psi_l is
produced by the windowed doubling schedule: a 10-tuple of consecutive psi
values is doubled per step, each output entry made by the g1 or g2
recurrence (at most 8 counted multiplications), hence at most 80
multiplications per doubling.  One
coefficient kernel serves the billed scalar path on Python ints and the
vectorised path on arrays of lane_dtype(p): uint32 below p = 2^16, int64
above.  Only the reduction mod p differs, and no intermediate goes negative,
so unsigned lanes never wrap.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mod
from typing import TYPE_CHECKING

import numpy as np

from .fp_arith import FpContext, MultCounter

if TYPE_CHECKING:
    from .curves import WeierstrassCurve


class TwoTorsionAmbient(ArithmeticError):
    """w = 0: the x is a two-torsion abscissa, division by 2y is impossible."""


def psi_entry(m: int, k: int) -> tuple[bool, int, int]:
    """How psi_m is made from a run of consecutive psi values starting at
    psi_k: whether it is a g1 output (m odd) or a g2 output (m even), the
    offset of its first input in the run, and the n of the recurrence."""
    if m % 2:
        n = (m - 1) // 2
        return True, n - 1 - k, n
    n = m // 2
    return False, n - 2 - k, n


def _rem(c, p):
    """c mod p in [0, p), as int or as an int64 (either sign) or uint32
    array.  With p a scalar, numpy's // by it is a multiply and shift, where
    % divides element by element; on 1e5 lanes (x86-64, numpy 2.4) it takes
    ≈60 µs as uint32 against 250-1000 µs as int64."""
    return c - c // p * p


def _psi3_psi4(mul, x, A, B, p):
    """Yields the coefficient of psi_3, then that of psi_4 = c * y.

    mul is the backend's product (billed or vectorised); a caller that needs
    only psi_3 stops after the first value and pays for nothing more.
    """
    x2 = mul(x, x)
    x4 = mul(x2, x2)
    ax2 = mul(A, x2)
    bx = mul(B, x)
    a2 = mul(A, A)
    yield _rem(3 * x4 + 6 * ax2 + 12 * bx + p - a2, p)
    x6 = mul(x4, x2)
    ax4 = mul(A, x4)
    bx3 = mul(bx, x2)
    a2x2 = mul(a2, x2)
    abx = mul(A, bx)
    a3 = mul(a2, A)
    b2 = mul(B, B)
    inner = _rem(2 * x6 + 10 * ax4 + 40 * bx3 + 36 * p - 10 * a2x2 - 8 * abx - 2 * a3 - 16 * b2, p)
    yield _rem(2 * inner, p)


def _coef_g1(v, n: int, w2, p: int, rem=_rem):
    """Coefficient of psi_{2n+1} from those of psi_{n-1}..psi_{n+2}, as
    ints or lane arrays; w2 = w^2 is the y^4 of the two even-index factors.
    rem(c, p) reduces into [0, p): `_rem` on arrays, `operator.mod` on ints,
    where a C-level % beats a Python call.  Every difference is taken after
    adding p, so unsigned lanes never wrap."""
    c_nm1, c_n, c_np1, c_np2 = v
    t1 = rem(rem(c_np2 * rem(c_n * c_n, p), p) * c_n, p)
    t2 = rem(rem(c_nm1 * rem(c_np1 * c_np1, p), p) * c_np1, p)
    if n % 2 == 0:
        t1 = rem(t1 * w2, p)
    else:
        t2 = rem(t2 * w2, p)
    return rem(t1 + p - t2, p)


def _coef_g2(v, p: int, rem=_rem):
    """Coefficient of psi_{2n} from those of psi_{n-2}..psi_{n+2}; rem as
    for `_coef_g1`."""
    # the division by psi_2 = 2y, c / (2y) = c y / (2w), carried as c / 2
    # since callers exclude w = 0; c / 2 is c >> 1 after adding p to an odd c
    c_nm2, c_nm1, c_n, c_np1, c_np2 = v
    inner = rem(rem(c_nm1 * c_nm1, p) * c_np2 + p - rem(c_nm2 * rem(c_np1 * c_np1, p), p), p)
    c = rem(inner * c_n, p)
    return (c + (c & 1) * p) >> 1


def _psi_coeffs(x, A, B, p: int, upto: int, g) -> list:
    """Coefficients of psi_{-1}..psi_upto at x, as ints or lane arrays;
    entry [i] is psi_{i-1}.  g(psi, entry) makes psi_m for m >= 5."""
    zero = x * 0  # 0, or zeros shaped like x
    psi = [zero + (p - 1), zero, zero + 1, zero + 2]
    psi.extend(_psi3_psi4(lambda a, b: _rem(a * b, p), x, A, B, p))
    for m in range(5, upto + 1):
        psi.append(g(psi, psi_entry(m, -1)))
    return psi[:upto + 2]


@lru_cache(maxsize=256)  # the oracle walks the same plan at every x
def step_plan(ell: int) -> tuple[int, int, tuple[tuple[tuple[int, tuple], ...], ...]]:
    """The windowed doubling schedule of psi_ell.

    The chain sigma_0 = ell > sigma_1 > ... > sigma_r = k <= 5 steps down by
    sigma_{i+1} = (sigma_i - 4) // 2, since one doubling step maps the window
    based at b to the one based at 2b + 4 or 2b + 5.  Returns k, the last
    entry (9) of the base window psi_k .. psi_{k+9}, and per step, first to
    last, the (index, psi_entry) pair of each of its 10 output entries.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    sigmas = [ell]
    while sigmas[-1] > 5:
        sigmas.append((sigmas[-1] - 4) // 2)
    bases = sigmas[::-1]  # k, then the base after each step, ending on ell
    steps = tuple(tuple((i, psi_entry(new + i, base)) for i in range(10))
                  for base, new in zip(bases, bases[1:]))
    return bases[0], 9, steps


def _walk(win: list, steps, g):
    """Runs the steps of a plan from its base window and returns entry 0;
    g(win, entry) computes one entry of the next window from the last."""
    for step in steps:
        new = [None] * 10
        for i, entry in step:
            new[i] = g(win, entry)
        win = new
    return win[0]


def eval_division_poly(
    ctx: FpContext,
    E: WeierstrassCurve,
    x: int,
    ell: int,
    ctr: MultCounter,
) -> int:
    """The coefficient c of psi_ell(A, B, x) = c * y^eps via the doubling
    schedule (eps = 1 iff ell is even); O(log ell) multiplications.

    The coefficients are plain ints on the batch backend's kernel, reduced
    with %.  Each step computes all 10 entries, as the 80-per-bit budget
    bills them, and the bill is what ticking every product of the
    F_p[y]/(y^2 - w) arithmetic counts (tests/psiref.py walks it so): 1 per
    product, 1 more when both factors carry a y (so are nonzero at an even
    index), and 1 for the division by psi_2 of a nonzero value.  That is 8
    per entry, 7 for psi_2n at even n, less where an input or the output
    vanishes.
    """
    k, top, steps = step_plan(ell)
    p = ctx.p
    x %= p
    ctr.tick(3)  # x^2, x^3 and A x, the products of w
    w = (x * x * x + E.A * x + E.B) % p
    if w == 0:
        raise TwoTorsionAmbient(f"x={x} is a two-torsion abscissa on this curve")
    w2 = w * w % p
    bill = 12  # the products of psi_3 and psi_4

    def g(v, entry):
        nonlocal bill
        is_g1, off, n = entry
        if is_g1:
            u = v[off:off + 4]
            c = _coef_g1(u, n, w2, p, mod)
            if 0 not in u:  # no input vanishes, the common case
                bill += 8
            else:
                # ya (cubed) and yb are the factors that carry a y: squaring
                # a nonzero ya takes a w, and so does its cube times a
                # nonzero yb
                c0, c1, c2, c3 = u
                ya, yb = (c2, c0) if n & 1 else (c1, c3)
                bill += 8 if ya and yb else 7 if ya else 6
        else:
            u = v[off:off + 5]
            c = _coef_g2(u, p, mod)
            # a nonzero output is divided by psi_2, one product; at odd n
            # squaring a nonzero psi_{n-1} or psi_{n+1} takes a w, at even n
            # the product by psi_n does when the output is nonzero
            if n & 1:
                bill += 8 if c and u[1] and u[3] else 5 + (u[1] != 0) + (u[3] != 0) + (c != 0)
            else:
                bill += 7 if c else 5
        return c

    c = _walk(_psi_coeffs(x, E.A, E.B, p, k + top, g)[k + 1:], steps, g)
    ctr.tick(bill)
    return c


# ---------------------------------------------------------------------------
# Vectorized evaluation over many (A, B, x) ambients at once.  Same base
# formula, coefficient kernel, step plan and walk as above.  The largest
# intermediate is (p - 1)^2 + p (in g2), below 2^32 for p < 2^16 and below
# 2^62 for p < 2^31.
# ---------------------------------------------------------------------------


def lane_dtype(p: int) -> type:
    """The dtype of BatchAmbient's lanes at p: uint32 when every
    intermediate fits in 32 bits (p < 2^16), int64 otherwise."""
    return np.uint32 if p < 1 << 16 else np.int64


def _vec_pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.ones_like(a)
    base = _rem(a, p)
    while e:
        if e & 1:
            result = _rem(result * base, p)
        base = _rem(base * base, p)
        e >>= 1
    return result


@lru_cache(maxsize=256)  # one forge or census op evaluates a few ell many times
def pruned_plan(ell: int) -> tuple[int, int, tuple[tuple[tuple[int, tuple], ...], ...]]:
    """step_plan(ell) cut down to the entries the walk needs.

    Walking the steps backwards, the last keeps entry 0 only and each
    earlier one the entries a later one reads; top is the last base-window
    entry the first step reads.  With no step (ell <= 5) the base window
    needs only its entry 0, psi_ell itself.
    """
    k, _, full = step_plan(ell)
    need, steps = {0}, []
    for step in reversed(full):
        steps.append(tuple(step[i] for i in sorted(need)))
        need = {off + d for _, (is_g1, off, _) in steps[-1] for d in range(4 if is_g1 else 5)}
    return k, max(need), tuple(reversed(steps))


class BatchAmbient:
    """Vectorized F_p[y]/(y^2 - w) ambients on lanes of lane_dtype(p);
    callers must exclude w = 0."""

    def __init__(self, ctx: FpContext, A: np.ndarray, B: np.ndarray, x: np.ndarray):
        p = ctx.p
        self.p = p
        dtype = lane_dtype(p)
        self.A, self.B, self.x = (_rem(v, p).astype(dtype, copy=False) for v in (A, B, x))
        x2 = _rem(self.x * self.x, p)
        self.w = _rem(_rem(x2 * self.x, p) + _rem(self.A * self.x, p) + self.B, p)
        self.w2 = _rem(self.w * self.w, p)

    def _g(self, v: list[np.ndarray], entry: tuple[bool, int, int]) -> np.ndarray:
        is_g1, off, n = entry
        if is_g1:
            return _coef_g1(v[off:off + 4], n, self.w2, self.p)
        return _coef_g2(v[off:off + 5], self.p)

    def psi_coeffs(self, upto: int) -> list[np.ndarray]:
        """Coefficient arrays of psi_{-1}..psi_upto; entry [i] is psi_{i-1}."""
        return _psi_coeffs(self.x, self.A, self.B, self.p, upto, self._g)

    def eval(self, ell: int) -> np.ndarray:
        """Coefficient array of psi_ell across all ambients."""
        k, top, steps = pruned_plan(ell)
        return _walk(self.psi_coeffs(k + top)[k + 1:], steps, self._g)
