"""Division polynomials evaluated in the reduced ring F_p[y]/(y^2 - w).

Values are c * y^eps with the ambient w = x^3 + Ax + B, so the evaluation
never needs a square root.  psi_n has eps = 1 iff n is even and nonzero, a
function of n alone, so only the coefficient c is carried.  psi_l is
produced by the windowed doubling schedule: a 10-tuple of consecutive psi
values is doubled per step, each output entry made by the g1 or g2
recurrence (at most 8 counted multiplications), hence at most 80
multiplications per doubling.  One plan (`step_plan`) lists every entry as
a plain psi_entry triple, the base window's included, and both backends
share one psi_3/psi_4 formula, but each makes its entries its own way.  The
billed scalar path computes an entry in Python's unbounded ints and reduces
it once, since its largest product (about 155 bits below p = 2^31) costs
less than a reduction per product.  The vectorised path walks the plan cut
to the entries later steps read (`pruned_plan`), each window dense, and
runs a coefficient kernel on arrays of lane_dtype(p), uint32 below
p = 2^16 and int64 above, which must reduce after every product; no
intermediate goes negative, so unsigned lanes never wrap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .fp_arith import FpContext, MultCounter

if TYPE_CHECKING:
    from .curves import WeierstrassCurve


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


def _coef_g1(v, n: int, w2, p: int):
    """Coefficient of psi_{2n+1} from those of psi_{n-1}..psi_{n+2}, as lane
    arrays; w2 = w^2 is the y^4 of the two even-index factors.  Every
    difference is taken after adding p, so unsigned lanes never wrap."""
    c_nm1, c_n, c_np1, c_np2 = v
    t1 = _rem(_rem(c_np2 * _rem(c_n * c_n, p), p) * c_n, p)
    t2 = _rem(_rem(c_nm1 * _rem(c_np1 * c_np1, p), p) * c_np1, p)
    if n % 2 == 0:
        t1 = _rem(t1 * w2, p)
    else:
        t2 = _rem(t2 * w2, p)
    return _rem(t1 + p - t2, p)


def _coef_g2(v, p: int):
    """Coefficient of psi_{2n} from those of psi_{n-2}..psi_{n+2}, as lane
    arrays."""
    # the division by psi_2 = 2y, c / (2y) = c y / (2w), carried as c / 2
    # since callers exclude w = 0; c / 2 is c >> 1 after adding p to an odd c
    c_nm2, c_nm1, c_n, c_np1, c_np2 = v
    inner = _rem(_rem(c_nm1 * c_nm1, p) * c_np2 + p - _rem(c_nm2 * _rem(c_np1 * c_np1, p), p), p)
    c = _rem(inner * c_n, p)
    return (c + (c & 1) * p) >> 1


def _int_coefs(v, entries, w2: int, p: int, half: int, out: list) -> list[int]:
    """Appends to out, and returns it, the coefficients that the psi_entry
    triples `entries` make from the run v, in Python ints reduced once per
    entry; half = 1/2 mod p.  With out = v each entry reads those before
    it.  The same g1 and g2 as `_coef_g1` and `_coef_g2`, with w^2 on the
    side of the two even-index factors and psi_2 = 2y divided out as 1/2."""
    for is_g1, off, n in entries:
        if is_g1:
            a, b, c, d = v[off:off + 4]
            if n & 1:
                out.append((d * b * b * b - a * c * c * c * w2) % p)
            else:
                out.append((d * b * b * b * w2 - a * c * c * c) % p)
        else:
            a, b, c, d, e = v[off:off + 5]
            out.append((b * b * e - a * d * d) * c * half % p)
    return out


def _entry_bill(entry: tuple[bool, int, int], v, c: int) -> int:
    """The multiplications of one entry from the run v into its output c,
    as ticking every product of the F_p[y]/(y^2 - w) arithmetic counts them
    (tests/psiref.py walks it so): 1 per product, 1 more when both factors
    carry a y (so are nonzero at an even index), and 1 for the division by
    psi_2 of a nonzero value.  That is 8, or 7 for psi_2n at even n, when
    nothing vanishes, and less where an input or the output does."""
    is_g1, off, n = entry
    if is_g1:
        # ya (cubed) and yb are the factors that carry a y: squaring a
        # nonzero ya takes a w, and so does its cube times a nonzero yb
        ya, yb = (v[off + 2], v[off]) if n & 1 else (v[off + 1], v[off + 3])
        return 8 if ya and yb else 7 if ya else 6
    # a nonzero output is divided by psi_2, one product; at odd n squaring
    # a nonzero psi_{n-1} or psi_{n+1} takes a w, at even n the product by
    # psi_n does when the output is nonzero
    if n & 1:
        return 5 + (v[off + 1] != 0) + (v[off + 3] != 0) + (c != 0)
    return 7 if c else 5


@lru_cache(maxsize=256)  # the oracle walks the same plan at every x
def step_plan(ell: int) -> tuple[int, tuple[tuple[bool, int, int], ...],
                                 tuple[tuple[tuple[bool, int, int], ...], ...],
                                 tuple[int, ...]]:
    """The windowed doubling schedule of psi_ell.

    The chain sigma_0 = ell > sigma_1 > ... > sigma_r = k <= 5 steps down by
    sigma_{i+1} = (sigma_i - 4) // 2, since one doubling step maps the window
    based at b to the one based at 2b + 4 or 2b + 5.  Returns k; the base,
    the psi_entry of psi_5 .. psi_{k+9} from psi_{-1}, each reading those
    before it; per step, first to last, the psi_entry of each of its 10
    outputs from the window before; and the bills when nothing that a run
    reads or writes vanishes: the base's, with the 12 of psi_3 and psi_4,
    then each step's.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    sigmas = [ell]
    while sigmas[-1] > 5:
        sigmas.append((sigmas[-1] - 4) // 2)
    bases = sigmas[::-1]  # k, then the base after each step, ending on ell
    k = bases[0]
    base = tuple(psi_entry(m, -1) for m in range(5, k + 10))
    steps = tuple(tuple(psi_entry(new + i, b) for i in range(10))
                  for b, new in zip(bases, bases[1:]))
    nonzero = (1,) * (k + 11)  # psi_{-1} .. psi_{k+9}, the longest run
    bills = [sum(_entry_bill(entry, nonzero, 1) for entry in run) for run in (base, *steps)]
    bills[0] += 12
    return k, base, steps, tuple(bills)


def eval_division_poly(
    ctx: FpContext,
    E: WeierstrassCurve,
    x: int,
    ell: int,
    ctr: MultCounter,
) -> int:
    """The coefficient c of psi_ell(A, B, x) = c * y^eps via the doubling
    schedule (eps = 1 iff ell is even); O(log ell) multiplications.

    Each entry is a Python int reduced once (`_int_coefs`).  Each step
    computes all 10 entries, as the 80-per-bit budget bills them, and the
    bill is what ticking every product counts (`_entry_bill`): per run, the
    base window or a step, the plan's bill when no entry that the run reads
    or writes vanishes, which is the common case, and otherwise the rule
    entry by entry.  So a zero-free eval bills 3 + sum(step_plan(ell)[3]).
    """
    k, base, steps, bills = step_plan(ell)
    p = ctx.p
    x %= p
    ctr.tick(3)  # x^2, x^3 and A x, the products of w
    w = (x * x * x + E.A * x + E.B) % p
    if w == 0:
        raise ValueError(f"x={x} is a two-torsion abscissa on this curve")
    w2 = w * w % p
    half = (p + 1) // 2
    psi = [p - 1, 0, 1, 2, *_psi3_psi4(lambda a, b: a * b % p, x, E.A, E.B, p)]
    _int_coefs(psi, base, w2, p, half, psi)
    # no entry reads psi_{-1} or psi_0 = 0
    if 0 in psi[2:]:
        bill = 12 + sum(_entry_bill(entry, psi, c) for entry, c in zip(base, psi[6:]))
    else:
        bill = bills[0]
    win = psi[k + 1:]
    for step, step_bill in zip(steps, bills[1:]):
        new = _int_coefs(win, step, w2, p, half, [])
        if 0 in win or 0 in new:
            bill += sum(_entry_bill(entry, win, c) for entry, c in zip(step, new))
        else:
            bill += step_bill
        win = new
    ctr.tick(bill)
    return win[0]


# ---------------------------------------------------------------------------
# Vectorized evaluation over many (A, B, x) ambients at once.  Same base
# formula, step plan and walk as above, on the coefficient kernel.  The largest
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
def pruned_plan(ell: int) -> tuple[int, int, tuple[tuple[tuple[bool, int, int], ...], ...]]:
    """step_plan(ell) cut down to the entries the walk needs, each window
    dense.

    Walking the steps backwards, the last keeps entry 0 only and each
    earlier one the entries a later one reads; a kept entry's offset is
    renumbered to its rank among the kept entries of the step before, so a
    window holds only what was kept.  The first step reads the base window
    psi_k .. psi_{k+top} as it is; with no step (ell <= 5) top is 0, for
    psi_ell itself.
    """
    k, _, full, _ = step_plan(ell)
    need, steps = [0], []
    for step in reversed(full):
        if steps:  # the later step reads this one's kept entries by rank
            steps[-1] = tuple((is_g1, need.index(off), n) for is_g1, off, n in steps[-1])
        steps.append(tuple(step[i] for i in need))
        need = sorted({off + d for is_g1, off, _ in steps[-1] for d in range(4 if is_g1 else 5)})
    return k, need[-1], tuple(reversed(steps))


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
        p, zero = self.p, np.zeros_like(self.x)
        psi = [zero + (p - 1), zero, zero + 1, zero + 2]
        psi.extend(_psi3_psi4(lambda a, b: _rem(a * b, p), self.x, self.A, self.B, p))
        for m in range(5, upto + 1):
            psi.append(self._g(psi, psi_entry(m, -1)))
        return psi[:upto + 2]

    def eval(self, ell: int) -> np.ndarray:
        """Coefficient array of psi_ell across all ambients."""
        k, top, steps = pruned_plan(ell)
        win = self.psi_coeffs(k + top)[k + 1:]
        for step in steps:
            win = [self._g(win, entry) for entry in step]
        return win[0]
