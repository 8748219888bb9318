"""Division polynomials evaluated in the reduced ring F_p[y]/(y^2 - w).

Values are c * y^eps with the ambient w = x^3 + Ax + B, so the evaluation
never needs a square root.  psi_n has eps = 1 iff n is even and nonzero, a
function of n alone, so only the coefficient c is carried.  psi_l is
produced by the windowed doubling schedule: a 10-tuple of consecutive psi
values is doubled per step, each output entry made by the g1 or g2
recurrence (at most 8 counted multiplications), hence at most 80
multiplications per doubling.  The plan of psi_l is its chain of window
bases (`_chain`) over constant tables: each step is one of four kinds, the
parity of its base times its shift, whose 10 entries are `_STEPS`, and the
base window psi_5 .. psi_14 is `_BASE`.  Both backends walk the chain over
these tables from one psi_3/psi_4 formula, with one kernel per number
system.  The billed scalar path works in Python's unbounded ints with two
straight-line kernels, `_int_base` for the base window and `_int_step` for
a step, which form each square and cube once and reduce each output once,
since their largest product (about 155 bits below p = 2^31) costs less
than a reduction per product.  The vectorised path walks `_BASE` and the
table entries that later steps read (`pruned_plan`), each window dense,
with one lane kernel (`_coef`) on arrays of lane_dtype(p), uint32 below
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
    offset of its first input in the run, and the parity of the n of the
    recurrence, all that the kernels and the bill rule read of n."""
    if m % 2:
        n = (m - 1) // 2
        return True, n - 1 - k, n & 1
    n = m // 2
    return False, n - 2 - k, n & 1


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


def _int_base(c3: int, c4: int, w2: int, p: int, half: int) -> list[int]:
    """The coefficients of psi_5 .. psi_14 that `_BASE` makes from
    psi_{-1} .. psi_4 = -1, 0, 1, 2, c3, c4, in Python ints, each reduced
    once; half = 1/2 mod p.  Each g1, at n = 2 .. 6, puts w^2 on the cube
    of whichever of psi_n and psi_{n+1} has an even index, as `_coef`
    does, and psi_1 = 1 and psi_2 = 2 are written in."""
    e2, e3, e4 = 8 * w2, c3 * c3 * c3, c4 * c4 * c4 * w2
    v5 = (c4 * e2 - e3) % p
    v6 = (4 * v5 - c4 * c4) * c3 * half % p
    v7 = (v5 * e3 - 2 * e4) % p
    e5, e6 = v5 * v5 * v5, v6 * v6 * v6 * w2
    v8 = (c3 * c3 * v6 - 2 * v5 * v5) * c4 * half % p
    v9 = (v6 * e4 - c3 * e5) % p
    v10 = (c4 * c4 * v7 - c3 * v6 * v6) * v5 * half % p
    v11 = (v7 * e5 - c4 * e6) % p
    e7 = v7 * v7 * v7
    v12 = (v5 * v5 * v8 - c4 * v7 * v7) * v6 * half % p
    v13 = (v8 * e6 - v5 * e7) % p
    v14 = (v6 * v6 * v9 - v5 * v8 * v8) * v7 * half % p
    return [v5, v6, v7, v8, v9, v10, v11, v12, v13, v14]


def _int_step(v, odd: int, shift: int, w2: int, p: int, half: int) -> list[int]:
    """The 10 coefficients that one doubling step makes from the window
    v = psi_b .. psi_{b+9}, in Python ints, each reduced once; odd = b & 1
    and the new base is 2b + 4 + shift.  This is `_coef` over
    `_STEPS[odd][shift]`, written out: the g1 outputs read v[o..o+3]
    for o = 1 .. 5 in both kinds, and the g2 outputs read v[o..o+4] for
    o = shift .. shift + 4, so the squares and cubes are shared."""
    v0, v1, v2, v3, v4, v5, v6, v7, v8, v9 = v
    s2, s3, s4, s5, s6, s7 = v2 * v2, v3 * v3, v4 * v4, v5 * v5, v6 * v6, v7 * v7
    c2, c3, c4, c5, c6, c7 = s2 * v2, s3 * v3, s4 * v4, s5 * v5, s6 * v6, s7 * v7
    # g1 at o makes psi_{2n+1}, n = b + 1 + o, from v_{o+3} c_{o+1} - v_o c_{o+2};
    # w^2 joins the cubes c_i of even psi_{b+i}, those with i of b's parity
    if odd:
        c3, c5, c7 = c3 * w2, c5 * w2, c7 * w2
    else:
        c2, c4, c6 = c2 * w2, c4 * w2, c6 * w2
    a1 = (v4 * c2 - v1 * c3) % p
    a2 = (v5 * c3 - v2 * c4) % p
    a3 = (v6 * c4 - v3 * c5) % p
    a4 = (v7 * c5 - v4 * c6) % p
    a5 = (v8 * c6 - v5 * c7) % p
    # g2 at o makes psi_{2n}, n = b + 2 + o
    d1 = (s2 * v5 - v1 * s4) * v3 * half % p
    d2 = (s3 * v6 - v2 * s5) * v4 * half % p
    d3 = (s4 * v7 - v3 * s6) * v5 * half % p
    d4 = (s5 * v8 - v4 * s7) * v6 * half % p
    if shift:
        d5 = (s6 * v9 - v5 * v8 * v8) * v7 * half % p
        return [a1, d1, a2, d2, a3, d3, a4, d4, a5, d5]
    d0 = (v1 * v1 * v4 - v0 * s3) * v2 * half % p
    return [d0, a1, d1, a2, d2, a3, d3, a4, d4, a5]


def _entry_bill(entry: tuple[bool, int, int], v, c: int) -> int:
    """The multiplications of one entry from the run v into its output c,
    as ticking every product of the F_p[y]/(y^2 - w) arithmetic counts them
    (tests/psiref.py walks it so): 1 per product, 1 more when both factors
    carry a y (so are nonzero at an even index), and 1 for the division by
    psi_2 of a nonzero value.  That is 8, or 7 for psi_2n at even n, when
    nothing vanishes, and less where an input or the output does."""
    is_g1, off, odd = entry
    if is_g1:
        # ya (cubed) and yb are the factors that carry a y: squaring a
        # nonzero ya takes a w, and so does its cube times a nonzero yb
        ya, yb = (v[off + 2], v[off]) if odd else (v[off + 1], v[off + 3])
        return 8 if ya and yb else 7 if ya else 6
    # a nonzero output is divided by psi_2, one product; at odd n squaring
    # a nonzero psi_{n-1} or psi_{n+1} takes a w, at even n the product by
    # psi_n does when the output is nonzero
    if odd:
        return 5 + (v[off + 1] != 0) + (v[off + 3] != 0) + (c != 0)
    return 7 if c else 5


def _zero_free_bill(entries) -> int:
    """The bill of a run of entries when nothing it reads or writes
    vanishes."""
    nonzero = (1,) * 16  # psi_{-1} .. psi_14, the longest run
    return sum(_entry_bill(entry, nonzero, 1) for entry in entries)


def _chain(ell: int) -> tuple[int, list[tuple[int, int]]]:
    """The doubling chain of psi_ell: k <= 5, then the (b, shift) of each
    step, first to last, which maps the window based at b to the one based
    at 2b + 4 + shift.

    The chain sigma_0 = ell > sigma_1 > ... > sigma_r = k steps down by
    sigma_{i+1} = (sigma_i - 4) // 2 while sigma_i > 5, so the shift of the
    step onto sigma_i is the parity of sigma_i.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    steps = []
    while ell > 5:
        b = (ell - 4) // 2
        steps.append((b, ell & 1))
        ell = b
    steps.reverse()
    return ell, steps


# Every step is one of four kinds, _STEPS[b & 1][shift]: the window based
# at b makes psi_{2b+4+shift} .. psi_{2b+13+shift}, with offsets free of b
# and parities fixed by b's.  _BASE makes psi_5 .. psi_14 from psi_{-1}; the
# base window psi_5 .. psi_{k+9} is _BASE[:k + 5].  Their zero-free bills:
# _BASE_BILLS[k], with the 12 of psi_3 and psi_4, and each kind's.
_STEPS = tuple(tuple(tuple(psi_entry(2 * b + 4 + shift + i, b) for i in range(10))
                     for shift in (0, 1)) for b in (0, 1))
_BASE = tuple(psi_entry(m, -1) for m in range(5, 15))
_BASE_BILLS = tuple(12 + _zero_free_bill(_BASE[:k + 5]) for k in range(6))
_STEP_BILLS = tuple(tuple(map(_zero_free_bill, kind)) for kind in _STEPS)


def eval_division_poly(
    ctx: FpContext,
    E: WeierstrassCurve,
    x: int,
    ell: int,
    ctr: MultCounter,
) -> int:
    """The coefficient c of psi_ell(A, B, x) = c * y^eps via the doubling
    schedule (eps = 1 iff ell is even); O(log ell) multiplications.

    The base window is `_int_base` (all of `_BASE`) cut to psi_k ..
    psi_{k+9}, and each step of the chain (`_chain`) one `_int_step`, all
    10 entries as the 80-per-bit budget bills them.  The bill is what
    ticking every product counts: per run, the base window or a step, its
    zero-free bill (`_BASE_BILLS[k]`, or `_STEP_BILLS` of the step's kind)
    when no entry that the run reads or writes vanishes, which is the
    common case, and otherwise `_entry_bill` over the run's table entries.  So a zero-free eval bills
    3 + _BASE_BILLS[k] plus the `_STEP_BILLS` of its chain.
    """
    k, chain = _chain(ell)
    p = ctx.p
    x %= p
    ctr.tick(3)  # x^2, x^3 and A x, the products of w
    w = (x * x * x + E.A * x + E.B) % p
    if w == 0:
        raise ValueError(f"x={x} is a two-torsion abscissa on this curve")
    w2 = w * w % p
    half = (p + 1) // 2
    c3, c4 = _psi3_psi4(lambda a, b: a * b % p, x, E.A, E.B, p)
    psi = [p - 1, 0, 1, 2, c3, c4, *_int_base(c3, c4, w2, p, half)]
    bill = _BASE_BILLS[k]
    # no entry reads psi_{-1} or psi_0 = 0
    if 0 in psi[2:k + 11]:
        bill = 12 + sum(_entry_bill(entry, psi, c) for entry, c in zip(_BASE[:k + 5], psi[6:]))
    win = psi[k + 1:k + 11]
    for b, shift in chain:
        odd = b & 1
        new = _int_step(win, odd, shift, w2, p, half)
        if 0 in win or 0 in new:
            bill += sum(_entry_bill(entry, win, c) for entry, c in zip(_STEPS[odd][shift], new))
        else:
            bill += _STEP_BILLS[odd][shift]
        win = new
    ctr.tick(bill)
    return win[0]


# ---------------------------------------------------------------------------
# Vectorized evaluation over many (A, B, x) ambients at once.  Same base
# formula and chain as above, walked entry by entry over the plan on the
# coefficient kernel.  The largest intermediate is (p - 1)^2 + p (in g2),
# below 2^32 for p < 2^16 and below 2^62 for p < 2^31.
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
    """The doubling plan of psi_ell, `_chain(ell)` over `_STEPS`, cut down
    to the entries the walk needs, each window dense: k, top and the kept
    entries of each step, first to last.

    Walking the steps backwards, the last keeps entry 0 only and each
    earlier one the entries a later one reads; a kept entry's offset is
    renumbered to its rank among the kept entries of the step before, so a
    window holds only what was kept.  The first step reads the base window
    psi_k .. psi_{k+top} as it is; with no step (ell <= 5) top is 0, for
    psi_ell itself.
    """
    k, chain = _chain(ell)
    need, steps = [0], []
    for b, shift in reversed(chain):
        if steps:  # the later step reads this one's kept entries by rank
            steps[-1] = tuple((is_g1, need.index(off), odd) for is_g1, off, odd in steps[-1])
        steps.append(tuple(_STEPS[b & 1][shift][i] for i in need))
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

    def eval(self, ell: int) -> np.ndarray:
        """Coefficient array of psi_ell across all ambients: psi_{-1} ..
        psi_4, then `_BASE` up to psi_{k+top}, cut to the window psi_k ..
        psi_{k+top} that the first step of `pruned_plan(ell)` reads."""
        k, top, steps = pruned_plan(ell)
        p = self.p
        win = [np.full_like(self.x, c) for c in (p - 1, 0, 1, 2)]
        win.extend(_psi3_psi4(lambda a, b: _rem(a * b, p), self.x, self.A, self.B, p))
        for entry in _BASE[:max(0, k + top - 4)]:
            win.append(_coef(win, entry, self.w2, p))
        win = win[k + 1:]
        for step in steps:
            win = [_coef(win, entry, self.w2, p) for entry in step]
        return win[0]
