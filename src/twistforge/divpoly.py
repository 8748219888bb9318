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
base window psi_5 .. psi_14 is the step of kind (0, 1) from psi_0, `_BASE`,
whose entries read outputs of their own.  Both backends walk the chain over
these tables from one seed formula, `_psi3_psi4`, which takes ints and
lanes alike with no callback, and past it with one kernel per number
system.  The billed scalar path works in Python's unbounded ints with two
straight-line kernels, `_int_base` for the base window and `_int_step` for
a step, which form each square and cube once and reduce each output once,
since their largest product (about 155 bits below p = 2^31) costs less
than a reduction per product.  Its bill is the walk's zero-free bill,
cached for the two ell of a note (`_eval_plan`), less what the walk's
zeros remove, from two deficit tables (`_OUT_DEFICIT`, `_IN_DEFICIT`)
that one rule, `_entry_bill`, derives as it does the zero-free bills.
The vectorised path works on arrays of lane_dtype(p), uint32 below
p = 2^16 and int64 above, which must reduce after every product; no
intermediate goes negative, so unsigned lanes never wrap.  It walks the
lanes in chunks of `_ROW_BYTES`, so that a chunk's window stays in cache,
with one 2-D kernel (`_lane_step`, `_int_step` on row slices): the base
window in rounds, each of the outputs that read only psi already made,
then each step, each over the run of outputs that the next step reads
(`pruned_plan`).
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


def _psi3_psi4(x, A, B, p):
    """The coefficients of psi_3 and psi_4 = c * y at residues x, A and B, as
    ints or lanes alike: each product is reduced and each sum kept >= 0."""
    x2 = _rem(x * x, p)
    x4 = _rem(x2 * x2, p)
    ax2 = _rem(A * x2, p)
    bx = _rem(B * x, p)
    a2 = _rem(A * A, p)
    c3 = _rem(3 * x4 + 6 * ax2 + 12 * bx + p - a2, p)
    x6 = _rem(x4 * x2, p)
    ax4 = _rem(A * x4, p)
    bx3 = _rem(bx * x2, p)
    a2x2 = _rem(a2 * x2, p)
    abx = _rem(A * bx, p)
    a3 = _rem(a2 * A, p)
    b2 = _rem(B * B, p)
    inner = _rem(2 * x6 + 10 * ax4 + 40 * bx3 + 36 * p - 10 * a2x2 - 8 * abx - 2 * a3 - 16 * b2, p)
    return c3, _rem(2 * inner, p)


def _int_base(c3: int, c4: int, w2: int, p: int, half: int) -> list[int]:
    """The coefficients of psi_5 .. psi_14 that `_BASE` makes from
    psi_0 .. psi_4 = 0, 1, 2, c3, c4, in Python ints, each reduced once;
    half = 1/2 mod p.  Each g1, at n = 2 .. 6, puts w^2 on the cube of
    whichever of psi_n and psi_{n+1} has an even index, as `_int_step`
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
    and the new base is 2b + 4 + shift.  These are the entries of
    `_STEPS[odd][shift]` written out: the g1 outputs read v[o..o+3] for
    o = 1 .. 5 in both kinds, and the g2 outputs read v[o..o+4] for
    o = shift .. shift + 4, so the squares and cubes are shared.  g2
    divides c by psi_2 = 2y, c y / (2w), carried as c / 2 (w != 0)."""
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


_NONZERO = (1,) * 15  # psi_0 .. psi_14, the longest run


def _run_bill(entries, v=_NONZERO) -> int:
    """The bill of a run of entries from the run v, by default one in which
    nothing vanishes, into outputs that do not vanish."""
    return sum(_entry_bill(entry, v, 1) for entry in entries)


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
# and parities fixed by b's.  _BASE, the kind (0, 1) read from psi_0, makes
# psi_5 .. psi_14, and the base window psi_5 .. psi_{k+9} is _BASE[:k + 5].
# Zero-free bills: _BASE_BILLS[k], with psi_3 and psi_4's 12, and each kind's.
_STEPS = tuple(tuple(tuple(psi_entry(2 * b + 4 + shift + i, b) for i in range(10))
                     for shift in (0, 1)) for b in (0, 1))
_BASE = _STEPS[0][1]
_BASE_BILLS = tuple(12 + _run_bill(_BASE[:k + 5]) for k in range(6))
_STEP_BILLS = tuple(tuple(map(_run_bill, kind)) for kind in _STEPS)
# What a step bills below its kind's zero-free bill where a psi vanishes:
# _OUT_DEFICIT[odd][shift][i] when output i does, and _IN_DEFICIT[odd][shift][j],
# over every entry that reads slot j, when slot j alone of the input window
# does.  An output zero and one input zero lower the bill independently, so
# the two add; two input zeros need not (a g1 whose ya vanishes bills 6
# whatever yb is), and a step with two bills entry by entry.
_OUT_DEFICIT = tuple(tuple(tuple(_entry_bill(entry, _NONZERO, 1) - _entry_bill(entry, _NONZERO, 0)
                                 for entry in kind) for kind in kinds) for kinds in _STEPS)
_IN_DEFICIT = tuple(tuple(tuple(_run_bill(kind) - _run_bill(kind, (1,) * j + (0,) + (1,) * (9 - j))
                                for j in range(10)) for kind in kinds) for kinds in _STEPS)


@lru_cache(maxsize=2)  # the tau evals of one note walk sigma and 2p + 2 - sigma
def _eval_plan(ell: int) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """The plan of the billed walk to psi_ell: k, the kind (b & 1, shift)
    of each step of `_chain(ell)`, first to last, and the bill of the walk
    when no psi in it vanishes, 3 for w + _BASE_BILLS[k] + the steps'
    `_STEP_BILLS`."""
    k, chain = _chain(ell)
    kinds, bill = [], 3 + _BASE_BILLS[k]
    for b, shift in chain:  # one pass: a counterfeit note's plan serves one or two evals
        kinds.append((b & 1, shift))
        bill += _STEP_BILLS[b & 1][shift]
    return k, tuple(kinds), bill


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
    ticking every product counts.  It starts from the walk's zero-free
    bill, cached with its step kinds in `_eval_plan` for the two ell of a
    note, and a run only touches it where a psi vanishes: the base window
    then bills entry by entry by `_entry_bill`, and a step subtracts the
    `_OUT_DEFICIT` of each vanishing output and the `_IN_DEFICIT` of a lone
    vanishing input, or, with two or more inputs at 0, bills entry by
    entry.  Each step scans only its new window for 0, since its input
    window is the last step's output.
    """
    k, kinds, bill = _eval_plan(ell)
    p = ctx.p
    x %= p
    w = (x * x * x + E.A * x + E.B) % p
    if w == 0:
        ctr.tick(3)  # x^2, x^3 and A x, the products of w
        raise ValueError(f"x={x} is a two-torsion abscissa on this curve")
    w2 = w * w % p
    half = (p + 1) // 2
    c3, c4 = _psi3_psi4(x, E.A, E.B, p)
    psi = [0, 1, 2, c3, c4, *_int_base(c3, c4, w2, p, half)]
    # no entry reads psi_0 = 0
    if 0 in psi[1:k + 10]:
        bill += 12 - _BASE_BILLS[k] + sum(_entry_bill(entry, psi, c)
                                          for entry, c in zip(_BASE[:k + 5], psi[5:]))
    win = psi[k:k + 10]
    zero = 0 in win
    for odd, shift in kinds:
        new = _int_step(win, odd, shift, w2, p, half)
        zero_in, zero = zero, 0 in new
        if zero_in and win.count(0) > 1:
            bill += sum(_entry_bill(entry, win, c)
                        for entry, c in zip(_STEPS[odd][shift], new)) - _STEP_BILLS[odd][shift]
        elif zero_in or zero:
            bill -= sum(d for d, c in zip(_OUT_DEFICIT[odd][shift], new) if c == 0)
            if zero_in:
                bill -= _IN_DEFICIT[odd][shift][win.index(0)]
        win = new
    ctr.tick(bill)
    return win[0]


# ---------------------------------------------------------------------------
# Vectorized evaluation over many (A, B, x) ambients at once.  Same seed
# and chain as above, the base window in rounds and each step, each as
# one kernel over the rows it keeps.  The largest intermediate is
# (p - 1)^2 + p (in g2), below 2^32 for p < 2^16 and below 2^62 for
# p < 2^31.
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


def _lane_step(v, base: int, odd: int, shift: int, lo: int, hi: int, w2, p: int):
    """Outputs lo .. hi - 1 of a doubling step of kind `_STEPS[odd][shift]`
    from the rows v of lanes, which hold window slots base, base + 1, ...,
    the slots those outputs read: `_int_step` on row slices, with every
    product reduced, each difference taken after adding p and c / 2 as
    (c + p) >> 1 for odd c.  The kept g1 outputs a read v[o..o+3] and
    the kept g2 outputs d v[o..o+4] for consecutive o, so the first and last
    rows of v are never squared and the middle ones always are; a and d are
    one 2-D expression each, written to alternate rows."""
    kind = _STEPS[odd][shift]
    first = 0 if kind[lo][0] else 1  # the row of the first g1 output
    out = np.empty((hi - lo, v.shape[1]), v.dtype)
    a, d = out[first::2], out[1 - first::2]
    sq = _rem(v[1:-1] * v[1:-1], p)  # sq[i] = v[i + 1]^2
    if len(a):
        # a at o is v[o+3] c[o+1] - v[o] c[o+2], c[i] the cube of v[i] times
        # w^2 where psi is even, at the window slots of odd's parity
        o, n = kind[lo + first][1] - base, len(a)
        cube = _rem(sq[o:o + n + 1] * v[o + 1:o + n + 2], p)
        even = (odd + base + o + 1) & 1
        cube[even::2] = _rem(cube[even::2] * w2, p)
        a[:] = _rem(_rem(v[o + 3:o + n + 3] * cube[:n], p) + p - _rem(v[o:o + n] * cube[1:], p), p)
    if len(d):
        # d at o is (v[o+1]^2 v[o+4] - v[o] v[o+3]^2) v[o+2] / 2
        o, n = kind[lo + 1 - first][1] - base, len(d)
        inner = _rem(_rem(sq[o:o + n] * v[o + 4:o + n + 4], p) + p
                     - _rem(v[o:o + n] * sq[o + 2:o + n + 2], p), p)
        c = _rem(inner * v[o + 2:o + n + 2], p)
        d[:] = (c + (c & 1) * p) >> 1
    return out


_Runs = tuple[tuple[int, int, int, int], ...]  # pruned_plan's rounds, or its steps


def _read_run(kept) -> tuple[int, int]:
    """The run [lo, hi) of slots that consecutive entries read, each 4 (g1)
    or 5 (g2) slots from its offset; they overlap, so every slot is read."""
    return kept[0][1], max(off + (4 if is_g1 else 5) for is_g1, off, _ in kept)


@lru_cache(maxsize=256)  # one forge or census op evaluates a few ell many times
def pruned_plan(ell: int) -> tuple[int, tuple[int, int], _Runs, _Runs]:
    """The doubling plan of psi_ell, `_chain(ell)` over `_STEPS`, cut down
    to the outputs the walk reads: k, the run [lo, hi) of the base window
    psi_k .. psi_{k+9} that the first step reads, the rounds that make
    psi_5 .. psi_{k+hi-1}, each the run [r_lo, r_hi) of psi it reads and
    the run [lo, hi) of `_BASE` it makes, and each step's kind
    (b & 1, shift) and the run [lo, hi) of its outputs that the next step
    reads, first to last.

    Walking the steps backwards, the last keeps output 0 only, psi_ell, and
    each earlier one the `_read_run` of the next step's kept entries.  With
    no step (ell <= 5) the base run is [0, 1), psi_ell itself.  The base
    window reads its own outputs, so it is made in rounds: each takes, from
    the first output not yet made, those that read only psi made before it.
    """
    k, chain = _chain(ell)
    run, steps = (0, 1), []
    for b, shift in reversed(chain):
        steps.append((b & 1, shift, *run))
        run = _read_run(_STEPS[b & 1][shift][slice(*run)])
    made, rounds, lo = k + run[1] - 5, [], 0
    while lo < made:
        hi = lo + 1
        while hi < made and _read_run(_BASE[hi:hi + 1])[1] <= 5 + lo:
            hi += 1
        rounds.append((*_read_run(_BASE[lo:hi]), lo, hi))
        lo = hi
    return k, run, tuple(rounds), tuple(reversed(steps))


# The bytes of one row of a chunk of BatchAmbient.eval: 2^13 uint32 or 2^12
# int64 lanes.  A chunk's window then stays in cache through its walk, and
# its 2-D temporaries took no page faults in a fresh process, where rows of
# 2^16 bytes (2^13 int64 lanes) faulted on every step and lost to the
# unchunked walk.
_ROW_BYTES = 1 << 15


class BatchAmbient:
    """Vectorized F_p[y]/(y^2 - w) ambients on lanes of lane_dtype(p).  A, B
    and x are arrays of residues in [0, p), which are cast, not reduced (as
    every caller passes them), and callers must exclude w = 0."""

    def __init__(self, ctx: FpContext, A: np.ndarray, B: np.ndarray, x: np.ndarray):
        self.p = p = ctx.p
        self.A, self.B, self.x = (v.astype(lane_dtype(p), copy=False) for v in (A, B, x))
        x2 = _rem(self.x * self.x, p)
        w = _rem(_rem(x2 * self.x, p) + _rem(self.A * self.x, p) + self.B, p)
        self.w2 = _rem(w * w, p)

    def eval(self, ell: int) -> np.ndarray:
        """Coefficient array of psi_ell across all ambients, walked over
        `pruned_plan(ell)` in chunks of _ROW_BYTES of lanes."""
        plan, chunk, out = pruned_plan(ell), _ROW_BYTES // self.x.itemsize, np.empty_like(self.x)
        for lo in range(0, out.size, chunk):
            out[lo:lo + chunk] = self._walk(plan, slice(lo, lo + chunk))
        return out

    def _walk(self, plan, lanes: slice) -> np.ndarray:
        """psi_ell on the lanes of one chunk: row i of v is psi_i, psi_0 ..
        psi_4 from the seed and psi_5 .. psi_{k+hi-1} by the base rounds,
        each one `_lane_step` of kind (0, 1) over the rows it reads, then
        one `_lane_step` per step, the first over the base run's rows (with
        no step, the base run is psi_ell's row alone)."""
        k, (lo, hi), rounds, steps = plan
        p, x, w2 = self.p, self.x[lanes], self.w2[lanes]
        v = np.empty((max(5, k + hi), x.size), x.dtype)
        v[0], v[1], v[2] = 0, 1, 2
        v[3], v[4] = _psi3_psi4(x, self.A[lanes], self.B[lanes], p)
        for r_lo, r_hi, out_lo, out_hi in rounds:
            v[5 + out_lo:5 + out_hi] = _lane_step(v[r_lo:r_hi], r_lo, 0, 1, out_lo, out_hi, w2, p)
        v = v[k + lo:k + hi]
        for odd, shift, out_lo, out_hi in steps:
            v, lo = _lane_step(v, lo, odd, shift, out_lo, out_hi, w2, p), out_lo
        return v[0]
