import itertools
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import twistforge
from twistforge import curves, divpoly
from twistforge.curves import CurveClass, NonResidueTable, WeierstrassCurve
from twistforge.fp_arith import FpContext, MultCounter, is_prime

import grouplaw
from conftest import get_lab, kronecker_class_number
from grouplaw import NotANonResidue, SingularCurve


def test_nonresidue_table_properties():
    for p in (5, 7, 11, 13, 17, 101, 499, 1009):
        ctx = FpContext(p)
        nr = NonResidueTable.for_prime(ctx)
        squares = {x * x % p for x in range(1, p)}
        cubes = {pow(x, 3, p) for x in range(1, p)}
        fourths = {pow(x, 4, p) for x in range(1, p)}
        sixths = {pow(x, 6, p) for x in range(1, p)}
        assert nr.alpha2 not in squares
        assert nr.alpha2 == min(a for a in range(2, p) if a not in squares)
        if p % 4 == 1:
            assert nr.alpha2 not in fourths
        if p % 3 == 1:
            assert nr.alpha6 not in squares and nr.alpha6 not in cubes
            assert nr.alpha6 not in sixths


def test_twist_parameters_are_the_smallest_nonsquare_and_noncube():
    """alpha_2 is the smallest nonsquare, and alpha_6 the smallest nonsquare
    noncube when p = 1 mod 3, at every prime below 20000; the square and
    cube sets are brute-forced as boolean tables."""
    for p in range(5, 20000):
        if not is_prime(p):
            continue
        x = np.arange(p, dtype=np.int64)
        square = np.zeros(p, dtype=bool)
        square[x * x % p] = True
        cube = np.zeros(p, dtype=bool)
        cube[x * x % p * x % p] = True
        nr = NonResidueTable.for_prime(FpContext(p))
        assert nr.alpha2 == np.flatnonzero(~square)[0], p
        alpha6 = np.flatnonzero(~square & ~cube)[0] if p % 3 == 1 else nr.alpha2
        assert nr.alpha6 == alpha6, p


@pytest.mark.parametrize("p", [5, 7, 13, 101, 65521, 65537])
def test_legendre_table_matches_euler_criterion(p):
    """legendre_table(p)[v] is the Legendre symbol of v, 0 at v = 0, for
    every residue, on both sides of 2^16 (uint32 and int64 batch lanes)."""
    ctx = FpContext(p)
    tbl = curves.legendre_table(p)
    assert tbl.dtype == np.int8 and tbl.shape == (p,)
    assert tbl.tolist() == [ctx.euler_criterion(v, MultCounter()) for v in range(p)]


def test_class_at_is_enumerate_classes_entry():
    for p in range(5, 3000):
        if not is_prime(p):
            continue
        ctx = FpContext(p)
        classes = curves.enumerate_classes(ctx)
        assert curves.class_count(ctx) == len(classes)
        assert [curves.class_at(ctx, i) for i in range(len(classes))] == classes, p
        with pytest.raises(IndexError):
            curves.class_at(ctx, len(classes))
    # at the int64 edge, where audit draws through class_at, against running
    # sums of b_range: the first 12 indices, the rows around j = 1728 and
    # the last index; p = 7 and 1 mod 12 give 2 and 4 rows at j = 1728
    for p, wide in ((2**31 - 1, (6, 2)), (2147483629, (6, 4))):
        ctx = FpContext(p)
        widths = [curves.b_range(ctx, j) for j in range(1730)]
        assert (widths[0], widths[1728]) == wide, p
        starts = [0, *itertools.accumulate(widths)]
        for j in (0, 1, 2, 3, 1727, 1728, 1729):
            for b in range(widths[j]):
                assert curves.class_at(ctx, starts[j] + b) == CurveClass(j, b), (p, j, b)
        last = curves.class_count(ctx) - 1
        assert last == starts[1730] + 2 * (p - 1730) - 1, p
        assert curves.class_at(ctx, last) == CurveClass(p - 1, 1), p
        with pytest.raises(IndexError):
            curves.class_at(ctx, last + 1)


def test_class_counts():
    # 2p generic, +2 when p = 1 mod 4 (extra twists at j=1728),
    # +4 when p = 1 mod 3 (extra twists at j=0)
    for p, expected in ((11, 22), (13, 32), (101, 204), (499, 1002), (1009, 2024)):
        ctx = FpContext(p)
        classes = curves.enumerate_classes(ctx)
        assert len(classes) == curves.class_count(ctx) == expected
        assert len(set(classes)) == len(classes)


def test_class_pairs_match_scalar_pairs():
    """class_pairs is get_weierstrass_pair at every class, in the order of
    the nested (j, b-range) loop of enumerate_classes; p = 109 = 1 mod 12
    has 6 classes at j = 0 and 4 at j = 1728."""
    for p in (5, 7, 11, 13, 101, 109, 499, 1009):
        ctx = FpContext(p)
        nr = NonResidueTable.for_prime(ctx)
        A, B = curves.class_pairs(ctx)
        assert all(x.dtype == np.int64 for x in (A, B))
        want = [curves.get_weierstrass_pair(ctx, c, nr) for c in curves.enumerate_classes(ctx)]
        assert list(zip(A.tolist(), B.tolist())) == [(E.A, E.B) for E in want], p
    j = Counter(c.j for c in curves.enumerate_classes(FpContext(109)))
    assert j[0] == 6 and j[1728 % 109] == 4


@pytest.mark.parametrize("p", [65537, 65557, 100003])
def test_class_pairs_match_scalar_pairs_on_int64_lanes(p):
    """Above 2^16 class_pairs raises to powers on int64 lanes: it is still
    get_weierstrass_pair at every class at j = 0 and j = 1728 and at a
    seeded sample of 2000 other classes; p = 65557 = 1 mod 12 has 6 classes
    at j = 0 and 4 at j = 1728."""
    ctx = FpContext(p)
    nr = NonResidueTable.for_prime(ctx)
    assert divpoly.lane_dtype(p) is np.int64
    A, B = curves.class_pairs(ctx)
    # the classes at j = 0 and j = 1728 lie among the first 6 + 2 * 1727 + 4
    special = [i for i in range(3500) if curves.class_at(ctx, i).j in (0, 1728)]
    others = np.setdiff1d(np.arange(A.size), special)
    sample = np.random.default_rng(p).choice(others, 2000, replace=False)
    assert len(special) == curves.b_range(ctx, 0) + curves.b_range(ctx, 1728 % p), p
    for i in [*special, *sample.tolist()]:
        E = curves.get_weierstrass_pair(ctx, curves.class_at(ctx, i), nr)
        assert (int(A[i]), int(B[i])) == (E.A, E.B), (p, i)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for VmHWM")
def test_class_pairs_peak_memory_at_p_1000003():
    """class_pairs returns 31 MiB of arrays (A and B) at p = 1000003 and
    peaks at ≈113 MiB; returning j and b as well, and gathering the pair
    through j, peaks at ≈136 MiB."""
    script = (
        "import sys\n"
        "from twistforge import curves\n"
        "from twistforge.fp_arith import FpContext\n"
        "A, B = curves.class_pairs(FpContext(1000003))\n"
        "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM')]\n"
        "print(A.size, int(hwm[0].split()[1]), file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(twistforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    size, hwm_kib = map(int, proc.stderr.split())
    assert size == curves.class_count(FpContext(1000003))
    assert hwm_kib < 125 * 1024, hwm_kib


def test_pair_worked_example_p11():
    ctx = FpContext(11)
    nr = NonResidueTable.for_prime(ctx)
    assert nr.alpha2 == 2
    E = curves.get_weierstrass_pair(ctx, CurveClass(2, 0), nr)
    assert (E.A, E.B) == (5, 7)


def test_pair_rejects_illegal_b():
    ctx = FpContext(11)
    nr = NonResidueTable.for_prime(ctx)
    with pytest.raises(ValueError, match="out of range for j="):
        curves.get_weierstrass_pair(ctx, CurveClass(2, 2), nr)
    with pytest.raises(ValueError, match="out of range for j="):
        curves.get_weierstrass_pair(ctx, CurveClass(0, -1), nr)


def test_class_map_is_bijective():
    """Distinct classes give distinct curves, j_invariant inverts the map,
    and the special j values get their full twist orbit."""
    for p in (11, 13, 101):
        lab = get_lab(p)
        seen = set()
        for c, E in zip(lab.classes, lab.curves):
            assert (E.A, E.B) not in seen
            seen.add((E.A, E.B))
            assert grouplaw.j_invariant(lab.ctx, E) == c.j % p


def test_mass_formula_against_all_AB():
    """Every nonsingular (A, B) is isomorphic to exactly one class curve;
    counting with automorphism weights, the (A, B) plane is covered."""
    p = 13
    lab = get_lab(p)
    ctx = lab.ctx
    # Each class (A0, B0) covers the (A, B) orbit {(u^4 A0, u^6 B0)}.
    covered = 0
    for E in lab.curves:
        orbit = {(pow(u, 4, p) * E.A % p, pow(u, 6, p) * E.B % p)
                 for u in range(1, p)}
        covered += len(orbit)
    total = sum(1 for A in range(p) for B in range(p)
                if (4 * A ** 3 + 27 * B * B) % p != 0)
    assert covered == total


def test_count_points_example():
    ctx = FpContext(5)
    assert curves.count_points(ctx, WeierstrassCurve(1, 1)) == 9


def test_count_points_matches_affine_enumeration():
    lab = get_lab(101)
    for E in lab.curves[:12]:
        pts = grouplaw.affine_points(lab.ctx, E)
        assert curves.count_points(lab.ctx, E) == len(pts) + 1
        for P in pts:
            assert grouplaw.is_on_curve(lab.ctx, P, E)


def test_count_points_batch_matches_scalar(lab101):
    singles = [curves.count_points(lab101.ctx, E) for E in lab101.curves]
    assert list(lab101.cards) == singles


def test_count_points_batch_chunk_boundaries(lab101, monkeypatch):
    singles = [curves.count_points(lab101.ctx, E) for E in lab101.curves]
    for cols in (1, 3, 7, 1000):  # 204 classes: remainders 0, 0, 1, one chunk
        monkeypatch.setattr(curves, "COUNT_CHUNK_CELLS", cols * lab101.p)
        got = curves.count_points_batch(lab101.ctx, lab101.A, lab101.B)
        assert list(got) == singles, cols


def test_curve_table_cardinalities_match_direct_counts():
    """The table counts b = 0 and fills (j, 1) off j = 0, 1728 by the twist
    relation; every row must still equal its own count."""
    for p in (5, 7, 11, 13, 101, 499):
        ctx = FpContext(p)
        rows = curves.build_curve_table(ctx, with_structure=False)
        direct = [curves.count_points(ctx, WeierstrassCurve(r.A, r.B)) for r in rows]
        assert [r.cardinality for r in rows] == direct, p


@pytest.mark.parametrize("p", [*filter(is_prime, range(5, 44)), 101, 103, 307, 311, 313,
                               1009, 3001])
def test_census_is_the_kronecker_class_numbers(p):
    """The table has H(t^2 - 4p) classes of trace t at every t of the Hasse
    band, t = 0 and non-fundamental discriminants included, and none
    outside it: a check of the (j, b) map, the counts and the twist fill
    that shares nothing with the character sum."""
    rows = curves.build_curve_table(FpContext(p), with_structure=False)
    traces = Counter(p + 1 - r.cardinality for r in rows)
    band = range(-math.isqrt(4 * p), math.isqrt(4 * p) + 1)
    assert set(traces) <= set(band), p
    for t in band:
        assert traces[t] == kronecker_class_number(t * t - 4 * p), (p, t)


def test_hasse_band(lab101):
    p = lab101.p
    for n in lab101.cards:
        assert (int(n) - p - 1) ** 2 <= 4 * p


def test_twist_sum(lab101):
    ctx, nr = lab101.ctx, lab101.nr
    for E, n in zip(lab101.curves, lab101.cards):
        T = grouplaw.quadratic_twist(ctx, E, nr.alpha2)
        assert curves.count_points(ctx, T) + int(n) == 2 * lab101.p + 2
    with pytest.raises(NotANonResidue):
        grouplaw.quadratic_twist(ctx, lab101.curves[0], 1)


def test_point_arithmetic_group_laws():
    ctx = FpContext(5)
    E = WeierstrassCurve(1, 1)  # 9 points
    pts = [None] + grouplaw.affine_points(ctx, E)
    assert len(pts) == 9
    for P in pts:
        assert grouplaw.point_add(ctx, P, None, E) == P
        assert grouplaw.point_add(ctx, P, grouplaw.point_neg(ctx, P), E) is None
        assert grouplaw.scalar_mul(ctx, P, 9, E) is None  # Lagrange
        assert grouplaw.scalar_mul(ctx, P, 0, E) is None
    for P in pts:
        for Q in pts:
            assert grouplaw.point_add(ctx, P, Q, E) == grouplaw.point_add(ctx, Q, P, E)
    # associativity spot check
    P, Q, R = pts[1], pts[3], pts[5]
    assert grouplaw.point_add(ctx, grouplaw.point_add(ctx, P, Q, E), R, E) == \
        grouplaw.point_add(ctx, P, grouplaw.point_add(ctx, Q, R, E), E)


def _group_law_exponent(ctx, E, n):
    """Exponent of E(F_p) from the group law: the lcm of the point orders."""
    factors = curves._factorize(n)
    exponent = 1
    for P in grouplaw.affine_points(ctx, E):
        exponent = math.lcm(exponent, grouplaw.point_order(ctx, P, E, n, factors))
        if exponent == n:
            break
    return exponent


def test_point_order_and_group_structure():
    """The psi_l group structure of every class and its alpha_2-twist has
    the exponent mk that the group law gives."""
    for p in (101, 311):
        lab = get_lab(p)
        ctx = lab.ctx
        for E, n in zip(lab.curves, lab.cards):
            T = grouplaw.quadratic_twist(ctx, E, lab.nr.alpha2)
            for C, card in ((E, int(n)), (T, 2 * p + 2 - int(n))):
                m, k = curves.group_structure(ctx, C, card)
                assert m * m * k == card and (p - 1) % m == 0
                assert m * k == _group_law_exponent(ctx, C, card), (p, C)
    lab = get_lab(101)
    # point orders on a few curves: [o]P = O and no proper divisor kills P
    for E, n in list(zip(lab.curves, lab.cards))[:15]:
        n = int(n)
        for P in grouplaw.affine_points(lab.ctx, E)[:10]:
            o = grouplaw.point_order(lab.ctx, P, E, n)
            assert n % o == 0
            assert grouplaw.scalar_mul(lab.ctx, P, o, E) is None
            for q in curves._factorize(o):
                assert grouplaw.scalar_mul(lab.ctx, P, o // q, E) is not None


def test_modules_import_first_in_fresh_interpreter():
    """curves imports divpoly at run time and divpoly imports curves only
    for type checking, so either module can be the first one loaded."""
    src = os.path.dirname(os.path.dirname(twistforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("twistforge.curves", "twistforge.divpoly"):
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)


def test_j_invariant_rejects_singular():
    with pytest.raises(SingularCurve):
        grouplaw.j_invariant(FpContext(5), WeierstrassCurve(0, 0))


def test_curve_table_contents():
    ctx = FpContext(11)
    for r in curves.build_curve_table(ctx):
        E = WeierstrassCurve(r.A, r.B)
        assert curves.count_points(ctx, E) == r.cardinality
        assert r.m * r.m * r.k == r.cardinality
