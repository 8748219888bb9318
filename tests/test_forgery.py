
import math
import random

import numpy as np
import pytest

from twistforge import curves, forgery, scheme
from twistforge.curves import CurveClass, WeierstrassCurve
from twistforge.forgery import (
    F, G, InvalidSerial, OracleConfig, SerialNumber, default_tau,
)
from twistforge.fp_arith import FpContext, MultCounter, is_prime

from conftest import g_zero_fraction


def test_serial_validation():
    SerialNumber(103, 101)
    SerialNumber(82, 101)   # t = -20, t^2 = 400 <= 404
    SerialNumber(122, 101)  # t = +20
    with pytest.raises(InvalidSerial):
        SerialNumber(102, 101)  # sigma = p + 1 excluded
    with pytest.raises(InvalidSerial):
        SerialNumber(81, 101)   # t = -21 outside the band
    with pytest.raises(InvalidSerial):
        SerialNumber(123, 101)
    assert SerialNumber(103, 101).twist_sigma == 101


def test_default_tau():
    assert default_tau(101) == 21
    assert default_tau(1009) == 30
    assert default_tau(2**20 + 7) == 63


def test_oracle_config():
    with pytest.raises(ValueError):
        OracleConfig(0)
    with pytest.raises(ValueError):
        OracleConfig(3, mode="xor")
    assert OracleConfig.for_prime(101).tau == 21
    assert OracleConfig.for_prime(101, tau=5).tau == 5


def test_G_vanishes_on_target_everywhere(lab101):
    """On a target curve, sigma annihilates every point above every x:
    residue x via the curve, nonresidue x via the twist."""
    ctx = lab101.ctx
    sigma = 103
    s = SerialNumber(sigma, lab101.p)
    targets = [E for E, n in zip(lab101.curves, lab101.cards) if n == sigma]
    assert targets
    for E in targets:
        for x in range(lab101.p):
            assert G(ctx, E, x, s, MultCounter()) == 0


def test_G_two_torsion_short_circuit():
    # y^2 = x^3 - x over F_101: full two-torsion, cardinality is even
    ctx = FpContext(101)
    E = WeierstrassCurve(100, 0)
    n = curves.count_points(ctx, E)
    assert n % 2 == 0
    s_even = SerialNumber(n, 101) if n != 102 else SerialNumber(104, 101)
    assert s_even.sigma % 2 == 0
    assert G(ctx, E, 1, s_even, MultCounter()) == 0  # even sigma kills order 2
    s_odd = SerialNumber(103, 101)
    assert G(ctx, E, 1, s_odd, MultCounter()) == 1


def test_F_tau1_reduces_to_G(lab101):
    ctx = lab101.ctx
    s = SerialNumber(103, lab101.p)
    cfg = OracleConfig(1, "strict_or")
    for E in lab101.curves[:30]:
        g = G(ctx, E, 0, s, MultCounter())
        assert F(ctx, E, s, cfg, MultCounter()) == (0 if g == 0 else 1)


def test_oracle_predicate_matches_cardinality(lab101):
    """strict_or marks exactly the classes whose curve has sigma points."""
    s = SerialNumber(103, lab101.p)
    cfg = OracleConfig.for_prime(lab101.p)
    for c, E, n in zip(lab101.classes, lab101.curves, lab101.cards):
        bit = forgery.oracle_predicate(lab101.ctx, c, s, cfg, lab101.nr)
        assert bit == (1 if n == 103 else 0), c


def test_batch_marked_matches_scalar(lab101):
    """In both modes: from x = 0 against oracle_predicate, and from a start
    x0 per class (some near p, so x0 + tau wraps) against the scalar G over
    x0, ..., x0 + tau - 1."""
    cfgs = [OracleConfig.for_prime(lab101.p, mode=m) for m in forgery.MODES]
    starts = np.random.default_rng(5).integers(0, lab101.p, len(lab101.A))
    starts[::4] = lab101.p - 1 - starts[::4] % 8
    for sigma in (93, 103, 111, 120):
        s = SerialNumber(sigma, lab101.p)
        for cfg in cfgs:
            marked = forgery.batch_marked(lab101.ctx, lab101.A, lab101.B, s, cfg)
            for c, hit in zip(lab101.classes, marked):
                bit = forgery.oracle_predicate(lab101.ctx, c, s, cfg, lab101.nr)
                assert bit == int(hit), (sigma, cfg.mode, c)
            marked = forgery.batch_marked(lab101.ctx, lab101.A, lab101.B, s, cfg, starts)
            for c, E, x0, hit in zip(lab101.classes, lab101.curves, starts.tolist(), marked):
                g = [G(lab101.ctx, E, x0 + x, s, MultCounter()) for x in range(cfg.tau)]
                zero = not any(g) if cfg.mode == "strict_or" else sum(g) % lab101.p == 0
                assert zero == hit, (sigma, cfg.mode, c, x0)


def test_batch_marked_matches_per_x_sweep(lab1009):
    """The survivor rounds keep exactly the classes a one-x-at-a-time
    strict_or sweep keeps, from x = 0 and from a start per class (some near
    p, so x0 + tau wraps).  At tau = 3 default_tau(p) = 90 the rounds of
    sigma = 1032, 1044 and 1056 split tau over two or three batch_G calls.
    The survivors of the first abscissa, swept again as a batch of their
    own, leave no lane to spare, so their rounds start at one abscissa."""
    lab = lab1009
    band = lab.valid_sigmas()
    sigmas = band[::len(band) // 10][:10]
    starts = np.random.default_rng(8).integers(0, lab.p, len(lab.A))
    starts[::4] = lab.p - 1 - starts[::4] % 8
    taus = (1, 2, 3, 7, 8, default_tau(lab.p), 3 * default_tau(lab.p))
    for x0 in (0, starts):
        x0s = np.broadcast_to(x0, lab.A.shape)
        for sigma in sigmas:
            s = SerialNumber(sigma, lab.p)
            alive = np.arange(len(lab.A))
            for x in range(max(taus)):  # the survivors after x are the answer at tau = x + 1
                alive = alive[forgery.batch_G(lab.ctx, lab.A[alive], lab.B[alive],
                                              x0s[alive] + x, s) == 0]
                if x == 0:
                    first = alive
                if x + 1 not in taus:
                    continue
                want = np.zeros(len(lab.A), dtype=bool)
                want[alive] = True
                cfg = OracleConfig(x + 1)
                got = forgery.batch_marked(lab.ctx, lab.A, lab.B, s, cfg, x0)
                assert (got == want).all(), (x + 1, sigma)
                if x < 8:  # one batch_G per abscissa while targets fill half the lanes
                    got = forgery.batch_marked(lab.ctx, lab.A[first], lab.B[first], s, cfg,
                                               x0s[first])
                    assert (got == want[first]).all(), (x + 1, sigma, "x = 0 survivors")


@pytest.mark.parametrize("p", [101, 311, 1009])
def test_batch_marked_rounds_fit_the_first_sweep(monkeypatch, p):
    """No strict_or round sweeps more lanes than the first sweep over every
    class, at every sigma of the band and tau in {default, 3 default}, and
    some of those cases take more than one survivor round."""
    ctx = FpContext(p)
    _, _, A, B = curves.class_pairs(ctx)
    lanes = []
    batch_G = forgery.batch_G
    monkeypatch.setattr(forgery, "batch_G",
                        lambda ctx, A, *args: lanes.append(len(A)) or batch_G(ctx, A, *args))
    t = math.isqrt(4 * p)
    split = 0
    for sigma in range(p + 1 - t, p + 2 + t):
        if sigma == p + 1:
            continue
        for tau in (default_tau(p), 3 * default_tau(p)):
            lanes.clear()
            forgery.batch_marked(ctx, A, B, SerialNumber(sigma, p), OracleConfig(tau))
            assert lanes[0] == len(A) >= max(lanes), (sigma, tau, lanes)
            split += len(lanes) > 2
    assert split > 0


def test_batch_G_matches_scalar(lab101):
    ctx = lab101.ctx
    tau = OracleConfig.for_prime(lab101.p).tau
    for sigma in (93, 103, 111, 120):
        s = SerialNumber(sigma, lab101.p)
        for x in range(tau):
            got = forgery.batch_G(ctx, lab101.A, lab101.B, x, s)
            want = [G(ctx, E, x, s, MultCounter()) for E in lab101.curves]
            assert got.tolist() == want, (sigma, x)
    # one abscissa per curve
    s = SerialNumber(103, lab101.p)
    xs = np.arange(len(lab101.curves), dtype=np.int64) % lab101.p
    got = forgery.batch_G(ctx, lab101.A, lab101.B, xs, s)
    want = [G(ctx, E, int(x), s, MultCounter()) for E, x in zip(lab101.curves, xs)]
    assert got.tolist() == want


def test_paper_sum_cancellation_witnesses(lab101):
    """paper_sum admits field-sum cancellation false positives that
    strict_or does not; at p=101, sigma=103 the two witnesses are known."""
    s = SerialNumber(103, lab101.p)
    strict = forgery.batch_marked(lab101.ctx, lab101.A, lab101.B, s,
                                  OracleConfig.for_prime(101, mode="strict_or"))
    summed = forgery.batch_marked(lab101.ctx, lab101.A, lab101.B, s,
                                  OracleConfig.for_prime(101, mode="paper_sum"))
    diff = {(lab101.classes[i].j, lab101.classes[i].b)
            for i in np.nonzero(strict != summed)[0]}
    assert diff == {(31, 0), (55, 0)}
    # strict_or is the exact one: it matches true cardinalities
    assert (strict == lab101.marked_truth(103)).all()


def test_g_zero_fraction_bounds(lab101):
    s = SerialNumber(103, lab101.p)
    bound = forgery.per_x_zero_bound(lab101.p)
    assert 0.75 < bound < 0.81
    for E, n in list(zip(lab101.curves, lab101.cards))[:40]:
        frac = g_zero_fraction(lab101.ctx, E, s)
        zeros = sum(G(lab101.ctx, E, x, s, MultCounter()) == 0 for x in range(lab101.p))
        assert frac == zeros / lab101.p
        if n == 103:
            assert frac == 1.0
        else:
            assert frac <= bound


def test_false_positive_experiment_exhaustive(lab101):
    s = SerialNumber(103, lab101.p)
    rows = forgery.false_positive_experiment(lab101.ctx, s, [0, 1, 2, 4, 21],
                                             trials=0)
    assert rows[0].tau == 0 and rows[0].rate == 1.0
    rates = [r.rate for r in rows]
    assert rates == sorted(rates, reverse=True)  # monotone in tau
    assert rows[-1].rate == 0.0
    for r in rows[1:]:
        assert r.bound == pytest.approx(forgery.per_x_zero_bound(101) ** r.tau)
        assert r.total_curves == len(lab101.classes) - int((lab101.cards == 103).sum())


def test_false_positive_experiment_sampled(lab101):
    s = SerialNumber(103, lab101.p)
    a = forgery.false_positive_experiment(lab101.ctx, s, [2], trials=50, seed=3)
    b = forgery.false_positive_experiment(lab101.ctx, s, [2], trials=50, seed=3)
    assert a[0].rate == b[0].rate  # seeded determinism
    assert a[0].total_curves == 50


def _reference_fp_rows(lab, s, taus, trials, seed, mode):
    """false_positive_experiment by the table filter: the non-targets are
    the classes whose exact count is not sigma, and each sampled start x0
    runs the scalar G over x0, ..., x0 + tau - 1."""
    nontargets = [E for E, n in zip(lab.curves, lab.cards) if n != s.sigma]
    rng = random.Random(seed)
    rows = []
    for tau in taus:
        if tau == 0:
            rows.append((0, repr(1.0), repr(1.0), len(nontargets), len(nontargets)))
            continue
        if trials <= 0:
            sample = [(E, 0) for E in nontargets]
        else:
            sample = [(nontargets[rng.randrange(len(nontargets))], rng.randrange(lab.p))
                      for _ in range(trials)]
        zeros = 0
        for E, x0 in sample:
            if mode == "strict_or":
                zeros += all(G(lab.ctx, E, x0 + x, s, MultCounter()) == 0 for x in range(tau))
            else:
                zeros += sum(G(lab.ctx, E, x0 + x, s, MultCounter()) for x in range(tau)) % lab.p == 0
        rows.append((tau, repr(zeros / len(sample)),
                     repr(forgery.per_x_zero_bound(lab.p) ** tau), zeros, len(sample)))
    return rows


@pytest.mark.parametrize("mode", forgery.MODES)
@pytest.mark.parametrize("trials", [0, 200])
def test_false_positive_experiment_matches_reference(lab101, mode, trials):
    """Row for row, Python types included (repr), against the table filter
    and scalar G loop; tau = 5 and 21 end mid-round."""
    taus = [0, 1, 2, 5, 21]
    for sigma in (93, 103):
        s = SerialNumber(sigma, lab101.p)
        rows = forgery.false_positive_experiment(lab101.ctx, s, taus, trials, seed=4, mode=mode)
        got = [(r.tau, repr(r.rate), repr(r.bound), r.zero_curves, r.total_curves)
               for r in rows]
        want = _reference_fp_rows(lab101, s, taus, trials, 4, mode)
        assert repr(got) == repr(want), (sigma, mode, trials)


# (p, sigma, j, b) of every class that passes a serial it does not have,
# strict_or at the default tau, over all primes below 230: the class's group
# exponent divides sigma and its twist's divides 2p + 2 - sigma, so every
# abscissa passes
FALSE_PASSES = {
    (5, 4, 3, 2), (5, 8, 3, 0),
    (7, 4, 6, 1), (7, 6, 0, 0), (7, 10, 0, 3), (7, 12, 6, 1),
    (11, 6, 1, 1), (11, 8, 2, 0), (11, 16, 2, 1), (11, 18, 1, 1),
    (17, 12, 10, 1), (17, 24, 10, 0),
    (23, 16, 6, 1), (23, 32, 6, 0),
    (29, 20, 17, 2), (29, 40, 17, 0),
}


def test_false_passes_below_31():
    """Each pinned class passes its sigma in check_serial and in the sweep,
    and has another count."""
    for p, sigma, j, b in sorted(FALSE_PASSES):
        ctx = FpContext(p)
        nr = curves.NonResidueTable.for_prime(ctx)
        cfg = OracleConfig.for_prime(p)
        s = SerialNumber(sigma, p)
        E = curves.get_weierstrass_pair(ctx, CurveClass(j, b), nr)
        assert curves.count_points(ctx, E) != sigma, (p, sigma, j, b)
        assert scheme.check_serial(ctx, CurveClass(j, b), s, cfg) == 1, (p, sigma, j, b)
        marked = forgery.batch_marked(ctx, np.array([E.A]), np.array([E.B]), s, cfg)
        assert marked.tolist() == [True], (p, sigma, j, b)


def test_no_false_pass_from_31_to_229():
    """The strict_or sweep at the default tau marks exactly the classes with
    sigma points, at every sigma of the band and every prime from 31 to 229,
    where Mestre's theorem does not yet apply; below 31 it also marks the
    pinned classes, and nothing else."""
    found = set()
    for p in filter(is_prime, range(5, 230)):
        ctx = FpContext(p)
        j, b, A, B = curves.class_pairs(ctx)
        j, b = j.tolist(), b.tolist()
        cards = curves.count_points_batch(ctx, A, B)
        cfg = OracleConfig.for_prime(p)
        r = math.isqrt(4 * p)
        for sigma in range(p + 1 - r, p + 2 + r):
            if sigma == p + 1:
                continue
            marked = forgery.batch_marked(ctx, A, B, SerialNumber(sigma, p), cfg)
            assert marked[cards == sigma].all(), (p, sigma)
            found |= {(p, sigma, j[i], b[i])
                      for i in np.flatnonzero(marked & (cards != sigma)).tolist()}
    assert found == FALSE_PASSES
