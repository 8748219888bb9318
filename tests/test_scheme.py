import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import twistforge
from twistforge import classnum, curves, forgery, scheme
from twistforge.fp_arith import FpContext, InvalidInput, is_prime
from twistforge.forgery import OracleConfig, SerialNumber


def test_mint_is_seed_deterministic(lab101):
    a = scheme.mint(lab101.ctx, seed=0)
    b = scheme.mint(lab101.ctx, seed=0)
    assert a == b
    c = scheme.mint(lab101.ctx, seed=1)
    assert isinstance(c, scheme.Banknote)


def test_mint_without_acceptable_sigma_raises_invalid_input():
    # no sigma over F_7 has a square-free Frobenius discriminant above 3p
    with pytest.raises(InvalidInput, match="no acceptable sigma over F_7"):
        scheme.mint(FpContext(7), 0)


def test_mint_serial_is_accepted(lab101):
    for seed in range(25):
        note = scheme.mint(lab101.ctx, seed)
        assert note.serial.p == 101
        fr = classnum.frobenius_discriminant(101, note.serial.sigma)
        assert fr.accepted
        assert note.serial.sigma != 102


def test_mint_support_is_the_full_fiber(lab101):
    note = scheme.mint(lab101.ctx, seed=0)
    expect = {(c.j, c.b) for c, n in zip(lab101.classes, lab101.cards)
              if n == note.serial.sigma}
    assert {(c.j, c.b) for c in note.support} == expect


def test_mint_verify_duality(lab101):
    """Every support class verifies, every other class fails: the verifier
    and the forgery oracle are the same predicate."""
    note = scheme.mint(lab101.ctx, seed=3)
    cfg = OracleConfig.for_prime(101)
    support = set(note.support)
    marked = forgery.batch_marked(lab101.ctx, lab101.A, lab101.B, note.serial, cfg)
    for c, hit in zip(lab101.classes, marked):
        assert int(hit) == (1 if c in support else 0)
    # scalar spot checks on both sides of the boundary
    inside = note.support[0]
    outside = next(c for c in lab101.classes if c not in support)
    assert scheme.check_serial(lab101.ctx, inside, note.serial, cfg) == 1
    assert scheme.check_serial(lab101.ctx, outside, note.serial, cfg) == 0


def _reference_mint(lab, seed):
    """The draw loop over every class's exact count: the support is the
    classes whose count is the accepted sigma."""
    rng = random.Random(seed)
    while True:
        sigma = int(lab.cards[rng.randrange(len(lab.classes))])
        if sigma != lab.p + 1 and classnum.frobenius_discriminant(lab.p, sigma).accepted:
            support = tuple(c for c, n in zip(lab.classes, lab.cards) if n == sigma)
            return scheme.Banknote(SerialNumber(sigma, lab.p), support)


def test_mint_matches_reference_draw_loop(lab101, lab499, lab1009):
    """Counting only the drawn classes and taking the support from the psi
    sweep gives the same banknotes as reading both from every class's count."""
    for lab in (lab101, lab499, lab1009):
        for seed in range(30):
            assert scheme.mint(lab.ctx, seed) == _reference_mint(lab, seed), (lab.p, seed)


def test_mint_confirms_marked_support_by_count(lab101, monkeypatch):
    """A sweep that marks every class still yields exactly the sigma fiber."""
    monkeypatch.setattr(forgery, "batch_marked",
                        lambda ctx, A, *_: np.ones(len(A), dtype=bool))
    note = scheme.mint(lab101.ctx, seed=0)
    expect = [c for c, n in zip(lab101.classes, lab101.cards)
              if n == note.serial.sigma]
    assert list(note.support) == expect


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for VmHWM")
def test_mint_peak_memory_is_linear_in_p():
    """A p x 2p count matrix would take about 480 MB at p = 3001."""
    script = (
        "import sys\n"
        "from twistforge import cli\n"
        "rc = cli.dispatch(['mint', '--p', '3001', '--seed', '0'])\n"
        "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM')]\n"
        "print(rc, int(hwm[0].split()[1]), file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(twistforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    rc, hwm_kib = map(int, proc.stderr.split())
    assert rc == 0
    assert hwm_kib < 150 * 1024, hwm_kib


def test_forge_and_mint_build_no_class_list(lab1009, monkeypatch):
    """forge and mint work on the pair arrays: no class enumeration, and
    the only scalar pair is the forged sample's re-verification."""
    pairs = []
    real_pair = curves.get_weierstrass_pair

    def enumerate_classes(ctx):
        raise AssertionError("enumerate_classes called")

    def get_weierstrass_pair(*args, **kwargs):
        pairs.append(args[1])
        return real_pair(*args, **kwargs)

    monkeypatch.setattr(curves, "enumerate_classes", enumerate_classes)
    monkeypatch.setattr(curves, "get_weierstrass_pair", get_weierstrass_pair)
    res = scheme.forge(lab1009.ctx, SerialNumber(1012, 1009), OracleConfig.for_prime(1009))
    assert pairs == [res.sample]
    pairs.clear()
    scheme.mint(lab1009.ctx, seed=0)
    assert pairs == []


def test_forge_end_to_end(lab101):
    cfg = OracleConfig.for_prime(101)
    s = SerialNumber(103, 101)
    res = scheme.forge(lab101.ctx, s, cfg, seed=0)
    assert res.success_probability > 0.5
    assert res.sample_passes
    assert res.banknote.serial == s
    truth = {(c.j, c.b) for c, n in zip(lab101.classes, lab101.cards) if n == 103}
    assert {(c.j, c.b) for c in res.banknote.support} == truth
    assert res.oracle_queries >= 1


def test_every_hasse_trace_is_attained():
    """Every trace 0 < |t| <= 2 sqrt(p) is that of some curve over F_p
    (Deuring), so every valid sigma marks a class and scheme.forge never
    meets grover's "marks no class" error; tests/test_grover.py drives that
    error directly."""
    for p in filter(is_prime, range(5, 600)):
        attained = {r.cardinality for r in
                    curves.build_curve_table(FpContext(p), with_structure=False)}
        r = math.isqrt(4 * p)
        assert {p + 1 - t for t in range(-r, r + 1) if t} <= attained, p


def _two_squares(p: int, k: int) -> tuple[int, int]:
    """(a, b) with p = a^2 + k b^2, by a loop over b."""
    for b in range(1, math.isqrt(p // k) + 1):
        a = math.isqrt(p - k * b * b)
        if a * a + k * b * b == p:
            return a, b
    raise ValueError(f"{p} is not a^2 + {k} b^2")


@pytest.mark.parametrize("p", [2**31 - 1, 2147483629, 2147483587])
def test_cm_traces_pass_check_serial_at_int64_edge(p):
    """The j = 0 classes (p = a^2 + 3b^2) have the six traces
    {+-2a, +-(a+3b), +-(a-3b)}, and at p = 1 mod 4 the j = 1728 classes
    (p = a^2 + b^2) have {+-2a, +-2b} (Ireland & Rosen, ch. 18): each class
    passes check_serial for exactly one sigma = p + 1 - t, and the passes
    are a permutation of the candidates."""
    ctx = FpContext(p)
    cfg = OracleConfig.for_prime(p)
    a, b = _two_squares(p, 3)
    families = [(0, (2 * a, a + 3 * b, a - 3 * b))]
    if p % 4 == 1:
        a, b = _two_squares(p, 1)
        families.append((1728, (2 * a, 2 * b)))
    for j, traces in families:
        sigmas = sorted(p + 1 - s * t for t in traces for s in (1, -1))
        assert len(set(sigmas)) == curves.b_range(ctx, j) == len(sigmas)
        passes = []
        for k in range(len(sigmas)):
            c = curves.CurveClass(j, k)
            hits = [sigma for sigma in sigmas
                    if scheme.check_serial(ctx, c, SerialNumber(sigma, p), cfg)]
            assert len(hits) == 1, (p, c, hits)
            passes += hits
        assert sorted(passes) == sigmas, (p, j)
