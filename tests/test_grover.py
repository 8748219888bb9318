import math

import numpy as np
import pytest

from twistforge import classnum, curves, forgery, grover
from twistforge.forgery import OracleConfig, SerialNumber
from twistforge.fp_arith import FpContext

from conftest import grover_success


def test_init_uniform():
    v = grover.init_uniform(16)
    assert v.shape == (16,)
    assert np.allclose(v, 0.25)
    assert math.isclose(float((v ** 2).sum()), 1.0)
    with pytest.raises(ValueError):
        grover.init_uniform(0)


def test_apply_oracle_is_involution():
    v = grover.init_uniform(8)
    idx = np.array([1, 5])
    w = grover.apply_oracle(grover.apply_oracle(v, idx), idx)
    assert np.array_equal(v, w)
    assert grover.apply_oracle(v, idx)[1] == -v[1]
    with pytest.raises(IndexError):
        grover.apply_oracle(v, np.array([8]))
    with pytest.raises(IndexError):
        grover.apply_oracle(v, np.array([-1]))


def test_diffuse_fixes_uniform():
    v = grover.init_uniform(10)
    assert np.allclose(grover.diffuse(v), v)


def test_diffuse_preserves_norm():
    rng = np.random.default_rng(0)
    v = rng.normal(size=32)
    v /= np.linalg.norm(v)
    assert math.isclose(float((grover.diffuse(v) ** 2).sum()), 1.0)


def test_textbook_example_n16_m1():
    assert grover.optimal_iterations(16, 1) == 3
    assert grover_success(16, 1, 3) == pytest.approx(0.9613, abs=1e-4)
    assert grover_success(16, 1, 3) == pytest.approx(
        math.sin(7 * math.asin(0.25)) ** 2)


def test_optimal_iterations_edges():
    assert grover.optimal_iterations(4, 4) == 0
    assert grover.optimal_iterations(4, 5) == 0
    assert grover.optimal_iterations(100, 90) == 1  # floor would be 0, clamp to 1


def test_simulation_matches_closed_form():
    for n, m in ((16, 1), (64, 3), (202, 2), (202, 7)):
        idx = np.arange(m)
        k = grover.optimal_iterations(n, m)
        v = grover.init_uniform(n)
        for _ in range(k):
            v = grover.apply_oracle(v, idx)
            v = grover.diffuse(v)
        measured = float((v[idx] ** 2).sum())
        assert measured == pytest.approx(grover_success(n, m, k), abs=1e-12)


def test_plan_iterations_exact(lab101):
    ctx = lab101.ctx
    s = SerialNumber(103, 101)
    m = int((lab101.cards == 103).sum())
    plan = grover.plan_iterations(ctx, s, h=m)
    # p = 101 is 1 mod 4, so the class space has 2p + 2 = 204 points
    assert plan == grover.SearchPlan(204, grover.optimal_iterations(204, m))
    with pytest.raises(grover.NoTarget):
        grover.plan_iterations(ctx, s, h=0)


def test_plan_iterations_from_bounds(lab101):
    s = SerialNumber(103, 101)
    plan = grover.plan_iterations(lab101.ctx, s)
    # Tatuzawa at p=101 is < 1, so the clamp to a single assumed target fires.
    assert classnum.tatuzawa_lower_bound(101) < 1
    assert plan.iterations == grover.optimal_iterations(204, 1)
    # at p = 100003 the bound is about 3.02, so no clamp
    p = 100003
    ctx = FpContext(p)
    n = curves.class_count(ctx)
    assert classnum.tatuzawa_lower_bound(p) > 3
    plan = grover.plan_iterations(ctx, SerialNumber(p + 2, p))
    assert plan.iterations == grover.optimal_iterations(n, classnum.tatuzawa_lower_bound(p))
    assert plan.iterations < grover.optimal_iterations(n, 1)


def test_run_search_end_to_end(lab101):
    ctx = lab101.ctx
    s = SerialNumber(103, 101)
    cfg = OracleConfig.for_prime(101)
    m = int((lab101.cards == 103).sum())
    plan = grover.plan_iterations(ctx, s, h=m)
    marked = forgery.batch_marked(ctx, lab101.A, lab101.B, s, cfg)
    res = grover.run_search(ctx, s, plan, marked, seed=0)
    assert res.success_probability == pytest.approx(
        grover_success(204, m, plan.iterations), abs=1e-12)
    assert res.success_probability > 0.5
    assert np.allclose(res.conditional_distribution, 1.0 / m)
    assert len(res.marked_indices) == m
    # seeded measurement is deterministic
    res2 = grover.run_search(ctx, s, plan, marked, seed=0)
    assert res2.sample_index == res.sample_index


def test_run_search_no_target(lab101):
    # sigma = 100 is valid but (as it happens) realized at p = 101, so force
    # an empty mask instead.
    s = SerialNumber(103, 101)
    plan = grover.plan_iterations(lab101.ctx, s, h=2)
    with pytest.raises(grover.NoTarget):
        grover.run_search(lab101.ctx, s, plan, np.zeros(204, dtype=bool))
