import math

import numpy as np
import pytest

from twistforge import forgery, grover
from twistforge.forgery import OracleConfig, SerialNumber

from conftest import grover_success


def test_init_uniform():
    v = grover.evolve(np.zeros(16, dtype=bool), 0)
    assert v.shape == (16,)
    assert np.allclose(v, 0.25)
    assert math.isclose(float((v ** 2).sum()), 1.0)


def test_apply_oracle_is_involution():
    # With every class marked a round negates the state, so two rounds
    # flip each amplitude twice and return the start exactly.
    marked = np.ones(8, dtype=bool)
    v = grover.evolve(marked, 0)
    assert np.array_equal(grover.evolve(marked, 2), v)
    assert np.allclose(grover.evolve(marked, 1), -v)


def test_diffuse_fixes_uniform():
    v = grover.evolve(np.zeros(10, dtype=bool), 0)
    for k in (1, 5):
        assert np.allclose(grover.evolve(np.zeros(10, dtype=bool), k), v)


def test_diffuse_preserves_norm():
    marked = np.zeros(32, dtype=bool)
    marked[[1, 5, 30]] = True
    for k in range(8):
        assert math.isclose(float((grover.evolve(marked, k) ** 2).sum()), 1.0)


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
        marked = np.arange(n) < m
        k = grover.optimal_iterations(n, m)
        measured = float((grover.evolve(marked, k)[marked] ** 2).sum())
        assert measured == pytest.approx(grover_success(n, m, k), abs=1e-12)


def test_plan_iterations_exact(lab101):
    ctx = lab101.ctx
    s = SerialNumber(103, 101)
    m = int((lab101.cards == 103).sum())
    plan = grover.plan_iterations(ctx, s, h=m)
    # p = 101 is 1 mod 4, so the class space has 2p + 2 = 204 points
    assert plan == grover.SearchPlan(204, grover.optimal_iterations(204, m))
    with pytest.raises(ValueError, match="marks no class over F_101"):
        grover.plan_iterations(ctx, s, h=0)


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
    assert int(marked.sum()) == m
    v = grover.evolve(marked, plan.iterations)
    assert np.allclose(v[marked] ** 2 / res.success_probability, 1.0 / m)
    # seeded measurement is deterministic
    res2 = grover.run_search(ctx, s, plan, marked, seed=0)
    assert res2.sample_class == res.sample_class


def test_run_search_no_target(lab101):
    # sigma = 100 is valid but (as it happens) realized at p = 101, so force
    # an empty mask instead.
    s = SerialNumber(103, 101)
    plan = grover.plan_iterations(lab101.ctx, s, h=2)
    with pytest.raises(ValueError, match="marks no class over F_101"):
        grover.run_search(lab101.ctx, s, plan, np.zeros(204, dtype=bool))
