"""Dense real state-vector simulation of the Grover forgery search over the
curve-class index space.

The oracle is a +-1 phase flip and the start state is real, so amplitudes
stay real throughout.  The caller computes the marked set once per search
from the forgery predicate, and plans the iterations from its exact size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves
from .fp_arith import FpContext
from .forgery import SerialNumber


class NoTarget(ValueError):
    """The serial number marks no class at all."""


@dataclass(frozen=True)
class SearchPlan:
    N: int
    iterations: int


def optimal_iterations(n: int, m: float) -> int:
    """floor(pi/4 sqrt(N/M)), minimum 1 when M < N, 0 when M = N."""
    if m >= n:
        return 0
    return max(1, math.floor(math.pi / 4 * math.sqrt(n / m)))


def plan_iterations(ctx: FpContext, s: SerialNumber, h: int) -> SearchPlan:
    """The rounded Grover optimum over the full (j, b) class space for h
    marked classes."""
    if h == 0:
        raise NoTarget(f"sigma={s.sigma} marks no class over F_{ctx.p}")
    n = curves.class_count(ctx)
    return SearchPlan(n, optimal_iterations(n, h))


def evolve(marked: np.ndarray, iterations: int) -> np.ndarray:
    """The amplitudes after iterations rounds of a phase flip on the marked
    entries and an inversion about the mean, from the uniform state."""
    idx = np.flatnonzero(marked)
    v = np.full(marked.size, 1.0 / math.sqrt(marked.size))
    for _ in range(iterations):
        v[idx] = -v[idx]
        v = 2.0 * v.mean() - v
    return v


@dataclass
class SearchResult:
    success_probability: float
    sample_class: curves.CurveClass
    iterations: int


def run_search(
    ctx: FpContext,
    s: SerialNumber,
    plan: SearchPlan,
    marked: np.ndarray,
    seed: int = 0,
) -> SearchResult:
    """Run plan.iterations rounds of oracle + diffusion and measure once.

    marked is the oracle's boolean mask over the classes in class_arrays
    order, e.g. from forgery.batch_marked.
    """
    marked = np.asarray(marked, dtype=bool)
    if marked.size != curves.class_count(ctx):
        raise ValueError("marked mask size mismatch")
    if not marked.any():
        raise NoTarget(f"sigma={s.sigma} marks no class over F_{ctx.p}")
    v = evolve(marked, plan.iterations)
    success = float((v[marked] ** 2).sum())
    rng = np.random.default_rng(np.uint64(seed))
    probs = v**2
    sample = int(rng.choice(len(v), p=probs / probs.sum()))
    return SearchResult(success, curves.class_at(ctx, sample), plan.iterations)
