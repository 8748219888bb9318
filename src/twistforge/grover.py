"""Dense real state-vector simulation of the Grover forgery search over the
curve-class index space.

The oracle is a +-1 phase flip and the start state is real, so amplitudes
stay real throughout.  The caller computes the marked set once per search
from the forgery predicate; iteration planning uses the exact target count
when available, or the class-number lower bound otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import classnum, curves
from .fp_arith import FpContext
from .forgery import SerialNumber


class NoTarget(ValueError):
    """The serial number marks no class at all."""


def init_uniform(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one basis state")
    return np.full(n, 1.0 / math.sqrt(n))


def apply_oracle(v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    if idx.size and (idx.min() < 0 or idx.max() >= v.size):
        raise IndexError("marked index outside the amplitude space")
    out = v.copy()
    out[idx] = -out[idx]
    return out


def diffuse(v: np.ndarray) -> np.ndarray:
    return 2.0 * v.mean() - v


@dataclass(frozen=True)
class SearchPlan:
    N: int
    iterations: int


def optimal_iterations(n: int, m: float) -> int:
    """floor(pi/4 sqrt(N/M)), minimum 1 when M < N, 0 when M = N."""
    if m >= n:
        return 0
    return max(1, math.floor(math.pi / 4 * math.sqrt(n / m)))


def plan_iterations(
    ctx: FpContext,
    s: SerialNumber,
    h: int | None = None,
) -> SearchPlan:
    """Iteration plan over the full (j, b) class space.

    With the exact marked count h the plan is the rounded Grover optimum.
    Without h, h is replaced by its class-number lower bound (clamped to 1
    target), which is conservative: fewer assumed targets, more iterations.
    """
    n = curves.class_count(ctx)
    if h is None:
        h = max(classnum.tatuzawa_lower_bound(ctx.p), 1.0)
    elif h == 0:
        raise NoTarget(f"sigma={s.sigma} marks no class over F_{ctx.p}")
    return SearchPlan(n, optimal_iterations(n, h))


@dataclass
class SearchResult:
    success_probability: float
    marked_indices: np.ndarray
    conditional_distribution: np.ndarray  # over marked indices, in order
    sample_index: int
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
    n = curves.class_count(ctx)
    if marked.size != n:
        raise ValueError("marked mask size mismatch")
    if not marked.any():
        raise NoTarget(f"sigma={s.sigma} marks no class over F_{ctx.p}")
    idx = np.flatnonzero(marked)
    v = init_uniform(n)
    for _ in range(plan.iterations):
        v = apply_oracle(v, idx)
        v = diffuse(v)
    mass = v[idx] ** 2
    success = float(mass.sum())
    conditional = mass / mass.sum()
    rng = np.random.default_rng(np.uint64(seed))
    probs = v**2
    sample = int(rng.choice(len(v), p=probs / probs.sum()))
    return SearchResult(
        success_probability=success,
        marked_indices=idx,
        conditional_distribution=conditional,
        sample_index=sample,
        sample_class=curves.class_at(ctx, sample),
        iterations=plan.iterations,
    )
