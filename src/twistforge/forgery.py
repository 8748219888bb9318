"""The attack predicate: G, the tau-fold aggregate F, and the decision
version of the search oracle over (j, b) classes.

G checks annihilation of the point above x by sigma on the curve itself when
the Legendre symbol chi of x^3+Ax+B is 1, by 2p+2-sigma on the quadratic
twist when it is -1, and returns sigma mod 2 when it is 0 (order 2).
F scans x = 0, 1, ..., tau-1; in strict_or mode a single nonzero G settles
the answer, in paper_sum mode the field sum of all tau terms is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves
from .curves import CurveClass, NonResidueTable, WeierstrassCurve
from .divpoly import BatchAmbient, eval_division_poly
from .fp_arith import FpContext, InvalidInput, MultCounter

MODES = ("paper_sum", "strict_or")


@dataclass(frozen=True)
class SerialNumber:
    """sigma in the punctured Hasse band 0 < |sigma - p - 1| <= 2 sqrt(p)."""

    sigma: int
    p: int

    def __post_init__(self):
        t = self.sigma - self.p - 1
        if t == 0:
            raise InvalidInput(f"sigma = p+1 = {self.sigma} is excluded")
        if t * t > 4 * self.p:
            raise InvalidInput(
                f"sigma={self.sigma} outside the Hasse band around p+1={self.p + 1}")

    @property
    def twist_sigma(self) -> int:
        return 2 * self.p + 2 - self.sigma


def default_tau(p: int) -> int:
    return 3 * (p - 1).bit_length()  # 3 ceil(log2 p)


@dataclass(frozen=True)
class OracleConfig:
    tau: int
    mode: str = "strict_or"

    def __post_init__(self):
        if self.tau < 1:
            raise InvalidInput("tau must be >= 1")
        if self.mode not in MODES:
            raise InvalidInput(f"mode must be one of {MODES}")

    @classmethod
    def for_prime(cls, p: int, mode: str = "strict_or", tau: int | None = None) -> "OracleConfig":
        return cls(tau if tau is not None else default_tau(p), mode)


def G(ctx: FpContext, E: WeierstrassCurve, x: int, s: SerialNumber,
      ctr: MultCounter) -> int:
    """The single-x annihilation probe; 0 means 'consistent with sigma'."""
    p = ctx.p
    x %= p
    w = (x * x % p * x + E.A * x + E.B) % p
    chi = ctx.euler_criterion(w, ctr)
    if chi == 0:
        # (x, 0) has order 2; sigma and 2p+2-sigma share parity.
        return s.sigma % 2
    return eval_division_poly(ctx, E, x, s.sigma if chi == 1 else s.twist_sigma, ctr)


def F(ctx: FpContext, E: WeierstrassCurve, s: SerialNumber, cfg: OracleConfig,
      ctr: MultCounter) -> int:
    """Aggregate of G over x = 0 .. tau-1.

    strict_or returns 0 iff every term vanishes (short-circuiting on the
    first nonzero term); paper_sum returns the field sum of all tau terms,
    mirroring the register accumulation of the quantum circuit.
    """
    strict = cfg.mode == "strict_or"
    total = 0
    for x in range(cfg.tau):
        g = G(ctx, E, x, s, ctr)
        if strict and g:
            return 1
        total = (total + g) % ctx.p
    return total


def oracle_predicate(ctx: FpContext, c: CurveClass, s: SerialNumber,
                     cfg: OracleConfig, nr: NonResidueTable,
                     ctr: MultCounter | None = None) -> int:
    """1 iff the class would have its phase flipped (F vanishes)."""
    ctr = ctr if ctr is not None else MultCounter()
    E = curves.get_weierstrass_pair(ctx, c, nr, ctr)
    return 1 if F(ctx, E, s, cfg, ctr) == 0 else 0


# ---------------------------------------------------------------------------
# Vectorized sweeps over many classes at once.
# ---------------------------------------------------------------------------


def batch_G(ctx: FpContext, A: np.ndarray, B: np.ndarray, x: int | np.ndarray,
            s: SerialNumber) -> np.ndarray:
    """G over curves (A_i, B_i) at once, as an int64 array of coefficients.

    x is one abscissa for every curve or an array aligned with A and B.
    Agrees with the scalar G entry for entry (tested).
    """
    p = ctx.p
    x = np.broadcast_to(np.asarray(x, dtype=np.int64) % p, A.shape)
    chi = curves.legendre_table(p)[(x * x % p * x + A * x + B) % p]
    # (x, 0) has order 2; sigma and 2p+2-sigma share parity.
    g = np.full(A.shape, s.sigma % 2, dtype=np.int64)
    for mask, ell in ((chi == 1, s.sigma), (chi == -1, s.twist_sigma)):
        if mask.any():
            g[mask] = BatchAmbient(ctx, A[mask], B[mask], x[mask]).eval(ell)
    return g


def batch_marked(ctx: FpContext, A: np.ndarray, B: np.ndarray, s: SerialNumber,
                 cfg: OracleConfig, x0: int | np.ndarray = 0) -> np.ndarray:
    """oracle_predicate over the classes with Weierstrass pairs (A_i, B_i),
    as a boolean numpy array.

    Agrees with the scalar predicate on every input (tested); the vector
    route only changes the cost profile, not the decision.  Class i scans
    x = x0_i, ..., x0_i + tau - 1 (x0 is one start for every class or an
    array aligned with A and B).  strict_or sweeps the first abscissa over
    every class, then the survivors over the next ones in rounds, each one
    batch_G call on at most len(A) lanes: as many abscissae per survivor as
    fit, so a few survivors take the rest of tau in one round.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    if cfg.mode == "paper_sum":
        return sum(batch_G(ctx, A, B, x0 + x, s) for x in range(cfg.tau)) % ctx.p == 0
    alive = np.flatnonzero(batch_G(ctx, A, B, x0, s) == 0)
    x0 = np.broadcast_to(x0, A.shape)
    lo = 1
    while alive.size and lo < cfg.tau:
        xs = np.arange(lo, min(lo + len(A) // alive.size, cfg.tau), dtype=np.int64)
        g = batch_G(ctx, np.repeat(A[alive], xs.size), np.repeat(B[alive], xs.size),
                    (x0[alive, None] + xs).ravel(), s)
        alive = alive[(g.reshape(alive.size, xs.size) == 0).all(axis=1)]
        lo += xs.size
    marked = np.zeros(len(A), dtype=bool)
    marked[alive] = True
    return marked


def fiber(ctx: FpContext, A: np.ndarray, B: np.ndarray, s: SerialNumber) -> np.ndarray:
    """Indices of the classes with exactly sigma points, in ascending order.

    The strict_or sweep at the default tau has no false negatives (a class
    with sigma points has G = 0 at every x); an exact count of each marked
    class drops its false positives.
    """
    marked = np.flatnonzero(batch_marked(ctx, A, B, s, OracleConfig.for_prime(ctx.p)))
    return marked[curves.count_points_batch(ctx, A[marked], B[marked]) == s.sigma]


def per_x_zero_bound(p: int) -> float:
    """Corollary bound on the per-x G-zero probability for a non-target:
    3/4 plus the explicit slack (p+1+2 sqrt p)/(4p+4) - 1/4."""
    return 0.5 + (p + 1 + 2 * math.sqrt(p)) / (4 * p + 4)


@dataclass
class FalsePositiveRow:
    tau: int
    rate: float
    bound: float
    zero_curves: int
    total_curves: int


def false_positive_experiment(
    ctx: FpContext,
    s: SerialNumber,
    tau_range: list[int],
    trials: int,
    seed: int = 0,
    mode: str = "strict_or",
) -> list[FalsePositiveRow]:
    """Measured F = 0 rates among non-target classes with random start x.

    trials = 0 means 'all non-target classes, start x = 0' (exhaustive).
    tau = 0 rows report rate 1 by convention (empty conjunction).
    """
    import random

    A, B = curves.class_pairs(ctx)
    nontargets = np.delete(np.arange(A.size), fiber(ctx, A, B, s))
    rng = random.Random(seed)
    rows = []
    for tau in tau_range:
        if tau == 0:
            rows.append(FalsePositiveRow(0, 1.0, 1.0, nontargets.size, nontargets.size))
            continue
        if trials <= 0:
            idx, x0 = nontargets, np.zeros_like(nontargets)
        else:
            draws = [(nontargets[rng.randrange(nontargets.size)], rng.randrange(ctx.p))
                     for _ in range(trials)]
            idx, x0 = (np.array(d, dtype=np.int64) for d in zip(*draws))
        hit = batch_marked(ctx, A[idx], B[idx], s, OracleConfig(tau, mode), x0)
        zeros, total = int(hit.sum()), idx.size
        rows.append(FalsePositiveRow(tau, zeros / total, per_x_zero_bound(ctx.p) ** tau,
                                     zeros, total))
    return rows
