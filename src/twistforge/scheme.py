"""Desk-scale classical analogue of the quantum money scheme.

A banknote's "uniform superposition" is represented extensionally as the
support set of classes sharing the serial cardinality.  Minting samples a
class uniformly (so serials appear in proportion to their class counts,
mirroring the measurement statistics) and retries until the Frobenius
discriminant is square-free and exceeds 3p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import classnum, curves, forgery, grover
from .curves import CurveClass, NonResidueTable, WeierstrassCurve
from .fp_arith import FpContext, InvalidInput, MultCounter
from .forgery import OracleConfig, SerialNumber


@dataclass(frozen=True)
class Banknote:
    serial: SerialNumber
    support: tuple[CurveClass, ...]


def mint(ctx: FpContext, seed: int) -> Banknote:
    """Sample classes until the Frobenius-discriminant predicate accepts.

    Only the drawn classes are counted, O(p) each; sigma = p + 1 is never
    accepted (4 | Delta = 4p).  The support is forgery.fiber: the strict_or
    sweep's marked set, each member confirmed by an exact count.
    """
    p = ctx.p
    A, B = curves.class_pairs(ctx)
    rng = random.Random(seed)
    for _ in range(10 * A.size):
        i = rng.randrange(A.size)
        sigma = curves.count_points(ctx, WeierstrassCurve(int(A[i]), int(B[i])))
        if classnum.frobenius_discriminant(p, sigma).accepted:
            s = SerialNumber(sigma, p)
            idx = forgery.fiber(ctx, A, B, s)
            return Banknote(s, tuple(curves.class_at(ctx, i) for i in idx.tolist()))
    raise InvalidInput(f"no acceptable sigma over F_{p} within the draw cap")


def check_serial(
    ctx: FpContext,
    c: CurveClass,
    s: SerialNumber,
    cfg: OracleConfig,
    ctr: MultCounter | None = None,
) -> int:
    """CheckSerialNumber: 1 iff F vanishes on the class, with the twist
    parameters of p from `NonResidueTable.for_prime` (memoised per p).

    Extensionally identical to the forgery oracle's decision: verifying a
    serial and recognizing a forgery target are the same predicate.  A
    class with sigma points always passes.  In strict_or mode at the
    default tau the converse holds at every prime from 31 to 229 (tested)
    and, by Mestre's theorem, for the predicate over all x above 229; at
    p = 5, 7, 11, 17, 23 and 29 some classes pass a sigma they do not have.
    """
    return forgery.oracle_predicate(ctx, c, s, cfg, NonResidueTable.for_prime(ctx), ctr)


@dataclass
class ForgeResult:
    banknote: Banknote
    success_probability: float
    oracle_queries: int
    sample: CurveClass
    sample_passes: bool


def forge(
    ctx: FpContext,
    s: SerialNumber,
    cfg: OracleConfig,
    seed: int = 0,
) -> ForgeResult:
    """End-to-end attack: plan, search, sample, re-verify, rebuild support."""
    A, B = curves.class_pairs(ctx)
    marked = forgery.batch_marked(ctx, A, B, s, cfg)
    plan = grover.plan_iterations(ctx, s, h=int(marked.sum()))  # h >= 1 (Deuring)
    result = grover.run_search(ctx, s, plan, marked, seed=seed)
    sample = result.sample_class
    passes = check_serial(ctx, sample, s, cfg) == 1
    support = tuple(curves.class_at(ctx, i) for i in marked.nonzero()[0].tolist())
    note = Banknote(s, support)
    return ForgeResult(note, result.success_probability, plan.iterations,
                       sample, passes)
