"""Desk-scale classical analogue of the quantum money scheme.

A banknote's "uniform superposition" is represented extensionally as the
support set of classes sharing the serial cardinality.  Minting samples a
class uniformly (so serials appear in proportion to their class counts,
mirroring the measurement statistics) and retries until the Frobenius
discriminant is square-free and exceeds 3p.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import classnum, curves, forgery, grover
from .curves import CurveClass, CurveTableRow, NonResidueTable, WeierstrassCurve
from .fp_arith import FpContext, MultCounter
from .forgery import OracleConfig, SerialNumber


class Exhausted(RuntimeError):
    """No acceptable serial was found within the retry cap."""


@dataclass(frozen=True)
class Banknote:
    p: int
    serial: SerialNumber
    support: tuple[CurveClass, ...]


def mint(
    ctx: FpContext,
    seed: int,
    table: list[CurveTableRow] | None = None,
) -> Banknote:
    """Sample classes until the Frobenius-discriminant predicate accepts.

    Without a table only the drawn classes are counted, O(p) each, and the
    support is forgery.fiber, the strict_or sweep's marked set with each
    member confirmed by an exact count.  A table supplies the cardinalities
    instead.
    """
    p = ctx.p
    if table is None:
        j, b, A, B = curves.class_pairs(ctx, NonResidueTable.for_prime(ctx))
        n_classes = j.size

        def card(i: int) -> int:
            return curves.count_points(ctx, WeierstrassCurve(int(A[i]), int(B[i])))

        def support(sigma: int) -> list[CurveClass]:
            idx = forgery.fiber(ctx, A, B, SerialNumber(sigma, p))
            return list(map(CurveClass, j[idx].tolist(), b[idx].tolist()))
    else:
        classes = [CurveClass(r.j, r.b) for r in table]
        cards = [r.cardinality for r in table]
        card = cards.__getitem__
        n_classes = len(table)

        def support(sigma: int) -> list[CurveClass]:
            return [c for c, n in zip(classes, cards) if n == sigma]
    rng = random.Random(seed)
    for _ in range(10 * n_classes):
        sigma = card(rng.randrange(n_classes))
        if sigma == p + 1:
            continue
        if classnum.frobenius_discriminant(p, sigma).accepted:
            return Banknote(p, SerialNumber(sigma, p), tuple(support(sigma)))
    raise Exhausted(f"no acceptable sigma over F_{p} within the draw cap")


def check_serial(
    ctx: FpContext,
    c: CurveClass,
    s: SerialNumber,
    cfg: OracleConfig,
    nr: NonResidueTable | None = None,
    ctr: MultCounter | None = None,
) -> int:
    """CheckSerialNumber: 1 iff F vanishes on the class.

    Extensionally identical to the forgery oracle's decision: verifying a
    serial and recognizing a forgery target are the same predicate.
    """
    nr = nr if nr is not None else NonResidueTable.for_prime(ctx)
    return forgery.oracle_predicate(ctx, c, s, cfg, nr, ctr)


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
    nr = NonResidueTable.for_prime(ctx)
    j, b, A, B = curves.class_pairs(ctx, nr)
    marked = forgery.batch_marked(ctx, A, B, s, cfg)
    plan = grover.plan_iterations(ctx, s, h=int(marked.sum()))  # NoTarget if h = 0
    result = grover.run_search(ctx, s, plan, marked, seed=seed)
    sample = result.sample_class
    passes = check_serial(ctx, sample, s, cfg, nr) == 1
    support = tuple(map(CurveClass, j[marked].tolist(), b[marked].tolist()))
    note = Banknote(ctx.p, s, support)
    return ForgeResult(note, result.success_probability, plan.iterations,
                       sample, passes)


def banknote_to_json(note: Banknote) -> str:
    """JSON wire format {p, sigma, support:[{j,b}...]}, decimal strings."""
    return json.dumps({
        "p": str(note.p),
        "sigma": str(note.serial.sigma),
        "support": [{"j": str(c.j), "b": str(c.b)} for c in note.support],
    })


def banknote_from_json(text: str) -> Banknote:
    obj = json.loads(text)
    p = int(obj["p"])
    sigma = int(obj["sigma"])
    support = tuple(CurveClass(int(e["j"]), int(e["b"])) for e in obj["support"])
    return Banknote(p, SerialNumber(sigma, p), support)
