"""The golden gate: before any timing, recompute every `oracle` and `eval`
entry of tests/golden/mult_counts.json (read, never written) and refuse to
go on if one count differs."""

from __future__ import annotations

import json


class GoldenMismatch(RuntimeError):
    """A recomputed multiplication count differs from the golden file."""


def gate(path: str) -> int:
    """Return the number of entries checked; raise GoldenMismatch otherwise."""
    from twistforge import curves, divpoly, forgery
    from twistforge.curves import CurveClass, NonResidueTable
    from twistforge.fp_arith import FpContext, MultCounter
    from twistforge.forgery import OracleConfig, SerialNumber

    with open(path) as fh:
        golden = json.load(fh)
    mismatches = []
    for e in golden["oracle"]:
        p = e["p"]
        ctx = FpContext(p)
        cfg = OracleConfig.for_prime(p)
        ctr = MultCounter()
        bit = forgery.oracle_predicate(ctx, CurveClass(e["j"], e["b"]),
                                       SerialNumber(e["sigma"], p), cfg,
                                       NonResidueTable.for_prime(ctx), ctr)
        if (bit, cfg.tau, ctr.count) != (1, e["tau"], e["measured_mults"]):
            mismatches.append(f"oracle p={p}: bit={bit} tau={cfg.tau} "
                              f"mults={ctr.count}, golden {e['measured_mults']}")
    for e in golden["eval"]:
        ctx = FpContext(e["p"])
        E = curves.get_weierstrass_pair(ctx, CurveClass(1, 0),
                                        NonResidueTable.for_prime(ctx))
        ctr = MultCounter()
        divpoly.eval_division_poly(ctx, E, e["x"], e["ell"], ctr)
        if ctr.count != e["measured_mults"]:
            mismatches.append(f"eval p={e['p']} ell={e['ell']}: "
                              f"mults={ctr.count}, golden {e['measured_mults']}")
    if mismatches:
        raise GoldenMismatch("; ".join(mismatches))
    return len(golden["oracle"]) + len(golden["eval"])
