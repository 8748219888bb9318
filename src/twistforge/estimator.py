"""The attack's resource table in pure arithmetic, plus audits of predicted
versus measured multiplication counts.

Conventions: n = ceil(log2 p) everywhere a bit size appears; the brute-force
entries (n^6 mults, n^3 qubits) are their asymptotic forms with constant 1,
as exact integers, and are labeled as a convention, not a claim.  They are
the table's only comparison with another attack.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import classnum, curves, scheme
from .fp_arith import FpContext, InvalidInput, MultCounter, is_prime
from .forgery import OracleConfig, SerialNumber

ORACLE_MULTS_CONST = 1944  # per-oracle-call ceiling, F_p multiplications
QUBITS_CONST = 12
TOTAL_LOWER_CONST = 5097
TOTAL_UPPER_CONST = 8264


@dataclass(frozen=True)
class ResourceReport:
    p_bits: int
    oracle_mults_ours: int  # < 1944 n^2
    oracle_mults_bruteforce: int  # n^6, constant-1 convention
    qubits_ours: int  # 12 n^2
    qubits_bruteforce: int  # n^3 convention
    iterations_lower: float
    iterations_upper: float
    total_lower: float
    total_upper: float


def estimate(bits: int | None = None, p: int | None = None) -> ResourceReport:
    """Fill the resource table row for an n-bit prime; with both given,
    bits must be the n of p.  A given p must pass `is_prime`, which is
    exact below 3.3 * 10^24 and a probable-prime test above."""
    if p is not None:
        if p <= 128:
            raise InvalidInput(f"p must be > 128 (n >= 8 bits), got {p}")
        p_bits = (p - 1).bit_length()  # ceil(log2 p), which float log2 can round down
        if p_bits > 1021:
            raise InvalidInput(f"p must be <= 2^1021 (n <= 1021 bits), got n = {p_bits}")
        if not is_prime(p):
            raise InvalidInput(f"p must be prime, got {p}")
        if bits is not None and bits != p_bits:
            raise InvalidInput(f"bits {bits} does not match p, which has n = {p_bits}")
        bits = p_bits
    elif bits is None:
        raise InvalidInput("give bits or p")
    if not 8 <= bits <= 1021:
        # 4 * 2^n, inside the iteration bounds, overflows a float above n = 1021
        raise InvalidInput(f"bits must be in [8, 1021], got {bits}")
    n = bits
    pv = float(p) if p is not None else 2.0**n
    it_lo, it_hi = classnum.iteration_bounds(pv, n)
    p4 = pv**0.25
    # Theta(log log p) in the lower total evaluated as 2 ln ln(4p) / (pi + 1).
    theta = 2 * math.log(math.log(4 * pv)) / (math.pi + 1)
    total_lo = TOTAL_LOWER_CONST * p4 * n**4 / math.sqrt(n + theta)
    total_hi = TOTAL_UPPER_CONST * p4 * n**4.5
    return ResourceReport(
        p_bits=n,
        oracle_mults_ours=ORACLE_MULTS_CONST * n**2,
        oracle_mults_bruteforce=n**6,
        qubits_ours=QUBITS_CONST * n**2,
        qubits_bruteforce=n**3,
        iterations_lower=it_lo,
        iterations_upper=it_hi,
        total_lower=total_lo,
        total_upper=total_hi,
    )


@dataclass
class AuditRow:
    j: int
    b: int
    is_target: bool
    measured_mults: int
    predicted_ceiling: int
    ratio: float


def audit(
    ctx: FpContext,
    s: SerialNumber,
    cfg: OracleConfig,
    sample_size: int = 5,
    seed: int = 0,
) -> list[AuditRow]:
    """Measured multiplications per oracle call against the 1944 n^2 ceiling.

    The strict_or oracle short-circuits on non-targets, so a target class
    (which scans all tau offsets) is the honest worst case.  audit does not
    search for one: its rows are sample_size classes drawn uniformly with
    the seed.
    """
    n = (ctx.p - 1).bit_length()  # ceil(log2 p)
    ceiling = ORACLE_MULTS_CONST * n * n
    count = curves.class_count(ctx)
    rng = random.Random(seed)
    rows = []
    for _ in range(sample_size):
        c = curves.class_at(ctx, rng.randrange(count))
        ctr = MultCounter()
        bit = scheme.check_serial(ctx, c, s, cfg, ctr)
        rows.append(AuditRow(c.j, c.b, bool(bit), ctr.count, ceiling,
                             ctr.count / ceiling))
    return rows
