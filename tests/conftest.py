import math

import numpy as np
import pytest

from twistforge import classnum, curves, forgery
from twistforge.curves import NonResidueTable, WeierstrassCurve
from twistforge.forgery import SerialNumber
from twistforge.fp_arith import FpContext


class Lab:
    """Everything the tests repeatedly need for one prime, computed once."""

    def __init__(self, p: int):
        self.ctx = FpContext(p)
        self.p = p
        self.nr = NonResidueTable.for_prime(self.ctx)
        self.classes = curves.enumerate_classes(self.ctx)
        self.curves = [curves.get_weierstrass_pair(self.ctx, c, self.nr)
                       for c in self.classes]
        self.A = np.array([E.A for E in self.curves], dtype=np.int64)
        self.B = np.array([E.B for E in self.curves], dtype=np.int64)
        self.cards = curves.count_points_batch(self.ctx, self.A, self.B)

    def valid_sigmas(self):
        s2 = math.isqrt(4 * self.p)
        return [self.p + 1 + t for t in range(-s2, s2 + 1) if t != 0]

    def marked_truth(self, sigma: int) -> np.ndarray:
        return np.asarray(self.cards == sigma)


_LABS: dict[int, Lab] = {}


def get_lab(p: int) -> Lab:
    if p not in _LABS:
        _LABS[p] = Lab(p)
    return _LABS[p]


def g_zero_fraction(ctx: FpContext, E: WeierstrassCurve, s: SerialNumber) -> float:
    """Exact fraction of x in F_p with G(A, B, x) = 0 (vectorized over x)."""
    p = ctx.p
    A = np.full(p, E.A, dtype=np.int64)
    B = np.full(p, E.B, dtype=np.int64)
    g = forgery.batch_G(ctx, A, B, np.arange(p, dtype=np.int64), s)
    return float((g == 0).sum()) / p


def grover_success(n: int, m: int, k: int) -> float:
    """Closed form sin^2((2k+1) asin(sqrt(M/N)))."""
    theta = math.asin(math.sqrt(m / n))
    return math.sin((2 * k + 1) * theta) ** 2


def kronecker_class_number(D: int) -> int:
    """H(D) for D < 0: the sum of h(D / f^2) over the f with f^2 | D and
    D / f^2 = 0 or 1 mod 4, where h counts reduced primitive forms with no
    weights (h(-3) = h(-4) = 1).  H(t^2 - 4p) is the number of classes over
    F_p with trace t (Schoof, "Nonsingular plane cubic curves over finite
    fields", 1987)."""
    total = 0
    for f in range(1, math.isqrt(-D) + 1):
        if D % (f * f) == 0 and D // (f * f) % 4 in (0, 1):
            d = D // (f * f)
            total += 1 if d in (-3, -4) else classnum.exact_class_number(d)
    return total


@pytest.fixture(scope="session")
def lab101():
    return get_lab(101)


@pytest.fixture(scope="session")
def lab499():
    return get_lab(499)


@pytest.fixture(scope="session")
def lab1009():
    return get_lab(1009)


# --- acceptance criterion reporting -----------------------------------------
# Each acceptance test records exactly one PASS/FAIL line; the lines are
# printed in the terminal summary so they survive output capture.

CRITERION_LINES: list[str] = []


def record_criterion(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    CRITERION_LINES.append(f"criterion {num:2d} [{status}] {title}{suffix}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)
