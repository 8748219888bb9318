"""The four workloads.  Each has three sides:

* `inputs(rng, seconds, smoke)`, in the parent before timing: the op list
  made from the seed, with the benchmark's own ground truth where an op
  needs it;
* `setup(smoke)` and `run(state, op)`, in the worker: the state a user of
  the program builds before the first op, and the timed op itself;
* `check(op, record)`, in the parent after timing: the problems found in
  one op's output, empty when it is correct.

and `speed`, the probe (speed.py) whose reference speed its times are
scaled to.

An op list is longer than a run is expected to need; a worker that runs
out starts it again and says so.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter

import truth

VERIFY_P = 1048583  # 2**20 + 7, the largest prime in the golden files
SMOKE_P = 101
GENUINE_EVERY = 4  # one genuine note in each block of four
VERIFY_OPS_PER_S = 60  # op list length per second of run; measured 30-50
FORGE_BAND = (49000, 51000)  # about 11 ops in a run of 20 s
MINT_BAND = (2950, 3050)  # 13 primes: a run covers each about twice
CENSUS_BAND = (300, 320)  # 307, 311, 313, 317: each about twice a run


def _draw_class(rng, ctx):
    """A class drawn uniformly from all (j, b) classes over F_p."""
    from twistforge import curves

    while True:
        j, b = rng.randrange(ctx.p), rng.randrange(6)
        if b < curves.b_range(ctx, j):
            return curves.CurveClass(j, b)


def _curve(ctx, nr, j, b):
    """(A, B) realizing class (j, b), cross-checked by its j-invariant."""
    from twistforge import curves

    E = curves.get_weierstrass_pair(ctx, curves.CurveClass(j, b), nr)
    if truth.j_invariant(ctx.p, E.A, E.B) != j % ctx.p:
        raise ValueError(f"pair ({E.A}, {E.B}) does not have j = {j}")
    return E


def _classes_with_counts(rng, ctx, nr):
    """Uniformly drawn classes with their point counts.  A class whose j is
    not 0 or 1728 comes with its quadratic twist (j, 1 - b), counted for
    free by #E + #E' = 2p + 2, which halves the counting."""
    counter = truth.PointCounter(ctx.p)
    while True:
        c = _draw_class(rng, ctx)
        E = _curve(ctx, nr, c.j, c.b)
        card = counter.count(E.A, E.B)
        yield c, card
        if c.j not in (0, 1728 % ctx.p):
            yield type(c)(c.j, 1 - c.b), 2 * ctx.p + 2 - card


def _prime_cycle(rng, band, n):
    """n primes from the band, each used once before any repeats."""
    primes = truth.primes_between(*band)
    out = []
    while len(out) < n:
        rng.shuffle(primes)
        out.extend(primes)
    return out[:n]


def _dispatch(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.dispatch(argv)
    return rc, buf.getvalue()


def _cli_setup(smoke):
    from twistforge import cli

    return {"cli": cli}


def _draw_note(rng, p):
    """sigma as mint draws it: the cardinality of a random class, redrawn
    until the Frobenius discriminant is accepted."""
    from twistforge import classnum
    from twistforge.curves import NonResidueTable
    from twistforge.fp_arith import FpContext

    ctx = FpContext(p)
    for _, sigma in _classes_with_counts(rng, ctx, NonResidueTable.for_prime(ctx)):
        if sigma != p + 1 and classnum.frobenius_discriminant(p, sigma).accepted:
            return sigma


def _support_problems(p, sigma, support):
    """Every member has sigma points, and there are h(d) of them."""
    from twistforge import classnum
    from twistforge.curves import NonResidueTable
    from twistforge.fp_arith import FpContext

    problems = []
    if len(set(support)) != len(support):
        problems.append("support lists a class twice")
    h = classnum.exact_class_number(truth.discriminant(p, sigma))
    if len(support) != h:
        problems.append(f"support size {len(support)} != h(d) = {h}")
    ctx = FpContext(p)
    nr = NonResidueTable.for_prime(ctx)
    counter = truth.PointCounter(p)
    for j, b in support:
        E = _curve(ctx, nr, j, b)
        if counter.count(E.A, E.B) != sigma:
            problems.append(f"support class ({j}, {b}) has {counter.count(E.A, E.B)} points")
            break
    return problems


class Verify:
    """check_serial in-process, like a bank's verifier loop; nr omitted as
    the check-serial command omits it."""

    name = "verify"
    speed = "scalar"

    @staticmethod
    def inputs(rng, seconds, smoke):
        from twistforge.curves import NonResidueTable
        from twistforge.fp_arith import FpContext

        p = SMOKE_P if smoke else VERIFY_P
        ctx = FpContext(p)
        nr = NonResidueTable.for_prime(ctx)
        band = truth.serials(p)
        notes = _classes_with_counts(rng, ctx, nr)
        blocks = max(2, math.ceil(seconds * VERIFY_OPS_PER_S / GENUINE_EVERY))
        ops = []
        for _ in range(blocks):
            genuine = None
            while genuine is None:  # p + 1 is never a serial
                block = [next(notes) for _ in range(GENUINE_EVERY)]
                rng.shuffle(block)
                genuine = next((i for i, (_, card) in enumerate(block)
                                if card != p + 1), None)
            for i, (c, card) in enumerate(block):
                sigma = card
                while i != genuine and sigma == card:
                    sigma = rng.choice(band)
                ops.append({"p": p, "j": c.j, "b": c.b, "sigma": sigma,
                            "expect": int(i == genuine)})
        return ops

    @staticmethod
    def setup(smoke):
        from twistforge import scheme
        from twistforge.curves import CurveClass, NonResidueTable
        from twistforge.fp_arith import FpContext, MultCounter
        from twistforge.forgery import OracleConfig, SerialNumber

        ctx = FpContext(SMOKE_P if smoke else VERIFY_P)
        NonResidueTable.for_prime(ctx)
        return {"ctx": ctx, "cfg": OracleConfig.for_prime(ctx.p),
                "scheme": scheme, "ctr": MultCounter,
                "cls": CurveClass, "serial": SerialNumber}

    @staticmethod
    def run(state, op):
        ctx, ctr = state["ctx"], state["ctr"]()
        bit = state["scheme"].check_serial(
            ctx, state["cls"](op["j"], op["b"]),
            state["serial"](op["sigma"], ctx.p), state["cfg"], ctr=ctr)
        return {"bit": bit, "mults": ctr.count}

    @staticmethod
    def check(op, rec):
        if rec["bit"] != op["expect"]:
            kind = "genuine" if op["expect"] else "counterfeit"
            return [f"{kind} note ({op['j']}, {op['b']}, {op['sigma']}) gave {rec['bit']}"]
        return []


class Forge:
    """forge-sim through cli.dispatch, one prime per op."""

    name = "forge"
    speed = "array"

    @staticmethod
    def inputs(rng, seconds, smoke):
        n = math.ceil(seconds) + 2
        primes = [SMOKE_P] * n if smoke else _prime_cycle(rng, FORGE_BAND, n)
        return [{"p": p, "sigma": _draw_note(rng, p)} for p in primes]

    setup = staticmethod(_cli_setup)

    @staticmethod
    def tap(state):
        """Keep each ForgeResult so its support can be checked: forge-sim
        prints only the support's size.  Installed after set-up, around
        whatever scheme.forge is by then."""
        from twistforge import scheme

        forge = scheme.forge

        def kept(*args, **kwargs):
            state["result"] = forge(*args, **kwargs)
            return state["result"]

        scheme.forge = kept

    @staticmethod
    def run(state, op):
        state["result"] = None
        rc, out = _dispatch(state["cli"], ["forge-sim", "--p", str(op["p"]),
                                           "--sigma", str(op["sigma"])])
        result = state["result"]
        support = [] if result is None else \
            [[c.j, c.b] for c in result.banknote.support]
        return {"rc": rc, "out": out, "support": support}

    @staticmethod
    def check(op, rec):
        if rec["rc"] != 0:
            return [f"forge-sim exited {rec['rc']}"]
        p, sigma = op["p"], op["sigma"]
        row = json.loads(rec["out"])
        problems = []
        if (row["p"], row["sigma"]) != (str(p), str(sigma)):
            problems.append(f"reported p, sigma = {row['p']}, {row['sigma']}")
        if row["sample_passes"] != "1":
            problems.append("the sampled class does not pass")
        support = [tuple(c) for c in rec["support"]]
        if len(support) != int(row["support_size"]):
            problems.append("printed support size differs from the support")
        return problems + _support_problems(p, sigma, support)


class Mint:
    """mint through cli.dispatch, one prime per op."""

    name = "mint"
    speed = "array"

    @staticmethod
    def inputs(rng, seconds, smoke):
        n = math.ceil(4 * seconds) + 2
        primes = [SMOKE_P] * n if smoke else _prime_cycle(rng, MINT_BAND, n)
        return [{"p": p, "seed": rng.randrange(2**31)} for p in primes]

    setup = staticmethod(_cli_setup)

    @staticmethod
    def run(state, op):
        rc, out = _dispatch(state["cli"], ["mint", "--p", str(op["p"]),
                                           "--seed", str(op["seed"])])
        return {"rc": rc, "out": out}

    @staticmethod
    def check(op, rec):
        if rec["rc"] != 0:
            return [f"mint exited {rec['rc']}"]
        note = json.loads(rec["out"])
        p, sigma = op["p"], int(note["sigma"])
        if note["p"] != str(p):
            return [f"note is over F_{note['p']}"]
        if not truth.accepted(p, sigma):
            return [f"serial {sigma} is not acceptable"]
        support = [(int(c["j"]), int(c["b"])) for c in note["support"]]
        return _support_problems(p, sigma, support)


class Census:
    """enumerate, then classnum for every serial of the prime."""

    name = "census"
    speed = "scalar"

    @staticmethod
    def inputs(rng, seconds, smoke):
        n = math.ceil(seconds) + 2
        primes = [SMOKE_P] * n if smoke else _prime_cycle(rng, CENSUS_BAND, n)
        return [{"p": p, "serials": truth.serials(p)} for p in primes]

    setup = staticmethod(_cli_setup)

    @staticmethod
    def run(state, op):
        cli, p = state["cli"], str(op["p"])
        rc, table = _dispatch(cli, ["enumerate", "--p", p])
        reports = []
        for sigma in op["serials"]:
            code, out = _dispatch(cli, ["classnum", "--p", p, "--sigma", str(sigma)])
            rc = rc or code
            reports.append(out)
        return {"rc": rc, "table": table, "reports": reports}

    @staticmethod
    def check(op, rec):
        from twistforge import curves
        from twistforge.fp_arith import FpContext

        if rec["rc"] != 0:
            return [f"a command exited {rec['rc']}"]
        p = op["p"]
        ctx = FpContext(p)
        counter = truth.PointCounter(p)
        rows = [json.loads(line) for line in rec["table"].splitlines()]
        card = {}
        problems = []
        for r in rows:
            j, b, A, B, n, m, k = (int(r[f]) for f in
                                   ("j", "b", "A", "B", "cardinality", "m", "k"))
            card[j, b] = n
            if truth.j_invariant(p, A, B) != j or counter.count(A, B) != n:
                problems.append(f"row ({j}, {b}) has the wrong curve or count")
            if m * m * k != n or (p - 1) % m:
                problems.append(f"row ({j}, {b}) has shape m={m}, k={k}")
        if len(card) != len(rows) or len(card) != curves.class_count(ctx):
            problems.append(f"{len(rows)} rows for {curves.class_count(ctx)} classes")
        for j in range(p):
            if j not in (0, 1728 % p) and card.get((j, 0), 0) + card.get((j, 1), 0) != 2 * p + 2:
                problems.append(f"twists at j = {j} do not sum to 2p + 2")
        fiber = Counter(card.values())
        for sigma, out in zip(op["serials"], rec["reports"]):
            r = json.loads(out)
            ok = truth.accepted(p, sigma)
            if r["d"] != str(truth.discriminant(p, sigma)) or r["accepted"] != str(int(ok)):
                problems.append(f"classnum sigma={sigma}: d={r['d']} accepted={r['accepted']}")
            elif ok and r["h"] != str(fiber[sigma]):
                problems.append(f"h(d) = {r['h']} but {fiber[sigma]} classes have {sigma} points")
        return problems[:5]


WORKLOADS = {w.name: w for w in (Verify, Forge, Mint, Census)}
