"""Command-line front end.

One report per line on stdout (JSON by default, CSV with --output csv),
diagnostics on stderr.  Exit codes: 0 success, 2 invalid input (an
fp_arith.InvalidInput), 1 internal error (any other exception).  All
integers in JSON output are decimal strings.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import json
import math
import os
import sys
from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from . import classnum, curves, estimator, forgery, scheme
from .curves import CurveClass
from .fp_arith import FpContext, InvalidInput
from .forgery import OracleConfig, SerialNumber

CACHE_ENV = "TWISTFORGE_CACHE"


def _predicate_prime(value: int) -> FpContext:
    """The prime of a command that runs the serial predicate.  At p = 5, 7,
    11, 17, 23 and 29 some classes pass a sigma they do not have (exp(E)
    divides sigma and exp(E^t) divides 2p + 2 - sigma).  Above 229
    Mestre's theorem rules that out for the predicate over all x, and the
    tests scan every prime from 31 to 229 at the default tau."""
    ctx = FpContext(value)
    if ctx.p < 31:
        raise InvalidInput(f"p must be >= 31 for the serial predicate, got {value}: "
                           "below 31 a class can pass a sigma it does not have")
    return ctx


def _config(ctx: FpContext, args) -> OracleConfig:
    return OracleConfig.for_prime(ctx.p, mode=args.mode, tau=args.tau)


def _taus(text: str) -> list[int]:
    try:
        taus = [int(t) for t in text.split(",")]
    except ValueError:
        raise InvalidInput(f"--taus must be comma-separated integers, got {text!r}") from None
    if min(taus) < 0:
        raise InvalidInput(f"--taus must be >= 0, got {text!r}")
    return taus


def _seed(value: int) -> int:
    """A --seed; random.Random(-s) is seeded like Random(s), so a negative
    seed would silently rerun s."""
    if value < 0:
        raise InvalidInput(f"--seed must be >= 0, got {value}")
    return value


def _emit(rows: Iterable[dict], fmt: str, fh=None) -> None:
    """One JSON line per row, or a CSV table headed by the first row's keys, whose
    non-string cells (mint's support) hold the JSON line's JSON; to fh or stdout."""
    fh = fh if fh is not None else sys.stdout
    writer = None
    for row in rows:
        if fmt == "json":
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            continue
        if writer is None:
            writer = csv_mod.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
        writer.writerow({k: v if isinstance(v, str) else json.dumps(v, sort_keys=True)
                         for k, v in row.items()})


def _table_rows(table: np.ndarray) -> Iterable[dict[str, str]]:
    """enumerate's rows, made one at a time: each cell a decimal string."""
    return (dict(zip(curves.TABLE_FIELDS, map(str, row))) for row in map(np.ndarray.tolist, table))


def _cached_table(ctx: FpContext, path: str, with_structure: bool) -> np.ndarray | None:
    """The curve table cached at path if it passes each check below, which
    a fresh table does; None (with a warning) if not, or if unreadable."""
    p, r = ctx.p, math.isqrt(4 * ctx.p)
    try:
        with open(path, newline="") as fh:
            header, *cells = list(csv_mod.reader(fh)) or [None]  # an empty file has no header
        if header != list(curves.TABLE_FIELDS):
            raise ValueError(f"unexpected curve-table header: {header}")
        table, columns = np.array(cells, dtype=np.int64), curves.class_columns(ctx)
        if table.shape != (len(columns), len(header)):
            raise ValueError(f"a table of shape {table.shape}, not {(len(columns), len(header))}")
        if not np.array_equal(table[:, :4], columns):
            raise ValueError("(j, b, A, B) columns that are not the classes'")
        if np.any((table[:, 5:] > 0) != with_structure):  # m = k = 0 marks no structure
            raise ValueError("group structure missing" if with_structure
                             else "unexpected group structure")
        j, b, _, _, n, m, k = table.T
        i = np.flatnonzero(curves.twist_rows(p, j, b))  # each (j, 1) right after its (j, 0)
        if np.any((n < p + 1 - r) | (n > p + 1 + r)) or np.any(n[i] + n[i - 1] != 2 * p + 2):
            raise ValueError("a cardinality off the Hasse band or #E + #E^t = 2p + 2")
        # with m | p - 1 and k <= #E, m^2 k stays inside int64 for p < 10^6
        if with_structure and np.any(((p - 1) % m != 0) | (k > n) | (m * m * k != n)):
            raise ValueError("a group shape with m not dividing p - 1 or m^2 k != #E")
    except (OSError, ValueError, OverflowError, csv_mod.Error) as exc:
        print(f"warning: rebuilding cache file {path}: {exc}", file=sys.stderr)
        return None
    return table


def cmd_enumerate(args) -> Iterable[dict]:
    ctx = FpContext(args.p)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    path = None
    if cache_dir:
        # tables without group structure hold m = k = 0, so they get their own file
        suffix = "_nostructure" if args.no_structure else ""
        path = os.path.join(cache_dir, f"curves_p{ctx.p}{suffix}.csv")
        if os.path.exists(path):
            table = _cached_table(ctx, path, not args.no_structure)
            if table is not None:
                return _table_rows(table)
    table = curves.build_curve_table(ctx, with_structure=not args.no_structure)
    if path:
        # the --output csv table, written beside path and renamed over it, so
        # a reader never sees a half-written file
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(cache_dir, exist_ok=True)
            with open(tmp, "w", newline="") as fh:
                _emit(_table_rows(table), "csv", fh)
            os.replace(tmp, path)
        except OSError as exc:  # this run's table is still printed
            print(f"warning: not caching the table at {path}: {exc}", file=sys.stderr)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return _table_rows(table)


def cmd_mint(args) -> list[dict]:
    note = scheme.mint(FpContext(args.p), _seed(args.seed))
    return [{
        "p": str(note.serial.p),
        "sigma": str(note.serial.sigma),
        "support": [{"j": str(c.j), "b": str(c.b)} for c in note.support],
    }]


def cmd_check_serial(args) -> list[dict]:
    ctx = _predicate_prime(args.p)
    s = SerialNumber(args.sigma, ctx.p)
    c = CurveClass(args.j, args.b)
    if not (0 <= args.j < ctx.p and 0 <= args.b < curves.b_range(ctx, args.j)):
        raise InvalidInput(f"(j={args.j}, b={args.b}) is not a legal class mod {ctx.p}")
    bit = scheme.check_serial(ctx, c, s, _config(ctx, args))
    return [{"pass": str(bit)}]


def cmd_forge_sim(args) -> list[dict]:
    ctx = _predicate_prime(args.p)
    s = SerialNumber(args.sigma, ctx.p)
    result = scheme.forge(ctx, s, _config(ctx, args), seed=_seed(args.seed))
    return [{
        "p": str(ctx.p),
        "sigma": str(s.sigma),
        "success_probability": repr(result.success_probability),
        "oracle_queries": str(result.oracle_queries),
        "sample_j": str(result.sample.j),
        "sample_b": str(result.sample.b),
        "sample_passes": str(int(result.sample_passes)),
        "support_size": str(len(result.banknote.support)),
    }]


def cmd_classnum(args) -> list[dict]:
    ctx = FpContext(args.p)
    s = SerialNumber(args.sigma, ctx.p)
    rep = classnum.class_number_report(ctx.p, s.sigma, with_exact=not args.no_exact)
    fr = rep.frobenius
    return [{
        "p": str(ctx.p),
        "sigma": str(s.sigma),
        "d": str(-fr.delta),
        "delta": str(fr.delta),
        "accepted": str(int(fr.accepted)),
        "is_fundamental": str(int(fr.is_fundamental)),
        "h": str(rep.h) if rep.h is not None else "",
        "tatuzawa_lower": repr(rep.tatuzawa_lower),
        "tatuzawa_valid": str(int(rep.tatuzawa_valid)),
        "l_upper": repr(rep.l_upper),
        "h_upper": repr(rep.h_upper),
        "iteration_lower": repr(rep.iteration_lower),
        "iteration_upper": repr(rep.iteration_upper),
    }]


def cmd_bounds(args) -> list[dict]:
    ctx = FpContext(args.p)
    lo, hi = classnum.iteration_bounds(ctx.p)
    return [{
        "p": str(ctx.p),
        "tatuzawa_lower": repr(classnum.tatuzawa_lower_bound(ctx.p)),
        "h_upper": repr(classnum.class_number_upper_bound(ctx.p)),
        "iteration_lower": repr(lo),
        "iteration_upper": repr(hi),
    }]


def report_row(r: estimator.ResourceReport) -> dict[str, str]:
    """estimate's row; integer entries as decimal strings."""
    return {
        "bits": str(r.p_bits),
        "mults_ours": str(r.oracle_mults_ours),
        "mults_bf": str(r.oracle_mults_bruteforce),
        "qubits_ours": str(r.qubits_ours),
        "qubits_bf": str(r.qubits_bruteforce),
        "iter_lo": repr(r.iterations_lower),
        "iter_hi": repr(r.iterations_upper),
        "total_lo": repr(r.total_lower),
        "total_hi": repr(r.total_upper),
    }


def cmd_estimate(args) -> list[dict]:
    return [report_row(estimator.estimate(bits=args.bits, p=args.p))]


def cmd_audit(args) -> list[dict]:
    ctx = _predicate_prime(args.p)
    s = SerialNumber(args.sigma, ctx.p)
    if args.samples < 1:
        raise InvalidInput(f"--samples must be >= 1, got {args.samples}")
    rows = estimator.audit(ctx, s, _config(ctx, args),
                           sample_size=args.samples, seed=_seed(args.seed))
    return [{
        "j": str(r.j), "b": str(r.b), "is_target": str(int(r.is_target)),
        "measured_mults": str(r.measured_mults),
        "predicted_ceiling": str(r.predicted_ceiling),
        "ratio": repr(r.ratio),
    } for r in rows]


def cmd_fp_experiment(args) -> list[dict]:
    ctx = FpContext(args.p)
    s = SerialNumber(args.sigma, ctx.p)
    taus = _taus(args.taus) if args.taus is not None else [1, 2, 4, forgery.default_tau(ctx.p)]
    if args.trials < 0:  # 0 is the exhaustive run, which a negative count would silently rerun
        raise InvalidInput(f"--trials must be >= 0, got {args.trials}")
    rows = forgery.false_positive_experiment(
        ctx, s, taus, trials=args.trials, seed=_seed(args.seed), mode=args.mode)
    return [{
        "tau": str(r.tau), "rate": repr(r.rate), "bound": repr(r.bound),
        "zero_curves": str(r.zero_curves), "total_curves": str(r.total_curves),
    } for r in rows]


@lru_cache(maxsize=None)  # built on first use, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistforge",
        description="Desk-scale lab for the division-polynomial forgery "
                    "attack on class-group-action quantum money.",
    )
    parser.add_argument("--output", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        sp = sub.add_parser(name)
        for flag, kw in flags.items():
            sp.add_argument(f"--{flag}", **kw)
        sp.set_defaults(fn=fn)
        return sp

    oracle_flags = dict(
        tau=dict(type=int, default=None),
        mode=dict(choices=forgery.MODES, default="strict_or"),
    )
    add("enumerate", cmd_enumerate,
        p=dict(type=int, required=True),
        **{"cache-dir": dict(dest="cache_dir", default=None),
           "no-structure": dict(dest="no_structure", action="store_true")})
    add("mint", cmd_mint, p=dict(type=int, required=True),
        seed=dict(type=int, default=0))
    add("check-serial", cmd_check_serial,
        p=dict(type=int, required=True), sigma=dict(type=int, required=True),
        j=dict(type=int, required=True), b=dict(type=int, required=True),
        **oracle_flags)
    add("forge-sim", cmd_forge_sim,
        p=dict(type=int, required=True), sigma=dict(type=int, required=True),
        seed=dict(type=int, default=0), **oracle_flags)
    add("classnum", cmd_classnum,
        p=dict(type=int, required=True), sigma=dict(type=int, required=True),
        **{"no-exact": dict(dest="no_exact", action="store_true")})
    add("bounds", cmd_bounds, p=dict(type=int, required=True))
    add("estimate", cmd_estimate, bits=dict(type=int, default=None),
        p=dict(type=int, default=None))
    add("audit", cmd_audit,
        p=dict(type=int, required=True), sigma=dict(type=int, required=True),
        samples=dict(type=int, default=5), seed=dict(type=int, default=0),
        **oracle_flags)
    add("fp-experiment", cmd_fp_experiment,
        p=dict(type=int, required=True), sigma=dict(type=int, required=True),
        taus=dict(default=None), trials=dict(type=int, default=0),
        seed=dict(type=int, default=0),
        mode=dict(choices=forgery.MODES, default="strict_or"))
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        rows = args.fn(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map to exit 1 per contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    _emit(rows, args.output)
    return 0


def main() -> None:
    try:
        rc = dispatch()
        sys.stdout.flush()  # a reader that closed stdout (`| head`) fails it here
    except BrokenPipeError:  # the Python docs' SIGPIPE recipe: exit 1, print nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 1
    sys.exit(rc)


if __name__ == "__main__":
    main()
