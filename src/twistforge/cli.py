"""Command-line front end.

One report per line on stdout (JSON by default, CSV with --output csv),
diagnostics on stderr.  Exit codes: 0 success, 2 validation failure,
1 internal error.  All integers in JSON output are decimal strings.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import io
import json
import os
import sys
from functools import lru_cache

from . import classnum, curves, estimator, forgery, grover, scheme
from .curves import CurveClass
from .fp_arith import FpContext, MAX_PRIME, is_prime
from .forgery import InvalidSerial, OracleConfig, SerialNumber

CACHE_ENV = "TWISTFORGE_CACHE"


class UsageError(ValueError):
    pass


def _parse_prime(value: int) -> FpContext:
    if not (5 <= value < MAX_PRIME) or not is_prime(value):
        raise UsageError(f"p must be a prime in [5, 2^31), got {value}")
    return FpContext(value)


def _serial(ctx: FpContext, sigma: int) -> SerialNumber:
    try:
        return SerialNumber(sigma, ctx.p)
    except InvalidSerial as exc:
        raise UsageError(str(exc)) from exc


def _config(ctx: FpContext, args) -> OracleConfig:
    try:
        return OracleConfig.for_prime(ctx.p, mode=args.mode, tau=args.tau)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _taus(text: str) -> list[int]:
    try:
        taus = [int(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(f"--taus must be comma-separated integers, got {text!r}") from None
    if min(taus) < 0:
        raise UsageError(f"--taus must be >= 0, got {text!r}")
    return taus


def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        for row in rows:
            sys.stdout.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        if not rows:
            return
        buf = io.StringIO()
        writer = csv_mod.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())


def _s(v) -> str:
    return str(v)


def _cached_table(ctx: FpContext, path: str,
                  with_structure: bool) -> list[curves.CurveTableRow] | None:
    """The table cached at path; None (with a warning) if it is malformed."""
    try:
        rows = curves.read_curve_table(path)
    except ValueError as exc:
        reason = str(exc)
    else:
        if len(rows) != curves.class_count(ctx):
            reason = f"{len(rows)} rows, expected {curves.class_count(ctx)}"
        elif any((r.m > 0) != with_structure for r in rows):  # m = 0 marks no structure
            reason = "group structure missing" if with_structure else "unexpected group structure"
        else:
            return rows
    print(f"warning: rebuilding cache file {path}: {reason}", file=sys.stderr)
    return None


def cmd_enumerate(args) -> list[dict]:
    ctx = _parse_prime(args.p)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    rows = None
    path = None
    if cache_dir:
        # tables without group structure hold m = k = 0, so they get their own file
        suffix = "_nostructure" if args.no_structure else ""
        path = os.path.join(cache_dir, f"curves_p{ctx.p}{suffix}.csv")
        if os.path.exists(path):
            rows = _cached_table(ctx, path, not args.no_structure)
    if rows is None:
        rows = curves.build_curve_table(ctx, with_structure=not args.no_structure)
        if path:
            os.makedirs(cache_dir, exist_ok=True)
            curves.write_curve_table(path, rows)
    return [
        {"j": _s(r.j), "b": _s(r.b), "A": _s(r.A), "B": _s(r.B),
         "cardinality": _s(r.cardinality), "m": _s(r.m), "k": _s(r.k)}
        for r in rows
    ]


def cmd_mint(args) -> list[dict]:
    ctx = _parse_prime(args.p)
    try:
        note = scheme.mint(ctx, args.seed)
    except scheme.Exhausted as exc:
        raise UsageError(str(exc)) from exc
    return [json.loads(scheme.banknote_to_json(note))]


def cmd_check_serial(args) -> list[dict]:
    ctx = _parse_prime(args.p)
    s = _serial(ctx, args.sigma)
    c = CurveClass(args.j, args.b)
    if not (0 <= args.j < ctx.p and 0 <= args.b < curves.b_range(ctx, args.j)):
        raise UsageError(f"(j={args.j}, b={args.b}) is not a legal class mod {ctx.p}")
    bit = scheme.check_serial(ctx, c, s, _config(ctx, args))
    return [{"pass": _s(bit)}]


def cmd_forge_sim(args) -> list[dict]:
    ctx = _parse_prime(args.p)
    s = _serial(ctx, args.sigma)
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    try:
        result = scheme.forge(ctx, s, _config(ctx, args), seed=args.seed)
    except grover.NoTarget as exc:
        raise UsageError(str(exc)) from exc
    return [{
        "p": _s(ctx.p),
        "sigma": _s(s.sigma),
        "success_probability": repr(result.success_probability),
        "oracle_queries": _s(result.oracle_queries),
        "sample_j": _s(result.sample.j),
        "sample_b": _s(result.sample.b),
        "sample_passes": _s(int(result.sample_passes)),
        "support_size": _s(len(result.banknote.support)),
    }]


def cmd_classnum(args) -> list[dict]:
    ctx = _parse_prime(args.p)
    s = _serial(ctx, args.sigma)
    fr = classnum.frobenius_discriminant(ctx.p, s.sigma)
    rep = classnum.class_number_report(ctx.p, s.sigma, with_exact=not args.no_exact)
    return [{
        "p": _s(ctx.p),
        "sigma": _s(s.sigma),
        "d": _s(rep.d.d),
        "delta": _s(fr.delta),
        "accepted": _s(int(fr.accepted)),
        "is_fundamental": _s(int(rep.d.is_fundamental)),
        "h": _s(rep.h) if rep.h is not None else "",
        "tatuzawa_lower": repr(rep.tatuzawa_lower),
        "tatuzawa_valid": _s(int(rep.tatuzawa_valid)),
        "l_upper": repr(rep.l_upper),
        "h_upper": repr(rep.h_upper),
        "iteration_lower": repr(rep.iteration_lower),
        "iteration_upper": repr(rep.iteration_upper),
    }]


def cmd_bounds(args) -> list[dict]:
    ctx = _parse_prime(args.p)
    lo, hi = classnum.iteration_bounds(ctx.p)
    return [{
        "p": _s(ctx.p),
        "tatuzawa_lower": repr(classnum.tatuzawa_lower_bound(ctx.p)),
        "h_upper": repr(classnum.class_number_upper_bound(ctx.p)),
        "iteration_lower": repr(lo),
        "iteration_upper": repr(hi),
    }]


def cmd_estimate(args) -> list[dict]:
    try:
        report = estimator.estimate(bits=args.bits, p=args.p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return [estimator.report_row(report)]


def cmd_audit(args) -> list[dict]:
    ctx = _parse_prime(args.p)
    s = _serial(ctx, args.sigma)
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    rows = estimator.audit(ctx, s, _config(ctx, args),
                           sample_size=args.samples, seed=args.seed)
    return [{
        "j": _s(r.j), "b": _s(r.b), "is_target": _s(int(r.is_target)),
        "measured_mults": _s(r.measured_mults),
        "predicted_ceiling": _s(r.predicted_ceiling),
        "ratio": repr(r.ratio),
    } for r in rows]


def cmd_fp_experiment(args) -> list[dict]:
    ctx = _parse_prime(args.p)
    s = _serial(ctx, args.sigma)
    taus = _taus(args.taus) if args.taus is not None else [1, 2, 4, forgery.default_tau(ctx.p)]
    rows = forgery.false_positive_experiment(
        ctx, s, taus, trials=args.trials, seed=args.seed, mode=args.mode)
    return [{
        "tau": _s(r.tau), "rate": repr(r.rate), "bound": repr(r.bound),
        "zero_curves": _s(r.zero_curves), "total_curves": _s(r.total_curves),
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map to exit 1 per contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    _emit(rows, args.output)
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
