"""twistforge benchmark.

    python3 bench/run.py --workload verify|forge|mint|census|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from any directory; the program is imported from ../src beside this
file.  Before timing, the golden gate recomputes tests/golden/mult_counts.json
and refuses to go on if a count differs.  The inputs are made from --seed;
the program sees only them.  Each workload is a closed loop with one
client in a fresh worker process (worker.py) for --seconds.  A speed
probe runs between ops, and every time reported is scaled to the probe's
reference speed (speed.py); the info line gives the times unscaled.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
ones: half the run is an untraced worker, half a traced one (spans are
written to bench/out/).  Outputs are checked after timing against the
benchmark's own ground truth (truth.py).  The last line of stdout is one
JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--smoke runs every workload at p = 101, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import golden
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden", "mult_counts.json")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3  # set-up is measured this often before the run, again after
WORKER_GRACE_S = 90  # beyond --seconds: set-up, the last op, the result

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("fp_arith.mults_per_op", "mults/op"),
    ("fp_arith.ns_per_mult", "ns/mult"),
    ("curves.pair_calls", "calls/op"),
    ("curves.pair_self_s", "s/op"),
    ("curves.pair_mults_per_op", "mults/op"),
    ("curves.count_batch_s", "s/op"),
    ("curves.count_batch_cells", "cells/op"),
    ("curves.count_batch_bytes", "B/op"),
    ("curves.structure_calls", "calls/op"),
    ("curves.structure_self_s", "s/op"),
    ("curves.table_self_s", "s/op"),
    ("divpoly.eval_calls", "calls/op"),
    ("divpoly.eval_self_s", "s/op"),
    ("divpoly.eval_mults_per_op", "mults/op"),
    ("divpoly.eval_mults_per_bit", "mults/bit"),
    ("divpoly.batch_lanes", "lanes/op"),
    ("divpoly.batch_setup_s", "s/op"),
    ("divpoly.batch_eval_s", "s/op"),
    ("divpoly.batch_ns_per_lane", "ns/lane"),
    ("forgery.G_self_s", "s/op"),
    ("forgery.euler_mults_per_op", "mults/op"),
    ("forgery.F_self_s", "s/op"),
    ("forgery.x_probed_counterfeit", "x/check"),
    ("forgery.batch_marked_self_s", "s/op"),
    ("forgery.sweep_lanes_per_class", "lanes/class"),
    ("forgery.marked_ratio", "ratio"),
    ("grover.run_s", "s/op"),
    ("grover.iterations_per_op", "iter/op"),
    ("grover.state_len", "amplitudes"),
    ("grover.ns_per_amp_iter", "ns/amp-iter"),
    ("grover.success_min", "probability"),
    ("classnum.report_s", "s/op"),
    ("classnum.exact_calls", "calls/op"),
    ("classnum.exact_s", "s/op"),
    ("scheme.check_serial_self_s", "s/op"),
    ("scheme.forge_self_s", "s/op"),
    ("scheme.mint_self_s", "s/op"),
    ("scheme.mint_draws_per_note", "draws/note"),
    ("estimator.ceiling_ratio", "ratio"),
    ("cli.self_s", "s/op"),
    ("cli.stdout_bytes_per_op", "B/op"),
    ("trace.overhead", "ratio"),
]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _spawn(workload, mode, smoke, seconds=0.0, ops=None, spans_path=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           "--mode", mode, "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if spans_path:
        cmd += ["--spans", spans_path]
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--t0", str(t0)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(json.dumps(ops or []).encode(),
                                  timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker ({mode}) timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10
    samples beyond it, never below the median."""
    lat = sorted(latencies)
    k = len(lat) - 11
    if k < (len(lat) - 1) / 2:
        return 50.0, statistics.median(lat)
    return 100.0 * (k + 1) / len(lat), lat[k]


def _problems(wl, op, rec, traced) -> list[str]:
    if "error" in rec:
        return [f"raised {rec['error']}"]
    problems = wl.check(op, rec)
    if traced and "mults" in rec:
        pair, g, ev = rec["ledger"]
        euler = g - ev  # G bills the Euler criterion, then its psi call
        if pair + euler + ev != rec["mults"]:
            problems.append(f"ledger pair {pair} + euler {euler} + eval {ev} "
                            f"!= {rec['mults']} billed")
    return problems


def _stdout_bytes(rec: dict) -> int:
    return (len(rec.get("out", "")) + len(rec.get("table", ""))
            + sum(len(r) for r in rec.get("reports", [])))


def _scaled(res: dict, kind: str) -> list[float]:
    """The run's op latencies, scaled to the reference speed of the
    workload's probe (speed.py)."""
    factors = speed.scale(res["probes"], res["mids"], kind)
    return [t * f for t, f in zip(res["latencies_s"], factors)]


def _rate(lat: list[float]) -> float:
    """Ops per second of busy time."""
    return len(lat) / sum(lat)


def _timings(lat: list[float], setups: list[float]) -> dict:
    return {"ops_per_s": _rate(lat), "op_ms_p50": 1e3 * statistics.median(lat),
            "op_ms_tail": 1e3 * _tail(lat)[1], "setup_s": statistics.median(setups)}


def end_to_end(res: dict, setups: list[float], kind: str) -> tuple[dict, dict]:
    """Throughput and latency scaled to the reference speed of the
    workload's probe; set-up time and peak RSS as measured.  The info line
    gives the op times unscaled, with the median scale factor.

    Set-up time is not scaled.  For verify and census, over sets of 5 to 10
    runs, its spread (IQR/median) was 0.11-0.24 as measured, 0.12-0.26
    scaled by probes run right after it in the same process, and 0.28-0.34
    scaled by the run's own probes: imports, most of it, do not follow the
    probe."""
    setups = setups + [res["setup_s"]]
    metrics = _timings(_scaled(res, kind), setups)
    metrics["peak_rss_mb"] = res["peak_rss_kib"] / 1024
    raw = _timings(res["latencies_s"], setups)
    pct, _ = _tail(res["latencies_s"])
    info = {"ops": len(res["latencies_s"]), "tail_percentile": round(pct, 2),
            "setup_samples": len(setups), "probe": kind,
            "scale": round(statistics.median(speed.scale(res["probes"], res["mids"], kind)), 4),
            "unscaled": {m: round(v, 6) for m, v in raw.items()}}
    mults = [r["mults"] for r in res["records"] if "mults" in r]
    if mults:
        info["mults_per_op"] = sum(mults) / len(mults)
    return {m: metrics[m] for m, _ in END_TO_END}, info


def per_layer(plain: dict, traced: dict, kind: str) -> tuple[dict, dict]:
    from twistforge import estimator

    def ceiling(p):  # 1944 n^2 with n = ceil(log2 p), as estimator.audit bills it
        return estimator.ORACLE_MULTS_CONST * math.ceil(math.log2(p)) ** 2

    n = len(traced["records"])
    layers, stats = traced["layers"], traced["stats"]

    def L(name, field):
        return layers.get(name, {}).get(field, 0)

    def S(name):
        return stats.get(name, 0.0)

    mults = L("curves.get_weierstrass_pair", "mults") + L("forgery.G", "mults")
    plain_mults = sum(r.get("mults", 0) for r in plain["records"]) or \
        len(plain["records"]) * mults / n
    ba_s = L("divpoly.BatchAmbient.__init__", "total_s") + L("divpoly.BatchAmbient.eval", "total_s")
    ceilings = [m / ceiling(p) for p, m in traced["genuine_oracle"]]
    metrics = {
        "fp_arith.mults_per_op": mults / n,
        "fp_arith.ns_per_mult": 1e9 * _ratio(plain["elapsed_s"], plain_mults),
        "curves.pair_calls": L("curves.get_weierstrass_pair", "calls") / n,
        "curves.pair_self_s": L("curves.get_weierstrass_pair", "self_s") / n,
        "curves.pair_mults_per_op": L("curves.get_weierstrass_pair", "mults") / n,
        "curves.count_batch_s": L("curves.count_points_batch", "total_s") / n,
        "curves.count_batch_cells": S("curves.count_batch_cells") / n,
        "curves.count_batch_bytes": 8 * S("curves.count_batch_cells") / n,
        "curves.structure_calls": L("curves.group_structure", "calls") / n,
        "curves.structure_self_s": L("curves.group_structure", "self_s") / n,
        "curves.table_self_s": L("curves.build_curve_table", "self_s") / n,
        "divpoly.eval_calls": L("divpoly.eval_division_poly", "calls") / n,
        "divpoly.eval_self_s": L("divpoly.eval_division_poly", "self_s") / n,
        "divpoly.eval_mults_per_op": L("divpoly.eval_division_poly", "mults") / n,
        "divpoly.eval_mults_per_bit": _ratio(L("divpoly.eval_division_poly", "mults"),
                                             S("divpoly.eval_bits")),
        "divpoly.batch_lanes": S("divpoly.batch_lanes") / n,
        "divpoly.batch_setup_s": L("divpoly.BatchAmbient.__init__", "total_s") / n,
        "divpoly.batch_eval_s": L("divpoly.BatchAmbient.eval", "total_s") / n,
        "divpoly.batch_ns_per_lane": 1e9 * _ratio(ba_s, S("divpoly.batch_lanes")),
        "forgery.G_self_s": L("forgery.G", "self_s") / n,
        "forgery.euler_mults_per_op":
            (L("forgery.G", "mults") - L("divpoly.eval_division_poly", "mults")) / n,
        "forgery.F_self_s": L("forgery.F", "self_s") / n,
        "forgery.x_probed_counterfeit": _ratio(S("forgery.F_reject_x"), S("forgery.F_rejects")),
        "forgery.batch_marked_self_s": L("forgery.batch_marked", "self_s") / n,
        "forgery.sweep_lanes_per_class": _ratio(S("forgery.sweep_lanes"), S("forgery.sweep_classes")),
        "forgery.marked_ratio": _ratio(S("forgery.sweep_marked"), S("forgery.sweep_classes")),
        "grover.run_s": L("grover.run_search", "total_s") / n,
        "grover.iterations_per_op": S("grover.iterations") / n,
        "grover.state_len": _ratio(S("grover.state_len"), S("grover.searches")),
        "grover.ns_per_amp_iter": 1e9 * _ratio(L("grover.run_search", "total_s"), S("grover.amp_iters")),
        "grover.success_min": S("grover.success_min"),
        "classnum.report_s": L("classnum.class_number_report", "total_s") / n,
        "classnum.exact_calls": L("classnum.exact_class_number", "calls") / n,
        "classnum.exact_s": L("classnum.exact_class_number", "total_s") / n,
        "scheme.check_serial_self_s": L("scheme.check_serial", "self_s") / n,
        "scheme.forge_self_s": L("scheme.forge", "self_s") / n,
        "scheme.mint_self_s": L("scheme.mint", "self_s") / n,
        "scheme.mint_draws_per_note": _ratio(S("scheme.mint_draws"), S("scheme.mint_notes")),
        "estimator.ceiling_ratio": statistics.fmean(ceilings) if ceilings else 0.0,
        "cli.self_s": L("cli.dispatch", "self_s") / n,
        "cli.stdout_bytes_per_op": sum(map(_stdout_bytes, traced["records"])) / n,
        "trace.overhead": _rate(_scaled(plain, kind)) / _rate(_scaled(traced, kind)),
    }
    info = {"traced_ops": n, "untraced_ops": len(plain["records"])}
    if traced["missing"]:
        info["unwrapped"] = traced["missing"]
    return metrics, info


def run_workload(name: str, args) -> dict:
    wl = workloads.WORKLOADS[name]
    t = time.perf_counter()
    ops = wl.inputs(random.Random(args.seed), args.seconds, args.smoke)
    truth_s = time.perf_counter() - t
    if args.trace:
        # Half the time untraced, for trace.overhead, and half traced.
        os.makedirs(OUT, exist_ok=True)
        half = args.seconds / 2
        plain = _spawn(name, "run", args.smoke, half, ops)
        traced = _spawn(name, "trace", args.smoke, half, ops,
                        os.path.join(OUT, f"spans-{name}-{args.seed}.json"))
        runs = [(plain, False), (traced, True)]
        metrics, info = per_layer(plain, traced, wl.speed)
        units = dict(PER_LAYER)
    else:
        setups = [_spawn(name, "setup", args.smoke)["setup_s"] for _ in range(SETUP_PROBES)]
        plain = _spawn(name, "run", args.smoke, args.seconds, ops)
        setups += [_spawn(name, "setup", args.smoke)["setup_s"] for _ in range(SETUP_PROBES)]
        runs = [(plain, False)]
        metrics, info = end_to_end(plain, setups, wl.speed)
        units = dict(END_TO_END)
    t = time.perf_counter()
    attempted = failed = 0
    for res, traced in runs:
        for i, rec in enumerate(res["records"]):
            problems = _problems(wl, ops[i % len(ops)], rec, traced)
            attempted += 1
            if problems:
                failed += 1
                if failed <= 5:
                    print(f"{name}: op {i}: {'; '.join(problems)}", file=sys.stderr)
        if res["cycled"]:
            info["cycled"] = True
    info.update(truth_s=round(truth_s, 3), check_s=round(time.perf_counter() - t, 3),
                failed_ratio=_ratio(failed, attempted))
    if name == "verify" and args.trace:
        from twistforge import forgery

        info["per_x_zero_bound"] = forgery.per_x_zero_bound(ops[0]["p"])
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "info": info,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at p = 101 (for the benchmark's tests)")
    args = ap.parse_args(argv)

    for path in (os.path.join(SRC, "twistforge", "__init__.py"), GOLDEN):
        if not os.path.isfile(path):
            print(f"error: {path} is missing; run from a twistforge checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    try:
        checked = golden.gate(GOLDEN)
    except golden.GoldenMismatch as exc:
        print(f"error: golden gate refused: {exc}", file=sys.stderr)
        return 1
    print(f"golden gate: {checked} multiplication counts reproduce")

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = res = run_workload(name, args)
            for metric, m in res["metrics"].items():
                print(f"{name:7s} {metric:30s} {m['value']:>16.6g} {m['unit']}")
            print(f"{name:7s} info {json.dumps(res['info'])}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
