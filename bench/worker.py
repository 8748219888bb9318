"""One measured process: the program's set-up, then a closed loop of ops
with one client.  Started by run.py, which passes the op list on stdin and
reads one JSON result from stdout.

    worker.py WORKLOAD --t0 NS --mode setup|run|trace [--seconds S] [--smoke]
              [--spans PATH]

--t0 is the parent's CLOCK_MONOTONIC reading (ns) just before it started
this process, so set-up time counts from process start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _loop(wl, state, ops, seconds, tracer):
    """Run ops in order for `seconds`, restarting the list if it runs out,
    with speed probes between them."""
    latencies, mids, records = [], [], []
    clock = time.perf_counter
    pacer = speed.Pacer(wl.speed)
    start = clock()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if tracer:
            before = [tracer.mults(n) for n in spans.LEDGER]
            root = tracer.enter("op", True)
        t = clock()
        try:
            rec = wl.run(state, op)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            rec = {"error": repr(exc)}
        latencies.append(clock() - t)
        mids.append(t + latencies[-1] / 2)
        if tracer:
            tracer.exit(root)
            rec["ledger"] = [tracer.mults(n) - b for n, b in zip(spans.LEDGER, before)]
        records.append(rec)
        pacer.after(latencies[-1])
        i += 1
        if clock() - start >= seconds:
            elapsed = clock() - start
            pacer.finish()
            return elapsed, latencies, mids, pacer.probes, records, i > len(ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    os.environ.pop("TWISTFORGE_CACHE", None)  # every op computes its table
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.smoke)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0) / 1e9
    import twistforge
    if not os.path.abspath(twistforge.__file__).startswith(SRC + os.sep):
        print(f"twistforge was imported from {twistforge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = json.load(sys.stdin)
    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
    if hasattr(wl, "tap"):
        wl.tap(state)
    elapsed, latencies, mids, probes, records, cycled = _loop(
        wl, state, ops, args.seconds, tracer)
    out = {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "mids": mids,
        "probes": probes,
        "records": records,
        "cycled": cycled,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        out["layers"] = {k: vars(v) for k, v in tracer.layers.items()}
        out["stats"] = tracer.stats
        out["genuine_oracle"] = tracer.genuine_oracle
        out["missing"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
