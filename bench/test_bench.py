"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import golden
import run
import speed
import truth

sys.path.insert(0, run.SRC)


def _bench(*argv, cwd=None, script=os.path.join(run.HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *argv], cwd=cwd or run.ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace, metrics", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_smoke_runs_every_workload_with_checks(trace, metrics):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(run.workloads.WORKLOADS)
    expect = {f"{w}.{name}": unit for w in run.workloads.WORKLOADS for name, unit in metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expect
    if trace:
        ratio = result["metrics"]["verify.estimator.ceiling_ratio"]["value"]
        assert 0 < ratio < 1


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _checkout_copy(dst, golden_text=None):
    shutil.copytree(run.HERE, os.path.join(dst, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(run.SRC, os.path.join(dst, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if golden_text is not None:
        os.makedirs(os.path.join(dst, "tests", "golden"))
        with open(os.path.join(dst, "tests", "golden", "mult_counts.json"), "w") as fh:
            fh.write(golden_text)


def _altered_golden() -> str:
    with open(run.GOLDEN) as fh:
        data = json.load(fh)
    data["eval"][0]["measured_mults"] += 1
    return json.dumps(data)


def test_golden_gate_passes_on_the_committed_file():
    assert golden.gate(run.GOLDEN) > 0


def test_golden_gate_refuses_an_altered_copy(tmp_path):
    path = tmp_path / "mult_counts.json"
    path.write_text(_altered_golden())
    with pytest.raises(golden.GoldenMismatch):
        golden.gate(str(path))
    _checkout_copy(str(tmp_path / "co"), _altered_golden())
    proc = _bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                  "--smoke", script=str(tmp_path / "co" / "bench" / "run.py"))
    assert proc.returncode != 0
    assert "golden gate refused" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                  cwd=str(tmp_path), script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    lat = [float(i) for i in range(100)]
    pct, value = run._tail(lat)
    assert sum(x > value for x in lat) == 10 and pct == 90.0
    assert run._tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_scale_uses_the_median_of_the_nearest_probes():
    ref = speed.REF_S["scalar"]
    # Probes at t = 0..29; the machine runs at half speed from t = 15 on.
    probes = [(float(t), ref * (2 if t >= 15 else 1)) for t in range(30)]
    early, late, edge = speed.scale(probes, [3.5, 25.5, 14.5], "scalar")
    assert (early, late) == (1.0, 0.5)
    assert edge == 0.5  # 5 of its 9 nearest probes are slow


def test_point_counter_matches_exhaustive_counts():
    from twistforge import curves
    from twistforge.curves import NonResidueTable
    from twistforge.fp_arith import FpContext

    ctx = FpContext(101)
    nr = NonResidueTable.for_prime(ctx)
    counter = truth.PointCounter(101)
    for c in curves.enumerate_classes(ctx):
        E = curves.get_weierstrass_pair(ctx, c, nr)
        assert counter.count(E.A, E.B) == curves.count_points(ctx, E)
        assert truth.j_invariant(101, E.A, E.B) == c.j
