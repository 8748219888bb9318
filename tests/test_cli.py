import csv
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest

import twistforge
from conftest import kronecker_class_number
from twistforge import classnum, cli


def run(argv, capsys):
    rc = cli.dispatch(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_enumerate(capsys):
    rc, out, _ = run(["enumerate", "--p", "11"], capsys)
    assert rc == 0
    rows = lines(out)
    assert len(rows) == 22
    assert all(set(r) == {"j", "b", "A", "B", "cardinality", "m", "k"} for r in rows)
    assert all(isinstance(v, str) for r in rows for v in r.values())


def test_enumerate_csv(capsys):
    rc, out, _ = run(["--output", "csv", "enumerate", "--p", "11"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 22
    assert list(rows[0]) == ["j", "b", "A", "B", "cardinality", "m", "k"]


def test_enumerate_cache_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TWISTFORGE_CACHE", str(tmp_path))
    rc, out1, _ = run(["enumerate", "--p", "11"], capsys)
    assert rc == 0
    assert os.path.exists(tmp_path / "curves_p11.csv")
    rc, out2, _ = run(["enumerate", "--p", "11"], capsys)  # served from cache
    assert rc == 0
    assert out1 == out2


def test_enumerate_cache_keeps_structure_flag(tmp_path, capsys):
    rc, fresh, _ = run(["enumerate", "--p", "11"], capsys)
    cache = ["--cache-dir", str(tmp_path)]
    rc, bare, _ = run(["enumerate", "--p", "11", "--no-structure"] + cache, capsys)
    assert rc == 0 and all(r["m"] == "0" for r in lines(bare))
    rc, out, _ = run(["enumerate", "--p", "11"] + cache, capsys)
    assert rc == 0 and out == fresh
    rc, out, _ = run(["enumerate", "--p", "11", "--no-structure"] + cache, capsys)
    assert rc == 0 and out == bare


def test_enumerate_cache_is_the_csv_output(tmp_path, capsys):
    for flags, name in (([], "curves_p11.csv"),
                        (["--no-structure"], "curves_p11_nostructure.csv")):
        rc, out, _ = run(["--output", "csv", "enumerate", "--p", "11"] + flags, capsys)
        assert rc == 0
        rc, _, _ = run(["enumerate", "--p", "11", "--cache-dir", str(tmp_path)] + flags,
                       capsys)
        assert rc == 0
        assert (tmp_path / name).read_bytes() == out.encode()


@pytest.mark.parametrize("cell", [" {}", "0{}"])
def test_enumerate_cache_serves_padded_integers_as_fresh(tmp_path, capsys, cell):
    """A cached cell with a leading space or zero is still an integer: it is
    served without a warning and printed as a fresh run prints it."""
    cache = ["--cache-dir", str(tmp_path)]
    outputs = {}
    for fmt in ("json", "csv"):
        rc, outputs[fmt], _ = run(["--output", fmt, "enumerate", "--p", "11"], capsys)
    run(["enumerate", "--p", "11"] + cache, capsys)
    path = tmp_path / "curves_p11.csv"
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    table[1] = [cell.format(v) for v in table[1]]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(table)
    for fmt, fresh in outputs.items():
        rc, out, err = run(["--output", fmt, "enumerate", "--p", "11"] + cache, capsys)
        assert (rc, out, err) == (0, fresh, "")


def _edited(table: str, row: int, **cells) -> str:
    """The CSV text table with the given cells of data row `row` replaced."""
    rows = list(csv.DictReader(io.StringIO(table)))
    rows[row].update(cells)
    return "".join(",".join(r) + "\n" for r in [list(rows[0]), *map(dict.values, rows)])


def test_enumerate_rebuilds_broken_cache(tmp_path, capsys):
    """A cache file that is malformed, or whose table a fresh run would not
    build, is rebuilt with one warning line; the rebuilt file is then
    served without one."""
    rc, fresh, _ = run(["enumerate", "--p", "11"], capsys)
    rc, table, _ = run(["--output", "csv", "enumerate", "--p", "11"], capsys)
    path = tmp_path / "curves_p11.csv"
    cache = ["--cache-dir", str(tmp_path)]
    header = "j,b,A,B,cardinality,m,k\n"
    run(["enumerate", "--p", "11", "--no-structure"] + cache, capsys)
    (tmp_path / "curves_p11_nostructure.csv").rename(path)
    stale = path.read_text()  # a no-structure table under the structure key
    # bad header, empty, a short row, too few rows, no group structure
    broken = ["j,b,A\n1,2,3\n", "", header + "0,0,0,1,12,1\n",
              header + "0,0,0,1,12,1,12\n", stale]
    # rows of the p = 11 table, each of which only one check rejects: a j, b,
    # A or B that is not the class's; #(0, 0) = 99 (m = 1, k = 99) off the
    # Hasse band 6 ... 18; #(3, 0) = 7 against #(3, 1) = 18, which breaks
    # #E + #E^t = 24; k = 11 at #E = 12 (m^2 k != #E); m = 3, k = 1 at
    # #E = 9 (3 does not divide 10); and a cell of 2^63, past int64
    broken += [_edited(table, 2, j="2"), _edited(table, 0, b="1"),
               _edited(table, 4, A="6"), _edited(table, 4, B="8"),
               _edited(table, 0, cardinality="99", k="99"),
               _edited(table, 6, cardinality="7", k="7"), _edited(table, 0, k="11"),
               _edited(table, 9, m="3", k="1"), _edited(table, 0, B=str(2**63))]
    for text in broken:
        path.write_text(text)
        rc, out, err = run(["enumerate", "--p", "11"] + cache, capsys)
        assert rc == 0 and out == fresh
        assert len(err.splitlines()) == 1 and err.startswith("warning:")
        rc, out, err = run(["enumerate", "--p", "11"] + cache, capsys)
        assert rc == 0 and out == fresh and err == ""
    assert os.listdir(tmp_path) == ["curves_p11.csv"]  # no temp file left
    # a no-structure table holds m = k = 0 in every row
    rc, bare, _ = run(["enumerate", "--p", "11", "--no-structure"], capsys)
    rc, bare_table, _ = run(["--output", "csv", "enumerate", "--p", "11", "--no-structure"],
                            capsys)
    (tmp_path / "curves_p11_nostructure.csv").write_text(_edited(bare_table, 3, k="5"))
    rc, out, err = run(["enumerate", "--p", "11", "--no-structure"] + cache, capsys)
    assert rc == 0 and out == bare
    assert len(err.splitlines()) == 1 and err.startswith("warning:")


def test_enumerate_prints_the_table_when_the_cache_cannot_be_written(tmp_path, capsys):
    """A cache directory that cannot be made, or a cache file that cannot be
    read or replaced (a directory at its path), costs a warning line each;
    the table still goes to stdout and no temp file is left."""
    rc, fresh, _ = run(["enumerate", "--p", "11"], capsys)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc, out, err = run(["enumerate", "--p", "11", "--cache-dir", str(blocker)], capsys)
    assert rc == 0 and out == fresh
    assert len(err.splitlines()) == 1 and err.startswith("warning:")
    assert os.listdir(tmp_path) == ["file"] and blocker.read_text() == ""
    (tmp_path / "curves_p11.csv").mkdir()
    rc, out, err = run(["enumerate", "--p", "11", "--cache-dir", str(tmp_path)], capsys)
    assert rc == 0 and out == fresh
    assert [line.split(":")[0] for line in err.splitlines()] == ["warning"] * 2
    assert sorted(os.listdir(tmp_path)) == ["curves_p11.csv", "file"]
    assert os.listdir(tmp_path / "curves_p11.csv") == []


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that closes stdout early, as `| head -n 1` does, ends the
    console script with exit 1 and nothing on stderr.  The table (about
    181 KB) outgrows a pipe buffer, so the child is still writing when the
    pipe closes."""
    src = os.path.dirname(os.path.dirname(twistforge.__file__))
    argv = [sys.executable, "-m", "twistforge.cli", "enumerate", "--p", "1009", "--no-structure"]
    with subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert json.loads(proc.stdout.readline())["j"] == "0"
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=60)
    assert (rc, err) == (1, b"")


def test_internal_error_exits_1(capsys, monkeypatch):
    """A plain ValueError from the library is an internal error, not invalid
    input: only fp_arith.InvalidInput exits 2."""
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli.scheme, "forge", boom)
    rc, out, err = run(["forge-sim", "--p", "101", "--sigma", "103"], capsys)
    assert (rc, out, err) == (1, "", "internal error: boom\n")


def test_mint_and_check_serial(capsys):
    rc, out, _ = run(["mint", "--p", "101", "--seed", "0"], capsys)
    assert rc == 0
    note = lines(out)[0]
    assert set(note) == {"p", "sigma", "support"}
    member = note["support"][0]
    rc, out, _ = run(["check-serial", "--p", "101", "--sigma", note["sigma"],
                      "--j", member["j"], "--b", member["b"]], capsys)
    assert rc == 0
    assert lines(out) == [{"pass": "1"}]


def test_mint_without_acceptable_sigma_exits_2(capsys):
    # no sigma over F_7 has a square-free Frobenius discriminant above 3p
    rc, out, err = run(["mint", "--p", "7", "--seed", "0"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: no acceptable sigma over F_7")


def test_check_serial_rejects(capsys):
    rc, _, err = run(["check-serial", "--p", "101", "--sigma", "102",
                      "--j", "1", "--b", "0"], capsys)
    assert rc == 2 and "error" in err
    rc, _, err = run(["check-serial", "--p", "101", "--sigma", "103",
                      "--j", "1", "--b", "5"], capsys)
    assert rc == 2
    rc, _, err = run(["check-serial", "--p", "100", "--sigma", "103",
                      "--j", "1", "--b", "0"], capsys)
    assert rc == 2


def test_forge_sim(capsys):
    rc, out, _ = run(["forge-sim", "--p", "101", "--sigma", "103"], capsys)
    assert rc == 0
    row = lines(out)[0]
    assert row["sample_passes"] == "1"
    assert float(row["success_probability"]) > 0.5
    assert row["support_size"] == "2"


def test_forge_sim_deterministic(capsys):
    rc, a, _ = run(["forge-sim", "--p", "101", "--sigma", "103", "--seed", "4"], capsys)
    rc, b, _ = run(["forge-sim", "--p", "101", "--sigma", "103", "--seed", "4"], capsys)
    assert a == b


def test_seed_beyond_64_bits(capsys):
    """A seed is any int >= 0: every seeded command takes 2^64, one past
    what a uint64 holds, and runs."""
    oracle = ["--p", "101", "--sigma", "103"]
    for argv in (["mint", "--p", "101"], ["forge-sim", *oracle], ["audit", *oracle],
                 ["fp-experiment", *oracle]):
        rc, out, err = run([*argv, "--seed", str(2**64)], capsys)
        assert (rc, err) == (0, "") and out, argv


@pytest.mark.parametrize("p", [31, 37, 101, 229, 1009])
def test_forge_sim_support_is_the_kronecker_class_number(p, capsys):
    """At sigma the scheme does not accept, as at those it does, the forged
    note's support is every class of trace t = p + 1 - sigma: H(t^2 - 4p)
    of them (Deuring, Schoof), so Grover's plan rests on a class number."""
    hasse = math.isqrt(4 * p)
    sigmas = [s for s in range(p + 1 - hasse, p + 2 + hasse)
              if s != p + 1 and not classnum.frobenius_discriminant(p, s).accepted]
    for sigma in random.Random(p).sample(sigmas, 6):
        rc, out, _ = run(["forge-sim", "--p", str(p), "--sigma", str(sigma)], capsys)
        t = p + 1 - sigma
        assert rc == 0, (p, sigma)
        assert lines(out)[0]["support_size"] == str(kronecker_class_number(t * t - 4 * p)), (p, sigma)


def test_classnum(capsys):
    rc, out, _ = run(["classnum", "--p", "101", "--sigma", "107"], capsys)
    assert rc == 0
    row = lines(out)[0]
    assert row["d"] == "-379" and row["h"] == "3" and row["accepted"] == "1"


def test_bounds(capsys):
    rc, out, _ = run(["bounds", "--p", "101"], capsys)
    assert rc == 0
    row = lines(out)[0]
    assert float(row["iteration_lower"]) < float(row["iteration_upper"])


def test_estimate(capsys):
    rc, out, _ = run(["estimate", "--bits", "256"], capsys)
    assert rc == 0
    row = lines(out)[0]
    assert row["mults_ours"] == "127401984"
    assert row["qubits_ours"] == "786432"
    rc, _, err = run(["estimate"], capsys)
    assert rc == 2
    rc, _, err = run(["estimate", "--bits", "7"], capsys)
    assert rc == 2
    for p in ("101", "0"):  # under 8 bits, and not positive
        rc, _, err = run(["estimate", "--p", p], capsys)
        assert rc == 2 and err.startswith("error:")
    rc, _, _ = run(["estimate", "--p", "131"], capsys)
    assert rc == 0
    rc, out, _ = run(["estimate", "--bits", "10", "--p", "1009"], capsys)
    assert rc == 0 and lines(out)[0]["bits"] == "10"
    # a composite p exits 2, a strong base-2 pseudoprime (2047 = 23 * 89) too
    for p in ("1000", "2047"):
        rc, out, err = run(["estimate", "--p", p], capsys)
        assert (rc, out) == (2, "") and err == f"error: p must be prime, got {p}\n", (p, err)
    for p, bits in ((1009, "10"), (2**127 - 1, "127")):
        rc, out, _ = run(["estimate", "--p", str(p)], capsys)
        assert rc == 0 and lines(out)[0]["bits"] == bits, p


def test_audit(capsys):
    rc, out, _ = run(["audit", "--p", "101", "--sigma", "103", "--samples", "3"],
                     capsys)
    assert rc == 0
    rows = lines(out)
    assert len(rows) == 3
    for r in rows:
        assert int(r["measured_mults"]) <= int(r["predicted_ceiling"])


def test_fp_experiment(capsys):
    rc, out, _ = run(["fp-experiment", "--p", "101", "--sigma", "103",
                      "--taus", "1,2,4"], capsys)
    assert rc == 0
    rows = lines(out)
    assert [r["tau"] for r in rows] == ["1", "2", "4"]
    assert all(float(r["rate"]) <= 1.0 for r in rows)


def test_usage_errors_exit_2(capsys):
    rc, _, _ = run(["enumerate", "--p", "12"], capsys)
    assert rc == 2
    rc, _, _ = run(["enumerate"], capsys)  # missing required flag
    assert rc == 2
    rc, _, _ = run(["no-such-command"], capsys)
    assert rc == 2
    oracle = ["--p", "101", "--sigma", "103"]
    for argv in (
        ["check-serial", *oracle, "--j", "5", "--b", "0", "--tau", "0"],
        ["check-serial", *oracle, "--j", "5", "--b", "0", "--tau", "-2"],
        ["forge-sim", *oracle, "--tau", "0"],
        ["forge-sim", *oracle, "--tau", "-2"],
        # random.Random(-s) is seeded like Random(s)
        ["mint", "--p", "101", "--seed", "-3"],
        ["forge-sim", *oracle, "--seed", "-1"],
        ["audit", *oracle, "--seed", "-1"],
        ["fp-experiment", *oracle, "--seed", "-1"],
        ["audit", *oracle, "--tau", "0"],
        ["audit", *oracle, "--tau", "-2"],
        ["fp-experiment", *oracle, "--taus", "-1"],
        ["fp-experiment", *oracle, "--taus", "a"],
        ["fp-experiment", *oracle, "--taus", ""],
        # --trials 0 is the exhaustive run
        ["fp-experiment", *oracle, "--trials", "-3"],
        ["audit", *oracle, "--samples", "0"],
        ["audit", *oracle, "--samples", "-3"],
        ["estimate", "--bits", "1022"],
        ["estimate", "--bits", "1024"],
        ["estimate", "--p", str(2**1021 + 1)],
        ["estimate", "--bits", "1021", "--p", "3"],
        ["estimate", "--bits", "8", "--p", "1009"],
        # the serial predicate passes classes of another count below 31
        ["check-serial", "--p", "17", "--sigma", "24", "--j", "10", "--b", "0"],
        ["forge-sim", "--p", "17", "--sigma", "24"],
        ["audit", "--p", "29", "--sigma", "40"],
    ):
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error: "), (argv, err)


def test_estimate_names_p_beyond_its_range(capsys):
    """A --p given alone is checked as p: n = 1022 is beyond the 1021-bit
    cap, and the message names p, not the bits that were never given."""
    rc, out, err = run(["estimate", "--p", str(2**1021 + 1)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: p must be <= 2^1021"), err
    assert "bits must" not in err
    # the largest probable prime below 2^1021
    rc, out, _ = run(["estimate", "--p", str(2**1021 - 553)], capsys)
    assert rc == 0 and lines(out)[0]["bits"] == "1021"


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("argv", [
    ["check-serial", "--p", "2147483647", "--sigma", "2147483000", "--j", "5", "--b", "0"],
    ["audit", "--p", "2147483647", "--sigma", "2147483000"],
])
def test_check_path_at_int64_edge_under_1gib_cap(argv):
    """check-serial and audit hold no O(p) state: at p = 2^31 - 1 one int64
    table would ask for 16 GiB, which the 1 GiB address-space cap of the
    child turns into an exit 1.

    The child reports its peak as VmHWM, the high-water RSS of the address
    space that exec gave it. Its ru_maxrss would not do: Linux carries the
    peak of the forked copy of this pytest process across exec, so it reads
    the parent's size once the suite has grown past 64 MB."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    script = (
        "import sys\n"
        "from twistforge import cli\n"
        f"rc = cli.dispatch({argv!r})\n"
        "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
        "print(hwm[0].split()[1], file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    src = os.path.dirname(os.path.dirname(twistforge.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=cap, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    peak_kib = int(proc.stderr.split()[-1])
    assert peak_kib < 64 * 1024, peak_kib
    assert lines(proc.stdout)
