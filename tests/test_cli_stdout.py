"""Byte-level guard on the CLI's stdout.

Each case runs in process through cli.dispatch; its exit code and the
sha256 of its stdout must match tests/golden/cli_stdout.json, keyed by the
argv.  Float fields are printed with repr, so some pins (forge-sim's
success_probability, fp-experiment's bound, the estimate and bounds
columns) hold for the numpy and libm they were made with.  To regenerate
the golden file after an intended output change, run
`PYTHONPATH=src python tests/test_cli_stdout.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from twistforge import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_stdout.json")

CASES = [
    *([*fmt, "enumerate", "--p", str(p), *flag]
      for p in (5, 7, 11, 13, 17, 101)
      for fmt, flag in (([], []), (["--output", "csv"], []), ([], ["--no-structure"]))),
    *(["mint", "--p", str(p), "--seed", str(seed)]
      for p in (5, 11, 101, 499) for seed in range(10)),
    # the support cell holds the JSON of the JSON line
    ["--output", "csv", "mint", "--p", "101", "--seed", "0"],
    # three members of minted supports, then three non-members
    *(["check-serial", "--p", "101", "--sigma", sigma, "--j", j, "--b", b]
      for sigma, j, b in (("103", "16", "1"), ("103", "99", "0"), ("101", "16", "0"),
                          ("103", "16", "0"), ("103", "1", "0"), ("101", "99", "0"))),
    ["audit", "--p", "101", "--sigma", "103"],
    *(["forge-sim", "--p", p, "--sigma", sigma, *flag]
      for p, sigma, flag in (("101", "103", []), ("499", "480", []),
                             ("1009", "1012", ["--seed", "3"]),
                             ("101", "110", ["--mode", "paper_sum"]))),
    ["estimate", "--bits", "128"],
    ["estimate", "--bits", "256"],
    ["estimate", "--p", "1009"],
    ["--output", "csv", "estimate", "--bits", "512"],
    ["bounds", "--p", "101"],
    ["bounds", "--p", "100003"],
    ["classnum", "--p", "101", "--sigma", "107"],
    ["classnum", "--p", "1009", "--sigma", "1000", "--no-exact"],
    ["fp-experiment", "--p", "101", "--sigma", "103"],
    ["fp-experiment", "--p", "1009", "--sigma", "1000", "--trials", "200", "--seed", "4",
     "--mode", "paper_sum"],
    # the CSV column order of every other command; classnum at p = 5, sigma = 2
    # has Delta = 4, below the exact class number's range, so its h cell is empty
    *(["--output", "csv", *argv] for argv in (
        ["check-serial", "--p", "101", "--sigma", "103", "--j", "16", "--b", "1"],
        ["forge-sim", "--p", "101", "--sigma", "103"],
        ["classnum", "--p", "101", "--sigma", "107"],
        ["classnum", "--p", "5", "--sigma", "2"],
        ["bounds", "--p", "101"],
        ["audit", "--p", "101", "--sigma", "103"],
        ["fp-experiment", "--p", "101", "--sigma", "103"])),
]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.dispatch(argv)
    return {"rc": rc, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_cases():
    assert sorted(load_golden()) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_matches_golden(argv):
    assert run(argv) == load_golden()[" ".join(argv)]


if __name__ == "__main__":
    golden = {" ".join(argv): run(argv) for argv in CASES}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
