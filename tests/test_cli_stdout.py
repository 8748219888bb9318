"""Byte-level guard on the CLI's stdout.

Each case runs in process through cli.dispatch; its exit code and the
sha256 of its stdout must match tests/golden/cli_stdout.json, keyed by the
argv.  Only integer-valued outputs are guarded: float fields whose bits
depend on numpy or libm (forge-sim's success_probability, fp-experiment's
bound) are left out.  To regenerate the golden file after an intended
output change, run `PYTHONPATH=src python tests/test_cli_stdout.py`.
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
    # three members of minted supports, then three non-members
    *(["check-serial", "--p", "101", "--sigma", sigma, "--j", j, "--b", b]
      for sigma, j, b in (("103", "16", "1"), ("103", "99", "0"), ("101", "16", "0"),
                          ("103", "16", "0"), ("103", "1", "0"), ("101", "99", "0"))),
    ["audit", "--p", "101", "--sigma", "103"],
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
