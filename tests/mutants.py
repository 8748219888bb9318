"""Recorded mutants of the program, each of which some test must kill.

Each entry of MUTANTS is a name, a file under the repository root, an old
text that occurs in it exactly once, the new text that replaces it, and
the pytest selection that must then fail.  Run

    python tests/mutants.py

from anywhere: each mutant is applied to its own copy of src/, tests/ and
pyproject.toml in a temporary directory, and its selection is run there
under `pytest -x`.  The run exits 1 if a mutant survives (its selection
passes), if its old text no longer occurs exactly once (a refactor moved
it: update the entry), or if its selection cannot run at all.  A change
that reports a mutant adds it here as well.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    selection: str


DIVPOLY = "src/twistforge/divpoly.py"

MUTANTS = [
    # the billed walk's deficit tables and their branches
    Mutant("one _OUT_DEFICIT entry off by 1", DIVPOLY,
           "\n_IN_DEFICIT = tuple(",
           "\n_OUT_DEFICIT = (_OUT_DEFICIT[0], (_OUT_DEFICIT[1][0],"
           " (_OUT_DEFICIT[1][1][0] + 1, *_OUT_DEFICIT[1][1][1:])))"
           "\n_IN_DEFICIT = tuple(",
           "tests/test_divpoly.py::test_deficit_tables_are_the_entry_bill"),
    Mutant("the lone-input deficit skipped", DIVPOLY,
           "bill -= _IN_DEFICIT[odd][shift][win.index(0)]",
           "pass",
           "tests/test_divpoly.py::test_eval_bills_as_ticked_walk"),
    Mutant("a step with two input zeros billed by the tables", DIVPOLY,
           "if zero_in and win.count(0) > 1:",
           "if False:",
           "tests/test_divpoly.py::test_eval_bills_as_ticked_walk"),
    # measured once each before this table existed
    Mutant("psi_3 seed 12 B x -> 11 B x", DIVPOLY,
           "12 * bx + p - a2",
           "11 * bx + p - a2",
           "tests/test_divpoly.py::test_psi3_psi4_matches_ticked_seed"),
    Mutant("dispatch maps every ValueError to exit 2", "src/twistforge/cli.py",
           "except InvalidInput as exc:",
           "except ValueError as exc:",
           "tests/test_cli.py::test_internal_error_exits_1"),
    Mutant("batch_G without its x % p", "src/twistforge/forgery.py",
           "np.asarray(x, dtype=np.int64) % p, A.shape",
           "np.asarray(x, dtype=np.int64), A.shape",
           "tests/test_forgery.py::test_batch_marked_wraps_at_the_lane_edge"),
    Mutant("tau = 2 ceil(log2 p)", "src/twistforge/forgery.py",
           "return 3 * (p - 1).bit_length()",
           "return 2 * (p - 1).bit_length()",
           "tests/test_forgery.py::test_default_tau"),
    Mutant("a g1 entry with a vanishing yb billed 8", DIVPOLY,
           "return 8 if ya and yb else 7 if ya else 6",
           "return 8 if ya and yb else 8 if ya else 6",
           "tests/test_divpoly.py::test_eval_bills_as_ticked_walk"),
    Mutant("w^2 moved from c6 onto c7 in _int_step's even branch", DIVPOLY,
           "c2, c4, c6 = c2 * w2, c4 * w2, c6 * w2",
           "c2, c4, c7 = c2 * w2, c4 * w2, c7 * w2",
           "tests/test_divpoly.py::test_int_step_matches_int_coefs"),
    Mutant("alpha_6 without its cube test", "src/twistforge/curves.py",
           "if nonsquare(a) and pow(a, (p - 1) // 3, p) != 1)",
           "if nonsquare(a))",
           "tests/test_curves.py::test_nonresidue_table_properties"),
    Mutant("group_structure without its two-torsion term", "src/twistforge/curves.py",
           "torsion += two_torsion",
           "torsion += 0",
           "tests/test_curves.py::test_point_order_and_group_structure"),
    # the lane walk: its 2-D step kernel and its chunks
    Mutant("w^2 on the wrong parity of the lane cube rows", DIVPOLY,
           "even = (odd + base + o + 1) & 1",
           "even = (odd + base + o) & 1",
           "tests/test_divpoly.py::test_batch_eval_matches_coef_walk[101]"),
    Mutant("g1 and g2 outputs swapped in the lane interleave", DIVPOLY,
           "a, d = out[first::2], out[1 - first::2]",
           "d, a = out[first::2], out[1 - first::2]",
           "tests/test_divpoly.py::test_batch_eval_matches_coef_walk[101]"),
    Mutant("a step's read run one slot short after a g2 entry", DIVPOLY,
           "max(off + (4 if is_g1 else 5) for",
           "max(off + 4 for",
           "tests/test_divpoly.py::test_pruned_plan_keeps_what_it_reads"),
    Mutant("the last partial lane chunk dropped", DIVPOLY,
           "for lo in range(0, out.size, chunk):",
           "for lo in range(0, out.size - chunk + 1, chunk):",
           "tests/test_divpoly.py::test_batch_eval_matches_coef_walk[101]"),
    # the base window's rounds on lanes
    Mutant("the base rounds cut one output short", DIVPOLY,
           "made, rounds, lo = k + run[1] - 5, [], 0",
           "made, rounds, lo = k + run[1] - 6, [], 0",
           "tests/test_divpoly.py::test_batch_eval_matches_coef_walk[101]"),
    Mutant("base rounds (0, 1) and (1, 3) merged, reading psi_5 before it is made", DIVPOLY,
           "_read_run(_BASE[hi:hi + 1])[1] <= 5 + lo:",
           "_read_run(_BASE[hi:hi + 1])[1] <= 6 + lo:",
           "tests/test_divpoly.py::test_pruned_plan_keeps_what_it_reads"),
]


def _copy_tree(dst: pathlib.Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for folder in ("src", "tests"):
        shutil.copytree(ROOT / folder, dst / folder, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dst / "pyproject.toml")


def run(m: Mutant) -> str:
    """'killed', 'SURVIVED', 'STALE' (old text not found exactly once) or
    'ERROR' (pytest exited with neither a pass nor a test failure)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = pathlib.Path(tmp)
        _copy_tree(tree)
        target = tree / m.path
        text = target.read_text()
        if text.count(m.old) != 1:
            return "STALE"
        target.write_text(text.replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        # the copy, not an installed twistforge, must be the one imported
        where = subprocess.run([sys.executable, "-c", "import twistforge; print(twistforge.__file__)"],
                               cwd=tree, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(tree)):
            return "ERROR"
        rc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *m.selection.split()], cwd=tree, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "SURVIVED", 1: "killed"}.get(rc, "ERROR")


def main() -> int:
    bad = 0
    for m in MUTANTS:
        start = time.perf_counter()
        verdict = run(m)
        bad += verdict != "killed"
        print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  {m.name}  [{m.selection}]", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
