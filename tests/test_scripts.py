"""The scripts under scripts/ run end to end on small inputs, and
scripts/sweep.py on its whole fixed set (about 4 s), with its node totals
pinned.  scripts/exhaustive.py runs on two small scopes (about 4 s).

The other two read the benchmark's generators from perfbench/workloads.py
(`np_stream`, `eu_stream`, `np_deep` and `deep_problem`), so a name that
moves or goes there fails here, not only when a script is next run.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done


def _script(*argv: str) -> str:
    return _run(*argv).stdout


@pytest.mark.parametrize("argv, checked", [
    pytest.param(("pigeonhole", "3"), "oracle=unsat", id="pigeonhole"),
    pytest.param(("eu", "3", "--count", "2"), "oracle=", id="eu"),
    pytest.param(("deep", "6", "--count", "2"), "planted=", id="deep"),
    pytest.param(("sat", "5", "--count", "4"), "dpll=", id="sat")])
def test_search_families_runs(argv, checked):
    *lines, total = _script("scripts/search_families.py", *argv).splitlines()
    assert total.endswith(" 0 wrong")
    # Every verdict is checked: an oracle that gave up would print "-".
    assert lines and all(line.split()[-1].startswith(checked)
                         and not line.endswith("=-") for line in lines)


def test_search_families_sat_agrees_with_dpll_on_both_verdicts():
    # Exit 0 means every verdict agrees with the script's DPLL; these
    # formulas, above the 4.26 threshold, give sat and unsat answers alike.
    *lines, total = _script("scripts/search_families.py", "sat", "8",
                            "--count", "6", "--ratio", "6").splitlines()
    assert total.endswith(" 0 wrong")
    assert {line.split()[1] for line in lines} == {"sat", "unsat"}
    assert all(line.split()[-1] == f"dpll={line.split()[1]}"
               for line in lines)


def test_search_families_sat_node_total_is_pinned():
    # The search branches where forward checking leaves the fewest live
    # branches, so it meets each clause gadget as soon as the assignments
    # reduce it to one live literal (7,093 nodes when it branched on the
    # first branching constraint, 615 while it stopped its scan at one live
    # branch and took the steps that substitute nothing as nodes).  A change
    # that lowers it updates the pin.
    *lines, total = _script("scripts/search_families.py", "sat", "10",
                            "--count", "4").splitlines()
    assert total.startswith("total: 416 nodes ")
    assert total.endswith(" 0 over budget, 0 wrong")
    assert len(lines) == 4 and all(
        line.split()[-1] == f"dpll={line.split()[1]}" for line in lines)


def test_paired_runs_on_the_deep_family():
    out = _script("scripts/paired.py", ".", ".", "--family", "deep",
                  "--pairs", "1")
    assert "verdicts and nodes agree" in out
    # It also times `import npnas.cli` once per side and pair.
    table = out.split("import npnas.cli")[1].splitlines()
    assert [line.split()[0] for line in table[2:4]] == ["parent", "change"]


def test_sweep_finds_no_bad_witness_and_no_disagreement():
    # Exit 0 means every witness re-checks and every verdict agrees with
    # its oracle, over all four families (`ms` has two name sorts).
    done = _run("scripts/sweep.py")
    lines = done.stdout.splitlines()
    assert {line.split()[0] for line in lines} == {"np", "np65", "eu", "ms"}
    # The node totals are pinned, so a change to the search order fails
    # here; a change that lowers one updates its pin.
    totals = [line for line in done.stderr.splitlines()
              if line.startswith("nodes ")]
    assert totals == ["nodes np: 173", "nodes np65: 190",
                      "nodes eu: 2605", "nodes ms: 131"]


@pytest.mark.parametrize("argv, problems", [
    pytest.param(("2",), 11264, id="two-constraints"),
    pytest.param(("3", "--constraints", "1"), 401, id="shadowing")])
def test_exhaustive_np_finds_no_disagreement(argv, problems):
    # Exit 0 means every exact oracle verdict agrees with `decide`; the
    # second scope holds the shadowing prefixes such as `<v0><v0>v1`.
    (last,) = _script("scripts/exhaustive.py", "np", *argv).splitlines()
    assert last.startswith(f"np {argv[0]}: {problems} problems, ")
    assert last.endswith(" 0 disagreements")
