"""Smoke test of the benchmark harness: each workload runs, passes its gate
and reports calls in the layers of the engine it exercises."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {
    "lb3-enumerate": ["rank3.next_rule_calls", "hypergraph.child_calls", "hypergraph.leaf_check_calls"],
    "lb4-minimum": ["compression.subproblems", "hypergraph.leaf_check_calls"],
    "rank6-redundant-count": ["rankk.self_s", "hypergraph.leaf_check_calls"],
}


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_workload_runs_traced(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if line.startswith("# trace could not wrap")]
    result = json.loads(lines[-1])
    assert result["correct"]
    assert result["failed"] == 0
    for name in LAYERS[workload]:
        assert result["metrics"][name]["value"] > 0, name
    if workload == "lb4-minimum":
        # the anchor is the first subset scanned, and the final filter
        # makes no leaf check, so phase 1 is one transversal test
        assert result["metrics"]["compression.phase1_subsets"]["value"] == 1
