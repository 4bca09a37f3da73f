"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/tests -q

Every workload must finish, pass its output checks and print every
metric BENCHMARK.json names, with its unit, traced and untraced.  The
negative controls feed the same checks a corrupted result and expect
them to fail.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import cluster  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from report import END_TO_END  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the gated workloads plus ``interactive``, which runs by hand only
WORKLOADS = list(run.WORKLOADS)


def test_gated_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _run(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    text, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(text)
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] > 0
            printed = [l for l in text if l.split()[:1] == [metric["name"]]]
            assert printed and metric["unit"] in printed[0]
            assert " n=" in printed[0]


def test_benchmark_json_matches_the_metric_tables():
    assert SPEC["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in layers.PER_LAYER
    ]


def _cheap_result(name="E1", seed=0):
    from repro.engine.executor import run_spec

    return run_spec(cluster._spec(name, seed)).to_dict()


def test_suite_check_fails_on_a_corrupted_result():
    result = _cheap_result()
    golden = {"E1": checks.output_digest(result)}
    assert checks.suite_failures([[result], [result]], golden) == []
    corrupted = copy.deepcopy(result)
    corrupted["rows"][0][next(iter(corrupted["rows"][0]))] = -1
    assert checks.suite_failures([[corrupted]], golden)
    assert checks.suite_failures([[result], [corrupted]], None)


def test_suite_check_fails_on_a_false_verdict():
    result = _cheap_result()
    key = next(k for k, v in result["verdict"].items() if v is True)
    result["verdict"][key] = False
    assert checks.suite_failures([[result]], None)
    result["expected_false"] = [key]
    assert checks.suite_failures([[result]], None) == []


def test_host_time_columns_are_left_out_of_digests():
    result = {"name": "A4", "status": "ok", "verdict": {},
              "rows": [{"mapper": "greedy", "map_time_ms": 1.0}]}
    slower = copy.deepcopy(result)
    slower["rows"][0]["map_time_ms"] = 2.0
    assert checks.output_digest(result) == checks.output_digest(slower)


def test_parity_check_fails_on_a_corrupted_result():
    result = _cheap_result("E5", 7)
    reference = {result["spec_hash"]: checks.output_digest(result)}
    assert checks.parity_failures([result], reference) == []
    corrupted = copy.deepcopy(result)
    corrupted["rows"] = corrupted["rows"][1:]
    assert checks.parity_failures([corrupted], reference)
    errored = dict(result, status="error")
    assert checks.parity_failures([errored], reference)


def test_golden_digests_cover_every_scenario_at_both_seeds():
    golden = json.loads(checks.GOLDEN_PATH.read_text())
    names = {s.name for s in suite.suite_specs(0)}
    assert set(golden["seeds"]) == {"0", str(golden["held_out_seed"])}
    for digests in golden["seeds"].values():
        assert set(digests) == names


def test_workload_inputs_depend_only_on_the_seed():
    assert cluster.sweep_specs(3, 50) == cluster.sweep_specs(3, 50)
    assert cluster.sweep_specs(3, 50) != cluster.sweep_specs(4, 50)
    hashes = {s.content_hash for s in cluster.sweep_specs(3, 500)}
    assert len(hashes) == 500
    pairs = cluster.interactive_pairs(3)
    draws = cluster.interactive_stream(pairs, 3, 0)
    again = cluster.interactive_stream(cluster.interactive_pairs(3), 3, 0)
    assert [next(draws) for _ in range(100)] == [
        next(again) for _ in range(100)
    ]
