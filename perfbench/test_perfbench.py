"""Self-test of the benchmark on a few requests per workload.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import Request, build_requests, judge  # noqa: E402

TINY = {
    "validate-both": {("C:4", 2), ("D:8", 2), ("Q:8", 2), ("S:4", 3)},
    "crit-sweep": {("C:4", 2), ("Q:8", 2), ("S:4", 3), ("A:7", 5)},
    "audit-positives": {("D:8", 2), ("D:10", 5), ("S:4", 2)},
}
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, capsys):
    """Run the benchmark's main on the TINY requests; return its result
    line and the info line before it."""
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(
        run,
        "build_requests",
        lambda wl, entries: [r for r in build_requests(wl, entries) if (r.spec, r.p) in TINY[wl]],
    )

    def call(workload, seed, trace):
        assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]) == 0
        *_, info, result = capsys.readouterr().out.splitlines()
        return json.loads(result), json.loads(info)["info"]

    return call


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_names_units_and_gate(tiny, workload):
    result, info = tiny(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] == info["passes"] * len(TINY[workload])
    expected_failures = (
        [{"workload": workload, "spec": "D:8", "p": 2, "exit": 5, "kind": "violation"}]
        if workload == "audit-positives"
        else []
    )
    assert info["failures"] == expected_failures * info["passes"]
    assert result["failed"] == len(info["failures"])


def test_traced_counts_repeat_across_seeds(tiny):
    count_units = {"count", "ratio"}
    for workload in ("validate-both", "audit-positives"):
        runs = [tiny(workload, seed, 1)[0] for seed in (1, 2)]
        for result in runs:
            assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        counts = [
            {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in count_units}
            for result in runs
        ]
        assert counts[0] == counts[1]
        assert counts[0]["perm.products"] > 0
        assert counts[0]["cli.main.calls"] == len(TINY[workload])


def test_wrong_verdict_is_incorrect():
    req = Request("Q:8", 2, False, ("check", "Q:8", "--p", "2"))
    assert judge(req, 1, '{"is_o_group": false}') == ("ok", True)
    assert judge(req, 0, '{"is_o_group": true}') == ("wrong-verdict:exit-0", False)
    assert judge(req, 4, "") == ("cap", True)


def test_refuses_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "crit-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
