"""tools/ab_requests.py, run with this checkout as both sides."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_of_crit_sweep():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_requests.py"), str(ROOT), str(ROOT),
         "--workload", "crit-sweep", "--rounds", "1", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert result["requests"] == 248
    for side in ("parent", "change"):
        assert result[side]["failed"] == 0
        assert result[side]["requests_per_s"] > 0
    assert len(result["highest_ratio"]) == len(result["lowest_ratio"]) == 10
