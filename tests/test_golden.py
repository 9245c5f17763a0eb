"""Exact CLI output for witness-producing negatives and for one audit
report of each kind (cyclic Sylow, odd, even).

The expected documents in data/golden_outputs.json were recorded before
the element store moved into ``perm.Group``; they pin verdicts, branches,
witness generator strings and report fields.  ``timing_ms`` varies from
run to run and is left out.
"""

import json
from pathlib import Path

from oortlab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_outputs.json").read_text())


def test_cli_outputs_match_golden(capsys):
    for case in GOLDEN:
        code = main(case["argv"])
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timing_ms", None)
        if doc.get("case") == "G=RP (cyclic Sylow)":
            # recorded before this report had ncq; test_cli pins ncq == 1
            doc.pop("ncq", None)
        assert (code, doc) == (case["exit"], case["output"]), case["argv"]
