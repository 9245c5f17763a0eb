"""Exact CLI output for witness-producing negatives and for an audit
report of every case (cyclic Sylow; odd G=RP, G=RD and G/R almost
simple; even 1, 2a, 2b and 2c).

The expected documents in data/golden_outputs.json pin verdicts,
branches, witness generator strings and report fields.  The first nine
were recorded before the element store moved into ``perm.Group``, the
audits of C:15/3, A:5/5, A:4/2, S:4/2 and D:12/2 before the criterion,
the reports and the claim audit shared one ``classify.Context``, and
``check`` of A:7/3, PGL2:9/2, S:6/2 and DELPERM:5:S4/5 (criterion route)
before enumeration and the Sylow, normalizer and centralizer filters moved
onto the integer element store: their witnesses depend on the Sylow
subgroup picked from the breadth-first element order of a group of order
720 or more.  ``check`` of A:7/2, INV:9:16:klein/2, INV:15:8:klein/2,
Q:32/2 and PSL2:8/2 (both routes) was recorded before the definition
route moved onto element ids: negatives whose witnesses come from the
first candidate of each failing shape in the order of the class
representatives and of the coset walk, on groups of order 32 to 2520, on
both sides of the store's size rule.  ``audit`` of D:36/2,
DELPERM:5:A4/2 and PSL2:13/3 was recorded before the conjugacy-class
scans of O_pi, the minimal normal subgroups and the chief series moved
onto class labels: a core with two chief factors, case 2a with a rank-3
factor, and a simplicity test on G/R.  ``construct`` of PSL2:13,
DELPERM:5:A4 and A:7 (predicates through the derived and lower central
series) and ``audit`` of PGL2:9/5 and PSL3_4/5 (G/R = G tested for
simplicity, at order 20160) were recorded before normal closures moved
onto unions of conjugacy classes over G's ids, and ``construct`` of S:9
(order 362880, past ENUM_CAP; its derived subgroup A9 fits) at the same
commit.  ``check`` of INV:15:16:klein/3 (C_G(Q) nonabelian) and
PSL2:13/13 (an inversion test failing on an N of order 78) and ``audit``
of INV:9:16:cyclic/3 (G=RD, inversion tests passing on an N of order
144) were recorded before G's element list became an edge built only
when read and sylow and the inversion test moved onto store ids.
``audit`` of INV:15:16:cyclic/2 (the one catalogue audit in which the
minimal-normal scan orders two or more minimal normal subgroups) and of
INV:9:16:cyclic/2 (the even report, with G/R taken through ``quotient_by``
on a G of order 144) were recorded before the audit moved onto element ids:
O_pi's orders and the minimal normal subgroups' order read from the store,
``basic1``, the even report's masks, ``is_normal`` and ``quotient_by``.
``timing_ms`` varies from run to run and is left out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from oortlab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_outputs.json").read_text())
COMPARE_OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
CATALOGUE_SHA256 = "fc3ac06b7c227b16f2ace8c0232959d4b55bf1530ee5e43a223a2ef016247a7a"


def test_cli_outputs_match_golden(capsys):
    for case in GOLDEN:
        code = main(case["argv"])
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timing_ms", None)
        if doc.get("case") == "G=RP (cyclic Sylow)":
            # recorded before this report had ncq; test_cli pins ncq == 1
            doc.pop("ncq", None)
        assert (code, doc) == (case["exit"], case["output"]), case["argv"]


def test_catalogue_outputs_match_their_hash(tmp_path):
    """tools/compare_outputs.py over every catalogue request (802 of them,
    the heavy specs included), at the default enumeration cap: the sha256
    of its output lines is pinned.  An intended output change updates
    CATALOGUE_SHA256, with the reason in CHANGES.md, as a re-recorded
    golden_outputs.json would."""
    env = {k: v for k, v in os.environ.items() if k != "OORTLAB_ENUM_CAP"}
    out = tmp_path / "outputs.jsonl"
    subprocess.run([sys.executable, str(COMPARE_OUTPUTS), str(out)], env=env, check=True, timeout=600)
    assert out.read_text().splitlines()[-1] == f"sha256 {CATALOGUE_SHA256}"
