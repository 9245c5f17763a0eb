"""Record the CLI's outputs over the bundled catalogue, for a byte-for-byte
comparison of two checkouts.

    python3 tools/compare_outputs.py OUT

runs, in one process and in manifest order, every catalogue request:
``check SPEC --p P`` and ``check SPEC --p P --route crit`` for each of the
258 (spec, p) pairs, ``audit SPEC --p P`` for each of the 206 pairs
expected positive, then ``construct SPEC`` for each of the 80 specs.  It
imports the ``oortlab`` under ``src/`` beside this script, so each
checkout records its own code.  OUT gets one JSON line per request (argv,
exit code, stdout with the ``timing_ms`` value blanked, stderr) and a last
line with the sha256 of the lines before it.  Two checkouts give the same
outputs exactly when ``cmp`` finds their files equal.  Set no
``OORTLAB_ENUM_CAP`` unless both runs set the same one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oortlab.cli import bundled_manifest_text, main, parse_manifest  # noqa: E402

TIMING = re.compile(r'("timing_ms": )[-0-9.e]+')


def requests() -> list[list[str]]:
    entries = parse_manifest(bundled_manifest_text())
    pairs = [(spec, p, e) for spec, primes, expect in entries for p, e in zip(primes, expect)]
    return [
        *(["check", s, "--p", str(p)] for s, p, _ in pairs),
        *(["check", s, "--p", str(p), "--route", "crit"] for s, p, _ in pairs),
        *(["audit", s, "--p", str(p)] for s, p, e in pairs if e),
        *(["construct", spec] for spec, _, _ in entries),
    ]


def record(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = TIMING.sub(r'\g<1>""', out.getvalue())
    return json.dumps({"argv": argv, "exit": code, "stdout": stdout, "stderr": err.getvalue()})


def run(path: str) -> int:
    digest = hashlib.sha256()
    with open(path, "w") as fh:
        for argv in requests():
            line = record(argv) + "\n"
            digest.update(line.encode())
            fh.write(line)
        fh.write(f"sha256 {digest.hexdigest()}\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: compare_outputs.py OUT")
    sys.exit(run(sys.argv[1]))
