"""The benchmark's workloads over the bundled catalogue, and the
correctness gate applied to every request.

A request is one ``oortlab`` command line (an argv list).  The catalogue
gives every ``(spec, p)`` pair its expected verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

WORKLOADS = ("validate-both", "crit-sweep", "audit-positives")

# Specs left out of a workload because one of their requests there took
# over 1 s (up to 33 s for DELPERM:7:* at p = 7 under `check --route both`),
# timed on a 2-vCPU Xeon VM with Python 3.11.7 when the benchmark was
# defined.  This keeps a pass near 5 s, so that a run holds several passes
# and each request's median over them rides out the host's speed swings,
# which reach 15% over 10 s windows there.
HEAVY_SPECS = {
    "validate-both": frozenset(
        {
            "DELPERM:5:A4",
            "DELPERM:5:S4",
            "DELPERM:5:S4:sign",
            "DELPERM:7:A4",
            "DELPERM:7:S4",
            "DELPERM:7:S4:sign",
            "INV:15:16:cyclic",
            "INV:15:16:klein",
            "PSL3_4",
        }
    ),
    "crit-sweep": frozenset({"DELPERM:7:A4", "DELPERM:7:S4", "DELPERM:7:S4:sign", "PSL3_4"}),
    "audit-positives": frozenset(
        {"DELPERM:5:A4", "DELPERM:5:S4:sign", "DELPERM:7:A4", "DELPERM:7:S4:sign", "INV:15:16:cyclic", "PSL3_4"}
    ),
}

# Exit codes that mark a failed request (cli: parse error, route
# disagreement, enumeration cap, audit violation).
FAILURE_EXITS = {2: "parse", 3: "disagree", 4: "cap", 5: "violation"}


@dataclass(frozen=True)
class Request:
    spec: str
    p: int
    expect: bool
    argv: tuple[str, ...]


def build_requests(workload: str, entries) -> list[Request]:
    """The requests of one pass of ``workload`` over a parsed manifest, in
    manifest order."""
    out = []
    for spec, primes, expects in entries:
        if expects is None:
            raise ValueError(f"catalogue entry {spec} has no expectations")
        if spec in HEAVY_SPECS[workload]:
            continue
        for p, expect in zip(primes, expects):
            if workload == "validate-both":
                argv = ("check", spec, "--p", str(p))
            elif workload == "crit-sweep":
                argv = ("check", spec, "--p", str(p), "--route", "crit")
            elif expect:
                argv = ("audit", spec, "--p", str(p))
            else:
                continue
            out.append(Request(spec, p, expect, argv))
    return out


def judge(req: Request, code, stdout: str) -> tuple[str, bool]:
    """``(kind, correct)`` for one finished request.

    ``kind`` is ``"ok"`` or names the failure.  ``code`` is the exit code,
    or the exception's class name when the call raised.  Exit codes 2-5 and
    exceptions are failures the program reported; any other mismatch with
    the catalogue is a wrong answer (``correct`` is False).
    """
    if isinstance(code, str):
        return f"exception:{code}", True
    if code in FAILURE_EXITS:
        return FAILURE_EXITS[code], True
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "unparsable-output", False
    if req.argv[0] == "audit":
        if code != 0 or doc.get("violations") or any(c.get("status") == "fail" for c in doc.get("claims", ())):
            return f"wrong-audit:exit-{code}", False
        return "ok", True
    if code != (0 if req.expect else 1) or doc.get("is_o_group") is not req.expect:
        return f"wrong-verdict:exit-{code}", False
    return "ok", True
