"""Command-line interface.

Subcommands: construct (build a group from its spec string and print a
summary), check (run one or both verdict routes for a prime), audit
(structure report plus per-claim audit), validate (batch cross-check of
the two routes over a manifest).

Exit codes: 0 positive verdict / success, 1 negative verdict or
expectation mismatch, 2 parse or I/O error, 3 route disagreement,
4 enumeration cap exceeded, 5 audit violation.

validate runs every entry of its manifest, building each line's group
once for all of its primes, and writes each line's JSON docs (to --out, or
else to stdout) as soon as that line and every line before it are done.
An entry that fails gives an error record, ``{"spec", "p", "error",
"detail"}`` with error "cap" (past the enumeration cap), "too-large" (a
parameter out of range) or "parse" (any other failure to build or
decide), in place of its verdict.  Its exit code is the most severe
outcome over the entries, in this order: 3 (a route disagreement), 4 (a
cap error), 2 (a too-large or parse error), 1 (an expectation mismatch),
0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from importlib import resources

from .analysis import predicates
from .classify import (
    Context,
    OortVerdict,
    cyclic_sylow_report,
    is_o_group_by_criterion,
    is_o_group_by_definition,
    even_structure_report,
    odd_structure_report,
    theorem_audit,
)
from .construct import build_group
from .errors import CapExceeded, ConstructionError, OortlabError, PreconditionFailed, TooLarge
from .gf import is_prime
from .perm import Group

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_DISAGREE = 3
EXIT_CAP = 4
EXIT_VIOLATION = 5


def _verdict_json(spec: str, G: Group, p: int, route: str, verdict: OortVerdict, ms: float) -> dict:
    body = verdict.to_json()
    return {
        "spec": spec,
        "order": G.order(),
        "p": p,
        "route": route,
        "is_o_group": body["is_o_group"],
        "branch": body["branch"],
        "witnesses": body["witnesses"],
        "timing_ms": round(ms, 2),
    }


def _run_routes(spec: str, G: Group, p: int, route: str) -> tuple[dict, bool]:
    """(VerdictJSON, routes_agree).  For route 'both' the branch comes from
    the criterion and the witnesses from the enumeration."""
    t0 = time.perf_counter()
    if route == "def":
        v = is_o_group_by_definition(G, p)
        return _verdict_json(spec, G, p, route, v, (time.perf_counter() - t0) * 1000), True
    if route == "crit":
        v = is_o_group_by_criterion(G, p)
        return _verdict_json(spec, G, p, route, v, (time.perf_counter() - t0) * 1000), True
    vd = is_o_group_by_definition(G, p)
    vc = is_o_group_by_criterion(G, p)
    ms = (time.perf_counter() - t0) * 1000
    merged = OortVerdict(vd.is_o_group, "both", vc.branch, vd.witnesses)
    out = _verdict_json(spec, G, p, "both", merged, ms)
    if vd.is_o_group != vc.is_o_group:
        out["disagreement"] = {"definition": vd.is_o_group, "criterion": vc.is_o_group}
        return out, False
    return out, True


def _render_table(doc: dict) -> str:
    lines = [
        f"{doc['spec']}  order={doc['order']}  p={doc['p']}  "
        f"{'O-group' if doc['is_o_group'] else 'NOT an O-group'}  ({doc['branch']})"
    ]
    for w in doc["witnesses"]:
        lines.append(f"  witness {w['shape']:>10s} order {w['order']:>5d}  <{' , '.join(w['generators'])}>")
    return "\n".join(lines)


def cmd_construct(args: argparse.Namespace) -> int:
    G = build_group(args.spec)
    doc = {
        "spec": args.spec,
        "order": G.order(),
        "degree": G.degree,
        "generators": [g.cycle_str() for g in G.generators],
    }
    doc.update(predicates(G))
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if not is_prime(args.p):
        print(f"error: p={args.p} is not prime", file=sys.stderr)
        return EXIT_PARSE
    G = build_group(args.spec)
    doc, agree = _run_routes(args.spec, G, args.p, args.route)
    print(_render_table(doc) if args.table else json.dumps(doc, indent=2))
    if not agree:
        return EXIT_DISAGREE
    return EXIT_OK if doc["is_o_group"] else EXIT_NEGATIVE


def _audit_doc(spec: str, G: Group, p: int) -> dict:
    ctx = Context(G, p)
    if ctx.verdict.branch == "Sylow cyclic":
        report = cyclic_sylow_report(ctx).to_json()
    elif p == 2:
        report = even_structure_report(ctx).to_json()
    else:
        report = odd_structure_report(ctx).to_json()
    report["spec"] = spec
    report["claims"] = [{"claim": c, "status": s} for c, s in theorem_audit(ctx)]
    return report


def cmd_audit(args: argparse.Namespace) -> int:
    if not is_prime(args.p):
        print(f"error: p={args.p} is not prime", file=sys.stderr)
        return EXIT_PARSE
    G = build_group(args.spec)
    try:
        report = _audit_doc(args.spec, G, args.p)
    except PreconditionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    print(json.dumps(report, indent=2))
    if report["violations"] or any(c["status"] == "fail" for c in report["claims"]):
        return EXIT_VIOLATION
    return EXIT_OK


# -- batch validation ---------------------------------------------------


def parse_manifest(text: str) -> list[tuple[str, list[int], list[bool] | None]]:
    """Lines of `<spec> ; p=<list> ; expect=<T/F list>` (expect optional);
    blank lines and # comments skipped."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [s.strip() for s in line.split(";")]
        if len(parts) not in (2, 3) or not parts[1].startswith("p="):
            raise ValueError(f"manifest line {lineno}: bad format: {raw!r}")
        spec = parts[0]
        try:
            primes = [int(s) for s in parts[1][2:].split(",") if s.strip()]
        except ValueError:
            primes = []
        if not primes or not all(is_prime(p) for p in primes):
            raise ValueError(f"manifest line {lineno}: bad prime list: {raw!r}")
        expect = None
        if len(parts) == 3:
            if not parts[2].startswith("expect="):
                raise ValueError(f"manifest line {lineno}: bad expect clause: {raw!r}")
            flags = [s.strip() for s in parts[2][7:].split(",") if s.strip()]
            if len(flags) != len(primes) or not all(f in ("T", "F") for f in flags):
                raise ValueError(f"manifest line {lineno}: expect list must match primes: {raw!r}")
            expect = [f == "T" for f in flags]
        entries.append((spec, primes, expect))
    return entries


def bundled_manifest_text() -> str:
    return resources.files("oortlab.data").joinpath("catalogue.txt").read_text()


# validate's exit codes, least severe first
_SEVERITY = [EXIT_OK, EXIT_NEGATIVE, EXIT_PARSE, EXIT_CAP, EXIT_DISAGREE]


def _error_record(spec: str, p: int, exc: Exception) -> dict:
    if isinstance(exc, CapExceeded):
        error = "cap"
    elif isinstance(exc, TooLarge) or isinstance(exc.__cause__, TooLarge):  # build_group wraps it
        error = "too-large"
    else:
        error = "parse"
    return {"spec": spec, "p": p, "error": error, "detail": str(exc)}


def _validate_line(task: tuple[str, list[int]]) -> list[tuple[dict, bool]]:
    """(the verdict doc or error record, routes_agree) of each prime of one
    manifest line, whose group is built once for all of them."""
    spec, primes = task
    errors = (ConstructionError, ValueError, OortlabError)
    try:
        G = build_group(spec)
    except errors as exc:
        return [(_error_record(spec, p, exc), True) for p in primes]
    out = []
    for p in primes:
        try:
            out.append(_run_routes(spec, G, p, "both"))
        except errors as exc:
            out.append((_error_record(spec, p, exc), True))
    return out


def cmd_validate(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.manifest == "-":
            text = bundled_manifest_text()
        else:
            with open(args.manifest) as fh:
                text = fh.read()
        entries = parse_manifest(text)
        sink = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    disagreements = []
    mismatches = []
    verdicts = []
    code = EXIT_OK
    lines = [(spec, primes) for spec, primes, _ in entries]
    try:
        with contextlib.ExitStack() as stack:
            out = stack.enter_context(sink)
            if args.jobs > 1:
                # imported here: only --jobs above 1 needs the pool, whose modules
                # would otherwise lengthen every process's start-up
                from concurrent.futures import ProcessPoolExecutor

                pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs))
                results = pool.map(_validate_line, lines)
            else:
                results = map(_validate_line, lines)
            # a line's docs are written once it and every line before it are done
            for (spec, primes, expect), docs in zip(entries, results):
                for j, (p, (doc, agree)) in enumerate(zip(primes, docs)):
                    out.write(json.dumps(doc) + "\n")
                    if "error" in doc:
                        outcome = EXIT_CAP if doc["error"] == "cap" else EXIT_PARSE
                    elif not agree:
                        outcome = EXIT_DISAGREE
                        disagreements.append((spec, p))
                    elif expect is not None and doc["is_o_group"] != expect[j]:
                        outcome = EXIT_NEGATIVE
                        mismatches.append((spec, p, expect[j], doc["is_o_group"]))
                    else:
                        outcome = EXIT_OK
                    if "error" not in doc:
                        verdicts.append(doc["is_o_group"])
                    code = max(code, outcome, key=_SEVERITY.index)
                out.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    n = sum(len(primes) for _, primes in lines)
    summary = {
        "entries": n,
        "positive": sum(verdicts),
        "negative": len(verdicts) - sum(verdicts),
        "errors": n - len(verdicts),
        "disagreements": [f"{s} p={p}" for s, p in disagreements],
        "expect_mismatches": [
            f"{s} p={p}: expected {e}, got {g}" for s, p, e, g in mismatches
        ],
    }
    print(json.dumps(summary, indent=2))
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oortlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a group and print a summary")
    p_con.add_argument("spec")
    p_con.set_defaults(func=cmd_construct)

    p_chk = sub.add_parser("check", help="decide the verdict for a prime")
    p_chk.add_argument("spec")
    p_chk.add_argument("--p", type=int, required=True)
    p_chk.add_argument("--route", choices=["def", "crit", "both"], default="both")
    p_chk.add_argument("--table", action="store_true", help="human-readable summary")
    p_chk.set_defaults(func=cmd_check)

    p_aud = sub.add_parser("audit", help="structure report and per-claim audit")
    p_aud.add_argument("spec")
    p_aud.add_argument("--p", type=int, required=True)
    p_aud.set_defaults(func=cmd_audit)

    p_val = sub.add_parser("validate", help="batch cross-check over a manifest")
    p_val.add_argument("manifest", help="manifest path, or '-' for the bundled catalogue")
    p_val.add_argument("--jobs", type=int, default=1)
    p_val.add_argument("--out", default=None, help="write per-entry JSON lines here")
    p_val.set_defaults(func=cmd_validate)
    ap.commands = sub.choices  # name -> subcommand parser, which main parses with
    return ap


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # built once per process: parsing leaves it unchanged
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:  # -h, no command or an unknown one
        args = _parser.parse_args(argv)
    else:  # what the top-level parser would do, one level down
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            _parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ConstructionError, ValueError, OortlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
