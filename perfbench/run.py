"""oortlab benchmark: one workload, one client, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload validate-both --seed 1 --seconds 30 --trace 0

Each request is one in-process call of ``oortlab.cli.main(argv)`` with
stdout and stderr captured: the console script's code path without
interpreter start-up.  The seed only permutes request order.  The run
repeats whole passes over the workload while the next pass is expected to
end within ``--seconds`` (always at least one pass); latency figures use
each request's median over the passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
pass untraced, traced and untraced again, and prints the per-layer metrics
of the traced pass.  The last stdout line is the result object; the line
before it holds provenance, failures and the slowest requests.
Definitions are in perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import Tracer, metric_units
from workloads import WORKLOADS, build_requests, judge

SRC = Path("src")
SETUP_PROBES = 2  # set-ups in fresh subprocesses, beside the run's own


def setup():
    """Import oortlab, parse the bundled catalogue and build every distinct
    spec once (which fills ``gf.field``'s cache).  Returns the cli module,
    the parsed catalogue and the seconds taken."""
    t0 = time.perf_counter()
    import oortlab
    from oortlab import cli

    entries = cli.parse_manifest(cli.bundled_manifest_text())
    for spec in dict.fromkeys(spec for spec, _, _ in entries):
        oortlab.build_group(spec)
    return cli, entries, time.perf_counter() - t0


def probe_setup() -> float:
    """Seconds of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(cli, requests, samples, failures, workload) -> bool:
    """One closed-loop pass.  Appends each request's ms to ``samples``;
    returns False if any answer was wrong."""
    correct = True
    for req in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(req.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a raised request is recorded, never fatal
                code = type(exc).__name__
                err.write(traceback.format_exc())
            ms = (time.perf_counter() - t0) * 1e3
        samples.setdefault(req, []).append(ms)
        kind, ok = judge(req, code, out.getvalue())
        correct &= ok
        if kind != "ok":
            failures.append({"workload": workload, "spec": req.spec, "p": req.p, "exit": code, "kind": kind})
            if kind.startswith("exception:"):
                failures[-1]["traceback"] = err.getvalue()
    return correct


def provenance(seed: int) -> dict:
    import numpy

    src_lines = sum(len(f.read_text().splitlines()) for f in sorted((SRC / "oortlab").rglob("*.py")))
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_oortlab_py_lines": src_lines,
    }


def _commit() -> str:
    """The checked-out commit when run inside a git work tree, else "unknown"."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = Path(".git") / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def slowest(samples, n: int = 10) -> list:
    med = {req: statistics.median(ms) for req, ms in samples.items()}
    top = sorted(med, key=med.get, reverse=True)[:n]
    return [[req.spec, req.p, round(med[req], 3)] for req in top]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="oortlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "oortlab" / "cli.py").is_file():
        print("error: run from the repository root; src/oortlab not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    if args.setup_probe:
        print(repr(setup()[2]))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    cli, entries, own_setup = setup()
    requests = build_requests(args.workload, entries)
    rng = random.Random(args.seed)
    samples: dict = {}
    failures: list = []
    pass_s: list[float] = []
    correct = True
    info = {"workload": args.workload, "requests_per_pass": len(requests), **provenance(args.seed)}

    if args.trace:
        # Untraced, traced, untraced, in one order: the overhead compares the
        # traced pass with the mean of its neighbours, which cancels a steady
        # drift of the host's speed.
        order = rng.sample(requests, len(requests))
        tracer = Tracer()
        for traced in (False, True, False):
            with tracer.installed() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                correct &= run_pass(cli, order, {} if traced else samples, failures, args.workload)
                pass_s.append(time.perf_counter() - t0)
        units = metric_units()
        overhead = 2 * pass_s[1] / (pass_s[0] + pass_s[2]) - 1.0
        metrics = {name: {"value": v, "unit": units[name]} for name, v in tracer.metrics(overhead).items()}
        info.update(inclusive_s=dict(tracer.total_s), trace_missing=tracer.missing)
    else:
        setups = [own_setup] + [probe_setup() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        while not pass_s or time.perf_counter() - start + pass_s[-1] <= args.seconds:
            t0 = time.perf_counter()
            correct &= run_pass(cli, rng.sample(requests, len(requests)), samples, failures, args.workload)
            pass_s.append(time.perf_counter() - t0)
        # Each request's median over the passes, so that a slow spell of
        # the host during one pass does not move the figures.
        med_ms = [statistics.median(ms) for ms in samples.values()]
        values = {
            "requests_per_s": (1e3 * len(med_ms) / sum(med_ms), "1/s"),
            "request_ms_p50": (statistics.median(med_ms), "ms"),
            "request_ms_p95": (statistics.quantiles(med_ms, n=20)[18], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        info.update(setup_samples_s=setups)

    attempted = len(pass_s) * len(requests)
    info.update(
        passes=len(pass_s),
        pass_s=pass_s,
        failed_frac=len(failures) / attempted,
        failures=failures,
        slowest_ms=slowest(samples),
    )
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
