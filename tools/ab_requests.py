"""Time one benchmark workload under two checkouts, alternating per
request in one interpreter.

    python3 tools/ab_requests.py PARENT CHANGE --workload crit-sweep --rounds 7

PARENT and CHANGE are checkout roots.  Each one's ``src/oortlab`` is
imported under its own package name (``oortlab_parent``,
``oortlab_change``), its catalogue parsed by its own ``cli`` and every
spec built once, as ``perfbench/run.py`` sets up.  The requests are those
of ``perfbench/workloads.build_requests`` for the workload.  Each round
runs every request, in an order shuffled by ``--seed``, once under each
side, the side that goes first alternating from request to request, so a
slow spell of the host falls on both sides alike.  Each side's figures
are taken as ``perfbench/run.py`` takes them, from each request's median
over the rounds: requests/s (the request count over the sum of the
medians), p50 and p95.  A request that fails or answers wrongly under
``workloads.judge`` is counted beside the figures.  Beside them,
``highest_ratio`` and ``lowest_ratio`` list the 10 requests whose
change/parent ratio of medians is highest and the 10 where it is lowest,
the most extreme first, so that a few requests that got slower
do not hide under a total gain.

These figures support a benchmark comparison in fresh processes; they do
not replace it, since they share one interpreter's heap and caches.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, build_requests, judge  # noqa: E402

SIDES = ("parent", "change")


def load(root: str, side: str):
    """The checkout's ``oortlab.cli`` imported as ``oortlab_<side>.cli``,
    with its catalogue parsed and every spec built."""
    pkg = Path(root).resolve() / "src" / "oortlab"
    name = f"oortlab_{side}"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    cli = importlib.import_module(f"{name}.cli")
    entries = cli.parse_manifest((pkg / "data" / "catalogue.txt").read_text())
    for s in dict.fromkeys(s for s, _, _ in entries):
        module.build_group(s)
    return cli, entries


def run_one(cli, req) -> tuple[float, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded as a failure, never fatal
            code = type(exc).__name__
        ms = (time.perf_counter() - t0) * 1e3
    return ms, judge(req, code, out.getvalue())[0]


def figures(samples: dict) -> dict:
    med = [statistics.median(ms) for ms in samples.values()]
    return {
        "requests_per_s": 1e3 * len(med) / sum(med),
        "request_ms_p50": statistics.median(med),
        "request_ms_p95": statistics.quantiles(med, n=20)[18],
        "sum_of_medians_ms": sum(med),
    }


def extremes(samples: dict, k: int = 10) -> tuple[list, list]:
    """The k requests with the highest and the k with the lowest
    change/parent ratio of medians, each with both medians in ms."""
    rows = []
    for req, parent_ms in samples["parent"].items():
        p, c = statistics.median(parent_ms), statistics.median(samples["change"][req])
        rows.append({"argv": " ".join(req.argv), "parent_ms": p, "change_ms": c, "ratio": c / p})
    rows.sort(key=lambda row: row["ratio"], reverse=True)
    return rows[:k], rows[::-1][:k]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    clis, requests = {}, {}
    for side, root in zip(SIDES, (args.parent, args.change)):
        clis[side], entries = load(root, side)
        requests[side] = build_requests(args.workload, entries)
    if [r.argv for r in requests["parent"]] != [r.argv for r in requests["change"]]:
        sys.exit("error: the two checkouts' catalogues give different requests")
    reqs = requests["change"]
    samples = {side: {} for side in SIDES}
    failed = {side: 0 for side in SIDES}
    rng = random.Random(args.seed)
    for _ in range(args.rounds):
        for k, req in enumerate(rng.sample(reqs, len(reqs))):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                ms, kind = run_one(clis[side], req)
                samples[side].setdefault(req, []).append(ms)
                failed[side] += kind != "ok"
    result = {"workload": args.workload, "rounds": args.rounds, "requests": len(reqs), "seed": args.seed}
    for side in SIDES:
        result[side] = {**figures(samples[side]), "failed": failed[side]}
    result["ratio_requests_per_s"] = result["change"]["requests_per_s"] / result["parent"]["requests_per_s"]
    result["highest_ratio"], result["lowest_ratio"] = extremes(samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
