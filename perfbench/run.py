"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-all12 --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src/``
of the checkout this file sits in, with no install step.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it give the seed,
the Python version, the kernel backend and every metric in readable form,
including ``failed_frac``.  A full record (and, for a traced run, the spans
and per-span aggregates) is written under ``perfbench/_work/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cadorder" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: {ROOT} holds no cadorder checkout "
              "(src/cadorder and tests/oracles.py are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    tag = f"{args.workload}-trace{args.trace}"
    try:
        record = workloads.run(wl, args.seconds, bool(args.trace), work,
                               workloads.load_expected(wl.name, wl.seed),
                               trace_out=WORK / f"trace-{args.workload}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.pop("outputs")
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# workload={wl.name} seed={wl.seed} python={record['python']} "
          f"backend={record['backend']} trace={args.trace} calls={record['calls']} "
          f"latency_samples={record['latency_samples']}")
    for note in record["notes"]:
        print(f"# FAILED {note}")
    if args.trace:
        print(f"# spans kept={record['tracer']['spans_kept']} "
              f"dropped={record['tracer']['spans_dropped']}")

    line = result_line(record)
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {record['failed_frac']} 1 ({record['failed']}/{record['attempted']})")
    print(json.dumps(line))
    return 0


def result_line(record: dict) -> dict:
    """The final JSON line: end-to-end metrics, or per-layer ones when traced."""
    import workloads

    if record["trace"]:
        names, values = workloads.PER_LAYER, record["layers"]
    else:
        names, values = workloads.END_TO_END, record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
