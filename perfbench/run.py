"""Benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (and the tracing overhead). The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a full record with provenance and sample counts is written to
``.bench_out/``. The exit code is 1 when any correctness check failed and
2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: the machine has two cores and is shared, and one thread
# keeps GEMM timings steady. Set before numpy is first imported.
BLAS_THREADS = "1"
WORKLOAD_CHOICES = ("train-desk", "sample-guided", "ref-forward", "all")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_CHOICES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()},
    }


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  seconds {record['seconds']}")
    for name, entry in sorted(record["metrics"].items()):
        counts = f"n={entry['samples']}"
        if "beyond" in entry:
            counts += f" beyond={entry['beyond']}"
        source = f"  [{entry['source']}]" if "source" in entry else ""
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']:10s} {counts}{source}")
    print(f"  failed_op_share {record['failed_op_share']:.6g} "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for message in record["failures"]:
        print(f"  FAILED: {message}")
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in a fresh process; one summary line per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_CHOICES[:-1]:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"{workload}: exited with code {child.returncode}", file=sys.stderr)
            return 2
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, entry in line["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lmlp" / "__init__.py").is_file():
        print(f"error: lmlp sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import lmlp

    if Path(lmlp.__file__).resolve().parent != (SRC / "lmlp").resolve():
        print(f"error: imported lmlp from {lmlp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           ROOT, ROOT / ".bench_out")
    report(record)
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
