"""End-to-end simulation ledger for the XRON reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload event-n11 --seed 1 --seconds 30
    python3 perfbench/run.py --workload epoch-n50 --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

Prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit, the correctness checks and a digest of
the modeled outputs, then one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs each workload in its own process, one after the other.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("event-n11", "epoch-n50", "serve-chaos-n5")


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end simulation ledger (see perfbench/README.md)")
    parser.add_argument("--workload", choices=NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="timed wall seconds on the reference host "
                             "(untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from ledger import END_TO_END, per_layer_names, run_traced, run_untraced
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench"
    scratch = workdir / f"scratch-{args.workload}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            ledger, metrics = run_traced(
                args.workload, args.seed, scratch,
                workdir / "traces" / f"{args.workload}.json")
            names = per_layer_names()
        else:
            ledger, metrics = run_untraced(args.workload, args.seed,
                                           args.seconds, scratch)
            names = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{ledger.info}")
    print(f"  why: {WORKLOADS[args.workload].why}")
    for name, ok, detail in ledger.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name} ({detail})")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<40} {_fmt(value):>14} {unit:<8} {note}")
    print(f"  digest {ledger.outcomes[0].digest}")
    correct, attempted, failed = ledger.totals()
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name][0], "unit": unit}
                        for name, unit in names}}


def run_all(args) -> dict:
    """Each workload in a fresh process, so memory and caches are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {name} exited {proc.returncode}")
        doc = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        for metric, value in doc["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    return merged


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    doc = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
