"""End-to-end serving benchmark of the dynamic-plan query service.

Run from the repository root::

    python3 perfbench/run.py --workload zipf-exec --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

One workload per process: the script builds the program from ``src/``
of the checkout it sits in, sets the workload up, drives it with one
closed-loop client for ``--seconds`` of measured time, checks every
result, and prints every metric by name and unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The exit code is 0 only when
every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("zipf-exec", "wide-select", "drift-churn")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_NAMES + ("all",),
        default="all",
        help="workload to run; 'all' runs each in its own process",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args):
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.stderr.write("run.py: no program source at %s\n" % SOURCE)
        return 2
    sys.path.insert(0, SOURCE)
    from measure import Run

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir=OUT_DIR)
    run.execute()
    metrics = run.metrics()
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    for name, value in run.raw_summary().items():
        print("# %-32s %14.6g" % (name, value))
    for error in run.errors[:20]:
        print("CHECK FAILED: %s" % error)
    print(
        json.dumps(
            {
                "correct": not run.errors,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if not run.errors else 1


def run_all(args):
    """Each workload in a fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print("== %s" % name, flush=True)
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 and not lines:
            return completed.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
        status = status or completed.returncode
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
