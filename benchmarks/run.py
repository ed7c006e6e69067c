"""Run one benchmark workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload stream --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and its bundled files are read from ``demos/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it gives each
metric's sample count and any failed check.  Without the program's
sources the run exits with an error and prints no result.
"""

import argparse
import json
import os
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "decided_ratio": "ratio",
              "peak_rss_mb": "MB"}


def load_program():
    """Import quantmon from the checkout's own ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    for rel in ("src/quantmon/__init__.py", "demos/machines/mmax.mspec"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            sys.exit(f"benchmark: {rel} not found; run from the root of a quantmon checkout")
    sys.path[:0] = [src, HERE]
    import quantmon
    if os.path.dirname(os.path.abspath(quantmon.__file__)) != os.path.join(src, "quantmon"):
        sys.exit(f"benchmark: imported quantmon from {quantmon.__file__}, not from {src}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r} "
                 f"(choose from {', '.join(workloads.WORKLOADS)})")
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, bool(args.trace))
    e2e = wl.run(args.seconds)
    tally = wl.tally
    if args.trace:
        units = {name: unit for name, unit, _ in workloads.PER_LAYER}
        values = wl.layer
    else:
        units, values = END_TO_END, e2e
    detail = {"workload": args.workload, "seed": args.seed, "rounds": wl.rounds,
              "samples": wl.samples, "limit_samples": wl.layer["verdict.limit_samples"],
              "known_defect_failures": tally.known, "problems": tally.problems[:20]}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
