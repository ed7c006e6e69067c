"""Run every workload, untraced then traced, and print every metric.

    python3 benchmarks/all.py [--seed 1] [--seconds N] [--out results.json]

Run from the root of a source checkout.  Each workload runs once with
tracing off (end-to-end metrics) and once with tracing on (per-layer
metrics), one child process at a time.  Every metric is printed by name
with its unit and sample count, followed by each workload's failed
operations and the tracing overhead (traced ops/s against untraced ops/s).
The command exits with status 1, after printing what failed, if any run
fails or any correctness check does.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2:
        return None, proc.stderr.strip() or f"exit status {proc.returncode}"
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"detail": detail, **result}, None


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="also write all results to this JSON file")
    args = parser.parse_args()
    results, errors = {}, []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res, err = run_one(wl, args.seed, args.seconds, trace)
            key = f"{wl}/{'traced' if trace else 'untraced'}"
            if err:
                errors.append(f"{key}: {err}")
                continue
            results[key] = res
            if not res["correct"]:
                errors.append(f"{key}: checks failed: {res['detail']['problems']}")
            samples = res["detail"]["samples"]
            print(f"== {key} (seed {args.seed}, {res['detail']['rounds']} rounds)")
            for name, m in res["metrics"].items():
                print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:<6s} "
                      f"n={samples.get(name, res['detail']['rounds'])}")
    print("== failed operations (untraced runs)")
    for wl in (w["name"] for w in spec["workloads"]):
        res = results.get(f"{wl}/untraced")
        if res:
            known = res["detail"]["known_defect_failures"]
            print(f"  {wl:14s} {res['failed']} of {res['attempted']} "
                  f"({res['failed'] / res['attempted']:.4%}), {known} from known defects")
    print("== tracing overhead (traced ops/s relative to untraced)")
    for wl in (w["name"] for w in spec["workloads"]):
        plain, traced = results.get(f"{wl}/untraced"), results.get(f"{wl}/traced")
        if plain and traced:
            ratio = (traced["metrics"]["tracing.ops_per_s"]["value"]
                     / plain["metrics"]["ops_per_s"]["value"])
            print(f"  {wl:14s} {ratio:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "python": sys.version,
                       "results": results}, fh, indent=1, sort_keys=True)
    if errors:
        print("BENCHMARK FAILED:", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
