#!/usr/bin/env python3
"""Build and run the host-path RPC benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload small_verbs --seed 1 --seconds 10 --trace 0

builds the `perfbench` package (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one workload and passes its report through; the
last line of standard output is the JSON result. With --trace 1 the
spans are also written to <target>/perfbench/<workload>.spans.csv.

Repeat mode runs each workload k times with seeds seed, seed+1, ... and
prints every metric's median and quartiles against its bound from
BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 [--workload W ...] [--trace 0|1]
                             [--save runs.json] [--baseline parent.json]

--save writes the raw values; --baseline compares this code's medians
with a saved set (e.g. from the parent commit) and fails when a metric
got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: build failed (exit {done.returncode})", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload; return (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(target_dir(), "perfbench", f"{workload}.spans.csv")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        print(f"perfbench: {workload} seed {seed} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, out
    return done.returncode, done.stdout


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args, binary):
    spec = load_spec()
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[key]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    runs = {}
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.repeat):
            seed = args.seed + i
            code, out = run_once(binary, w, seed, seconds, args.trace)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if code != 0 or result is None or not result["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {code})\n{out}", file=sys.stderr)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            slices = next((l for l in lines if l.startswith("verified calls")), "")
            print(f"{w} seed {seed}: ok, {result['attempted']} calls attempted; {slices}", file=sys.stderr)
        runs[w] = values
        print(f"\n{w}: {args.repeat} runs of {seconds} s, trace {args.trace}")
        print(f"  {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            m = declared.get(name, {})
            bound = m.get("bound")
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "steady" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
                ok &= spread <= bound
            if baseline and name in baseline.get(w, {}):
                base = statistics.median(baseline[w][name])
                worse = (med - base) / base if m.get("better") == "lower" else (base - med) / base
                verdict += f"  vs baseline {-worse:+.1%} (+ is better)"
                if bound is not None and worse > bound:
                    verdict += " REGRESSION"
                    ok = False
            bound_s = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<36} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.2%} {bound_s:>6}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", help="workload name (repeatable in --repeat mode)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, help="runs per workload, each with the next seed")
    p.add_argument("--save", help="repeat mode: write the raw values here")
    p.add_argument("--baseline", help="repeat mode: compare medians with values saved by --save")
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.repeat:
        return repeat(args, binary)
    if not args.workload or len(args.workload) != 1:
        p.error("exactly one --workload is required without --repeat")
    seconds = args.seconds or load_spec()["run_seconds"]
    code, out = run_once(binary, args.workload[0], args.seed, seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
