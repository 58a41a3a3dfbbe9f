"""Benchmark of the ``mpst`` checker: time to a verdict, the share of
calls that get a definite answer, and answers checked against known
ones.  Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all [--runs 3] [--trace 1] [--out results.json]
    python3 bench/run.py --compare parent.json change.json
    python3 bench/run.py --ladder > bench/ladder.txt

One run runs passes over every input for ``--seconds`` seconds, each
on a fresh set-up of its workload, and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` (calls whose answer
contradicts a known one) and ``metrics``: the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
``--all`` runs every workload in its own process and prints the median
and quartiles of each metric; ``--compare`` judges two such result
files by the bounds in BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_checkout():
    """Put the package and its test helpers on the path; False when the
    checkout does not hold them."""
    if not (ROOT / "src" / "mpst").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"run.py: {ROOT} holds no src/mpst package and tests/ helpers",
              file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return True


def single(args, spec):
    if not use_checkout():
        return 2
    import harness
    import workloads

    limit = workloads.LIMITS[args.workload]
    env = harness.environment(ROOT, args.workload, args.seed, args.seconds,
                              args.trace, limit)
    print("env " + json.dumps(env), flush=True)
    spans_out = (ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
                 if args.trace else None)
    out, detail = harness.measure(workloads.WORKLOADS[args.workload], ROOT,
                                  args.seed, args.seconds, args.trace, limit,
                                  spans_out=spans_out)
    print("detail " + json.dumps(detail))
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    missing = set(units) ^ set(out["metrics"])
    if missing:
        print(f"run.py: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 3
    for name, value in out["metrics"].items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    for line in detail["wrong_verdicts"]:
        print(f"WRONG {line}")
    out["metrics"] = {name: {"value": value, "unit": units[name]}
                      for name, value in out["metrics"].items()}
    print(json.dumps(out))
    return 0


def run_all(args, spec):
    """Every workload ``--runs`` times, each run in its own process."""
    results = {}
    for w in [w["name"] for w in spec["workloads"]]:
        results[w] = []
        for k in range(args.runs):
            seed = args.seed + k
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"run.py: {w} seed {seed} failed", file=sys.stderr)
                return 1
            env = json.loads(lines[0][len("env "):])
            results[w].append({"seed": seed, "env": env,
                               "result": json.loads(lines[-1])})
        print_table(w, results[w])
    env = dict(results[w][0]["env"])
    for key in ("workload", "seed", "per_call_limit_s"):
        env.pop(key)
    doc = {"env": env, "runs": results}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    bad = [w for w, rs in results.items() for r in rs if not r["result"]["correct"]]
    return 1 if bad else 0


def print_table(workload, runs):
    limit = runs[0]["env"]["per_call_limit_s"]
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    correct = all(r["result"]["correct"] for r in runs)
    print(f"\n== {workload}: {len(runs)} runs, per-call limit {limit} s, "
          f"{attempted} calls, {failed} wrong, correct={correct}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        q1, q3 = compare.quartiles(values)
        print(f"{name:48s} {statistics.median(values):14.6g} {unit:8s} "
              f"[{q1:.6g}, {q3:.6g}]  spread {compare.spread(values):.3f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    mode.add_argument("--ladder", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare.main(*args.compare, spec)
    if args.ladder:
        if not use_checkout():
            return 2
        import ladder
        return ladder.main()
    if args.all:
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
