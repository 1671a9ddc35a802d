#!/usr/bin/env python3
"""Compare the benchmark on two checkouts, in alternating pairs.

    python3 perfbench/compare.py --a PARENT_DIR --b CHANGE_DIR \
        [--workloads grid,serve] [--runs 10] [--first-seed 1] \
        [--trace 0|1] [--out runs.jsonl]
    python3 perfbench/compare.py --load runs.jsonl

The workloads default to BENCHMARK.json's. Pair i runs every workload
with seed first-seed + i on both checkouts, A first on even pairs and B
first on odd ones, through each checkout's own perfbench/run.py for
BENCHMARK.json's run_seconds. --a and --b may name the same checkout,
which measures the benchmark's own noise.

For each workload and metric it reports each side's median and
quartiles, the spread (quartile distance over the median), and the
share of pairs each side wins (ties count for neither). The verdict
follows the rule in BENCHMARK.json's bounds:

  unresolved  a side's spread exceeds the bound, unless every B run
              beats every A run
  regression  B's median is worse than A's by more than the bound
  gain        B wins at least 90% of the pairs and the medians differ
              by more than A's quartile distance
  same        otherwise

Per-layer metrics have no bound; they are reported without a verdict.
The exit code is 1 when any run failed or any end-to-end verdict is
unresolved or a regression, else 0.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(checkout, workload, seed, trace):
    cmd = [sys.executable, str(pathlib.Path(checkout) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def collect(args):
    records = []
    out = open(args.out, "a") if args.out else None
    for i in range(args.runs):
        seed = args.first_seed + i
        order = [("a", args.a), ("b", args.b)]
        if i % 2:
            order.reverse()
        for workload in args.workloads.split(","):
            for side, checkout in order:
                result = run_once(checkout, workload, seed, args.trace)
                rec = {"pair": i, "side": side, "workload": workload,
                       "seed": seed, "trace": args.trace, "result": result}
                records.append(rec)
                print(f"pair {i} {workload} {side}: correct="
                      f"{result['correct']}", file=sys.stderr, flush=True)
                if out:
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
    if out:
        out.close()
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec, a, b, wins_b, pairs):
    lower = spec["better"] == "lower"
    bound = spec.get("bound")
    if bound is None:
        return ""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if spread > bound and not all_better:
        return "unresolved"
    worse = (bm - am) if lower else (am - bm)
    if am and worse / abs(am) > bound:
        return "regression"
    if pairs and wins_b / pairs >= 0.9 and -worse > (a3 - a1):
        return "gain"
    return "same"


def report(records):
    ok = True
    specs = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for r in records:
        if not r["result"]["correct"]:
            ok = False
            print(f"FAILED run: pair {r['pair']} {r['workload']} side "
                  f"{r['side']} seed {r['seed']}")
    workloads = sorted({r["workload"] for r in records})
    for workload in workloads:
        rows = [r for r in records if r["workload"] == workload]
        names = [n for n in specs
                 if any(n in r["result"]["metrics"] for r in rows)]
        print(f"\n{workload}: {len({r['pair'] for r in rows})} pairs")
        print(f"{'metric':26} {'A q1/median/q3':>32} {'B q1/median/q3':>32}"
              f" {'A wins':>7} {'B wins':>7}  verdict")
        for name in names:
            spec = specs[name]
            by_pair = {}
            for r in rows:
                m = r["result"]["metrics"].get(name)
                if m is not None:
                    by_pair.setdefault(r["pair"], {})[r["side"]] = m["value"]
            a = [v["a"] for v in by_pair.values() if "a" in v]
            b = [v["b"] for v in by_pair.values() if "b" in v]
            if not a or not b:
                continue
            both = [v for v in by_pair.values() if "a" in v and "b" in v]
            sign = 1 if spec["better"] == "lower" else -1
            wins_a = sum(1 for v in both if sign * (v["a"] - v["b"]) < 0)
            wins_b = sum(1 for v in both if sign * (v["b"] - v["a"]) < 0)
            v = verdict(spec, a, b, wins_b, len(both))
            if v in ("unresolved", "regression"):
                ok = False
            fa = "/".join(f"{x:.4g}" for x in quartiles(a))
            fb = "/".join(f"{x:.4g}" for x in quartiles(b))
            n = max(len(both), 1)
            print(f"{name:26} {fa:>32} {fb:>32} {wins_a / n:7.0%} "
                  f"{wins_b / n:7.0%}  {v}")
    return ok


def main(argv):
    p = argparse.ArgumentParser(prog="perfbench/compare.py")
    p.add_argument("--a", help="checkout measured as the parent")
    p.add_argument("--b", help="checkout measured as the change")
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append every run as a JSON line")
    p.add_argument("--load", nargs="+", help="report saved runs instead")
    args = p.parse_args(argv)
    if args.load:
        records = [json.loads(line) for path in args.load
                   for line in open(path) if line.strip()]
    elif args.a and args.b:
        records = collect(args)
    else:
        p.error("give --a and --b, or --load")
    return 0 if report(records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
