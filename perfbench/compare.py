#!/usr/bin/env python3
"""Spread and regression checks over benchmark runs.

    python3 perfbench/compare.py spread --workload calls_hot --seeds 1 2 3 4 5
    python3 perfbench/compare.py regress BASE.json NEW.json

`spread` runs the benchmark once per seed and prints, for each
end-to-end metric, the median and the distance between the first and
third quartiles as a share of the median, beside the metric's bound in
BENCHMARK.json. The runs are saved to .bench_out/spread-<workload>.json.

`regress` compares two such saved files (or single results) by median and
lists every end-to-end metric that got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0, extra=()):
    """One benchmark run; returns its result object."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def spread(vals):
    """Interquartile distance as a share of the median."""
    if len(vals) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base if base else 0.0
    return -change if better == "higher" else change


def regressions(bench, base_runs, new_runs):
    """End-to-end metrics whose median got worse by more than the bound."""
    found = []
    for m in bench["end_to_end"]:
        base = statistics.median(values(base_runs, m["name"]))
        new = statistics.median(values(new_runs, m["name"]))
        w = worse_by(base, new, m["better"])
        if w > m["bound"]:
            found.append((m["name"], base, new, w))
    return found


def cmd_spread(args):
    bench = load_bench()
    runs = []
    for seed in args.seeds:
        r = run_once(args.workload, seed, args.seconds or bench["run_seconds"])
        if not r["correct"]:
            print(f"seed {seed}: incorrect ({r['failed']} failed)")
        runs.append(r)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"spread-{args.workload}.json"), "w") as f:
        json.dump(runs, f)
    ok = True
    for m in bench["end_to_end"]:
        v = values(runs, m["name"])
        s = spread(v)
        flag = "" if s <= m["bound"] / 3 else "  WIDE"
        ok &= flag == ""
        print(f"{m['name']:<22} median {statistics.median(v):<14.6g} spread {s:.4f} "
              f"bound {m['bound']}{flag}")
    return 0 if ok else 1


def load_runs(path):
    with open(path) as f:
        data = json.load(f)
    return data if isinstance(data, list) else [data]


def cmd_regress(args):
    found = regressions(load_bench(), load_runs(args.base), load_runs(args.new))
    for name, base, new, w in found:
        print(f"REGRESSION {name}: {base:.6g} -> {new:.6g} ({w:+.1%} worse)")
    if not found:
        print("no regression beyond the bounds")
    return 1 if found else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    s.add_argument("--seconds", type=float, default=None)
    s.set_defaults(func=cmd_spread)
    r = sub.add_parser("regress")
    r.add_argument("base")
    r.add_argument("new")
    r.set_defaults(func=cmd_regress)
    args = p.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
