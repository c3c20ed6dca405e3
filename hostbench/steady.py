#!/usr/bin/env python3
"""Repeat the host-time benchmark and summarise its spread.

Run from the repository root:

  python3 hostbench/steady.py run --workload md-seq --seeds 1-10 --out set1.json
  python3 hostbench/steady.py summary set1.json
  python3 hostbench/steady.py compare set1.json set2.json

`run` executes `bash hostbench/run.sh` once per seed and stores every
result line with its provenance. `summary` prints, per metric, the median,
the first and third quartile (statistics.quantiles, n=4) and the
interquartile range as a share of the median, against the metric's bound
in BENCHMARK.json. `compare` reports how far the second set's medians moved
from the first's; it refuses sets taken on hosts with different nproc.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(args):
    cfg = json.load(open(BENCH))
    seconds = args.seconds or cfg["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = cfg["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
        prov = next((json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance ")), {})
        res = json.loads(lines[-1])
        runs.append({"seed": seed, "provenance": prov, "result": res})
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()) if args.trace == 0)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} {vals}",
              flush=True)
    out = {"workload": args.workload, "seconds": seconds, "trace": args.trace, "runs": runs}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)


def metric_values(s):
    vals = {}
    for r in s["runs"]:
        for k, v in r["result"]["metrics"].items():
            vals.setdefault(k, []).append(v["value"])
    return vals


def bounds():
    cfg = json.load(open(BENCH))
    return {m["name"]: m.get("bound") for m in cfg["end_to_end"] + cfg["per_layer"]}


def summary(args):
    b = bounds()
    for path in args.sets:
        s = json.load(open(path))
        n = len(s["runs"])
        ok = all(r["result"]["correct"] for r in s["runs"])
        nproc = {r["provenance"].get("nproc") for r in s["runs"]}
        print(f"{s['workload']} ({path}): {n} runs, all correct: {ok}, nproc {sorted(nproc)}")
        for k, xs in sorted(metric_values(s).items()):
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = b.get(k)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {k:24s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"iqr/median {spread:7.4f}  bound {bound}  {flag}")


def compare(args):
    a, c = json.load(open(args.base)), json.load(open(args.new))
    na = {r["provenance"].get("nproc") for r in a["runs"]}
    nc = {r["provenance"].get("nproc") for r in c["runs"]}
    if len(na) != 1 or na != nc:
        sys.exit(f"refusing to compare: nproc {sorted(na)} vs {sorted(nc)}")
    b = bounds()
    va, vc = metric_values(a), metric_values(c)
    worse = False
    for k in sorted(va):
        if k not in vc:
            continue
        ma, mc = statistics.median(va[k]), statistics.median(vc[k])
        change = (mc - ma) / ma if ma else float("nan")
        bound = b.get(k)
        verdict = ""
        if bound is not None:
            lower = next((m["better"] == "lower" for m in json.load(open(BENCH))["end_to_end"] if m["name"] == k), True)
            worsening = change if lower else -change
            verdict = "worse than bound" if worsening > bound else "within bound"
            worse = worse or worsening > bound
        print(f"{k:24s} {ma:12.5g} -> {mc:12.5g}  change {change:+.4f}  bound {bound}  {verdict}")
    sys.exit(1 if worse else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("sets", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    if not os.path.exists(BENCH):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    {"run": run, "summary": summary, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
