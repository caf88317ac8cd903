#!/usr/bin/env python3
"""Repeated runs of the funnel benchmark and their comparison.

    # ten seeds of every workload (untraced), one JSON line per run
    python3 funnelbench/compare.py sweep --seeds 1-10 --out a.jsonl
    # spread of each end-to-end metric: median, quartiles, IQR / median
    python3 funnelbench/compare.py spread a.jsonl
    # B against A: median ratio and whether B is worse than A's bound
    python3 funnelbench/compare.py diff a.jsonl b.jsonl

sweep runs run.py once per (seed, workload), workloads interleaved so host
drift spreads over all of them. README.md describes A/A and A/B use.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def sweep(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                start = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True)
                run_s = time.monotonic() - start
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    print("%s seed %d: exit %d\n%s" % (
                        workload, seed, proc.returncode, proc.stderr[-2000:]),
                        file=sys.stderr)
                    continue
                record = {"workload": workload, "seed": seed,
                          "trace": args.trace, "run_s": run_s,
                          "fingerprint": json.loads(lines[-2])["fingerprint"],
                          "result": json.loads(lines[-1])}
                out.write(json.dumps(record) + "\n")
                out.flush()
                metrics = record["result"]["metrics"]
                print("%-22s seed %3d %5.1f s correct=%s %s" % (
                    workload, seed, run_s, record["result"]["correct"],
                    " ".join("%s=%.4g" % (k, v["value"])
                             for k, v in sorted(metrics.items())
                             if args.trace == 0)))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record["trace"] != 0:
                continue
            runs.setdefault(record["workload"], []).append(record["result"])
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(args):
    spec = load_spec()
    runs = load_runs(args.file)
    ok = True
    for workload, results in sorted(runs.items()):
        bad = sum(1 for r in results if not r["correct"] or r["failed"])
        print("%s: %d runs, %d not correct" % (workload, len(results), bad))
        ok &= bad == 0
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, med, q3 = summary(values)
            share = (q3 - q1) / abs(med) if med else float("inf")
            within = share <= metric["bound"] / 3
            ok &= within
            print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f"
                  " (bound %.2f, %s)" % (metric["name"], med, q1, q3, share,
                                         metric["bound"],
                                         "ok" if within else "WIDE"))
    return 0 if ok else 1


def diff(args):
    spec = load_spec()
    a, b = load_runs(args.a), load_runs(args.b)
    worse = False
    for workload in sorted(set(a) & set(b)):
        print(workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            change = (mb - ma) / abs(ma) if ma else 0.0
            regress = -change if metric["better"] == "higher" else change
            flag = "WORSE" if regress > metric["bound"] else "ok"
            worse |= flag == "WORSE"
            print("  %-16s A %-12.6g B %-12.6g B/A %.4f (bound %.2f, %s)" % (
                name, ma, mb, mb / ma if ma else float("nan"),
                metric["bound"], flag))
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--workload", action="append")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("spread")
    p.add_argument("file")
    p = sub.add_parser("diff")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    return {"sweep": sweep, "spread": spread, "diff": diff}[args.command](args) or 0


if __name__ == "__main__":
    sys.exit(main())
