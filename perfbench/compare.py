#!/usr/bin/env python3
"""Compare two sets of HTAP benchmark results against BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a JSON-lines results file written by perfbench/run.py
(one record per run; traced runs are ignored). For every workload and
every end-to-end metric it prints the median and quartiles of both
sets and a verdict, using the metric's bound from BENCHMARK.json:

  worse       the new median is worse than the base median by more
              than the bound, and the base runs' spread (interquartile
              range over median) is within the bound;
  unresolved  the base spread is wider than the bound, so a change of
              that size cannot be told from noise, and not every new
              run is better than every base run;
  ok          otherwise.

A workload's verdict is its worst metric verdict. The exit code is 1
when any workload is worse, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RANK = {"ok": 0, "unresolved": 1, "worse": 2}


def load(path):
    """Untraced end-to-end values: {workload: {metric: [values]}}."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            per = out.setdefault(rec["workload"], {})
            for name, m in rec["end_to_end"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    """(median, q1, q3); quartiles as statistics.quantiles(n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, new, metric):
    bmed, bq1, bq3 = summary(base)
    nmed, _, _ = summary(new)
    higher = metric["better"] == "higher"
    worse_by = (bmed - nmed) if higher else (nmed - bmed)
    worse_share = worse_by / bmed if bmed else 0.0
    spread = (bq3 - bq1) / bmed if bmed else 0.0
    if spread > metric["bound"]:
        all_better = (min(new) > max(base)) if higher else \
            (max(new) < min(base))
        return ("ok" if all_better else "unresolved"), worse_share, spread
    return ("worse" if worse_share > metric["bound"] else "ok"), \
        worse_share, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(args.base), load(args.new)

    any_worse = False
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"{name:16s} missing from "
                  f"{'base' if name not in base else 'new'} results")
            continue
        rows, overall = [], "ok"
        for m in bench["end_to_end"]:
            b, n = base[name].get(m["name"]), new[name].get(m["name"])
            if not b or not n:
                continue
            v, worse_share, spread = verdict(b, n, m)
            if RANK[v] > RANK[overall]:
                overall = v
            bmed, bq1, bq3 = summary(b)
            nmed, nq1, nq3 = summary(n)
            rows.append(
                f"  {m['name']:18s} base {bmed:11.5g} [{bq1:.5g}, {bq3:.5g}]"
                f"  new {nmed:11.5g} [{nq1:.5g}, {nq3:.5g}]"
                f"  worse by {100 * worse_share:+6.1f}%"
                f"  spread {100 * spread:5.1f}%"
                f"  bound {100 * m['bound']:.0f}%  {v}")
        runs = (len(next(iter(base[name].values()))),
                len(next(iter(new[name].values()))))
        print(f"{name:16s} {overall:10s} (base {runs[0]} runs, "
              f"new {runs[1]} runs; median [q1, q3])")
        print("\n".join(rows))
        any_worse = any_worse or overall == "worse"
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
