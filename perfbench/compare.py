#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per (workload, metric).

    python3 perfbench/compare.py --base results-parent/ --change results-pr/

Each side is a list of result files written by run.py, or directories
holding them.  Runs of one workload are paired by seed (by order when
the seeds differ), and each pairing of workload and end-to-end metric
is judged by the rules of the benchmark's method:

- improved:   the change wins at least 9 of every 10 pairs (ties count
              for neither) and the medians differ, in the better
              direction, by more than the base's interquartile range;
- regressed:  the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json;
- unresolved: in place of unchanged, when the base's own spread
              (interquartile range over median) is wider than the bound,
              so a regression within it cannot be ruled out, and not
              every change run beats every base run;
- unchanged:  none of the above.

Traced runs (--trace 1), when both sides have them, add rows for the
per-layer metrics; those have no bound, so they are only ever improved,
regressed (the mirror of the improvement rule) or unresolved.  Exits 1
when a row regressed, 2 when a result file records a failed request.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    runs = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            d = json.loads(f.read_text())
            if "metrics" in d and "workload" in d:
                runs.append(d)
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def pairs(base, change):
    """Pair runs by seed; fall back to order for unmatched ones."""
    by_seed = {r["seed"]: r for r in change}
    matched = [(b, by_seed.pop(b["seed"])) for b in base if b["seed"] in by_seed]
    rest_b = [b for b in base if all(b is not m[0] for m in matched)]
    return matched + list(zip(rest_b, by_seed.values()))


def judge(metric, base, change, bound):
    higher = metric["better"] == "higher"
    name = metric["name"]
    def value(r):  # None when absent, or a percentile on a failed request
        return r["metrics"].get(name, {}).get("value")

    b = [value(r) for r in base if value(r) is not None]
    c = [value(r) for r in change if value(r) is not None]
    if not b or not c:
        return None
    ps = [(value(x), value(y)) for x, y in pairs(base, change)
          if value(x) is not None and value(y) is not None]

    def better(new, old):
        return new > old if higher else new < old

    wins = sum(better(y, x) for x, y in ps)
    losses = sum(better(x, y) for x, y in ps)
    mb, mc = statistics.median(b), statistics.median(c)
    q1, q3 = quartiles(b)
    iqr = q3 - q1
    spread = iqr / abs(mb) if mb else float("inf")
    worse = (mb - mc if higher else mc - mb) / abs(mb) if mb else 0.0
    n = len(ps)
    if n and wins >= 0.9 * n and better(mc, mb) and abs(mc - mb) > iqr:
        verdict = "improved"
    elif bound is None:
        regressed = n and losses >= 0.9 * n and abs(mc - mb) > iqr
        verdict = "regressed" if regressed else "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif spread > bound and not all(better(y, x) for y in c for x in b):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "base": (mb, q1, q3, len(b)),
        "change": (mc, *quartiles(c), len(c)),
        "delta": (mc - mb) / abs(mb) if mb else 0.0,
        "wins": f"{wins}/{n}",
        "spread": spread,
        "verdict": verdict,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(a.base), load(a.change)
    failed = [r for r in base + change if r.get("failed")]
    metrics = [(m, 0, m["bound"]) for m in spec["end_to_end"]]
    metrics += [(m, 1, None) for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':11} {'metric':28} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>6} verdict")
    regressed = False
    for w in workloads:
        for m, trace, bound in metrics:
            rb = [r for r in base if r["workload"] == w and r["trace"] == trace]
            rc = [r for r in change if r["workload"] == w and r["trace"] == trace]
            j = judge(m, rb, rc, bound)
            if j is None:
                continue
            regressed |= j["verdict"] == "regressed"
            fmt = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}] n={t[3]}"
            print(f"{w:11} {m['name']:28} {fmt(j['base']):>32} "
                  f"{fmt(j['change']):>32} {j['delta']:+8.1%} {j['wins']:>6} "
                  f"{j['verdict']}")
    if failed:
        print(f"{len(failed)} result file(s) record failed requests", file=sys.stderr)
        sys.exit(2)
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
