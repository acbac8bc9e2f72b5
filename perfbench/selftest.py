#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload, a short timed run and a short traced run must both
complete with no failed request (every answer equal to the oracle's, and
in the traced run every replayed answer equal to Eval.execute's) and
must emit every metric BENCHMARK.json declares for their mode.  The
benchmark must also refuse to run with an STRDB_* variable set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            r = run(w, trace)
            tag = f"{w} --trace {trace}"
            if r.returncode != 0:
                problems.append(f"{tag}: exit {r.returncode}: {r.stderr.strip()[-300:]}")
                continue
            line = json.loads(r.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{tag}: {line['failed']} of {line['attempted']} failed")
            missing = {m["name"] for m in declared} - set(line["metrics"])
            if missing:
                problems.append(f"{tag}: missing {sorted(missing)}")
            print(f"ok  {tag}: {line['attempted']} requests, none failed")
    env = dict(os.environ, STRDB_FUSE="0")
    r = run("warm-mix", 0, env)
    if r.returncode == 0 or r.stdout.strip():
        problems.append("ran with STRDB_FUSE set")
    else:
        print("ok  refuses to run with STRDB_FUSE set")
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
