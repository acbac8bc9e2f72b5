#!/usr/bin/env python3
"""Run one workload of the served-query benchmark and print its result.

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 15 --trace 0

Builds perfbench/main.exe with dune, runs it, writes the full result
(every metric with its unit and sample count, the percentile each tail
figure rests on, workload parameters, seed, nproc, OCaml version and
source revision) to perfbench/results/, prints a summary, and ends with
one JSON line holding `correct`, `attempted`, `failed` and the metrics
BENCHMARK.json declares for the mode: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Exits non-zero
when any answer is wrong or any request fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("warm-mix", "adhoc-plan", "scan-exec")
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_revision():
    """The git commit when there is one, and a digest of the sources
    either way, so results from a plain checkout stay attributable."""
    rev = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            rev = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and (p.suffix in (".ml", ".mli") or p.name == "dune"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return rev, h.hexdigest()[:16]


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 1)
    if r.returncode != 0:
        die("build failed", 1)
    return ROOT / "_build" / "default" / "perfbench" / "main.exe"


def run_main(exe, args):
    """Run main.exe in its own process group, so a timeout also stops
    the server child it forks."""
    p = subprocess.Popen([str(exe)] + args, cwd=ROOT, start_new_session=True)
    try:
        return p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the self-test")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    # The engine reads STRDB_* variables at start-up and the plan cache
    # key does not record them: an inherited one would silently measure
    # a different engine.
    leaked = sorted(k for k in os.environ if k.startswith("STRDB_"))
    if leaked:
        die("refusing to run with " + ", ".join(leaked) + " set")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if a.trace else spec["end_to_end"]

    exe = build()
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}-{stamp}-{os.getpid()}"
    raw = RESULTS / f"{name}.raw.json"
    # Unix socket paths are short: keep it relative to the checkout.
    socket = os.path.relpath(RESULTS / f"s{os.getpid()}.sock", ROOT)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--socket", socket, "--out", str(raw),
            "--spans", str(RESULTS / f"{name}.spans.jsonl")]
    if a.tiny:
        args.append("--tiny")
    code = run_main(exe, args)
    if code != 0 or not raw.exists():
        die(f"main.exe exited with code {code}", 1)
    result = json.loads(raw.read_text())
    raw.unlink()

    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        die("metrics not emitted: " + ", ".join(missing), 1)
    for m in declared:
        got = result["metrics"][m["name"]]["unit"]
        if got != m["unit"]:
            die(f"{m['name']}: unit {got}, BENCHMARK.json says {m['unit']}", 1)

    rev, digest = source_revision()
    result.update({
        "git_rev": rev,
        "source_digest": digest,
        "cpu_count": os.cpu_count(),
        "command": ["python3", "perfbench/run.py"] + sys.argv[1:],
    })
    result["correct"] = result["failed"] == 0
    out = RESULTS / f"{name}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"{a.workload} seed={a.seed} trace={a.trace} nproc={result['nproc']} "
          f"connections={result['connections']} ocaml={result['ocaml']} "
          f"git={rev or '-'} source={digest}")
    print("  params: " + json.dumps(result["params"]))
    for k, v in result["metrics"].items():
        extra = f"  (p{v['percentile']}, {v['beyond']} beyond)" if "beyond" in v else ""
        value = "-" if v["value"] is None else f"{v['value']:.6g}"
        print(f"  {k:28} {value:>14} {v['unit']:8} n={v['samples']}{extra}")
    if result["failed"]:
        print(f"  FAILED: {result['failures']}")
    print(f"  result: {os.path.relpath(out, ROOT)}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(line))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
