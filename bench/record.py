"""Record a BENCH_<n>.json: benchmark medians of a parent and a change.

    python3 bench/record.py --parent DIR --change DIR [--runs 10] --out BENCH_<n>.json

DIR is a checkout of each commit (for example `git clone` of the repository
reset to that commit).  For every workload of BENCHMARK.json and every
seed s < runs, `perfbench/run.py --workload W --seed s` runs in the parent
and in the change checkout as one pair, the change first on even seeds and
the parent first on odd ones.  Each end-to-end metric keeps its per-run
values, median and quartiles, and the number of pairs the change won
(by the metric's `better` direction; ties count for neither side).  Each
side is identified by its git_sha, when the checkout has a .git, and by
src_sha256, a digest of the Python files under its src/.

Every subprocess runs with PYTHONDONTWRITEBYTECODE=1, and a checkout that
already holds a src/**/__pycache__ is refused: a bytecode cache left in one
side only would lower that side's setup_s.

perfbench's peak_rss_mb reads the benchmark process only.  To see the
memory of worker processes, one call of each WORKER_RSS_WORKLOADS workload
at workers=nproc (a born-d4 scenario and a hartree-dense comparison) also
runs in a fresh interpreter per checkout, which reports its own peak RSS
and, from getrusage(RUSAGE_CHILDREN), the largest peak RSS of the worker
processes it waited for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}

WORKER_RSS_WORKLOADS = ("born-d4", "hartree-dense")
WORKER_RSS = r"""
import json, os, resource, sys
root, name = sys.argv[1:3]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import workloads
wl = workloads.WORKLOADS[name]
inputs = wl.setup()
wl.call(inputs, wl.acceptance_seed, os.cpu_count() or 1)
mb = lambda who: resource.getrusage(who).ru_maxrss / 1024.0
print(json.dumps({"self_mb": mb(resource.RUSAGE_SELF),
                  "children_mb": mb(resource.RUSAGE_CHILDREN)}))
"""


def perfbench(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed)], capture_output=True, text=True, cwd=checkout, env=ENV)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout} {workload} seed {seed} failed its gate:\n{proc.stdout}")
    out = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    env = json.loads(out.read_text())["env"]
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()}, "env": env}


def src_digest(checkout: Path) -> str:
    """sha256 over the relative path and the bytes of every src/**/*.py file."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        name, data = path.relative_to(checkout).as_posix().encode(), path.read_bytes()
        h.update(b"%d:%s%d:%s" % (len(name), name, len(data), data))
    return h.hexdigest()


def worker_rss(checkout: Path, workload: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", WORKER_RSS, str(checkout), workload],
                          capture_output=True, text=True, check=True, env=ENV)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        for cache in (checkout / "src").rglob("__pycache__"):
            ap.error(f"{cache} exists: a bytecode cache would lower that side's setup_s; "
                     "remove it first")
    runs = {side: {w["name"]: [] for w in spec["workloads"]} for side in sides}
    env = {}
    for w in spec["workloads"]:
        for seed in range(args.runs):
            for side in sorted(sides, reverse=seed % 2 == 1):  # alternate who goes first
                rec = perfbench(sides[side], w["name"], seed)
                runs[side][w["name"]].append(rec["metrics"])
                env[side] = rec["env"]
                print(side, w["name"], seed, json.dumps(rec["metrics"]), flush=True)
    record = {"runs_per_workload": args.runs, "seeds": list(range(args.runs)),
              "command": spec["command"], "machine": {
                  k: env["change"][k] for k in ("nproc", "cpu", "python", "numpy", "blas")}}
    for side in sides:
        record[side] = {
            "git_sha": env[side]["git_sha"], "src_sha256": src_digest(sides[side]),
            "workloads": {name: {m: summary([r[m] for r in rs]) for m in rs[0]}
                          for name, rs in runs[side].items()},
            **{f"{name.replace('-', '_')}_worker_rss": worker_rss(sides[side], name)
               for name in WORKER_RSS_WORKLOADS}}
    sign = {m["name"]: 1 if m["better"] == "higher" else -1 for m in spec["end_to_end"]}
    record["change_vs_parent"] = {name: {m: {
        "median_ratio": record["change"]["workloads"][name][m]["median"] / v["median"],
        "pairs_won": sum(sign[m] * (c[m] - p[m]) > 0
                         for p, c in zip(runs["parent"][name], runs["change"][name])),
        "pairs": args.runs} for m, v in metrics.items()}
        for name, metrics in record["parent"]["workloads"].items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["change_vs_parent"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
