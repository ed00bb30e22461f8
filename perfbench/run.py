"""Layered benchmark of reductionlab's Monte-Carlo ensembles.

    python3 perfbench/run.py --workload born-d4|gibbs-d4|hartree-dense|all \\
        [--seed N] [--seconds S] [--trace 0|1]

`--trace 0` times scenario calls and reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` makes a separate traced run and reports its
per-layer metrics.  Every scenario output passes the workload's correctness
gate or the run is marked failed and posts no time.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; details go to perfbench/out/.  The package is imported from
src/ of the checkout this file sits in.  Metric definitions and the
workloads' purpose are in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("born-d4", "gibbs-d4", "hartree-dense")
PARALLEL_WORKLOADS = ("born-d4",)  # run with workers=nproc, the CLI default
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
N_PROBES = 3       # fresh-interpreter set-ups per run; setup_s is their median
SEED_STRIDE = 64   # at most this many scenario calls per run
REF_SECONDS = 30   # a run of this length makes each workload's `calls` calls


def _call_seed(wl, seed: int, k: int) -> int:
    """Noise base seed of call k; seed 0, call 0 is the acceptance seed."""
    return wl.acceptance_seed + SEED_STRIDE * seed + k


def _cap_blas_threads(workers: int, nproc: int) -> None:
    """Keep worker threads × BLAS threads ≤ nproc.  Must run before numpy
    is imported."""
    cap = max(1, nproc // workers)
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(cap, current)))


def _declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes
    import re

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    found = {}
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(nproc: int, workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": nproc,
        "workers": workers,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ[v] for v in BLAS_ENV},
        "blas_threads": _blas_threads(),
    }


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setups(name: str) -> list[dict]:
    """Set up `name` in N_PROBES fresh interpreters, one after another.
    setup_s runs from spawning the interpreter to inputs ready, less the
    import of the benchmark's own modules."""
    out = []
    for _ in range(N_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append({"setup_s": rec["ready"] - t0 - rec["bench_import_s"],
                    "import_s": rec["import_s"]})
    return out


def _cpu_ticks():
    """(steal, total) ticks of all CPUs so far, from /proc/stat; zeros when
    unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _timed_call(wl, inputs, base_seed, workers):
    """One scenario call and its gate.  Returns a record of the call; the
    wall time runs from the call to the checked result.  steal_frac, the
    share of CPU time the hypervisor gave to other guests meanwhile, tells
    a slow call on a busy host from a slow program."""
    steal0, total0 = _cpu_ticks()
    t0 = time.perf_counter()
    try:
        out = wl.call(inputs, base_seed, workers)
    except (ValueError, RuntimeError) as exc:
        return {"seed": base_seed, "ok": False, "error": repr(exc),
                "ops": wl.n_ops, "failed": wl.n_ops}, None, None
    ok, detail = wl.check(inputs, out)
    wall = time.perf_counter() - t0
    steal1, total1 = _cpu_ticks()
    steps = wl.steps(inputs, out)
    rec = {"seed": base_seed, "ok": bool(ok), "wall_s": wall,
           "steal_frac": (steal1 - steal0) / max(total1 - total0, 1),
           "useful_steps": int(steps.sum()), "ops": wl.n_ops,
           "failed": wl.failed(inputs, out), "check": detail}
    return rec, out, steps


def _result(calls, metrics) -> dict:
    attempted = sum(c["ops"] for c in calls)
    correct = bool(calls) and all(c["ok"] for c in calls)
    failed = sum(c["failed"] for c in calls) if correct else attempted
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics if correct else {}}


def run_untraced(wl, seed, seconds, workers, probes):
    inputs = wl.setup()
    wl.warm(inputs, workers)
    calls = []
    for k in range(min(SEED_STRIDE, max(1, round(wl.calls * seconds / REF_SECONDS)))):
        rec, _, _ = _timed_call(wl, inputs, _call_seed(wl, seed, k), workers)
        calls.append(rec)
        print("call", json.dumps(rec), flush=True)
        if not rec["ok"]:
            break
    if not all(c["ok"] for c in calls):
        return calls, {}
    attempted = sum(c["ops"] for c in calls)
    metrics = {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "traj_steps_per_s": statistics.median(
            c["useful_steps"] / c["wall_s"] for c in calls),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": 1.0 - sum(c["failed"] for c in calls) / attempted,
    }
    return calls, metrics


def _same_runs(a, b) -> bool:
    return len(a) == len(b) > 0 and all(
        x.outcomes.tobytes() == y.outcomes.tobytes()
        and x.reduction_times.tobytes() == y.reduction_times.tobytes()
        and x.final_states.tobytes() == y.final_states.tobytes()
        for x, y in zip(a, b))


def run_traced(wl, seed, nproc, probes):
    """Untraced serial call, then the same call traced.  The traced call
    runs with workers=1 so that span times hold no interpreter-lock waits
    between worker threads; the pool shows in ensemble.parallel_speedup."""
    import numpy as np

    import tracer
    import workloads

    inputs = wl.setup()
    wl.warm(inputs, 1)
    base = _call_seed(wl, seed, 0)
    with tracer.captured_runs() as serial_runs:
        serial, _, _ = _timed_call(wl, inputs, base, 1)
    calls = [serial]
    pooled = None
    if wl.name in PARALLEL_WORKLOADS:
        # the determinism pair doubles as the parallel-speedup measurement
        with tracer.captured_runs() as pool_runs:
            pooled, _, _ = _timed_call(wl, inputs, base, nproc)
        identical = _same_runs(serial_runs, pool_runs)
        print(f"determinism workers=1 vs workers={nproc}: "
              f"{'identical' if identical else 'DIFFERENT'}", flush=True)
        calls += [pooled, {"seed": base, "ok": identical, "ops": 0, "failed": 0,
                           "check": {"workers_1_vs_nproc_identical": identical}}]
    tr = tracer.Tracer()
    with tr.installed():
        traced, _, steps = _timed_call(wl, inputs, base, 1)
    calls.append(traced)
    for c in calls:
        print("call", json.dumps(c), flush=True)
    if not all(c["ok"] for c in calls):
        return calls, {}
    # a serial workload has no pool to speed it up
    speedup = serial["wall_s"] / pooled["wall_s"] if pooled else 1.0

    spans = tr.spans
    self_t = tracer.self_times(spans)

    def of(prefix):
        return [s for s in spans if s[tracer.NAME].startswith(prefix)]

    def dur(ss):
        return sum(s[tracer.T1] - s[tracer.T0] for s in ss)

    def self_sum(ss):
        return sum(self_t[s[tracer.ID]] for s in ss)

    gens, draws = of("noise.trajectory_generator"), of("noise.draw")
    ens, comp = of("ensemble."), of("composite.")
    useful = int(steps.sum())
    samples = sum(s[tracer.SAMPLES] for s in draws)
    wall = traced["wall_s"]
    metrics = {
        "noise.gen_us_per_traj": dur(gens) / len(gens) * 1e6 if gens else 0.0,
        "noise.draw_ns_per_sample": dur(draws) / samples * 1e9 if samples else 0.0,
        "noise.share": (dur(gens) + dur(draws)) / wall,
        "ensemble.self_s": self_sum(ens),
        "ensemble.ns_per_traj_step": self_sum(ens) / useful * 1e9 if ens else 0.0,
        "ensemble.useful_traj_steps": useful if ens else 0,
        "ensemble.steps_p50": float(np.median(steps)) if ens else 0.0,
        "ensemble.steps_max": int(steps.max()) if ens else 0,
        "ensemble.parallel_speedup": speedup,
        "reduction.self_s": self_sum(of("reduction.")),
        "composite.ns_per_traj_step": self_sum(comp) / useful * 1e9 if comp else 0.0,
        "dynamics.step_density_us.d16": workloads.step_density_us(16),
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "trace.overhead_frac": wall / serial["wall_s"] - 1.0,
    }
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"{wl.name}-seed{seed}-spans.json.gz",
             {"workload": wl.name, "seed": seed, "base_seed": base})
    return calls, metrics


def run_one(args) -> int:
    if not (SRC / "reductionlab" / "__init__.py").is_file():
        print(f"error: no reductionlab package under {SRC}", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    workers = nproc if args.workload in PARALLEL_WORKLOADS else 1
    _cap_blas_threads(workers, nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path[:0] = [str(SRC)]

    import reductionlab

    if Path(reductionlab.__file__).resolve().parent != SRC / "reductionlab":
        print(f"error: imported reductionlab from {reductionlab.__file__}", file=sys.stderr)
        return 2
    import workloads

    declared = _declared_metrics(args.trace)
    env = environment(nproc, workers)
    print("env", json.dumps(env), flush=True)
    wl = workloads.WORKLOADS[args.workload]
    probes = probe_setups(wl.name)
    if args.trace:
        calls, metrics = run_traced(wl, args.seed, nproc, probes)
    else:
        calls, metrics = run_untraced(wl, args.seed, args.seconds, workers, probes)
    result = _result(calls, metrics)
    if result["correct"] and set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json "
                           f"{sorted(declared)}")
    result["metrics"] = {k: {"value": v, "unit": declared[k]}
                         for k, v in result["metrics"].items()}
    for k, m in result["metrics"].items():
        print(f"metric {wl.name} {k} = {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env,
         "probes": probes, "calls": calls, **result}, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; merge their results by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode or 1
        code = code or proc.returncode
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if not merged["correct"]:
        merged["metrics"] = {}
    print(json.dumps(merged), flush=True)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="noise seed; 0 runs the acceptance seeds")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="run length; scales the number of scenario calls")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
