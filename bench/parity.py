"""Compare what the CLI writes, and what the test suite digests, in two checkouts.

    python3 bench/parity.py --parent DIR --change DIR

DIR is a checkout of each commit, as for bench/record.py.  Each of the
INVOCATIONS runs as `python -m reductionlab.cli` from the checkout's src/,
with PYTHONDONTWRITEBYTECODE=1 and no REDUCTIONLAB_SEED, into a fresh
out-dir of its own, for at most TIMEOUT seconds and under an address-space
cap of MEMORY bytes: a side that hangs, or that builds an array per site
of a 10⁸-site surface, stops on its own and reads as different instead of
stalling the comparison or filling the host's memory.  For each invocation
the two sides must agree on:

* the exit status (or that both timed out);
* the bytes of every file in the out-dir: the CSV artifacts as written, and
  config-resolved.json with the out-dir path replaced by <OUT>;
* stdout, with the out-dir replaced by <OUT>;
* stderr, with the out-dir replaced by <OUT>, the checkout path by <TREE>,
  and the line number of `cli.py:<line>` masked, which moves with any
  edit to cli.py; nothing else is masked.

Each invocation prints `same` or `DIFF` and, for each part that differs,
its count of differing lines and the first SHOWN of them, each with its line
number on either side.  The lines of the two sides are matched by difflib,
so a line that only one side has shows alone and does not shift the rest.

Then `pytest tests -q -p no:cacheprovider --digest FILE` runs in each
checkout, with the same environment, and the two digest files are compared
field by field.  Within each (test id, entry point) the k-th parent line is
matched to the k-th change line, in call order.  Each field that both
lines write with different values is printed as `changed`; a parent line
with no match is printed as `missing`.  Fields that only one side writes
are counted by name, as removed (parent only) or added (change only), and
the change's unmatched lines are counted as added lines (new tests, and
calls made in forked workers, which the change's tests/conftest.py may
digest where the parent's did not).  The pytest exit statuses are compared
too.

The exit status is 1 on a difference in any invocation, on a changed
digest value or a missing digest line, or on different pytest statuses;
removed and added fields and added lines alone leave it 0.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import os
import re
import resource
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ENV = {k: v for k, v in os.environ.items() if k != "REDUCTIONLAB_SEED"}
ENV["PYTHONDONTWRITEBYTECODE"] = "1"
TIMEOUT = 60.0      # seconds per invocation and side
MEMORY = 2 << 30    # bytes of address space per invocation and side
SHOWN = 10          # differing lines printed per part; the rest are counted

# every subcommand at small sizes; --workers 1 and 2 where a command takes it
INVOCATIONS = {
    "simulate": ["simulate", "--steps", "500"],
    "simulate-dump-noise": ["simulate", "--steps", "200", "--dump-noise"],
    "simulate-density": ["simulate", "--steps", "200", "--density"],
    "simulate-euler-maruyama": ["simulate", "--steps", "500", "--scheme", "euler_maruyama"],
    "simulate-density-double-commutator": ["simulate", "--steps", "200", "--density",
                                           "--noise-form", "double_commutator"],
    "born": ["ensemble", "born", "--ntraj", "200", "--workers", "1"],
    "born-d3-workers2": ["ensemble", "born", "--dim", "3", "--weights", "0.2,0.3,0.5",
                         "--ntraj", "1100", "--workers", "2", "--seed", "5"],
    "statdist-d3": ["ensemble", "statdist", "--dim", "3", "--ntraj", "200", "--workers", "2"],
    "luders": ["ensemble", "luders", "--ntraj", "200", "--workers", "1"],
    "scaling": ["ensemble", "scaling", "--ntraj", "64", "--workers", "2"],
    "cluster-check": ["cluster-check", "--instances", "10"],
    "hartree-compare": ["hartree", "compare", "--ntraj", "4", "--horizon", "0.2",
                        "--dt", "2e-4", "--workers", "2"],
    "hartree-compare-default-dt": ["hartree", "compare", "--ntraj", "4", "--horizon", "0.02",
                                   "--workers", "2"],
    "accretion-occupancy": ["accretion", "occupancy", "--horizon", "2000"],
    "accretion-occupancy-1e8-sites": ["accretion", "occupancy", "--sites", "100000000",
                                      "--horizon", "2000"],
    "accretion-coherent": ["accretion", "coherent"],
    "accretion-coherent-wide": ["accretion", "coherent", "--z", "0.3", "--kmax", "60"],
    "phenom-t-reduce": ["phenom", "t-reduce", "--delta-e", "8.6e-6eV"],
    "phenom-accretion": ["phenom", "accretion"],
    "phenom-table": ["phenom", "table"],
    "reproduce-paper": ["reproduce-paper"],
    # bad input, exit 2: the ERROR line on stderr is compared too
    "error-simulate-nan-hamiltonian": ["simulate", "--hamiltonian", "diag:nan,1"],
    "error-simulate-dimension-mismatch": ["simulate", "--hamiltonian", "diag:0,1,2"],
    "error-born-inf-energy": ["ensemble", "born", "--energies", "0,inf", "--workers", "1"],
    "error-coherent-z-past-the-cap": ["accretion", "coherent", "--z", "1e200"],
    "error-occupancy-over-the-sample-budget": ["accretion", "occupancy", "--sites", "5",
                                               "--stick", "1", "--evap", "1e6",
                                               "--horizon", "50"],
    "error-occupancy-1e8-sites-without-samples": ["accretion", "occupancy", "--sites",
                                                  "100000000", "--horizon", "1"],
    "error-hartree-over-the-work-budget": ["hartree", "compare", "--ntraj", "400",
                                           "--horizon", "1e3"],
    "error-phenom-zero-area": ["phenom", "accretion", "--area=0cm2"],
    "error-phenom-negative-area": ["phenom", "accretion", "--area=-1cm2"],
    "error-phenom-infinite-area": ["phenom", "accretion", "--area=1e400cm2"],
    "error-t-reduce-infinite-delta-e": ["phenom", "t-reduce", "--delta-e=1e400eV"],
    "error-phenom-area-past-the-float-range": ["phenom", "accretion", "--area=1e300cm2"],
    "error-phenom-area-below-the-float-range": ["phenom", "accretion", "--area=1e-300cm2"],
    "error-t-reduce-delta-e-past-the-float-range": ["phenom", "t-reduce", "--delta-e=1e300eV"],
}


def run(checkout: Path, argv, out: Path) -> dict:
    """Exit status, masked stdout and stderr, and every file of one invocation."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))

    try:
        proc = subprocess.run([sys.executable, "-m", "reductionlab.cli", *argv,
                               "--out-dir", str(out)],
                              capture_output=True, text=True, cwd=out.parent,
                              env={**ENV, "PYTHONPATH": str(checkout / "src")},
                              timeout=TIMEOUT, preexec_fn=cap_memory)
        status, stdout, stderr = str(proc.returncode), proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:   # its output comes as bytes, if any
        status = f"timed out after {TIMEOUT:g} s"
        stdout, stderr = ((b or b"").decode(errors="replace") for b in (exc.stdout, exc.stderr))
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        data = path.read_bytes()
        files[path.name] = data if path.suffix == ".csv" else data.replace(
            str(out).encode(), b"<OUT>")
    stderr = stderr.replace(str(out), "<OUT>").replace(str(checkout), "<TREE>")
    return {"exit status": status, "stdout": stdout.replace(str(out), "<OUT>"),
            "stderr": re.sub(r"cli\.py:\d+", "cli.py:<line>", stderr), "files": files}


def differences(name: str, a, b) -> str:
    """Every differing line of a and b (str or bytes), as text: their count,
    and the first SHOWN of them.  A replaced line is a parent line and a
    change line together; a line only one side has stands alone."""
    if isinstance(a, bytes):
        a, b = a.decode(errors="replace"), b.decode(errors="replace")
    la, lb = a.splitlines(), b.splitlines()
    rows = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, la, lb, autojunk=False).get_opcodes():
        if tag != "equal":
            rows += itertools.zip_longest(
                [f"parent line {i + 1}: {la[i]}" for i in range(i1, i2)],
                [f"change line {j + 1}: {lb[j]}" for j in range(j1, j2)])
    if not rows:
        return f"{name}: line endings differ"
    shown = f", the first {SHOWN} shown" if len(rows) > SHOWN else ""
    lines = [line for row in rows[:SHOWN] for line in row if line is not None]
    count = "1 line differs" if len(rows) == 1 else f"{len(rows)} lines differ"
    return "\n  ".join([f"{name}: {count}{shown}"] + lines)


def compare(parent: dict, change: dict) -> list:
    """The differences of each part that differs between two invocation
    records: exit status, stdout, stderr, then each file by name."""
    diffs = [differences(key, parent[key], change[key])
             for key in ("exit status", "stdout", "stderr") if parent[key] != change[key]]
    for name in sorted(set(parent["files"]) | set(change["files"])):
        a, b = parent["files"].get(name), change["files"].get(name)
        if a is None or b is None:
            diffs.append(f"{name}: only {'parent' if b is None else 'change'} wrote it")
        elif a != b:
            diffs.append(differences(name, a, b))
    return diffs


def digest(checkout: Path, path: Path) -> tuple:
    """The pytest exit status, its last output line, and the digest lines of the
    checkout's test suite."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider",
                           "--digest", str(path)], capture_output=True, text=True, cwd=checkout,
                          env={**ENV, "PYTHONPATH": str(checkout / "src")})
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    return proc.returncode, last, lines


def compare_digests(parent: list, change: list) -> tuple:
    """Two digest files compared field by field: each changed value, as (test
    id, entry point, field, parent value, change value), each parent line
    with no match, the Counters of removed and of added fields by name, and
    the count of the change's added lines.  Within one (test id, entry point)
    the lines are matched in call order."""
    def grouped(lines):
        out = defaultdict(list)
        for line in lines:
            test, label, *fields = line.split(" ")
            out[test, label].append((line, dict(f.partition("=")[::2] for f in fields if f)))
        return out

    theirs, changed, missing, removed, added = grouped(change), [], [], Counter(), Counter()
    new_lines = 0
    for (test, label), mine in grouped(parent).items():
        other = theirs.pop((test, label), [])
        for (_, a), (_, b) in zip(mine, other):
            changed += [(test, label, k, a[k], b[k]) for k in a if k in b and a[k] != b[k]]
            removed.update(k for k in a if k not in b)
            added.update(k for k in b if k not in a)
        missing += [line for line, _ in mine[len(other):]]
        new_lines += max(len(other) - len(mine), 0)
    return changed, missing, removed, added, new_lines + sum(map(len, theirs.values()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in INVOCATIONS.items():
            rec = {}
            for side, checkout in sides.items():
                (Path(tmp) / side).mkdir(exist_ok=True)
                rec[side] = run(checkout, cmd, Path(tmp) / side / name)
            diffs = compare(rec["parent"], rec["change"])
            differ += bool(diffs)
            print(f"{'DIFF' if diffs else 'same'} {name}: {' '.join(cmd)}", flush=True)
            for diff in diffs:
                print("  " + diff.replace("\n", "\n  "), flush=True)
        print(f"{differ} of {len(INVOCATIONS)} invocations differ", flush=True)
        runs = {side: digest(checkout, Path(tmp) / f"{side}.digest")
                for side, checkout in sides.items()}
    for side, (status, last, lines) in runs.items():
        print(f"pytest {side}: exit status {status}, {len(lines)} digest lines: {last}")
    changed, missing, removed, added, new_lines = compare_digests(runs["parent"][2],
                                                                  runs["change"][2])
    for test, label, field, a, b in changed:
        print(f"changed: {test} {label} {field}\n  parent: {a}\n  change: {b}")
    for line in missing:
        print(f"missing: {line}")
    for kind, fields in (("removed", removed), ("added", added)):
        print(f"{kind} fields: " + (", ".join(f"{k} ({n} lines)" for k, n in sorted(
            fields.items())) or "none"))
    print(f"digest: {len(changed)} values changed, {len(missing)} parent lines missing, "
          f"{new_lines} lines added")
    statuses = runs["parent"][0] != runs["change"][0]
    return 1 if differ or changed or missing or statuses else 0


if __name__ == "__main__":
    sys.exit(main())
