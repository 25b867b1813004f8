"""Steadiness check: two sets of runs of the same code, compared.

    python3 benchmark/steady.py --runs 10 --sets 2

Runs ``benchmark/run.py`` once per (set, run, workload), each run with its
own seed, and prints for every end-to-end metric on every workload the
spread of each set (distance between the first and third quartile, as a
share of the median) and the drift of the second set's median from the
first's, in the metric's worse direction, next to the metric's bound.
It also compares the share of failed operations between the sets.  Every
run measures for BENCHMARK.json's ``run_seconds``.  Raw results go to
``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exited with code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def report(spec: dict, results: dict) -> bool:
    """Print the table; True when every spread and every drift is within
    its bound and the failed shares agree."""
    ok = True
    print(f"{'workload':15s} {'metric':18s} {'median':>12s} {'spread':>14s} "
          f"{'drift':>8s} {'bound':>6s}")
    for workload, sets in results.items():
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals if len(v) >= 2]
            drift = 0.0
            if len(medians) >= 2:
                change = (medians[1] - medians[0]) / medians[0]
                drift = change if m["better"] == "lower" else -change
            bad = drift > bound or any(s > bound for s in spreads)
            ok &= not bad
            note = "FAIL" if bad else ("wide" if any(s > bound / 3 for s in spreads) else "")
            print(f"{workload:15s} {name:18s} {medians[0]:12.6g} "
                  f"{'/'.join(f'{s:.3f}' for s in spreads):>14s} {drift:+8.3f} "
                  f"{bound:6.2f} {note}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        if len(set(shares)) > 1 or not correct:
            ok = False
        print(f"{workload:15s} failed share per set {shares}, all correct: {correct}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seed", type=int, default=1, help="first seed")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(args.sets)] for w in names}
    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.seed + s * args.runs + i
            for w in names:
                results[w][s].append(run_once(w, seed, spec["run_seconds"]))
                out.write_text(json.dumps(results))
            print(f"set {s + 1} run {i + 1} done", file=sys.stderr, flush=True)
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
