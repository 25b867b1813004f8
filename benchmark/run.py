"""Benchmark entry point.

    python3 benchmark/run.py --workload committed_sim --seed 1 --seconds 30 --trace 0

Run from any directory; the package is imported from the ``src``
directory next to this one, never from an installed copy.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``).  ``--workload all`` runs
every workload, each in its own process, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# one thread per workload process, set before NumPy loads: the reference
# machine has two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_package():
    """Import exposure_bandits and its CLI from this checkout's sources."""
    if not (SRC / "exposure_bandits" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    warnings.filterwarnings(
        "ignore", message="type .* arrives less than once per phase", category=RuntimeWarning
    )
    import exposure_bandits
    import exposure_bandits.cli as cli

    if Path(exposure_bandits.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported {exposure_bandits.__file__}, not {SRC}")
    return exposure_bandits, cli


def make_workload(args, workdir: Path):
    eb, cli = import_package()
    workdir.mkdir(parents=True, exist_ok=True)
    return eb, cli, workloads.WORKLOADS[args.workload](eb, args.seed, args.scale, workdir)


def workdir_for(pid: int) -> Path:
    return ROOT / ".bench_out" / f"run-{pid}"


class SetupProbe:
    """Time from starting a fresh interpreter to having the package imported
    and the workload's inputs built, at the reference speed (``samples``)
    and as measured (``raw``).  One sample is taken after every pass,
    outside the timed region, so the samples span the whole run."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--probe",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--scale", args.scale]
        self.samples: list[float] = []
        self.raw: list[float] = []
        self.sample()  # warm-up: file cache and bytecode, not recorded
        self.samples.clear()
        self.raw.clear()

    def sample(self) -> None:
        before = gauge.gauge()
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed with code {code}")
        self.raw.append(elapsed)
        self.samples.append(elapsed * gauge.to_reference(before, gauge.gauge()))


def run_passes(workload, recorder, seed: int, seconds: float, probe=None,
               trace=None):
    """Whole passes until ``seconds`` have elapsed.  The host-speed gauge
    runs before the first operation and after each one, and an operation's
    times are taken to the reference speed with the two readings around
    it.  With ``trace`` (the package and its CLI), every operation runs
    twice with the same seed, once with the layer wrappers installed and
    once without, in an order that alternates from one operation to the
    next and with a gauge reading after each, so that warm-up and the
    host's drift cancel out of the difference; the pass keeps the traced
    runs' spans and results.  Returns the per-pass records, the attempted
    and failed operation counts and the check failures."""
    passes, attempted, failed, problems = [], 0, 0, []
    start = time.perf_counter()
    pass_idx = 0
    while True:
        results = []
        # the untraced runs' wall, planner and simulation time at the
        # reference speed, their rounds and raw wall time, and the traced
        # twins' wall time at the reference speed
        totals = dict.fromkeys(("wall_s", "plan_s", "sim_s", "rounds",
                                "raw_wall_s", "traced_wall_s"), 0.0)
        recorder.clear()
        recorder.active = True
        before = gauge.gauge()
        for op_idx, op in enumerate(workload.ops):
            op_seed = workloads.episode_seed(seed, pass_idx, op_idx)
            if trace is None:
                modes = (False,)
            else:
                modes = (False, True) if (pass_idx + op_idx) % 2 == 0 else (True, False)
            for traced in modes:
                attempted += 1
                mark = len(recorder.spans)
                if traced:
                    recorder.install_layers(*trace)
                t0 = time.perf_counter()
                try:
                    result = workload.run_op(op, op_seed)
                except Exception as exc:  # counted as a failed operation
                    result = exc
                elapsed = time.perf_counter() - t0
                if traced:
                    recorder.uninstall_layers()
                after = gauge.gauge()
                scale = gauge.to_reference(before, after)
                before = after
                if traced:
                    totals["traced_wall_s"] += elapsed * scale
                else:
                    own = recorder.end_to_end(mark)
                    totals["wall_s"] += elapsed * scale
                    for key in ("plan_s", "sim_s"):
                        totals[key] += own[key] * scale
                    totals["rounds"] += own["rounds"]
                    totals["raw_wall_s"] += elapsed
                    if trace is not None:
                        del recorder.spans[mark:]  # the untraced twin is only timed
                if isinstance(result, Exception):
                    failed += 1
                    problems.append(f"{op[0]}: {type(result).__name__}: {result}")
                elif traced or trace is None:
                    results.append((op, result))
        recorder.active = False
        passes.append({**totals, "layers": recorder.layers()})
        problems += workload.check(results)
        del results
        if probe is not None:
            probe.sample()
        pass_idx += 1
        if time.perf_counter() - start >= seconds:
            return passes, attempted, failed, problems


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def run_workload(args) -> int:
    spec = load_spec()
    probe = None if args.trace else SetupProbe(args)
    workdir = workdir_for(os.getpid())
    try:
        eb, cli, workload = make_workload(args, workdir)
        recorder = tracing.Recorder()
        recorder.install_timers(eb)
        passes, attempted, failed, problems = run_passes(
            workload, recorder, args.seed, args.seconds, probe,
            (eb, cli) if args.trace else None)
        recorder.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = {name: statistics.median(p["layers"][name] for p in passes)
                  for name in passes[0]["layers"]}
        values["trace.overhead_s"] = statistics.median(
            p["traced_wall_s"] - p["wall_s"] for p in passes)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(probe.samples),
            "wall_s": median_of(passes, "wall_s"),
            "plan_s": median_of(passes, "plan_s"),
            "sim_rounds_per_s": statistics.median(p["rounds"] / p["sim_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations", file=sys.stderr)
    if not args.trace:
        print(f"  as measured: setup_s {statistics.median(probe.raw):.6g} s, "
              f"wall_s {median_of(passes, 'raw_wall_s'):.6g} s", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one table of metrics."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="input sizes; smoke is for the harness's own test")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    import_package()  # fail before any timing when the sources are missing
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        workdir = workdir_for(os.getpid())
        try:
            make_workload(args, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
